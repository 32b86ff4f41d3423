//! Text serialization of transfer logs.
//!
//! One record per line, 12 pipe-separated fields mirroring the Globus
//! usage-statistics field set (§II), with a `#`-prefixed header. The
//! format is lossless (microsecond timestamps are written as raw
//! integers) so datasets round-trip exactly, and diff-friendly so
//! generated datasets can be inspected and committed as fixtures.
//!
//! Both directions stream with no per-line allocation: the parser
//! reads each line into one reused byte buffer and cuts it into a
//! fixed array of twelve `&str` fields, and the writer formats each
//! record's fields straight into the `Write`. Only the endpoint names
//! are allocated, once per distinct name. A malformed line fails with
//! its 1-based line number and reason, invalid UTF-8 included.
//!
//! ```text
//! # gvc-transfer-log v1
//! STOR|34359738368|1284429600000000|120500000|dtn1.nersc.gov|-|8|1|4194304|262144|disk|disk
//! ```

use crate::record::{EndpointKind, TransferRecord, TransferType};
use crate::Dataset;
use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// The header line identifying the format version.
pub const HEADER: &str = "# gvc-transfer-log v1";

/// The reason a line that is not UTF-8 fails with: the text of the
/// `io::Error` that `BufRead::lines` reports for it.
const INVALID_UTF8: &str = "io error: stream did not contain valid UTF-8";

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn opt_token(v: Option<&str>) -> &str {
    v.unwrap_or("-")
}

fn kind_token(v: Option<EndpointKind>) -> &'static str {
    v.map_or("-", EndpointKind::token)
}

/// Writes one record as a log line, newline included.
fn write_record<W: Write>(w: &mut W, r: &TransferRecord) -> io::Result<()> {
    writeln!(
        w,
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        r.transfer_type.token(),
        r.size_bytes,
        r.start_unix_us,
        r.duration_us,
        r.server,
        opt_token(r.remote.as_deref()),
        r.num_streams,
        r.num_stripes,
        r.tcp_buffer_bytes,
        r.block_size_bytes,
        kind_token(r.src_kind),
        kind_token(r.dst_kind),
    )
}

/// The endpoint names seen so far in one parse, each allocated once
/// and shared by every record that carries it.
#[derive(Default)]
struct Names(HashSet<Arc<str>>);

impl Names {
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = name.into();
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// Parses one log line (without newline), taking its names from
/// `names`.
fn parse_record(line: &str, names: &mut Names) -> Result<TransferRecord, String> {
    let mut fields = [""; 12];
    let mut n_fields = 0;
    for field in line.split('|') {
        if let Some(slot) = fields.get_mut(n_fields) {
            *slot = field;
        }
        n_fields += 1;
    }
    if n_fields != 12 {
        return Err(format!("expected 12 fields, got {n_fields}"));
    }
    let [f_type, f_size, f_start, f_dur, f_server, f_remote, f_streams, f_stripes, f_buf, f_block, f_src, f_dst] =
        fields;
    let parse_num = |s: &str, what: &str| -> Result<i64, String> {
        s.parse::<i64>().map_err(|_| format!("bad {what}: {s:?}"))
    };
    let transfer_type =
        TransferType::parse(f_type).ok_or_else(|| format!("bad transfer type: {f_type:?}"))?;
    let size_bytes = parse_num(f_size, "size")? as u64;
    let start_unix_us = parse_num(f_start, "start")?;
    let duration_us = parse_num(f_dur, "duration")?;
    if f_server.is_empty() {
        return Err("empty server name".to_owned());
    }
    let server = names.intern(f_server);
    let remote = if f_remote == "-" { None } else { Some(names.intern(f_remote)) };
    let num_streams = parse_num(f_streams, "streams")? as u32;
    let num_stripes = parse_num(f_stripes, "stripes")? as u32;
    let tcp_buffer_bytes = parse_num(f_buf, "tcp buffer")? as u64;
    let block_size_bytes = parse_num(f_block, "block size")? as u64;
    let parse_kind = |s: &str, what: &str| -> Result<Option<EndpointKind>, String> {
        if s == "-" {
            Ok(None)
        } else {
            EndpointKind::parse(s).map(Some).ok_or_else(|| format!("bad {what}: {s:?}"))
        }
    };
    Ok(TransferRecord {
        transfer_type,
        size_bytes,
        start_unix_us,
        duration_us,
        server,
        remote,
        num_streams,
        num_stripes,
        tcp_buffer_bytes,
        block_size_bytes,
        src_kind: parse_kind(f_src, "src kind")?,
        dst_kind: parse_kind(f_dst, "dst kind")?,
    })
}

/// Writes a dataset (header + one line per record).
///
/// ```
/// use gvc_logs::{parse_dataset, write_dataset, Dataset, TransferRecord, TransferType};
///
/// let ds = Dataset::from_records(vec![TransferRecord::simple(
///     TransferType::Store, 1 << 30, 0, 5_000_000, "srv", Some("peer"),
/// )]);
/// let mut buf = Vec::new();
/// write_dataset(&mut buf, &ds).unwrap();
/// assert_eq!(parse_dataset(&buf[..]).unwrap(), ds);
/// ```
pub fn write_dataset<W: Write>(w: &mut W, ds: &Dataset) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for r in ds.records() {
        write_record(w, r)?;
    }
    Ok(())
}

/// Parses a dataset written by [`write_dataset`]. Blank lines and
/// additional `#` comments are skipped; the header is optional (so
/// hand-built fixtures stay easy). Records share their endpoint names:
/// each distinct name is allocated once per parse.
pub fn parse_dataset<R: BufRead>(mut r: R) -> Result<Dataset, ParseError> {
    let mut records = Vec::new();
    let mut names = Names::default();
    let mut buf = Vec::new();
    for line_no in 1.. {
        let err = |reason: String| ParseError { line: line_no, reason };
        buf.clear();
        if r.read_until(b'\n', &mut buf).map_err(|e| err(format!("io error: {e}")))? == 0 {
            break;
        }
        let line = std::str::from_utf8(&buf).map_err(|_| err(INVALID_UTF8.to_owned()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        records.push(parse_record(trimmed, &mut names).map_err(err)?);
    }
    Ok(Dataset::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One record's log line, without its newline.
    fn format_record(r: &TransferRecord) -> String {
        let mut buf = Vec::new();
        write_record(&mut buf, r).unwrap();
        buf.pop();
        String::from_utf8(buf).unwrap()
    }

    fn rec() -> TransferRecord {
        let mut r = TransferRecord::simple(
            TransferType::Retr,
            34_359_738_368,
            1_284_429_600_000_000,
            120_500_000,
            "dtn1.nersc.gov",
            None,
        );
        r.num_streams = 8;
        r.src_kind = Some(EndpointKind::Disk);
        r
    }

    #[test]
    fn record_round_trip() {
        let r = rec();
        let line = format_record(&r);
        assert_eq!(parse_record(&line, &mut Names::default()).unwrap(), r);
    }

    #[test]
    fn anonymized_remote_renders_dash() {
        let line = format_record(&rec());
        assert!(line.contains("|-|"));
    }

    #[test]
    fn dataset_round_trip() {
        let mut ds = Dataset::new();
        for i in 0..10 {
            ds.push(TransferRecord::simple(
                TransferType::Store,
                1000 * i,
                i as i64 * 1_000_000,
                500_000,
                "a.example",
                Some("b.example"),
            ));
        }
        ds.sort();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds).unwrap();
        let parsed = parse_dataset(&buf[..]).unwrap();
        assert_eq!(parsed, ds);
    }

    #[test]
    fn parsed_records_share_their_names() {
        let text =
            "STOR|1|0|1|a|b|1|1|0|0|-|-\nRETR|1|1|1|b|a|1|1|0|0|-|-\nSTOR|1|2|1|a|-|1|1|0|0|-|-\n";
        let ds = parse_dataset(text.as_bytes()).unwrap();
        let r = ds.records();
        let (a, b) = (&r[0].server, r[0].remote.as_ref().unwrap());
        assert!(Arc::ptr_eq(a, r[1].remote.as_ref().unwrap()));
        assert!(Arc::ptr_eq(b, &r[1].server));
        assert!(Arc::ptr_eq(a, &r[2].server));
        assert_eq!(r[2].remote, None);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("{HEADER}\n\n# comment\n{}\n", format_record(&rec()));
        let ds = parse_dataset(text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn bad_field_count_reports_line() {
        let text = "STOR|1|2\n";
        let err = parse_dataset(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("12 fields"));
    }

    #[test]
    fn bad_transfer_type_rejected() {
        let mut line = format_record(&rec());
        line.replace_range(0..4, "XFER");
        assert!(parse_record(&line, &mut Names::default()).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let line = "STOR|notanumber|0|0|s|-|1|1|0|0|-|-";
        let err = parse_record(line, &mut Names::default()).unwrap_err();
        assert!(err.contains("bad size"));
    }

    #[test]
    fn empty_server_rejected() {
        let line = "STOR|1|0|0||-|1|1|0|0|-|-";
        assert!(parse_record(line, &mut Names::default()).is_err());
    }

    proptest! {
        /// Every syntactically valid record round-trips through the
        /// text format bit-for-bit.
        #[test]
        fn prop_round_trip(
            store in proptest::bool::ANY,
            size in 0u64..1u64 << 45,
            start in 0i64..2_000_000_000_000_000,
            dur in 0i64..100_000_000_000,
            streams in 1u32..64,
            stripes in 1u32..8,
            remote_present in proptest::bool::ANY,
        ) {
            let mut r = TransferRecord::simple(
                if store { TransferType::Store } else { TransferType::Retr },
                size, start, dur, "server.example",
                remote_present.then_some("remote.example"),
            );
            r.num_streams = streams;
            r.num_stripes = stripes;
            let line = format_record(&r);
            prop_assert_eq!(parse_record(&line, &mut Names::default()).unwrap(), r);
        }
    }
}

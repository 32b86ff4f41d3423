//! Property tests for the usage-log parser: [`parse_dataset`] is total
//! and agrees with a line-by-line reference. Arbitrary bytes, token
//! soup, near-valid records and single-byte flips of a valid log (most
//! of them invalid UTF-8) each return a dataset or a typed
//! [`ParseError`], never a panic, and exactly what the reference
//! returns: the same records, or the same line and reason. Every input
//! is also parsed through a three-byte read buffer, so lines that
//! straddle buffer refills are covered.

use gvc_logs::{parse_dataset, Dataset, EndpointKind, ParseError, TransferRecord, TransferType};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::sync::Arc;

/// The reference parser: `BufRead::lines`, one `String` per line and
/// one `Vec` of fields per record, with every check in the order and
/// wording the log format defines.
mod reference {
    use super::*;

    fn parse_record(line: &str) -> Result<TransferRecord, String> {
        let fields: Vec<&str> = line.split('|').collect();
        let n_fields = fields.len();
        let Ok(
            [f_type, f_size, f_start, f_dur, f_server, f_remote, f_streams, f_stripes, f_buf, f_block, f_src, f_dst],
        ) = <[&str; 12]>::try_from(fields)
        else {
            return Err(format!("expected 12 fields, got {n_fields}"));
        };
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
        let server: Arc<str> = f_server.into();
        let remote = if f_remote == "-" { None } else { Some(f_remote.into()) };
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

    pub fn parse_dataset<R: BufRead>(r: R) -> Result<Dataset, ParseError> {
        let mut records = Vec::new();
        for (idx, line) in r.lines().enumerate() {
            let line =
                line.map_err(|e| ParseError { line: idx + 1, reason: format!("io error: {e}") })?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            records.push(
                parse_record(trimmed).map_err(|reason| ParseError { line: idx + 1, reason })?,
            );
        }
        Ok(Dataset::from_records(records))
    }
}

/// Parses `bytes` from a slice and through a three-byte buffer, and
/// requires both results to equal the reference's.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let want = reference::parse_dataset(bytes);
    prop_assert_eq!(
        parse_dataset(bytes),
        want.clone(),
        "input {:?}",
        String::from_utf8_lossy(bytes)
    );
    let small = BufReader::with_capacity(3, bytes);
    prop_assert_eq!(parse_dataset(small), want, "input {:?} (3-byte buffer)", bytes);
    Ok(())
}

/// A valid log: header, comment, blank and CRLF lines, every field
/// form (`-` remotes and kinds, both types, both kinds) and a
/// non-ASCII name.
const VALID: &str = "# gvc-transfer-log v1
STOR|34359738368|1284429600000000|120500000|dtn1.nersc.gov|-|8|1|4194304|262144|disk|disk
RETR|1000|1284429601000000|5000|dtn1.nersc.gov|dtn.ornl.gov|1|1|0|0|mem|-

# a comment
  STOR|7|-5|0|s\u{e9}rveur|dtn.ornl.gov|4|2|65536|1024|-|mem  \r
RETR|9223372036854775807|0|-9223372036854775808|dtn.ornl.gov|dtn1.nersc.gov|64|8|1|1|disk|mem
";

/// Fragments that recombine into near-valid logs: separators, every
/// token of the format, numbers at and past the `i64` edges, line
/// breaks, Unicode spaces that `trim` removes and a BOM that it keeps.
static TOKENS: &[&str] = &[
    "|",
    "|",
    "|",
    "-",
    "STOR",
    "RETR",
    "+7",
    "9223372036854775808",
    "-9223372036854775808",
    "0",
    "12",
    "disk",
    "mem",
    "dtn.ornl.gov",
    "#",
    "\n",
    "\r\n",
    "\r",
    " ",
    "\t",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "\u{feff}",
    "é",
];
const TOKENS_LEN: u64 = TOKENS.len() as u64;

/// Candidate values per field of a near-valid record: index `i` holds
/// a valid value for field `i % 12` and hostile ones beside it.
static FIELD_VALUES: [&[&str]; 12] = [
    &["STOR", "RETR", "stor", ""],
    &["1", "+7", "-1", "9223372036854775808", "1e3", ""],
    &["0", "1284429600000000", "-5", "x"],
    &["0", "120500000", "9223372036854775807", " 1"],
    &["srv", "", "dtn.ornl.gov", "\u{3000}"],
    &["-", "peer", "srv", ""],
    &["8", "4294967297", "-1", "eight"],
    &["1", "0", "+2", "1.5"],
    &["4194304", "18446744073709551615", "-3"],
    &["262144", "0", "--1"],
    &["disk", "mem", "-", "tape"],
    &["disk", "mem", "-", "DISK"],
];

/// One near-valid record line with 11 to 13 fields.
fn record_line(picks: &[u64]) -> String {
    let n_fields = 11 + (picks[0] % 3) as usize;
    let mut fields = Vec::with_capacity(n_fields);
    for (i, &pick) in picks[1..=n_fields].iter().enumerate() {
        let values = FIELD_VALUES[i % 12];
        // Mostly the valid first value, so whole lines parse often.
        let v = if pick % 4 == 0 { values[(pick / 4) as usize % values.len()] } else { values[0] };
        fields.push(v);
    }
    fields.join("|")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, most of them invalid UTF-8.
    #[test]
    fn arbitrary_bytes_match_the_reference(bytes in proptest::collection::vec(0u16..256, 0..200)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        check(&raw)?;
    }

    /// Token soup over the format's separators, numbers and spaces.
    #[test]
    fn token_soup_matches_the_reference(picks in proptest::collection::vec(0u64..TOKENS_LEN, 0..60)) {
        let text: String = picks.iter().map(|&i| TOKENS[i as usize]).collect();
        check(text.as_bytes())?;
    }

    /// Logs of near-valid records: wrong field counts, signs, overflow
    /// and bad tokens in each field, so both the accepting path and
    /// every error of every field are reached.
    #[test]
    fn near_valid_records_match_the_reference(
        lines in proptest::collection::vec(proptest::collection::vec(0u64..64, 14..15), 1..6),
    ) {
        let text: String = lines.iter().map(|picks| record_line(picks) + "\n").collect();
        check(text.as_bytes())?;
    }

    /// One flipped byte anywhere in a valid log.
    #[test]
    fn single_byte_flips_match_the_reference(at in 0usize..4096, mask in 1u16..256) {
        let mut raw = VALID.as_bytes().to_vec();
        let at = at % raw.len();
        raw[at] ^= mask as u8;
        check(&raw)?;
    }
}

/// The valid log parses, every prefix of it matches the reference,
/// and a line that is not UTF-8 fails at its own line number.
#[test]
fn valid_log_prefixes_and_invalid_utf8_match_the_reference() {
    assert_eq!(parse_dataset(VALID.as_bytes()).map(|ds| ds.len()), Ok(4));
    for end in 0..=VALID.len() {
        check(&VALID.as_bytes()[..end]).unwrap_or_else(|e| panic!("prefix {end}: {e}"));
    }
    let mut raw = VALID.as_bytes().to_vec();
    let line3 = VALID.find("RETR").expect("a RETR line");
    raw[line3] = 0xff;
    let err = parse_dataset(&raw[..]).expect_err("invalid UTF-8");
    assert_eq!(
        err,
        ParseError { line: 3, reason: "io error: stream did not contain valid UTF-8".to_owned() }
    );
    check(&raw).unwrap_or_else(|e| panic!("{e}"));
}

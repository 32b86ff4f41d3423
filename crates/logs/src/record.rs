//! The per-transfer usage-statistics record.
//!
//! A log names few endpoints across many records (the full-scale
//! repro logs 410 396 transfers between 7 names), so a record's
//! `server` and `remote` are shared `Arc<str>` names rather than owned
//! strings: the simulation driver hands out its clusters' names, and
//! `parse_dataset` interns each distinct name once per parse.

use gvc_engine::calendar::CivilDateTime;
use std::sync::Arc;

/// Direction of a transfer relative to the logging server (§II: the
/// log lists "transfer type (store or retrieve)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferType {
    /// STOR: a file was stored onto the logging server (inbound).
    Store,
    /// RETR: a file was retrieved from the logging server (outbound).
    Retr,
}

impl TransferType {
    /// The log token (`STOR` / `RETR`).
    pub fn token(self) -> &'static str {
        match self {
            TransferType::Store => "STOR",
            TransferType::Retr => "RETR",
        }
    }

    /// Parses a log token.
    pub fn parse(s: &str) -> Option<TransferType> {
        match s {
            "STOR" => Some(TransferType::Store),
            "RETR" => Some(TransferType::Retr),
            _ => None,
        }
    }
}

/// Whether a transfer endpoint was server memory or its disk array.
/// Real GridFTP logs do not carry this; the paper inferred it from the
/// NERSC–ANL test-transfer naming (mem-to-mem, disk-to-disk, …), and
/// the workload generator records it the same way, as optional
/// metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointKind {
    /// `/dev/zero`-style memory endpoint.
    Memory,
    /// Disk-array endpoint.
    Disk,
}

impl EndpointKind {
    /// The log token (`mem` / `disk`).
    pub fn token(self) -> &'static str {
        match self {
            EndpointKind::Memory => "mem",
            EndpointKind::Disk => "disk",
        }
    }

    /// Parses a log token.
    pub fn parse(s: &str) -> Option<EndpointKind> {
        match s {
            "mem" => Some(EndpointKind::Memory),
            "disk" => Some(EndpointKind::Disk),
            _ => None,
        }
    }
}

/// One entry in a GridFTP transfer log: a single file movement.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// STOR or RETR.
    pub transfer_type: TransferType,
    /// File size in bytes.
    pub size_bytes: u64,
    /// Start time, microseconds since the unix epoch (UTC).
    pub start_unix_us: i64,
    /// Transfer duration in microseconds.
    pub duration_us: i64,
    /// Domain name of the logging GridFTP server.
    pub server: Arc<str>,
    /// Domain name of the other end, or `None` when anonymized (the
    /// NERSC dataset case).
    pub remote: Option<Arc<str>>,
    /// Number of parallel TCP streams.
    pub num_streams: u32,
    /// Number of stripes (servers participating at each end).
    pub num_stripes: u32,
    /// TCP buffer size in bytes.
    pub tcp_buffer_bytes: u64,
    /// GridFTP block size in bytes.
    pub block_size_bytes: u64,
    /// Source endpoint kind when known (test transfers only).
    pub src_kind: Option<EndpointKind>,
    /// Destination endpoint kind when known (test transfers only).
    pub dst_kind: Option<EndpointKind>,
}

impl TransferRecord {
    /// Transfer duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_us as f64 / 1e6
    }

    /// End time (start + duration), microseconds since the unix epoch.
    pub fn end_unix_us(&self) -> i64 {
        self.start_unix_us + self.duration_us
    }

    /// True for records whose duration is zero or negative: clock
    /// skew, truncated log lines, or sub-resolution transfers. Such
    /// records have no defined throughput and are excluded from
    /// throughput distributions (they would otherwise contribute a
    /// fictitious 0 Mbps and bias quantiles downward).
    pub fn is_degenerate(&self) -> bool {
        self.duration_us <= 0
    }

    /// Average throughput in bits per second (the paper's per-transfer
    /// throughput measure: size ÷ duration).
    ///
    /// Returns 0 for zero-duration records rather than infinity, so
    /// degenerate log entries cannot poison summary statistics. Callers
    /// building throughput *distributions* should skip
    /// [`TransferRecord::is_degenerate`] records instead of folding
    /// these placeholder zeros in.
    pub fn throughput_bps(&self) -> f64 {
        if self.is_degenerate() {
            return 0.0;
        }
        self.size_bytes as f64 * 8.0 / self.duration_s()
    }

    /// Throughput in megabits per second (the unit of Tables I–IX).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / 1e6
    }

    /// Civil start time (UTC).
    pub fn start_civil(&self) -> CivilDateTime {
        CivilDateTime::from_unix(self.start_unix_us.div_euclid(1_000_000))
    }

    /// The key identifying the server pair this transfer belongs to —
    /// session grouping runs per (server, remote) pair. `None` when the
    /// remote is anonymized (such transfers cannot be sessionized,
    /// exactly the paper's NERSC limitation).
    pub fn pair_key(&self) -> Option<(&str, &str)> {
        self.remote.as_deref().map(|r| (&*self.server, r))
    }
}

/// Builder-style convenience for tests and generators.
impl TransferRecord {
    /// A minimal record with sane defaults (1-stream, 1-stripe, 4 MB
    /// buffer, 256 KB blocks); intended for tests and generators.
    pub fn simple(
        transfer_type: TransferType,
        size_bytes: u64,
        start_unix_us: i64,
        duration_us: i64,
        server: &str,
        remote: Option<&str>,
    ) -> TransferRecord {
        TransferRecord {
            transfer_type,
            size_bytes,
            start_unix_us,
            duration_us,
            server: server.into(),
            remote: remote.map(Arc::from),
            num_streams: 1,
            num_stripes: 1,
            tcp_buffer_bytes: 4 << 20,
            block_size_bytes: 256 << 10,
            src_kind: None,
            dst_kind: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> TransferRecord {
        TransferRecord::simple(
            TransferType::Store,
            1_000_000_000,
            1_000_000,
            8_000_000,
            "srv.a",
            Some("peer.b"),
        )
    }

    #[test]
    fn tokens_round_trip() {
        assert_eq!(TransferType::parse("STOR"), Some(TransferType::Store));
        assert_eq!(TransferType::parse("RETR"), Some(TransferType::Retr));
        assert_eq!(TransferType::parse("stor"), None);
        assert_eq!(TransferType::Store.token(), "STOR");
        assert_eq!(EndpointKind::parse("mem"), Some(EndpointKind::Memory));
        assert_eq!(EndpointKind::parse("disk"), Some(EndpointKind::Disk));
        assert_eq!(EndpointKind::parse("x"), None);
    }

    #[test]
    fn throughput_is_size_over_duration() {
        let r = rec();
        // 1 GB in 8 s = 1 Gbps
        assert!((r.throughput_bps() - 1e9).abs() < 1.0);
        assert!((r.throughput_mbps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_throughput_is_zero() {
        let mut r = rec();
        r.duration_us = 0;
        assert_eq!(r.throughput_bps(), 0.0);
        r.duration_us = -5;
        assert_eq!(r.throughput_bps(), 0.0);
    }

    #[test]
    fn end_time() {
        let r = rec();
        assert_eq!(r.end_unix_us(), 9_000_000);
        assert!((r.duration_s() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn pair_key_requires_remote() {
        let r = rec();
        assert_eq!(r.pair_key(), Some(("srv.a", "peer.b")));
        let mut anon = rec();
        anon.remote = None;
        assert_eq!(anon.pair_key(), None);
    }

    #[test]
    fn records_stay_compact() {
        // 104 B with owned `String` names; a re-owned name grows each
        // of the full repro's 410 396 records back.
        assert!(std::mem::size_of::<TransferRecord>() <= 88);
    }

    #[test]
    fn civil_start() {
        let mut r = rec();
        r.start_unix_us = 1_333_324_800_000_000; // 2012-04-02T00:00:00Z
        let c = r.start_civil();
        assert_eq!((c.year, c.month, c.day), (2012, 4, 2));
    }
}

//! Descriptive-summary tables (Tables I, II, V, VI, VII).
//!
//! Tables I and II characterize *session* sizes (MB) and durations
//! (s) but *transfer* throughput (Mbps) — "session throughputs could
//! be lower if some of the individual transfers within a session had
//! lower throughput" (§VI-A). Tables V–VII are plain transfer
//! summaries over a filtered slice.

use crate::sweep::SessionStore;
use gvc_logs::{Dataset, EndpointKind};
use gvc_stats::Summary;

/// The Table I/II triple: session sizes, session durations, transfer
/// throughputs.
#[derive(Debug, Clone)]
pub struct SessionTable {
    /// Session sizes in megabytes (10⁶ bytes).
    pub session_size_mb: Summary,
    /// Session durations in seconds.
    pub session_duration_s: Summary,
    /// Per-transfer throughput in Mbps.
    pub transfer_throughput_mbps: Summary,
}

/// Builds Table I/II from a [`SessionStore`] at one gap value:
/// sessions are index ranges over the store, never cloned records.
/// Returns `None` when the store has no session or no transfer with
/// a defined throughput.
pub fn session_table(store: &SessionStore, gap_s: f64) -> Option<SessionTable> {
    let ranges = store.sessions_at(gap_s);
    let mut sizes = Vec::with_capacity(ranges.len());
    let mut durations = Vec::with_capacity(ranges.len());
    for &r in &ranges {
        let v = store.session(r);
        sizes.push(v.size_bytes() as f64 / 1e6);
        durations.push(v.duration_s());
    }
    Some(SessionTable {
        session_size_mb: Summary::of(&sizes)?,
        session_duration_s: Summary::of(&durations)?,
        transfer_throughput_mbps: Summary::of(store.throughputs_mbps())?,
    })
}

/// Table V/VII-style transfer summary: duration and throughput of a
/// slice of transfers.
#[derive(Debug, Clone)]
pub struct TransferTable {
    /// Durations, seconds.
    pub duration_s: Summary,
    /// Throughputs, Mbps.
    pub throughput_mbps: Summary,
}

/// Builds a transfer summary for a dataset slice.
pub fn transfer_table(ds: &Dataset) -> Option<TransferTable> {
    let durations: Vec<f64> =
        ds.records().iter().map(gvc_logs::TransferRecord::duration_s).collect();
    Some(TransferTable {
        duration_s: Summary::of(&durations)?,
        throughput_mbps: Summary::of(&ds.throughputs_mbps())?,
    })
}

/// The four NERSC–ANL endpoint-type categories of Table VI / Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointCategory {
    /// memory → memory
    MemMem,
    /// memory → disk
    MemDisk,
    /// disk → memory
    DiskMem,
    /// disk → disk
    DiskDisk,
}

impl EndpointCategory {
    /// All categories in the paper's column order.
    pub const ALL: [EndpointCategory; 4] = [
        EndpointCategory::MemMem,
        EndpointCategory::MemDisk,
        EndpointCategory::DiskMem,
        EndpointCategory::DiskDisk,
    ];

    /// The paper's column label.
    pub fn label(self) -> &'static str {
        match self {
            EndpointCategory::MemMem => "mem-mem",
            EndpointCategory::MemDisk => "mem-disk",
            EndpointCategory::DiskMem => "disk-mem",
            EndpointCategory::DiskDisk => "disk-disk",
        }
    }

    fn matches(self, src: EndpointKind, dst: EndpointKind) -> bool {
        use EndpointKind::{Disk, Memory};
        matches!(
            (self, src, dst),
            (EndpointCategory::MemMem, Memory, Memory)
                | (EndpointCategory::MemDisk, Memory, Disk)
                | (EndpointCategory::DiskMem, Disk, Memory)
                | (EndpointCategory::DiskDisk, Disk, Disk)
        )
    }
}

/// One Table VI column: throughput summary + CV for a category.
#[derive(Debug, Clone)]
pub struct EndpointTypeRow {
    /// Which category.
    pub category: EndpointCategory,
    /// Throughput summary, Mbps.
    pub throughput_mbps: Summary,
    /// Coefficient of variation (fraction; the paper prints %).
    pub cv: f64,
}

/// Builds Table VI: per-category throughput summaries. Records with
/// unknown endpoint kinds are skipped; empty categories are omitted.
pub fn endpoint_type_table(ds: &Dataset) -> Vec<EndpointTypeRow> {
    EndpointCategory::ALL
        .iter()
        .filter_map(|&cat| {
            let slice: Vec<f64> = ds
                .records()
                .iter()
                .filter(|r| match (r.src_kind, r.dst_kind) {
                    (Some(s), Some(d)) => cat.matches(s, d),
                    _ => false,
                })
                .map(gvc_logs::TransferRecord::throughput_mbps)
                .collect();
            let throughput_mbps = Summary::of(&slice)?;
            let cv = throughput_mbps.cv().unwrap_or(0.0);
            Some(EndpointTypeRow { category: cat, throughput_mbps, cv })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::{group_sessions, Session};
    use gvc_logs::{TransferRecord, TransferType};

    fn rec(start_s: f64, dur_s: f64, size: u64) -> TransferRecord {
        TransferRecord::simple(
            TransferType::Retr,
            size,
            (start_s * 1e6) as i64,
            (dur_s * 1e6) as i64,
            "srv",
            Some("peer"),
        )
    }

    #[test]
    fn session_table_units() {
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 10_000_000),   // 10 MB, 8 Mbps
            rec(100.0, 10.0, 30_000_000), // 30 MB, 24 Mbps
        ]);
        let t = session_table(&SessionStore::from_dataset(&ds), 1.0).unwrap();
        assert_eq!(t.session_size_mb.n, 2);
        assert_eq!(t.session_size_mb.min, 10.0);
        assert_eq!(t.session_size_mb.max, 30.0);
        assert_eq!(t.session_duration_s.mean, 10.0);
        assert_eq!(t.transfer_throughput_mbps.min, 8.0);
        assert_eq!(t.transfer_throughput_mbps.max, 24.0);
    }

    /// The store-backed table equals the triple built straight from
    /// the reference grouping.
    #[test]
    fn store_backed_table_matches_grouping_backed() {
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 10_000_000),
            rec(5.0, 20.0, 5_000_000),
            rec(100.0, 10.0, 30_000_000),
        ]);
        let store = SessionStore::from_dataset(&ds);
        for &gap in &[0.0, 1.0, 60.0, 200.0] {
            let oracle = group_sessions(&ds, gap);
            let sizes: Vec<f64> =
                oracle.sessions.iter().map(|s| s.size_bytes() as f64 / 1e6).collect();
            let durations: Vec<f64> = oracle.sessions.iter().map(Session::duration_s).collect();
            let t = session_table(&store, gap).unwrap();
            assert_eq!(Some(t.session_size_mb), Summary::of(&sizes), "gap {gap}");
            assert_eq!(Some(t.session_duration_s), Summary::of(&durations), "gap {gap}");
            assert_eq!(
                Some(t.transfer_throughput_mbps),
                Summary::of(&ds.throughputs_mbps()),
                "gap {gap}"
            );
        }
    }

    #[test]
    fn empty_dataset_gives_none() {
        let ds = Dataset::new();
        assert!(session_table(&SessionStore::from_dataset(&ds), 1.0).is_none());
        assert!(transfer_table(&ds).is_none());
    }

    #[test]
    fn transfer_table_durations() {
        let ds = Dataset::from_records(vec![rec(0.0, 60.0, 1), rec(1.0, 120.0, 1)]);
        let t = transfer_table(&ds).unwrap();
        assert_eq!(t.duration_s.min, 60.0);
        assert_eq!(t.duration_s.max, 120.0);
    }

    #[test]
    fn endpoint_categories_partition() {
        use EndpointKind::{Disk, Memory};
        let mk = |s, d, dur| {
            let mut r = rec(0.0, dur, 1_000_000_000);
            r.src_kind = Some(s);
            r.dst_kind = Some(d);
            r
        };
        let ds = Dataset::from_records(vec![
            mk(Memory, Memory, 4.0),
            mk(Memory, Memory, 5.0),
            mk(Memory, Disk, 8.0),
            mk(Disk, Memory, 6.0),
            mk(Disk, Disk, 10.0),
        ]);
        let rows = endpoint_type_table(&ds);
        assert_eq!(rows.len(), 4);
        let get = |c: EndpointCategory| {
            rows.iter().find(|r| r.category == c).unwrap().throughput_mbps.median
        };
        assert!(get(EndpointCategory::MemMem) > get(EndpointCategory::MemDisk));
        assert!(get(EndpointCategory::DiskMem) > get(EndpointCategory::DiskDisk));
        assert_eq!(rows.iter().map(|r| r.throughput_mbps.n).sum::<usize>(), 5);
    }

    #[test]
    fn unknown_kinds_skipped() {
        let ds = Dataset::from_records(vec![rec(0.0, 1.0, 1)]);
        assert!(endpoint_type_table(&ds).is_empty());
    }

    #[test]
    fn labels() {
        assert_eq!(EndpointCategory::MemMem.label(), "mem-mem");
        assert_eq!(EndpointCategory::DiskDisk.label(), "disk-disk");
    }
}

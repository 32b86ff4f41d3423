//! The session index behind every session analysis, and the
//! incremental sweep that computes the full Table III/IV grid in a
//! single pass.
//!
//! [`SessionStore`] is the one session representation in production
//! code: Tables I–IV, the feasibility report, the ablations, the
//! collector experiment and the `gvc sessions`/`suitability`/`sweep`
//! commands all read it. [`group_sessions`](crate::sessions::group_sessions)
//! is kept only as the reference oracle for tests: it re-partitions the
//! dataset and clones every record into its session for *each* gap
//! value. This module avoids both costs:
//!
//! * The store is **columnar**. It keeps only what session analysis
//!   reads — start, end and size of each groupable record, in
//!   pair-contiguous start order — plus the pair ranges, the record
//!   counts and the transfer-throughput multiset. No record is copied.
//! * Sessions are **index ranges** over those columns.
//! * For each pair, the candidate session boundary at position `k` has
//!   a fixed **boundary gap** `start[k] − max(end[0..k])`. A boundary
//!   is active at gap parameter `g` iff its boundary gap exceeds `g` —
//!   so the boundary set shrinks monotonically as `g` grows, and the
//!   sessions at a larger `g` are exactly unions of adjacent sessions
//!   at any smaller `g`.
//! * Sorting the boundaries by their gap once (O(n log n)) lets the
//!   engine walk the requested gap values in ascending order, merging
//!   adjacent sessions as their boundaries dissolve and maintaining
//!   every Table III/IV aggregate incrementally: the whole grid costs
//!   one sort plus O(n · |delays|) merge work, independent of
//!   `|gaps|`.
//! * Pairs are independent: each pair's walk adds its running
//!   aggregate into the shared per-gap slots, so the grid is the same
//!   whatever order the pairs are walked in.
//!
//! The proptest in this module and the workload-level test in
//! `tests/sweep_equivalence.rs` pin the engine to the reference
//! implementation cell for cell.

use crate::gap_sensitivity::GapRow;
use crate::vc_suitability::VcSuitability;
use gvc_logs::Dataset;
use gvc_stats::quantile;
use gvc_telemetry::Telemetry;
use std::collections::HashMap;

/// One session as a half-open index range into the store's columns.
/// All records of a range belong to the same server pair and are
/// start-ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRange {
    /// First record index (inclusive).
    pub start: u32,
    /// One past the last record index.
    pub end: u32,
}

impl SessionRange {
    /// Number of transfers in the session.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the range is empty (never produced by the engine).
    pub fn is_empty(self) -> bool {
        self.end == self.start
    }
}

/// A borrowed view of one session: its slices of the store's columns,
/// giving the same accessors as [`crate::sessions::Session`] without
/// owning any record.
#[derive(Debug, Clone, Copy)]
pub struct SessionView<'a> {
    start_us: &'a [i64],
    end_us: &'a [i64],
    size_bytes: &'a [u64],
}

impl SessionView<'_> {
    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.start_us.len()
    }

    /// True when empty (never produced by the engine).
    pub fn is_empty(&self) -> bool {
        self.start_us.is_empty()
    }

    /// Session start: first transfer's start (unix µs).
    pub fn start_unix_us(&self) -> i64 {
        self.start_us.first().copied().unwrap_or(0)
    }

    /// Session end: latest transfer end (unix µs).
    pub fn end_unix_us(&self) -> i64 {
        self.end_us.iter().copied().max().unwrap_or(0)
    }

    /// Wall-clock duration, seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_unix_us() - self.start_unix_us()) as f64 / 1e6
    }

    /// Total payload, bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes.iter().sum()
    }

    /// Effective session throughput, Mbps; `None` for an
    /// instantaneous (zero-wall-duration) session.
    pub fn effective_throughput_mbps(&self) -> Option<f64> {
        let d = self.duration_s();
        if d <= 0.0 {
            None
        } else {
            Some(self.size_bytes() as f64 * 8.0 / d / 1e6)
        }
    }
}

/// The columnar session index of a dataset: the start, end and size
/// of every groupable record, re-sorted so that each server pair's
/// transfers are contiguous and start-ordered. Records with an
/// anonymized remote are not sessionizable and only counted. Building
/// it is the only O(n log n) step; every analysis after that works on
/// index ranges.
#[derive(Debug, Clone)]
pub struct SessionStore {
    /// Start of each groupable record, unix µs.
    start_us: Vec<i64>,
    /// End of each groupable record, unix µs (same order).
    end_us: Vec<i64>,
    /// Payload of each groupable record, bytes (same order).
    size_bytes: Vec<u64>,
    /// Half-open index ranges over the columns, one per
    /// (server, remote) pair, in first-seen order.
    pairs: Vec<(u32, u32)>,
    /// Every record of the dataset, sessionizable or not.
    total: usize,
    /// [`Dataset::throughputs_mbps`]: the transfer-throughput
    /// multiset behind q3 and Tables I/II. Every record but the
    /// degenerate ones contributes.
    throughputs_mbps: Vec<f64>,
}

impl SessionStore {
    /// Builds the store from a dataset. Records are read, not copied.
    pub fn from_dataset(ds: &Dataset) -> SessionStore {
        SessionStore::build(ds, |_| true)
    }

    /// Builds the store of the records of `ds` whose `keep` flag is
    /// set. For a start-ordered `ds` (as [`Dataset::from_records`]
    /// leaves it) this is the store `from_dataset` builds from the
    /// filtered dataset, without cloning a record. Pair ids are first-seen over
    /// the kept records, and the throughputs come from the kept
    /// non-degenerate ones.
    ///
    /// # Panics
    /// If `keep` does not hold one flag per record.
    pub fn from_dataset_masked(ds: &Dataset, keep: &[bool]) -> SessionStore {
        assert_eq!(keep.len(), ds.len(), "one keep flag per record");
        SessionStore::build(ds, |i| keep[i])
    }

    fn build(ds: &Dataset, keep: impl Fn(usize) -> bool) -> SessionStore {
        let records = ds.records();
        // (pair id, record index) of every groupable record; pair ids
        // in first-seen order, so the layout is deterministic.
        let mut by_key: HashMap<(&str, &str), u32> = HashMap::new();
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(records.len());
        let mut total = 0;
        let mut throughputs_mbps = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            total += 1;
            if !r.is_degenerate() {
                throughputs_mbps.push(r.throughput_mbps());
            }
            if let Some(k) = r.pair_key() {
                let next = by_key.len() as u32;
                order.push((*by_key.entry(k).or_insert(next), i as u32));
            }
        }
        order.sort_by_key(|&(id, i)| {
            let r = &records[i as usize];
            (id, r.start_unix_us, r.duration_us)
        });
        let mut store = SessionStore {
            start_us: Vec::with_capacity(order.len()),
            end_us: Vec::with_capacity(order.len()),
            size_bytes: Vec::with_capacity(order.len()),
            pairs: Vec::with_capacity(by_key.len()),
            total,
            throughputs_mbps,
        };
        let mut run_start = 0u32;
        for (w, &(id, i)) in order.iter().enumerate() {
            let r = &records[i as usize];
            store.start_us.push(r.start_unix_us);
            store.end_us.push(r.end_unix_us());
            store.size_bytes.push(r.size_bytes);
            if order.get(w + 1).is_none_or(|&(next, _)| next != id) {
                store.pairs.push((run_start, w as u32 + 1));
                run_start = w as u32 + 1;
            }
        }
        store
    }

    /// Total records, sessionizable or not.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records inside sessions (every record with a remote).
    pub fn grouped(&self) -> usize {
        self.start_us.len()
    }

    /// Records with an anonymized remote (not sessionizable).
    pub fn ungroupable(&self) -> usize {
        self.total - self.grouped()
    }

    /// Number of distinct (server, remote) pairs.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Zero/negative-duration records (no defined throughput).
    pub fn degenerate_records(&self) -> usize {
        self.total - self.throughputs_mbps.len()
    }

    /// Per-transfer throughputs over all records with a defined
    /// throughput — [`Dataset::throughputs_mbps`], in dataset order.
    pub fn throughputs_mbps(&self) -> &[f64] {
        &self.throughputs_mbps
    }

    /// A borrowed view of the session covering `range`.
    pub fn session(&self, range: SessionRange) -> SessionView<'_> {
        let (lo, hi) = (range.start as usize, range.end as usize);
        SessionView {
            start_us: &self.start_us[lo..hi],
            end_us: &self.end_us[lo..hi],
            size_bytes: &self.size_bytes[lo..hi],
        }
    }

    /// Sessions at one gap value, as index ranges (pair order, then
    /// start order). Runs in O(n).
    pub fn sessions_at(&self, gap_s: f64) -> Vec<SessionRange> {
        let gap_us = gap_to_us(gap_s);
        let mut out = Vec::new();
        for &(lo, hi) in &self.pairs {
            // Pair ranges are never empty.
            let mut session_start = lo;
            let mut max_end = self.end_us[lo as usize];
            for k in lo + 1..hi {
                if self.start_us[k as usize] - max_end > gap_us {
                    out.push(SessionRange { start: session_start, end: k });
                    session_start = k;
                }
                max_end = max_end.max(self.end_us[k as usize]);
            }
            out.push(SessionRange { start: session_start, end: hi });
        }
        out
    }

    /// Runs the full sweep: Table III rows for every gap and Table IV
    /// cells for every (gap, setup delay) combination, in a single
    /// monotone-merge pass over the store.
    pub fn sweep(
        &self,
        gaps_s: &[f64],
        setup_delays_s: &[f64],
        overhead_factor: f64,
    ) -> SweepResult {
        // q3 of the transfer-throughput distribution (degenerate
        // records excluded) — identical to what `vc_suitability`
        // derives from the dataset.
        let q3_mbps = quantile(&self.throughputs_mbps, 0.75).unwrap_or(0.0);
        let ctx = SweepCtx {
            store: self,
            // Ascending gap order is what makes merges monotone;
            // remember each gap's slot in the caller's order.
            gap_order: {
                let mut idx: Vec<usize> = (0..gaps_s.len()).collect();
                idx.sort_by(|&a, &b| gaps_s[a].total_cmp(&gaps_s[b]));
                idx.iter().map(|&i| (gap_to_us(gaps_s[i]), i)).collect()
            },
            thresholds_s: setup_delays_s.iter().map(|&d| overhead_factor * d).collect(),
            q3_bps: q3_mbps * 1e6,
        };
        // One aggregate per requested gap, indexed by the caller's
        // gap positions.
        let mut aggs = vec![GapAgg::zero(ctx.thresholds_s.len()); gaps_s.len()];
        for &(lo, hi) in &self.pairs {
            sweep_pair(&ctx, lo, hi, &mut aggs);
        }

        let total_transfers = self.grouped();
        let gap_rows = gaps_s
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let a = &aggs[i];
                GapRow {
                    gap_s: g,
                    sessions: a.sessions,
                    single_transfer: a.singles,
                    multi_transfer: a.sessions - a.singles,
                    pct_with_1_or_2: if a.sessions == 0 {
                        0.0
                    } else {
                        a.le2 as f64 / a.sessions as f64 * 100.0
                    },
                    max_transfers: a.max_transfers,
                    with_100_plus: a.with_100_plus,
                }
            })
            .collect();
        let mut cells = Vec::with_capacity(gaps_s.len() * setup_delays_s.len());
        for (gi, &g) in gaps_s.iter().enumerate() {
            for (di, &d) in setup_delays_s.iter().enumerate() {
                cells.push(VcSuitability {
                    setup_delay_s: d,
                    gap_s: g,
                    q3_throughput_mbps: q3_mbps,
                    suitable_sessions: aggs[gi].suitable_sessions[di],
                    total_sessions: aggs[gi].sessions,
                    suitable_transfers: aggs[gi].suitable_transfers[di],
                    total_transfers,
                });
            }
        }
        SweepResult {
            gap_rows,
            cells,
            q3_throughput_mbps: q3_mbps,
            total_transfers,
            ungroupable: self.ungroupable(),
            degenerate_records: self.degenerate_records(),
        }
    }

    /// [`SessionStore::sweep`] instrumented with the telemetry spine:
    /// records/sessions/cells counters, and the `sweep` phase of a
    /// `--perf` snapshot.
    pub fn sweep_with_telemetry(
        &self,
        gaps_s: &[f64],
        setup_delays_s: &[f64],
        overhead_factor: f64,
        telemetry: &Telemetry,
    ) -> SweepResult {
        let result = {
            let mut perf_phase = telemetry.perf.phase("sweep");
            perf_phase.items(self.len() as u64);
            self.sweep(gaps_s, setup_delays_s, overhead_factor)
        };
        let reg = &telemetry.registry;
        reg.counter("analysis_sweep_records_total", &[]).add(self.len() as u64);
        reg.counter("analysis_sweep_sessions_total", &[])
            .add(result.gap_rows.iter().map(|r| r.sessions as u64).sum());
        reg.counter("analysis_sweep_cells_total", &[]).add(result.cells.len() as u64);
        result
    }
}

/// Output of one sweep: Table III rows and Table IV cells for the
/// whole grid, plus the data-quality counts callers surface in
/// reports.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One Table III row per requested gap, in the caller's order.
    pub gap_rows: Vec<GapRow>,
    /// Table IV cells in `for gap { for delay }` order.
    pub cells: Vec<VcSuitability>,
    /// The q3 transfer throughput used as the hypothetical rate, Mbps.
    pub q3_throughput_mbps: f64,
    /// Transfers inside sessions (the groupable count).
    pub total_transfers: usize,
    /// Records with an anonymized remote (not sessionizable).
    pub ungroupable: usize,
    /// Zero/negative-duration records (excluded from the throughput
    /// distribution).
    pub degenerate_records: usize,
}

impl SweepResult {
    /// The cell for a given gap and setup delay (seconds).
    pub fn cell(&self, gap_s: f64, setup_delay_s: f64) -> Option<&VcSuitability> {
        self.cells.iter().find(|c| c.gap_s == gap_s && c.setup_delay_s == setup_delay_s)
    }
}

/// Sweeps a dataset directly (builds a throwaway store). When several
/// analyses run over the same dataset, build one [`SessionStore`] and
/// reuse it instead.
pub fn sweep_dataset(
    ds: &Dataset,
    gaps_s: &[f64],
    setup_delays_s: &[f64],
    overhead_factor: f64,
) -> SweepResult {
    SessionStore::from_dataset(ds).sweep(gaps_s, setup_delays_s, overhead_factor)
}

/// The same µs conversion `group_sessions` applies, so both paths
/// split on exactly the same boundaries.
fn gap_to_us(gap_s: f64) -> i64 {
    (gap_s * 1e6).round() as i64
}

/// Shared inputs of every per-pair walk.
struct SweepCtx<'a> {
    store: &'a SessionStore,
    /// `(gap_us, output slot)` in ascending gap order.
    gap_order: Vec<(i64, usize)>,
    /// `overhead_factor × delay` per requested delay.
    thresholds_s: Vec<f64>,
    q3_bps: f64,
}

impl SweepCtx<'_> {
    /// The suitability test, spelled exactly like `vc_suitability`'s
    /// so float rounding can never diverge between the two paths.
    fn suitable(&self, size_bytes: u64, threshold_s: f64) -> bool {
        self.q3_bps > 0.0 && size_bytes as f64 * 8.0 / self.q3_bps >= threshold_s
    }
}

/// Aggregates for one gap value (summed over pairs).
#[derive(Debug, Clone)]
struct GapAgg {
    sessions: usize,
    singles: usize,
    /// Sessions with ≤ 2 transfers.
    le2: usize,
    max_transfers: usize,
    with_100_plus: usize,
    /// Per requested delay: suitable sessions / transfers-in-suitable.
    suitable_sessions: Vec<usize>,
    suitable_transfers: Vec<usize>,
}

impl GapAgg {
    fn zero(n_delays: usize) -> GapAgg {
        GapAgg {
            sessions: 0,
            singles: 0,
            le2: 0,
            max_transfers: 0,
            with_100_plus: 0,
            suitable_sessions: vec![0; n_delays],
            suitable_transfers: vec![0; n_delays],
        }
    }

    /// Adds `other` into `self`: a pair's running aggregate into the
    /// slot summed over pairs.
    fn absorb(&mut self, other: &GapAgg) {
        self.sessions += other.sessions;
        self.singles += other.singles;
        self.le2 += other.le2;
        self.max_transfers = self.max_transfers.max(other.max_transfers);
        self.with_100_plus += other.with_100_plus;
        for (a, b) in self.suitable_sessions.iter_mut().zip(&other.suitable_sessions) {
            *a += b;
        }
        for (a, b) in self.suitable_transfers.iter_mut().zip(&other.suitable_transfers) {
            *a += b;
        }
    }
}

/// The monotone-merge walk over one pair's records: start from
/// every-record-is-a-session, dissolve boundaries in ascending
/// boundary-gap order, and snapshot the running aggregate into each
/// requested gap's slot as the walk passes it.
fn sweep_pair(ctx: &SweepCtx<'_>, lo: u32, hi: u32, out: &mut [GapAgg]) {
    let (lo, hi) = (lo as usize, hi as usize);
    let starts = &ctx.store.start_us[lo..hi];
    let ends = &ctx.store.end_us[lo..hi];
    let sizes = &ctx.store.size_bytes[lo..hi];
    let m = starts.len();
    let n_delays = ctx.thresholds_s.len();

    // Prefix payload sums: any range's size in O(1).
    let mut psize = vec![0u64; m + 1];
    for (i, &size) in sizes.iter().enumerate() {
        psize[i + 1] = psize[i] + size;
    }

    // Boundary gaps: position k splits sessions at parameter g iff
    // start[k] − max(end[0..k]) > g.
    let mut boundaries: Vec<(i64, u32)> = Vec::with_capacity(m.saturating_sub(1));
    let Some(&first_end) = ends.first() else { return };
    let mut max_end = first_end;
    for (k, (&start, &end)) in starts.iter().zip(ends).enumerate().skip(1) {
        boundaries.push((start - max_end, k as u32));
        max_end = max_end.max(end);
    }
    boundaries.sort_unstable();

    // Doubly linked list over active session starts (positions).
    // next[s] = start of the following session (m = none);
    // prev[s] = start of the preceding session (only valid while s is
    // an active non-zero session start).
    let mut next: Vec<u32> = (1..=m as u32).collect();
    let mut prev: Vec<u32> = (0..m as u32).map(|i| i.wrapping_sub(1)).collect();

    // Initial state: every record its own session.
    let mut agg = GapAgg::zero(n_delays);
    agg.sessions = m;
    agg.singles = m;
    agg.le2 = m;
    agg.max_transfers = 1;
    for &size in sizes {
        for (d, &thr) in ctx.thresholds_s.iter().enumerate() {
            if ctx.suitable(size, thr) {
                agg.suitable_sessions[d] += 1;
                agg.suitable_transfers[d] += 1;
            }
        }
    }

    let mut bi = 0usize;
    for &(gap_us, slot) in &ctx.gap_order {
        while bi < boundaries.len() && boundaries[bi].0 <= gap_us {
            let p = boundaries[bi].1 as usize;
            bi += 1;
            // Invariant: p is still an active session start — its own
            // boundary dissolves exactly once, and merges elsewhere
            // never promote or demote p.
            let l = prev[p] as usize;
            let r_end = next[p] as usize;
            let (len_l, len_r) = (p - l, r_end - p);
            let len_n = len_l + len_r;
            let (size_l, size_r) = (psize[p] - psize[l], psize[r_end] - psize[p]);
            let size_n = size_l + size_r;

            agg.sessions -= 1;
            agg.singles -= usize::from(len_l == 1) + usize::from(len_r == 1);
            agg.le2 += usize::from(len_n <= 2);
            agg.le2 -= usize::from(len_l <= 2) + usize::from(len_r <= 2);
            agg.with_100_plus += usize::from(len_n >= 100);
            agg.with_100_plus -= usize::from(len_l >= 100) + usize::from(len_r >= 100);
            agg.max_transfers = agg.max_transfers.max(len_n);
            for (d, &thr) in ctx.thresholds_s.iter().enumerate() {
                let (sl, sr) = (ctx.suitable(size_l, thr), ctx.suitable(size_r, thr));
                let sn = ctx.suitable(size_n, thr);
                // Suitability is monotone in size, so sn ≥ sl|sr and
                // the adds happen before the subtracts underflow.
                agg.suitable_sessions[d] += usize::from(sn);
                agg.suitable_sessions[d] -= usize::from(sl) + usize::from(sr);
                agg.suitable_transfers[d] += len_n * usize::from(sn);
                agg.suitable_transfers[d] -= len_l * usize::from(sl) + len_r * usize::from(sr);
            }

            next[l] = r_end as u32;
            if r_end < m {
                prev[r_end] = l as u32;
            }
        }
        out[slot].absorb(&agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap_sensitivity::GapRow;
    use crate::sessions::group_sessions;
    use crate::vc_suitability::{vc_suitability, DEFAULT_OVERHEAD_FACTOR};
    use gvc_logs::{CollectorModel, TransferRecord, TransferType};
    use proptest::prelude::*;

    fn rec(start_s: f64, dur_s: f64, size: u64, remote: Option<&str>) -> TransferRecord {
        TransferRecord::simple(
            TransferType::Retr,
            size,
            (start_s * 1e6) as i64,
            (dur_s * 1e6) as i64,
            "srv",
            remote,
        )
    }

    /// Table III rows the slow way: one `group_sessions` per gap.
    fn legacy_rows(ds: &Dataset, gaps: &[f64]) -> Vec<GapRow> {
        gaps.iter()
            .map(|&g| {
                let grouping = group_sessions(ds, g);
                GapRow {
                    gap_s: g,
                    sessions: grouping.sessions.len(),
                    single_transfer: grouping.single_transfer_sessions(),
                    multi_transfer: grouping.multi_transfer_sessions(),
                    pct_with_1_or_2: grouping.frac_with_at_most_two() * 100.0,
                    max_transfers: grouping.max_transfers(),
                    with_100_plus: grouping.sessions_with_at_least(100),
                }
            })
            .collect()
    }

    /// Table IV cells the slow way: regroup per gap, then score.
    fn legacy_cells(ds: &Dataset, gaps: &[f64], delays: &[f64], factor: f64) -> Vec<VcSuitability> {
        let mut out = Vec::new();
        for &g in gaps {
            let grouping = group_sessions(ds, g);
            for &d in delays {
                out.push(vc_suitability(&grouping, ds, d, factor));
            }
        }
        out
    }

    fn mixed_dataset() -> Dataset {
        Dataset::from_records(vec![
            rec(0.0, 10.0, 1_000_000_000, Some("a")),
            rec(15.0, 10.0, 500_000_000, Some("a")),
            rec(200.0, 5.0, 2_000_000, Some("a")),
            rec(0.0, 40.0, 100_000_000, Some("b")),
            rec(0.1, 42.0, 100_000_000, Some("b")),
            rec(400.0, 1.0, 1_000, Some("b")),
            rec(3.0, 9.0, 50_000_000, None), // anonymized
        ])
    }

    #[test]
    fn store_layout_partitions_pairs() {
        let ds = mixed_dataset();
        let store = SessionStore::from_dataset(&ds);
        assert_eq!(store.len(), 7);
        assert_eq!(store.n_pairs(), 2);
        assert_eq!(store.ungroupable(), 1);
        // Only the groupable records have columns, and the pair
        // ranges tile them exactly, in first-seen pair order.
        assert_eq!(store.grouped(), 6);
        assert_eq!(store.end_us.len(), 6);
        assert_eq!(store.size_bytes.len(), 6);
        assert_eq!(store.pairs, vec![(0, 3), (3, 6)]);
        // Each pair's rows are its records, start-ordered.
        for (&(l, h), remote) in store.pairs.iter().zip(["a", "b"]) {
            let (l, h) = (l as usize, h as usize);
            let mut want: Vec<(i64, i64, u64)> = ds
                .records()
                .iter()
                .filter(|r| r.remote.as_deref() == Some(remote))
                .map(|r| (r.start_unix_us, r.end_unix_us(), r.size_bytes))
                .collect();
            want.sort_unstable();
            let got: Vec<(i64, i64, u64)> =
                (l..h).map(|k| (store.start_us[k], store.end_us[k], store.size_bytes[k])).collect();
            assert_eq!(got, want, "pair {remote}");
        }
        assert_eq!(store.throughputs_mbps(), ds.throughputs_mbps().as_slice());
    }

    #[test]
    fn sessions_at_matches_group_sessions() {
        let ds = mixed_dataset();
        let store = SessionStore::from_dataset(&ds);
        for &g in &[0.0, 30.0, 60.0, 1000.0] {
            let ranges = store.sessions_at(g);
            let legacy = group_sessions(&ds, g);
            assert_eq!(ranges.len(), legacy.sessions.len(), "g={g}");
            // Compare as multisets of (len, size, start).
            let mut a: Vec<_> = ranges
                .iter()
                .map(|&r| {
                    let v = store.session(r);
                    (v.len(), v.size_bytes(), v.start_unix_us())
                })
                .collect();
            let mut b: Vec<_> = legacy
                .sessions
                .iter()
                .map(|s| (s.len(), s.size_bytes(), s.start_unix_us()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "g={g}");
        }
    }

    #[test]
    fn sweep_matches_legacy_on_mixed_dataset() {
        let ds = mixed_dataset();
        let gaps = [120.0, 0.0, 60.0, 17.5]; // deliberately unsorted
        let delays = [60.0, 0.05, 0.0];
        let result = sweep_dataset(&ds, &gaps, &delays, 10.0);
        assert_eq!(result.gap_rows, legacy_rows(&ds, &gaps));
        assert_eq!(result.cells, legacy_cells(&ds, &gaps, &delays, 10.0));
        assert_eq!(result.ungroupable, 1);
        assert_eq!(result.total_transfers, 6);
    }

    #[test]
    fn sweep_empty_dataset() {
        let result = sweep_dataset(&Dataset::new(), &[0.0, 60.0], &[60.0], 10.0);
        assert_eq!(result.gap_rows.len(), 2);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.gap_rows[0].sessions, 0);
        assert_eq!(result.cells[0].total_sessions, 0);
        assert_eq!(result.q3_throughput_mbps, 0.0);
    }

    #[test]
    fn sweep_counts_degenerates_without_biasing_q3() {
        // Three healthy 8 Mbps transfers, one zero-duration record.
        let ds = Dataset::from_records(vec![
            rec(0.0, 10.0, 10_000_000, Some("a")),
            rec(1000.0, 10.0, 10_000_000, Some("a")),
            rec(2000.0, 10.0, 10_000_000, Some("a")),
            rec(3000.0, 0.0, 10_000_000, Some("a")),
        ]);
        let result = sweep_dataset(&ds, &[60.0], &[60.0], 10.0);
        assert_eq!(result.degenerate_records, 1);
        assert!((result.q3_throughput_mbps - 8.0).abs() < 1e-9);
    }

    /// The central collector's lossy view barely moves the g = 60 s,
    /// setup 60 s transfer share on one big 400-record session.
    #[test]
    fn collector_loss_stays_close_under_mild_loss() {
        let ds = Dataset::from_records(
            (0..400)
                .map(|i| {
                    TransferRecord::simple(
                        TransferType::Retr,
                        1_000_000_000,
                        i * 5_000_000,
                        4_000_000,
                        "srv",
                        Some("peer"),
                    )
                })
                .collect(),
        );
        let model = CollectorModel { udp_loss: 0.05, disabled_servers: Default::default() };
        let central = model.collect(&ds, 11);
        let cell = |ds: &Dataset| {
            sweep_dataset(ds, &[60.0], &[60.0], DEFAULT_OVERHEAD_FACTOR).cells[0].pct_transfers()
        };
        let (local, central) = (cell(&ds), cell(&central));
        assert!(local > 90.0, "local {local}");
        assert!((local - central).abs() < 15.0, "local {local} central {central}");
    }

    #[test]
    fn sweep_telemetry_counters() {
        let ds = mixed_dataset();
        let telemetry = Telemetry::metrics_only();
        let store = SessionStore::from_dataset(&ds);
        let result = store.sweep_with_telemetry(&[0.0, 60.0], &[60.0, 0.05], 10.0, &telemetry);
        let rendered = telemetry.registry.render();
        assert!(rendered.contains("analysis_sweep_records_total 7"), "{rendered}");
        let sessions: u64 = result.gap_rows.iter().map(|r| r.sessions as u64).sum();
        assert!(
            rendered.contains(&format!("analysis_sweep_sessions_total {sessions}")),
            "{rendered}"
        );
        assert!(rendered.contains("analysis_sweep_cells_total 4"), "{rendered}");
    }

    proptest! {
        /// The engine and the per-gap reference implementation agree
        /// cell for cell on arbitrary workloads and grids.
        #[test]
        fn prop_sweep_equals_legacy(
            starts in proptest::collection::vec(0.0f64..5_000.0, 1..60),
            durs in proptest::collection::vec(0.0f64..300.0, 60),
            sizes in proptest::collection::vec(0u64..5_000_000_000, 60),
            pair in proptest::collection::vec(0u8..3, 60),
            gaps in proptest::collection::vec(0.0f64..400.0, 1..5),
            delays in proptest::collection::vec(0.0f64..100.0, 1..4),
        ) {
            let recs: Vec<TransferRecord> = starts
                .iter()
                .zip(&durs)
                .zip(&sizes)
                .zip(&pair)
                .map(|(((&s, &d), &z), &p)| {
                    let remote = match p {
                        0 => Some("pa"),
                        1 => Some("pb"),
                        _ => None,
                    };
                    rec(s, d, z, remote)
                })
                .collect();
            let ds = Dataset::from_records(recs);
            let result = sweep_dataset(&ds, &gaps, &delays, 10.0);
            prop_assert_eq!(&result.gap_rows, &legacy_rows(&ds, &gaps));
            prop_assert_eq!(&result.cells, &legacy_cells(&ds, &gaps, &delays, 10.0));
        }

        /// A store over the collector's keep-mask is the store of the
        /// collected dataset: same columns, pair layout and throughputs,
        /// and bit-identical sweep cells, across several server pairs,
        /// degenerate records and opted-out servers.
        #[test]
        fn prop_masked_store_equals_store_of_collected(
            recs in proptest::collection::vec(
                (0i64..20_000_000_000, 0i64..400_000_000, 0u64..5_000_000_000, 0u8..3, 0u8..3),
                0..80,
            ),
            degenerate in proptest::collection::vec(0u8..8, 80),
            disabled in proptest::collection::vec(0u8..4, 3),
            udp_loss in 0.0f64..0.9,
            seed in 0u64..1_000,
            gaps in proptest::collection::vec(0.0f64..400.0, 1..5),
            delays in proptest::collection::vec(0.0f64..100.0, 1..4),
        ) {
            let servers = ["s0", "s1", "s2"];
            let remotes = [Some("r0"), Some("r1"), None];
            let ds = Dataset::from_records(
                recs.iter()
                    .zip(&degenerate)
                    .map(|(&(start, dur, size, srv, rem), &d)| {
                        TransferRecord::simple(
                            TransferType::Retr,
                            size,
                            start,
                            // One record in eight has no duration.
                            if d == 0 { 0 } else { dur },
                            servers[srv as usize],
                            remotes[rem as usize],
                        )
                    })
                    .collect(),
            );
            let model = CollectorModel {
                udp_loss,
                // Each server opts out one time in four.
                disabled_servers: servers
                    .iter()
                    .zip(&disabled)
                    .filter(|&(_, &d)| d == 0)
                    .map(|(s, _)| (*s).to_owned())
                    .collect(),
            };
            let masked = SessionStore::from_dataset_masked(&ds, &model.keep_mask(&ds, seed));
            let oracle = SessionStore::from_dataset(&model.collect(&ds, seed));
            prop_assert_eq!(masked.len(), oracle.len());
            prop_assert_eq!(&masked.start_us, &oracle.start_us);
            prop_assert_eq!(&masked.end_us, &oracle.end_us);
            prop_assert_eq!(&masked.size_bytes, &oracle.size_bytes);
            prop_assert_eq!(&masked.pairs, &oracle.pairs);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(masked.throughputs_mbps()), bits(oracle.throughputs_mbps()));
            let cell_bits = |r: SweepResult| {
                r.cells
                    .iter()
                    .map(|c| {
                        (
                            c.setup_delay_s.to_bits(),
                            c.gap_s.to_bits(),
                            c.q3_throughput_mbps.to_bits(),
                            c.suitable_sessions,
                            c.total_sessions,
                            c.suitable_transfers,
                            c.total_transfers,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(
                cell_bits(masked.sweep(&gaps, &delays, 10.0)),
                cell_bits(oracle.sweep(&gaps, &delays, 10.0))
            );
        }
    }

    #[test]
    #[should_panic(expected = "one keep flag per record")]
    fn masked_store_rejects_a_short_mask() {
        SessionStore::from_dataset_masked(&mixed_dataset(), &[true]);
    }
}

//! Acceptance gate for the session index and its sweep engine: on
//! every workload generator, the single-pass monotone-merge grid must
//! equal — cell for cell — what the legacy per-gap regrouping
//! computes, and so must the sessions and the Table I/II summaries the
//! store forms at each gap.

use gvc_core::gap_sensitivity::GapRow;
use gvc_core::sessions::{group_sessions, Session};
use gvc_core::sweep::SessionStore;
use gvc_core::tables::session_table;
use gvc_core::vc_suitability::{vc_suitability, VcSuitability};
use gvc_logs::Dataset;
use gvc_stats::Summary;
use gvc_workload::ncar_nics::{self, NcarNicsConfig};
use gvc_workload::nersc_anl::{self, NerscAnlConfig};
use gvc_workload::nersc_ornl::{self, NerscOrnlConfig};
use gvc_workload::slac_bnl::{self, SlacBnlConfig};

const GAPS_S: [f64; 5] = [0.0, 30.0, 60.0, 120.0, 600.0];
const DELAYS_S: [f64; 3] = [60.0, 5.0, 0.05];
const FACTOR: f64 = 10.0;

/// Table III rows via the reference implementation: one full
/// `group_sessions` regrouping per gap value.
fn legacy_rows(ds: &Dataset) -> Vec<GapRow> {
    GAPS_S
        .iter()
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

/// Table IV cells via the reference implementation.
fn legacy_cells(ds: &Dataset) -> Vec<VcSuitability> {
    let mut out = Vec::new();
    for &g in &GAPS_S {
        let grouping = group_sessions(ds, g);
        for &d in &DELAYS_S {
            out.push(vc_suitability(&grouping, ds, d, FACTOR));
        }
    }
    out
}

/// The Table I/II triple built straight from the reference grouping.
fn legacy_table(ds: &Dataset, g: f64) -> Option<(Summary, Summary, Summary)> {
    let grouping = group_sessions(ds, g);
    let sizes: Vec<f64> = grouping.sessions.iter().map(|s| s.size_bytes() as f64 / 1e6).collect();
    let durations: Vec<f64> = grouping.sessions.iter().map(Session::duration_s).collect();
    Some((Summary::of(&sizes)?, Summary::of(&durations)?, Summary::of(&ds.throughputs_mbps())?))
}

/// Sessions as a sorted multiset of (len, size, start, end).
type SessionKeys = Vec<(usize, u64, i64, i64)>;

fn legacy_sessions(ds: &Dataset, g: f64) -> SessionKeys {
    let mut keys: SessionKeys = group_sessions(ds, g)
        .sessions
        .iter()
        .map(|s| (s.len(), s.size_bytes(), s.start_unix_us(), s.end_unix_us()))
        .collect();
    keys.sort_unstable();
    keys
}

fn store_sessions(store: &SessionStore, g: f64) -> SessionKeys {
    let mut keys: SessionKeys = store
        .sessions_at(g)
        .into_iter()
        .map(|r| {
            let v = store.session(r);
            (v.len(), v.size_bytes(), v.start_unix_us(), v.end_unix_us())
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn assert_engine_matches_legacy(name: &str, ds: &Dataset) {
    assert!(!ds.is_empty(), "{name}: generator produced nothing");
    let store = SessionStore::from_dataset(ds);
    let sweep = store.sweep(&GAPS_S, &DELAYS_S, FACTOR);
    assert_eq!(sweep.gap_rows, legacy_rows(ds), "{name}: Table III rows diverge");
    assert_eq!(sweep.cells, legacy_cells(ds), "{name}: Table IV cells diverge");
    assert_eq!(sweep.degenerate_records, ds.degenerate_records(), "{name}");
    for &g in &GAPS_S {
        assert_eq!(store_sessions(&store, g), legacy_sessions(ds, g), "{name}: sessions at g={g}");
        let table = session_table(&store, g)
            .map(|t| (t.session_size_mb, t.session_duration_s, t.transfer_throughput_mbps));
        assert_eq!(table, legacy_table(ds, g), "{name}: Table I/II at g={g}");
    }
}

#[test]
fn ncar_nics_grid_matches_legacy() {
    let ds = ncar_nics::generate(NcarNicsConfig { seed: 11, scale: 0.05 });
    assert_engine_matches_legacy("ncar-nics", &ds);
}

#[test]
fn slac_bnl_grid_matches_legacy() {
    let ds = slac_bnl::generate(SlacBnlConfig { seed: 12, scale: 0.004 });
    assert_engine_matches_legacy("slac-bnl", &ds);
}

#[test]
fn nersc_anl_grid_matches_legacy() {
    let ds = nersc_anl::generate(NerscAnlConfig {
        seed: 13,
        scale: 0.3,
        production_sessions_per_day: 40.0,
        horizon_days: 4.0,
    });
    assert_engine_matches_legacy("nersc-anl", &ds);
}

#[test]
fn nersc_ornl_grid_matches_legacy() {
    let out = nersc_ornl::generate(NerscOrnlConfig { seed: 14, n_transfers: 60, background: 1.0 });
    assert_engine_matches_legacy("nersc-ornl", &out.log);
}

//! Session-sweep engine vs legacy per-gap regrouping on a
//! ~1M-transfer synthetic workload over the paper-sized grid.
//!
//! The acceptance target for the engine is ≥3× on a ≥500k-transfer
//! dataset with an 8-gap × 4-delay grid; the `grid_1m` pair is the
//! same comparison at the million-transfer scale the analyses are
//! meant to reach.
//!
//! The dataset generator, grid, and engine workload come from
//! `gvc_bench::perfsuite` — shared with `gvc perf snapshot` so
//! criterion and `BENCH_sweep.json` measure the same records/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gvc_bench::perfsuite::{engine_grid, synth_sweep_log, DELAYS_S, FACTOR, GAPS_S};
use gvc_core::sessions::group_sessions;
use gvc_core::vc_suitability::vc_suitability;
use gvc_logs::Dataset;

/// The full grid the slow way: regroup per gap, score per delay.
fn legacy_grid(ds: &Dataset) -> usize {
    let mut cells = 0;
    for &g in &GAPS_S {
        let grouping = group_sessions(ds, g);
        for &d in &DELAYS_S {
            let v = vc_suitability(&grouping, ds, d, FACTOR);
            cells += usize::from(v.total_sessions >= v.suitable_sessions);
        }
    }
    cells
}

fn bench_sweep(c: &mut Criterion) {
    for &(label, n) in &[("500k", 500_000usize), ("1m", 1_000_000)] {
        let ds = synth_sweep_log(n, 64);
        let mut g = c.benchmark_group(format!("table_grid_{label}"));
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function("engine_sweep", |b| {
            b.iter(|| engine_grid(std::hint::black_box(&ds)));
        });
        g.bench_function("legacy_per_gap", |b| {
            b.iter(|| legacy_grid(std::hint::black_box(&ds)));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_sweep);

criterion_main!(benches);

//! Microbenchmarks of the discrete-event kernel.
//!
//! The workload is `gvc_bench::perfsuite::kernel_schedule_pop` — the
//! exact function `gvc perf snapshot` measures — so criterion's
//! elements/sec and the `BENCH_kernel.json` events/sec are the same
//! quantity.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gvc_bench::perfsuite::kernel_schedule_pop;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter(|| kernel_schedule_pop(n));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);

//! Benchmarks for the extension subsystems: HNTES classification and
//! the packet-level queue simulator. IDC admission is timed by the
//! `idc` suite of `gvc perf snapshot`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gvc_hntes::{AlphaClassifier, FlowRecord, HntesController};
use gvc_net::queue_sim::{simulate, Discipline, QueueSimConfig};
use gvc_topology::NodeId;

fn synth_flows(n: usize) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| FlowRecord {
            ingress: NodeId((i % 16) as u32),
            egress: NodeId(((i * 7) % 16) as u32),
            bytes: if i % 20 == 0 { 20_000_000_000 } else { (i % 997) as u64 * 100_000 },
            start_unix_us: i as i64 * 1_000_000,
            end_unix_us: i as i64 * 1_000_000 + 60_000_000,
        })
        .collect()
}

fn bench_hntes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hntes");
    for &n in &[1_000usize, 100_000] {
        let flows = synth_flows(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("classify_{n}"), |b| {
            let cl = AlphaClassifier::default();
            b.iter(|| cl.alpha_byte_fraction(std::hint::black_box(&flows)));
        });
        g.bench_function(format!("observe_apply_{n}"), |b| {
            b.iter(|| {
                let mut ctl = HntesController::new(AlphaClassifier::default());
                ctl.observe_interval(&flows, 0);
                ctl.apply(std::hint::black_box(&flows))
            });
        });
    }
    g.finish();
}

fn bench_queue_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_sim");
    g.sample_size(10);
    let cfg = QueueSimConfig { gp_packets: 20_000, ..QueueSimConfig::default() };
    g.bench_function("shared_fifo_20k", |b| {
        b.iter(|| simulate(std::hint::black_box(&cfg), Discipline::SharedFifo));
    });
    g.bench_function("isolated_20k", |b| {
        b.iter(|| simulate(std::hint::black_box(&cfg), Discipline::Isolated));
    });
    g.finish();
}

criterion_group!(benches, bench_hntes, bench_queue_sim);
criterion_main!(benches);

//! Overhead of the telemetry spine on the simulation hot path.
//!
//! Three variants of the same driver run: no instrumentation at all,
//! metrics registry attached (counters/histograms, no trace sink), and
//! full tracing into an in-memory buffer, drained every iteration. The acceptance target is that
//! the uninstrumented run pays < 5% relative to the seed (telemetry
//! disabled is a single `Option` branch per hot-path touch point), and
//! these groups make the metrics/tracing cost itself visible.

use criterion::{criterion_group, criterion_main, Criterion};
use gvc_engine::SimTime;
use gvc_gridftp::{Driver, ServerCaps, SessionSpec, TransferJob};
use gvc_net::NetworkSim;
use gvc_telemetry::{BufferSink, Telemetry};
use gvc_topology::{study_topology, Site};
use std::sync::Arc;

fn run_driver(telemetry: Option<&Telemetry>) -> usize {
    let t = study_topology();
    let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
    let sim = NetworkSim::new(t.graph, 0);
    let mut d = Driver::new(sim, 11);
    if let Some(ctx) = telemetry {
        d = d.with_telemetry(ctx);
    }
    let a = d.register_cluster("dtn.nersc.gov", nersc, ServerCaps::default(), 2);
    let b = d.register_cluster("dtn.ornl.gov", ornl, ServerCaps::default(), 2);
    let job = |mb: u64| TransferJob { size_bytes: mb << 20, ..TransferJob::default() };
    let spec = SessionSpec::sequential(vec![job(64); 24], 0.5).with_concurrency(4);
    d.schedule_session(SimTime::ZERO, a, b, spec);
    let out = d.run(SimTime::from_secs(1_000_000));
    out.log.len()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.bench_function("disabled", |b| b.iter(|| run_driver(None)));
    g.bench_function("metrics_registry", |b| {
        let ctx = Telemetry::metrics_only();
        b.iter(|| run_driver(Some(&ctx)));
    });
    g.bench_function("buffer_trace", |b| {
        let sink = Arc::new(BufferSink::new());
        let ctx = Telemetry::with_sink(sink.clone());
        b.iter(|| {
            let n = run_driver(Some(&ctx));
            sink.take();
            n
        });
    });
    g.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);

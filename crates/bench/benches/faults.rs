//! Microbenchmarks of the fault/recovery subsystem.
//!
//! `driver/no_recovery` times one circuit-backed session through the
//! driver's establishment routine, which every circuit request takes
//! with or without a recovery policy. The policy benches pin down the
//! cost of a single decision on the hot retry path, and the plan bench
//! the cost of parsing a `--faults` spec.

use criterion::{criterion_group, criterion_main, Criterion};
use gvc_engine::SimTime;
use gvc_faults::{FaultPlan, RecoveryPolicy};
use gvc_gridftp::{Driver, ServerCaps, SessionSpec, TransferJob, VcRequestSpec};
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, SetupDelayModel};
use gvc_topology::{study_topology, Site};

/// One circuit-backed sequential session of `jobs` transfers between
/// the study topology's SLAC and BNL DTNs.
fn run_driver(jobs: usize) -> usize {
    let topo = study_topology();
    let sim = NetworkSim::new(topo.graph.clone(), 7);
    let idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
    let mut d = Driver::new(sim, 7).with_idc(idc);
    let src = d.register_cluster("dtn.slac", topo.dtn(Site::Slac), ServerCaps::default(), 2);
    let dst = d.register_cluster("dtn.bnl", topo.dtn(Site::Bnl), ServerCaps::default(), 2);
    let bulk: Vec<TransferJob> = (0..jobs)
        .map(|_| TransferJob { size_bytes: 256 << 20, ..TransferJob::default() })
        .collect();
    let spec = SessionSpec::sequential(bulk, 1.0).with_vc(VcRequestSpec {
        rate_bps: 1e9,
        max_duration_s: 3600.0,
        wait_for_circuit: true,
    });
    d.schedule_session(SimTime::ZERO, src, dst, spec);
    d.run(SimTime::from_secs(200_000)).log.len()
}

fn bench_driver_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("driver");
    g.bench_function("no_recovery", |b| {
        b.iter(|| run_driver(std::hint::black_box(8)));
    });
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let policy = RecoveryPolicy::default();
    c.bench_function("recovery_decide", |b| {
        b.iter(|| {
            let mut last = None;
            for attempt in 1..=policy.attempt_budget() {
                last = Some(policy.decide(std::hint::black_box(7), attempt));
            }
            last
        });
    });
    c.bench_function("recovery_backoff_schedule", |b| {
        b.iter(|| (1..=8u32).map(|r| policy.backoff_s(std::hint::black_box(7), r)).sum::<f64>());
    });
}

fn bench_plan_parse(c: &mut Criterion) {
    let spec = "seed=7,fail-first=2,provision-p=0.1,preempt-after=30,restart-p=0.05,\
                flap=star-aofa->star-cr5@10+5*0.25";
    c.bench_function("fault_plan_parse", |b| {
        b.iter(|| FaultPlan::parse(std::hint::black_box(spec)));
    });
}

criterion_group!(benches, bench_driver_overhead, bench_policy, bench_plan_parse);
criterion_main!(benches);

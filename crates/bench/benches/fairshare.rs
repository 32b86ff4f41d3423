//! Microbenchmarks of the max-min fair-share solver and CSPF — the two
//! inner loops of the fluid simulator and the IDC.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gvc_bench::perfsuite::{net_solve, net_solve_problem, NET_SOLVE_FLOWS};
use gvc_net::fairshare::FairShareSolver;
use gvc_net::{max_min_allocation, CapacityConstraint, FlowDemand};
use gvc_topology::{constrained_shortest_path, shortest_path, study_topology, Site};

fn bench_max_min(c: &mut Criterion) {
    let mut g = c.benchmark_group("max_min");
    for &nflows in &[10usize, 100, 1000] {
        let constraints: Vec<CapacityConstraint> =
            (0..40).map(|_| CapacityConstraint { capacity_bps: 10e9 }).collect();
        let flows: Vec<FlowDemand> = (0..nflows)
            .map(|i| FlowDemand {
                constraints: vec![i % 40, (i * 7 + 3) % 40, (i * 13 + 1) % 40],
                min_rate_bps: if i % 10 == 0 { 1e9 } else { 0.0 },
                max_rate_bps: if i % 3 == 0 { 2e9 } else { f64::INFINITY },
            })
            .collect();
        g.throughput(Throughput::Elements(nflows as u64));
        g.bench_function(format!("flows_{nflows}"), |b| {
            b.iter(|| {
                max_min_allocation(std::hint::black_box(&constraints), std::hint::black_box(&flows))
            });
        });
    }
    g.finish();
}

/// The shapes the simulator actually solves: a handful of flows on
/// study-topology routes, each crossing ~13 constraints, solved on one
/// warm workspace. Same workload as the `net` perf suite.
fn bench_max_min_study(c: &mut Criterion) {
    let mut g = c.benchmark_group("max_min_study");
    let mut solver = FairShareSolver::new();
    for nflows in NET_SOLVE_FLOWS {
        let problem = net_solve_problem(nflows);
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("flows_{nflows}"), |b| {
            b.iter(|| net_solve(&mut solver, std::hint::black_box(&problem), 1));
        });
    }
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = study_topology();
    let (src, dst) = (topo.dtn(Site::Nersc), topo.dtn(Site::Ornl));
    c.bench_function("dijkstra_study_topology", |b| {
        b.iter(|| shortest_path(&topo.graph, std::hint::black_box(src), std::hint::black_box(dst)));
    });
    c.bench_function("cspf_study_topology", |b| {
        b.iter(|| {
            constrained_shortest_path(&topo.graph, src, dst, 4e9, |l| {
                topo.graph.link(l).capacity_bps
            })
        });
    });
}

criterion_group!(benches, bench_max_min, bench_max_min_study, bench_routing);
criterion_main!(benches);

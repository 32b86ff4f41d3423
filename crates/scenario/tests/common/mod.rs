//! Test helpers shared by the scenario crate's integration tests:
//! valid specs assembled from primitive proptest draws.

use gvc_scenario::spec::{
    ArrivalProfile, AttachSpec, ClusterSpec, ExpectSpec, LinkSpec, NodeSpec, PaperProfile,
    ScenarioSpec, SyntheticWorkload, TopologySpec, WorkloadSpec,
};

/// Builds a cluster at the given attach point with drawn capacities.
fn cluster(name: &str, attach: AttachSpec, servers: u32, nic: f64) -> ClusterSpec {
    ClusterSpec {
        name: name.to_string(),
        attach,
        servers,
        nic_gbps: nic,
        disk_read_gbps: 2.8,
        disk_write_gbps: 2.2,
        node_cap_gbps: 2.4,
    }
}

/// Assembles a valid spec from primitive draws. `shape` picks one of
/// four topology/workload combinations; the numeric draws feed the
/// knobs so float round-tripping is exercised on arbitrary doubles.
#[allow(clippy::too_many_arguments, reason = "one parameter per independent proptest draw")]
pub fn build_spec(
    shape: u32,
    seed: u64,
    scale_raw: f64,
    sessions: u32,
    horizon_s: f64,
    median_mb: f64,
    mean_extra_mb: f64,
    vc_fraction: f64,
    concurrency: u32,
    with_faults: bool,
    expect_mask: u32,
    expect_val: u64,
) -> ScenarioSpec {
    let paper = shape == 0;
    let (topology, clusters, workload) = match shape {
        0 => {
            let profiles = [
                PaperProfile::NcarNics,
                PaperProfile::SlacBnl,
                PaperProfile::NerscAnl,
                PaperProfile::NerscOrnl,
            ];
            let profile = profiles[(seed % 4) as usize];
            (TopologySpec::Study, Vec::new(), WorkloadSpec::Paper { profile, scale: scale_raw })
        }
        1 => (
            TopologySpec::Study,
            vec![
                cluster("west", AttachSpec::Site("nersc".to_string()), 2, 10.0),
                cluster("east", AttachSpec::Site("ornl".to_string()), 3, 10.0),
            ],
            WorkloadSpec::Synthetic(SyntheticWorkload {
                profile: ArrivalProfile::Steady,
                src: "west".to_string(),
                dst: "east".to_string(),
                sessions,
                horizon_s,
                median_size_mb: median_mb,
                mean_size_mb: median_mb + mean_extra_mb,
                vc_fraction,
                concurrency,
                ..SyntheticWorkload::default()
            }),
        ),
        2 => (
            TopologySpec::Graph {
                nodes: vec![
                    NodeSpec { name: "a-dtn".to_string(), host: true },
                    NodeSpec { name: "core".to_string(), host: false },
                    NodeSpec { name: "b-dtn".to_string(), host: true },
                ],
                links: vec![
                    LinkSpec {
                        from: "a-dtn".to_string(),
                        to: "core".to_string(),
                        gbps: scale_raw + 0.5,
                        delay_ms: vc_fraction + 0.1,
                    },
                    LinkSpec {
                        from: "core".to_string(),
                        to: "b-dtn".to_string(),
                        gbps: 10.0,
                        delay_ms: 2.0,
                    },
                ],
            },
            vec![
                cluster("a", AttachSpec::Node("a-dtn".to_string()), 1, 10.0),
                cluster("b", AttachSpec::Node("b-dtn".to_string()), 2, 10.0),
            ],
            WorkloadSpec::Synthetic(SyntheticWorkload {
                profile: ArrivalProfile::Bursty,
                src: "a".to_string(),
                dst: "b".to_string(),
                sessions,
                horizon_s,
                median_size_mb: median_mb,
                mean_size_mb: median_mb + mean_extra_mb,
                vc_fraction,
                concurrency,
                ..SyntheticWorkload::default()
            }),
        ),
        _ => (
            TopologySpec::Chain {
                domains: 2 + sessions % 3,
                hubs_per_domain: 1 + concurrency % 3,
                link_gbps: scale_raw + 1.0,
                hop_delay_ms: vc_fraction * 10.0 + 0.5,
            },
            vec![
                cluster("src", AttachSpec::Node("src-dtn".to_string()), 2, 10.0),
                cluster("dst", AttachSpec::Node("dst-dtn".to_string()), 2, 10.0),
            ],
            WorkloadSpec::Synthetic(SyntheticWorkload {
                profile: ArrivalProfile::FlashCrowd,
                src: "src".to_string(),
                dst: "dst".to_string(),
                sessions,
                horizon_s,
                median_size_mb: median_mb,
                mean_size_mb: median_mb + mean_extra_mb,
                vc_fraction,
                concurrency,
                ..SyntheticWorkload::default()
            }),
        ),
    };
    let expect = ExpectSpec {
        min_transfers: (expect_mask & 1 != 0).then_some(expect_val),
        max_transfers: (expect_mask & 2 != 0).then_some(expect_val + 10),
        min_suitable_sessions_pct: (expect_mask & 4 != 0).then_some(vc_fraction * 100.0),
        vc_requested: (expect_mask & 16 != 0).then_some(expect_val % 50),
        vc_established: (expect_mask & 32 != 0).then_some(expect_val % 40),
        faults_injected: (expect_mask & 64 != 0).then_some(expect_val % 30),
        retries: (expect_mask & 128 != 0).then_some(expect_val % 20),
        fallbacks: (expect_mask & 256 != 0).then_some(expect_val % 10),
        preemptions: (expect_mask & 512 != 0).then_some(expect_val % 5),
        open_reservations: (expect_mask & 1024 != 0).then_some(0),
    };
    ScenarioSpec {
        name: format!("gen-{}", seed % 10_000),
        description: format!("generated shape-{shape} spec"),
        seed,
        topology,
        clusters,
        workload,
        fault_plan: (with_faults && !paper)
            .then(|| format!("seed={},fail-first=1,provision-p=0.25", seed % 97)),
        expect,
    }
}

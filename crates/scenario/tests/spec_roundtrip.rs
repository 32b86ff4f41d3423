//! Property tests for the scenario spec format: `parse` and
//! `to_spec_string` are mutual inverses over valid specs, and the
//! parser is total — malformed input yields a typed [`SpecError`]
//! with a useful line number, never a panic.

use gvc_scenario::spec::{
    ArrivalProfile, AttachSpec, ClusterSpec, ExpectSpec, LinkSpec, NodeSpec, PaperProfile,
    ScenarioSpec, SyntheticWorkload, TopologySpec, WorkloadSpec,
};
use gvc_scenario::SpecError;
use proptest::prelude::*;

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
#[allow(clippy::too_many_arguments)]
fn build_spec(
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
        max_setup_share: (expect_mask & 8 != 0).then_some(vc_fraction),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `parse(to_spec_string(s)) == s` for any valid spec: the
    /// serializer writes every concrete field and the parser
    /// reconstructs them exactly (floats via shortest round-trip).
    #[test]
    fn serialize_parse_identity(
        shape in 0u32..4,
        seed in 0u64..1_000_000_000,
        scale_raw in 0.01f64..9.9,
        sessions in 1u32..60,
        horizon_s in 600.0f64..500_000.0,
        median_mb in 1.0f64..2_000.0,
        mean_extra_mb in 0.5f64..4_000.0,
        vc_fraction in 0.0f64..1.0,
        concurrency in 1u32..9,
        with_faults in proptest::bool::ANY,
        expect_mask in 0u32..2048,
        expect_val in 0u64..100_000,
    ) {
        let spec = build_spec(
            shape, seed, scale_raw, sessions, horizon_s, median_mb,
            mean_extra_mb, vc_fraction, concurrency, with_faults,
            expect_mask, expect_val,
        );
        let text = spec.to_spec_string();
        let reparsed = ScenarioSpec::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- spec ---\n{text}")))?;
        prop_assert_eq!(&reparsed, &spec);
        // A second round through the serializer is byte-stable.
        prop_assert_eq!(reparsed.to_spec_string(), text);
    }

    /// The parser is total over adversarial line soup: any mix of
    /// plausible and broken fragments returns `Ok` or a typed error,
    /// never a panic.
    #[test]
    fn parser_never_panics_on_line_soup(
        picks in proptest::collection::vec(0u64..FRAGMENTS_LEN, 0..40),
    ) {
        let text: String = picks
            .iter()
            .map(|&i| FRAGMENTS[i as usize])
            .collect::<Vec<_>>()
            .join("\n");
        match ScenarioSpec::parse(&text) {
            Ok(spec) => prop_assert!(!spec.name.is_empty()),
            Err(e) => prop_assert!(!e.message.is_empty()),
        }
    }
}

const FRAGMENTS_LEN: u64 = FRAGMENTS.len() as u64;

/// Line fragments mixing valid grammar, near-misses, and junk.
static FRAGMENTS: &[&str] = &[
    "[scenario]",
    "[topology]",
    "[workload]",
    "[cluster]",
    "[node]",
    "[link]",
    "[faults]",
    "[expect]",
    "[bogus section]",
    "name = x",
    "name = UPPER CASE",
    "description = a generated line",
    "seed = 42",
    "seed = -1",
    "seed = nine",
    "kind = study",
    "kind = graph",
    "kind = chain",
    "kind = torus",
    "profile = steady",
    "profile = paper-ncar",
    "scale = 0.5",
    "scale = 99",
    "src = a",
    "dst = a",
    "sessions = 0",
    "sessions = 10",
    "site = nersc",
    "site = atlantis",
    "node = core",
    "servers = 3",
    "gbps = 10",
    "gbps = -2",
    "delay_ms = 1.5",
    "from = a",
    "to = a",
    "plan = seed=1,provision-p=0.5",
    "plan = gibberish",
    "min_transfers = 5",
    "max_setup_share = 2.0",
    "vc_fraction = 0.25",
    "mean_size_mb = 1",
    "median_size_mb = 100",
    "concurrency = 0",
    "# a comment",
    "",
    "no equals sign here",
    "= dangling",
    "key = = double",
    "[unclosed",
    "]",
];

#[test]
fn malformed_specs_yield_typed_errors_with_line_numbers() {
    // (input, expected error line, substring of the message); line 0
    // marks whole-file diagnostics.
    let cases: &[(&str, usize, &str)] = &[
        ("", 0, "missing [scenario] section"),
        ("[scenario]\nname = a\n", 1, "missing required key `seed`"),
        ("just some prose\n", 1, "expected `key = value` or `[section]`"),
        ("[scenario]\nname = Bad Name\n", 2, "lowercase"),
        ("[scenario]\nname = a\nname = b\n", 3, "duplicate key `name`"),
        ("[scenario]\nname = a\nseed = twelve\n", 3, "non-negative integer"),
        (
            "[scenario]\nname = a\nseed = 1\ndescription = d\nflavor = mint\n",
            5,
            "unknown key `flavor`",
        ),
        ("[mystery]\n", 1, "unknown section [mystery]"),
        ("[scenario]\n[scenario]\n", 2, "duplicate section [scenario]"),
        ("[scenario]\nname = a\nseed = 1\ndescription = d\n", 0, "missing [topology] section"),
    ];
    for (input, want_line, want_msg) in cases {
        let err = ScenarioSpec::parse(input).expect_err(input);
        assert_eq!(err.line, *want_line, "line for input {input:?}: {err}");
        assert!(
            err.to_string().contains(want_msg),
            "error {err:?} for input {input:?} should mention {want_msg:?}"
        );
    }
}

#[test]
fn semantic_validation_rejects_inconsistent_specs() {
    let base = "[scenario]\nname = t\ndescription = d\nseed = 1\n";
    // Two hosts bridged by a router, with clusters on both ends —
    // valid except for the one mutation under test.
    let graph =
        "[topology]\nkind = graph\n[node]\nname = a\nkind = host\n[node]\nname = b\nkind = host\n";
    let graph_clusters = "[cluster]\nname = ca\nnode = a\nservers = 1\n[cluster]\nname = cb\nnode = b\nservers = 1\n";
    let graph_wl = "[workload]\nprofile = steady\nsrc = ca\ndst = cb\n";
    // Two study-site clusters and an open [workload] section.
    let study_pair = "[topology]\nkind = study\n[cluster]\nname = c\nsite = nersc\nservers = 2\n[cluster]\nname = e\nsite = ornl\nservers = 2\n[workload]\n";
    let reject: &[(String, &str)] = &[
        // Paper workloads pair with the study topology and own their clusters.
        (
            format!("{graph}[link]\nfrom = a\nto = b\ngbps = 10\ndelay_ms = 1\n[workload]\nprofile = paper-ncar\n"),
            "paper profiles want topology kind = study",
        ),
        (
            "[topology]\nkind = study\n[cluster]\nname = c\nsite = nersc\nservers = 2\n[workload]\nprofile = paper-slac\n".to_string(),
            "paper profiles register their own clusters",
        ),
        // Synthetic endpoints must be distinct, defined clusters.
        (
            "[topology]\nkind = study\n[cluster]\nname = c\nsite = nersc\nservers = 2\n[workload]\nprofile = steady\nsrc = c\ndst = c\n".to_string(),
            "src and dst must be distinct",
        ),
        (
            "[topology]\nkind = study\n[cluster]\nname = c\nsite = nersc\nservers = 2\n[workload]\nprofile = steady\nsrc = c\ndst = ghost\n".to_string(),
            "\"ghost\" names no [cluster]",
        ),
        // Study clusters attach by site; graph clusters by node.
        (
            "[topology]\nkind = study\n[cluster]\nname = c\nnode = nersc-dtn\nservers = 2\n[cluster]\nname = e\nsite = ornl\nservers = 2\n[workload]\nprofile = steady\nsrc = c\ndst = e\n".to_string(),
            "study topology wants `site`",
        ),
        // A graph needs links, known endpoints, and no self-loops.
        (
            format!("{graph}{graph_clusters}{graph_wl}"),
            "link",
        ),
        (
            format!("{graph}[link]\nfrom = a\nto = a\ngbps = 10\ndelay_ms = 1\n{graph_clusters}{graph_wl}"),
            "self-loop",
        ),
        (
            format!("{graph}[link]\nfrom = a\nto = ghost\ngbps = 10\ndelay_ms = 1\n{graph_clusters}{graph_wl}"),
            "unknown node",
        ),
        // Bounded numerics.
        (
            "[topology]\nkind = study\n[workload]\nprofile = paper-ncar\nscale = 0\n".to_string(),
            "`scale` must be positive",
        ),
        (
            "[topology]\nkind = study\n[workload]\nprofile = paper-ncar\nscale = 11\n".to_string(),
            "`scale` must be at most 10",
        ),
        (
            "[topology]\nkind = study\n[workload]\nprofile = paper-anl\n[expect]\nmax_setup_share = 1.5\n".to_string(),
            "must be within [0, 1]",
        ),
        // Times and circuit windows must fit the sim clock.
        (
            format!("{study_pair}profile = steady\nsrc = c\ndst = e\nhorizon_s = 1e300\n"),
            "`horizon_s` must be at most",
        ),
        (
            format!("{study_pair}profile = flash-crowd\nsrc = c\ndst = e\nflash_at_s = 1e300\n"),
            "`flash_at_s` must be at most",
        ),
        (
            format!("{study_pair}profile = steady\nsrc = c\ndst = e\nvc_rate_gbps = 1e-300\n"),
            "`vc_rate_gbps` is too low",
        ),
        // Fault plans are validated at parse time.
        (
            "[topology]\nkind = study\n[workload]\nprofile = paper-anl\n[faults]\nplan = not-a-plan\n".to_string(),
            "bad fault plan",
        ),
    ];
    for (tail, want) in reject {
        let input = format!("{base}{tail}");
        let err = ScenarioSpec::parse(&input).expect_err(&input);
        assert!(
            err.to_string().contains(want),
            "error {err:?} for spec tail {tail:?} should mention {want:?}"
        );
    }
    // A bursty schedule may not outgrow the ceiling `sessions` puts on
    // the other profiles: 10^12 passes would exhaust memory in
    // `synth_sessions`.
    let pamela = include_str!("../../../scenarios/pamela-downlink.scn")
        .replace("horizon_s = 17100", "horizon_s = 1000000")
        .replace("burst_period_s = 5700", "burst_period_s = 0.000001");
    let err = ScenarioSpec::parse(&pamela).expect_err("bursty session count overflows");
    assert!(err.to_string().contains("`burst_period_s` is too short"), "{err}");
}

#[test]
fn spec_error_display_prefixes_the_line() {
    let e = SpecError { line: 7, message: "boom".to_string() };
    assert_eq!(e.to_string(), "spec line 7: boom");
}

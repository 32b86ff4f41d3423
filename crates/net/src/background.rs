//! Background (general-purpose) cross traffic.
//!
//! §VII-C found backbone links "relatively lightly loaded" with science
//! flows dominating the byte counts: the non-GridFTP traffic share is
//! small. The generator produces Poisson arrivals of modest best-effort
//! flows between router pairs so that (a) SNMP counters contain
//! *something* besides the measured transfers and (b) the Table XII
//! "other flows" correlation has a real signal to be near zero about.
//!
//! A month of ORNL background is 432 407 arrivals over a few dozen
//! router pairs, so an arrival is kept compact: its route is the
//! pair's one shared `Arc<[LinkId]>`, and the [`FlowSpec`] it stands
//! for (with its own route `Vec`) is built by
//! [`BackgroundArrival::spec`] only when the flow is injected.

use crate::flow::FlowSpec;
use gvc_engine::SimTime;
use gvc_stats::dist::{Distribution, Exponential, LogNormal};
use gvc_stats::rng::component_rng;
use gvc_topology::{Graph, LinkId, NodeId, NodeKind};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration for one background-traffic population.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Mean inter-arrival time between flows, seconds.
    pub mean_interarrival_s: f64,
    /// Median flow size, bytes.
    pub median_size_bytes: f64,
    /// Mean flow size, bytes (must exceed the median; sizes are
    /// lognormal, i.e. right-skewed like real traffic).
    pub mean_size_bytes: f64,
    /// Per-flow rate cap, bps (general-purpose flows are not α flows).
    pub rate_cap_bps: f64,
    /// Tag stamped on generated flows so analyses can separate them.
    pub tag: u64,
    /// Router-name suffixes excluded as endpoints. Cross traffic
    /// transits the *provider*; campus-internal switches (`-sw`) never
    /// source or sink it.
    pub exclude_suffixes: &'static [&'static str],
}

impl Default for BackgroundConfig {
    fn default() -> BackgroundConfig {
        BackgroundConfig {
            mean_interarrival_s: 2.0,
            median_size_bytes: 4e6,
            mean_size_bytes: 40e6,
            rate_cap_bps: 300e6,
            tag: u64::MAX,
            exclude_suffixes: &["-sw"],
        }
    }
}

/// A pre-generated background flow arrival.
#[derive(Debug, Clone)]
pub struct BackgroundArrival {
    /// Injection instant.
    pub at: SimTime,
    /// Links traversed, in order; shared by every arrival of the same
    /// router pair.
    pub route: Arc<[LinkId]>,
    /// Payload, bytes.
    pub size_bytes: f64,
    /// Rate cap, bps.
    pub cap_bps: f64,
    /// The configuration's tag.
    pub tag: u64,
}

impl BackgroundArrival {
    /// The best-effort flow this arrival injects: its route, size, cap
    /// and tag, no guarantee and no endpoint resources.
    pub fn spec(&self) -> FlowSpec {
        FlowSpec::best_effort(self.route.to_vec(), self.size_bytes)
            .with_cap(self.cap_bps)
            .with_tag(self.tag)
    }
}

/// Generates Poisson background arrivals between random router pairs
/// over `[0, horizon]`, deterministic in `seed`.
///
/// Each router pair's delay-shortest route is computed once, on the
/// pair's first arrival, and reused: route choice draws nothing from
/// the RNG, so the arrival stream is the same as routing every arrival
/// afresh.
pub fn generate_background(
    graph: &Graph,
    cfg: &BackgroundConfig,
    horizon: SimTime,
    seed: u64,
) -> Vec<BackgroundArrival> {
    let routers: Vec<NodeId> = graph
        .iter_nodes()
        .filter(|(_, n)| {
            n.kind == NodeKind::Router && !cfg.exclude_suffixes.iter().any(|s| n.name.ends_with(s))
        })
        .map(|(id, _)| id)
        .collect();
    if routers.len() < 2 {
        return Vec::new();
    }
    let mut rng = component_rng(seed, "background");
    let inter = Exponential::with_mean(cfg.mean_interarrival_s);
    // A calibration with mean <= median cannot be log-normal; treat it
    // as "no background traffic" rather than panic on bad config.
    let Some(size) = LogNormal::from_median_mean(cfg.median_size_bytes, cfg.mean_size_bytes) else {
        return Vec::new();
    };
    // Routes by router pair; an empty route stands for "no route".
    let mut routes: BTreeMap<(NodeId, NodeId), Arc<[LinkId]>> = BTreeMap::new();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += inter.sample(&mut rng);
        let at = SimTime::from_secs_f64(t);
        if at > horizon {
            break;
        }
        // Random distinct router pair with a route between them.
        let pair: Vec<NodeId> = routers.choose_multiple(&mut rng, 2).copied().collect();
        let &[src, dst] = pair.as_slice() else {
            continue;
        };
        let route = routes.entry((src, dst)).or_insert_with(|| {
            gvc_topology::shortest_path(graph, src, dst)
                .map_or_else(|| Arc::from([]), |p| p.links.into())
        });
        if route.is_empty() {
            continue;
        }
        let bytes = size.sample(&mut rng).max(1.0);
        // Mild rate diversity: 10–100 % of the cap.
        let cap = cfg.rate_cap_bps * (0.1 + 0.9 * rng.gen::<f64>());
        out.push(BackgroundArrival {
            at,
            route: Arc::clone(route),
            size_bytes: bytes,
            cap_bps: cap,
            tag: cfg.tag,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_topology::study_topology;

    #[test]
    fn deterministic_in_seed() {
        let t = study_topology();
        let cfg = BackgroundConfig::default();
        let a = generate_background(&t.graph, &cfg, SimTime::from_secs(600), 1);
        let b = generate_background(&t.graph, &cfg, SimTime::from_secs(600), 1);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.size_bytes, y.size_bytes);
            assert_eq!(x.route, y.route);
        }
        let c = generate_background(&t.graph, &cfg, SimTime::from_secs(600), 2);
        assert_ne!(
            a.iter().map(|x| x.at).collect::<Vec<_>>(),
            c.iter().map(|x| x.at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn each_arrival_takes_its_pairs_shortest_path() {
        let t = study_topology();
        let cfg = BackgroundConfig::default();
        let arr = generate_background(&t.graph, &cfg, SimTime::from_secs(3600), 2010);
        for a in &arr {
            let (Some(&first), Some(&last)) = (a.route.first(), a.route.last()) else {
                panic!("empty route at {:?}", a.at);
            };
            let (src, dst) = (t.graph.link(first).src, t.graph.link(last).dst);
            let path = gvc_topology::shortest_path(&t.graph, src, dst).expect("routed pair");
            assert_eq!(*a.route, *path.links, "arrival at {:?}", a.at);
        }
        // Recorded from the generator that ran Dijkstra per arrival.
        let ends = |a: &BackgroundArrival| {
            let route: Vec<u32> = a.route.iter().map(|l| l.0).collect();
            (a.at.micros(), a.size_bytes.to_bits(), route)
        };
        assert_eq!(arr.len(), 1798);
        assert_eq!(
            arr.first().map(ends),
            Some((9_344_700, 3_128_463.232_095_323_5_f64.to_bits(), vec![34, 7, 8, 47]))
        );
        assert_eq!(
            arr.last().map(ends),
            Some((3_599_138_867, 7_274_819.174_127_859_f64.to_bits(), vec![7, 5, 3, 1, 11]))
        );
    }

    #[test]
    fn arrivals_within_horizon_and_ordered() {
        let t = study_topology();
        let horizon = SimTime::from_secs(300);
        let arr = generate_background(&t.graph, &BackgroundConfig::default(), horizon, 7);
        assert!(arr.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(arr.iter().all(|a| a.at <= horizon));
    }

    #[test]
    fn arrival_rate_matches_config() {
        let t = study_topology();
        let cfg = BackgroundConfig { mean_interarrival_s: 1.0, ..BackgroundConfig::default() };
        let arr = generate_background(&t.graph, &cfg, SimTime::from_secs(2000), 11);
        // Expect ~2000 arrivals, allow 10 %.
        assert!((arr.len() as f64 - 2000.0).abs() < 200.0, "{}", arr.len());
    }

    #[test]
    fn flows_are_capped_and_tagged() {
        let t = study_topology();
        let cfg = BackgroundConfig::default();
        let arr = generate_background(&t.graph, &cfg, SimTime::from_secs(120), 3);
        for a in &arr {
            let spec = a.spec();
            assert!(spec.max_rate_bps <= cfg.rate_cap_bps + 1.0);
            assert!(spec.max_rate_bps > 0.0);
            assert_eq!(spec.tag, cfg.tag);
            assert_eq!(spec.min_rate_bps, 0.0);
            assert!(spec.resources.is_empty());
            assert_eq!(spec.size_bytes, a.size_bytes);
            assert_eq!(spec.route, *a.route);
        }
    }

    #[test]
    fn campus_switches_never_carry_background() {
        let t = study_topology();
        let arr =
            generate_background(&t.graph, &BackgroundConfig::default(), SimTime::from_secs(600), 5);
        for a in &arr {
            for &l in a.route.iter() {
                let link = t.graph.link(l);
                for n in [link.src, link.dst] {
                    assert!(
                        !t.graph.node(n).name.ends_with("-sw"),
                        "background crossed campus switch {}",
                        t.graph.node(n).name
                    );
                }
            }
        }
    }

    #[test]
    fn arrivals_are_compact_and_share_their_pairs_route() {
        // A re-embedded `FlowSpec` or a re-owned route would grow each
        // of a month's 432 407 ORNL arrivals.
        assert!(std::mem::size_of::<BackgroundArrival>() <= 48);
        let t = study_topology();
        let arr =
            generate_background(&t.graph, &BackgroundConfig::default(), SimTime::from_secs(600), 5);
        let mut first: BTreeMap<&[LinkId], &Arc<[LinkId]>> = BTreeMap::new();
        for a in &arr {
            let shared = first.entry(&a.route).or_insert(&a.route);
            assert!(Arc::ptr_eq(shared, &a.route), "route {:?} allocated twice", a.route);
        }
        assert!(first.len() < arr.len());
    }

    #[test]
    fn no_routers_no_traffic() {
        let g = Graph::new();
        let arr = generate_background(&g, &BackgroundConfig::default(), SimTime::from_secs(60), 1);
        assert!(arr.is_empty());
    }
}

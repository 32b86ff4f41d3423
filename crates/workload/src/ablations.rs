//! Ablation experiments for the design choices the paper argues for.
//!
//! §I lists three positives of virtual circuits; the paper itself
//! measures only the feasibility side (Table IV). These experiments
//! quantify the other two claims inside the simulator, plus parameter
//! sweeps generalizing Tables III and IV:
//!
//! * [`vc_variance_experiment`] — rate-guaranteed VCs vs IP-routed
//!   best-effort under congestion: does the VC cut throughput
//!   variance? (positive #1)
//! * [`isolation_sweep`] — general-purpose flow jitter with and
//!   without α-flow virtual-queue isolation (positive #3);
//! * [`setup_delay_sweep`] — VC-suitable session fraction as a
//!   continuous function of setup delay (generalizes Table IV).

use gvc_core::sweep::sweep_dataset;
use gvc_core::vc_suitability::{VcSuitability, DEFAULT_OVERHEAD_FACTOR};
use gvc_engine::SimSpan;
use gvc_engine::SimTime;
use gvc_gridftp::driver::Driver;
use gvc_gridftp::session::VcRequestSpec;
use gvc_gridftp::{ServerCaps, SessionSpec, TransferJob};
use gvc_logs::{Dataset, EndpointKind, TransferType};
use gvc_net::background::{generate_background, BackgroundConfig};
use gvc_net::jitter::JitterModel;
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, SetupDelayModel};
use gvc_stats::rng::component_rng;
use gvc_stats::Summary;
use gvc_topology::{study_topology, Site};
use rand::Rng;

/// Result of the VC-vs-IP variance experiment.
#[derive(Debug, Clone)]
pub struct VcVarianceResult {
    /// Throughput summary of the IP-routed (best-effort) run, Mbps.
    pub ip_routed: Summary,
    /// Throughput summary of the circuit-protected run, Mbps.
    pub vc: Summary,
}

impl VcVarianceResult {
    /// How much of the IQR the circuit removed (1 − IQR_vc/IQR_ip).
    pub fn iqr_reduction(&self) -> f64 {
        if self.ip_routed.iqr() <= 0.0 {
            return 0.0;
        }
        1.0 - self.vc.iqr() / self.ip_routed.iqr()
    }
}

/// Runs the same α-flow workload over a congested SLAC–BNL path twice:
/// best-effort, and with a per-session OSCARS circuit guaranteeing
/// `guarantee_bps`. Heavy cross traffic supplies the variance that the
/// circuit should remove.
pub fn vc_variance_experiment(
    seed: u64,
    n_transfers: usize,
    guarantee_bps: f64,
) -> VcVarianceResult {
    let run = |use_vc: bool| -> Dataset {
        let topo = study_topology();
        let sim = NetworkSim::new(topo.graph.clone(), 0);
        // Quiet server noise: this experiment isolates *network*-caused
        // variance, the component rate guarantees can remove (the
        // paper's finding v is precisely that server noise remains).
        let mut driver = Driver::new(sim, seed)
            .with_noise(gvc_gridftp::transfer::ServerNoise { mean: 0.97, sd: 0.02 });
        if use_vc {
            driver = driver.with_idc(Idc::new(topo.graph.clone(), SetupDelayModel::one_minute()));
        }
        let caps = ServerCaps {
            node_cap_bps: 5e9,
            disk_read_bps: 5e9,
            disk_write_bps: 5e9,
            nic_bps: 10e9,
            ..ServerCaps::default()
        };
        let slac = driver.register_cluster("slac", topo.dtn(Site::Slac), caps, 2);
        let bnl = driver.register_cluster("bnl", topo.dtn(Site::Bnl), caps, 2);

        // Heavy, bursty cross traffic (unusually loaded network: the
        // regime where guarantees matter).
        let horizon = SimTime::from_secs_f64(n_transfers as f64 * 160.0 + 7_200.0);
        let bg = BackgroundConfig {
            mean_interarrival_s: 1.5,
            median_size_bytes: 0.6e9,
            mean_size_bytes: 2.5e9,
            rate_cap_bps: 4e9,
            ..BackgroundConfig::default()
        };
        driver.schedule_background(generate_background(&topo.graph, &bg, horizon, seed));

        let mut rng = component_rng(seed, "vc-variance");
        let jobs: Vec<TransferJob> = (0..n_transfers)
            .map(|_| TransferJob {
                size_bytes: (16e9 + rng.gen::<f64>() * 2e9) as u64,
                streams: 8,
                stripes: 2,
                src_kind: EndpointKind::Memory,
                dst_kind: EndpointKind::Memory,
                logged_as: TransferType::Retr,
                tcp_buffer_bytes: 16 << 20,
                block_size_bytes: 256 << 10,
            })
            .collect();
        let mut spec = SessionSpec::sequential(jobs, 10.0);
        if use_vc {
            spec = spec.with_vc(VcRequestSpec {
                rate_bps: guarantee_bps,
                max_duration_s: horizon.as_secs_f64(),
            });
        }
        driver.schedule_session(SimTime::from_secs_f64(60.0), slac, bnl, spec);
        driver.run(horizon).log
    };

    let ip = run(false);
    let vc = run(true);
    // A run with no completed transfers degenerates to an all-zero row
    // rather than a panic.
    let zero =
        Summary { n: 0, min: 0.0, q1: 0.0, median: 0.0, mean: 0.0, q3: 0.0, max: 0.0, sd: 0.0 };
    VcVarianceResult {
        ip_routed: Summary::of(&ip.throughputs_mbps()).unwrap_or(zero),
        vc: Summary::of(&vc.throughputs_mbps()).unwrap_or(zero),
    }
}

/// One point of the isolation sweep.
#[derive(Debug, Clone, Copy)]
pub struct IsolationPoint {
    /// α-flow utilization of the interface.
    pub alpha_util: f64,
    /// Mean general-purpose queueing wait, shared queue (µs).
    pub shared_wait_us: f64,
    /// Mean general-purpose queueing wait, isolated queue (µs).
    pub isolated_wait_us: f64,
}

/// Sweeps α-flow load at fixed general-purpose load and reports the
/// jitter with and without virtual-queue isolation (positive #3).
pub fn isolation_sweep(gp_util: f64, alpha_utils: &[f64]) -> Vec<IsolationPoint> {
    let model = JitterModel::default();
    alpha_utils
        .iter()
        .map(|&a| IsolationPoint {
            alpha_util: a,
            shared_wait_us: model.shared_queue_wait_s(gp_util, a) * 1e6,
            isolated_wait_us: model.isolated_queue_wait_s(gp_util) * 1e6,
        })
        .collect()
}

/// Suitability percentages over a continuous setup-delay sweep
/// (g = 1 min grouping): one sweep at a single gap.
pub fn setup_delay_sweep(ds: &Dataset, delays_s: &[f64]) -> Vec<VcSuitability> {
    sweep_dataset(ds, &[60.0], delays_s, DEFAULT_OVERHEAD_FACTOR).cells
}

/// One point of the call-blocking curve.
#[derive(Debug, Clone, Copy)]
pub struct BlockingPoint {
    /// Offered load in erlangs (mean concurrent circuits requested).
    pub offered_erlangs: f64,
    /// Observed blocking probability.
    pub blocking_probability: f64,
    /// Requests placed.
    pub requests: u64,
}

/// Call-blocking probability vs offered circuit load on the study
/// topology (§II: "advance-reservation service is required when the
/// requested circuit rate is a significant portion of link capacity if
/// the network is to be operated at high utilization and with low call
/// blocking probability"). Circuits of `rate_bps` arrive Poisson
/// between random site pairs with exponential holding times; offered
/// load is swept via the arrival rate.
pub fn blocking_curve(
    seed: u64,
    rate_bps: f64,
    mean_holding_s: f64,
    offered_erlangs: &[f64],
    n_requests: usize,
) -> Vec<BlockingPoint> {
    use gvc_oscars::ReservationRequest;
    use gvc_stats::dist::{Distribution, Exponential};
    use rand::seq::SliceRandom;

    let topo = study_topology();
    let sites = gvc_topology::Site::ALL;
    offered_erlangs
        .iter()
        .map(|&erlangs| {
            let mut idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
            let mut rng = component_rng(seed, &format!("blocking-{erlangs}"));
            let inter = Exponential::with_mean(mean_holding_s / erlangs.max(1e-9));
            let hold = Exponential::with_mean(mean_holding_s);
            let mut t = 0.0f64;
            for _ in 0..n_requests {
                t += inter.sample(&mut rng);
                let pair: Vec<_> = sites.choose_multiple(&mut rng, 2).copied().collect();
                let &[site_a, site_b] = pair.as_slice() else { continue };
                let start = SimTime::from_secs_f64(t);
                let req = ReservationRequest {
                    src: topo.dtn(site_a),
                    dst: topo.dtn(site_b),
                    rate_bps,
                    start,
                    end: start + SimSpan::from_secs_f64(hold.sample(&mut rng).max(1.0)),
                };
                let _ = idc.create_reservation(req);
            }
            let stats = idc.stats();
            BlockingPoint {
                offered_erlangs: erlangs,
                blocking_probability: stats.blocking_probability(),
                requests: stats.requests,
            }
        })
        .collect()
}

/// Blocking with *deadline flexibility*: the same Poisson request
/// stream, but a blocked request retries with its window shifted
/// `shift_s` later, up to `max_retries` times — the advance-reservation
/// capability §II highlights (phone calls can only ask for "now";
/// OSCARS requests can book ahead). Returns `(immediate, flexible)`
/// blocking probabilities at one offered load.
pub fn blocking_with_flexibility(
    seed: u64,
    rate_bps: f64,
    mean_holding_s: f64,
    offered_erlangs: f64,
    n_requests: usize,
    max_retries: u32,
    shift_s: f64,
) -> (f64, f64) {
    use gvc_oscars::ReservationRequest;
    use gvc_stats::dist::{Distribution, Exponential};
    use rand::seq::SliceRandom;

    let topo = study_topology();
    let sites = gvc_topology::Site::ALL;
    let run = |retries: u32| -> f64 {
        let mut idc = Idc::new(topo.graph.clone(), SetupDelayModel::one_minute());
        let mut rng = component_rng(seed, &format!("flex-{offered_erlangs}-{retries}"));
        let inter = Exponential::with_mean(mean_holding_s / offered_erlangs.max(1e-9));
        let hold = Exponential::with_mean(mean_holding_s);
        let mut t = 0.0f64;
        let mut blocked = 0usize;
        for _ in 0..n_requests {
            t += inter.sample(&mut rng);
            let pair: Vec<_> = sites.choose_multiple(&mut rng, 2).copied().collect();
            let &[site_a, site_b] = pair.as_slice() else { continue };
            let dur = hold.sample(&mut rng).max(1.0);
            let mut admitted = false;
            for attempt in 0..=retries {
                let start = SimTime::from_secs_f64(t + f64::from(attempt) * shift_s);
                let req = ReservationRequest {
                    src: topo.dtn(site_a),
                    dst: topo.dtn(site_b),
                    rate_bps,
                    start,
                    end: start + SimSpan::from_secs_f64(dur),
                };
                if idc.create_reservation(req).is_ok() {
                    admitted = true;
                    break;
                }
            }
            if !admitted {
                blocked += 1;
            }
        }
        blocked as f64 / n_requests as f64
    };
    (run(0), run(max_retries))
}

/// HNTES offline α-flow capture on a synthetic NCAR-style log: how
/// much of the science traffic would pair-learned redirection steer
/// onto pre-provisioned LSPs (§IV's intra-domain alternative to
/// user-requested circuits)?
pub fn hntes_capture(seed: u64, scale: f64) -> gvc_hntes::CaptureReport {
    use gvc_hntes::{capture_experiment, flowrec, AlphaClassifier};

    let ds = crate::ncar_nics::generate(crate::ncar_nics::NcarNicsConfig { seed, scale });
    let topo = study_topology();
    let edge = |name: &str| -> Option<gvc_topology::NodeId> {
        // Map each cluster's domain name to its site's provider edge.
        if name.contains("ucar") {
            Some(topo.dtn(gvc_topology::Site::Ncar))
        } else if name.contains("nics") {
            Some(topo.dtn(gvc_topology::Site::Nics))
        } else {
            None
        }
    };
    let flows = flowrec::from_transfer_log(&ds, edge);
    // Split the flow records into measurement days.
    let day_us = 86_400_000_000i64;
    let first = flows.iter().map(|f| f.start_unix_us).min().unwrap_or(0);
    let last = flows.iter().map(|f| f.start_unix_us).max().unwrap_or(0);
    let n_days = ((last - first) / day_us + 1).max(1) as usize;
    let mut days = vec![Vec::new(); n_days];
    for f in flows {
        let d = ((f.start_unix_us - first) / day_us) as usize;
        days[d].push(f);
    }
    capture_experiment(AlphaClassifier { min_bytes: 1_000_000_000, min_rate_bps: 100e6 }, &days)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_reduces_variance_under_congestion() {
        let r = vc_variance_experiment(21, 24, 8e9);
        assert!(
            r.vc.iqr() < r.ip_routed.iqr(),
            "vc IQR {} !< ip IQR {}",
            r.vc.iqr(),
            r.ip_routed.iqr()
        );
        assert!(r.iqr_reduction() > 0.2, "reduction {}", r.iqr_reduction());
        // The guarantee also lifts the floor.
        assert!(r.vc.min >= r.ip_routed.min);
    }

    #[test]
    fn isolation_sweep_monotone() {
        let pts = isolation_sweep(0.05, &[0.0, 0.2, 0.4, 0.6]);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].shared_wait_us > w[0].shared_wait_us);
            assert_eq!(w[1].isolated_wait_us, w[0].isolated_wait_us);
        }
        assert!(pts[3].shared_wait_us > 10.0 * pts[3].isolated_wait_us);
    }

    #[test]
    fn blocking_rises_with_offered_load() {
        let curve = blocking_curve(5, 4e9, 600.0, &[0.2, 2.0, 12.0], 250);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].blocking_probability < 0.05, "{:?}", curve[0]);
        assert!(curve[2].blocking_probability > curve[0].blocking_probability, "{curve:?}");
        assert!(curve[2].blocking_probability > 0.2, "{:?}", curve[2]);
    }

    #[test]
    fn book_ahead_flexibility_reduces_blocking() {
        let (immediate, flexible) = blocking_with_flexibility(8, 4e9, 600.0, 8.0, 250, 4, 900.0);
        assert!(immediate > 0.2, "immediate {immediate}");
        assert!(flexible < immediate * 0.7, "flexible {flexible} vs immediate {immediate}");
    }

    #[test]
    fn hntes_captures_repetitive_science_traffic() {
        let report = hntes_capture(9, 0.1);
        assert!(report.alpha_bytes > 0, "alpha traffic present");
        assert!(
            report.capture_fraction() > 0.5,
            "capture {:.2} with {} rules over {} days",
            report.capture_fraction(),
            report.final_rules,
            report.days
        );
        // A single repetitive pair: exactly one rule needed.
        assert_eq!(report.final_rules, 1);
    }

    #[test]
    fn setup_delay_sweep_monotone_nonincreasing() {
        // A dataset with a spread of session sizes.
        let mut recs = Vec::new();
        let mut t = 0i64;
        for k in 1..=20u64 {
            recs.push(gvc_logs::TransferRecord::simple(
                TransferType::Retr,
                k * k * 40_000_000,
                t,
                (k * k) as i64 * 40_000_000,
                "s",
                Some(&format!("p{k}")),
            ));
            t += 10_000_000_000;
        }
        let ds = Dataset::from_records(recs);
        let sweep = setup_delay_sweep(&ds, &[0.05, 1.0, 10.0, 60.0, 300.0]);
        for w in sweep.windows(2) {
            assert!(w[1].pct_sessions() <= w[0].pct_sessions());
        }
        assert!(sweep[0].pct_sessions() > sweep.last().unwrap().pct_sessions());
    }
}

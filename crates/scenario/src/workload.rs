//! Deterministic synthetic session schedules.
//!
//! Three arrival shapes, all driven by `component_rng` streams off the
//! spec's master seed so a scenario replays byte-identically:
//!
//! * **steady** — Poisson arrivals at a fixed mean rate, the
//!   NorduGrid production profile (PAPERS.md): independent users
//!   submitting jobs around the clock;
//! * **bursty** — periodic downlink passes, the PAMELA satellite
//!   profile: every orbital period, a batch of sessions lands inside a
//!   short ground-contact window;
//! * **flash-crowd** — one thundering herd inside a single window.

use gvc_gridftp::{reservation_window_s, SessionSpec, TransferJob, VcRequestSpec};
use gvc_stats::dist::{Distribution, Exponential, LogNormal, UniformRange};
use gvc_stats::rng::component_rng;
use rand::Rng;

use crate::spec::{ArrivalProfile, SyntheticWorkload};
use crate::ScenarioError;

/// Largest file a synthetic session draws, bytes (sizes are clamped
/// to `[1 MB, 1 TB]`).
pub const MAX_FILE_BYTES: f64 = 1e12;

/// One session and when it arrives.
pub struct ScheduledSession {
    /// Arrival time, seconds from epoch.
    pub at_s: f64,
    /// The session body.
    pub spec: SessionSpec,
}

/// Builds the full schedule for a synthetic workload.
pub fn synth_sessions(
    seed: u64,
    wl: &SyntheticWorkload,
) -> Result<Vec<ScheduledSession>, ScenarioError> {
    let mut arrivals_rng = component_rng(seed, "scenario.arrivals");
    let mut arrivals: Vec<f64> = Vec::new();
    match wl.profile {
        ArrivalProfile::Steady => {
            let gap = Exponential::with_mean(wl.mean_interarrival_s);
            let mut t = 0.0;
            while arrivals.len() < wl.sessions as usize {
                t += gap.sample(&mut arrivals_rng);
                if t > wl.horizon_s {
                    break;
                }
                arrivals.push(t);
            }
        }
        ArrivalProfile::Bursty => {
            let window = UniformRange::new(0.0, wl.burst_window_s);
            let mut pass = 0.0;
            while pass < wl.horizon_s {
                for _ in 0..wl.burst_sessions {
                    let at = pass + window.sample(&mut arrivals_rng);
                    if at <= wl.horizon_s {
                        arrivals.push(at);
                    }
                }
                pass += wl.burst_period_s;
            }
        }
        ArrivalProfile::FlashCrowd => {
            let window = UniformRange::new(0.0, wl.burst_window_s);
            for _ in 0..wl.sessions {
                arrivals.push(wl.flash_at_s + window.sample(&mut arrivals_rng));
            }
        }
    }
    arrivals.sort_by(f64::total_cmp);

    let Some(sizes) = LogNormal::from_median_mean(wl.median_size_mb * 1e6, wl.mean_size_mb * 1e6)
    else {
        // Unreachable after spec validation (mean > median), but the
        // runner never panics on a bad calibration either way.
        return Err(ScenarioError::Run(
            "size distribution wants mean_size_mb > median_size_mb".into(),
        ));
    };

    let mut body_rng = component_rng(seed, "scenario.sessions");
    let mut out = Vec::with_capacity(arrivals.len());
    for at_s in arrivals {
        let jobs: Vec<TransferJob> = (0..wl.transfers_per_session)
            .map(|_| {
                let size = sizes.sample(&mut body_rng).clamp(1e6, MAX_FILE_BYTES) as u64;
                TransferJob { size_bytes: size, ..TransferJob::default() }
            })
            .collect();
        let mut spec = SessionSpec::sequential(jobs, wl.gap_s).with_concurrency(wl.concurrency);
        if body_rng.gen::<f64>() < wl.vc_fraction {
            let rate_bps = wl.vc_rate_gbps * 1e9;
            let max_duration_s = reservation_window_s(spec.total_bytes() as f64, rate_bps);
            spec = spec.with_vc(VcRequestSpec { rate_bps, max_duration_s });
        }
        out.push(ScheduledSession { at_s, spec });
    }
    Ok(out)
}

//! `paper-repro`: the four datasets generated the way `repro` builds
//! them (concurrent legs, fixed seeds), then every experiment id, each
//! in its own span. The concatenated experiment output is written to
//! `<out>/repro.txt`, where it must equal `repro`'s stdout.

use std::path::Path;
use std::time::Instant;

use gvc_bench::{run_experiment, Scale, Scenarios, EXPERIMENT_IDS};
use gvc_core::{group_sessions, vc_suitability, SessionStore};
use gvc_workload::nersc_anl::{self, NerscAnlConfig};
use gvc_workload::nersc_ornl::{self, NerscOrnlConfig};
use gvc_workload::{ncar_nics, slac_bnl};

use crate::{sim, Metrics, Trace};

/// The ORNL generator's seed, which its background traffic shares.
const ORNL_SEED: u64 = 2010;

/// Runs `b` on a scoped thread while `a` runs on this one (the shape of
/// `rayon::join`, which `repro` generates its datasets with).
fn join<A: Send, B: Send>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B) {
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("generator leg panicked"))
    })
}

/// Times one generator leg on whichever thread runs it.
fn leg<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}

pub fn run(trace: &mut Trace, m: &mut Metrics, quick: bool, out: &Path) -> Result<f64, String> {
    // `Scale::Quick` / `Scale::Full` presets of `gvc_bench::Scenarios`.
    let (scale, ncar_scale, slac_scale, ornl_n, anl_scale) = if quick {
        (Scale::Quick, 0.15, 0.01, 60, 0.4)
    } else {
        (Scale::Full, 1.0, 0.10, 145, 1.0)
    };
    let started = Instant::now();
    let ((ncar, slac), (ornl, anl)) = join(
        || {
            join(
                || {
                    leg(|| {
                        ncar_nics::generate(ncar_nics::NcarNicsConfig {
                            seed: 2009,
                            scale: ncar_scale,
                        })
                    })
                },
                || {
                    leg(|| {
                        slac_bnl::generate(slac_bnl::SlacBnlConfig {
                            seed: 2012,
                            scale: slac_scale,
                        })
                    })
                },
            )
        },
        || {
            join(
                || {
                    leg(|| {
                        nersc_ornl::generate(NerscOrnlConfig {
                            seed: ORNL_SEED,
                            n_transfers: ornl_n,
                            background: 1.0,
                        })
                    })
                },
                || {
                    leg(|| {
                        nersc_anl::generate(NerscAnlConfig {
                            seed: 2012,
                            scale: anl_scale,
                            production_sessions_per_day: 60.0,
                            horizon_days: 50.0,
                        })
                    })
                },
            )
        },
    );
    trace.record("workload.generate", started, Instant::now());
    trace.record("workload.generate_s.ncar", ncar.1, ncar.2);
    trace.record("workload.generate_s.slac", slac.1, slac.2);
    trace.record("workload.generate_s.ornl", ornl.1, ornl.2);
    trace.record("workload.generate_s.anl", anl.1, anl.2);
    let s = Scenarios { scale, ncar: ncar.0, slac: slac.0, ornl: ornl.0, anl: anl.0 };

    let text = trace.span("bench.experiments_s", |t| {
        let mut text = String::new();
        for id in EXPERIMENT_IDS {
            let rendered = t.span(&format!("bench.experiment_s.{id}"), |_| run_experiment(&s, id));
            text.push_str(&rendered.ok_or_else(|| format!("unknown experiment {id}"))?);
        }
        Ok::<_, String>(text)
    })?;
    let traced_wall_s = started.elapsed().as_secs_f64();
    let path = out.join("repro.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    let transfers = s.ncar.len() + s.slac.len() + s.ornl.log.len() + s.anl.len();
    m.set("gridftp.transfers", transfers as f64);

    // Analysis layer on the two large in-memory logs, with the
    // parameters the paper's tables use (g = 60 s, 1 min setup,
    // overhead factor 10).
    for ds in [&s.ncar, &s.slac] {
        let grouping = trace.span("core.group_sessions_s", |_| group_sessions(ds, 60.0));
        trace.span("core.suitability_s", |_| vc_suitability(&grouping, ds, 60.0, 10.0));
        trace.span("core.sweep_s", |_| {
            SessionStore::from_dataset(ds).sweep(&[0.0, 60.0, 120.0], &[60.0, 0.05], 10.0)
        });
        m.add("core.sessions", grouping.sessions.len() as f64);
    }

    sim::redrive_ornl_background(trace, m, ORNL_SEED);
    Ok(traced_wall_s)
}

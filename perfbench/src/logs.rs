//! `log-analysis`: the generator legs behind the set-up, then a replay
//! of one pass (`gvc sweep`, `gvc suitability`, `gvc sessions` and
//! `gvc anonymize --policy pseudonym` on each log), each command
//! parsing its log from disk as the CLI does.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use gvc_core::gap_sensitivity::gap_sensitivity;
use gvc_core::{group_sessions, vc_suitability, SessionStore};
use gvc_logs::anonymize::AnonymizePolicy;
use gvc_logs::{anonymize_dataset, parse_dataset, write_dataset, Dataset};

use crate::{Metrics, Trace};

/// The two logs, in pass order, with their generator names.
pub const LOGS: [&str; 2] = ["ncar", "slac"];

fn parse(trace: &mut Trace, path: &Path) -> Result<Dataset, String> {
    trace.span("logs.parse_s", |_| {
        let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_dataset(BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
    })
}

pub fn run(
    trace: &mut Trace,
    m: &mut Metrics,
    logs: &Path,
    seed: u64,
    scales: [f64; 2],
    out: &Path,
) -> Result<f64, String> {
    for (name, scale) in LOGS.into_iter().zip(scales) {
        let generator = gvc_workload::builtin_generator(name).ok_or("generator missing")?;
        trace.span(&format!("workload.generate_s.{name}"), |_| (generator.generate)(seed, scale));
    }

    let started = Instant::now();
    let mut records = 0usize;
    for name in LOGS {
        let path = logs.join(format!("{name}.log"));

        // gvc sweep (default grid)
        let ds = parse(trace, &path)?;
        trace.span("core.sweep_s", |_| {
            SessionStore::from_dataset(&ds).sweep(&[0.0, 60.0, 120.0], &[60.0, 0.05], 10.0)
        });
        records += ds.len();

        // gvc suitability (g = 60 s, setup 60 s, factor 10)
        let ds = parse(trace, &path)?;
        let grouping = trace.span("core.group_sessions_s", |_| group_sessions(&ds, 60.0));
        trace.span("core.suitability_s", |_| vc_suitability(&grouping, &ds, 60.0, 10.0));
        records += ds.len();

        // gvc sessions (g = 60 s plus its gap-sensitivity table)
        let ds = parse(trace, &path)?;
        let grouping = trace.span("core.group_sessions_s", |_| {
            gap_sensitivity(&ds, &[0.0, 60.0, 120.0, 300.0]);
            group_sessions(&ds, 60.0)
        });
        m.add("core.sessions", grouping.sessions.len() as f64);
        records += ds.len();

        // gvc anonymize --policy pseudonym
        let ds = parse(trace, &path)?;
        let anon_path = out.join(format!("{name}.anon"));
        trace.span("logs.write_s", |_| {
            let anon = anonymize_dataset(&ds, AnonymizePolicy::Pseudonym);
            let f =
                File::create(&anon_path).map_err(|e| format!("{}: {e}", anon_path.display()))?;
            let mut w = BufWriter::new(f);
            write_dataset(&mut w, &anon).and_then(|()| w.flush()).map_err(|e| e.to_string())
        })?;
        records += ds.len();
    }
    let traced_wall_s = started.elapsed().as_secs_f64();
    let parse_s = trace.total("logs.parse_s").unwrap_or(0.0);
    m.set("logs.parse_records_per_s", records as f64 / parse_s.max(f64::MIN_POSITIVE));
    Ok(traced_wall_s)
}

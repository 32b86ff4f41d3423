//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--full] [exp-id ...]
//! repro all                 # everything at quick scale
//! repro --full all          # paper-scale datasets (slower)
//! repro table4 fig8         # specific experiments
//! repro --list              # available ids
//! ```
//!
//! Any other `--` flag is refused with exit status 2, as is an
//! unknown experiment id, before any dataset is generated.

use gvc_bench::{run_experiments, Scale, Scenarios, EXPERIMENT_IDS};

const USAGE: &str = "usage: repro [--full] [--list] [exp-id ... | all]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut full, mut list, mut ids) = (false, false, Vec::new());
    for arg in &args {
        match arg.as_str() {
            "--full" => full = true,
            "--list" => list = true,
            flag if flag.starts_with("--") => {
                eprintln!("repro: unknown flag `{flag}`\n{USAGE}");
                std::process::exit(2);
            }
            id => ids.push(id),
        }
    }
    if list {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }
    if ids.is_empty() || ids.contains(&"all") {
        ids = EXPERIMENT_IDS.to_vec();
    }
    let unknown: Vec<&str> =
        ids.iter().copied().filter(|id| !EXPERIMENT_IDS.contains(id)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment ids: {unknown:?} (use --list)");
        std::process::exit(2);
    }

    let scale = if full { Scale::Full } else { Scale::Quick };
    eprintln!("generating scenarios at {scale:?} scale (seeds fixed; see DESIGN.md) ...");
    let t0 = gvc_telemetry::Stopwatch::start();
    let scenarios = Scenarios::generate(scale);
    eprintln!(
        "scenarios ready in {:.1} s: NCAR {} / SLAC {} / ORNL {} / ANL {} transfers",
        t0.elapsed_s(),
        scenarios.ncar.len(),
        scenarios.slac.len(),
        scenarios.ornl.log.len(),
        scenarios.anl.len()
    );

    for out in run_experiments(&scenarios, &ids).into_iter().flatten() {
        print!("{out}");
    }
}

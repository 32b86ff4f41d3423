//! The `gvc perf` subcommand family: host-performance snapshots of
//! the standard workload matrix, snapshot diffs, and the CI
//! regression gate.
//!
//! ```text
//! gvc perf snapshot [--out-dir target/perf] [--reps 5] [--scale 1.0] [--only kernel,sweep]
//! gvc perf diff <baseline.json> <candidate.json> [--tolerance 0.15]
//! gvc perf gate [--baseline-dir .] [--candidate-dir target/perf] [--threshold 2.0]
//! ```
//!
//! `snapshot` measures the workloads defined in
//! `gvc_bench::perfsuite` and writes one `BENCH_<name>.json` per
//! suite, stamped with a host fingerprint. `diff` compares two
//! snapshot files (suite snapshots or `--perf-out` files) and always
//! exits 0 — it is informational. `gate` compares every committed
//! `BENCH_*.json` baseline against a candidate directory and fails
//! (non-zero exit) on any regression beyond the slowdown threshold,
//! or when a baseline metric vanished from the candidate.

use crate::args::{CliError, ParsedArgs};
use gvc_bench::perfsuite::{max_scale, run_snapshot, SNAPSHOT_NAMES};
use gvc_telemetry::perf::{diff_snapshots, format_rate, gate_tolerance, PerfSnapshot};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The most repetitions `perf snapshot --reps` accepts: far above any
/// useful median, and small enough that the per-rep sample buffer is
/// never a memory hazard.
const MAX_REPS: u64 = 1_000;

/// Dispatches `gvc perf <snapshot|diff|gate>`.
pub fn cmd_perf<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    match a.positional(1, "snapshot|diff|gate")? {
        "snapshot" => cmd_snapshot(a, w),
        "diff" => cmd_diff(a, w),
        "gate" => cmd_gate(a, w),
        other => {
            Err(CliError(format!("unknown perf subcommand {other:?} (want snapshot|diff|gate)")))
        }
    }
}

/// The suite names a `--only kernel,sweep` list selects, validated
/// against [`SNAPSHOT_NAMES`]; the full set when the flag is absent.
/// A list that names no suite is refused.
fn selected_suites(a: &ParsedArgs) -> Result<Vec<&'static str>, CliError> {
    let Some(raw) = a.flags.get("only") else {
        return Ok(SNAPSHOT_NAMES.to_vec());
    };
    let suites = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|want| {
            SNAPSHOT_NAMES.iter().copied().find(|n| *n == want).ok_or_else(|| {
                CliError(format!(
                    "--only: unknown suite {want:?} (want one of {})",
                    SNAPSHOT_NAMES.join(", ")
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if suites.is_empty() {
        return Err(CliError(format!(
            "--only names no suite (want one or more of {})",
            SNAPSHOT_NAMES.join(", ")
        )));
    }
    Ok(suites)
}

fn cmd_snapshot<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let out_dir = PathBuf::from(a.str_flag_or("out-dir", "target/perf"));
    let reps: u64 = a.flag_or("reps", 5u64)?;
    let scale: f64 = a.flag_or("scale", 1.0)?;
    if !(1..=MAX_REPS).contains(&reps) {
        return Err(CliError(format!("--reps must be between 1 and {MAX_REPS}")));
    }
    if !(scale > 0.0 && scale <= max_scale()) {
        return Err(CliError(format!(
            "--scale must be positive and at most {} (suites are capped at {} items)",
            max_scale(),
            u32::MAX
        )));
    }
    let suites = selected_suites(a)?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError(format!("cannot create {}: {e}", out_dir.display())))?;
    for name in suites {
        let snap = run_snapshot(name, reps, scale)
            .ok_or_else(|| CliError(format!("unknown perf suite {name:?}")))?;
        let path = out_dir.join(format!("BENCH_{name}.json"));
        snap.write(&path).map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        for m in &snap.metrics {
            writeln!(
                w,
                "{name:<10} {:<44} {:>10} {} (median of {reps})",
                m.id,
                format_rate(m.value),
                m.unit
            )?;
        }
        writeln!(w, "wrote {}", path.display())?;
    }
    Ok(())
}

fn load_snapshot(path: &str) -> Result<PerfSnapshot, CliError> {
    PerfSnapshot::load(path).map_err(|e| CliError(format!("{path}: {e}")))
}

fn cmd_diff<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let baseline = load_snapshot(a.positional(2, "baseline.json")?)?;
    let candidate = load_snapshot(a.positional(3, "candidate.json")?)?;
    let tolerance: f64 = a.flag_or("tolerance", 0.15)?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(CliError("--tolerance must be non-negative".into()));
    }
    write!(w, "{}", diff_snapshots(&baseline, &candidate, tolerance).render_human())?;
    Ok(())
}

/// The `BENCH_*.json` files directly inside `dir`, sorted by file
/// name so gate output and failure order are deterministic.
fn baseline_files(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError(format!("cannot read {}: {e}", dir.display())))?;
    let mut out: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn cmd_gate<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let baseline_dir = PathBuf::from(a.str_flag_or("baseline-dir", "."));
    let candidate_dir = PathBuf::from(a.str_flag_or("candidate-dir", "target/perf"));
    let threshold: f64 = a.flag_or("threshold", 2.0)?;
    if !threshold.is_finite() || threshold <= 1.0 {
        return Err(CliError("--threshold must be > 1 (e.g. 2.0 = fail when 2x slower)".into()));
    }
    let tolerance = gate_tolerance(threshold);
    let baselines = baseline_files(&baseline_dir)?;
    if baselines.is_empty() {
        return Err(CliError(format!("no BENCH_*.json baselines in {}", baseline_dir.display())));
    }
    let mut failures: Vec<String> = Vec::new();
    for base_path in &baselines {
        let file_name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .map_or_else(|| "BENCH_?.json".to_owned(), str::to_owned);
        let cand_path = candidate_dir.join(&file_name);
        if !cand_path.is_file() {
            writeln!(w, "{file_name}: missing candidate snapshot {}", cand_path.display())?;
            failures.push(format!("{file_name}: candidate snapshot missing"));
            continue;
        }
        let baseline = load_snapshot(&base_path.to_string_lossy())?;
        let candidate = load_snapshot(&cand_path.to_string_lossy())?;
        let report = diff_snapshots(&baseline, &candidate, tolerance);
        write!(w, "{}", report.render_human())?;
        for row in report.gate_failures() {
            failures.push(format!("{}: {} {}", file_name, row.id, row.status.token()));
        }
    }
    if failures.is_empty() {
        writeln!(
            w,
            "perf gate: ok ({} baseline snapshot(s), threshold {threshold}x)",
            baselines.len()
        )?;
        return Ok(());
    }
    for f in &failures {
        writeln!(w, "perf gate failure: {f}")?;
    }
    Err(CliError(format!(
        "perf gate: {} failure(s) against {} baseline snapshot(s) (threshold {threshold}x)",
        failures.len(),
        baselines.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_flags;
    use crate::commands::run_command;

    fn args(v: &[&str]) -> ParsedArgs {
        parse_flags(v.iter().map(std::string::ToString::to_string)).unwrap()
    }

    fn run(v: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run_command(&args(v), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gvc-perf-tests-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn unknown_subcommand_and_missing_args_are_clean_errors() {
        let err = run(&["perf"]).unwrap_err();
        assert!(err.0.contains("snapshot|diff|gate"), "{}", err.0);
        let err = run(&["perf", "explode"]).unwrap_err();
        assert!(err.0.contains("unknown perf subcommand"), "{}", err.0);
        let err = run(&["perf", "diff", "/nonexistent/a.json", "/nonexistent/b.json"]).unwrap_err();
        assert!(err.0.contains("a.json"), "{}", err.0);
    }

    #[test]
    fn snapshot_validates_knobs() {
        for reps in ["0", "1001", "18446744073709551615"] {
            let err = run(&["perf", "snapshot", "--reps", reps]).unwrap_err();
            assert!(err.0.contains("--reps"), "{reps}: {}", err.0);
        }
        for scale in ["-1", "NaN", "21475", "1e300"] {
            let err = run(&["perf", "snapshot", "--scale", scale]).unwrap_err();
            assert!(err.0.contains("--scale"), "{scale}: {}", err.0);
        }
        let err = run(&["perf", "snapshot", "--only", "kernel,warp"]).unwrap_err();
        assert!(err.0.contains("unknown suite"), "{}", err.0);
        for only in [",", ""] {
            let err = run(&["perf", "snapshot", "--only", only]).unwrap_err();
            assert!(err.0.contains("--only names no suite"), "{only:?}: {}", err.0);
        }
    }

    #[test]
    fn gate_validates_threshold_and_empty_baseline_dir() {
        let dir = tmpdir("gate-empty");
        let d = dir.to_string_lossy().into_owned();
        let err = run(&["perf", "gate", "--baseline-dir", &d, "--threshold", "1.0"]).unwrap_err();
        assert!(err.0.contains("--threshold"), "{}", err.0);
        let err = run(&["perf", "gate", "--baseline-dir", &d]).unwrap_err();
        assert!(err.0.contains("no BENCH_*.json baselines"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_diff_gate_round_trip_detects_injected_slowdown() {
        let base = tmpdir("gate-base");
        let cand = tmpdir("gate-cand");
        let (base_s, cand_s) =
            (base.to_string_lossy().into_owned(), cand.to_string_lossy().into_owned());
        // Tiny snapshot so the test stays fast; one suite is enough.
        let out = run(&[
            "perf",
            "snapshot",
            "--out-dir",
            &base_s,
            "--reps",
            "2",
            "--scale",
            "0.01",
            "--only",
            "kernel",
        ])
        .unwrap();
        assert!(out.contains("kernel.schedule_pop.events_per_sec"), "{out}");
        assert!(out.contains("wrote"), "{out}");

        // A self-comparison passes the gate.
        std::fs::copy(base.join("BENCH_kernel.json"), cand.join("BENCH_kernel.json")).unwrap();
        let ok = run(&[
            "perf",
            "gate",
            "--baseline-dir",
            &base_s,
            "--candidate-dir",
            &cand_s,
            "--threshold",
            "2.0",
        ])
        .unwrap();
        assert!(ok.contains("perf gate: ok"), "{ok}");

        // Inject a 5x slowdown into the candidate: the diff flags the
        // metric and the gate goes non-zero.
        let mut slow = PerfSnapshot::load(base.join("BENCH_kernel.json")).unwrap();
        for m in &mut slow.metrics {
            m.value /= 5.0;
        }
        slow.write(cand.join("BENCH_kernel.json")).unwrap();
        let base_file = base.join("BENCH_kernel.json").to_string_lossy().into_owned();
        let cand_file = cand.join("BENCH_kernel.json").to_string_lossy().into_owned();
        let diff = run(&["perf", "diff", &base_file, &cand_file]).unwrap();
        assert!(diff.contains("regressed"), "{diff}");
        // The human table is the diff's only rendering.
        let argv = ["perf", "diff", &base_file, &cand_file, "--json"];
        let err = parse_flags(argv.iter().map(std::string::ToString::to_string)).unwrap_err();
        assert!(err.0.contains("--json requires a value"), "{}", err.0);
        let err = run(&[
            "perf",
            "gate",
            "--baseline-dir",
            &base_s,
            "--candidate-dir",
            &cand_s,
            "--threshold",
            "2.0",
        ])
        .unwrap_err();
        assert!(err.0.contains("perf gate"), "{}", err.0);

        // A vanished candidate file is also a gate failure.
        std::fs::remove_file(cand.join("BENCH_kernel.json")).unwrap();
        let err = run(&["perf", "gate", "--baseline-dir", &base_s, "--candidate-dir", &cand_s])
            .unwrap_err();
        assert!(err.0.contains("failure"), "{}", err.0);
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&cand).ok();
    }
}

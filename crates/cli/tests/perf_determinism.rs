//! Host-performance observability must be a pure observer: turning
//! `--perf` on must not change a single byte of simulation output,
//! and the snapshot → diff → gate pipeline must detect an injected
//! slowdown end to end.

use gvc_cli::{parse_flags, run_command, CliError};
use gvc_telemetry::perf::{PerfReport, PerfSnapshot};
use std::path::{Path, PathBuf};

fn run(v: &[&str]) -> Result<String, CliError> {
    let parsed = parse_flags(v.iter().map(std::string::ToString::to_string)).expect("parse argv");
    let mut out = Vec::new();
    run_command(&parsed, &mut out)?;
    Ok(String::from_utf8(out).expect("utf8"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gvc-perf-determinism-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The reproducible body of a trace file: everything except the
/// `run.manifest` line (wall-clock start stamp) and `kernel.event`
/// profiling samples (`wall_us` measures real handler time).
fn trace_body(path: &Path) -> String {
    std::fs::read_to_string(path)
        .expect("read trace")
        .lines()
        .skip(1)
        .filter(|l| !l.contains("\"kind\":\"kernel.event\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A faults-on, spans-on simulate run; `perf` adds `--perf` and
/// `--perf-out`. Returns (stdout, usage-log bytes, filtered trace).
fn simulate(dir: &Path, tag: &str, perf: bool) -> (String, Vec<u8>, String) {
    let log = dir.join(format!("{tag}.log"));
    let trace = dir.join(format!("{tag}.jsonl"));
    let perf_out = dir.join(format!("{tag}.perf.json"));
    let (log_s, trace_s, perf_s) = (
        log.to_string_lossy().into_owned(),
        trace.to_string_lossy().into_owned(),
        perf_out.to_string_lossy().into_owned(),
    );
    let mut argv = vec![
        "simulate",
        &log_s,
        "--seed",
        "7",
        "--jobs",
        "3",
        "--faults",
        "seed=1,fail-first=1",
        "--trace",
        &trace_s,
    ];
    if perf {
        argv.push("--perf");
        argv.push("--perf-out");
        argv.push(&perf_s);
    }
    let out = run(&argv).expect("simulate").replace(&log_s, "<out>");
    let log_bytes = std::fs::read(&log).expect("read log");
    let body = trace_body(&trace);
    (out, log_bytes, body)
}

#[test]
fn perf_flag_changes_no_simulation_output_byte() {
    let dir = tmpdir("byte-identical");
    let (plain_out, plain_log, plain_trace) = simulate(&dir, "plain", false);
    let (perf_out, perf_log, perf_trace) = simulate(&dir, "perf", true);

    // Identical usage log and identical reproducible trace body: the
    // profiler observed the run without perturbing it.
    assert_eq!(plain_log, perf_log, "--perf changed the usage log bytes");
    assert_eq!(plain_trace, perf_trace, "--perf changed the trace body");
    assert!(plain_trace.contains("\"kind\":\"fault.injected\""), "faults ran");
    assert!(plain_trace.contains("\"kind\":\"span.start\""), "spans ran");

    // The command output itself is unchanged except for the appended
    // perf report line.
    let report_line = perf_out.lines().find(|l| l.starts_with('{')).expect("perf report on stdout");
    let stripped: String =
        perf_out.lines().filter(|l| !l.starts_with('{')).map(|l| format!("{l}\n")).collect();
    assert_eq!(plain_out, stripped, "--perf changed the human output");

    // The report is parseable, names the simulate phase, and the file
    // copy round-trips through the same schema.
    let report = PerfReport::parse(report_line).expect("parse stdout report");
    assert!(report.phases.iter().any(|p| p.name == "simulate"), "{report:?}");
    assert!(report.phases.iter().any(|p| p.name == "report_emission"), "{report:?}");
    let sim = report.phases.iter().find(|p| p.name == "simulate").expect("simulate phase");
    assert!(sim.items > 0, "simulate phase counts kernel events + completions");
    assert!(sim.per_sec > 0.0);
    assert!(report.total_seconds > 0.0);
    let file_report = PerfReport::parse(
        &std::fs::read_to_string(dir.join("perf.perf.json")).expect("perf-out file"),
    )
    .expect("parse perf-out report");
    assert_eq!(file_report.phases.len(), report.phases.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_families_appear_in_metric_exposition() {
    let dir = tmpdir("families");
    let log = dir.join("m.log").to_string_lossy().into_owned();
    let out = run(&["simulate", &log, "--seed", "7", "--jobs", "2", "--perf", "--metrics"])
        .expect("simulate");
    for family in [
        "# TYPE perf_phase_seconds histogram",
        "# TYPE perf_events_per_second gauge",
        "# TYPE perf_peak_rss_bytes gauge",
        "# TYPE perf_allocations_total counter",
        "# TYPE perf_allocated_bytes_total counter",
    ] {
        assert!(out.contains(family), "exposition missing {family:?}:\n{out}");
    }
    assert!(out.contains("perf_phase_seconds_bucket{phase=\"simulate\""), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_and_trace_commands_record_their_phases() {
    let dir = tmpdir("phases");
    let log = dir.join("gen.log").to_string_lossy().into_owned();
    let out = run(&["generate", "ncar", &log, "--scale", "0.02", "--seed", "7", "--perf"])
        .expect("generate");
    let report_line = out.lines().find(|l| l.starts_with('{')).expect("perf report");
    let report = PerfReport::parse(report_line).expect("parse");
    let gen = report
        .phases
        .iter()
        .find(|p| p.name == "workload_generation")
        .expect("workload_generation phase");
    assert!(gen.items > 0, "generation counts records: {report:?}");
    assert!(report.phases.iter().any(|p| p.name == "report_emission"), "{report:?}");

    // Trace analysis: profile a simulate trace with --perf on.
    let sim_log = dir.join("t.log").to_string_lossy().into_owned();
    let trace = dir.join("t.jsonl").to_string_lossy().into_owned();
    run(&["simulate", &sim_log, "--seed", "7", "--jobs", "2", "--trace", &trace])
        .expect("simulate");
    let out = run(&["trace", "profile", &trace, "--perf"]).expect("trace profile");
    let report_line = out.lines().find(|l| l.starts_with('{')).expect("perf report");
    let report = PerfReport::parse(report_line).expect("parse");
    let phase =
        report.phases.iter().find(|p| p.name == "trace_analysis").expect("trace_analysis phase");
    assert!(phase.items > 0, "analysis counts trace records: {report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_then_gate_passes_end_to_end() {
    let dir = tmpdir("e2e");
    let base = dir.join("base").to_string_lossy().into_owned();
    let cand = dir.join("cand").to_string_lossy().into_owned();
    for d in [&base, &cand] {
        run(&["perf", "snapshot", "--out-dir", d, "--reps", "2", "--scale", "0.01"])
            .expect("snapshot");
    }
    // The standard suites landed, with the shared schema.
    for name in ["kernel", "sweep", "analysis", "tidy"] {
        let snap = PerfSnapshot::load(dir.join("base").join(format!("BENCH_{name}.json")))
            .expect("load snapshot");
        assert_eq!(snap.name, name);
        assert!(!snap.metrics.is_empty());
        assert!(!snap.fingerprint.host.is_empty() || !snap.fingerprint.os.is_empty());
    }
    // Two same-host runs of the same workload pass a generous gate.
    let out = run(&[
        "perf",
        "gate",
        "--baseline-dir",
        &base,
        "--candidate-dir",
        &cand,
        "--threshold",
        "20.0",
    ])
    .expect("gate");
    assert!(out.contains("perf gate: ok"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_baselines_re_render_byte_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in ["analysis", "kernel", "net", "scenario", "sweep", "tidy"] {
        let text = std::fs::read_to_string(root.join(format!("BENCH_{name}.json")))
            .expect("read committed baseline");
        let snap = PerfSnapshot::parse(&text).expect("parse committed baseline");
        assert_eq!(snap.to_json(), text, "BENCH_{name}.json does not round-trip");
    }
}

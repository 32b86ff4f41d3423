//! Host-performance observability must be a pure observer: turning
//! `--perf` on must not change a single byte of simulation output,
//! `gvc perf diff` must read what `--perf-out` writes, and the
//! snapshot → diff → gate pipeline must detect an injected slowdown
//! end to end.

use gvc_cli::{parse_flags, run_command, CliError};
use gvc_telemetry::perf::PerfSnapshot;
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

/// Splits a command's stdout into the output without the `--perf`
/// snapshot block (a multi-line JSON object) and that snapshot.
fn split_perf(out: &str) -> (String, PerfSnapshot) {
    let start = out.find("{\n  \"schema\"").expect("perf snapshot on stdout");
    let len = out[start..].find("\n}\n").expect("snapshot block closes") + "\n}\n".len();
    let block = &out[start..start + len];
    let snapshot = PerfSnapshot::parse(block).expect("parse stdout snapshot");
    (format!("{}{}", &out[..start], &out[start + len..]), snapshot)
}

/// The item count on `snap`'s `phase.<name>.seconds` row; panics
/// when the phase was not recorded.
fn phase_items(snap: &PerfSnapshot, name: &str) -> u64 {
    snap.metric(&format!("phase.{name}.seconds"))
        .unwrap_or_else(|| panic!("no {name} phase in {snap:?}"))
        .items
}

/// The reproducible body of a trace file: everything except the
/// `run.manifest` line (wall-clock start stamp).
fn trace_body(path: &Path) -> String {
    std::fs::read_to_string(path)
        .expect("read trace")
        .lines()
        .skip(1)
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
    // perf snapshot block.
    let (stripped, report) = split_perf(&perf_out);
    assert_eq!(plain_out, stripped, "--perf changed the human output");

    // The snapshot names the command, holds the simulate, fairshare
    // and report_emission phases, and the file copy is the same schema.
    assert_eq!((report.name.as_str(), report.reps), ("simulate", 1));
    assert!(phase_items(&report, "simulate") > 0, "simulate counts kernel events + completions");
    let solves = plain_trace.matches("\"kind\":\"net.fairshare\"").count() as u64;
    assert!(solves > 0);
    assert_eq!(phase_items(&report, "fairshare"), solves, "one fairshare item per solve");
    phase_items(&report, "report_emission");
    let rate = report.metric("phase.simulate.items_per_sec").expect("simulate rate");
    assert!(rate.value > 0.0 && rate.higher_is_better);
    assert!(report.metric("run.total_seconds").is_some_and(|m| m.value > 0.0));
    let file_report = PerfSnapshot::load(dir.join("perf.perf.json")).expect("perf-out file");
    let ids = |s: &PerfSnapshot| s.metrics.iter().map(|m| m.id.clone()).collect::<Vec<_>>();
    assert_eq!(ids(&file_report), ids(&report));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_and_trace_commands_record_their_phases() {
    let dir = tmpdir("phases");
    let log = dir.join("gen.log").to_string_lossy().into_owned();
    let out = run(&["generate", "ncar", &log, "--scale", "0.02", "--seed", "7", "--perf"])
        .expect("generate");
    let (_, report) = split_perf(&out);
    assert_eq!(report.name, "generate");
    assert!(phase_items(&report, "workload_generation") > 0, "generation counts records");
    phase_items(&report, "report_emission");

    // Log analysis: parsing the log is its own phase, counting records.
    for command in ["summary", "sweep"] {
        let out = run(&[command, &log, "--perf"]).expect(command);
        let (_, report) = split_perf(&out);
        assert_eq!(report.name, command);
        assert!(phase_items(&report, "log_load") > 0, "{command} log_load counts records");
    }

    // Trace analysis: profile a simulate trace with --perf on.
    let sim_log = dir.join("t.log").to_string_lossy().into_owned();
    let trace = dir.join("t.jsonl").to_string_lossy().into_owned();
    run(&["simulate", &sim_log, "--seed", "7", "--jobs", "2", "--trace", &trace])
        .expect("simulate");
    let out = run(&["trace", "profile", &trace, "--perf"]).expect("trace profile");
    let (_, report) = split_perf(&out);
    assert!(phase_items(&report, "trace_analysis") > 0, "analysis counts trace records");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_reads_two_simulate_perf_out_files() {
    let dir = tmpdir("diff");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for tag in ["a", "b"] {
        let (log, perf) = (path(&format!("{tag}.log")), path(&format!("{tag}.json")));
        run(&["simulate", &log, "--seed", "7", "--jobs", "2", "--perf-out", &perf])
            .expect("simulate");
    }
    let snap = PerfSnapshot::load(path("a.json")).expect("perf-out is a snapshot");
    let phase_ids: Vec<&str> =
        snap.metrics.iter().map(|m| m.id.as_str()).filter(|id| id.starts_with("phase.")).collect();
    assert!(phase_ids.contains(&"phase.simulate.seconds"), "{phase_ids:?}");
    assert!(phase_ids.contains(&"phase.report_emission.seconds"), "{phase_ids:?}");

    let out = run(&["perf", "diff", &path("a.json"), &path("b.json")]).expect("perf diff exits 0");
    let row_ids: Vec<&str> = out
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|id| id.starts_with("phase."))
        .collect();
    assert_eq!(row_ids, phase_ids, "one diff row per recorded phase metric:\n{out}");
    assert!(!out.contains("missing_in"), "{out}");

    // Against a suite baseline the diff only warns that the names
    // differ: every row is unmatched and nothing fails.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let kernel = root.join("BENCH_kernel.json").to_string_lossy().into_owned();
    let out = run(&["perf", "diff", &kernel, &path("a.json")]).expect("perf diff exits 0");
    assert!(out.contains("warning: snapshot names differ: `kernel` vs `simulate`"), "{out}");
    assert!(out.contains("missing_in_candidate") && out.contains("missing_in_baseline"), "{out}");
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
    for name in ["kernel", "sweep", "analysis"] {
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
    for name in ["analysis", "idc", "kernel", "net", "scenario", "sweep"] {
        let text = std::fs::read_to_string(root.join(format!("BENCH_{name}.json")))
            .expect("read committed baseline");
        let snap = PerfSnapshot::parse(&text).expect("parse committed baseline");
        assert_eq!(snap.to_json(), text, "BENCH_{name}.json does not round-trip");
    }
}

//! Spawns the real `gvc` binary end to end: generate → summary →
//! sessions → anonymize → summary, through actual files and argv —
//! plus the global observability flags (`--trace`, `--metrics`).

use std::path::PathBuf;
use std::process::Command;

fn gvc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gvc"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gvc-bin-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn help_lists_commands_and_exits_zero() {
    let out = gvc().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for cmd in ["summary", "sessions", "suitability", "generate", "anonymize"] {
        assert!(err.contains(cmd), "help missing {cmd}: {err}");
    }
}

#[test]
fn no_args_exits_2() {
    let out = gvc().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_command_exits_1_with_message() {
    let out = gvc().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// A trace aimed at the output log is refused before the run, and no
/// file is left where the log was asked for.
#[test]
fn simulate_refuses_a_trace_at_the_log_path() {
    let same = tmp("same.log");
    let path = same.to_str().unwrap();
    let out =
        gvc().args(["simulate", path, "--jobs", "5", "--trace", path]).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("give each output its own path"), "{err}");
    assert!(!same.exists(), "a file was created at {path}");
}

/// Fault-plan times past the simulation clock are refused at parse
/// time with a typed error instead of panicking the driver.
#[test]
fn simulate_rejects_fault_times_past_the_sim_clock() {
    for (tag, plan) in [("flap", "flap=a->b@1e300+1"), ("preempt", "preempt-after=1e300")] {
        let log = tmp(&format!("huge-{tag}.log"));
        let out = gvc()
            .args(["simulate", log.to_str().unwrap(), "--seed", "7", "--jobs", "3"])
            .args(["--faults", plan])
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{plan}: {err}");
        assert!(err.contains("invalid fault spec"), "{plan}: {err}");
        assert!(!err.contains("panicked"), "{plan}: {err}");
    }
}

/// A flap on a link the study topology lacks (here a typo for
/// `kans-cr`) is refused by name before any work, instead of running
/// with the flap silently skipped; neither the log nor the trace is
/// created.
#[test]
fn simulate_refuses_a_flap_on_an_unknown_link() {
    let log = tmp("unknown-flap.log");
    let trace = tmp("unknown-flap.jsonl");
    let out = gvc()
        .args(["simulate", log.to_str().unwrap(), "--seed", "7", "--jobs", "3"])
        .args(["--faults", "seed=1,flap=denv-cr->kans@40+30*0.2"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("\"denv-cr->kans\""), "{err}");
    assert!(!log.exists(), "a log was written");
    assert!(!trace.exists(), "a trace was written");
}

/// A scenario spec whose flap names a link its topology lacks is
/// refused by name before `--trace` creates its file.
#[test]
fn scenario_run_refuses_a_flap_on_an_unknown_link_before_tracing() {
    let dir = tmp("unknown-flap-corpus");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = include_str!("../../../scenarios/maintenance-window.scn")
        .replace("chic-cr->nash-cr", "chic-cr->nash");
    std::fs::write(dir.join("maintenance-window.scn"), spec).expect("write spec");
    let trace = dir.join("run.jsonl");
    let out = gvc()
        .args(["scenario", "run", "maintenance-window", "--dir", dir.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("\"chic-cr->nash\""), "{err}");
    assert!(!trace.exists(), "a trace was written");
    std::fs::remove_dir_all(&dir).ok();
}

/// A horizon that is not positive or that the sim clock cannot hold
/// is refused by `simulate`, naming `--horizon`, instead of panicking.
#[test]
fn study_runs_reject_horizons_past_the_sim_clock() {
    let log = tmp("huge-horizon.log");
    let log = log.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["simulate", log, "--horizon", "1e300"],
        &["simulate", log, "--horizon", "0"],
        &["simulate", log, "--horizon", "inf"],
        &["simulate", log, "--horizon", "-1"],
    ];
    for args in cases {
        let out = gvc().args(*args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("--horizon"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A run without faults requests its circuit through the same
/// establishment routine as a faulted one, so `trace sessions` counts
/// the single attempt rather than reporting none.
#[test]
fn trace_sessions_counts_the_attempt_of_a_run_without_faults() {
    let log = tmp("plain-attempts.log");
    let trace = tmp("plain-attempts.jsonl");
    let out = gvc()
        .args(["simulate", log.to_str().unwrap(), "--seed", "7", "--jobs", "3"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = gvc().args(["trace", "sessions", trace.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let circuit_session = text.lines().find(|l| l.contains("session   0")).expect("session 0 row");
    assert!(circuit_session.contains("3 transfers, 1 attempts"), "{text}");
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn full_workflow_through_files() {
    let log = tmp("wf.log");
    let anon = tmp("wf-anon.log");

    // generate
    let out = gvc()
        .args(["generate", "ncar", log.to_str().unwrap(), "--scale", "0.02", "--seed", "9"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    // summary
    let out = gvc().args(["summary", log.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transfers"));
    assert!(stdout.contains("throughput"));

    // sessions
    let out =
        gvc().args(["sessions", log.to_str().unwrap(), "--gap", "60"]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sessions over"));

    // suitability
    let out = gvc().args(["suitability", log.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("suitable transfers"));

    // anonymize + summary of the anonymized copy
    let out = gvc()
        .args(["anonymize", log.to_str().unwrap(), anon.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = gvc().args(["summary", anon.to_str().unwrap()]).output().expect("spawn");
    assert!(String::from_utf8_lossy(&out.stdout).contains("anonymized remotes"));

    // anonymized copy cannot be sessionized
    let out = gvc().args(["sessions", anon.to_str().unwrap()]).output().expect("spawn");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 sessions"));

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&anon).ok();
}

/// One JSON value, whole line consumed: catches unescaped quotes,
/// truncated objects, and trailing junk.
fn assert_valid_json(line: &str) {
    gvc_telemetry::json::Json::parse(line)
        .unwrap_or_else(|e| panic!("invalid JSON ({e}): {line:?}"));
}

#[test]
fn simulate_with_trace_emits_valid_jsonl_with_all_namespaces() {
    let log = tmp("sim.log");
    let trace = tmp("sim.jsonl");
    let out = gvc()
        .args([
            "simulate",
            log.to_str().unwrap(),
            "--seed",
            "11",
            "--jobs",
            "4",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(!text.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert_valid_json(line);
        assert!(line.contains("\"t_us\":"), "{line}");
        assert!(line.contains("\"kind\":\""), "{line}");
        let kind = line.split("\"kind\":\"").nth(1).unwrap().split('"').next().unwrap();
        kinds.insert(kind.to_owned());
    }
    // First record is the manifest; the IDC and the fluid simulator
    // write their own kinds, and the kernel and the driver write spans.
    assert!(text.lines().next().unwrap().contains("run.manifest"));
    for prefix in ["idc.", "net.", "span."] {
        assert!(kinds.iter().any(|k| k.starts_with(prefix)), "no {prefix}* events in {kinds:?}");
    }
    for span in ["kernel.queue_wait", "session.run", "session.transfer"] {
        assert!(text.contains(&format!("\"name\":\"{span}\"")), "no {span} span");
    }
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn simulate_with_metrics_prints_exposition() {
    let log = tmp("metrics.log");
    let out = gvc()
        .args(["simulate", log.to_str().unwrap(), "--jobs", "2", "--metrics"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "# TYPE sim_events_dispatched_total counter",
        "idc_admitted_total",
        "gridftp_transfer_throughput_mbps_bucket{",
        "net_fairshare_recomputations_total",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
    std::fs::remove_file(&log).ok();
}

#[test]
fn analysis_command_accepts_global_flags() {
    let log = tmp("flags.log");
    let trace = tmp("flags.jsonl");
    let out = gvc()
        .args([
            "generate",
            "ncar",
            log.to_str().unwrap(),
            "--scale",
            "0.02",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "analysis commands emit only the manifest");
    assert_valid_json(lines[0]);
    assert!(lines[0].contains("\"tool\":\"generate\""));
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn help_lists_global_flags() {
    let out = gvc().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simulate"), "{err}");
    assert!(err.contains("--trace"), "{err}");
    assert!(err.contains("--metrics"), "{err}");
}

#[test]
fn determinism_across_processes() {
    let a = tmp("det-a.log");
    let b = tmp("det-b.log");
    for p in [&a, &b] {
        let out = gvc()
            .args(["generate", "slac", p.to_str().unwrap(), "--scale", "0.002", "--seed", "5"])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let ca = std::fs::read(&a).expect("read a");
    let cb = std::fs::read(&b).expect("read b");
    assert_eq!(ca, cb, "same seed must produce identical files");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

/// `sessions`, `suitability` and `sweep` share one parameter check:
/// gaps and setup delays finite and >= 0, the overhead factor finite
/// and > 0. A NaN gap used to group silently at g = 0, and
/// `suitability` accepted negative gaps and non-finite delays/factors.
#[test]
fn analysis_commands_reject_non_finite_and_negative_parameters() {
    let log = tmp("params.log");
    let out = gvc()
        .args(["generate", "ncar", log.to_str().unwrap(), "--scale", "0.02", "--seed", "1"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cases: &[(&[&str], &str)] = &[
        (&["sessions", "--gap", "nan"], "--gap"),
        (&["sessions", "--gap", "inf"], "--gap"),
        (&["sessions", "--gap", "-1"], "--gap"),
        (&["suitability", "--gap", "-5"], "--gap"),
        (&["suitability", "--gap", "nan"], "--gap"),
        (&["suitability", "--setup", "nan"], "--setup"),
        (&["suitability", "--setup", "-1"], "--setup"),
        (&["suitability", "--factor", "inf"], "--factor"),
        (&["suitability", "--factor", "0"], "--factor"),
        (&["sweep", "--gaps", "0,nan"], "--gaps"),
        (&["sweep", "--delays", "inf"], "--delays"),
        (&["sweep", "--factor", "nan"], "--factor"),
    ];
    for (args, flag) in cases {
        let (cmd, flags) = args.split_first().unwrap();
        let out = gvc().arg(cmd).arg(&log).args(flags).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    std::fs::remove_file(&log).ok();
}

//! Fault-plan scenarios tell exact stories: the maintenance-window
//! golden pins the full recovery ledger (retries, fallbacks, and zero
//! leaked reservations), and the interdomain chain proves multi-domain
//! teardown leaves nothing open.

use std::fs;
use std::path::{Path, PathBuf};

use gvc_scenario::{discover, run_scenario, CorpusEntry, ScenarioSpec};
use gvc_telemetry::Tracer;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn entry(name: &str) -> CorpusEntry {
    discover(&corpus_dir())
        .expect("scenario corpus must be discoverable")
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must stay in the corpus"))
}

/// One stat line of the form `key value`.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("stats must carry `{key}`:\n{stats}"))
}

/// A spec whose flap names a link its topology lacks (here the
/// maintenance window's flap with a typo) parses, but is refused by
/// name before the run instead of running with the flap skipped.
#[test]
fn a_flap_on_an_unknown_link_is_refused() {
    let text = fs::read_to_string(corpus_dir().join("maintenance-window.scn")).expect("read");
    let typo = text.replace("flap=chic-cr->nash-cr@", "flap=chic-cr->nash@");
    assert_ne!(typo, text, "the spec must carry the chic-cr->nash-cr flap");
    let spec = ScenarioSpec::parse(&typo).expect("the plan's grammar is valid");
    let Err(err) = run_scenario(&spec, Tracer::disabled_ref()) else {
        panic!("a flap on an unknown link must be refused");
    };
    assert!(err.to_string().contains("\"chic-cr->nash\""), "{err}");
}

#[test]
fn maintenance_window_storyline_is_exact() {
    let entry = entry("maintenance-window");
    assert!(entry.spec.fault_plan.is_some(), "maintenance-window must carry a fault plan");
    let outcome = run_scenario(&entry.spec, Tracer::disabled_ref()).expect("run");
    assert!(outcome.violations.is_empty(), "storyline bounds must hold: {:?}", outcome.violations);

    // The spec's [expect] section pins the whole recovery ledger; the
    // run's report must agree field-for-field.
    let r = outcome.report.resilience.expect("fault scenario must report resilience");
    let expect = &entry.spec.expect;
    assert_eq!(Some(r.vc_requested), expect.vc_requested);
    assert_eq!(Some(r.vc_established), expect.vc_established);
    assert_eq!(Some(r.faults_injected), expect.faults_injected);
    assert_eq!(Some(r.retries), expect.retries);
    assert_eq!(Some(r.fallbacks), expect.fallbacks);

    // The story has real adversity in it: flaky provisioning forced
    // retries, some sessions fell back to IP, and some circuits never
    // came up — but every reservation was torn down.
    assert!(r.faults_injected > 0, "the maintenance window must inject faults");
    assert!(r.retries > 0, "flaky provisioning must force retries");
    assert!(r.fallbacks > 0, "exhausted sessions must fall back to IP");
    assert!(r.vc_established < r.vc_requested, "some circuits must fail outright");
    assert!(r.vc_established > 0, "recovery must still land most circuits");
    assert_eq!(stat(&outcome.stats_text, "resilience_preemptions"), 0);
    assert_eq!(
        stat(&outcome.stats_text, "open_reservations"),
        0,
        "a completed run must leak no reservations"
    );

    // And the committed golden carries the same ledger, so drift in
    // fault injection or recovery fails CI with a diff, not silently.
    let golden = fs::read_to_string(corpus_dir().join("goldens/maintenance-window/stats.txt"))
        .expect("maintenance-window stats golden");
    assert_eq!(stat(&golden, "resilience_retries"), r.retries);
    assert_eq!(stat(&golden, "resilience_fallbacks"), r.fallbacks);
    assert_eq!(stat(&golden, "resilience_faults"), r.faults_injected);
    assert_eq!(stat(&golden, "open_reservations"), 0);
}

/// The same fault plan replayed with the same seed tells the same
/// story — fault injection rides the deterministic event order.
#[test]
fn maintenance_window_storyline_replays_identically() {
    let entry = entry("maintenance-window");
    let a = run_scenario(&entry.spec, Tracer::disabled_ref()).expect("run");
    let b = run_scenario(&entry.spec, Tracer::disabled_ref()).expect("run");
    assert_eq!(a.stats_text, b.stats_text);
    assert_eq!(a.report_json, b.report_json);
}

#[test]
fn interdomain_chain_closes_every_reservation() {
    let entry = entry("interdomain-chain");
    let outcome = run_scenario(&entry.spec, Tracer::disabled_ref()).expect("run");
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(
        stat(&outcome.stats_text, "interdomain_requested"),
        stat(&outcome.stats_text, "interdomain_established"),
        "the scripted chain probe must establish every circuit"
    );
    assert_eq!(stat(&outcome.stats_text, "interdomain_blocked"), 0);
    assert_eq!(
        stat(&outcome.stats_text, "interdomain_open_after"),
        0,
        "multi-domain teardown must close every per-domain reservation"
    );
    assert_eq!(stat(&outcome.stats_text, "open_reservations"), 0);
}

/// A traced run writes the session-level record `gvc trace` reads,
/// and tracing changes no golden: the sessions' rows add up to the
/// run's recovery ledger.
#[test]
fn maintenance_window_traces_every_session() {
    use gvc_telemetry::{BufferSink, CheckConfig, TraceModel};
    use std::sync::Arc;

    let entry = entry("maintenance-window");
    let sink = Arc::new(BufferSink::new());
    let traced = run_scenario(&entry.spec, &Tracer::to_sink(sink.clone())).expect("run");
    let plain = run_scenario(&entry.spec, Tracer::disabled_ref()).expect("run");
    assert_eq!(traced.report_json, plain.report_json);
    assert_eq!(traced.stats_text, plain.stats_text);
    assert_eq!(traced.timeline_json, plain.timeline_json);

    let text: String = sink.take().iter().map(|e| e.to_json() + "\n").collect();
    let model = TraceModel::from_text(&text).expect("trace parses");
    let check = gvc_telemetry::check(&model, &CheckConfig::default());
    assert!(check.clean(), "{:?}", check.violations);
    let rows = gvc_telemetry::sessions(&model);
    let r = plain.report.resilience.expect("fault scenario must report resilience");
    assert_eq!(rows.len() as u64, r.vc_requested, "every session requests a circuit");
    assert_eq!(rows.iter().filter(|row| row.fallback).count() as u64, r.fallbacks);
    // Each retry is one more attempt than the session's last.
    assert_eq!(rows.iter().map(|row| row.attempts).sum::<u64>(), r.retries + r.vc_requested);
}

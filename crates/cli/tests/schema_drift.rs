//! Schema-drift meta-test: the trace schema documented in
//! `docs/observability.md` must stay in lockstep with what the code
//! actually emits.
//!
//! Three instrumented `gvc simulate` runs (one retry-heavy, one
//! forced onto the IP fallback path, one without faults) together
//! exercise every span name in the driver path. The test then asserts:
//!
//! * every emitted event `kind` appears in the documented kind table,
//!   and no kind whose fact moved onto a span is emitted;
//! * the emitted span-name set equals the documented
//!   "Span names (`gvc simulate`)" table exactly — a new or renamed
//!   span without a docs row fails, and so does a documented span the
//!   simulation no longer produces;
//! * the run without faults requests its circuit through the same
//!   `vc.attempt` span as the faulted runs.
//!
//! A `--perf` run's snapshot ids must match `docs/perf.md`'s metric-id
//! table, and `--perf` must add no family to the metric exposition.

use gvc_cli::{parse_flags, run_command};
use std::collections::BTreeSet;

fn tmpfile(name: &str) -> String {
    let dir = std::env::temp_dir().join("gvc-schema-drift");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p.to_string_lossy().into_owned()
}

/// Run `gvc simulate` in-process, with `--faults` when given, and
/// return the (kinds, span names) observed in its trace file.
fn simulate(tag: &str, faults: Option<&str>) -> (BTreeSet<String>, BTreeSet<String>) {
    let log = tmpfile(&format!("{tag}.log"));
    let trace = tmpfile(&format!("{tag}.jsonl"));
    let mut argv = vec!["simulate", &log, "--seed", "7", "--jobs", "3", "--trace", &trace];
    if let Some(spec) = faults {
        argv.extend(["--faults", spec]);
    }
    let parsed =
        parse_flags(argv.iter().map(std::string::ToString::to_string)).expect("parse argv");
    let mut out = Vec::new();
    run_command(&parsed, &mut out).expect("simulate");

    let text = std::fs::read_to_string(&trace).expect("read trace");
    let records = gvc_telemetry::parse_trace(&text).expect("well-formed trace");
    let mut kinds = BTreeSet::new();
    let mut spans = BTreeSet::new();
    for r in &records {
        kinds.insert(r.kind.clone());
        if r.kind == "span.start" {
            spans.insert(r.text("name").expect("span.start has a name").to_string());
        }
    }
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&trace).ok();
    (kinds, spans)
}

/// First-column backticked names of the markdown table rows in the
/// section whose heading contains `heading`, up to the next heading.
fn documented(doc: &str, heading: &str, dotted_only: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_section = false;
    for line in doc.lines() {
        if line.starts_with('#') {
            in_section = line.contains(heading);
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some(rest) = line.strip_prefix("| `") {
            if let Some(name) = rest.split('`').next() {
                if !dotted_only || name.contains('.') {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

#[test]
fn emitted_trace_schema_matches_the_documentation() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/observability.md");

    let kinds_doc = documented(&doc, "Trace event schema", true);
    let spans_doc = documented(&doc, "Span names (`gvc simulate`)", true);
    assert!(kinds_doc.len() >= 11, "kind table parsed: {kinds_doc:?}");
    assert!(!spans_doc.is_empty(), "simulate span table parsed");

    // fail-first=1 exercises retry + established (vc.attempt, vc.backoff,
    // circuit.lifetime, idc.setup); fail-first=100 forces the fallback
    // path (session.fallback); the plain run takes the single-attempt
    // policy. Union covers every driver span name.
    let (k1, s1) = simulate("retry", Some("seed=1,fail-first=1"));
    let (k2, s2) = simulate("fallback", Some("seed=1,fail-first=100"));
    let (k3, s3) = simulate("plain", None);
    assert!(
        s3.contains("session.vc_setup") && s3.contains("vc.attempt"),
        "a run without faults must request its circuit through vc.attempt: {s3:?}"
    );
    let kinds: BTreeSet<String> = k1.iter().chain(&k2).chain(&k3).cloned().collect();
    let spans: BTreeSet<String> = s1.iter().chain(&s2).chain(&s3).cloned().collect();

    for k in &kinds {
        assert!(
            kinds_doc.contains(k),
            "kind {k:?} is emitted but missing from the docs/observability.md kind table"
        );
    }
    assert!(kinds.contains("span.start") && kinds.contains("span.end"));
    // Each of these repeated a fact a span already carries (the
    // `recovery.*` kinds: the `vc.attempt`, `vc.backoff` and
    // `session.vc_setup` spans), or (`kernel.event`) a wall-clock
    // sample the `sim_event_handle_seconds` histogram already holds;
    // none may come back.
    for gone in [
        "transfer.session_start",
        "transfer.start",
        "transfer.complete",
        "transfer.session_complete",
        "idc.provision",
        "kernel.event",
        "recovery.retry",
        "recovery.established",
        "recovery.fallback",
        "recovery.giveup",
    ] {
        assert!(!kinds.contains(gone), "{gone} is emitted again");
    }

    assert_eq!(
        spans, spans_doc,
        "span names emitted by `gvc simulate --faults` must match the \
         \"Span names (`gvc simulate`)\" table in docs/observability.md"
    );
}

/// Runs `gvc simulate --timeline` in-process and returns the base
/// names (instance suffix stripped) of every recorded series.
fn timeline_base_names(tag: &str, faults: &str) -> BTreeSet<String> {
    let log = tmpfile(&format!("{tag}.log"));
    let tl = tmpfile(&format!("{tag}.timeline.json"));
    let argv =
        ["simulate", &log, "--seed", "7", "--jobs", "3", "--faults", faults, "--timeline", &tl];
    let parsed =
        parse_flags(argv.iter().map(std::string::ToString::to_string)).expect("parse argv");
    let mut out = Vec::new();
    run_command(&parsed, &mut out).expect("simulate");
    let text = std::fs::read_to_string(&tl).expect("read timeline");
    let doc = gvc_telemetry::TimelineDoc::parse(&text).expect("well-formed timeline");
    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&tl).ok();
    doc.series.iter().map(|s| s.base_name().to_string()).collect()
}

#[test]
fn recorded_timeline_series_match_the_documentation() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/observability.md");
    let series_doc = documented(&doc, "Timeline series", true);

    // The docs table, the series registry, and what an instrumented
    // run actually records must be the same set: a new series without
    // a docs row fails, and so does a documented series no run
    // produces.
    let registry: BTreeSet<String> =
        gvc_telemetry::timeline::series::ALL.iter().map(|s| (*s).to_string()).collect();
    assert_eq!(
        series_doc, registry,
        "the \"Timeline series\" table in docs/observability.md must match \
         gvc_telemetry::timeline::series::ALL"
    );

    // fail-first=1 exercises retry + establishment (driver.vc_setup,
    // driver.retries); fail-first=100 forces the IP fallback
    // (driver.fallbacks). Union covers every registered series.
    let retry = timeline_base_names("tl-retry", "seed=1,fail-first=1");
    let fallback = timeline_base_names("tl-fallback", "seed=1,fail-first=100");
    let recorded: BTreeSet<String> = retry.union(&fallback).cloned().collect();
    assert_eq!(
        recorded, registry,
        "series recorded by `gvc simulate --timeline --faults` must match \
         gvc_telemetry::timeline::series::ALL"
    );
}

/// Stdout of an in-process `gvc simulate --seed 7 --jobs 2` run with
/// the extra flags in `extra`.
fn simulate_stdout(tag: &str, extra: &[&str]) -> String {
    let log = tmpfile(&format!("{tag}.log"));
    let mut argv = vec!["simulate", &log, "--seed", "7", "--jobs", "2"];
    argv.extend(extra);
    let parsed =
        parse_flags(argv.iter().map(std::string::ToString::to_string)).expect("parse argv");
    let mut out = Vec::new();
    run_command(&parsed, &mut out).expect("simulate");
    std::fs::remove_file(&log).ok();
    String::from_utf8(out).expect("utf8")
}

/// The family names of an exposition's `# TYPE` lines.
fn type_families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Does snapshot metric `id` match documented row `row`? A row
/// holding `<phase>` stands for any one phase name.
fn id_matches(row: &str, id: &str) -> bool {
    match row.split_once("<phase>") {
        None => row == id,
        Some((prefix, suffix)) => id
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .is_some_and(|phase| !phase.is_empty() && !phase.contains('.')),
    }
}

/// The perf metrics a `--perf` run emits are the ids of its snapshot,
/// not metric families: they must match `docs/perf.md`'s metric-id
/// table, and the exposition must hold the same families without
/// `--perf` as with it.
#[test]
fn emitted_perf_families_match_the_documentation() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/perf.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/perf.md");
    let rows = documented(&doc, "Profiling a run", false);
    assert!(rows.iter().any(|r| r.contains("<phase>")), "metric-id table parsed: {rows:?}");

    // The snapshot block `--perf` prints ahead of the exposition.
    let out = simulate_stdout("perf-ids", &["--perf", "--metrics"]);
    let start = out.find("{\n  \"schema\"").expect("perf snapshot on stdout");
    let len = out[start..].find("\n}\n").expect("snapshot block closes") + "\n}\n".len();
    let snapshot =
        gvc_telemetry::PerfSnapshot::parse(&out[start..start + len]).expect("parse snapshot");

    // Every id the snapshot holds has a row, and every row is held,
    // except the RSS row on a host without procfs.
    for m in &snapshot.metrics {
        assert!(
            rows.iter().any(|r| id_matches(r, &m.id)),
            "snapshot id {} has no row in docs/perf.md's metric-id table",
            m.id
        );
    }
    let rss = gvc_telemetry::perf::peak_rss_bytes().is_some();
    for row in rows.iter().filter(|r| rss || *r != "run.peak_rss_bytes") {
        assert!(
            snapshot.metrics.iter().any(|m| id_matches(row, &m.id)),
            "docs/perf.md row {row} matches no id of a `simulate --perf` snapshot"
        );
    }

    // `--perf` adds nothing to the metric exposition.
    let plain = simulate_stdout("perf-plain", &["--metrics"]);
    assert_eq!(
        type_families(&out),
        type_families(&plain),
        "`simulate --perf --metrics` and `simulate --metrics` must expose the same families"
    );
}

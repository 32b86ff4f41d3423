//! The golden gate itself: every committed scenario golden matches a
//! fresh run byte-for-byte, and the diff
//! machinery that reports drift does so with line-level precision.

use std::fs;
use std::path::{Path, PathBuf};

use gvc_scenario::spec::WorkloadSpec;
use gvc_scenario::{discover, line_diff, run_scenario};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

// --- diff semantics -------------------------------------------------

#[test]
fn identical_texts_produce_no_diff() {
    assert_eq!(line_diff("a\nb\n", "a\nb\n"), None);
    assert_eq!(line_diff("", ""), None);
}

#[test]
fn perturbed_report_fails_with_line_level_diff() {
    let expected = "{\n  \"n_transfers\": 29,\n  \"degenerate_records\": 0\n}\n";
    let actual = "{\n  \"n_transfers\": 30,\n  \"degenerate_records\": 0\n}\n";
    let diff = line_diff(expected, actual).expect("perturbation must be reported");
    assert!(diff.starts_with("1 line(s) differ (expected 4 lines, got 4)"), "{diff}");
    assert!(diff.contains("line 2:"), "{diff}");
    assert!(diff.contains("    - "), "{diff}");
    assert!(diff.contains("    + "), "{diff}");
    assert!(diff.contains("29"), "{diff}");
    assert!(diff.contains("30"), "{diff}");
}

#[test]
fn added_and_removed_lines_are_reported_with_counts() {
    let diff = line_diff("a\nb\n", "a\n").expect("dropped line must be reported");
    assert!(diff.starts_with("1 line(s) differ (expected 2 lines, got 1)"), "{diff}");
    assert!(diff.contains("    - b"), "{diff}");
    assert!(!diff.contains("    + b"), "{diff}");
}

#[test]
fn trailing_newline_drift_is_still_a_failure() {
    let diff = line_diff("a\nb\n", "a\nb").expect("byte drift must be reported");
    assert!(diff.contains("line endings or a trailing newline"), "{diff}");
}

#[test]
fn long_diffs_are_elided_after_ten_lines() {
    let expected: String = (0..30).map(|i| format!("row {i}\n")).collect();
    let actual: String = (0..30).map(|i| format!("row {}\n", i + 100)).collect();
    let diff = line_diff(&expected, &actual).expect("every line differs");
    assert!(diff.starts_with("30 line(s) differ"), "{diff}");
    assert!(diff.contains("… 20 more differing line(s)"), "{diff}");
}

// --- the corpus gate ------------------------------------------------

/// Every committed golden is reproduced byte-exactly by a fresh run.
#[test]
fn corpus_goldens_match() {
    let dir = corpus_dir();
    let entries = discover(&dir).expect("scenario corpus must be discoverable");
    assert!(entries.len() >= 8, "corpus shrank to {} specs", entries.len());
    for entry in entries {
        let golden_dir = dir.join("goldens").join(&entry.name);
        let want_report = fs::read_to_string(golden_dir.join("report.json"))
            .unwrap_or_else(|e| panic!("{}: missing golden report.json: {e}", entry.name));
        let want_stats = fs::read_to_string(golden_dir.join("stats.txt"))
            .unwrap_or_else(|e| panic!("{}: missing golden stats.txt: {e}", entry.name));
        let run =
            run_scenario(&entry.spec).unwrap_or_else(|e| panic!("{}: run failed: {e}", entry.name));
        if let Some(diff) = line_diff(&want_report, &run.report_json) {
            panic!("{}: report.json drifted from golden:\n{diff}", entry.name);
        }
        if let Some(diff) = line_diff(&want_stats, &run.stats_text) {
            panic!("{}: stats.txt drifted from golden:\n{diff}", entry.name);
        }
        assert!(
            run.violations.is_empty(),
            "{}: bound violations: {:?}",
            entry.name,
            run.violations
        );
        // Paper-profile scenarios never drive the simulation (the
        // calibrated generators sample directly): no timeline.
        if matches!(entry.spec.workload, WorkloadSpec::Paper { .. }) {
            assert!(
                run.timeline_json.is_none(),
                "{}: paper profiles must not produce a timeline",
                entry.name
            );
            continue;
        }
        // Synthetic scenarios also commit the sim-time flight
        // recorder as a third golden.
        let want_timeline = fs::read_to_string(golden_dir.join("timeline.json"))
            .unwrap_or_else(|e| panic!("{}: missing golden timeline.json: {e}", entry.name));
        let timeline = run
            .timeline_json
            .as_deref()
            .unwrap_or_else(|| panic!("{}: synthetic run produced no timeline", entry.name));
        if let Some(diff) = line_diff(&want_timeline, timeline) {
            panic!("{}: timeline.json drifted from golden:\n{diff}", entry.name);
        }
    }
}

/// A perturbed golden is caught: flipping one byte of a recorded
/// report produces a failing, line-addressed diff against a fresh run.
#[test]
fn corpus_catches_a_perturbed_golden() {
    let dir = corpus_dir();
    let entries = discover(&dir).expect("scenario corpus must be discoverable");
    let entry = entries
        .iter()
        .find(|e| e.name == "metro-ring")
        .expect("metro-ring must stay in the corpus");
    let golden =
        fs::read_to_string(dir.join("goldens/metro-ring/report.json")).expect("golden report.json");
    let run = run_scenario(&entry.spec).expect("run");
    assert_eq!(line_diff(&golden, &run.report_json), None, "golden must match before perturbing");
    let perturbed = golden.replacen("\"n_transfers\":", "\"n_transfers\":  ", 1);
    assert_ne!(perturbed, golden, "perturbation must change the text");
    let diff = line_diff(&perturbed, &run.report_json).expect("perturbed golden must fail");
    assert!(diff.contains("n_transfers"), "diff should point at the changed line:\n{diff}");
}

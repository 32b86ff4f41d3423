//! `gvc scenario <run|record|diff|list>`: the declarative scenario
//! corpus with golden-output regression gating.
//!
//! * `list` — enumerate the corpus (name, profile, golden status);
//! * `run` — execute specs and hold their outputs against the
//!   committed goldens byte-exactly (report JSON + headline stats)
//!   plus the spec's expectation bounds; any mismatch is an error;
//! * `diff` — byte-compare only (no bound checks), for inspection;
//! * `record` — regenerate and overwrite goldens after an intentional
//!   behaviour change.
//!
//! Scenario outputs are byte-identical per seed, so the goldens gate
//! both behaviour and the kernel's determinism contract.

use std::io::Write;
use std::path::{Path, PathBuf};

use gvc_scenario::corpus::{self, CorpusEntry};
use gvc_scenario::spec::WorkloadSpec;
use gvc_scenario::{golden, run_scenario};
use gvc_telemetry::Telemetry;

use crate::args::{CliError, ParsedArgs};

fn corpus_dir(a: &ParsedArgs) -> PathBuf {
    PathBuf::from(a.str_flag_or("dir", "scenarios"))
}

/// The scenarios named on the command line: the whole corpus under
/// `--all`, else the single positional name.
fn select(a: &ParsedArgs, dir: &Path) -> Result<Vec<CorpusEntry>, CliError> {
    if a.bool_flag("all") {
        let entries = corpus::discover(dir).map_err(|e| CliError(e.to_string()))?;
        if entries.is_empty() {
            return Err(CliError(format!("no *.scn specs under {}", dir.display())));
        }
        return Ok(entries);
    }
    let name = a.positional(2, "name (or --all)")?;
    let path = dir.join(format!("{name}.scn"));
    if !path.exists() {
        let available = corpus::discover(dir)
            .map(|es| es.iter().map(|e| e.name.clone()).collect::<Vec<_>>())
            .unwrap_or_default();
        let hint = if available.is_empty() {
            format!("no *.scn specs under {}", dir.display())
        } else {
            format!("available: {}", available.join(", "))
        };
        return Err(CliError(format!("unknown scenario {name:?} ({hint})")));
    }
    Ok(vec![corpus::load(&path).map_err(|e| CliError(e.to_string()))?])
}

fn profile_label(spec: &gvc_scenario::ScenarioSpec) -> String {
    match &spec.workload {
        WorkloadSpec::Paper { profile, .. } => profile.token().to_string(),
        WorkloadSpec::Synthetic(wl) => wl.profile.token().to_string(),
    }
}

fn cmd_list<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let dir = corpus_dir(a);
    let entries = corpus::discover(&dir).map_err(|e| CliError(e.to_string()))?;
    if entries.is_empty() {
        writeln!(w, "no *.scn specs under {}", dir.display())?;
        return Ok(());
    }
    writeln!(w, "{:<24} {:<12} {:<8} description", "scenario", "profile", "golden")?;
    for e in &entries {
        let has_golden = corpus::golden_dir(&dir, &e.name).join("report.json").exists();
        writeln!(
            w,
            "{:<24} {:<12} {:<8} {}",
            e.name,
            profile_label(&e.spec),
            if has_golden { "yes" } else { "no" },
            e.spec.description
        )?;
    }
    Ok(())
}

/// Holds one run against its goldens; returns failure lines.
fn check_entry(
    dir: &Path,
    entry: &CorpusEntry,
    with_bounds: bool,
) -> Result<Vec<String>, CliError> {
    let outcome = run_scenario(&entry.spec).map_err(|e| CliError(e.to_string()))?;
    let goldens = corpus::read_goldens(dir, &entry.name).map_err(|e| {
        CliError(format!(
            "{e}\n  (no goldens for {:?}? record them with `gvc scenario record {}`)",
            entry.name, entry.name
        ))
    })?;
    let mut failures = Vec::new();
    if let Some(diff) = golden::line_diff(&goldens.report_json, &outcome.report_json) {
        failures.push(format!("{}: report.json: {diff}", entry.name));
    }
    if let Some(diff) = golden::line_diff(&goldens.stats_text, &outcome.stats_text) {
        failures.push(format!("{}: stats.txt: {diff}", entry.name));
    }
    match (&goldens.timeline_json, &outcome.timeline_json) {
        (Some(want), Some(got)) => {
            if let Some(diff) = golden::line_diff(want, got) {
                failures.push(format!("{}: timeline.json: {diff}", entry.name));
            }
        }
        (Some(_), None) => failures.push(format!(
            "{}: timeline.json: golden committed but the run produced no timeline",
            entry.name
        )),
        // No committed timeline: tolerated so corpora recorded before
        // the flight recorder (or paper profiles) still gate.
        (None, _) => {}
    }
    if with_bounds {
        for v in &outcome.violations {
            failures.push(format!("{}: bound: {v}", entry.name));
        }
    }
    Ok(failures)
}

pub fn cmd_scenario<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let action = a.positional(1, "run|record|diff|list")?.to_owned();
    if action == "list" {
        return cmd_list(a, w);
    }
    let dir = corpus_dir(a);
    let entries = select(a, &dir)?;
    let mut phase = telemetry.perf.phase("scenario_corpus");
    phase.items(entries.len() as u64);

    match action.as_str() {
        "record" => {
            for e in &entries {
                let outcome = run_scenario(&e.spec).map_err(|err| CliError(err.to_string()))?;
                for v in &outcome.violations {
                    writeln!(w, "warning: {}: bound: {v}", e.name)?;
                }
                let path = corpus::write_goldens(
                    &dir,
                    &e.name,
                    &outcome.report_json,
                    &outcome.stats_text,
                    outcome.timeline_json.as_deref(),
                )
                .map_err(|err| CliError(err.to_string()))?;
                writeln!(
                    w,
                    "recorded {} ({} transfers) -> {}",
                    e.name,
                    outcome.report.n_transfers,
                    path.display()
                )?;
            }
            Ok(())
        }
        "run" | "diff" => {
            let with_bounds = action == "run";
            let mut all_failures = Vec::new();
            for e in &entries {
                let failures = check_entry(&dir, e, with_bounds)?;
                if failures.is_empty() {
                    writeln!(w, "ok {}", e.name)?;
                } else {
                    writeln!(w, "FAIL {}", e.name)?;
                    for f in &failures {
                        writeln!(w, "  {f}")?;
                    }
                }
                all_failures.extend(failures);
            }
            if all_failures.is_empty() {
                writeln!(w, "{} scenario(s) match their goldens", entries.len())?;
                Ok(())
            } else {
                Err(CliError(format!(
                    "{} golden/bound failure(s) across {} scenario(s)",
                    all_failures.len(),
                    entries.len()
                )))
            }
        }
        other => {
            Err(CliError(format!("unknown scenario action {other:?} (want run|record|diff|list)")))
        }
    }
}

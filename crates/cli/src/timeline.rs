//! `gvc timeline <report|csv|check>` — offline views of a
//! `--timeline` flight-recorder file.
//!
//! The timeline file is the canonical JSON the recorder in
//! `gvc-telemetry` emits: windowed series over *simulation* time,
//! byte-identical per seed. `report` renders a per-series table with
//! sparkline trends, `csv` re-exports the document as the recorder's
//! CSV, and `check` evaluates declarative SLO burn rules (see
//! `docs/timeline.md` for the grammar), exiting non-zero when any rule
//! fails.

use crate::args::{CliError, ParsedArgs};
use gvc_telemetry::{check_rules, parse_rules, sparkline, TimelineDoc};
use std::io::Write;

fn load_doc(path: &str) -> Result<TimelineDoc, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    TimelineDoc::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// The per-window statistic a series is summarized by in the report
/// (matches the SLO default stat for the kind, except gauges show the
/// mean — the max is in the peak column).
fn primary_stat(kind: &str) -> &'static str {
    match kind {
        "gauge" => "mean",
        "quantile" => "p99",
        _ => "value",
    }
}

/// Compact number for the report table: integers render bare,
/// everything else with four significant decimals.
fn compact(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn cmd_report<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let path = a.positional(2, "timeline.json")?;
    let doc = load_doc(path)?;
    writeln!(
        w,
        "timeline: {}-second windows, {} series",
        doc.width_us as f64 / 1e6,
        doc.series.len()
    )?;
    if doc.series.is_empty() {
        writeln!(w, "(no series recorded)")?;
        return Ok(());
    }
    writeln!(
        w,
        "{:<40} {:<9} {:>7} {:>12} {:>12}  trend",
        "series", "kind", "windows", "peak", "last"
    )?;
    for s in &doc.series {
        let key = primary_stat(&s.kind);
        let vals: Vec<f64> = s.windows.iter().map(|win| win.get(key).unwrap_or(f64::NAN)).collect();
        let peak = vals.iter().copied().filter(|v| v.is_finite()).fold(f64::NEG_INFINITY, f64::max);
        let last = vals.iter().rev().copied().find(|v| v.is_finite()).unwrap_or(f64::NAN);
        writeln!(
            w,
            "{:<40} {:<9} {:>7} {:>12} {:>12}  {}",
            s.name,
            s.kind,
            s.windows.len(),
            compact(peak),
            compact(last),
            sparkline(&vals)
        )?;
    }
    Ok(())
}

/// A window field for CSV export: the recorder writes `null` for
/// non-finite values, which parse back as absent.
fn field(win: &gvc_telemetry::timeline::WindowDoc, key: &str) -> String {
    match win.get(key) {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

fn cmd_csv<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let doc = load_doc(a.positional(2, "timeline.json")?)?;
    writeln!(w, "series,kind,w,t_s,value,mean,max,n,p50,p90,p99")?;
    for s in &doc.series {
        for win in &s.windows {
            let (name, kind, wi) = (&s.name, &s.kind, win.w);
            let t_s = field(win, "t_s");
            match kind.as_str() {
                "gauge" => writeln!(
                    w,
                    "{name},{kind},{wi},{t_s},,{},{},{},,,",
                    field(win, "mean"),
                    field(win, "max"),
                    field(win, "n")
                )?,
                "quantile" => writeln!(
                    w,
                    "{name},{kind},{wi},{t_s},,,,{},{},{},{}",
                    field(win, "n"),
                    field(win, "p50"),
                    field(win, "p90"),
                    field(win, "p99")
                )?,
                _ => writeln!(w, "{name},{kind},{wi},{t_s},{},,,,,,", field(win, "value"))?,
            }
        }
    }
    Ok(())
}

fn cmd_check<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let doc = load_doc(a.positional(2, "timeline.json")?)?;
    let slo_path = a
        .flags
        .get("slo")
        .ok_or_else(|| CliError("timeline check needs --slo <rules-file>".into()))?;
    let text = std::fs::read_to_string(slo_path)
        .map_err(|e| CliError(format!("cannot open {slo_path}: {e}")))?;
    let rules = parse_rules(&text).map_err(|e| CliError(format!("{slo_path}: {e}")))?;
    if rules.is_empty() {
        return Err(CliError(format!("{slo_path}: no SLO rules (comments/blanks only)")));
    }
    let outcomes = check_rules(&doc, &rules);
    let mut failures = 0usize;
    for o in &outcomes {
        let verdict = if o.pass {
            "PASS"
        } else {
            failures += 1;
            "FAIL"
        };
        writeln!(w, "{verdict}  {:<44} {:<36} {}", o.rule, o.series, o.detail)?;
    }
    writeln!(w, "{} rule evaluation(s), {failures} failed", outcomes.len())?;
    if failures > 0 {
        return Err(CliError(format!("{failures} SLO rule evaluation(s) failed")));
    }
    Ok(())
}

/// `gvc timeline <report|csv|check> <timeline.json> [--slo <rules>]`.
pub fn cmd_timeline<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    match a.positional(1, "report|csv|check")? {
        "report" => cmd_report(a, w),
        "csv" => cmd_csv(a, w),
        "check" => cmd_check(a, w),
        other => {
            Err(CliError(format!("unknown timeline subcommand {other:?} (want report|csv|check)")))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::args::parse_flags;
    use crate::commands::run_command;
    use crate::CliError;

    fn run(v: &[&str]) -> Result<String, CliError> {
        let a = parse_flags(v.iter().map(std::string::ToString::to_string)).unwrap();
        let mut out = Vec::new();
        run_command(&a, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("gvc-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join(format!("{}-tl-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
    }

    /// Runs the faulted study simulation with `--timeline`, returning
    /// (usage log bytes, timeline bytes).
    fn faulted_run(tag: &str) -> (String, String) {
        let out = tmpfile(&format!("sim-{tag}.log"));
        let tl = tmpfile(&format!("sim-{tag}.json"));
        let argv = [
            "simulate",
            &out,
            "--seed",
            "7",
            "--jobs",
            "3",
            "--faults",
            "seed=1,fail-first=1",
            "--timeline",
            &tl,
        ];
        run(&argv).unwrap();
        let log = std::fs::read_to_string(&out).unwrap();
        let timeline = std::fs::read_to_string(&tl).unwrap();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&tl).ok();
        (log, timeline)
    }

    #[test]
    fn timeline_covers_every_layer_and_leaves_log_unchanged() {
        let (log_base, tl_base) = faulted_run("base");
        // Recording the timeline must not perturb the simulation: the
        // usage log matches a run without --timeline.
        let out = tmpfile("sim-no-tl.log");
        run(&["simulate", &out, "--seed", "7", "--jobs", "3", "--faults", "seed=1,fail-first=1"])
            .unwrap();
        let log_plain = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).ok();
        assert_eq!(log_plain, log_base, "--timeline changed the usage log");
        // The recorded document carries series from every layer.
        for name in [
            "kernel.scheduled",
            "kernel.queue_depth",
            "net.link_util[",
            "oscars.open_reservations",
            "driver.session_starts",
            "driver.vc_setup",
            "fault.injected",
        ] {
            assert!(tl_base.contains(&format!("\"{name}")), "missing series {name}:\n{tl_base}");
        }
    }

    #[test]
    fn timeline_report_and_csv_render_recorded_series() {
        let (_, tl_text) = faulted_run("report");
        let tl = tmpfile("report-in.json");
        std::fs::write(&tl, &tl_text).unwrap();
        let report = run(&["timeline", "report", &tl]).unwrap();
        assert!(report.contains("-second windows"), "{report}");
        assert!(report.contains("driver.vc_setup"), "{report}");
        assert!(report.contains("quantile"), "{report}");
        let csv = run(&["timeline", "csv", &tl]).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("series,kind,w,t_s,value,mean,max,n,p50,p90,p99"));
        assert!(csv.lines().any(|l| l.starts_with("driver.session_starts,counter,")), "{csv}");
        assert!(csv.lines().any(|l| l.starts_with("driver.vc_setup,quantile,")), "{csv}");
        std::fs::remove_file(&tl).ok();
    }

    #[test]
    fn timeline_check_passes_and_fails_on_slo_rules() {
        let (_, tl_text) = faulted_run("check");
        let tl = tmpfile("check-in.json");
        std::fs::write(&tl, &tl_text).unwrap();

        // Passing fixture: generous bounds the faulted run satisfies.
        let ok_rules = tmpfile("slo-ok.txt");
        std::fs::write(
            &ok_rules,
            "# bulk-session SLOs\n\
             driver.vc_setup_p99 <= 600s\n\
             driver.session_starts >= 1 @50%-of-windows\n\
             fault.injected <= 5\n",
        )
        .unwrap();
        let out = run(&["timeline", "check", &tl, "--slo", &ok_rules]).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
        assert!(out.contains("0 failed"), "{out}");

        // Failing fixture: the seeded fault plan guarantees at least
        // one injected fault, so this bound must breach.
        let bad_rules = tmpfile("slo-bad.txt");
        std::fs::write(&bad_rules, "fault.injected <= 0\ndriver.vc_setup_p99 <= 1us\n").unwrap();
        let mut buf = Vec::new();
        let a = parse_flags(
            ["timeline", "check", &tl, "--slo", &bad_rules]
                .iter()
                .map(std::string::ToString::to_string),
        )
        .unwrap();
        let err = run_command(&a, &mut buf).unwrap_err();
        assert!(err.0.contains("SLO rule evaluation(s) failed"), "{}", err.0);
        let printed = String::from_utf8(buf).unwrap();
        assert!(printed.contains("FAIL"), "{printed}");
        for p in [&ok_rules, &bad_rules, &tl] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn timeline_check_requires_slo_and_known_subcommand() {
        let tl = tmpfile("check-args.json");
        std::fs::write(&tl, "{\n  \"width_us\": 1000000,\n  \"series\": []\n}\n").unwrap();
        let err = run(&["timeline", "check", &tl]).unwrap_err();
        assert!(err.0.contains("--slo"), "{}", err.0);
        let err = run(&["timeline", "prune", &tl]).unwrap_err();
        assert!(err.0.contains("unknown timeline subcommand"), "{}", err.0);
        std::fs::remove_file(&tl).ok();
    }
}

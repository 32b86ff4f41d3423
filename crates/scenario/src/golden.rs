//! Canonical golden serialization and line-level diffs.
//!
//! Goldens must be byte-identical across reruns and feature sets, so
//! the report JSON here is hand-rendered with a fixed key order and
//! **excludes** the manifest's wall-clock start and crate version (the
//! only nondeterministic / release-varying fields in a
//! [`FeasibilityReport`]). Pretty multi-line output keeps
//! `line_diff` failures readable.

use gvc_core::gap_sensitivity::GapRow;
use gvc_core::tables::SessionTable;
use gvc_core::{FeasibilityReport, ResilienceSummary, VcSuitability};
use gvc_stats::Summary;
use gvc_telemetry::json::{Number, Quoted};

fn summary_json(s: &Summary, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"n\": {},\n{indent}  \"min\": {},\n{indent}  \"q1\": {},\n\
         {indent}  \"median\": {},\n{indent}  \"mean\": {},\n{indent}  \"q3\": {},\n\
         {indent}  \"max\": {},\n{indent}  \"sd\": {}\n{indent}}}",
        s.n,
        Number(s.min),
        Number(s.q1),
        Number(s.median),
        Number(s.mean),
        Number(s.q3),
        Number(s.max),
        Number(s.sd)
    )
}

fn session_table_json(t: &SessionTable, indent: &str) -> String {
    let deeper = format!("{indent}  ");
    format!(
        "{{\n{indent}  \"session_size_mb\": {},\n{indent}  \"session_duration_s\": {},\n\
         {indent}  \"transfer_throughput_mbps\": {}\n{indent}}}",
        summary_json(&t.session_size_mb, &deeper),
        summary_json(&t.session_duration_s, &deeper),
        summary_json(&t.transfer_throughput_mbps, &deeper)
    )
}

fn gap_row_json(r: &GapRow, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"gap_s\": {},\n{indent}  \"sessions\": {},\n\
         {indent}  \"single_transfer\": {},\n{indent}  \"multi_transfer\": {},\n\
         {indent}  \"pct_with_1_or_2\": {},\n{indent}  \"max_transfers\": {},\n\
         {indent}  \"with_100_plus\": {}\n{indent}}}",
        Number(r.gap_s),
        r.sessions,
        r.single_transfer,
        r.multi_transfer,
        Number(r.pct_with_1_or_2),
        r.max_transfers,
        r.with_100_plus
    )
}

fn suitability_json(c: &VcSuitability, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"setup_delay_s\": {},\n{indent}  \"gap_s\": {},\n\
         {indent}  \"q3_throughput_mbps\": {},\n{indent}  \"suitable_sessions\": {},\n\
         {indent}  \"total_sessions\": {},\n{indent}  \"suitable_transfers\": {},\n\
         {indent}  \"total_transfers\": {}\n{indent}}}",
        Number(c.setup_delay_s),
        Number(c.gap_s),
        Number(c.q3_throughput_mbps),
        c.suitable_sessions,
        c.total_sessions,
        c.suitable_transfers,
        c.total_transfers
    )
}

fn resilience_json(r: &ResilienceSummary, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"vc_requested\": {},\n{indent}  \"vc_established\": {},\n\
         {indent}  \"faults_injected\": {},\n{indent}  \"retries\": {},\n\
         {indent}  \"fallbacks\": {},\n{indent}  \"mean_recovery_latency_s\": {}\n{indent}}}",
        r.vc_requested,
        r.vc_established,
        r.faults_injected,
        r.retries,
        r.fallbacks,
        Number(r.mean_recovery_latency_s)
    )
}

/// Canonical report JSON: fixed key order, 2-space indent, trailing
/// newline; manifest wall-clock and version excluded.
pub fn report_json(r: &FeasibilityReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"manifest\": {\n");
    s.push_str(&format!("    \"tool\": {},\n", Quoted(&r.manifest.tool)));
    s.push_str(&format!("    \"seed\": {},\n", r.manifest.seed));
    s.push_str(&format!("    \"config_digest\": {},\n", r.manifest.config_digest));
    s.push_str(&format!("    \"config\": {}\n", Quoted(&r.manifest.config)));
    s.push_str("  },\n");
    s.push_str(&format!("  \"n_transfers\": {},\n", r.n_transfers));
    s.push_str(&format!("  \"degenerate_records\": {},\n", r.degenerate_records));
    match &r.session_table_g1 {
        Some(t) => {
            s.push_str(&format!("  \"session_table_g1\": {},\n", session_table_json(t, "  ")));
        }
        None => s.push_str("  \"session_table_g1\": null,\n"),
    }
    s.push_str("  \"gap_rows\": [");
    for (i, row) in r.gap_rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(&gap_row_json(row, "    "));
    }
    s.push_str(if r.gap_rows.is_empty() { "],\n" } else { "\n  ],\n" });
    s.push_str("  \"suitability\": [");
    for (i, cell) in r.suitability.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(&suitability_json(cell, "    "));
    }
    s.push_str(if r.suitability.is_empty() { "],\n" } else { "\n  ],\n" });
    match &r.resilience {
        Some(res) => s.push_str(&format!("  \"resilience\": {}\n", resilience_json(res, "  "))),
        None => s.push_str("  \"resilience\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// `None` when the texts are byte-identical; otherwise a readable
/// line-level diff (first 10 differing lines, `-` expected /
/// `+` actual).
pub fn line_diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    let mut differing = 0usize;
    let n = exp.len().max(act.len());
    for i in 0..n {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        differing += 1;
        if shown < 10 {
            out.push_str(&format!("  line {}:\n", i + 1));
            if let Some(e) = e {
                out.push_str(&format!("    - {e}\n"));
            }
            if let Some(a) = a {
                out.push_str(&format!("    + {a}\n"));
            }
            shown += 1;
        }
    }
    if differing == 0 {
        // Same lines, different bytes (trailing newline / CR).
        out.push_str("  texts differ only in line endings or a trailing newline\n");
        differing = 1;
    }
    let mut head =
        format!("{differing} line(s) differ (expected {} lines, got {})\n", exp.len(), act.len());
    if differing > shown && shown == 10 {
        out.push_str(&format!("  … {} more differing line(s)\n", differing - shown));
    }
    head.push_str(&out);
    Some(head)
}

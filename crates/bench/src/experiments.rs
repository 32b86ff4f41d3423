//! One renderer per paper table/figure.

use crate::fmt::{banner, corr, summary_header, summary_row};
use crate::scenarios::Scenarios;
use gvc_core::concurrency::{concurrency_profile, prediction_analysis};
use gvc_core::gap_sensitivity::gap_sensitivity;
use gvc_core::scatter;
use gvc_core::snmp_attr::{link_load_bps, raw_bins};
use gvc_core::snmp_corr::{router_correlation_directional, CorrelationKind, RouterCorrelation};
use gvc_core::stream_analysis::{stream_analysis_full, stream_analysis_small, StreamAnalysis};
use gvc_core::sweep::{sweep_dataset, SessionRange, SessionStore};
use gvc_core::tables::{endpoint_type_table, session_table, transfer_table};
use gvc_core::time_of_day::by_hour;
use gvc_core::vc_suitability::DEFAULT_OVERHEAD_FACTOR;
use gvc_logs::{Dataset, TransferType};
use gvc_stats::{BoxplotSummary, Summary};
use gvc_workload::ablations;
use std::fmt::Write as _;

/// All experiment ids accepted by [`run_experiment`].
pub const EXPERIMENT_IDS: [&str; 30] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablations",
    "blocking",
    "hntes",
    "interdomain",
    "taxonomy",
    "collector",
    "campus",
    "interference",
    "variance",
];

/// Runs [`run_experiment`] for every id in `ids` on one scoped worker
/// per available core, returning one result per id in input order.
/// Worker `w` takes ids `w, w + n, w + 2n, …` of the `n` workers; the
/// workers share nothing mutable and are joined in worker order, so the
/// results are the same on any number of cores.
pub fn run_experiments(s: &Scenarios, ids: &[&str]) -> Vec<Option<String>> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(ids.len()).max(1);
    let lane = |w: usize| -> Vec<(usize, Option<String>)> {
        ids.iter()
            .enumerate()
            .skip(w)
            .step_by(workers)
            .map(|(k, id)| (k, run_experiment(s, id)))
            .collect()
    };
    let lanes = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || lane(w))).collect();
        let mut lanes = vec![lane(0)];
        for h in spawned {
            lanes.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        lanes
    });
    let mut out = vec![None; ids.len()];
    for (k, rendered) in lanes.into_iter().flatten() {
        out[k] = rendered;
    }
    out
}

/// Runs one experiment by id; `None` for an unknown id.
pub fn run_experiment(s: &Scenarios, id: &str) -> Option<String> {
    let out = match id {
        "table1" => table_1_2(&s.ncar, "Table I: NCAR-NICS sessions and transfers (g = 1 min)"),
        "table2" => table_1_2(&s.slac, "Table II: SLAC-BNL sessions and transfers (g = 1 min)"),
        "table3" => table_3(s),
        "table4" => table_4(s),
        "table5" => table_5(&s.ornl.log),
        "table6" => table_6(&s.anl_tests()),
        "table7" => table_7(&s.ncar),
        "table8" => table_8(&s.ncar),
        "table9" => table_9(&s.ncar),
        "table10" => table_10(s),
        "table11" => table_11_12(s, CorrelationKind::TotalBytes),
        "table12" => table_11_12(s, CorrelationKind::OtherFlows),
        "table13" => table_13(s),
        "fig1" => fig_1(&s.anl_tests()),
        "fig2" => fig_2(&s.slac),
        "fig3" => fig_3_4(&s.slac, false),
        "fig4" => fig_3_4(&s.slac, true),
        "fig5" => fig_5(&s.slac),
        "fig6" => fig_6(&s.ornl.log),
        "fig7" => fig_7(s),
        "fig8" => fig_8(s),
        "ablations" => ablation_suite(&s.ncar),
        "blocking" => blocking_experiment(),
        "hntes" => hntes_experiment(),
        "interdomain" => interdomain_experiment(),
        "taxonomy" => taxonomy_experiment(),
        "collector" => collector_experiment(&s.slac),
        "campus" => campus_experiment(s),
        "interference" => interference_experiment(),
        "variance" => variance_experiment(s),
        _ => return None,
    };
    Some(out)
}

fn table_1_2(ds: &Dataset, title: &str) -> String {
    let mut o = banner(title);
    let store = SessionStore::from_dataset(ds);
    match session_table(&store, 60.0) {
        Some(t) => {
            let _ = writeln!(o, "{}", summary_header("sessions/transfers"));
            let _ = writeln!(o, "{}", summary_row("session size (MB)", &t.session_size_mb, 1.0, 1));
            let _ = writeln!(
                o,
                "{}",
                summary_row("session duration (s)", &t.session_duration_s, 1.0, 1)
            );
            let _ = writeln!(
                o,
                "{}",
                summary_row("transfer tput (Mbps)", &t.transfer_throughput_mbps, 1.0, 1)
            );
            let _ = writeln!(
                o,
                "({} transfers in {} sessions; {} largest session)",
                ds.len(),
                t.session_size_mb.n,
                store.sessions_at(60.0).into_iter().map(SessionRange::len).max().unwrap_or(0)
            );
        }
        None => {
            let _ = writeln!(o, "(empty dataset)");
        }
    }
    o
}

fn table_3(s: &Scenarios) -> String {
    let mut o = banner("Table III: impact of the g parameter on number of sessions");
    let _ = writeln!(
        o,
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "Data set", "g (s)", "sessions", "single", "multi", "% w/ 1-2", "max xfers", ">=100"
    );
    for (name, ds) in [("NCAR-NICS", &s.ncar), ("SLAC-BNL", &s.slac)] {
        for row in gap_sensitivity(ds, &[0.0, 60.0, 120.0]) {
            let _ = writeln!(
                o,
                "{name:<12} {:>8.0} {:>10} {:>10} {:>10} {:>11.2}% {:>12} {:>10}",
                row.gap_s,
                row.sessions,
                row.single_transfer,
                row.multi_transfer,
                row.pct_with_1_or_2,
                row.max_transfers,
                row.with_100_plus
            );
        }
    }
    o
}

fn table_4(s: &Scenarios) -> String {
    let mut o =
        banner("Table IV: percentage of sessions suitable for VCs (percentage of transfers)");
    let _ = writeln!(
        o,
        "{:<12} {:>8} | {:>22} {:>22}",
        "Data set", "g (s)", "setup 1 min", "setup 50 ms"
    );
    for (name, ds) in [("NCAR-NICS", &s.ncar), ("SLAC-BNL", &s.slac)] {
        let sweep = sweep_dataset(ds, &[0.0, 60.0, 120.0], &[60.0, 0.05], 10.0);
        for g in [0.0, 60.0, 120.0] {
            let slow = sweep.cell(g, 60.0).expect("cell");
            let fast = sweep.cell(g, 0.05).expect("cell");
            let _ = writeln!(
                o,
                "{name:<12} {g:>8.0} | {:>9.2}% ({:>7.2}%) {:>9.2}% ({:>7.2}%)",
                slow.pct_sessions(),
                slow.pct_transfers(),
                fast.pct_sessions(),
                fast.pct_transfers()
            );
        }
    }
    o
}

fn table_5(ds: &Dataset) -> String {
    let mut o = banner("Table V: the 32 GB NERSC-ORNL transfers");
    match transfer_table(ds) {
        Some(t) => {
            let _ = writeln!(o, "{}", summary_header(&format!("n = {}", ds.len())));
            let _ = writeln!(o, "{}", summary_row("duration (s)", &t.duration_s, 1.0, 1));
            let _ = writeln!(o, "{}", summary_row("throughput (Mbps)", &t.throughput_mbps, 1.0, 1));
            let _ = writeln!(o, "(inter-quartile range: {:.0} Mbps)", t.throughput_mbps.iqr());
        }
        None => {
            let _ = writeln!(o, "(empty dataset)");
        }
    }
    o
}

fn table_6(tests: &Dataset) -> String {
    let mut o = banner("Table VI: throughput of ANL->NERSC transfers (Mbps)");
    let rows = endpoint_type_table(tests);
    let _ = writeln!(o, "{}", summary_header("category"));
    for r in &rows {
        let _ = writeln!(o, "{}", summary_row(r.category.label(), &r.throughput_mbps, 1.0, 1));
    }
    let _ = write!(o, "{:<22}", "CV");
    for r in &rows {
        let _ = write!(o, " {}={:.2}%", r.category.label(), r.cv * 100.0);
    }
    let _ = writeln!(o);
    o
}

fn size_slices(ds: &Dataset) -> (Dataset, Dataset) {
    (ds.filter_size(16_000_000_000, 17_000_000_000), ds.filter_size(4_000_000_000, 5_000_000_000))
}

fn table_7(ncar: &Dataset) -> String {
    let mut o = banner("Table VII: throughput variance of 16GB/4GB transfers, NCAR data (Mbps)");
    let (g16, g4) = size_slices(ncar);
    let _ = writeln!(o, "{}", summary_header("slice"));
    for (label, ds) in [("16G", &g16), ("4G", &g4)] {
        if let Some(s) = Summary::of(&ds.throughputs_mbps()) {
            let _ = writeln!(o, "{}", summary_row(label, &s, 1.0, 1));
            let _ = writeln!(o, "{:<22} sd = {:.1}  (n = {})", "", s.sd, s.n);
        }
    }
    o
}

fn table_8(ncar: &Dataset) -> String {
    let mut o = banner("Table VIII: year-based throughput of 16GB/4GB transfers (Mbps)");
    let (g16, g4) = size_slices(ncar);
    for (label, ds) in [("16GB", &g16), ("4GB", &g4)] {
        let _ = writeln!(o, "-- {label} transfers --");
        let _ = writeln!(o, "{}", summary_header("year (n)"));
        for row in gvc_core::factors::by_year(ds) {
            let label = format!("{} ({})", row.key, row.throughput_mbps.n);
            let _ = writeln!(o, "{}", summary_row(&label, &row.throughput_mbps, 1.0, 1));
        }
    }
    o
}

fn table_9(ncar: &Dataset) -> String {
    let mut o = banner("Table IX: stripes-based throughput of 16GB/4GB transfers (Mbps)");
    let (g16, g4) = size_slices(ncar);
    for (label, ds) in [("16GB", &g16), ("4GB", &g4)] {
        let _ = writeln!(o, "-- {label} transfers --");
        let _ = writeln!(o, "{}", summary_header("stripes (n)"));
        for row in gvc_core::factors::by_stripes(ds) {
            let label = format!("{} ({})", row.key, row.throughput_mbps.n);
            let _ = writeln!(o, "{}", summary_row(&label, &row.throughput_mbps, 1.0, 1));
        }
    }
    o
}

/// Picks a representative 32 GB RETR transfer for Table X.
fn example_retr(s: &Scenarios) -> Option<gvc_logs::TransferRecord> {
    s.ornl
        .log
        .filter_type(TransferType::Retr)
        .records()
        .iter()
        .find(|r| r.duration_s() > 90.0)
        .cloned()
}

fn table_10(s: &Scenarios) -> String {
    let mut o = banner("Table X: SNMP byte counts within one 32 GB transfer (rt3 egress)");
    let Some(r) = example_retr(s) else {
        let _ = writeln!(o, "(no suitable transfer)");
        return o;
    };
    let _ = writeln!(
        o,
        "transfer: {} bytes, start {}, duration {:.1} s",
        r.size_bytes,
        r.start_civil().iso8601(),
        r.duration_s()
    );
    let bins = raw_bins(&s.ornl.snmp_fwd[2], r.start_unix_us, r.end_unix_us());
    let total: u64 = bins.iter().map(|(_, b)| b).sum();
    let _ = writeln!(o, "{:>4} {:>20} {:>16}", "bin", "start (unix s)", "bytes");
    for (i, (t, b)) in bins.iter().enumerate() {
        let _ = writeln!(o, "{:>4} {:>20} {:>16}", i + 1, t / 1_000_000, b);
    }
    let _ = writeln!(o, "{:>4} {:>20} {:>16} (total)", "", "", total);
    o
}

fn correlation_rows(s: &Scenarios, kind: CorrelationKind) -> Vec<RouterCorrelation> {
    (0..5)
        .map(|i| {
            router_correlation_directional(
                &s.ornl.log,
                &s.ornl.snmp_fwd[i],
                &s.ornl.snmp_rev[i],
                |r| r.transfer_type == TransferType::Retr,
                kind,
            )
        })
        .collect()
}

fn table_11_12(s: &Scenarios, kind: CorrelationKind) -> String {
    let title = match kind {
        CorrelationKind::TotalBytes => {
            "Table XI: correlation of GridFTP bytes and total SNMP bytes B_i (NERSC-ORNL)"
        }
        CorrelationKind::OtherFlows => {
            "Table XII: correlation of GridFTP bytes and other-flow bytes (NERSC-ORNL)"
        }
    };
    let mut o = banner(title);
    let rows = correlation_rows(s, kind);
    let _ = write!(o, "{:<10}", "");
    for i in 0..rows.len() {
        let _ = write!(o, " {:>7}", format!("rt{}", i + 1));
    }
    let _ = writeln!(o);
    for q in 0..4 {
        let _ = write!(o, "{:<10}", format!("{}. Qu.", q + 1));
        for r in &rows {
            let _ = write!(o, " {}", corr(r.per_quartile[q]));
        }
        let _ = writeln!(o);
    }
    let _ = write!(o, "{:<10}", "All");
    for r in &rows {
        let _ = write!(o, " {}", corr(r.overall));
    }
    let _ = writeln!(o);
    o
}

fn table_13(s: &Scenarios) -> String {
    let mut o = banner("Table XIII: average link load (Gbps) during the 32 GB transfers");
    let retr = s.ornl.log.filter_type(TransferType::Retr);
    let _ = writeln!(o, "{}", summary_header("router"));
    for (i, series) in s.ornl.snmp_fwd.iter().enumerate() {
        let loads: Vec<f64> = retr
            .records()
            .iter()
            .map(|r| link_load_bps(series, r.start_unix_us, r.end_unix_us()) / 1e9)
            .collect();
        if let Some(sum) = Summary::of(&loads) {
            let _ = writeln!(o, "{}", summary_row(&format!("rt{}", i + 1), &sum, 1.0, 2));
        }
    }
    o
}

fn fig_1(tests: &Dataset) -> String {
    let mut o = banner("Fig. 1: throughput variance for ANL-to-NERSC transfers (boxplots, Mbps)");
    let rows = endpoint_type_table(tests);
    let hi = rows.iter().map(|r| r.throughput_mbps.max).fold(0.0f64, f64::max) * 1.05;
    for r in &rows {
        let slice: Vec<f64> = tests
            .records()
            .iter()
            .filter(|t| {
                matches!((t.src_kind, t.dst_kind), (Some(a), Some(b))
                if gvc_core::tables::EndpointCategory::ALL
                    .iter()
                    .find(|c| c.label() == r.category.label())
                    .is_some_and(|_| {
                        use gvc_logs::EndpointKind::{Disk, Memory};
                        let want = match r.category.label() {
                            "mem-mem" => (Memory, Memory),
                            "mem-disk" => (Memory, Disk),
                            "disk-mem" => (Disk, Memory),
                            _ => (Disk, Disk),
                        };
                        (a, b) == want
                    }))
            })
            .map(gvc_logs::TransferRecord::throughput_mbps)
            .collect();
        if let Some(b) = BoxplotSummary::of(&slice) {
            let _ = writeln!(
                o,
                "{:<10} |{}| med={:.0}",
                r.category.label(),
                b.ascii(0.0, hi, 60),
                b.median
            );
        }
    }
    let _ = writeln!(o, "{:<10}  0 {:>57.0} Mbps", "", hi);
    o
}

fn fig_2(slac: &Dataset) -> String {
    let mut o = banner("Fig. 2: throughput of SLAC-BNL transfers vs file size");
    let pts = scatter::throughput_vs_size(slac);
    if let Some(p) = scatter::peak(&pts) {
        let _ = writeln!(
            o,
            "peak: {:.2} Gbps at {:.1} MB",
            p.throughput_mbps / 1e3,
            p.size_bytes as f64 / 1e6
        );
    }
    let fast = scatter::above_threshold(&pts, 1500.0);
    let _ = writeln!(o, "transfers above 1.5 Gbps: {}", fast.len());
    // Density sketch: median throughput per size decade.
    let _ = writeln!(o, "{:>16} {:>10} {:>12}", "size bucket", "n", "med Mbps");
    for (lo, hi, label) in [
        (0.0, 1e6, "< 1 MB"),
        (1e6, 1e7, "1-10 MB"),
        (1e7, 1e8, "10-100 MB"),
        (1e8, 1e9, "0.1-1 GB"),
        (1e9, 4.3e9, "1-4 GB"),
    ] {
        let sel: Vec<f64> = pts
            .iter()
            .filter(|p| (p.size_bytes as f64) >= lo && (p.size_bytes as f64) < hi)
            .map(|p| p.throughput_mbps)
            .collect();
        if let Some(m) = gvc_stats::median(&sel) {
            let _ = writeln!(o, "{label:>16} {:>10} {:>12.1}", sel.len(), m);
        }
    }
    o
}

fn fig_3_4(slac: &Dataset, full_range: bool) -> String {
    let (title, analysis) = if full_range {
        (
            "Fig. 4: median throughput of 8-stream and 1-stream transfers, sizes (0, 4 GB)",
            stream_analysis_full(slac),
        )
    } else {
        (
            "Fig. 3: median throughput of 8-stream and 1-stream transfers, sizes (0, 1 GB)",
            stream_analysis_small(slac),
        )
    };
    let mut o = banner(title);
    let _ = writeln!(
        o,
        "{:>12} {:>14} {:>8} {:>14} {:>8}",
        "size (MB)", "1-str Mbps", "n", "8-str Mbps", "n"
    );
    // Subsample the series onto shared coarse size points for a
    // readable text table.
    let edges: Vec<(f64, f64)> = if full_range {
        (0..16).map(|i| (i as f64 * 256e6, (i + 1) as f64 * 256e6)).collect()
    } else {
        (0..16).map(|i| (i as f64 * 64e6, (i + 1) as f64 * 64e6)).collect()
    };
    for (lo, hi) in edges {
        let pick = |series: &[gvc_core::stream_analysis::StreamBinPoint]| {
            let pts: Vec<_> =
                series.iter().filter(|p| p.size_bytes >= lo && p.size_bytes < hi).collect();
            let n: usize = pts.iter().map(|p| p.count).sum();
            let med = gvc_stats::median(&pts.iter().map(|p| p.median_mbps).collect::<Vec<_>>());
            (med, n)
        };
        let (m1, n1) = pick(&analysis.one_stream);
        let (m8, n8) = pick(&analysis.eight_streams);
        if m1.is_none() && m8.is_none() {
            continue;
        }
        let f = |m: Option<f64>| m.map_or_else(|| "--".into(), |v| format!("{v:.1}"));
        let _ = writeln!(
            o,
            "{:>12.0} {:>14} {:>8} {:>14} {:>8}",
            (lo + hi) / 2.0 / 1e6,
            f(m1),
            n1,
            f(m8),
            n8
        );
    }
    // The paper's headline comparison.
    let small_1 = StreamAnalysis::regime_median(&analysis.one_stream, 0.0, 150e6);
    let small_8 = StreamAnalysis::regime_median(&analysis.eight_streams, 0.0, 150e6);
    let large_1 = StreamAnalysis::regime_median(&analysis.one_stream, 600e6, 4.3e9);
    let large_8 = StreamAnalysis::regime_median(&analysis.eight_streams, 600e6, 4.3e9);
    if let (Some(a), Some(b)) = (small_1, small_8) {
        let _ = writeln!(o, "small files (<150 MB): 1-stream {a:.1} vs 8-stream {b:.1} Mbps");
    }
    if let (Some(a), Some(b)) = (large_1, large_8) {
        let _ = writeln!(o, "large files (>600 MB): 1-stream {a:.1} vs 8-stream {b:.1} Mbps");
    }
    o
}

fn fig_5(slac: &Dataset) -> String {
    let mut o = banner("Fig. 5: number of observations per file-size bin (SLAC-BNL)");
    let analysis = stream_analysis_full(slac);
    let _ = writeln!(o, "{:>12} {:>10} {:>10}", "size (MB)", "1-stream", "8-stream");
    let edges: Vec<(f64, f64)> =
        (0..16).map(|i| (i as f64 * 256e6, (i + 1) as f64 * 256e6)).collect();
    for (lo, hi) in edges {
        let count = |series: &[gvc_core::stream_analysis::StreamBinPoint]| -> usize {
            series.iter().filter(|p| p.size_bytes >= lo && p.size_bytes < hi).map(|p| p.count).sum()
        };
        let (n1, n8) = (count(&analysis.one_stream), count(&analysis.eight_streams));
        if n1 + n8 == 0 {
            continue;
        }
        let _ = writeln!(o, "{:>12.0} {n1:>10} {n8:>10}", (lo + hi) / 2.0 / 1e6);
    }
    o
}

fn fig_6(ornl: &Dataset) -> String {
    let mut o = banner("Fig. 6: 32 GB NERSC-ORNL transfer throughput vs time of day");
    let _ = writeln!(o, "{}", summary_header("start hour (n)"));
    for (h, s) in by_hour(ornl) {
        let label = format!("{h:02}:00 ({})", s.n);
        let _ = writeln!(o, "{}", summary_row(&label, &s, 1.0, 1));
    }
    o
}

fn fig_7(s: &Scenarios) -> String {
    let mut o =
        banner("Fig. 7: concurrent transfers within one transfer's duration (NERSC server)");
    let server_log = s.nersc_server_log();
    // Pick the mem-mem test with the most concurrency changes.
    let targets = s.anl_mem_mem();
    let best = targets.records().iter().max_by_key(|r| concurrency_profile(&server_log, r).len());
    let Some(target) = best else {
        let _ = writeln!(o, "(no targets)");
        return o;
    };
    let profile = concurrency_profile(&server_log, target);
    let _ = writeln!(
        o,
        "target: start {}, duration {:.1} s",
        target.start_civil().iso8601(),
        target.duration_s()
    );
    let _ = writeln!(o, "{:>10} {:>12}", "d_ij (s)", "n_ij");
    for iv in &profile {
        let _ = writeln!(o, "{:>10.2} {:>12}", iv.duration_s, iv.concurrent);
    }
    o
}

fn fig_8(s: &Scenarios) -> String {
    let mut o = banner("Fig. 8: actual vs predicted throughput, ANL->NERSC mem-mem (Eq. 2)");
    let server_log = s.nersc_server_log();
    let targets = s.anl_mem_mem();
    let analysis = prediction_analysis(&server_log, &targets, None);
    let _ = writeln!(
        o,
        "R = {:.0} Mbps (90th pct), {} targets",
        analysis.r_mbps,
        analysis.points.len()
    );
    let _ = writeln!(o, "rho (overall) = {}", corr(analysis.rho));
    for (q, r) in analysis.per_quartile_rho.iter().enumerate() {
        let _ = writeln!(o, "rho (quartile {}) = {}", q + 1, corr(*r));
    }
    let _ = writeln!(o, "{:>6} {:>12} {:>12}", "i", "actual", "predicted");
    for (i, (a, p)) in analysis.points.iter().enumerate().take(20) {
        let _ = writeln!(o, "{:>6} {:>12.1} {:>12.1}", i + 1, a, p);
    }
    if analysis.points.len() > 20 {
        let _ = writeln!(o, "... ({} more)", analysis.points.len() - 20);
    }
    o
}

fn ablation_suite(ncar: &Dataset) -> String {
    let mut o = banner("Ablations: the three VC positives, quantified");

    let r = ablations::vc_variance_experiment(42, 24, 8e9);
    let _ = writeln!(o, "-- rate-guaranteed VC vs IP-routed (congested path) --");
    let _ = writeln!(o, "{}", summary_header("policy"));
    let _ = writeln!(o, "{}", summary_row("IP-routed (Mbps)", &r.ip_routed, 1.0, 0));
    let _ = writeln!(o, "{}", summary_row("dynamic VC (Mbps)", &r.vc, 1.0, 0));
    let _ = writeln!(o, "IQR reduction: {:.0}%", r.iqr_reduction() * 100.0);

    let _ = writeln!(o, "\n-- alpha-flow isolation: GP queueing wait (gp load 5%) --");
    let _ = writeln!(
        o,
        "{:>12} {:>14} {:>14} {:>8}",
        "alpha util", "shared (us)", "isolated (us)", "gain"
    );
    for p in ablations::isolation_sweep(0.05, &[0.1, 0.2, 0.4, 0.6, 0.8]) {
        let _ = writeln!(
            o,
            "{:>12.2} {:>14.2} {:>14.2} {:>7.1}x",
            p.alpha_util,
            p.shared_wait_us,
            p.isolated_wait_us,
            p.shared_wait_us / p.isolated_wait_us
        );
    }
    // Packet-level validation of the analytic model (mean + p99).
    {
        use gvc_net::queue_sim::{simulate, Discipline, QueueSimConfig};
        let c = QueueSimConfig {
            gp_util: 0.05,
            alpha_util: 0.4,
            gp_packets: 60_000,
            ..QueueSimConfig::default()
        };
        let shared = simulate(&c, Discipline::SharedFifo);
        let isolated = simulate(&c, Discipline::Isolated);
        let _ = writeln!(
            o,
            "packet-level check at alpha=0.40: shared mean {:.1} us (p99 {:.1}) vs isolated mean {:.2} us (p99 {:.2})",
            shared.gp_wait_us.mean,
            shared.gp_wait_p99_us,
            isolated.gp_wait_us.mean,
            isolated.gp_wait_p99_us
        );
    }

    // One NCAR sweep behind both parameter tables.
    let delays = [0.05, 1.0, 10.0, 60.0, 300.0];
    let sweep =
        sweep_dataset(ncar, &[0.0, 30.0, 60.0, 120.0, 300.0], &delays, DEFAULT_OVERHEAD_FACTOR);
    let _ = writeln!(o, "\n-- VC-suitable sessions vs setup delay (NCAR data, g = 1 min) --");
    let _ = writeln!(o, "{:>12} {:>12} {:>12}", "delay (s)", "% sessions", "% transfers");
    for c in delays.iter().map(|&d| sweep.cell(60.0, d).expect("cell")) {
        let _ = writeln!(
            o,
            "{:>12.2} {:>11.2}% {:>11.2}%",
            c.setup_delay_s,
            c.pct_sessions(),
            c.pct_transfers()
        );
    }

    let _ = writeln!(o, "\n-- session count vs g (NCAR data) --");
    let _ = writeln!(o, "{:>10} {:>10} {:>10} {:>12}", "g (s)", "sessions", "single", "max xfers");
    for row in &sweep.gap_rows {
        let _ = writeln!(
            o,
            "{:>10.0} {:>10} {:>10} {:>12}",
            row.gap_s, row.sessions, row.single_transfer, row.max_transfers
        );
    }
    o
}

fn blocking_experiment() -> String {
    let mut o = banner("Extension: call-blocking probability vs offered circuit load");
    let _ = writeln!(
        o,
        "(4 Gbps circuits, 10-minute mean holding time, random site pairs on the study topology)"
    );
    let _ = writeln!(o, "{:>14} {:>12} {:>12}", "offered (erl)", "requests", "P(block)");
    for p in ablations::blocking_curve(42, 4e9, 600.0, &[0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0], 400) {
        let _ = writeln!(
            o,
            "{:>14.1} {:>12} {:>12.3}",
            p.offered_erlangs, p.requests, p.blocking_probability
        );
    }
    let _ = writeln!(o, "(advance reservations keep blocking low until load nears link capacity)");
    let (immediate, flexible) =
        ablations::blocking_with_flexibility(42, 4e9, 600.0, 8.0, 400, 4, 900.0);
    let _ = writeln!(
        o,
        "book-ahead flexibility at 8 erlangs: immediate P(block) {immediate:.3} -> \
         flexible (4 retries, +15 min shifts) {flexible:.3}"
    );
    o
}

fn hntes_experiment() -> String {
    let mut o = banner("Extension: HNTES offline alpha-flow capture (NCAR-style traffic)");
    let r = ablations::hntes_capture(42, 0.3);
    let _ = writeln!(o, "days replayed:        {}", r.days);
    let _ = writeln!(o, "alpha bytes:          {:.1} TB", r.alpha_bytes as f64 / 1e12);
    let _ = writeln!(
        o,
        "captured on circuits: {:.1} TB ({:.1}%)",
        r.captured_bytes as f64 / 1e12,
        r.capture_fraction() * 100.0
    );
    let _ = writeln!(o, "missed alpha flows:   {}", r.missed_flows);
    let _ = writeln!(
        o,
        "false redirects:      {:.3} GB ({:.4} per captured byte)",
        r.false_bytes as f64 / 1e9,
        r.false_ratio()
    );
    let _ = writeln!(o, "installed rules:      {}", r.final_rules);
    let shown: Vec<String> = r
        .daily_capture
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .take(8)
        .map(|(d, c)| format!("d{d}:{:.0}%", c * 100.0))
        .collect();
    let _ = writeln!(o, "capture on active days: {} ...", shown.join(" "));
    o
}

fn interdomain_experiment() -> String {
    use gvc_engine::SimTime;
    use gvc_oscars::interdomain::{Domain, InterDomainController};
    use gvc_oscars::{Idc, SetupDelayModel};
    use gvc_topology::{Graph, NodeKind};
    use std::collections::HashMap;

    let mut o = banner("Extension: inter-domain circuit chaining (IDCP-style)");
    // Three domains in a line: campus -- esnet -- campus'.
    let mk = |names: &[&str]| -> (Graph, Vec<gvc_topology::NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = names
            .iter()
            .map(|n| {
                g.add_node(n, if n.starts_with("ep") { NodeKind::Host } else { NodeKind::Router })
            })
            .collect();
        for w in 0..ids.len() - 1 {
            g.add_duplex_link(ids[w], ids[w + 1], 10e9, 0.005);
        }
        (g, ids)
    };
    let (g1, n1) = mk(&["ep-src", "campus1-gw"]);
    let (g2, n2) = mk(&["campus1-gw", "esnet-core", "campus2-gw"]);
    let (g3, n3) = mk(&["campus2-gw", "ep-dst"]);
    let mut ctl = InterDomainController::new(vec![
        Domain {
            name: "campus-1".into(),
            idc: Idc::new(g1, SetupDelayModel::hardware()),
            gateways: HashMap::from([("gw1".to_string(), n1[1])]),
            endpoints: HashMap::from([("ep-src".to_string(), n1[0])]),
        },
        Domain {
            name: "esnet".into(),
            idc: Idc::new(g2, SetupDelayModel::esnet_deployed()),
            gateways: HashMap::from([("gw1".to_string(), n2[0]), ("gw2".to_string(), n2[2])]),
            endpoints: HashMap::new(),
        },
        Domain {
            name: "campus-2".into(),
            idc: Idc::new(g3, SetupDelayModel::hardware()),
            gateways: HashMap::from([("gw2".to_string(), n3[0])]),
            endpoints: HashMap::from([("ep-dst".to_string(), n3[1])]),
        },
    ]);

    let now = SimTime::from_secs(30);
    match ctl.create_circuit("ep-src", "ep-dst", 4e9, now, SimTime::from_secs(3630), now) {
        Ok(c) => {
            let _ = writeln!(
                o,
                "end-to-end 4 Gbps circuit admitted across {} domains",
                c.segments.len()
            );
            let _ = writeln!(
                o,
                "requested at t = {:.0} s; usable at t = {:.0} s (gated by the batched 1-min domain)",
                now.as_secs_f64(),
                c.ready_at.as_secs_f64()
            );
        }
        Err(e) => {
            let _ = writeln!(o, "blocked: {e:?}");
        }
    }
    // Saturate and show all-or-nothing admission.
    match ctl.create_circuit("ep-src", "ep-dst", 8e9, now, SimTime::from_secs(3630), now) {
        Ok(_) => {
            let _ = writeln!(o, "second 8 Gbps circuit unexpectedly admitted");
        }
        Err(e) => {
            let _ = writeln!(o, "second 8 Gbps request blocked atomically: {e:?}");
        }
    }
    o
}

fn taxonomy_experiment() -> String {
    use gvc_engine::SimTime;
    use gvc_hntes::taxonomy::{classify, FlowDims};
    use gvc_net::background::{generate_background, BackgroundConfig};
    use gvc_net::{FlowSpec, NetworkSim};
    use gvc_topology::{study_topology, Site};

    let mut o = banner("Extension: Lan & Heidemann flow taxonomy on mixed traffic");
    // Mixed population: general-purpose background plus a handful of
    // science transfers that start fast and then get squeezed (bursty
    // + large = elephant ∩ porcupine).
    let topo = study_topology();
    let mut sim = NetworkSim::new(topo.graph.clone(), 0);
    let horizon = SimTime::from_secs(3_600);
    let bg = generate_background(
        &topo.graph,
        &BackgroundConfig { mean_interarrival_s: 1.0, ..BackgroundConfig::default() },
        horizon,
        42,
    );
    let science = topo.path(Site::Slac, Site::Bnl);
    let mut arrivals: Vec<(SimTime, FlowSpec)> = bg.iter().map(|a| (a.at, a.spec())).collect();
    // Science transfers arrive in overlapping triples: 3 x 5 Gbps
    // demand on a 10 Gbps path squeezes them below their cap while
    // together, and they burst to the cap as siblings finish — large
    // AND bursty, the elephant ∩ porcupine population.
    for batch in 0..10u64 {
        for k in 0..3u64 {
            arrivals.push((
                SimTime::from_secs(60 + batch * 300 + k * 5),
                FlowSpec::best_effort(science.links.clone(), 20e9).with_cap(5e9),
            ));
        }
    }
    arrivals.sort_by_key(|(t, _)| *t);
    let mut done = Vec::new();
    for (at, spec) in arrivals {
        done.extend(sim.run_until(at));
        sim.add_flow(spec);
    }
    done.extend(sim.drain(SimTime::from_secs(100_000)));

    let dims: Vec<FlowDims> = done.iter().map(FlowDims::from_completion).collect();
    let report = classify(&dims, 2.0);
    let _ = writeln!(o, "{} flows classified (k = 2 sigma thresholds)", dims.len());
    let _ = writeln!(o, "elephants:  {:>6}", report.elephants());
    let _ = writeln!(o, "tortoises:  {:>6}", report.tortoises());
    let _ = writeln!(o, "cheetahs:   {:>6}", report.cheetahs());
    let _ = writeln!(o, "porcupines: {:>6}", report.porcupines());
    match report.porcupine_elephant_overlap() {
        Some(f) => {
            let _ = writeln!(
                o,
                "porcupine∩elephant overlap: {:.0}% (Lan & Heidemann reported 68%)",
                f * 100.0
            );
        }
        None => {
            let _ = writeln!(o, "no porcupines in this draw");
        }
    }
    o
}

fn collector_experiment(slac: &Dataset) -> String {
    use gvc_logs::CollectorModel;

    let mut o = banner("Extension: lossy central usage collection vs local logs");
    let _ = writeln!(
        o,
        "(Globus usage packets are UDP; the central dataset is a lossy sample of local logs)"
    );
    let _ = writeln!(
        o,
        "{:>10} {:>12} {:>16} {:>16}",
        "UDP loss", "records", "local metric", "central metric"
    );
    // The g = 1 min / setup 1 min transfer share; the local one is
    // the same at every loss level. Each central view is a store over
    // the collector's keep-mask, so no record is cloned.
    let metric = |store: &SessionStore| {
        store.sweep(&[60.0], &[60.0], DEFAULT_OVERHEAD_FACTOR).cells[0].pct_transfers()
    };
    let local_pct = metric(&SessionStore::from_dataset(slac));
    for loss in [0.0, 0.02, 0.10, 0.30] {
        let model = CollectorModel { udp_loss: loss, disabled_servers: Default::default() };
        let central = SessionStore::from_dataset_masked(slac, &model.keep_mask(slac, 42));
        let central_pct = metric(&central);
        let _ = writeln!(
            o,
            "{:>9.0}% {:>12} {:>15.1}% {:>15.1}%",
            loss * 100.0,
            central.len(),
            local_pct,
            central_pct
        );
    }
    let _ = writeln!(
        o,
        "(the session-based feasibility metric degrades gracefully: sessions split only when\n their interior records drop, and the big sessions dominating the transfer count survive)"
    );
    o
}

fn campus_experiment(s: &Scenarios) -> String {
    let mut o = banner("Extension (paper future work): campus vs backbone link loads");
    let _ = writeln!(
        o,
        "(§VIII: \"Loads on links within the NERSC and ORNL campuses will be obtained\n and analyzed in future work\" — measured here on the simulated plant)"
    );
    let retr = s.ornl.log.filter_type(TransferType::Retr);
    let load_summary = |series: &gvc_logs::SnmpSeries| -> Option<Summary> {
        let loads: Vec<f64> = retr
            .records()
            .iter()
            .map(|r| link_load_bps(series, r.start_unix_us, r.end_unix_us()) / 1e9)
            .collect();
        Summary::of(&loads)
    };
    let _ = writeln!(o, "{}", summary_header("link (load in Gbps)"));
    for series in s.ornl.campus_nersc_out.iter().chain(&s.ornl.campus_ornl_in) {
        if let Some(sum) = load_summary(series) {
            let _ = writeln!(o, "{}", summary_row(&series.interface, &sum, 1.0, 2));
        }
    }
    for (i, series) in s.ornl.snmp_fwd.iter().enumerate().take(2) {
        if let Some(sum) = load_summary(series) {
            let label = format!("backbone rt{}", i + 1);
            let _ = writeln!(o, "{}", summary_row(&label, &sum, 1.0, 2));
        }
    }
    let _ = writeln!(
        o,
        "(campus links carry only the site's own transfers — slightly *lower* load than the\n backbone interfaces, which add transit background; neither is the bottleneck)"
    );
    o
}

fn interference_experiment() -> String {
    use gvc_workload::combined::{interference_ks, CombinedConfig, STUDY_PAIRS};

    let mut o = banner("Extension: cross-path interference on the shared backbone");
    let _ = writeln!(
        o,
        "(the paper analyzes each path independently; this measures how much each path's\n throughput distribution shifts when all four run concurrently — KS distance, 0 = none)"
    );
    let ks =
        interference_ks(CombinedConfig { seed: 4242, sessions_per_path: 25, horizon_days: 4.0 });
    let _ = writeln!(o, "{:>22} {:>14}", "path", "KS distance");
    for (i, d) in ks.iter().enumerate() {
        let (a, b) = STUDY_PAIRS[i];
        let _ = writeln!(o, "{:>22} {:>14.3}", format!("{}-{}", a.name(), b.name()), d);
    }
    let _ = writeln!(
        o,
        "(lightly loaded links => per-path analysis is sound, exactly finding iv's regime)"
    );
    o
}

fn variance_experiment(s: &Scenarios) -> String {
    use gvc_core::factors::variance_explained;
    use gvc_engine::calendar::CivilDateTime;

    let mut o = banner("Extension: variance decomposition (eta^2 per candidate factor)");
    let _ = writeln!(
        o,
        "(§VII lists seven candidate causes of throughput variance; eta^2 is the fraction\n of variance a factor's grouping explains on each synthetic dataset)"
    );
    let _ = writeln!(
        o,
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "stripes", "streams", "year", "hour"
    );
    let eta = |ds: &Dataset, f: &dyn Fn(&gvc_logs::TransferRecord) -> i64| -> String {
        match variance_explained(ds, f) {
            Some(v) => format!("{v:.3}"),
            None => "--".into(),
        }
    };
    let hour_of = |r: &gvc_logs::TransferRecord| {
        i64::from(CivilDateTime::from_unix(r.start_unix_us.div_euclid(1_000_000)).hour)
    };
    let year_of = |r: &gvc_logs::TransferRecord| {
        i64::from(CivilDateTime::from_unix(r.start_unix_us.div_euclid(1_000_000)).year)
    };
    for (name, ds) in [
        ("NCAR-NICS", &s.ncar),
        ("SLAC-BNL", &s.slac),
        ("NERSC-ORNL", &s.ornl.log),
        ("NERSC-ANL", &s.anl_tests()),
    ] {
        let _ = writeln!(
            o,
            "{name:<14} {:>12} {:>12} {:>12} {:>12}",
            eta(ds, &|r| i64::from(r.num_stripes)),
            eta(ds, &|r| i64::from(r.num_streams)),
            eta(ds, &year_of),
            eta(ds, &hour_of),
        );
    }
    let _ = writeln!(
        o,
        "(stripes/year matter at NCAR — the shrinking cluster; no single logged factor\n explains the test-transfer variance at NERSC-ORNL/ANL, pointing at server-side\n competition — exactly the paper's finding v. NCAR's hour column is a session\n confound: transfers of one session share both a start window and a cluster era.)"
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scale;
    use std::sync::OnceLock;

    fn scen() -> &'static Scenarios {
        static S: OnceLock<Scenarios> = OnceLock::new();
        S.get_or_init(|| Scenarios::generate(Scale::Quick))
    }

    #[test]
    fn every_experiment_renders() {
        let s = scen();
        for id in EXPERIMENT_IDS {
            let out = run_experiment(s, id).unwrap_or_else(|| panic!("{id} unknown"));
            assert!(out.len() > 40, "{id} output too short: {out}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment(scen(), "table99").is_none());
    }

    #[test]
    fn run_experiments_matches_serial_runs_in_input_order() {
        let s = scen();
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.insert(ids.len() / 2, "table99");
        let results = run_experiments(s, &ids);
        assert_eq!(results.len(), ids.len());
        for (id, got) in ids.iter().zip(&results) {
            assert_eq!(got, &run_experiment(s, id), "{id}");
        }
        assert!(results[ids.len() / 2].is_none());
    }

    #[test]
    fn table4_contains_percentages() {
        let out = run_experiment(scen(), "table4").unwrap();
        assert!(out.contains('%'));
        assert!(out.contains("NCAR-NICS"));
        assert!(out.contains("SLAC-BNL"));
    }

    #[test]
    fn fig8_reports_rho() {
        let out = run_experiment(scen(), "fig8").unwrap();
        assert!(out.contains("rho (overall)"));
        assert!(!out.contains("rho (overall) =      --"), "{out}");
    }
}

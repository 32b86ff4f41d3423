//! The `gvc` subcommands.

use crate::args::{CliError, ParsedArgs};
use gvc_core::sweep::SessionStore;
use gvc_core::vc_suitability::DEFAULT_OVERHEAD_FACTOR;
use gvc_core::ResilienceSummary;
use gvc_engine::SimTime;
use gvc_faults::FaultPlan;
use gvc_gridftp::{Driver, ServerCaps, SessionSpec, TransferJob, VcRequestSpec};
use gvc_logs::anonymize::{anonymize_dataset, AnonymizePolicy};
use gvc_logs::{parse_dataset, write_dataset, Dataset};
use gvc_net::NetworkSim;
use gvc_oscars::{Idc, SetupDelayModel};
use gvc_stats::Summary;
use gvc_telemetry::{
    JsonlSink, RunManifest, Telemetry, TimelineHandle, TraceEvent, DEFAULT_WIDTH_US,
};
use gvc_topology::{study_topology, Site};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// One subcommand: its name, usage line, one-line description, and
/// the flags it reads besides [`GLOBAL_FLAGS`].
pub struct CommandSpec {
    /// `gvc <name> …`.
    pub name: &'static str,
    /// The usage line `gvc --help` prints.
    pub usage: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Flag names (without `--`) the command accepts.
    pub flags: &'static [&'static str],
}

/// Flags every command accepts: the telemetry outputs.
pub const GLOBAL_FLAGS: [&str; 6] =
    ["trace", "metrics", "metrics-out", "perf", "perf-out", "timeline"];

/// Every subcommand, in `gvc --help` order.
pub const COMMANDS: [CommandSpec; 11] = [
    CommandSpec {
        name: "summary",
        usage: "gvc summary <log>",
        about: "descriptive statistics of a usage log",
        flags: &[],
    },
    CommandSpec {
        name: "sessions",
        usage: "gvc sessions <log> [--gap 60]",
        about: "group transfers into sessions",
        flags: &["gap"],
    },
    CommandSpec {
        name: "suitability",
        usage: "gvc suitability <log> [--gap 60] [--setup 60] [--factor 10]",
        about: "the Table IV virtual-circuit feasibility analysis",
        flags: &["gap", "setup", "factor"],
    },
    CommandSpec {
        name: "sweep",
        usage: "gvc sweep <log> [--gaps 0,60,120] [--delays 60,0.05] [--factor 10]",
        about: "the full Table III/IV grid in one incremental pass",
        flags: &["gaps", "delays", "factor"],
    },
    CommandSpec {
        name: "generate",
        usage: "gvc generate <ncar|slac|anl|ornl> <out> [--scale 0.1] [--seed 42]",
        about: "synthesize a calibrated dataset",
        flags: &["scale", "seed"],
    },
    CommandSpec {
        name: "anonymize",
        usage: "gvc anonymize <log> <out> [--policy drop|pseudonym]",
        about: "strip or pseudonymize remote endpoints",
        flags: &["policy"],
    },
    CommandSpec {
        name: "simulate",
        usage: "gvc simulate <out> [--seed 42] [--jobs 6] [--horizon 100000] [--faults <spec>]",
        about: "run the GridFTP-over-VC simulation and write its usage log",
        flags: &["seed", "jobs", "horizon", "faults"],
    },
    CommandSpec {
        name: "trace",
        usage: "gvc trace <profile|sessions|check> <trace.jsonl> [--folded <out>] [--max-setup-share 0.95]",
        about: "offline span analysis of a --trace JSONL file",
        flags: &["folded", "max-setup-share"],
    },
    CommandSpec {
        name: "perf",
        usage: "gvc perf <snapshot|diff|gate> [--out-dir <dir>] [--tolerance 0.15] [--threshold 2.0]",
        about: "host-performance snapshots, diffs, and the regression gate",
        flags: &[
            "out-dir",
            "reps",
            "scale",
            "only",
            "tolerance",
            "baseline-dir",
            "candidate-dir",
            "threshold",
        ],
    },
    CommandSpec {
        name: "scenario",
        usage: "gvc scenario <run|record|diff|list> [name] [--dir scenarios] [--all]",
        about: "run declarative scenario specs against committed goldens",
        // `--shards` is accepted and ignored: a scenario runs on one
        // lane, and benchmark set-ups still pass `--shards 1`.
        flags: &["dir", "all", "shards"],
    },
    CommandSpec {
        name: "timeline",
        usage: "gvc timeline <report|csv|check> <timeline.json> [--slo <rules>]",
        about: "report, export, or SLO-check a --timeline flight-recorder file",
        flags: &["slo"],
    },
];

fn unknown_command(name: &str) -> CliError {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    CliError(format!("unknown command {name:?}; available: {}", names.join(", ")))
}

/// Refuses the first flag that neither `spec` nor [`GLOBAL_FLAGS`]
/// lists, so a misspelt flag fails instead of running on a default.
fn check_flags(a: &ParsedArgs, spec: &CommandSpec) -> Result<(), CliError> {
    let known = |f: &str| spec.flags.contains(&f) || GLOBAL_FLAGS.contains(&f);
    match a.flags.keys().find(|f| !known(f)) {
        None => Ok(()),
        Some(flag) => {
            let own: Vec<String> = spec.flags.iter().map(|f| format!("--{f}")).collect();
            let own = if own.is_empty() { "no flags".to_owned() } else { own.join(", ") };
            Err(CliError(format!(
                "unknown flag --{flag} for `gvc {}` (it takes {own}, plus the global flags)",
                spec.name
            )))
        }
    }
}

/// Canonical argv reconstruction: positionals in order then sorted
/// `--flag=value` pairs, the string the manifest digest covers.
fn config_string(a: &ParsedArgs) -> String {
    let mut parts = a.positional.clone();
    let mut flags: Vec<_> = a.flags.iter().collect();
    flags.sort();
    for (k, v) in flags {
        parts.push(format!("--{k}={v}"));
    }
    parts.join(" ")
}

/// Builds the telemetry context requested by the global `--trace
/// <path>`, `--metrics`, `--metrics-out`, `--perf`/`--perf-out` and
/// `--timeline` flags; without any of them no trace sink, flight
/// recorder or perf recorder is attached to the subsystems.
fn telemetry_from_flags(a: &ParsedArgs) -> Result<Telemetry, CliError> {
    let mut telemetry = if let Some(path) = a.flags.get("trace") {
        let sink =
            JsonlSink::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
        Telemetry::with_sink(Arc::new(sink))
    } else {
        Telemetry::metrics_only()
    };
    if a.flags.contains_key("timeline") {
        telemetry = telemetry.with_timeline(TimelineHandle::new(DEFAULT_WIDTH_US));
    }
    if a.bool_flag("perf") || a.flags.contains_key("perf-out") {
        telemetry = telemetry.with_perf();
    }
    Ok(telemetry)
}

/// Parses the usage log at `path` inside the `log_load` perf phase,
/// counting its records.
fn load(path: &str, telemetry: &Telemetry) -> Result<Dataset, CliError> {
    let mut phase = telemetry.perf.phase("log_load");
    let f = File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    let ds = parse_dataset(BufReader::new(f)).map_err(|e| CliError(format!("{path}: {e}")))?;
    phase.items(ds.len() as u64);
    Ok(ds)
}

fn save(path: &str, ds: &Dataset) -> Result<(), CliError> {
    if Path::new(path).exists() {
        return Err(CliError(format!("{path} already exists; refusing to overwrite")));
    }
    let f = File::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(f);
    write_dataset(&mut w, ds)?;
    Ok(())
}

fn print_summary<W: Write>(
    w: &mut W,
    label: &str,
    s: &Summary,
    unit: &str,
) -> Result<(), CliError> {
    writeln!(
        w,
        "{label:<24} min {:>12.2}  q1 {:>12.2}  med {:>12.2}  mean {:>12.2}  q3 {:>12.2}  max {:>12.2}  {unit}",
        s.min, s.q1, s.median, s.mean, s.q3, s.max
    )?;
    Ok(())
}

fn cmd_summary<W: Write>(a: &ParsedArgs, w: &mut W, telemetry: &Telemetry) -> Result<(), CliError> {
    let ds = load(a.positional(1, "log")?, telemetry)?;
    writeln!(w, "{} transfers", ds.len())?;
    if ds.is_empty() {
        return Ok(());
    }
    let sizes: Vec<f64> = ds.sizes_bytes().iter().map(|b| b / 1e6).collect();
    let durs: Vec<f64> = ds.records().iter().map(gvc_logs::TransferRecord::duration_s).collect();
    print_summary(w, "size", &Summary::of(&sizes).expect("non-empty"), "MB")?;
    print_summary(w, "duration", &Summary::of(&durs).expect("non-empty"), "s")?;
    print_summary(
        w,
        "throughput",
        &Summary::of(&ds.throughputs_mbps()).expect("non-empty"),
        "Mbps",
    )?;
    let anonymized = ds.records().iter().filter(|r| r.remote.is_none()).count();
    if anonymized > 0 {
        writeln!(w, "note: {anonymized} records have anonymized remotes (not sessionizable)")?;
    }
    Ok(())
}

/// The `g` values of `gvc sessions`' sensitivity rows.
const SENSITIVITY_GAPS_S: [f64; 4] = [0.0, 60.0, 120.0, 300.0];

/// The one parameter check behind `sessions`, `suitability` and
/// `sweep`: gaps and setup delays must be finite and ≥ 0.
fn check_durations(flag: &str, values: &[f64]) -> Result<(), CliError> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(CliError(format!("--{flag} must be finite and >= 0")));
    }
    Ok(())
}

/// The overhead factor must be finite and > 0.
fn check_factor(factor: f64) -> Result<(), CliError> {
    if !factor.is_finite() || factor <= 0.0 {
        return Err(CliError("--factor must be finite and > 0".into()));
    }
    Ok(())
}

fn cmd_sessions<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let ds = load(a.positional(1, "log")?, telemetry)?;
    let gap: f64 = a.flag_or("gap", 60.0)?;
    check_durations("gap", &[gap])?;
    // One store behind both the g = --gap summary and the sensitivity
    // rows; the first sweep row is --gap itself.
    let store = SessionStore::from_dataset(&ds);
    let mut gaps = vec![gap];
    gaps.extend(SENSITIVITY_GAPS_S);
    let rows = store.sweep(&gaps, &[], DEFAULT_OVERHEAD_FACTOR).gap_rows;
    let g = &rows[0];
    writeln!(w, "gap parameter g = {gap} s")?;
    writeln!(
        w,
        "{} sessions over {} transfers ({} not sessionizable)",
        g.sessions,
        store.grouped(),
        store.ungroupable()
    )?;
    writeln!(
        w,
        "single-transfer {}  multi-transfer {}  largest {} transfers",
        g.single_transfer, g.multi_transfer, g.max_transfers
    )?;
    let sessions: Vec<_> = store.sessions_at(gap).into_iter().map(|r| store.session(r)).collect();
    if !sessions.is_empty() {
        let sizes: Vec<f64> = sessions.iter().map(|s| s.size_bytes() as f64 / 1e6).collect();
        let durs: Vec<f64> = sessions.iter().map(gvc_core::SessionView::duration_s).collect();
        print_summary(w, "session size", &Summary::of(&sizes).expect("non-empty"), "MB")?;
        print_summary(w, "session duration", &Summary::of(&durs).expect("non-empty"), "s")?;
    }
    // A quick g sweep for context.
    writeln!(w, "\nsensitivity:")?;
    for row in &rows[1..] {
        writeln!(
            w,
            "  g={:>4.0}s  sessions {:>7}  single {:>7}  max {:>7}",
            row.gap_s, row.sessions, row.single_transfer, row.max_transfers
        )?;
    }
    Ok(())
}

fn cmd_suitability<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let ds = load(a.positional(1, "log")?, telemetry)?;
    let gap: f64 = a.flag_or("gap", 60.0)?;
    let setup: f64 = a.flag_or("setup", 60.0)?;
    let factor: f64 = a.flag_or("factor", 10.0)?;
    check_durations("gap", &[gap])?;
    check_durations("setup", &[setup])?;
    check_factor(factor)?;
    let v = SessionStore::from_dataset(&ds).sweep(&[gap], &[setup], factor).cells[0];
    writeln!(w, "g = {gap} s, setup delay = {setup} s, overhead factor = {factor}")?;
    writeln!(w, "q3 transfer throughput: {:.1} Mbps", v.q3_throughput_mbps)?;
    writeln!(
        w,
        "suitable sessions:  {}/{} ({:.2}%)",
        v.suitable_sessions,
        v.total_sessions,
        v.pct_sessions()
    )?;
    writeln!(
        w,
        "suitable transfers: {}/{} ({:.2}%)",
        v.suitable_transfers,
        v.total_transfers,
        v.pct_transfers()
    )?;
    Ok(())
}

/// Parses a comma-separated `--flag` list of floats, e.g.
/// `--gaps 0,60,120`; returns `default` when the flag is absent.
fn list_flag_or(a: &ParsedArgs, name: &str, default: &[f64]) -> Result<Vec<f64>, CliError> {
    match a.flags.get(name) {
        None => Ok(default.to_vec()),
        Some(raw) => raw
            .split(',')
            .map(|s| {
                let s = s.trim();
                s.parse::<f64>().map_err(|_| CliError(format!("--{name}: {s:?} is not a number")))
            })
            .collect(),
    }
}

fn cmd_sweep<W: Write>(a: &ParsedArgs, w: &mut W, telemetry: &Telemetry) -> Result<(), CliError> {
    let ds = load(a.positional(1, "log")?, telemetry)?;
    let gaps = list_flag_or(a, "gaps", &[0.0, 60.0, 120.0])?;
    let delays = list_flag_or(a, "delays", &[60.0, 0.05])?;
    let factor: f64 = a.flag_or("factor", 10.0)?;
    check_durations("gaps", &gaps)?;
    check_durations("delays", &delays)?;
    check_factor(factor)?;
    let store = SessionStore::from_dataset(&ds);
    let sweep = store.sweep_with_telemetry(&gaps, &delays, factor, telemetry);
    let emit_phase = telemetry.perf.phase("report_emission");
    writeln!(
        w,
        "{} transfers across {} pairs ({} not sessionizable, {} degenerate)",
        ds.len(),
        store.n_pairs(),
        sweep.ungroupable,
        sweep.degenerate_records
    )?;
    writeln!(w, "q3 transfer throughput: {:.1} Mbps", sweep.q3_throughput_mbps)?;
    writeln!(w, "\nsessions vs gap:")?;
    for row in &sweep.gap_rows {
        writeln!(
            w,
            "  g={:>6.1}s  sessions {:>8}  single {:>8}  <=2 {:>5.1}%  max {:>7}  100+ {:>5}",
            row.gap_s,
            row.sessions,
            row.single_transfer,
            row.pct_with_1_or_2,
            row.max_transfers,
            row.with_100_plus
        )?;
    }
    writeln!(w, "\nVC suitability (factor {factor}):")?;
    for c in &sweep.cells {
        writeln!(
            w,
            "  g={:>6.1}s  setup={:>7.2}s  sessions {:>6.2}%  transfers {:>6.2}%",
            c.gap_s,
            c.setup_delay_s,
            c.pct_sessions(),
            c.pct_transfers()
        )?;
    }
    drop(emit_phase);
    Ok(())
}

fn cmd_generate<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let scenario = a.positional(1, "scenario")?.to_owned();
    let out = a.positional(2, "out")?.to_owned();
    let scale: f64 = a.flag_or("scale", 0.1)?;
    let seed: u64 = a.flag_or("seed", 42u64)?;
    if !(scale > 0.0 && scale <= gvc_workload::MAX_SCALE) {
        let max = gvc_workload::MAX_SCALE;
        return Err(CliError(format!("--scale must be positive and at most {max}")));
    }
    let mut gen_phase = telemetry.perf.phase("workload_generation");
    // Dispatch over the generator registry; the error path enumerates
    // the registered generators instead of a hardcoded list.
    let Some(generator) = gvc_workload::builtin_generator(&scenario) else {
        return Err(CliError(format!(
            "unknown scenario {scenario:?} (want {}; corpus scenarios run with `gvc scenario \
             run <name>`, see `gvc scenario list`)",
            gvc_workload::builtin_names().join("|")
        )));
    };
    let ds = (generator.generate)(seed, scale);
    gen_phase.items(ds.len() as u64);
    drop(gen_phase);
    let emit_phase = telemetry.perf.phase("report_emission");
    save(&out, &ds)?;
    drop(emit_phase);
    writeln!(w, "wrote {} transfers to {out}", ds.len())?;
    Ok(())
}

fn cmd_anonymize<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let input = a.positional(1, "log")?.to_owned();
    let out = a.positional(2, "out")?.to_owned();
    let policy = match a.str_flag_or("policy", "drop") {
        "drop" => AnonymizePolicy::Drop,
        "pseudonym" => AnonymizePolicy::Pseudonym,
        other => return Err(CliError(format!("unknown --policy {other:?}"))),
    };
    let ds = load(&input, telemetry)?;
    let anon = anonymize_dataset(&ds, policy);
    save(&out, &anon)?;
    writeln!(w, "wrote {} anonymized transfers to {out}", anon.len())?;
    Ok(())
}

/// Builds the canonical study workload `simulate` runs: NERSC→ORNL
/// over the study topology, one circuit-backed bulk session of `jobs`
/// transfers plus standalone best-effort transfers, so kernel, IDC,
/// transfer, and net activity all show up in a single instrumented run.
fn study_driver(
    seed: u64,
    jobs: usize,
    faults: Option<FaultPlan>,
    telemetry: &Telemetry,
) -> Driver {
    let t = study_topology();
    let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
    let study_path = t.path(Site::Nersc, Site::Ornl);
    // Light general-purpose cross traffic (§VII-C: backbone links are
    // lightly loaded but not idle), so foreground flows see fair-share
    // competition and `net.bg_util` has a background share to report.
    let background = gvc_net::background::generate_background(
        &t.graph,
        &gvc_net::background::BackgroundConfig::default(),
        SimTime::from_secs(300),
        seed,
    );
    let idc = Idc::new(t.graph.clone(), SetupDelayModel::one_minute());
    let sim = NetworkSim::new(t.graph, 0);
    let mut d = Driver::new(sim, seed).with_idc(idc).with_telemetry(telemetry);
    d.schedule_background(background);
    if telemetry.timeline.is_some() {
        // The flight recorder derives `net.link_util[..]` /
        // `net.bg_util[..]` from monitored links only; watch every
        // hop of the study path.
        for link in study_path.links {
            d.sim_mut().monitor_link(link);
        }
    }
    if let Some(plan) = faults {
        d = d.with_faults(plan);
    }
    let src = d.register_cluster("dtn.nersc.gov", nersc, ServerCaps::default(), 2);
    let dst = d.register_cluster("dtn.ornl.gov", ornl, ServerCaps::default(), 2);

    let job = |mb: u64| TransferJob { size_bytes: mb << 20, ..TransferJob::default() };
    let bulk: Vec<TransferJob> = (0..jobs).map(|i| job(256 + 128 * (i as u64 % 4))).collect();
    let spec = SessionSpec::sequential(bulk, 1.0).with_vc(VcRequestSpec {
        rate_bps: 1e9,
        max_duration_s: 3600.0,
        wait_for_circuit: true,
    });
    d.schedule_session(SimTime::ZERO, src, dst, spec);
    for i in 0..jobs.div_ceil(2) {
        d.schedule_transfer(SimTime::from_secs(30 + 60 * i as u64), src, dst, job(128));
    }
    d
}

/// `gvc simulate <out>`: runs the study workload to `--horizon` and
/// writes its usage log. A job count above the `u32::MAX` ceiling
/// scenario session counts have, or a horizon the sim clock cannot
/// hold, is refused before the run rather than panicking mid-run.
fn cmd_simulate<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let out = a.positional(1, "out")?.to_owned();
    let seed: u64 = a.flag_or("seed", 42u64)?;
    let jobs: usize = a.flag_or("jobs", 6usize)?;
    if jobs == 0 || u32::try_from(jobs).is_err() {
        return Err(CliError(format!("--jobs must be between 1 and {}", u32::MAX)));
    }
    let horizon_s: f64 = a.flag_or("horizon", 100_000.0)?;
    let horizon =
        SimTime::try_from_secs_f64(horizon_s).filter(|_| horizon_s > 0.0).ok_or_else(|| {
            CliError("--horizon must be positive and within the sim clock's range".into())
        })?;
    let faults = a
        .flags
        .get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| CliError(e.to_string())))
        .transpose()?;
    let result = study_driver(seed, jobs, faults, telemetry).run(horizon);
    if let Some(tl) = &telemetry.timeline {
        // Per-link utilisation from the integer SNMP bins.
        result.sim.record_timeline(tl);
    }
    let emit_phase = telemetry.perf.phase("report_emission");
    save(&out, &result.log)?;
    drop(emit_phase);
    writeln!(w, "wrote {} transfers to {out}", result.log.len())?;
    if let Some(stats) = &result.idc_stats {
        writeln!(w, "circuits: {} admitted, {} blocked", stats.admitted, stats.blocked)?;
    }
    if let Some(r) = &result.resilience {
        writeln!(
            w,
            "resilience: {}/{} circuit sessions established ({:.1}% success), \
             {} faults injected, {} retries, {} IP fallbacks, {} preemptions",
            r.vc_established,
            r.vc_requested,
            r.session_success_rate() * 100.0,
            r.faults_injected,
            r.retries,
            r.fallbacks,
            r.preemptions
        )?;
        if r.mean_recovery_latency_s > 0.0 {
            writeln!(w, "mean recovery latency: {:.2} s", r.mean_recovery_latency_s)?;
        }
        // Fold the run's recovery counters into the feasibility
        // framing: each retry re-pays circuit signalling, raising the
        // setup cost a session has to amortize.
        let summary = ResilienceSummary {
            vc_requested: r.vc_requested,
            vc_established: r.vc_established,
            faults_injected: r.faults_injected,
            retries: r.retries,
            fallbacks: r.fallbacks,
            mean_recovery_latency_s: r.mean_recovery_latency_s,
        };
        writeln!(
            w,
            "setup amortization under failures: {:.2}x one clean setup",
            summary.setup_amortization_factor()
        )?;
        if let Some(open) = result.open_reservations {
            writeln!(w, "open reservations after run: {open}")?;
        }
    }
    Ok(())
}

fn load_trace(path: &str, telemetry: &Telemetry) -> Result<gvc_telemetry::TraceModel, CliError> {
    let mut phase = telemetry.perf.phase("trace_analysis");
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    let model = gvc_telemetry::TraceModel::from_text(&text)
        .map_err(|e| CliError(format!("{path}: {e}")))?;
    phase.items(model.records.len() as u64);
    Ok(model)
}

fn cmd_trace_profile<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let model = load_trace(a.positional(2, "trace.jsonl")?, telemetry)?;
    let p = gvc_telemetry::profile(&model);
    if p.rows.is_empty() {
        writeln!(w, "no spans in trace ({} records)", model.records.len())?;
        return Ok(());
    }
    writeln!(w, "{:<24} {:>8} {:>14} {:>14}", "phase", "count", "total s", "self s")?;
    for row in &p.rows {
        writeln!(
            w,
            "{:<24} {:>8} {:>14.3} {:>14.3}",
            row.name,
            row.count,
            row.total_us as f64 / 1e6,
            row.self_us as f64 / 1e6
        )?;
    }
    if let Some(main) = &p.main {
        writeln!(
            w,
            "\nreconciliation: {:.6} s attributed across phases == {:.6} s simulated in {}",
            main.attributed_us as f64 / 1e6,
            (main.end_us - main.start_us) as f64 / 1e6,
            main.name
        )?;
    }
    if let Some(path) = a.flags.get("folded") {
        let f = File::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
        let mut fw = BufWriter::new(f);
        for (stack, weight) in &p.folded {
            writeln!(fw, "{stack} {weight}")?;
        }
        fw.flush()?;
        writeln!(w, "wrote {} folded stacks to {path}", p.folded.len())?;
    }
    Ok(())
}

/// One character per timeline cell for the session Gantt rows.
fn phase_char(phase: gvc_telemetry::SessionPhase) -> char {
    match phase {
        gvc_telemetry::SessionPhase::Setup => '=',
        gvc_telemetry::SessionPhase::Transfer => '#',
        gvc_telemetry::SessionPhase::Wait => '.',
        gvc_telemetry::SessionPhase::Other => ' ',
    }
}

fn cmd_trace_sessions<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let model = load_trace(a.positional(2, "trace.jsonl")?, telemetry)?;
    let rows = gvc_telemetry::sessions(&model);
    if rows.is_empty() {
        writeln!(w, "no session spans in trace ({} spans)", model.spans.len())?;
        return Ok(());
    }
    writeln!(w, "{} sessions   (timeline: '=' setup  '#' transfer  '.' wait)", rows.len())?;
    const WIDTH: i64 = 40;
    for r in &rows {
        let dur = r.end_us - r.start_us;
        let share = |us: i64| if dur > 0 { 100.0 * us as f64 / dur as f64 } else { 0.0 };
        let mut bar = String::new();
        for cell in 0..WIDTH {
            // Midpoint sampling over an ordered, contiguous partition.
            let t = r.start_us + (dur * (2 * cell + 1)) / (2 * WIDTH).max(1);
            let phase = r
                .segments
                .iter()
                .find(|&&(s, e, _)| t >= s && t < e)
                .map_or(gvc_telemetry::SessionPhase::Other, |&(_, _, p)| p);
            bar.push(phase_char(phase));
        }
        writeln!(
            w,
            "session {:>3}  [{}]  {:>9.1}s total  setup {:>5.1}%  transfer {:>5.1}%  \
             {} transfers, {} attempts{}",
            r.session.map_or_else(|| "?".to_owned(), |s| s.to_string()),
            bar,
            dur as f64 / 1e6,
            share(r.setup_us),
            share(r.transfer_us),
            r.transfers,
            r.attempts,
            if r.fallback { ", fell back to IP" } else { "" }
        )?;
    }
    Ok(())
}

fn cmd_trace_check<W: Write>(
    a: &ParsedArgs,
    w: &mut W,
    telemetry: &Telemetry,
) -> Result<(), CliError> {
    let path = a.positional(2, "trace.jsonl")?.to_owned();
    let max_setup_share: f64 = a.flag_or("max-setup-share", 0.95)?;
    if !(0.0..=1.0).contains(&max_setup_share) {
        return Err(CliError("--max-setup-share must be in [0, 1]".into()));
    }
    let model = load_trace(&path, telemetry)?;
    let report = gvc_telemetry::check(&model, &gvc_telemetry::CheckConfig { max_setup_share });
    writeln!(
        w,
        "checked {} spans, {} circuit reservations, {} sessions",
        report.spans, report.circuits, report.sessions
    )?;
    if report.clean() {
        writeln!(w, "ok")?;
        return Ok(());
    }
    for v in &report.violations {
        writeln!(w, "violation: {v}")?;
    }
    Err(CliError(format!("{}: {} trace check violation(s)", path, report.violations.len())))
}

/// `gvc trace <profile|sessions|check> <trace.jsonl>`: offline span
/// analysis over a `--trace` JSONL file.
fn cmd_trace<W: Write>(a: &ParsedArgs, w: &mut W, telemetry: &Telemetry) -> Result<(), CliError> {
    match a.positional(1, "profile|sessions|check")? {
        "profile" => cmd_trace_profile(a, w, telemetry),
        "sessions" => cmd_trace_sessions(a, w, telemetry),
        "check" => cmd_trace_check(a, w, telemetry),
        other => Err(CliError(format!(
            "unknown trace subcommand {other:?} (want profile|sessions|check)"
        ))),
    }
}

/// Dispatches one parsed command line to its implementation.
///
/// The global `--trace <path>`, `--metrics`, and `--metrics-out
/// <path>` flags work with every subcommand: `--trace` streams JSONL
/// events (starting with a `run.manifest` record) to the given path,
/// `--metrics` appends the Prometheus-style exposition to the output
/// once the command finishes, and `--metrics-out` writes that same
/// exposition to a file instead. `--perf` appends a host-performance
/// `PerfSnapshot` named after the command (per-phase wall-clock
/// seconds and throughput, total seconds, peak RSS) as JSON, and
/// `--perf-out <path>` writes that snapshot to a file for
/// `gvc perf diff`.
/// `--timeline <path>` attaches the sim-time flight recorder and
/// writes its windowed-series JSON to the file once the command
/// finishes.
/// Without these flags the telemetry context is inert.
pub fn run_command<W: Write>(a: &ParsedArgs, w: &mut W) -> Result<(), CliError> {
    let command = a.positional(0, "command")?;
    let spec =
        COMMANDS.iter().find(|c| c.name == command).ok_or_else(|| unknown_command(command))?;
    check_flags(a, spec)?;
    let telemetry = telemetry_from_flags(a)?;
    let manifest = RunManifest::new(command, a.flag_or("seed", 42u64)?, &config_string(a));
    telemetry.tracer.emit_with(|| {
        TraceEvent::new(0, "run.manifest")
            .field("tool", manifest.tool.clone())
            .field("seed", manifest.seed)
            .field("config_digest", format!("{:016x}", manifest.config_digest))
            .field("config", manifest.config.clone())
            .field("version", manifest.version.clone())
            .field("started_unix_ms", manifest.started_unix_ms as i64)
    });
    match command {
        "summary" => cmd_summary(a, w, &telemetry),
        "sessions" => cmd_sessions(a, w, &telemetry),
        "suitability" => cmd_suitability(a, w, &telemetry),
        "sweep" => cmd_sweep(a, w, &telemetry),
        "generate" => cmd_generate(a, w, &telemetry),
        "anonymize" => cmd_anonymize(a, w, &telemetry),
        "simulate" => cmd_simulate(a, w, &telemetry),
        "trace" => cmd_trace(a, w, &telemetry),
        "perf" => crate::perf::cmd_perf(a, w),
        "scenario" => crate::scenario::cmd_scenario(a, w, &telemetry),
        "timeline" => crate::timeline::cmd_timeline(a, w),
        other => Err(unknown_command(other)),
    }?;
    telemetry.tracer.flush();
    if let Some(report) = telemetry.perf.report(command) {
        let json = report.to_json();
        if let Some(path) = a.flags.get("perf-out") {
            std::fs::write(path, &json)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
        if a.bool_flag("perf") {
            write!(w, "{json}")?;
        }
    }
    if let Some(path) = a.flags.get("metrics-out") {
        std::fs::write(path, telemetry.registry.render())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if a.bool_flag("metrics") {
        write!(w, "{}", telemetry.registry.render())?;
    }
    if let Some(path) = a.flags.get("timeline") {
        if let Some(tl) = &telemetry.timeline {
            std::fs::write(path, tl.to_json())
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_flags;
    use gvc_logs::{TransferRecord, TransferType};

    fn args(v: &[&str]) -> ParsedArgs {
        parse_flags(v.iter().map(std::string::ToString::to_string)).unwrap()
    }

    fn run(v: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run_command(&args(v), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("gvc-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
    }

    fn sample_log(path: &str) {
        let mut ds = Dataset::new();
        for i in 0..20i64 {
            ds.push(TransferRecord::simple(
                TransferType::Retr,
                (i as u64 + 1) * 50_000_000,
                i * 30_000_000,
                10_000_000,
                "srv.example",
                Some("peer.example"),
            ));
        }
        ds.sort();
        let f = File::create(path).expect("create");
        let mut w = BufWriter::new(f);
        write_dataset(&mut w, &ds).expect("write");
    }

    #[test]
    fn summary_reports_counts_and_stats() {
        let log = tmpfile("summary.log");
        sample_log(&log);
        let out = run(&["summary", &log]).unwrap();
        assert!(out.contains("20 transfers"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn sessions_with_custom_gap() {
        let log = tmpfile("sessions.log");
        sample_log(&log);
        // 30 s starts, 10 s durations -> 20 s gaps: one session at
        // g=60, twenty at g=0.
        let out = run(&["sessions", &log, "--gap", "60"]).unwrap();
        assert!(out.contains("1 sessions over 20 transfers"), "{out}");
        let out0 = run(&["sessions", &log, "--gap", "0"]).unwrap();
        assert!(out0.contains("20 sessions"), "{out0}");
    }

    #[test]
    fn suitability_outputs_percentages() {
        let log = tmpfile("suit.log");
        sample_log(&log);
        let out = run(&["suitability", &log, "--setup", "0.05"]).unwrap();
        assert!(out.contains("suitable sessions"), "{out}");
        assert!(out.contains('%'));
    }

    #[test]
    fn sweep_prints_grid_and_agrees_with_suitability() {
        let log = tmpfile("sweep.log");
        sample_log(&log);
        let out = run(&["sweep", &log, "--gaps", "0,60", "--delays", "0.05", "--metrics"]).unwrap();
        assert!(out.contains("sessions vs gap"), "{out}");
        assert!(out.contains("g=   0.0s"), "{out}");
        assert!(out.contains("g=  60.0s"), "{out}");
        assert!(out.contains("VC suitability"), "{out}");
        // Telemetry exposition rides along via --metrics.
        assert!(out.contains("analysis_sweep_records_total 20"), "{out}");
        // The one-pass grid prints the same percentage the per-gap
        // suitability command computes.
        let single = run(&["suitability", &log, "--gap", "60", "--setup", "0.05"]).unwrap();
        let pct = single
            .lines()
            .find(|l| l.contains("suitable sessions"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|t| t.split('%').next())
            .unwrap()
            .to_owned();
        let grid_line =
            out.lines().find(|l| l.contains("g=  60.0s") && l.contains("setup=")).unwrap();
        assert!(grid_line.contains(&format!("sessions {pct:>6}%")), "{grid_line} vs {pct}");
    }

    #[test]
    fn sweep_rejects_bad_lists() {
        let log = tmpfile("sweep-bad.log");
        sample_log(&log);
        let err = run(&["sweep", &log, "--gaps", "0,abc"]).unwrap_err();
        assert!(err.0.contains("not a number"), "{}", err.0);
        let err = run(&["sweep", &log, "--gaps", "-5"]).unwrap_err();
        assert!(err.0.contains("--gaps"), "{}", err.0);
        let err = run(&["sweep", &log, "--delays", "-1"]).unwrap_err();
        assert!(err.0.contains("--delays"), "{}", err.0);
        let err = run(&["sweep", &log, "--factor", "0"]).unwrap_err();
        assert!(err.0.contains("--factor"), "{}", err.0);
    }

    #[test]
    fn generate_roundtrips_through_summary() {
        let out_path = tmpfile("gen.log");
        let msg = run(&["generate", "ncar", &out_path, "--scale", "0.02", "--seed", "7"]).unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let sum = run(&["summary", &out_path]).unwrap();
        assert!(sum.contains("transfers"));
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn generate_refuses_overwrite() {
        let out_path = tmpfile("no-overwrite.log");
        std::fs::write(&out_path, "precious").unwrap();
        let err = run(&["generate", "ncar", &out_path, "--scale", "0.01"]).unwrap_err();
        assert!(err.0.contains("refusing to overwrite"));
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn generate_refuses_scale_outside_its_bounds() {
        let out_path = tmpfile("bad-scale.log");
        for scale in ["0", "-1", "NaN", "inf", "11", "1e300"] {
            let err = run(&["generate", "ncar", &out_path, "--scale", scale]).unwrap_err();
            assert!(err.0.contains("--scale"), "{scale}: {}", err.0);
        }
        assert!(!std::path::Path::new(&out_path).exists(), "nothing was generated");
    }

    #[test]
    fn unknown_flags_are_refused_naming_flag_and_command() {
        // A misspelt seed used to run silently on the default seed 42.
        let out_path = tmpfile("sead.log");
        let err = run(&["simulate", &out_path, "--sead", "7", "--jobs", "2"]).unwrap_err();
        assert!(err.0.contains("--sead") && err.0.contains("`gvc simulate`"), "{}", err.0);
        assert!(!std::path::Path::new(&out_path).exists(), "refused before the run");
        // `perf diff` lost `--json`; a valued `--json` used to be ignored.
        let err = run(&["perf", "diff", "a.json", "b.json", "--json", "x"]).unwrap_err();
        assert!(err.0.contains("--json") && err.0.contains("`gvc perf`"), "{}", err.0);
        // A flag of one command is unknown to another.
        let err = run(&["summary", "x.log", "--gap", "60"]).unwrap_err();
        assert!(err.0.contains("--gap") && err.0.contains("no flags"), "{}", err.0);
    }

    #[test]
    fn global_flags_and_ignored_shards_are_accepted() {
        let dir = std::env::temp_dir().join(format!("gvc-cli-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir = dir.to_string_lossy().into_owned();
        let metrics = tmpfile("shards.prom");
        let out =
            run(&["scenario", "list", "--dir", &dir, "--shards", "1", "--metrics-out", &metrics])
                .unwrap();
        assert!(out.contains("no *.scn specs"), "{out}");
    }

    #[test]
    fn anonymize_drop_policy() {
        let log = tmpfile("anon-in.log");
        let out_path = tmpfile("anon-out.log");
        sample_log(&log);
        run(&["anonymize", &log, &out_path, "--policy", "drop"]).unwrap();
        let sum = run(&["summary", &out_path]).unwrap();
        assert!(sum.contains("anonymized remotes"), "{sum}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn simulate_writes_log_and_emits_telemetry() {
        let out_path = tmpfile("sim.log");
        let trace_path = tmpfile("sim.jsonl");
        let msg = run(&[
            "simulate",
            &out_path,
            "--seed",
            "7",
            "--jobs",
            "4",
            "--trace",
            &trace_path,
            "--metrics",
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        assert!(msg.contains("circuits: 1 admitted"), "{msg}");
        // Exposition is appended after the command output.
        for metric in [
            "sim_events_dispatched_total",
            "idc_admitted_total",
            "gridftp_transfer_throughput_mbps_bucket",
        ] {
            assert!(msg.contains(metric), "exposition missing {metric}");
        }
        // The trace starts with the manifest and covers the IDC, the
        // fluid simulator and the driver's transfer spans.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let first = trace.lines().next().unwrap();
        assert!(first.contains("\"kind\":\"run.manifest\""), "{first}");
        assert!(first.contains("\"seed\":7"), "{first}");
        for needle in ["\"idc.admit\"", "\"session.transfer\"", "\"net.fairshare\""] {
            assert!(trace.contains(needle), "trace missing {needle}");
        }
        // The log round-trips through the analysis commands.
        let sum = run(&["summary", &out_path]).unwrap();
        assert!(sum.contains("6 transfers"), "{sum}");
        std::fs::remove_file(&out_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn simulate_rejects_bad_knobs() {
        for jobs in ["0", "4294967296", "18446744073709551615"] {
            let err = run(&["simulate", "/tmp/x.log", "--jobs", jobs]).unwrap_err();
            assert!(err.0.contains("--jobs"), "{jobs}: {}", err.0);
        }
        let err = run(&["simulate", "/tmp/x.log", "--horizon", "-5"]).unwrap_err();
        assert!(err.0.contains("--horizon"));
        let err = run(&["simulate", "/tmp/x.log", "--faults", "bogus=1"]).unwrap_err();
        assert!(err.0.contains("invalid fault spec"), "{}", err.0);
    }

    #[test]
    fn simulate_with_faults_reports_recovery_and_determinism() {
        // A plan that kills the first provision: the run must show a
        // retry, an eventually-established circuit, and no leaked
        // reservations — and the trace must be byte-identical across
        // runs with the same seed (modulo the wall-clock manifest).
        let sim_run = |tag: &str| {
            let out_path = tmpfile(&format!("sim-faults-{tag}.log"));
            let trace_path = tmpfile(&format!("sim-faults-{tag}.jsonl"));
            let msg = run(&[
                "simulate",
                &out_path,
                "--seed",
                "7",
                "--jobs",
                "3",
                "--faults",
                "seed=1,fail-first=1",
                "--trace",
                &trace_path,
            ])
            .unwrap();
            let trace = std::fs::read_to_string(&trace_path).unwrap();
            std::fs::remove_file(&out_path).ok();
            std::fs::remove_file(&trace_path).ok();
            // Strip the run.manifest line (wall-clock start stamp);
            // everything else must reproduce.
            let body: String = trace.lines().skip(1).map(|l| format!("{l}\n")).collect();
            (msg, body)
        };
        let (msg, body1) = sim_run("a");
        assert!(msg.contains("resilience: 1/1 circuit sessions established"), "{msg}");
        assert!(msg.contains("1 faults injected, 1 retries"), "{msg}");
        assert!(msg.contains("open reservations after run: 0"), "{msg}");
        assert!(body1.contains("\"kind\":\"fault.injected\""), "trace missing fault.injected");
        // The retry and the recovery are span ends: attempt 1 fails
        // and retries, attempt 2 establishes, and so does the setup.
        let model = gvc_telemetry::TraceModel::from_text(&body1).unwrap();
        let ends: Vec<(&str, Option<&str>)> = model
            .records
            .iter()
            .filter(|r| r.kind == "span.end")
            .filter_map(|r| Some((r.text("outcome")?, r.text("reason"))))
            .collect();
        assert_eq!(
            ends,
            [("retry", Some("signalling_failure")), ("established", None), ("established", None)]
        );
        let attempts: Vec<Option<i64>> = model
            .spans
            .iter()
            .filter(|s| s.name == "vc.attempt")
            .map(|s| s.fields.iter().find(|(k, _)| k == "attempt").and_then(|(_, v)| v.as_i64()))
            .collect();
        assert_eq!(attempts, [Some(1), Some(2)]);
        assert!(model.spans.iter().any(|s| s.name == "vc.backoff"), "trace missing vc.backoff");
        // Span events carry only simulation time, so they are part of
        // the byte-identical body.
        assert!(body1.contains("\"kind\":\"span.start\""), "trace missing span.start");
        assert!(body1.contains("\"kind\":\"span.end\""), "trace missing span.end");
        assert!(body1.contains("\"name\":\"session.vc_setup\""), "trace missing vc_setup span");
        let (_, body2) = sim_run("b");
        assert_eq!(body1, body2, "same seed must give a byte-identical trace");
    }

    /// Runs the simulation with tracing on and returns the trace path
    /// (caller removes it).
    fn simulate_with_trace(tag: &str, faults: Option<&str>) -> String {
        let out_path = tmpfile(&format!("trace-src-{tag}.log"));
        let trace_path = tmpfile(&format!("trace-src-{tag}.jsonl"));
        let mut argv =
            vec!["simulate", &out_path, "--seed", "7", "--jobs", "3", "--trace", &trace_path];
        if let Some(spec) = faults {
            argv.push("--faults");
            argv.push(spec);
        }
        run(&argv).unwrap();
        std::fs::remove_file(&out_path).ok();
        trace_path
    }

    #[test]
    fn trace_profile_reconciles_with_simulated_time() {
        let trace_path = simulate_with_trace("profile", None);
        let folded_path = tmpfile("profile.folded");
        let out = run(&["trace", "profile", &trace_path, "--folded", &folded_path]).unwrap();
        // The per-phase table names the driver phases.
        for phase in ["session.vc_setup", "session.transfer", "kernel.queue_wait", "driver.run"] {
            assert!(out.contains(phase), "profile missing {phase}:\n{out}");
        }
        // The footer's attributed sum equals the total simulated time.
        let footer = out.lines().find(|l| l.starts_with("reconciliation:")).expect("footer");
        let secs: Vec<f64> =
            footer.split_whitespace().filter_map(|t| t.parse::<f64>().ok()).collect();
        assert_eq!(secs.len(), 2, "{footer}");
        assert!((secs[0] - secs[1]).abs() < 1e-9, "{footer}");
        assert!(secs[1] > 60.0, "a VC run simulates past the setup minute: {footer}");
        // Folded stacks are root;..;leaf lines with integer weights.
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
            assert!(weight.parse::<i64>().expect("weight") > 0, "{line}");
            assert!(!stack.is_empty());
        }
        assert!(
            folded.lines().any(|l| l.starts_with("driver.run;")),
            "no driver.run-rooted stack:\n{folded}"
        );
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&folded_path).ok();
    }

    #[test]
    fn trace_sessions_prints_timeline_rows() {
        let trace_path = simulate_with_trace("sessions", None);
        let out = run(&["trace", "sessions", &trace_path]).unwrap();
        assert!(out.contains("sessions"), "{out}");
        assert!(out.contains("session   0"), "{out}");
        assert!(out.contains("setup"), "{out}");
        // The VC session's bar shows both setup and transfer cells.
        let row = out.lines().find(|l| l.contains("session   0")).unwrap();
        assert!(row.contains('='), "no setup cells: {row}");
        assert!(row.contains('#'), "no transfer cells: {row}");
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn trace_check_passes_clean_and_fails_truncated() {
        let trace_path = simulate_with_trace("check", Some("seed=1,fail-first=1"));
        let out = run(&["trace", "check", &trace_path]).unwrap();
        assert!(out.contains("ok"), "{out}");
        assert!(out.contains("circuit reservations"), "{out}");

        // Deliberately truncate: drop the span.end of the driver.run
        // root span, leaving it unterminated.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let root_id = text
            .lines()
            .find(|l| {
                l.contains("\"kind\":\"span.start\"") && l.contains("\"name\":\"driver.run\"")
            })
            .and_then(|l| l.split("\"span\":").nth(1))
            .and_then(|t| t.split(',').next())
            .expect("driver.run span id")
            .to_owned();
        // The root's span.end carries no extra fields, so the id is
        // terminated by the closing brace (no prefix-id false match).
        let needle = format!("\"kind\":\"span.end\",\"span\":{root_id}}}");
        assert!(text.contains(&needle), "no matching span.end for driver.run");
        let truncated: String =
            text.lines().filter(|l| !l.contains(&needle)).map(|l| format!("{l}\n")).collect();
        let bad_path = tmpfile("check-truncated.jsonl");
        std::fs::write(&bad_path, truncated).unwrap();
        let err = run(&["trace", "check", &bad_path]).unwrap_err();
        assert!(err.0.contains("violation"), "{}", err.0);
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn trace_check_bounds_setup_share() {
        let trace_path = simulate_with_trace("share", None);
        // The bulk session amortizes its one-minute setup, but not to
        // under 1% — an absurdly tight bound must trip.
        let err = run(&["trace", "check", &trace_path, "--max-setup-share", "0.01"]).unwrap_err();
        assert!(err.0.contains("violation"), "{}", err.0);
        let err = run(&["trace", "check", &trace_path, "--max-setup-share", "2"]).unwrap_err();
        assert!(err.0.contains("must be in"), "{}", err.0);
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn trace_rejects_unknown_subcommand_and_missing_file() {
        let err = run(&["trace", "explode", "x.jsonl"]).unwrap_err();
        assert!(err.0.contains("unknown trace subcommand"), "{}", err.0);
        let err = run(&["trace", "profile", "/nonexistent/t.jsonl"]).unwrap_err();
        assert!(err.0.contains("cannot open"), "{}", err.0);
    }

    #[test]
    fn metrics_out_writes_exposition_to_file_not_stdout() {
        let out_path = tmpfile("mout.log");
        let metrics_path = tmpfile("mout.prom");
        let msg = run(&[
            "simulate",
            &out_path,
            "--seed",
            "7",
            "--jobs",
            "2",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        assert!(!msg.contains("sim_events_dispatched_total"), "exposition leaked to stdout: {msg}");
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(text.contains("# TYPE sim_events_dispatched_total counter"), "{text}");
        assert!(text.contains("idc_admitted_total 1"), "{text}");
        // Both flags together: file and stdout.
        let out2 = tmpfile("mout2.log");
        let metrics2 = tmpfile("mout2.prom");
        let msg2 = run(&[
            "simulate",
            &out2,
            "--seed",
            "7",
            "--jobs",
            "2",
            "--metrics",
            "--metrics-out",
            &metrics2,
        ])
        .unwrap();
        assert!(msg2.contains("sim_events_dispatched_total"), "{msg2}");
        // Wall-clock histograms differ between runs, but the file gets
        // the same exposition the stdout copy shows.
        let text2 = std::fs::read_to_string(&metrics2).unwrap();
        assert!(msg2.contains(&text2), "stdout and file expositions diverge");
        for p in [&out_path, &metrics_path, &out2, &metrics2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn trace_flag_works_with_analysis_commands() {
        let log = tmpfile("traced.log");
        sample_log(&log);
        let trace_path = tmpfile("traced.jsonl");
        run(&["summary", &log, "--trace", &trace_path]).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(trace.lines().count(), 1, "{trace}");
        assert!(trace.contains("\"kind\":\"run.manifest\""), "{trace}");
        assert!(trace.contains("\"tool\":\"summary\""), "{trace}");
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn unwritable_trace_path_is_clean_error() {
        let err = run(&["summary", "x.log", "--trace", "/nonexistent/dir/t.jsonl"]).unwrap_err();
        assert!(err.0.contains("cannot create"), "{}", err.0);
    }

    #[test]
    fn unknown_command_lists_available() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.0.contains("unknown command"));
        assert!(err.0.contains("summary"));
    }

    #[test]
    fn missing_file_is_clean_error() {
        let err = run(&["summary", "/nonexistent/path.log"]).unwrap_err();
        assert!(err.0.contains("cannot open"));
    }

    #[test]
    fn bad_scenario_is_clean_error() {
        let err = run(&["generate", "mars", "/tmp/x.log"]).unwrap_err();
        assert!(err.0.contains("unknown scenario"));
        assert!(err.0.contains("ncar|slac|anl|ornl"), "{}", err.0);
        assert!(err.0.contains("gvc scenario list"), "{}", err.0);
    }
}

//! Traced per-layer pass of the end-to-end benchmark.
//!
//! ```text
//! perfbench-trace paper-repro   --out <dir> [--quick]
//! perfbench-trace vc-contention --spec <file.scn> --out <dir>
//! perfbench-trace log-analysis  --logs <dir> --seed <n> --ncar-scale <x> --slac-scale <y> --out <dir>
//! perfbench-trace fingerprint
//! ```
//!
//! Each workload mode replays the work of one untraced pass by calling
//! the crates' public functions directly, wrapping every call in a span
//! recorded by this file (nothing is traced inside the program), and
//! reads the counters the program registers through
//! `Driver::with_telemetry`. Spans stay in memory and are written to
//! `<out>/spans.jsonl` at the end. The last stdout line is one JSON
//! object: `{"traced_wall_s": .., "metrics": {..}}`, holding every
//! per-layer metric of `PER_LAYER`.

mod logs;
mod repro;
mod sim;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Every per-layer metric, in report order. Names are shared by all
/// workloads; a layer a workload does not reach reports 0 for its
/// counts and the duration of an empty span for its times.
pub const PER_LAYER: &[&str] = &[
    "workload.generate_s.ncar",
    "workload.generate_s.slac",
    "workload.generate_s.anl",
    "workload.generate_s.ornl",
    "bench.experiments_s",
    "gridftp.drive_s",
    "gridftp.handle_s.start_session",
    "gridftp.handle_s.launch_next",
    "gridftp.handle_s.retry_vc",
    "gridftp.handle_s.link_flap",
    "gridftp.handle_s.inject_background",
    "gridftp.handle_n.start_session",
    "gridftp.handle_n.launch_next",
    "gridftp.handle_n.retry_vc",
    "gridftp.handle_n.link_flap",
    "gridftp.handle_n.inject_background",
    "gridftp.transfers",
    "engine.events_dispatched",
    "engine.queue_depth_hwm",
    "engine.us_per_event",
    "net.recomputes",
    "net.flows_started",
    "net.flows_per_solve.mean",
    "net.flows_per_solve.max",
    "net.loop_s",
    "net.us_per_solve",
    "oscars.requests",
    "oscars.admitted",
    "oscars.blocked",
    "oscars.admit_ratio",
    "faults.injected",
    "faults.retries",
    "faults.fallbacks",
    "faults.retry_ratio",
    "telemetry.trace_events",
    "telemetry.timeline_bytes",
    "telemetry.render_s",
    "scenario.parse_s",
    "scenario.synth_s",
    "logs.parse_s",
    "logs.parse_records_per_s",
    "logs.write_s",
    "core.group_sessions_s",
    "core.sweep_s",
    "core.suitability_s",
    "core.feasibility_s",
    "core.sessions",
];

/// One recorded span: a named interval and the span open around it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory span recorder. Times are seconds since the recorder was
/// made.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the span open
    /// around this call.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let idx = self.spans.len();
        let start_s = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.at(Instant::now());
        out
    }

    /// Records an interval timed elsewhere (e.g. on another thread).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let (start_s, end_s) = (self.at(start), self.at(end));
        self.spans.push(Span { name: name.to_owned(), parent, start_s, end_s });
    }

    /// Summed duration of every span named `name`, or `None` if there
    /// is none.
    pub fn total(&self, name: &str) -> Option<f64> {
        let mut spans = self.spans.iter().filter(|s| s.name == name).peekable();
        spans.peek()?;
        Some(spans.map(|s| s.end_s - s.start_s).sum())
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.name, s.start_s, s.end_s
            );
        }
        out
    }
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn is_time(name: &str) -> bool {
    (name.ends_with("_s") && !name.ends_with("_per_s")) || name.contains("_s.")
}

/// Per-unit costs derived from a time and a count (see `sim.rs`).
const DERIVED: [(&str, &str); 2] =
    [("engine.us_per_event", "gridftp.drive_s"), ("net.us_per_solve", "net.loop_s")];

/// Every metric name a run reports: `PER_LAYER` plus one
/// `bench.experiment_s.<id>` per experiment.
pub fn all_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER.iter().map(|s| (*s).to_owned()).collect();
    names.extend(gvc_bench::EXPERIMENT_IDS.iter().map(|id| format!("bench.experiment_s.{id}")));
    names
}

/// Fills every metric the workload left unset: times from their span
/// totals (an empty span where the layer did no work), counts as 0,
/// and per-unit costs over a count of one.
fn complete(m: &mut Metrics, trace: &mut Trace) {
    for name in all_names() {
        if m.0.contains_key(&name) || DERIVED.iter().any(|(d, _)| *d == name) {
            continue;
        }
        if is_time(&name) {
            if trace.total(&name).is_none() {
                trace.span(&name, |_| ());
            }
            let total = trace.total(&name).unwrap_or(0.0);
            m.set(&name, total);
        } else {
            m.set(&name, 0.0);
        }
    }
    for (derived, time) in DERIVED {
        if !m.0.contains_key(derived) {
            m.set(derived, m.get(time) * 1e6);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fingerprint() -> String {
    let h = gvc_telemetry::HostFingerprint::capture();
    format!(
        "{{\"host\":{},\"os\":{},\"arch\":{},\"cpus\":{},\"rustc\":{},\"git_sha\":{},\"version\":{}}}",
        json_str(&h.host),
        json_str(&h.os),
        json_str(&h.arch),
        h.cpus,
        json_str(&h.rustc),
        json_str(&h.git_sha),
        json_str(&h.version)
    )
}

/// `--name value` flags after the mode word.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if key == "quick" {
                map.insert(key.to_owned(), String::new());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Flags(map))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse().map_err(|_| format!("--{key}: {raw:?} is not a number"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(mode) = args.first() else {
        return Err(
            "usage: perfbench-trace <paper-repro|vc-contention|log-analysis|fingerprint> ..."
                .into(),
        );
    };
    if mode == "fingerprint" {
        println!("{}", fingerprint());
        return Ok(());
    }
    let flags = Flags::parse(&args[1..])?;
    let out = flags.path("out")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut trace = Trace::new();
    let mut m = Metrics::default();
    let traced_wall_s = match mode.as_str() {
        "paper-repro" => repro::run(&mut trace, &mut m, flags.has("quick"), &out)?,
        "vc-contention" => sim::run_scenario(&mut trace, &mut m, &flags.path("spec")?, &out)?,
        "log-analysis" => logs::run(
            &mut trace,
            &mut m,
            &flags.path("logs")?,
            flags.num("seed")?,
            [flags.num("ncar-scale")?, flags.num("slac-scale")?],
            &out,
        )?,
        other => return Err(format!("unknown mode {other:?}")),
    };
    complete(&mut m, &mut trace);
    let spans = out.join("spans.jsonl");
    std::fs::write(&spans, trace.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;

    let mut json = format!("{{\"traced_wall_s\":{traced_wall_s},\"metrics\":{{");
    for (i, (name, value)) in m.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}{}:{value}", json_str(name));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(1);
    }
}

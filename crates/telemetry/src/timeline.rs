//! Sim-time flight recorder: fixed-width windowed timeline series.
//!
//! The paper's empirical core is *time-windowed* telemetry — 30-second
//! SNMP link polls and per-interval transfer ledgers. This module adds
//! that axis to the telemetry spine: a [`TimelineRecorder`] keyed on
//! simulation time in microseconds, aggregating into fixed-width
//! windows (default 30 s, matching the paper's SNMP poll period).
//!
//! Three series kinds:
//!
//! * **counter** — an `f64` sum per window (`add` / `add_span`);
//! * **gauge** — per-window `{sum, n, max}` of samples (`sample`),
//!   rendered as mean/max;
//! * **quantile** — a per-window log-bucketed histogram with the
//!   layout and quantile estimate of [`crate::Histogram::timing`]
//!   (`observe`), rendered as p50/p90/p99. Cells hold only integer
//!   bucket counts, no float sample sum.
//!
//! Every cell is a pure function of the calls made on it in event
//! order, and the driver's event order is fixed by the seed, so the
//! timeline is byte-identical per seed. Two *derived* series —
//! `kernel.queue_depth` and `driver.active_sessions` — are
//! materialized at render time as cumulative differences of recorded
//! counters, so they cost nothing on the hot path.
//!
//! The canonical JSON rendering (`to_json`) is byte-stable and held
//! as a scenario golden; [`TimelineDoc::parse`] reads it back for the
//! `gvc timeline report|csv|check` subcommands, and [`check_rules`]
//! evaluates declarative SLO burn rules
//! (`vc_setup_p99<=5s@95%-of-windows`) against the parsed document.
//! Series names are doc-pinned in `docs/observability.md` (the
//! `schema_drift` meta-test closes the loop).

use crate::json::{Json, Number, Quoted};
use crate::metrics::Layout;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default window width: 30 simulated seconds, the paper's SNMP poll
/// period.
pub const DEFAULT_WIDTH_US: u64 = 30_000_000;

/// The timeline series base names every subsystem hook emits, pinned
/// here so emit sites, the documentation table in
/// `docs/observability.md`, and the `schema_drift` meta-test can
/// never drift apart. Per-link series carry an `[instance]` suffix on
/// top of the base name (e.g. `net.link_util[west-dtn->sunn]`).
pub mod series {
    /// Events entered into the kernel calendar (counter).
    pub const KERNEL_SCHEDULED: &str = "kernel.scheduled";
    /// Events dispatched by the kernel loop (counter).
    pub const KERNEL_DISPATCHED: &str = "kernel.dispatched";
    /// Derived gauge: cumulative scheduled − dispatched at window end.
    pub const KERNEL_QUEUE_DEPTH: &str = "kernel.queue_depth";
    /// Per-link utilization fraction of capacity (counter, `[link]`).
    pub const NET_LINK_UTIL: &str = "net.link_util";
    /// Background-tagged share of link utilization (counter, `[link]`).
    pub const NET_BG_UTIL: &str = "net.bg_util";
    /// Open reservations in the IDC calendar (gauge).
    pub const OSCARS_OPEN_RESERVATIONS: &str = "oscars.open_reservations";
    /// Sum of reserved bandwidth across open reservations (gauge, bps).
    pub const OSCARS_RESERVED_BPS: &str = "oscars.reserved_bps";
    /// GridFTP sessions started (counter).
    pub const DRIVER_SESSION_STARTS: &str = "driver.session_starts";
    /// GridFTP sessions fully completed (counter).
    pub const DRIVER_SESSION_COMPLETIONS: &str = "driver.session_completions";
    /// Derived gauge: cumulative starts − completions at window end.
    pub const DRIVER_ACTIVE_SESSIONS: &str = "driver.active_sessions";
    /// Foreground transfers completed (counter).
    pub const DRIVER_TRANSFERS: &str = "driver.transfers";
    /// VC setup latency in seconds (quantile), first attempt → ready.
    pub const DRIVER_VC_SETUP: &str = "driver.vc_setup";
    /// VC establishment retries (counter).
    pub const DRIVER_RETRIES: &str = "driver.retries";
    /// Sessions falling back to routed IP (counter).
    pub const DRIVER_FALLBACKS: &str = "driver.fallbacks";
    /// Faults injected by the active fault plan (counter).
    pub const FAULT_INJECTED: &str = "fault.injected";

    /// Every base name above, in rendering order.
    pub const ALL: &[&str] = &[
        KERNEL_SCHEDULED,
        KERNEL_DISPATCHED,
        KERNEL_QUEUE_DEPTH,
        NET_LINK_UTIL,
        NET_BG_UTIL,
        OSCARS_OPEN_RESERVATIONS,
        OSCARS_RESERVED_BPS,
        DRIVER_SESSION_STARTS,
        DRIVER_SESSION_COMPLETIONS,
        DRIVER_ACTIVE_SESSIONS,
        DRIVER_TRANSFERS,
        DRIVER_VC_SETUP,
        DRIVER_RETRIES,
        DRIVER_FALLBACKS,
        FAULT_INJECTED,
    ];
}

/// What a series aggregates per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window sum of added values.
    Counter,
    /// Per-window sample statistics (mean/max/n).
    Gauge,
    /// Per-window latency histogram rendered as quantiles.
    Quantile,
}

impl SeriesKind {
    fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Quantile => "quantile",
        }
    }
}

#[derive(Clone, Debug)]
enum Cell {
    Counter(f64),
    Gauge { sum: f64, n: u64, max: f64 },
    Quantile { counts: Vec<u64> },
}

#[derive(Clone, Debug)]
struct Series {
    kind: SeriesKind,
    windows: BTreeMap<u64, Cell>,
}

/// The windowed aggregation state for one run.
#[derive(Clone, Debug)]
pub struct TimelineRecorder {
    width_us: u64,
    series: BTreeMap<String, Series>,
}

impl TimelineRecorder {
    /// A recorder with `width_us`-wide windows (clamped to ≥ 1 µs).
    pub fn new(width_us: u64) -> TimelineRecorder {
        TimelineRecorder { width_us: width_us.max(1), series: BTreeMap::new() }
    }

    /// The configured window width in microseconds.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    fn window(&self, t_us: u64) -> u64 {
        t_us / self.width_us
    }

    fn cell(&mut self, name: &str, kind: SeriesKind, w: u64) -> Option<&mut Cell> {
        let s = self
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series { kind, windows: BTreeMap::new() });
        if s.kind != kind {
            // A series name may not change kind mid-run; drop the
            // mismatched operation rather than corrupt the cell.
            return None;
        }
        Some(s.windows.entry(w).or_insert_with(|| cell_zero(kind)))
    }

    /// Adds `v` to the counter series `name` in the window containing
    /// `t_us`.
    pub fn add(&mut self, name: &str, t_us: u64, v: f64) {
        let w = self.window(t_us);
        if let Some(Cell::Counter(sum)) = self.cell(name, SeriesKind::Counter, w) {
            *sum += v;
        }
    }

    /// Adds `v` to the counter series `name`, distributed across the
    /// windows overlapping `[start_us, end_us)` proportionally to the
    /// overlap (the SNMP-recorder bin-splitting rule, generalized).
    pub fn add_span(&mut self, name: &str, start_us: u64, end_us: u64, v: f64) {
        if end_us <= start_us {
            self.add(name, start_us, v);
            return;
        }
        let total = (end_us - start_us) as f64;
        let (w0, w1) = (self.window(start_us), self.window(end_us.saturating_sub(1)));
        for w in w0..=w1 {
            let lo = (w * self.width_us).max(start_us);
            let hi = ((w + 1) * self.width_us).min(end_us);
            if hi > lo {
                let share = v * ((hi - lo) as f64 / total);
                if let Some(Cell::Counter(sum)) = self.cell(name, SeriesKind::Counter, w) {
                    *sum += share;
                }
            }
        }
    }

    /// Records one gauge sample for series `name` at `t_us`.
    pub fn sample(&mut self, name: &str, t_us: u64, v: f64) {
        let w = self.window(t_us);
        if let Some(Cell::Gauge { sum, n, max }) = self.cell(name, SeriesKind::Gauge, w) {
            *sum += v;
            *n += 1;
            if v > *max {
                *max = v;
            }
        }
    }

    /// Records one quantile observation (seconds) for `name` at `t_us`.
    pub fn observe(&mut self, name: &str, t_us: u64, v: f64) {
        let w = self.window(t_us);
        let idx = Layout::TIMING.index(v);
        if let Some(Cell::Quantile { counts }) = self.cell(name, SeriesKind::Quantile, w) {
            if let Some(c) = counts.get_mut(idx) {
                *c += 1;
            }
        }
    }

    /// True when no series has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The derived gauge series rendered alongside the recorded ones:
    /// cumulative-difference depths of their source counters.
    fn derived(&self) -> Vec<(String, Series)> {
        let pairs: [(&str, &str, &str); 2] = [
            (series::KERNEL_QUEUE_DEPTH, series::KERNEL_SCHEDULED, series::KERNEL_DISPATCHED),
            (
                series::DRIVER_ACTIVE_SESSIONS,
                series::DRIVER_SESSION_STARTS,
                series::DRIVER_SESSION_COMPLETIONS,
            ),
        ];
        let mut out = Vec::new();
        for (name, up, down) in pairs {
            let (upper, lower) = (self.series.get(up), self.series.get(down));
            if upper.is_none() && lower.is_none() {
                continue;
            }
            let mut windows: BTreeMap<u64, Cell> = BTreeMap::new();
            let mut all: Vec<u64> = Vec::new();
            for s in [upper, lower].into_iter().flatten() {
                all.extend(s.windows.keys().copied());
            }
            all.sort_unstable();
            all.dedup();
            let counter_at = |s: Option<&Series>, w: u64| -> f64 {
                match s.and_then(|s| s.windows.get(&w)) {
                    Some(Cell::Counter(v)) => *v,
                    _ => 0.0,
                }
            };
            let mut depth = 0.0;
            for w in all {
                depth += counter_at(upper, w) - counter_at(lower, w);
                windows.insert(w, Cell::Gauge { sum: depth, n: 1, max: depth });
            }
            out.push((name.to_string(), Series { kind: SeriesKind::Gauge, windows }));
        }
        out
    }

    /// Recorded plus derived series, in name order — the render set.
    fn render_set(&self) -> Vec<(String, Series)> {
        let mut all: Vec<(String, Series)> =
            self.series.iter().map(|(n, s)| (n.clone(), s.clone())).collect();
        all.extend(self.derived());
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Canonical JSON rendering: fixed key order, one window object
    /// per line, golden-style number formatting. Byte-stable per seed.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"width_us\": {},\n  \"series\": [", self.width_us);
        let all = self.render_set();
        for (i, (name, s)) in all.iter().enumerate() {
            let comma = if i + 1 < all.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"kind\": \"{}\", \"windows\": [",
                Quoted(name),
                s.kind.label()
            );
            for (j, (&w, cell)) in s.windows.iter().enumerate() {
                let wc = if j + 1 < s.windows.len() { "," } else { "" };
                let t_s = Number(w as f64 * self.width_us as f64 / 1e6);
                let _ = write!(out, "\n      {{\"w\": {w}, \"t_s\": {t_s}, ");
                write_cell(&mut out, cell);
                let _ = write!(out, "}}{wc}");
            }
            let _ = write!(out, "\n    ]}}{comma}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl Default for TimelineRecorder {
    fn default() -> TimelineRecorder {
        TimelineRecorder::new(DEFAULT_WIDTH_US)
    }
}

fn cell_zero(kind: SeriesKind) -> Cell {
    match kind {
        SeriesKind::Counter => Cell::Counter(0.0),
        SeriesKind::Gauge => Cell::Gauge { sum: 0.0, n: 0, max: f64::NEG_INFINITY },
        SeriesKind::Quantile => Cell::Quantile { counts: vec![0; Layout::TIMING.len()] },
    }
}

/// Appends a cell's kind-specific fields; an empty quantile cell
/// renders its quantiles as `null`.
fn write_cell(out: &mut String, cell: &Cell) {
    let _ = match cell {
        Cell::Counter(v) => write!(out, "\"value\": {}", Number(*v)),
        Cell::Gauge { sum, n, max } => {
            let mean = if *n > 0 { *sum / *n as f64 } else { f64::NAN };
            write!(out, "\"mean\": {}, \"max\": {}, \"n\": {n}", Number(mean), Number(*max))
        }
        Cell::Quantile { counts } => {
            let n: u64 = counts.iter().sum();
            let q = |q: f64| Number(Layout::TIMING.quantile(counts, q).unwrap_or(f64::NAN));
            write!(
                out,
                "\"n\": {n}, \"p50\": {}, \"p90\": {}, \"p99\": {}",
                q(0.5),
                q(0.9),
                q(0.99)
            )
        }
    };
}

/// A cheap cloneable handle to a shared recorder — the `Option` every
/// subsystem holds. The mutex is uncontended in practice: a run
/// drives every subsystem from one thread.
#[derive(Clone)]
pub struct TimelineHandle(Arc<Mutex<TimelineRecorder>>);

impl TimelineHandle {
    /// A handle over a fresh recorder with `width_us`-wide windows.
    pub fn new(width_us: u64) -> TimelineHandle {
        TimelineHandle(Arc::new(Mutex::new(TimelineRecorder::new(width_us))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TimelineRecorder> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The configured window width in microseconds.
    pub fn width_us(&self) -> u64 {
        self.lock().width_us()
    }

    /// Counter add; see [`TimelineRecorder::add`].
    pub fn add(&self, name: &str, t_us: u64, v: f64) {
        self.lock().add(name, t_us, v);
    }

    /// Span-distributed counter add; see [`TimelineRecorder::add_span`].
    pub fn add_span(&self, name: &str, start_us: u64, end_us: u64, v: f64) {
        self.lock().add_span(name, start_us, end_us, v);
    }

    /// Gauge sample; see [`TimelineRecorder::sample`].
    pub fn sample(&self, name: &str, t_us: u64, v: f64) {
        self.lock().sample(name, t_us, v);
    }

    /// Quantile observation; see [`TimelineRecorder::observe`].
    pub fn observe(&self, name: &str, t_us: u64, v: f64) {
        self.lock().observe(name, t_us, v);
    }

    /// Canonical JSON of the recorder so far.
    pub fn to_json(&self) -> String {
        self.lock().to_json()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

// ---------------------------------------------------------------------------
// Parsed timeline documents (the offline side of the recorder).
// ---------------------------------------------------------------------------

/// A parsed `timeline.json`: what `gvc timeline report|csv|check`
/// operate on.
#[derive(Debug, Clone)]
pub struct TimelineDoc {
    /// Window width in microseconds.
    pub width_us: u64,
    /// Every series, in file order (the emitter sorts by name).
    pub series: Vec<SeriesDoc>,
}

/// One parsed series.
#[derive(Debug, Clone)]
pub struct SeriesDoc {
    /// Full series name, possibly `base[instance]`.
    pub name: String,
    /// `counter` | `gauge` | `quantile`.
    pub kind: String,
    /// Windows in ascending `w` order.
    pub windows: Vec<WindowDoc>,
}

impl SeriesDoc {
    /// The name with any `[instance]` suffix stripped.
    pub fn base_name(&self) -> &str {
        self.name.split('[').next().unwrap_or(&self.name)
    }
}

/// One parsed window: the window index plus its numeric fields
/// (`value`, `mean`, `max`, `n`, `p50`, …); JSON `null`s are absent.
#[derive(Debug, Clone)]
pub struct WindowDoc {
    /// Window index.
    pub w: u64,
    /// Numeric fields by key.
    pub fields: Vec<(String, f64)>,
}

impl WindowDoc {
    /// Field value by key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

impl TimelineDoc {
    /// Parses the canonical timeline JSON back into a document.
    pub fn parse(text: &str) -> Result<TimelineDoc, String> {
        let v = Json::parse(text).map_err(|e| format!("timeline: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err("timeline: top level is not an object".into());
        }
        let width_us = match v.get("width_us").and_then(Json::as_f64) {
            Some(n) if n >= 1.0 => n as u64,
            _ => return Err("timeline: missing or invalid width_us".into()),
        };
        let Some(series_v) = v.get("series").and_then(Json::as_arr) else {
            return Err("timeline: missing series array".into());
        };
        let mut series = Vec::with_capacity(series_v.len());
        for s in series_v {
            if !matches!(s, Json::Obj(_)) {
                return Err("timeline: series entry not an object".into());
            }
            let Some(name) = s.get("name").and_then(Json::as_str).map(str::to_string) else {
                return Err("timeline: series without a name".into());
            };
            let Some(kind) = s.get("kind").and_then(Json::as_str).map(str::to_string) else {
                return Err(format!("timeline: series {name:?} without a kind"));
            };
            let mut windows = Vec::new();
            for wv in s.get("windows").and_then(Json::as_arr).unwrap_or_default() {
                let Json::Obj(fields) = wv else {
                    return Err(format!("timeline: window of {name:?} not an object"));
                };
                let w = match wv.get("w").and_then(Json::as_f64) {
                    Some(n) if n >= 0.0 => n as u64,
                    _ => return Err(format!("timeline: window of {name:?} without w")),
                };
                let nums = fields
                    .iter()
                    .filter(|(k, _)| k != "w")
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect();
                windows.push(WindowDoc { w, fields: nums });
            }
            series.push(SeriesDoc { name, kind, windows });
        }
        Ok(TimelineDoc { width_us, series })
    }
}

// ---------------------------------------------------------------------------
// SLO burn rules.
// ---------------------------------------------------------------------------

/// Which per-window statistic a rule tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Counter window value.
    Value,
    /// Gauge window mean.
    Mean,
    /// Gauge window max.
    Max,
    /// Sample count.
    N,
    /// Quantile p50.
    P50,
    /// Quantile p90.
    P90,
    /// Quantile p99.
    P99,
    /// The kind's default: `value` / `max` / `p99`.
    Default,
}

impl Stat {
    fn key_for(self, kind: &str) -> &'static str {
        match self {
            Stat::Value => "value",
            Stat::Mean => "mean",
            Stat::Max => "max",
            Stat::N => "n",
            Stat::P50 => "p50",
            Stat::P90 => "p90",
            Stat::P99 => "p99",
            Stat::Default => match kind {
                "gauge" => "max",
                "quantile" => "p99",
                _ => "value",
            },
        }
    }
}

/// Rule comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl Cmp {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Le => lhs <= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Gt => lhs > rhs,
        }
    }

    fn token(self) -> &'static str {
        match self {
            Cmp::Le => "<=",
            Cmp::Lt => "<",
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
        }
    }
}

/// One declarative SLO burn rule.
///
/// Grammar (one rule per line; `#` comments and blank lines skipped):
///
/// ```text
/// <series>[_<stat>] <cmp> <bound>[<unit>] [@<pct>%-of-windows]
/// ```
///
/// * `<series>` matches a timeline series by full name, base name
///   (instance suffix stripped), or the last dot-segment of the base
///   name — `vc_setup` matches `driver.vc_setup`, `link_util` matches
///   every `net.link_util[…]` instance;
/// * `<stat>` is one of `p50|p90|p99|mean|max|n|value` (default:
///   `value` for counters, `max` for gauges, `p99` for quantiles);
/// * `<cmp>` is `<=`, `<`, `>=`, or `>`;
/// * `<unit>` is an optional `s`, `ms`, or `us` suffix normalizing
///   the bound to seconds;
/// * `@<pct>%-of-windows` requires only that share of windows to
///   satisfy the comparison (default 100 — every window).
#[derive(Debug, Clone)]
pub struct SloRule {
    /// The rule as written (for reporting).
    pub raw: String,
    /// Series reference (name, base name, or last segment).
    pub series: String,
    /// The statistic tested per window.
    pub stat: Stat,
    /// Comparator.
    pub cmp: Cmp,
    /// Bound, unit-normalized.
    pub bound: f64,
    /// Minimum percentage of windows that must satisfy the rule.
    pub min_pct: f64,
}

/// Outcome of one rule against one matched series.
#[derive(Debug, Clone)]
pub struct SloOutcome {
    /// The rule as written.
    pub rule: String,
    /// The matched series name (or the unmatched reference).
    pub series: String,
    /// Windows evaluated.
    pub windows: u64,
    /// Windows satisfying the comparison.
    pub passing: u64,
    /// Required percentage of passing windows.
    pub required_pct: f64,
    /// Whether the rule held.
    pub pass: bool,
    /// Human-readable verdict detail.
    pub detail: String,
}

/// Parses an SLO rule file (one rule per line).
pub fn parse_rules(text: &str) -> Result<Vec<SloRule>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_rule(line).map_err(|e| format!("rule line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Parses a single rule; see [`SloRule`] for the grammar.
pub fn parse_rule(line: &str) -> Result<SloRule, String> {
    let raw = line.to_string();
    let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    let (cmp, at) = ["<=", ">=", "<", ">"]
        .iter()
        .filter_map(|t| compact.find(t).map(|i| (*t, i)))
        .min_by_key(|&(_, i)| i)
        .ok_or_else(|| format!("no comparator in {line:?} (want <=, <, >=, >)"))?;
    let cmp_val = match cmp {
        "<=" => Cmp::Le,
        ">=" => Cmp::Ge,
        "<" => Cmp::Lt,
        _ => Cmp::Gt,
    };
    let lhs = compact.get(..at).unwrap_or_default();
    let rhs = compact.get(at + cmp.len()..).unwrap_or_default();
    if lhs.is_empty() {
        return Err(format!("missing series in {line:?}"));
    }
    let (series, stat) = split_stat(lhs);
    let (value_part, pct_part) = match rhs.split_once('@') {
        Some((v, p)) => (v, Some(p)),
        None => (rhs, None),
    };
    let bound = parse_bound(value_part)?;
    let min_pct = match pct_part {
        None => 100.0,
        Some(p) => {
            let digits = p
                .strip_suffix("%-of-windows")
                .ok_or_else(|| format!("bad window clause {p:?} (want @95%-of-windows)"))?;
            let pct: f64 =
                digits.parse().map_err(|_| format!("bad percentage {digits:?} in {line:?}"))?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(format!("percentage {pct} out of range in {line:?}"));
            }
            pct
        }
    };
    Ok(SloRule { raw, series, stat, cmp: cmp_val, bound, min_pct })
}

fn split_stat(lhs: &str) -> (String, Stat) {
    for (suffix, stat) in [
        ("_p50", Stat::P50),
        ("_p90", Stat::P90),
        ("_p99", Stat::P99),
        ("_mean", Stat::Mean),
        ("_max", Stat::Max),
        ("_value", Stat::Value),
        ("_n", Stat::N),
    ] {
        if let Some(base) = lhs.strip_suffix(suffix) {
            if !base.is_empty() {
                return (base.to_string(), stat);
            }
        }
    }
    (lhs.to_string(), Stat::Default)
}

fn parse_bound(s: &str) -> Result<f64, String> {
    for (suffix, scale) in [("us", 1e-6), ("ms", 1e-3), ("s", 1.0)] {
        if let Some(digits) = s.strip_suffix(suffix) {
            if digits.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '.') {
                return digits
                    .parse::<f64>()
                    .map(|v| v * scale)
                    .map_err(|_| format!("bad bound {s:?}"));
            }
        }
    }
    s.parse::<f64>().map_err(|_| format!("bad bound {s:?}"))
}

/// True when `rule_series` refers to the series named `name`.
fn rule_matches(rule_series: &str, name: &str) -> bool {
    let base = name.split('[').next().unwrap_or(name);
    if name == rule_series || base == rule_series {
        return true;
    }
    base.rsplit('.').next().is_some_and(|seg| seg == rule_series)
}

/// Evaluates every rule against every matching series of the
/// document. A rule that matches no series yields a failing outcome —
/// an unverifiable SLO must not pass silently.
pub fn check_rules(doc: &TimelineDoc, rules: &[SloRule]) -> Vec<SloOutcome> {
    let mut out = Vec::new();
    for rule in rules {
        let mut matched = false;
        for s in &doc.series {
            if !rule_matches(&rule.series, &s.name) {
                continue;
            }
            matched = true;
            let key = rule.stat.key_for(&s.kind);
            let total = s.windows.len() as u64;
            let passing = s
                .windows
                .iter()
                .filter(|w| w.get(key).is_some_and(|v| rule.cmp.eval(v, rule.bound)))
                .count() as u64;
            let pct = if total > 0 { passing as f64 / total as f64 * 100.0 } else { 0.0 };
            let pass = total > 0 && pct >= rule.min_pct;
            out.push(SloOutcome {
                rule: rule.raw.clone(),
                series: s.name.clone(),
                windows: total,
                passing,
                required_pct: rule.min_pct,
                pass,
                detail: format!(
                    "{passing}/{total} windows have {key} {} {} (need {}%)",
                    rule.cmp.token(),
                    Number(rule.bound),
                    Number(rule.min_pct)
                ),
            });
        }
        if !matched {
            out.push(SloOutcome {
                rule: rule.raw.clone(),
                series: rule.series.clone(),
                windows: 0,
                passing: 0,
                required_pct: rule.min_pct,
                pass: false,
                detail: format!("no timeline series matches {:?}", rule.series),
            });
        }
    }
    out
}

/// Renders `values` as a unicode sparkline (shared by `gvc timeline
/// report`); non-finite values render as spaces.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in &finite {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                ' '
            } else if hi <= lo {
                // All-equal series render as a flat mid-height bar.
                '▄'
            } else {
                let idx = (((v - lo) / (hi - lo)) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_and_span_distribution() {
        let mut r = TimelineRecorder::new(10_000_000); // 10 s windows
        r.add("driver.transfers", 1_000_000, 1.0);
        r.add("driver.transfers", 9_999_999, 1.0);
        r.add("driver.transfers", 10_000_000, 1.0);
        // A 20 s span worth 2.0 split evenly across two windows.
        r.add_span("net.link_util[a->b]", 0, 20_000_000, 2.0);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"driver.transfers\""), "{json}");
        assert!(json.contains("{\"w\": 0, \"t_s\": 0, \"value\": 2}"), "{json}");
        assert!(json.contains("{\"w\": 1, \"t_s\": 10, \"value\": 1}"), "{json}");
        assert!(json.contains("\"net.link_util[a->b]\""), "{json}");
        assert!(json.contains("\"value\": 1},"), "{json}");
    }

    #[test]
    fn gauge_and_quantile_cells_render() {
        let mut r = TimelineRecorder::new(DEFAULT_WIDTH_US);
        r.sample("oscars.open_reservations", 0, 1.0);
        r.sample("oscars.open_reservations", 1, 3.0);
        for _ in 0..100 {
            r.observe("driver.vc_setup", 0, 60.0);
        }
        let json = r.to_json();
        assert!(json.contains("\"mean\": 2, \"max\": 3, \"n\": 2"), "{json}");
        assert!(json.contains("\"n\": 100"), "{json}");
        // p99 of all-60s samples brackets 60 from above within one
        // geometric bucket.
        let doc = TimelineDoc::parse(&json).expect("parse");
        let vc = doc.series.iter().find(|s| s.name == "driver.vc_setup").expect("series");
        let p99 = vc.windows.first().and_then(|w| w.get("p99")).expect("p99");
        // The timing layout grows by √10 per bucket.
        assert!((60.0..=60.0 * 10f64.sqrt()).contains(&p99), "{p99}");
    }

    #[test]
    fn series_names_are_escaped_and_parse_back() {
        let name = "net.link_util[a\"b\\c->d]";
        let mut r = TimelineRecorder::new(DEFAULT_WIDTH_US);
        r.add(name, 0, 0.5);
        let doc = TimelineDoc::parse(&r.to_json()).expect("escaped names parse");
        let names: Vec<&str> = doc.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, [name]);
    }

    #[test]
    fn empty_or_out_of_range_quantiles_render_null() {
        let cell = Cell::Quantile { counts: vec![0; Layout::TIMING.len()] };
        let mut out = String::new();
        write_cell(&mut out, &cell);
        assert_eq!(out, "\"n\": 0, \"p50\": null, \"p90\": null, \"p99\": null");
        assert_eq!(Layout::TIMING.quantile(&[0, 1], 1.5), None);
    }

    #[test]
    fn derived_depth_series_from_counters() {
        let mut r = TimelineRecorder::new(10_000_000);
        r.add(series::KERNEL_SCHEDULED, 0, 5.0);
        r.add(series::KERNEL_DISPATCHED, 0, 3.0);
        r.add(series::KERNEL_DISPATCHED, 10_000_000, 2.0);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"kernel.queue_depth\""), "{json}");
        let doc = TimelineDoc::parse(&json).expect("parse");
        let depth = doc.series.iter().find(|s| s.name == "kernel.queue_depth").expect("derived");
        let vals: Vec<f64> = depth.windows.iter().filter_map(|w| w.get("max")).collect();
        assert_eq!(vals, vec![2.0, 0.0]);
    }

    #[test]
    fn json_round_trips_through_doc_parser() {
        let mut r = TimelineRecorder::new(DEFAULT_WIDTH_US);
        r.add("driver.transfers", 0, 2.0);
        r.add("driver.transfers", 31_000_000, 1.0);
        r.sample("oscars.reserved_bps", 0, 2e9);
        let doc = TimelineDoc::parse(&r.to_json()).expect("parse");
        assert_eq!(doc.width_us, DEFAULT_WIDTH_US);
        assert_eq!(doc.series.len(), 2);
        let t = doc.series.iter().find(|s| s.name == "driver.transfers").expect("series");
        assert_eq!(t.kind, "counter");
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows.first().and_then(|w| w.get("value")), Some(2.0));
    }

    #[test]
    fn non_ascii_names_and_escapes_survive_the_doc_parser() {
        // `to_json` writes names raw, so multi-byte text must come
        // back as the same characters, not one Latin-1 char per byte.
        let mut r = TimelineRecorder::new(DEFAULT_WIDTH_US);
        r.add("net.link_util[café->zürich]", 0, 1.0);
        let doc = TimelineDoc::parse(&r.to_json()).expect("parse");
        let names: Vec<&str> = doc.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["net.link_util[café->zürich]"]);

        let text = r#"{"width_us": 30000000, "series": [
            {"name": "caf\u00e9\r", "kind": "counter", "windows": [{"w": 0, "value": 1}]}
        ]}"#;
        let doc = TimelineDoc::parse(text).expect("parse");
        assert_eq!(doc.series.first().map(|s| s.name.as_str()), Some("café\r"));
    }

    #[test]
    fn slo_rule_grammar() {
        let r = parse_rule("vc_setup_p99<=5s@95%-of-windows").expect("parse");
        assert_eq!(r.series, "vc_setup");
        assert_eq!(r.stat, Stat::P99);
        assert_eq!(r.cmp, Cmp::Le);
        assert!((r.bound - 5.0).abs() < 1e-12);
        assert!((r.min_pct - 95.0).abs() < 1e-12);

        let r = parse_rule("link_util <= 0.9").expect("parse");
        assert_eq!(r.series, "link_util");
        assert_eq!(r.stat, Stat::Default);
        assert!((r.min_pct - 100.0).abs() < 1e-12);

        let r = parse_rule("driver.retries>=1").expect("parse");
        assert_eq!(r.series, "driver.retries");
        assert_eq!(r.cmp, Cmp::Ge);

        let r = parse_rule("vc_setup_p50<=250ms").expect("parse");
        assert!((r.bound - 0.25).abs() < 1e-12);

        assert!(parse_rule("no comparator here").is_err());
        assert!(parse_rule("x<=5s@95%-of-fortnights").is_err());
        assert!(parse_rule("<=5").is_err());
        let rules = parse_rules("# comment\n\nlink_util<=0.9\nretries<=0\n").expect("file");
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn check_rules_pass_fail_and_unmatched() {
        let mut r = TimelineRecorder::new(10_000_000);
        r.add("net.link_util[a->b]", 0, 0.5);
        r.add("net.link_util[a->b]", 10_000_000, 0.95);
        let doc = TimelineDoc::parse(&r.to_json()).expect("parse");

        // 100% required: the 0.95 window breaches.
        let rules = parse_rules("link_util<=0.9").expect("rules");
        let out = check_rules(&doc, &rules);
        assert_eq!(out.len(), 1);
        assert!(!out.first().is_none_or(|o| o.pass), "{out:?}");

        // 50%-of-windows: one of two suffices.
        let rules = parse_rules("link_util<=0.9@50%-of-windows").expect("rules");
        assert!(check_rules(&doc, &rules).iter().all(|o| o.pass));

        // Unmatched series reference fails loudly.
        let rules = parse_rules("nonexistent<=1").expect("rules");
        let out = check_rules(&doc, &rules);
        assert!(out.iter().all(|o| !o.pass));
        assert!(out.iter().any(|o| o.detail.contains("no timeline series")), "{out:?}");
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        assert_eq!(sparkline(&[f64::NAN, 1.0, 2.0]), " ▁█");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn handle_kind_conflicts_drop() {
        let h = TimelineHandle::new(DEFAULT_WIDTH_US);
        h.add("x.count", 0, 1.0);
        assert!(h.to_json().contains("\"value\": 1"));
        // Kind conflict: the gauge op on an existing counter is dropped.
        h.sample("x.count", 0, 9.0);
        assert!(h.to_json().contains("\"value\": 1"));
    }
}

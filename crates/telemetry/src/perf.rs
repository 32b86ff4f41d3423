//! Host-performance observability: wall-clock phase timers,
//! throughput rates, peak-RSS sampling, allocation tallies, and the
//! `BENCH_*.json` snapshot / diff / gate layer behind `gvc perf`.
//!
//! Everything wall-clock lives here on purpose: the simulation crates
//! are held to the `determinism` tidy rule, and this module is the one
//! sanctioned place (besides the CLI) where the host's real clock,
//! `/proc`, and the allocator may be observed. None of it feeds back
//! into simulated results — the [`Perf`] handle follows the same
//! zero-cost `Option` hook pattern as the tracer: a disabled handle
//! costs one branch per phase and records nothing.
//!
//! Three layers:
//!
//! * **Recording** — [`Perf`] / [`PhaseGuard`]: scoped wall-clock
//!   timers around real program phases (workload generation, simulate,
//!   sweep, trace analysis, report emission) feeding the
//!   `perf_phase_seconds`, `perf_events_per_second`,
//!   `perf_peak_rss_bytes`, and `perf_allocations_total` Prometheus
//!   families, folded into a serializable [`PerfReport`].
//! * **Snapshots** — [`PerfSnapshot`]: a named set of throughput
//!   metrics with a [`HostFingerprint`] (host, cpu count, rustc, git
//!   sha), median-of-N timed by [`measure_throughput`], written as
//!   `BENCH_<name>.json`.
//! * **Comparison** — [`diff_snapshots`]: per-metric tolerance
//!   classification ([`DiffStatus`]) plus fingerprint-mismatch
//!   warnings; the `gvc perf gate` exit code is derived from
//!   [`DiffReport::gate_failures`].

use crate::json::{Json, Number, Quoted};
use crate::metrics::{Histogram, Registry};
use crate::trace::Stopwatch;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

/// Where a snapshot was taken: enough environment identity to judge
/// whether two snapshots' absolute numbers are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFingerprint {
    /// Hostname (`HOSTNAME` env or `/proc/sys/kernel/hostname`).
    pub host: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available logical CPUs.
    pub cpus: u64,
    /// `rustc --version` output, or `unknown`.
    pub rustc: String,
    /// Short git commit sha of the working tree, or `unknown`.
    pub git_sha: String,
    /// `gvc-telemetry` crate version.
    pub version: String,
    /// Wall-clock capture time, unix milliseconds.
    pub created_unix_ms: u64,
}

impl HostFingerprint {
    /// Captures the current host's fingerprint. Every probe degrades
    /// to `"unknown"` (or 1 cpu) rather than failing.
    pub fn capture() -> HostFingerprint {
        HostFingerprint {
            host: hostname(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc: rustc_version(),
            git_sha: git_sha(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            created_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
        }
    }

    fn to_json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"host\":{},\"os\":{},\"arch\":{},\"cpus\":{},\"rustc\":{},\"git_sha\":{},\
             \"version\":{},\"created_unix_ms\":{}}}",
            Quoted(&self.host),
            Quoted(&self.os),
            Quoted(&self.arch),
            self.cpus,
            Quoted(&self.rustc),
            Quoted(&self.git_sha),
            Quoted(&self.version),
            self.created_unix_ms
        );
    }

    fn from_json(v: &Json) -> Result<HostFingerprint, String> {
        let text = |k: &str| -> String {
            v.get(k).and_then(Json::as_str).unwrap_or("unknown").to_string()
        };
        Ok(HostFingerprint {
            host: text("host"),
            os: text("os"),
            arch: text("arch"),
            cpus: v.get("cpus").and_then(Json::as_u64).unwrap_or(1),
            rustc: text("rustc"),
            git_sha: text("git_sha"),
            version: text("version"),
            created_unix_ms: v.get("created_unix_ms").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Human-readable mismatch list against `other` (empty when the
    /// environments look comparable). Capture time and crate version
    /// are expected to differ and are not compared.
    pub fn mismatches(&self, other: &HostFingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |what: &str, a: &str, b: &str| {
            if a != b {
                out.push(format!("{what} differs: baseline `{a}` vs candidate `{b}`"));
            }
        };
        check("host", &self.host, &other.host);
        check("os", &self.os, &other.os);
        check("arch", &self.arch, &other.arch);
        check("rustc", &self.rustc, &other.rustc);
        if self.cpus != other.cpus {
            out.push(format!(
                "cpu count differs: baseline {} vs candidate {}",
                self.cpus, other.cpus
            ));
        }
        out
    }
}

fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Short (12-hex) commit sha found by walking up from the current
/// directory to the nearest `.git`, following `HEAD`.
fn git_sha() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return git_sha_in(&git).unwrap_or_else(|| "unknown".to_string());
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn git_sha_in(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(git.join(refname)) {
            Ok(s) => s.trim().to_string(),
            // Loose ref absent: look in packed-refs.
            Err(_) => {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().filter(|l| !l.starts_with('#') && !l.starts_with('^')).find_map(
                    |l| {
                        let (sha, name) = l.split_once(' ')?;
                        (name.trim() == refname).then(|| sha.trim().to_string())
                    },
                )?
            }
        }
    } else {
        head.to_string()
    };
    let short: String = full.chars().take(12).collect();
    (short.len() == 12 && short.chars().all(|c| c.is_ascii_hexdigit())).then_some(short)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Schema tag written into every snapshot file.
pub const SNAPSHOT_SCHEMA: &str = "gvc.perf.snapshot/v1";
/// Schema tag written into every [`PerfReport`].
pub const REPORT_SCHEMA: &str = "gvc.perf.report/v1";

/// One measured throughput metric inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Stable dotted id, e.g. `kernel.schedule_pop.events_per_sec`.
    pub id: String,
    /// Unit label, e.g. `events/sec`.
    pub unit: String,
    /// Whether larger values are better (true for throughputs).
    pub higher_is_better: bool,
    /// Work items processed per repetition.
    pub items: u64,
    /// The headline value: median of `samples`.
    pub value: f64,
    /// Per-repetition rates, in measurement order.
    pub samples: Vec<f64>,
}

/// A named `BENCH_<name>.json` performance snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// Snapshot name (`kernel`, `sweep`, `analysis`, ...).
    pub name: String,
    /// Repetitions behind each metric's median.
    pub reps: u64,
    /// Where it was measured.
    pub fingerprint: HostFingerprint,
    /// The measured metrics.
    pub metrics: Vec<BenchMetric>,
}

impl PerfSnapshot {
    /// An empty snapshot for the current host.
    pub fn new(name: &str, reps: u64) -> PerfSnapshot {
        PerfSnapshot {
            name: name.to_string(),
            reps,
            fingerprint: HostFingerprint::capture(),
            metrics: Vec::new(),
        }
    }

    /// Looks up a metric by id.
    pub fn metric(&self, id: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.id == id)
    }

    /// Renders the snapshot as pretty-printed JSON (stable field
    /// order, one metric per line block, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.metrics.len() * 160);
        let _ = write!(
            out,
            "{{\n  \"schema\": {},\n  \"name\": {},\n  \"reps\": {},\n  \"fingerprint\": ",
            Quoted(SNAPSHOT_SCHEMA),
            Quoted(&self.name),
            self.reps
        );
        self.fingerprint.to_json_into(&mut out);
        out.push_str(",\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let _ = write!(
                out,
                "{{\"id\": {}, \"unit\": {}, \"higher_is_better\": {}, \"items\": {}, \
                 \"value\": {}, \"samples\": [",
                Quoted(&m.id),
                Quoted(&m.unit),
                m.higher_is_better,
                m.items,
                Number(m.value)
            );
            for (j, s) in m.samples.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}{}", Number(*s));
            }
            out.push_str("]}");
        }
        out.push_str(if self.metrics.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }

    /// Parses a snapshot produced by [`PerfSnapshot::to_json`].
    pub fn parse(text: &str) -> Result<PerfSnapshot, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!("unsupported snapshot schema `{schema}` (want {SNAPSHOT_SCHEMA})"));
        }
        let name = v.get("name").and_then(Json::as_str).ok_or("missing `name`")?.to_string();
        let reps = v.get("reps").and_then(Json::as_u64).ok_or("missing `reps`")?;
        let fingerprint =
            HostFingerprint::from_json(v.get("fingerprint").ok_or("missing `fingerprint`")?)?;
        let mut metrics = Vec::new();
        for m in v.get("metrics").and_then(Json::as_arr).ok_or("missing `metrics`")? {
            metrics.push(BenchMetric {
                id: m.get("id").and_then(Json::as_str).ok_or("metric missing `id`")?.to_string(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                higher_is_better: m.get("higher_is_better").and_then(Json::as_bool).unwrap_or(true),
                items: m.get("items").and_then(Json::as_u64).unwrap_or(0),
                value: m.get("value").and_then(Json::as_f64).ok_or("metric missing `value`")?,
                samples: m
                    .get("samples")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default(),
            });
        }
        Ok(PerfSnapshot { name, reps, fingerprint, metrics })
    }

    /// Writes the snapshot to `path` (overwriting).
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads and parses the snapshot at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<PerfSnapshot, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        PerfSnapshot::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let lo = sorted.get((n - 1) / 2).copied().unwrap_or(0.0);
    let hi = sorted.get(n / 2).copied().unwrap_or(0.0);
    (lo + hi) / 2.0
}

/// Times `reps` runs of `work` (which returns the number of items it
/// processed) and returns `(items, per-rep rates in items/sec)`. The
/// first return's `items` is the last rep's count — the workload is
/// expected to be identical across reps.
pub fn measure_throughput(reps: u64, mut work: impl FnMut() -> u64) -> (u64, Vec<f64>) {
    let mut rates = Vec::with_capacity(reps as usize);
    let mut items = 0u64;
    for _ in 0..reps.max(1) {
        let sw = Stopwatch::start();
        items = work();
        let dt = sw.elapsed_s().max(1e-9);
        rates.push(items as f64 / dt);
    }
    (items, rates)
}

// ---------------------------------------------------------------------------
// Diff / gate
// ---------------------------------------------------------------------------

/// Per-metric classification from [`diff_snapshots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance.
    Ok,
    /// Better than baseline beyond tolerance.
    Improved,
    /// Worse than baseline beyond tolerance.
    Regressed,
    /// Only in the candidate (new metric).
    MissingInBaseline,
    /// Only in the baseline (metric disappeared).
    MissingInCandidate,
}

impl DiffStatus {
    /// Stable lowercase token used in JSON output and tests.
    pub fn token(self) -> &'static str {
        match self {
            DiffStatus::Ok => "ok",
            DiffStatus::Improved => "improved",
            DiffStatus::Regressed => "regressed",
            DiffStatus::MissingInBaseline => "missing_in_baseline",
            DiffStatus::MissingInCandidate => "missing_in_candidate",
        }
    }
}

/// One metric's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric id.
    pub id: String,
    /// Unit label (from whichever side has the metric).
    pub unit: String,
    /// Whether larger is better for this metric.
    pub higher_is_better: bool,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Candidate value, when present.
    pub candidate: Option<f64>,
    /// `candidate / baseline`, when both are present and nonzero.
    pub ratio: Option<f64>,
    /// The classification.
    pub status: DiffStatus,
}

/// The result of comparing two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline snapshot name.
    pub baseline_name: String,
    /// Candidate snapshot name.
    pub candidate_name: String,
    /// Relative tolerance the rows were classified with.
    pub tolerance: f64,
    /// Per-metric rows, baseline order then new candidate metrics.
    pub rows: Vec<DiffRow>,
    /// Environment-comparability warnings (fingerprint mismatches,
    /// name mismatches). Warnings never fail a gate by themselves.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Rows a `perf gate` run must treat as failures: regressions plus
    /// metrics that vanished from the candidate.
    pub fn gate_failures(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, DiffStatus::Regressed | DiffStatus::MissingInCandidate))
            .collect()
    }

    /// True when nothing regressed or vanished.
    pub fn is_clean(&self) -> bool {
        self.gate_failures().is_empty()
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 140);
        let _ = write!(
            out,
            "{{\"baseline\": {}, \"candidate\": {}, \"tolerance\": {}, \"clean\": {}, \
             \"warnings\": [",
            Quoted(&self.baseline_name),
            Quoted(&self.candidate_name),
            Number(self.tolerance),
            self.is_clean()
        );
        for (i, w) in self.warnings.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}", Quoted(w));
        }
        out.push_str("], \"rows\": [");
        // An absent value renders as `null`, like a non-finite one.
        let opt = |v: Option<f64>| Number(v.unwrap_or(f64::NAN));
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"unit\": {}, \"baseline\": {}, \"candidate\": {}, \
                 \"ratio\": {}, \"status\": {}}}",
                Quoted(&r.id),
                Quoted(&r.unit),
                opt(r.baseline),
                opt(r.candidate),
                opt(r.ratio),
                Quoted(r.status.token())
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable table rendering (the CLI prints this verbatim).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf diff: {} -> {} (tolerance {:.0}%)",
            self.baseline_name,
            self.candidate_name,
            self.tolerance * 100.0
        );
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>8}  status",
            "metric", "baseline", "candidate", "ratio"
        );
        for r in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format_rate(x),
                None => "-".to_string(),
            };
            let ratio = match r.ratio {
                Some(x) => format!("{x:.3}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>8}  {}",
                r.id,
                fmt(r.baseline),
                fmt(r.candidate),
                ratio,
                r.status.token()
            );
        }
        out
    }
}

/// Formats a rate with an SI magnitude suffix (`12.3M`, `456k`).
pub fn format_rate(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Compares `candidate` against `baseline` with relative tolerance
/// `tolerance` (e.g. `0.15` = ±15%). For a higher-is-better metric,
/// `ratio = candidate / baseline` and the row regresses when
/// `ratio < 1 - tolerance` (strictly — a ratio exactly at the boundary
/// is still [`DiffStatus::Ok`]); lower-is-better metrics mirror that.
pub fn diff_snapshots(
    baseline: &PerfSnapshot,
    candidate: &PerfSnapshot,
    tolerance: f64,
) -> DiffReport {
    let tolerance = tolerance.max(0.0);
    let mut warnings = Vec::new();
    if baseline.name != candidate.name {
        warnings
            .push(format!("snapshot names differ: `{}` vs `{}`", baseline.name, candidate.name));
    }
    warnings.extend(
        baseline
            .fingerprint
            .mismatches(&candidate.fingerprint)
            .into_iter()
            .map(|m| format!("fingerprint: {m} — absolute timings may not be comparable")),
    );

    let mut rows = Vec::new();
    for b in &baseline.metrics {
        match candidate.metric(&b.id) {
            None => rows.push(DiffRow {
                id: b.id.clone(),
                unit: b.unit.clone(),
                higher_is_better: b.higher_is_better,
                baseline: Some(b.value),
                candidate: None,
                ratio: None,
                status: DiffStatus::MissingInCandidate,
            }),
            Some(c) => {
                let ratio = (b.value != 0.0).then(|| c.value / b.value);
                let status = match ratio {
                    None => DiffStatus::Ok,
                    Some(r) => {
                        let worse = if b.higher_is_better {
                            r < 1.0 - tolerance
                        } else {
                            r > 1.0 + tolerance
                        };
                        let better = if b.higher_is_better {
                            r > 1.0 + tolerance
                        } else {
                            r < 1.0 - tolerance
                        };
                        if worse {
                            DiffStatus::Regressed
                        } else if better {
                            DiffStatus::Improved
                        } else {
                            DiffStatus::Ok
                        }
                    }
                };
                rows.push(DiffRow {
                    id: b.id.clone(),
                    unit: b.unit.clone(),
                    higher_is_better: b.higher_is_better,
                    baseline: Some(b.value),
                    candidate: Some(c.value),
                    ratio,
                    status,
                });
            }
        }
    }
    for c in &candidate.metrics {
        if baseline.metric(&c.id).is_none() {
            rows.push(DiffRow {
                id: c.id.clone(),
                unit: c.unit.clone(),
                higher_is_better: c.higher_is_better,
                baseline: None,
                candidate: Some(c.value),
                ratio: None,
                status: DiffStatus::MissingInBaseline,
            });
        }
    }
    DiffReport {
        baseline_name: baseline.name.clone(),
        candidate_name: candidate.name.clone(),
        tolerance,
        rows,
        warnings,
    }
}

/// Maps a gate slowdown threshold (`2.0` = "fail when more than 2x
/// slower") to the relative tolerance [`diff_snapshots`] expects.
pub fn gate_tolerance(threshold: f64) -> f64 {
    if threshold > 1.0 {
        1.0 - 1.0 / threshold
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Peak RSS
// ---------------------------------------------------------------------------

/// Peak resident-set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable
/// (non-Linux) — callers degrade gracefully.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1).and_then(|tok| tok.parse().ok())?;
    Some(kb * 1024)
}

// ---------------------------------------------------------------------------
// Allocation counting (feature `perf-alloc`)
// ---------------------------------------------------------------------------

/// A counting wrapper around the system allocator. Install it as the
/// global allocator to make [`alloc_stats`] live:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: gvc_telemetry::perf::CountingAlloc = gvc_telemetry::perf::CountingAlloc;
/// ```
#[cfg(feature = "perf-alloc")]
// GlobalAlloc is inherently unsafe; the wrapper only tallies counters
// around the system allocator (workspace-wide `unsafe_code` is deny,
// not forbid, precisely so this one opt-in module can exist).
#[allow(unsafe_code)]
pub mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// The counting allocator (zero-sized; see module docs).
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(feature = "perf-alloc")]
pub use counting_alloc::CountingAlloc;

/// Cumulative `(allocations, allocated bytes)` since process start.
/// `None` unless the `perf-alloc` feature is enabled; zeros when the
/// feature is on but [`CountingAlloc`] was not installed as the global
/// allocator.
pub fn alloc_stats() -> Option<(u64, u64)> {
    #[cfg(feature = "perf-alloc")]
    {
        use std::sync::atomic::Ordering;
        Some((
            counting_alloc::ALLOCATIONS.load(Ordering::Relaxed),
            counting_alloc::ALLOCATED_BYTES.load(Ordering::Relaxed),
        ))
    }
    #[cfg(not(feature = "perf-alloc"))]
    {
        None
    }
}

// ---------------------------------------------------------------------------
// Phase recording
// ---------------------------------------------------------------------------

/// One completed phase inside a [`PerfReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPhase {
    /// Phase name (`workload_generation`, `simulate`, `sweep`,
    /// `trace_analysis`, `report_emission`, `total`).
    pub name: String,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// Work items processed (0 when the phase has no natural unit).
    pub items: u64,
    /// `items / seconds` (0 when `items` is 0).
    pub per_sec: f64,
}

/// The serializable end-of-run host-performance report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Completed phases, in completion order.
    pub phases: Vec<PerfPhase>,
    /// Wall-clock seconds since the recorder was created.
    pub total_seconds: f64,
    /// Peak RSS in bytes ([`peak_rss_bytes`]); `None` off-Linux.
    pub peak_rss_bytes: Option<u64>,
    /// Cumulative allocations ([`alloc_stats`]); `None` without the
    /// `perf-alloc` feature.
    pub allocations: Option<u64>,
    /// Cumulative allocated bytes; `None` without `perf-alloc`.
    pub allocated_bytes: Option<u64>,
}

impl PerfReport {
    /// Renders the report as JSON (single line, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160 + self.phases.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\": {}, \"total_seconds\": {}",
            Quoted(REPORT_SCHEMA),
            Number(self.total_seconds)
        );
        let opt = |out: &mut String, v: Option<u64>| match v {
            Some(x) => {
                let _ = write!(out, "{x}");
            }
            None => out.push_str("null"),
        };
        out.push_str(", \"peak_rss_bytes\": ");
        opt(&mut out, self.peak_rss_bytes);
        out.push_str(", \"allocations\": ");
        opt(&mut out, self.allocations);
        out.push_str(", \"allocated_bytes\": ");
        opt(&mut out, self.allocated_bytes);
        out.push_str(", \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"seconds\": {}, \"items\": {}, \"per_sec\": {}}}",
                Quoted(&p.name),
                Number(p.seconds),
                p.items,
                Number(p.per_sec)
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a report produced by [`PerfReport::to_json`].
    pub fn parse(text: &str) -> Result<PerfReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != REPORT_SCHEMA {
            return Err(format!("unsupported report schema `{schema}` (want {REPORT_SCHEMA})"));
        }
        let mut phases = Vec::new();
        for p in v.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            phases.push(PerfPhase {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("phase missing `name`")?
                    .to_string(),
                seconds: p.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                items: p.get("items").and_then(Json::as_u64).unwrap_or(0),
                per_sec: p.get("per_sec").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        Ok(PerfReport {
            phases,
            total_seconds: v.get("total_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            peak_rss_bytes: v.get("peak_rss_bytes").and_then(Json::as_u64),
            allocations: v.get("allocations").and_then(Json::as_u64),
            allocated_bytes: v.get("allocated_bytes").and_then(Json::as_u64),
        })
    }
}

struct PerfRecorder {
    registry: Arc<Registry>,
    phases: Mutex<Vec<PerfPhase>>,
    started: Stopwatch,
}

/// A cheap cloneable handle to the host-performance recorder, or
/// nothing. Follows the tracer's zero-cost pattern: a disabled handle
/// is one `Option` branch per phase open/close.
#[derive(Clone, Default)]
pub struct Perf {
    rec: Option<Arc<PerfRecorder>>,
}

impl Perf {
    /// The disabled handle (records nothing).
    pub fn disabled() -> Perf {
        Perf { rec: None }
    }

    /// A live recorder feeding `registry`. Registers the `perf_*`
    /// metric families up front so the exposition schema is stable
    /// even before the first phase closes.
    pub fn recording(registry: &Arc<Registry>) -> Perf {
        registry.describe(
            "perf_phase_seconds",
            "Wall-clock seconds per program phase (host time, not simulation time)",
        );
        registry.describe(
            "perf_events_per_second",
            "Host throughput of the last completed phase, items per wall-clock second",
        );
        registry
            .describe("perf_peak_rss_bytes", "Peak resident-set size (VmHWM), bytes; 0 off-Linux");
        registry.describe(
            "perf_allocations_total",
            "Cumulative heap allocations (0 unless built with the perf-alloc feature)",
        );
        registry.describe(
            "perf_allocated_bytes_total",
            "Cumulative heap bytes allocated (0 unless built with the perf-alloc feature)",
        );
        registry.gauge("perf_peak_rss_bytes", &[]);
        registry.counter("perf_allocations_total", &[]);
        registry.counter("perf_allocated_bytes_total", &[]);
        Perf {
            rec: Some(Arc::new(PerfRecorder {
                registry: Arc::clone(registry),
                phases: Mutex::new(Vec::new()),
                started: Stopwatch::start(),
            })),
        }
    }

    /// Is a recorder attached?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Opens a phase timer; the phase is recorded when the guard
    /// drops. Free when disabled.
    #[must_use]
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        PhaseGuard {
            rec: self.rec.clone(),
            name,
            items: 0,
            alloc_at_open: alloc_stats(),
            sw: Stopwatch::start(),
        }
    }

    /// The report so far: completed phases, total wall time, peak RSS,
    /// allocation tallies. `None` when disabled.
    pub fn report(&self) -> Option<PerfReport> {
        let rec = self.rec.as_ref()?;
        let phases = rec.phases.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        let (allocations, allocated_bytes) = match alloc_stats() {
            Some((a, b)) => (Some(a), Some(b)),
            None => (None, None),
        };
        Some(PerfReport {
            phases,
            total_seconds: rec.started.elapsed_s(),
            peak_rss_bytes: peak_rss_bytes(),
            allocations,
            allocated_bytes,
        })
    }
}

/// Scoped phase timer handed out by [`Perf::phase`]; records on drop.
pub struct PhaseGuard {
    rec: Option<Arc<PerfRecorder>>,
    name: &'static str,
    items: u64,
    alloc_at_open: Option<(u64, u64)>,
    sw: Stopwatch,
}

impl PhaseGuard {
    /// Declares how many work items this phase processed, so the
    /// recorder can derive a throughput. Call any time before drop.
    pub fn items(&mut self, n: u64) {
        self.items = n;
    }

    /// Adds to the phase's item count.
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(rec) = &self.rec else {
            return;
        };
        let seconds = self.sw.elapsed_s();
        let per_sec = if self.items > 0 { self.items as f64 / seconds.max(1e-9) } else { 0.0 };
        rec.registry
            .histogram("perf_phase_seconds", &[("phase", self.name)], Histogram::timing)
            .record(seconds);
        if self.items > 0 {
            rec.registry
                .gauge("perf_events_per_second", &[("phase", self.name)])
                .set(per_sec.round() as i64);
        }
        if let Some(rss) = peak_rss_bytes() {
            rec.registry.gauge("perf_peak_rss_bytes", &[]).set_max(rss as i64);
        }
        if let (Some((a0, b0)), Some((a1, b1))) = (self.alloc_at_open, alloc_stats()) {
            rec.registry.counter("perf_allocations_total", &[]).add(a1.saturating_sub(a0));
            rec.registry.counter("perf_allocated_bytes_total", &[]).add(b1.saturating_sub(b0));
        }
        rec.phases.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(PerfPhase {
            name: self.name.to_string(),
            seconds,
            items: self.items,
            per_sec,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(name: &str, values: &[(&str, f64)]) -> PerfSnapshot {
        let mut s = PerfSnapshot::new(name, 3);
        for (id, v) in values {
            s.metrics.push(BenchMetric {
                id: (*id).to_string(),
                unit: "events/sec".to_string(),
                higher_is_better: true,
                items: 1000,
                value: *v,
                samples: vec![*v * 0.98, *v, *v * 1.02],
            });
        }
        s
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn measure_throughput_counts_reps() {
        let mut calls = 0u64;
        let (items, rates) = measure_throughput(4, || {
            calls += 1;
            100
        });
        assert_eq!(calls, 4);
        assert_eq!(items, 100);
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn snapshot_json_round_trip() {
        let s = snapshot("kernel", &[("kernel.schedule_pop.events_per_sec", 1.25e6)]);
        let text = s.to_json();
        let back = PerfSnapshot::parse(&text).expect("parse");
        assert_eq!(back, s);
        // Schema guard.
        assert!(PerfSnapshot::parse(&text.replace("snapshot/v1", "snapshot/v9")).is_err());
    }

    #[test]
    fn snapshot_write_and_load() {
        let dir = std::env::temp_dir().join("gvc-perf-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{}-snap.json", std::process::id()));
        let s = snapshot("sweep", &[("sweep.engine.records_per_sec", 5.5e5)]);
        s.write(&path).expect("write");
        let back = PerfSnapshot::load(&path).expect("load");
        assert_eq!(back, s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_capture_is_populated() {
        let f = HostFingerprint::capture();
        assert!(!f.host.is_empty());
        assert_eq!(f.os, std::env::consts::OS);
        assert!(f.cpus >= 1);
        // In this repo's CI the tree is always a git checkout.
        assert!(f.git_sha == "unknown" || f.git_sha.len() == 12, "{}", f.git_sha);
    }

    #[test]
    fn diff_identical_snapshots_is_clean() {
        let s = snapshot("kernel", &[("a.x", 100.0), ("b.y", 200.0)]);
        let d = diff_snapshots(&s, &s, 0.15);
        assert!(d.is_clean());
        assert!(d.warnings.is_empty());
        assert!(d.rows.iter().all(|r| r.status == DiffStatus::Ok));
        assert!(d.rows.iter().all(|r| r.ratio == Some(1.0)));
    }

    #[test]
    fn diff_classifies_regression_and_improvement() {
        let base = snapshot("kernel", &[("a.x", 100.0), ("b.y", 100.0), ("c.z", 100.0)]);
        let cand = snapshot("kernel", &[("a.x", 80.0), ("b.y", 130.0), ("c.z", 99.0)]);
        let d = diff_snapshots(&base, &cand, 0.15);
        let by_id = |id: &str| d.rows.iter().find(|r| r.id == id).expect("row").status;
        assert_eq!(by_id("a.x"), DiffStatus::Regressed);
        assert_eq!(by_id("b.y"), DiffStatus::Improved);
        assert_eq!(by_id("c.z"), DiffStatus::Ok);
        assert!(!d.is_clean());
        assert_eq!(d.gate_failures().len(), 1);
    }

    #[test]
    fn diff_boundary_ratio_is_ok_not_regressed() {
        // ratio exactly 1 - tolerance: strictly-less comparison keeps it Ok.
        let base = snapshot("kernel", &[("a.x", 100.0)]);
        let cand = snapshot("kernel", &[("a.x", 85.0)]);
        let d = diff_snapshots(&base, &cand, 0.15);
        assert_eq!(d.rows.first().map(|r| r.status), Some(DiffStatus::Ok), "{d:?}");
        // One epsilon below the boundary regresses.
        let cand2 = snapshot("kernel", &[("a.x", 84.999)]);
        let d2 = diff_snapshots(&base, &cand2, 0.15);
        assert_eq!(d2.rows.first().map(|r| r.status), Some(DiffStatus::Regressed));
    }

    #[test]
    fn diff_lower_is_better_mirrors() {
        let mut base = snapshot("kernel", &[("lat.s", 1.0)]);
        let mut cand = snapshot("kernel", &[("lat.s", 1.5)]);
        for s in [&mut base, &mut cand] {
            for m in &mut s.metrics {
                m.higher_is_better = false;
            }
        }
        let d = diff_snapshots(&base, &cand, 0.15);
        assert_eq!(d.rows.first().map(|r| r.status), Some(DiffStatus::Regressed));
    }

    #[test]
    fn diff_missing_metrics_each_side() {
        let base = snapshot("kernel", &[("a.x", 100.0), ("gone.z", 50.0)]);
        let cand = snapshot("kernel", &[("a.x", 100.0), ("new.w", 75.0)]);
        let d = diff_snapshots(&base, &cand, 0.15);
        let by_id = |id: &str| d.rows.iter().find(|r| r.id == id).expect("row").status;
        assert_eq!(by_id("gone.z"), DiffStatus::MissingInCandidate);
        assert_eq!(by_id("new.w"), DiffStatus::MissingInBaseline);
        // Vanished metric fails the gate; a new one does not.
        assert_eq!(d.gate_failures().len(), 1);
        assert_eq!(d.gate_failures().first().map(|r| r.id.as_str()), Some("gone.z"));
    }

    #[test]
    fn diff_warns_on_fingerprint_and_name_mismatch() {
        let base = snapshot("kernel", &[("a.x", 100.0)]);
        let mut cand = snapshot("sweep", &[("a.x", 100.0)]);
        cand.fingerprint.host = format!("{}-other", base.fingerprint.host);
        cand.fingerprint.cpus = base.fingerprint.cpus + 8;
        let d = diff_snapshots(&base, &cand, 0.15);
        assert!(d.warnings.iter().any(|w| w.contains("names differ")), "{:?}", d.warnings);
        assert!(d.warnings.iter().any(|w| w.contains("host differs")), "{:?}", d.warnings);
        assert!(d.warnings.iter().any(|w| w.contains("cpu count differs")), "{:?}", d.warnings);
        // Warnings alone never fail the gate.
        assert!(d.is_clean());
    }

    #[test]
    fn diff_json_and_human_renderings() {
        let base = snapshot("kernel", &[("a.x", 100.0)]);
        let cand = snapshot("kernel", &[("a.x", 50.0)]);
        let d = diff_snapshots(&base, &cand, 0.15);
        let j = d.to_json();
        assert!(j.contains("\"status\": \"regressed\""), "{j}");
        assert!(j.contains("\"clean\": false"), "{j}");
        Json::parse(&j).expect("diff json must parse");
        let h = d.render_human();
        assert!(h.contains("a.x"));
        assert!(h.contains("regressed"));
    }

    #[test]
    fn gate_tolerance_mapping() {
        assert!((gate_tolerance(2.0) - 0.5).abs() < 1e-12);
        assert!((gate_tolerance(2.5) - 0.6).abs() < 1e-12);
        assert_eq!(gate_tolerance(1.0), 0.0);
        assert_eq!(gate_tolerance(0.5), 0.0);
    }

    #[test]
    fn format_rate_magnitudes() {
        assert_eq!(format_rate(2.5e9), "2.50G");
        assert_eq!(format_rate(1.25e6), "1.25M");
        assert_eq!(format_rate(4500.0), "4.5k");
        assert_eq!(format_rate(12.34), "12.3");
    }

    #[test]
    fn peak_rss_present_on_linux() {
        let rss = peak_rss_bytes();
        if std::env::consts::OS == "linux" {
            assert!(rss.is_some_and(|b| b > 0), "{rss:?}");
        }
    }

    #[test]
    fn disabled_perf_records_nothing() {
        let p = Perf::disabled();
        assert!(!p.enabled());
        {
            let mut g = p.phase("simulate");
            g.items(10);
        }
        assert!(p.report().is_none());
    }

    #[test]
    fn recorder_populates_families_and_report() {
        let registry = Arc::new(Registry::new());
        let p = Perf::recording(&registry);
        assert!(p.enabled());
        {
            let mut g = p.phase("simulate");
            g.items(5);
            g.add_items(5);
        }
        {
            let _g = p.phase("report_emission");
        }
        let report = p.report().expect("report");
        assert_eq!(report.phases.len(), 2);
        let sim = report.phases.first().expect("phase");
        assert_eq!(sim.name, "simulate");
        assert_eq!(sim.items, 10);
        assert!(sim.per_sec > 0.0);
        assert!(report.total_seconds >= sim.seconds);
        let text = registry.render();
        assert!(text.contains("# TYPE perf_phase_seconds histogram"), "{text}");
        assert!(
            text.contains("perf_phase_seconds_bucket{phase=\"simulate\",le=\"+Inf\"}"),
            "{text}"
        );
        assert!(text.contains("# TYPE perf_events_per_second gauge"));
        assert!(text.contains("# TYPE perf_peak_rss_bytes gauge"));
        assert!(text.contains("# TYPE perf_allocations_total counter"));
        assert!(text.contains("# TYPE perf_allocated_bytes_total counter"));
    }

    #[test]
    fn perf_report_json_round_trip() {
        let registry = Arc::new(Registry::new());
        let p = Perf::recording(&registry);
        {
            let mut g = p.phase("sweep");
            g.items(1234);
        }
        let report = p.report().expect("report");
        let text = report.to_json();
        let back = PerfReport::parse(&text).expect("parse");
        assert_eq!(back.phases, report.phases);
        assert_eq!(back.peak_rss_bytes, report.peak_rss_bytes);
        assert_eq!(back.allocations, report.allocations);
        assert!((back.total_seconds - report.total_seconds).abs() < 1e-12);
        assert!(PerfReport::parse("{\"schema\": \"nope\"}").is_err());
    }

    #[cfg(feature = "perf-alloc")]
    #[test]
    fn alloc_stats_live_under_feature() {
        // The test binary installs CountingAlloc (see lib.rs), so the
        // counters move when we allocate.
        let before = alloc_stats().expect("stats");
        let v: Vec<u64> = (0..4096).collect();
        let after = alloc_stats().expect("stats");
        assert!(after.0 >= before.0);
        assert!(after.1 > before.1, "allocated bytes must grow: {before:?} -> {after:?}");
        drop(v);
    }

    #[cfg(not(feature = "perf-alloc"))]
    #[test]
    fn alloc_stats_none_without_feature() {
        assert_eq!(alloc_stats(), None);
    }
}

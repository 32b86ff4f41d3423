//! The metrics registry: atomic counters, gauges, log-bucketed
//! histograms, and Prometheus-style text exposition.
//!
//! Naming conventions (enforced by review, documented in
//! `docs/observability.md`): snake_case metric names prefixed with the
//! subsystem (`sim_`, `idc_`, `gridftp_`, `net_`), counters suffixed
//! `_total`, and unit suffixes (`_seconds`, `_bytes`, `_bps`) on
//! everything dimensional.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `i64` (set, add, or ratchet to a maximum).
#[derive(Debug, Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge(std::sync::atomic::AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Ratchets the gauge up to `v` (high-water mark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket layout of a log-bucketed histogram, and the one place
/// its bucket maths live: sample → bucket index, bucket bounds, and
/// bucket-quantile estimates over a count vector. [`Histogram`],
/// [`HistogramSnapshot`] and the timeline's quantile cells all go
/// through it.
///
/// Bucket `i`'s upper bound is `start * growth^i`: bucket 0 is the
/// `[0, start)` underflow, the last is the `+Inf` overflow, and the
/// `len - 2` in between are geometric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Layout {
    start: f64,
    growth: f64,
    /// Bucket count, underflow and overflow included.
    len: usize,
}

impl Layout {
    /// Wall-clock and sim-time latencies in seconds: 1 µs to ~1000 s,
    /// ~2 buckets per decade.
    pub(crate) const TIMING: Layout = Layout { start: 1e-6, growth: 3.1622776601683795, len: 20 };

    /// Number of buckets, underflow and overflow included.
    pub(crate) fn len(self) -> usize {
        self.len
    }

    /// The bucket a sample falls in (NaN counts as overflow).
    pub(crate) fn index(self, v: f64) -> usize {
        if v.is_nan() {
            return self.len - 1;
        }
        if v < self.start {
            return 0;
        }
        // Smallest i with v < start * growth^(i+1)  ⇒ log ratio.
        let i = ((v / self.start).ln() / self.growth.ln()).floor() as usize + 1;
        i.min(self.len - 1)
    }

    /// Upper bound of bucket `i` (`+Inf` for the overflow bucket).
    fn upper_bound(self, i: usize) -> f64 {
        if i + 1 >= self.len {
            f64::INFINITY
        } else {
            self.start * self.growth.powi(i as i32)
        }
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket).
    fn lower_bound(self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.start * self.growth.powi(i as i32 - 1)
        }
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) of per-bucket `counts`: the
    /// upper bound of the bucket containing the quantile rank. `None`
    /// when empty or when `q` is out of range.
    pub(crate) fn quantile(self, counts: &[u64], q: f64) -> Option<f64> {
        let total: u64 = counts.iter().sum();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.upper_bound(i));
            }
        }
        Some(f64::INFINITY)
    }
}

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// Bucket upper bounds are `start * growth^i` for `i in 0..buckets`,
/// preceded by an implicit `[0, start)` underflow bucket and followed
/// by a `+Inf` overflow bucket. Geometric buckets give constant
/// *relative* error — right for latencies and throughputs spanning
/// orders of magnitude (a 50 ms hardware circuit setup and a 60 s
/// deployed one land 3 decades apart).
#[derive(Debug)]
pub struct Histogram {
    layout: Layout,
    /// `buckets.len() == layout.len()`: underflow, geometric, overflow.
    buckets: Vec<AtomicU64>,
    /// Sum of samples, as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with `n` geometric buckets from `start` growing by
    /// `growth` per bucket.
    ///
    /// # Panics
    /// Panics unless `start > 0`, `growth > 1`, `n >= 1`.
    pub fn new(start: f64, growth: f64, n: usize) -> Histogram {
        assert!(start > 0.0, "histogram start must be positive");
        assert!(growth > 1.0, "histogram growth must exceed 1");
        assert!(n >= 1, "histogram needs at least one bucket");
        Histogram::with_layout(Layout { start, growth, len: n + 2 })
    }

    fn with_layout(layout: Layout) -> Histogram {
        Histogram {
            layout,
            buckets: (0..layout.len).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Default layout for wall-clock timings: 1 µs to ~1000 s, ~2
    /// buckets per decade.
    pub fn timing() -> Histogram {
        Histogram::with_layout(Layout::TIMING)
    }

    /// Default layout for rates in Mbps: 0.1 Mbps to ~100 Gbps.
    pub fn rate_mbps() -> Histogram {
        Histogram::new(0.1, 3.1622776601683795, 12)
    }

    /// Records one sample (clamped into the underflow/overflow buckets
    /// when out of range).
    #[inline]
    pub fn record(&self, v: f64) {
        let idx = self.layout.index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v.max(0.0));
    }

    /// CAS-loop float add into the sample sum; contention here is
    /// negligible (one writer per component in practice).
    fn add_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent-enough point-in-time copy (individual loads are
    /// relaxed; exact consistency is not needed for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            layout: self.layout,
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
        }
    }
}

/// An owned, mergeable histogram snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    layout: Layout,
    counts: Vec<u64>,
    sum: f64,
}

impl HistogramSnapshot {
    /// Upper bound of bucket `i` (`+Inf` for the overflow bucket).
    pub fn upper_bound(&self, i: usize) -> f64 {
        self.layout.upper_bound(i)
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket).
    pub fn lower_bound(&self, i: usize) -> f64 {
        self.layout.lower_bound(i)
    }

    /// Per-bucket counts (underflow first, overflow last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another snapshot of the *same layout* into this one.
    ///
    /// # Panics
    /// Panics on a layout mismatch.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.layout, other.layout, "histogram layout mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1): the upper bound of the
    /// bucket containing the quantile rank, i.e. a value `v` with
    /// `P(X ≤ v) ≥ q` that over-estimates the true quantile by at most
    /// one bucket's relative width. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.layout.quantile(&self.counts, q)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// `name{labels}` key; labels sorted for a canonical identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Key { name: name.to_string(), labels }
    }

    fn render_labels(&self, extra: Option<(&str, String)>) -> String {
        // Label-value escaping per the Prometheus text exposition
        // format: backslash, double quote, and line feed.
        let esc = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        let mut parts: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", esc(v))).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A registry of named metrics; get-or-create, thread-safe, and
/// renderable as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attaches `# HELP` text to the metric family `name`; rendered
    /// once per family ahead of its `# TYPE` line. Last write wins.
    pub fn describe(&self, name: &str, help: &str) {
        let mut h = self.help.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        h.insert(name.to_string(), help.to_string());
    }

    /// Gets or creates the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = Key::new(name, labels);
        let mut m = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match m.entry(key).or_insert_with(|| Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => Arc::clone(c),
            // gvc-lint: allow(no-panic-in-lib) — fail fast on a type clash: returning a mismatched metric would corrupt series silently
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = Key::new(name, labels);
        let mut m = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match m.entry(key).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            // gvc-lint: allow(no-panic-in-lib) — fail fast on a type clash: returning a mismatched metric would corrupt series silently
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or creates the histogram `name{labels}`, built by `make`
    /// on first registration.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Histogram,
    ) -> Arc<Histogram> {
        let key = Key::new(name, labels);
        let mut m = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match m.entry(key).or_insert_with(|| Metric::Histogram(Arc::new(make()))) {
            Metric::Histogram(h) => Arc::clone(h),
            // gvc-lint: allow(no-panic-in-lib) — fail fast on a type clash: returning a mismatched metric would corrupt series silently
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Renders every metric in Prometheus text exposition format,
    /// sorted by name then labels.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let help = self.help.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        let mut last_name = "";
        for (key, metric) in m.iter() {
            if key.name != last_name {
                // `# HELP` then `# TYPE`, once per family even when
                // the family spans several label sets.
                if let Some(text) = help.get(&key.name) {
                    // Help-text escaping: backslash and line feed.
                    let text = text.replace('\\', "\\\\").replace('\n', "\\n");
                    let _ = writeln!(out, "# HELP {} {text}", key.name);
                }
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.render_labels(None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.render_labels(None), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &c) in snap.counts().iter().enumerate() {
                        cum += c;
                        let le = snap.upper_bound(i);
                        let le =
                            if le.is_infinite() { "+Inf".to_string() } else { format!("{le}") };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            key.name,
                            key.render_labels(Some(("le", le)))
                        );
                    }
                    let _ =
                        writeln!(out, "{}_sum{} {}", key.name, key.render_labels(None), snap.sum());
                    let _ = writeln!(out, "{}_count{} {}", key.name, key.render_labels(None), cum);
                }
            }
            last_name = &key.name;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(1.0, 10.0, 3); // bounds 1, 10, 100, +Inf
        for v in [0.5, 0.9, 5.0, 50.0, 500.0, 5000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 5556.4).abs() < 1e-9);
        let s = h.snapshot();
        // underflow [0,1): 2 | [1,10): 1 | [10,100): 1 | [100,1000): 1 | +Inf: 1
        assert_eq!(s.counts(), &[2, 1, 1, 1, 1]);
    }

    #[test]
    fn histogram_boundary_sample_goes_up() {
        let h = Histogram::new(1.0, 10.0, 3);
        h.record(10.0); // exactly a bound: belongs to [10, 100)
        let s = h.snapshot();
        assert_eq!(s.counts(), &[0, 0, 1, 0, 0]);
    }

    #[test]
    fn quantile_brackets_true_value() {
        let h = Histogram::timing();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s
        }
        let s = h.snapshot();
        let med = s.quantile(0.5).unwrap();
        // True median 0.5 s; estimate is the bucket's upper bound, so
        // within one growth factor above.
        assert!((0.5..=0.5 * 3.17).contains(&med), "median estimate {med}");
        assert_eq!(s.quantile(0.0).unwrap(), s.quantile(1.0 / 1000.0).unwrap());
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(Histogram::timing().snapshot().quantile(0.5), None);
    }

    #[test]
    fn registry_get_or_create_shares_state() {
        let r = Registry::new();
        r.counter("x_total", &[("site", "ncar")]).inc();
        r.counter("x_total", &[("site", "ncar")]).inc();
        assert_eq!(r.counter("x_total", &[("site", "ncar")]).get(), 2);
        // Different labels → different series.
        assert_eq!(r.counter("x_total", &[("site", "slac")]).get(), 0);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_type_conflict_panics() {
        let r = Registry::new();
        r.counter("m", &[]);
        r.gauge("m", &[]);
    }

    #[test]
    fn render_prometheus_shape() {
        let r = Registry::new();
        r.counter("idc_admitted_total", &[]).add(3);
        r.gauge("sim_event_queue_depth_hwm", &[]).set(42);
        r.histogram("idc_setup_delay_seconds", &[], Histogram::timing).record(60.0);
        let text = r.render();
        assert!(text.contains("# TYPE idc_admitted_total counter"));
        assert!(text.contains("idc_admitted_total 3"));
        assert!(text.contains("sim_event_queue_depth_hwm 42"));
        assert!(text.contains("idc_setup_delay_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("idc_setup_delay_seconds_count 1"));
        // Label escaping.
        r.counter("lbl_total", &[("q", "a\"b")]).inc();
        assert!(r.render().contains("lbl_total{q=\"a\\\"b\"} 1"));
    }

    /// Conformance regression: parse the rendered exposition line by
    /// line and assert the family-level invariants — `# HELP` then
    /// `# TYPE` exactly once per family, full label-value escaping,
    /// every sample line well-formed.
    #[test]
    fn render_conforms_to_text_exposition() {
        let r = Registry::new();
        r.describe("req_total", "Requests by\nendpoint \\ verb");
        r.counter("req_total", &[("ep", "a\\b\"c\nd")]).inc();
        r.counter("req_total", &[("ep", "plain")]).add(2);
        r.describe("depth", "Queue depth");
        r.gauge("depth", &[]).set(7);
        r.histogram("lat_seconds", &[("ep", "plain")], Histogram::timing).record(0.5);
        let text = r.render();

        // Escapes: backslash, quote, and newline in label values;
        // backslash and newline in help text.
        assert!(text.contains("req_total{ep=\"a\\\\b\\\"c\\nd\"} 1"), "{text}");
        assert!(text.contains("# HELP req_total Requests by\\nendpoint \\\\ verb"), "{text}");

        let mut headers: Vec<&str> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                headers.push(line);
                continue;
            }
            // Sample lines: name{labels} value — one space, parseable
            // value, no raw newline left inside the braces.
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
            assert!(!series.is_empty());
        }
        // HELP immediately precedes TYPE for described families, and
        // each family gets each header at most once.
        let help_idx = headers.iter().position(|h| *h == "# HELP depth Queue depth");
        let type_idx = headers.iter().position(|h| *h == "# TYPE depth gauge");
        assert_eq!(help_idx.map(|i| i + 1), type_idx, "{headers:?}");
        let type_req: Vec<_> =
            headers.iter().filter(|h| h.starts_with("# TYPE req_total ")).collect();
        assert_eq!(type_req.len(), 1, "one TYPE line for the two req_total series");
        let help_req: Vec<_> =
            headers.iter().filter(|h| h.starts_with("# HELP req_total ")).collect();
        assert_eq!(help_req.len(), 1);
        // Histogram families keep the classic shape.
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{ep=\"plain\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Histogram::new(1.0, 2.0, 4);
        let b = Histogram::new(1.0, 2.0, 4);
        a.record(1.5);
        b.record(3.0);
        b.record(100.0);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert!((m.sum() - 104.5).abs() < 1e-12);
    }
}

//! Offline trace analysis: parse a `--trace` JSONL file, rebuild the
//! span forest, and derive per-phase profiles, per-session timelines,
//! and structural checks.
//!
//! The wire format is the flat one-object-per-line JSON emitted by
//! [`crate::trace`] (see `docs/observability.md`). Lines are read with
//! the crate's one JSON reader ([`crate::json`]) and then held to that
//! shape: a top-level object of scalar values only, with an integer
//! `t_us` and a string `kind`.
//!
//! Time attribution (the `profile` self-time column) partitions each
//! span tree's timeline over its *innermost open* spans: at every
//! instant the elapsed microsecond is credited to the deepest spans
//! open at that instant, split evenly when several leaves overlap.
//! Summed over a tree this reproduces the tree's total span exactly
//! (integer remainders are assigned deterministically), which is what
//! lets `gvc trace profile` reconcile phase sums against the run's
//! total simulated time.

use crate::json::{Json, Reader};
use std::collections::BTreeMap;
use std::fmt;

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time, microseconds.
    pub t_us: i64,
    /// Dot-namespaced event kind.
    pub kind: String,
    /// Remaining fields (scalars only), in wire order.
    pub fields: Vec<(String, Json)>,
}

impl TraceRecord {
    /// Looks up a field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Integer field shorthand.
    #[must_use]
    pub fn int(&self, key: &str) -> Option<i64> {
        self.field(key).and_then(Json::as_i64)
    }

    /// Numeric field shorthand.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Json::as_f64)
    }

    /// String field shorthand.
    #[must_use]
    pub fn text(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Json::as_str)
    }
}

/// A parse failure, locating the offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole JSONL trace. Blank lines are skipped; anything else
/// must be a flat JSON object with integer `t_us` and string `kind`.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    let mut reader = Reader::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&mut reader, line) {
            Ok(rec) => out.push(rec),
            Err(message) => return Err(ParseError { line: idx + 1, message }),
        }
    }
    Ok(out)
}

/// Parses one trace line.
pub fn parse_record(line: &str) -> Result<TraceRecord, ParseError> {
    parse_line(&mut Reader::default(), line).map_err(|message| ParseError { line: 1, message })
}

fn parse_line(reader: &mut Reader, line: &str) -> Result<TraceRecord, String> {
    let Json::Obj(pairs) = reader.parse(line).map_err(|e| e.to_string())? else {
        return Err("trace line is not a JSON object".to_string());
    };
    // Take `t_us` and `kind` out in place: the parsed list is already
    // exactly sized, and records live for the whole analysis. The
    // first shape violation in wire order wins.
    let mut fields = pairs.into_vec();
    let (mut t_us, mut kind, mut bad) = (None, None, None);
    fields.retain_mut(|(key, value)| match (key.as_str(), value) {
        (_, Json::Arr(_) | Json::Obj(_)) => {
            bad.get_or_insert("nested values are not part of the trace format");
            true
        }
        ("t_us", Json::Int(v)) => {
            t_us = Some(*v);
            false
        }
        ("kind", Json::Str(s)) => {
            kind = Some(std::mem::take(s));
            false
        }
        ("t_us", _) => {
            bad.get_or_insert("t_us is not an integer");
            false
        }
        ("kind", _) => {
            bad.get_or_insert("kind is not a string");
            false
        }
        _ => true,
    });
    if let Some(msg) = bad {
        return Err(msg.to_string());
    }
    match (t_us, kind) {
        (Some(t_us), Some(kind)) => Ok(TraceRecord { t_us, kind, fields }),
        (None, _) => Err("missing t_us".to_string()),
        (_, None) => Err("missing kind".to_string()),
    }
}

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Wire span id (1-based).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Span name, e.g. `session.vc_setup`.
    pub name: String,
    /// Start, microseconds of simulation time.
    pub start_us: i64,
    /// End, if the `span.end` event was seen.
    pub end_us: Option<i64>,
    /// Extra `span.start` fields (session index, reservation id, ...).
    pub fields: Vec<(String, Json)>,
}

impl SpanNode {
    /// End clamped to `fallback` for unfinished spans, never before
    /// the start.
    #[must_use]
    pub fn effective_end(&self, fallback: i64) -> i64 {
        self.end_us.unwrap_or(fallback).max(self.start_us)
    }
}

/// A parsed trace with its span forest pulled out.
///
/// [`TraceModel::build`] also resolves the indexes the analyses join
/// on (each span's parent, each reservation's admission), so they
/// describe `records` and `spans` as built. One file may hold several
/// runs (`gvc scenario run --all --trace`), each numbering its
/// reservations from 0, so admissions and circuits are joined within
/// their run. A circuit's run is its `driver.run` ancestor: the IDC
/// opens `circuit.lifetime` under the run span it is handed. An
/// admission is an event, not a span, so its run is the latest
/// `driver.run` started before it in file order.
#[derive(Debug, Clone, Default)]
pub struct TraceModel {
    /// Every record, in file order.
    pub records: Vec<TraceRecord>,
    /// Reconstructed spans, in `span.start` order.
    pub spans: Vec<SpanNode>,
    /// `span.end` events whose id never started: `(t_us, id)`.
    pub orphan_ends: Vec<(i64, u64)>,
    /// Ids that appeared in more than one `span.start`.
    pub duplicate_starts: Vec<u64>,
    /// Malformed span events (missing `span`/`name` fields).
    pub malformed: Vec<String>,
    /// Index in `spans` of the span whose id is each span's `parent`
    /// (`None` when no span started with that id).
    parents: Vec<Option<usize>>,
    /// Index in `records` of the first `idc.admit` per run and
    /// reservation id.
    admits: BTreeMap<(Option<u64>, i64), usize>,
}

impl TraceModel {
    /// Builds the model from parsed records.
    #[must_use]
    pub fn build(records: Vec<TraceRecord>) -> TraceModel {
        let mut model = TraceModel { records, ..TraceModel::default() };
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        let mut run = None;
        for ridx in 0..model.records.len() {
            let Some(rec) = model.records.get(ridx) else { continue };
            match rec.kind.as_str() {
                "span.start" => {
                    let (Some(id), Some(name)) =
                        (rec.int("span"), rec.text("name").map(str::to_string))
                    else {
                        model.malformed.push(format!(
                            "span.start at t_us={} lacks span/name fields",
                            rec.t_us
                        ));
                        continue;
                    };
                    let id = id as u64;
                    if by_id.contains_key(&id) {
                        model.duplicate_starts.push(id);
                        continue;
                    }
                    let parent = rec.int("parent").unwrap_or(0) as u64;
                    let fields = rec
                        .fields
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "span" | "parent" | "name"))
                        .cloned()
                        .collect();
                    by_id.insert(id, model.spans.len());
                    if name == "driver.run" {
                        run = Some(id);
                    }
                    model.spans.push(SpanNode {
                        id,
                        parent,
                        name,
                        start_us: rec.t_us,
                        end_us: None,
                        fields,
                    });
                }
                "span.end" => {
                    let Some(id) = rec.int("span") else {
                        model
                            .malformed
                            .push(format!("span.end at t_us={} lacks a span field", rec.t_us));
                        continue;
                    };
                    let id = id as u64;
                    let t_us = rec.t_us;
                    match by_id.get(&id).and_then(|i| model.spans.get_mut(*i)) {
                        Some(span) if span.end_us.is_none() => span.end_us = Some(t_us),
                        Some(_) => model.malformed.push(format!("span {id} ended twice")),
                        None => model.orphan_ends.push((t_us, id)),
                    }
                }
                "idc.admit" => {
                    if let Some(id) = rec.int("id") {
                        model.admits.entry((run, id)).or_insert(ridx);
                    }
                }
                _ => {}
            }
        }
        model.parents = model.spans.iter().map(|s| by_id.get(&s.parent).copied()).collect();
        model
    }

    /// Parses `text` and builds the model in one step.
    pub fn from_text(text: &str) -> Result<TraceModel, ParseError> {
        Ok(TraceModel::build(parse_trace(text)?))
    }

    /// The latest timestamp seen across spans (clamp target for
    /// unfinished spans). Zero for an empty trace.
    #[must_use]
    pub fn horizon_us(&self) -> i64 {
        self.spans.iter().map(|s| s.end_us.unwrap_or(s.start_us).max(s.start_us)).max().unwrap_or(0)
    }

    /// The next span up from `at` in a tree walk: none for roots
    /// (`parent` 0), unknown parents and spans that parent themselves.
    fn up(&self, at: usize) -> Option<usize> {
        if self.spans.get(at)?.parent == 0 {
            return None;
        }
        self.parents.get(at).copied().flatten().filter(|&p| p != at)
    }

    /// Root ancestor index of each span: the first span up its chain
    /// with no [`TraceModel::up`]. A chain caught in a parent cycle
    /// has none; its walk stops after `spans.len() + 1` steps.
    fn roots(&self) -> Vec<usize> {
        let n = self.spans.len();
        (0..n)
            .map(|mut at| {
                for _ in 0..=n {
                    let Some(up) = self.up(at) else { break };
                    at = up;
                }
                at
            })
            .collect()
    }
}

/// A row of the per-phase profile table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations (overlap counted per span).
    pub total_us: i64,
    /// Attributed innermost time (partitions each tree's timeline).
    pub self_us: i64,
}

/// The root span the profile reconciles against.
#[derive(Debug, Clone, PartialEq)]
pub struct MainTree {
    /// Root span name (`driver.run` when present).
    pub name: String,
    /// Root span interval, microseconds.
    pub start_us: i64,
    /// Root span end (clamped for unfinished roots).
    pub end_us: i64,
    /// Self time summed over the root's whole tree. Equals
    /// `end_us - start_us` whenever the tree's spans nest inside the
    /// root, which is the reconciliation `gvc trace profile` prints.
    pub attributed_us: i64,
}

/// Output of [`profile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Phase rows, widest self-time first.
    pub rows: Vec<PhaseRow>,
    /// The reconciliation tree, when the trace has any spans.
    pub main: Option<MainTree>,
    /// Folded stacks (`root;child;leaf self_us`), alphabetical,
    /// zero-weight stacks dropped — feed to inferno / flamegraph.pl.
    pub folded: Vec<(String, i64)>,
}

/// Computes the per-phase profile of a span forest.
#[must_use]
pub fn profile(model: &TraceModel) -> Profile {
    let n = model.spans.len();
    if n == 0 {
        return Profile::default();
    }
    let horizon = model.horizon_us();
    let roots = model.roots();

    // Group spans per tree, then attribute each tree's timeline to
    // its innermost open spans.
    let mut trees: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, &root) in roots.iter().enumerate() {
        trees.entry(root).or_default().push(idx);
    }
    let mut self_us = vec![0i64; n];
    let mut sweep = Sweep::new(n);
    for members in trees.values() {
        sweep.attribute_tree(model, members, horizon, &mut self_us);
    }

    // Aggregate per name.
    let mut by_name: BTreeMap<&str, (u64, i64, i64)> = BTreeMap::new();
    for (idx, span) in model.spans.iter().enumerate() {
        let entry = by_name.entry(span.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += span.effective_end(horizon) - span.start_us;
        entry.2 += self_us.get(idx).copied().unwrap_or(0);
    }
    let mut rows: Vec<PhaseRow> = by_name
        .iter()
        .map(|(name, &(count, total_us, s))| PhaseRow {
            name: (*name).to_string(),
            count,
            total_us,
            self_us: s,
        })
        .collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));

    // The main tree: a `driver.run` root when present, else the
    // longest root span.
    let main_root = trees
        .keys()
        .copied()
        .filter(|&r| model.spans.get(r).is_some_and(|s| s.name == "driver.run"))
        .chain(trees.keys().copied().max_by_key(|&r| {
            model.spans.get(r).map_or(0, |s| s.effective_end(horizon) - s.start_us)
        }))
        .next();
    let main = main_root.and_then(|root| {
        let span = model.spans.get(root)?;
        let members = trees.get(&root)?;
        Some(MainTree {
            name: span.name.clone(),
            start_us: span.start_us,
            end_us: span.effective_end(horizon),
            attributed_us: members.iter().map(|&i| self_us.get(i).copied().unwrap_or(0)).sum(),
        })
    });

    // Folded stacks from per-span self time.
    let mut folded: BTreeMap<String, i64> = BTreeMap::new();
    for (idx, &weight) in self_us.iter().enumerate() {
        if weight == 0 {
            continue;
        }
        let mut stack = Vec::new();
        let mut at = Some(idx);
        for _ in 0..=n {
            let Some(i) = at else { break };
            stack.push(model.spans[i].name.as_str());
            at = model.up(i);
        }
        stack.reverse();
        *folded.entry(stack.join(";")).or_default() += weight;
    }
    Profile { rows, main, folded: folded.into_iter().collect() }
}

/// Per-span state of the boundary sweep, allocated once per profile
/// and shared by its trees: a span is swept in one tree only, and what
/// an earlier tree leaves on a parent outside the swept one credits no
/// leaf of it.
struct Sweep {
    is_open: Vec<bool>,
    /// Whether the span's opening was counted on its open parent.
    counted: Vec<bool>,
    open_children: Vec<usize>,
}

impl Sweep {
    fn new(n: usize) -> Sweep {
        Sweep { is_open: vec![false; n], counted: vec![false; n], open_children: vec![0; n] }
    }

    /// Sweeps one tree's boundaries, crediting each elementary
    /// interval to the open spans that have no open children (split
    /// evenly; the integer remainder goes to the lowest span ids,
    /// keeping the sum exact).
    fn attribute_tree(
        &mut self,
        model: &TraceModel,
        members: &[usize],
        horizon: i64,
        self_us: &mut [i64],
    ) {
        let spans = &model.spans;
        // Zero-duration spans never occupy an interval. The rest open
        // in (start, id) order, from a cursor over this list.
        let mut live: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| spans[i].effective_end(horizon) > spans[i].start_us)
            .collect();
        if live.is_empty() {
            return;
        }
        live.sort_by_key(|&i| (spans[i].start_us, spans[i].id));

        let mut bounds: Vec<i64> = live
            .iter()
            .flat_map(|&i| [spans[i].start_us, spans[i].effective_end(horizon)])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();

        let mut next = 0;
        let mut open: Vec<usize> = Vec::new();
        let mut leaves: Vec<usize> = Vec::new();
        for w in bounds.windows(2) {
            let (t, until) = match w {
                [a, b] => (*a, *b),
                _ => continue,
            };
            // Close spans ending at t, then open spans starting at t.
            open.retain(|&i| {
                let done = spans[i].effective_end(horizon) <= t;
                if done {
                    self.is_open[i] = false;
                    if let Some(p) = model.parents[i].filter(|_| self.counted[i]) {
                        self.open_children[p] = self.open_children[p].saturating_sub(1);
                    }
                }
                !done
            });
            while let Some(&i) = live.get(next).filter(|&&i| spans[i].start_us == t) {
                next += 1;
                open.push(i);
                self.is_open[i] = true;
                if let Some(p) = model.parents[i].filter(|&p| self.is_open[p]) {
                    self.open_children[p] += 1;
                    self.counted[i] = true;
                }
            }
            leaves.clear();
            leaves.extend(open.iter().copied().filter(|&i| self.open_children[i] == 0));
            if leaves.is_empty() {
                continue;
            }
            leaves.sort_by_key(|&i| spans[i].id);
            let len = until - t;
            let k = leaves.len() as i64;
            let share = len / k;
            let rem = (len % k) as usize;
            for (pos, &i) in leaves.iter().enumerate() {
                self_us[i] += share + i64::from(pos < rem);
            }
        }
    }
}

/// Which phase owns an instant of a session's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Circuit setup (`session.vc_setup`).
    Setup,
    /// Bytes in flight (`session.transfer`).
    Transfer,
    /// Waiting for a slot or circuit (`session.queue_wait` remainder).
    Wait,
    /// Inter-transfer gaps and bookkeeping.
    Other,
}

/// One session's timeline decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    /// The driver's session index, when recorded.
    pub session: Option<i64>,
    /// Session interval, microseconds.
    pub start_us: i64,
    /// Session end (clamped for unfinished sessions).
    pub end_us: i64,
    /// Time per phase, microseconds; sums to `end_us - start_us`.
    pub setup_us: i64,
    /// See `setup_us`.
    pub transfer_us: i64,
    /// See `setup_us`.
    pub wait_us: i64,
    /// See `setup_us`.
    pub other_us: i64,
    /// Transfers completed inside the session.
    pub transfers: u64,
    /// Circuit establishment attempts observed.
    pub attempts: u64,
    /// Whether the session fell back to the routed IP path.
    pub fallback: bool,
    /// The phase partition, `(start_us, end_us, phase)` in order —
    /// drives Gantt rendering.
    pub segments: Vec<(i64, i64, SessionPhase)>,
}

/// Decomposes every `session.run` span into setup / transfer / wait /
/// other time, priority-ordered so overlapping phases (setup happens
/// *during* the queue wait) are not double-counted.
#[must_use]
pub fn sessions(model: &TraceModel) -> Vec<SessionRow> {
    let spans = &model.spans;
    let horizon = model.horizon_us();
    let roots = model.roots();
    // Each session's descendants in its own tree, in span order: one
    // walk up from every span credits each `session.run` on its chain.
    let mut members: BTreeMap<usize, Vec<usize>> = (0..spans.len())
        .filter(|&i| spans[i].name == "session.run")
        .map(|i| (i, Vec::new()))
        .collect();
    let mut seen = vec![usize::MAX; spans.len()];
    for m in 0..spans.len() {
        seen[m] = m;
        let mut at = m;
        while let Some(up) = model.up(at).filter(|&up| seen[up] != m) {
            seen[up] = m;
            at = up;
            if let Some(list) = members.get_mut(&up).filter(|_| roots[up] == roots[m]) {
                list.push(m);
            }
        }
    }

    let mut out = Vec::new();
    for (idx, members) in members {
        let span = &spans[idx];
        let start = span.start_us;
        let end = span.effective_end(horizon);
        let mut setup = Vec::new();
        let mut transfer = Vec::new();
        let mut wait = Vec::new();
        let mut transfers = 0u64;
        let mut attempts = 0u64;
        let mut fallback = false;
        for member in members.iter().map(|&m| &spans[m]) {
            let iv = (member.start_us.max(start), member.effective_end(horizon).min(end));
            match member.name.as_str() {
                "session.vc_setup" => setup.push(iv),
                "session.transfer" => {
                    transfers += 1;
                    transfer.push(iv);
                }
                "session.queue_wait" => wait.push(iv),
                "vc.attempt" => attempts += 1,
                "session.fallback" => fallback = true,
                _ => {}
            }
        }
        let segments = partition(start, end, &setup, &transfer, &wait);
        let mut sums = [0i64; 4];
        for &(a, b, phase) in &segments {
            let slot = match phase {
                SessionPhase::Setup => 0,
                SessionPhase::Transfer => 1,
                SessionPhase::Wait => 2,
                SessionPhase::Other => 3,
            };
            if let Some(s) = sums.get_mut(slot) {
                *s += b - a;
            }
        }
        let [setup_us, transfer_us, wait_us, other_us] = sums;
        out.push(SessionRow {
            session: span.fields.iter().find(|(k, _)| k == "session").and_then(|(_, v)| v.as_i64()),
            start_us: start,
            end_us: end,
            setup_us,
            transfer_us,
            wait_us,
            other_us,
            transfers,
            attempts,
            fallback,
            segments,
        });
    }
    out.sort_by_key(|r| (r.start_us, r.session));
    out
}

/// Splits `[start, end)` into contiguous phase segments, with setup
/// beating transfer beating wait at instants covered by several.
fn partition(
    start: i64,
    end: i64,
    setup: &[(i64, i64)],
    transfer: &[(i64, i64)],
    wait: &[(i64, i64)],
) -> Vec<(i64, i64, SessionPhase)> {
    let mut bounds = vec![start, end];
    for &(a, b) in setup.iter().chain(transfer).chain(wait) {
        bounds.push(a.clamp(start, end));
        bounds.push(b.clamp(start, end));
    }
    bounds.sort_unstable();
    bounds.dedup();
    let covered = |ivs: &[(i64, i64)], a: i64, b: i64| ivs.iter().any(|&(x, y)| x <= a && y >= b);
    let mut out: Vec<(i64, i64, SessionPhase)> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = match w {
            [a, b] if b > a => (*a, *b),
            _ => continue,
        };
        let phase = if covered(setup, a, b) {
            SessionPhase::Setup
        } else if covered(transfer, a, b) {
            SessionPhase::Transfer
        } else if covered(wait, a, b) {
            SessionPhase::Wait
        } else {
            SessionPhase::Other
        };
        match out.last_mut() {
            Some(last) if last.2 == phase && last.1 == a => last.1 = b,
            _ => out.push((a, b, phase)),
        }
    }
    out
}

/// Configuration for [`check`].
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum tolerated per-session setup share (setup time over
    /// session duration).
    pub max_setup_share: f64,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig { max_setup_share: 0.95 }
    }
}

/// Outcome of [`check`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Human-readable violations; empty means the trace is sound.
    pub violations: Vec<String>,
    /// Spans examined.
    pub spans: usize,
    /// Circuit spans matched against reservations.
    pub circuits: usize,
    /// Sessions whose setup share was bounded.
    pub sessions: usize,
}

impl CheckReport {
    /// True when no assertion failed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Structural assertions over a trace: span pairing, parent links,
/// circuit spans contained in their reservation windows, and the
/// setup-share bound.
#[must_use]
pub fn check(model: &TraceModel, cfg: &CheckConfig) -> CheckReport {
    let mut report = CheckReport { spans: model.spans.len(), ..CheckReport::default() };
    for msg in &model.malformed {
        report.violations.push(format!("malformed span event: {msg}"));
    }
    for id in &model.duplicate_starts {
        report.violations.push(format!("span {id} started twice"));
    }
    for (t_us, id) in &model.orphan_ends {
        report.violations.push(format!("span.end at t_us={t_us} for unknown span {id}"));
    }
    for (span, parent) in model.spans.iter().zip(&model.parents) {
        match span.end_us {
            None => report.violations.push(format!(
                "span {} ({}) started at t_us={} but never ended",
                span.id, span.name, span.start_us
            )),
            Some(end) if end < span.start_us => report.violations.push(format!(
                "span {} ({}) ends at t_us={} before its start t_us={}",
                span.id, span.name, end, span.start_us
            )),
            Some(_) => {}
        }
        if span.parent != 0 && parent.is_none() {
            report.violations.push(format!(
                "span {} ({}) references unknown parent {}",
                span.id, span.name, span.parent
            ));
        }
    }

    // Circuit spans must not outlive their reservation windows. The
    // admission event carries the window; join on the run and the
    // reservation id.
    let roots = model.roots();
    for (at, span) in model.spans.iter().enumerate().filter(|(_, s)| s.name == "circuit.lifetime") {
        let Some(rid) =
            span.fields.iter().find(|(k, _)| k == "reservation").and_then(|(_, v)| v.as_i64())
        else {
            report.violations.push(format!("circuit span {} carries no reservation id", span.id));
            continue;
        };
        let run = roots
            .get(at)
            .and_then(|&root| model.spans.get(root))
            .filter(|root| root.name == "driver.run")
            .map(|root| root.id);
        let key = (run, rid);
        let Some(admit) = model.admits.get(&key).and_then(|&r| model.records.get(r)) else {
            report.violations.push(format!(
                "circuit span {} references reservation {rid} with no idc.admit event",
                span.id
            ));
            continue;
        };
        report.circuits += 1;
        let window_end = admit.t_us + (admit.num("window_s").unwrap_or(0.0) * 1e6).round() as i64;
        if let Some(end) = span.end_us {
            if end > window_end + 1 {
                report.violations.push(format!(
                    "circuit span {} for reservation {rid} ends at t_us={end}, outliving its \
                     reservation window ending at t_us={window_end}",
                    span.id
                ));
            }
        }
    }

    // Setup share: the amortization bound the paper's Table IV is
    // about — flag sessions whose circuit setup dominates.
    for row in sessions(model) {
        let dur = row.end_us - row.start_us;
        if dur <= 0 {
            continue;
        }
        report.sessions += 1;
        let share = row.setup_us as f64 / dur as f64;
        if share > cfg.max_setup_share + 1e-9 {
            report.violations.push(format!(
                "session {} spends {:.1}% of its {:.1}s in circuit setup (bound {:.1}%)",
                row.session.map_or_else(|| "?".to_string(), |s| s.to_string()),
                share * 100.0,
                dur as f64 / 1e6,
                cfg.max_setup_share * 100.0
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: &str) -> TraceRecord {
        parse_record(line).expect("parse")
    }

    #[test]
    fn parses_flat_objects() {
        let r = rec(
            r#"{"t_us":1500,"kind":"idc.admit","id":3,"rate_bps":1e9,"ok":true,"note":"a\nb","nothing":null,"neg":-2.5}"#,
        );
        assert_eq!(r.t_us, 1500);
        assert_eq!(r.kind, "idc.admit");
        assert_eq!(r.int("id"), Some(3));
        assert_eq!(r.num("rate_bps"), Some(1e9));
        assert_eq!(r.field("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.text("note"), Some("a\nb"));
        assert_eq!(r.field("nothing"), Some(&Json::Null));
        assert_eq!(r.num("neg"), Some(-2.5));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let r = rec(r#"{"t_us":0,"kind":"x","s":"q\"\\Aéé😀"}"#);
        assert_eq!(r.text("s"), Some("q\"\\Aéé😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_record("{\"kind\":\"x\"}").is_err());
        assert!(parse_record("{\"t_us\":1}").is_err());
        assert!(parse_record("{\"t_us\":1,\"kind\":\"x\"} junk").is_err());
        assert!(parse_record("{\"t_us\":1,\"kind\":\"x\",\"v\":{}}").is_err());
        assert!(parse_record("not json").is_err());
        let err = parse_trace("{\"t_us\":1,\"kind\":\"a\"}\nboom").expect_err("line 2");
        assert_eq!(err.line, 2);
    }

    fn span_line(t: i64, id: u64, parent: u64, name: &str) -> String {
        format!(
            "{{\"t_us\":{t},\"kind\":\"span.start\",\"span\":{id},\"parent\":{parent},\
             \"name\":\"{name}\"}}"
        )
    }

    fn end_line(t: i64, id: u64) -> String {
        format!("{{\"t_us\":{t},\"kind\":\"span.end\",\"span\":{id}}}")
    }

    /// driver.run [0,100]; session [10,90] with setup [10,40] and
    /// transfer [40,80]; a detached root [0,50].
    fn sample_model() -> TraceModel {
        let text = [
            span_line(0, 1, 0, "driver.run"),
            span_line(10, 2, 1, "session.run"),
            span_line(10, 3, 2, "session.queue_wait"),
            span_line(10, 4, 3, "session.vc_setup"),
            end_line(40, 4),
            end_line(40, 3),
            span_line(40, 5, 2, "session.transfer"),
            end_line(80, 5),
            end_line(90, 2),
            end_line(100, 1),
            span_line(0, 6, 0, "kernel.queue_wait"),
            end_line(50, 6),
        ]
        .join("\n");
        TraceModel::from_text(&text).expect("model")
    }

    #[test]
    fn profile_reconciles_exactly() {
        let p = profile(&sample_model());
        let main = p.main.expect("main tree");
        assert_eq!(main.name, "driver.run");
        assert_eq!(main.end_us - main.start_us, 100);
        assert_eq!(main.attributed_us, 100, "tree self times partition the root");
        let row = |name: &str| p.rows.iter().find(|r| r.name == name).expect(name).clone();
        assert_eq!(row("session.vc_setup").self_us, 30);
        assert_eq!(row("session.transfer").self_us, 40);
        assert_eq!(row("session.run").self_us, 10, "gaps inside the session");
        assert_eq!(row("driver.run").self_us, 20, "time outside the session");
        assert_eq!(row("session.queue_wait").self_us, 0, "fully covered by setup");
        assert_eq!(row("kernel.queue_wait").self_us, 50, "independent tree");
        let folded: BTreeMap<&str, i64> = p.folded.iter().map(|(s, v)| (s.as_str(), *v)).collect();
        assert_eq!(
            folded.get("driver.run;session.run;session.queue_wait;session.vc_setup"),
            Some(&30)
        );
        assert_eq!(folded.get("kernel.queue_wait"), Some(&50));
    }

    #[test]
    fn overlapping_leaves_split_the_interval() {
        let text = [
            span_line(0, 1, 0, "driver.run"),
            span_line(0, 2, 1, "session.transfer"),
            span_line(0, 3, 1, "session.transfer"),
            end_line(10, 2),
            end_line(10, 3),
            end_line(10, 1),
        ]
        .join("\n");
        let p = profile(&TraceModel::from_text(&text).expect("model"));
        let row = p.rows.iter().find(|r| r.name == "session.transfer").expect("row");
        assert_eq!(row.count, 2);
        assert_eq!(row.total_us, 20, "durations double-count overlap");
        assert_eq!(row.self_us, 10, "attribution does not");
        assert_eq!(p.main.expect("main").attributed_us, 10);
    }

    #[test]
    fn sessions_decompose_with_priority() {
        let rows = sessions(&sample_model());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.setup_us, 30);
        assert_eq!(r.transfer_us, 40);
        assert_eq!(r.wait_us, 0);
        assert_eq!(r.other_us, 10);
        assert_eq!(r.setup_us + r.transfer_us + r.wait_us + r.other_us, r.end_us - r.start_us);
        assert_eq!(r.transfers, 1);
        assert!(!r.fallback);
        assert_eq!(r.segments.first().map(|s| s.2), Some(SessionPhase::Setup));
    }

    #[test]
    fn check_accepts_sound_traces() {
        let report = check(&sample_model(), &CheckConfig::default());
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.spans, 6);
        assert_eq!(report.sessions, 1);
    }

    #[test]
    fn check_flags_truncation_and_bad_links() {
        let text = [
            span_line(0, 1, 0, "driver.run"),
            span_line(5, 2, 9, "session.run"),
            end_line(3, 2),
            end_line(7, 7),
        ]
        .join("\n");
        let report = check(&TraceModel::from_text(&text).expect("model"), &CheckConfig::default());
        let all = report.violations.join("\n");
        assert!(all.contains("never ended"), "{all}");
        assert!(all.contains("unknown parent 9"), "{all}");
        assert!(all.contains("unknown span 7"), "{all}");
        assert!(all.contains("before its start"), "{all}");
    }

    #[test]
    fn check_joins_circuits_to_reservations() {
        let ok = [
            "{\"t_us\":0,\"kind\":\"idc.admit\",\"id\":1,\"window_s\":100}".to_string(),
            "{\"t_us\":10,\"kind\":\"span.start\",\"span\":1,\"parent\":0,\
             \"name\":\"circuit.lifetime\",\"reservation\":1}"
                .to_string(),
            end_line(90_000_000, 1),
        ]
        .join("\n");
        let report = check(&TraceModel::from_text(&ok).expect("model"), &CheckConfig::default());
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.circuits, 1);

        let overlong = ok.replace("\"t_us\":90000000,", "\"t_us\":150000000,");
        let report =
            check(&TraceModel::from_text(&overlong).expect("model"), &CheckConfig::default());
        assert!(report.violations.join("\n").contains("outliving"), "{:?}", report.violations);
    }

    #[test]
    fn check_joins_circuits_within_their_run() {
        // Two runs in one file, each numbering reservations from 0 with
        // its own window: run 1 (100 s) holds a circuit that outlives
        // it, run 3 (200 s) one that does not. Run 1's circuit opens
        // after run 3 has started, so only its `driver.run` ancestor,
        // not file order, places it in run 1.
        let admit = |window_s: u64| {
            format!("{{\"t_us\":0,\"kind\":\"idc.admit\",\"id\":0,\"window_s\":{window_s}}}")
        };
        let circuit = |id: u64, run: u64| {
            format!(
                "{{\"t_us\":10,\"kind\":\"span.start\",\"span\":{id},\"parent\":{run},\
                 \"name\":\"circuit.lifetime\",\"reservation\":0}}"
            )
        };
        let text = [
            span_line(0, 1, 0, "driver.run"),
            admit(100),
            span_line(0, 3, 0, "driver.run"),
            admit(200),
            circuit(2, 1),
            circuit(4, 3),
            end_line(150_000_000, 2),
            end_line(150_000_000, 4),
            end_line(200_000_000, 1),
            end_line(200_000_000, 3),
        ]
        .join("\n");
        let model = TraceModel::from_text(&text).expect("model");
        let report = check(&model, &CheckConfig::default());
        assert_eq!(report.circuits, 2);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].starts_with("circuit span 2 "), "{:?}", report.violations);
        assert_eq!(report, oracle::check(&model, &CheckConfig::default()));
    }

    #[test]
    fn check_bounds_setup_share() {
        let text = [
            span_line(0, 1, 0, "session.run"),
            span_line(0, 2, 1, "session.vc_setup"),
            end_line(90, 2),
            end_line(100, 1),
        ]
        .join("\n");
        let model = TraceModel::from_text(&text).expect("model");
        assert!(check(&model, &CheckConfig { max_setup_share: 0.95 }).clean());
        let strict = check(&model, &CheckConfig { max_setup_share: 0.5 });
        assert!(strict.violations.join("\n").contains("circuit setup"), "{strict:?}");
    }

    const NAMES: [&str; 9] = [
        "driver.run",
        "session.run",
        "session.queue_wait",
        "session.vc_setup",
        "vc.attempt",
        "session.transfer",
        "session.fallback",
        "circuit.lifetime",
        "kernel.queue_wait",
    ];

    /// Renders generated `(op, id, parent, name, t_us, extra)` tuples as
    /// a trace. Ids below 12 repeat (duplicate starts; id 0 included)
    /// and parents reach past them (unknown parents); a parent may
    /// start later (forward references), point back into its own
    /// subtree (cycles) or at itself. Ends may name unknown spans
    /// (orphans) or never come (unfinished spans), and a start at its
    /// end's time is zero-width.
    fn forest_text(ops: &[(u8, u64, u64, usize, i64, i64)]) -> String {
        ops.iter()
            .map(|&(op, id, parent, name, t, extra)| match op {
                0..=4 => format!(
                    "{{\"t_us\":{t},\"kind\":\"span.start\",\"span\":{id},\"parent\":{parent},\
                     \"name\":\"{}\",\"session\":{extra},\"reservation\":{extra}}}",
                    NAMES[name % NAMES.len()]
                ),
                5..=7 => end_line(t, id),
                8 => format!(
                    "{{\"t_us\":{t},\"kind\":\"idc.admit\",\"id\":{extra},\"window_s\":{id}e-6}}"
                ),
                _ => format!("{{\"t_us\":{t},\"kind\":\"span.start\",\"span\":{id}}}"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn assert_matches_oracle(model: &TraceModel) {
        assert_eq!(sessions(model), oracle::sessions(model));
        assert_eq!(profile(model), oracle::profile(model));
        for max_setup_share in [0.0, 0.5, 0.95] {
            let cfg = CheckConfig { max_setup_share };
            assert_eq!(check(model, &cfg), oracle::check(model, &cfg));
        }
    }

    #[test]
    fn indexed_analyses_match_the_oracle_on_cycles() {
        // A two-cycle holding a session, a three-cycle with a tail
        // feeding it, and a span parenting itself, beside a sound tree.
        for odd in [false, true] {
            let mut lines = vec![
                span_line(0, 1, 2, "session.run"),
                span_line(1, 2, 1, "driver.run"),
                span_line(2, 3, 1, "session.vc_setup"),
                span_line(3, 4, 6, "session.run"),
                span_line(3, 5, 4, "session.transfer"),
                span_line(4, 6, 5, "session.queue_wait"),
                span_line(5, 7, 5, "vc.attempt"),
                span_line(6, 8, 8, "session.run"),
                span_line(0, 9, 0, "driver.run"),
                span_line(2, 10, 9, "session.run"),
                span_line(3, 11, 10, "session.transfer"),
            ];
            if odd {
                // The cycle walks stop after `spans.len() + 1` steps,
                // so the parity of the span count moves their roots.
                lines.push(span_line(4, 12, 0, "kernel.queue_wait"));
            }
            lines.extend((1..=12).map(|id| end_line(20 + id as i64, id)));
            assert_matches_oracle(&TraceModel::from_text(&lines.join("\n")).expect("model"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The indexed analyses agree with the oracle on hostile span
        /// forests, and neither panics nor hangs on them.
        #[test]
        fn indexed_analyses_match_the_oracle(
            ops in proptest::collection::vec((0u8..10, 0u64..12, 0u64..16, 0usize..9, 0i64..40, 0i64..4), 0..48),
        ) {
            assert_matches_oracle(&TraceModel::from_text(&forest_text(&ops)).expect("model"));
        }
    }

    /// The unindexed analyses as they stood before `TraceModel::build`
    /// resolved parents and admissions once: the oracle the indexed
    /// code must match on any span forest.
    mod oracle {
        use super::super::{
            partition, CheckConfig, CheckReport, MainTree, PhaseRow, Profile, SessionPhase,
            SessionRow, TraceModel,
        };
        use std::collections::BTreeMap;

        fn index_by_id(model: &TraceModel) -> BTreeMap<u64, usize> {
            model.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect()
        }

        /// Root ancestor index of each span (self-rooting on unknown
        /// parents or cycles).
        fn root_of(model: &TraceModel) -> Vec<usize> {
            let by_id = index_by_id(model);
            (0..model.spans.len())
                .map(|mut at| {
                    for _ in 0..=model.spans.len() {
                        let Some(span) = model.spans.get(at) else { break };
                        if span.parent == 0 {
                            break;
                        }
                        match by_id.get(&span.parent) {
                            Some(&up) if up != at => at = up,
                            _ => break,
                        }
                    }
                    at
                })
                .collect()
        }

        /// Computes the per-phase profile of a span forest.
        pub(super) fn profile(model: &TraceModel) -> Profile {
            let n = model.spans.len();
            if n == 0 {
                return Profile::default();
            }
            let horizon = model.horizon_us();
            let roots = root_of(model);
            let by_id = index_by_id(model);

            // Group spans per tree, then attribute each tree's timeline to
            // its innermost open spans.
            let mut trees: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (idx, &root) in roots.iter().enumerate() {
                trees.entry(root).or_default().push(idx);
            }
            let mut self_us = vec![0i64; n];
            for members in trees.values() {
                attribute_tree(model, members, horizon, &by_id, &mut self_us);
            }

            // Aggregate per name.
            let mut by_name: BTreeMap<&str, (u64, i64, i64)> = BTreeMap::new();
            for (idx, span) in model.spans.iter().enumerate() {
                let entry = by_name.entry(span.name.as_str()).or_default();
                entry.0 += 1;
                entry.1 += span.effective_end(horizon) - span.start_us;
                entry.2 += self_us.get(idx).copied().unwrap_or(0);
            }
            let mut rows: Vec<PhaseRow> = by_name
                .iter()
                .map(|(name, &(count, total_us, s))| PhaseRow {
                    name: (*name).to_string(),
                    count,
                    total_us,
                    self_us: s,
                })
                .collect();
            rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));

            // The main tree: a `driver.run` root when present, else the
            // longest root span.
            let main_root = trees
                .keys()
                .copied()
                .filter(|&r| model.spans.get(r).is_some_and(|s| s.name == "driver.run"))
                .chain(trees.keys().copied().max_by_key(|&r| {
                    model.spans.get(r).map_or(0, |s| s.effective_end(horizon) - s.start_us)
                }))
                .next();
            let main = main_root.and_then(|root| {
                let span = model.spans.get(root)?;
                let members = trees.get(&root)?;
                Some(MainTree {
                    name: span.name.clone(),
                    start_us: span.start_us,
                    end_us: span.effective_end(horizon),
                    attributed_us: members
                        .iter()
                        .map(|&i| self_us.get(i).copied().unwrap_or(0))
                        .sum(),
                })
            });

            // Folded stacks from per-span self time.
            let mut folded: BTreeMap<String, i64> = BTreeMap::new();
            for idx in 0..model.spans.len() {
                let weight = self_us.get(idx).copied().unwrap_or(0);
                if weight == 0 {
                    continue;
                }
                let mut stack = Vec::new();
                let mut at = idx;
                for _ in 0..=n {
                    let Some(s) = model.spans.get(at) else { break };
                    stack.push(s.name.as_str());
                    match by_id.get(&s.parent) {
                        Some(&up) if s.parent != 0 && up != at => at = up,
                        _ => break,
                    }
                }
                stack.reverse();
                *folded.entry(stack.join(";")).or_default() += weight;
            }
            Profile { rows, main, folded: folded.into_iter().collect() }
        }

        /// Sweeps one tree's boundaries, crediting each elementary interval
        /// to the open spans that have no open children (split evenly; the
        /// integer remainder goes to the lowest span ids, keeping the sum
        /// exact).
        fn attribute_tree(
            model: &TraceModel,
            members: &[usize],
            horizon: i64,
            by_id: &BTreeMap<u64, usize>,
            self_us: &mut [i64],
        ) {
            // Zero-duration spans never occupy an interval.
            let mut live: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| {
                    model.spans.get(i).is_some_and(|s| s.effective_end(horizon) > s.start_us)
                })
                .collect();
            if live.is_empty() {
                return;
            }
            live.sort_by_key(|&i| model.spans.get(i).map_or(0, |s| s.id));

            let mut bounds: Vec<i64> = live
                .iter()
                .flat_map(|&i| {
                    let s = &model.spans[i];
                    [s.start_us, s.effective_end(horizon)]
                })
                .collect();
            bounds.sort_unstable();
            bounds.dedup();

            let mut open: Vec<usize> = Vec::new();
            let mut open_children = vec![0usize; model.spans.len()];
            let mut counted = vec![false; model.spans.len()];
            let mut is_open = vec![false; model.spans.len()];
            let mut leaves: Vec<usize> = Vec::new();
            for w in bounds.windows(2) {
                let (t, next) = match w {
                    [a, b] => (*a, *b),
                    _ => continue,
                };
                // Close spans ending at t, then open spans starting at t.
                open.retain(|&i| {
                    let done = model.spans.get(i).is_some_and(|s| s.effective_end(horizon) <= t);
                    if done {
                        if let Some(f) = is_open.get_mut(i) {
                            *f = false;
                        }
                        if counted.get(i).copied().unwrap_or(false) {
                            let parent = model.spans.get(i).map_or(0, |s| s.parent);
                            if let Some(&p) = by_id.get(&parent) {
                                if let Some(c) = open_children.get_mut(p) {
                                    *c = c.saturating_sub(1);
                                }
                            }
                        }
                    }
                    !done
                });
                for &i in &live {
                    let Some(span) = model.spans.get(i) else { continue };
                    if span.start_us == t {
                        open.push(i);
                        if let Some(f) = is_open.get_mut(i) {
                            *f = true;
                        }
                        if let Some(&p) = by_id.get(&span.parent) {
                            if is_open.get(p).copied().unwrap_or(false) {
                                if let Some(c) = open_children.get_mut(p) {
                                    *c += 1;
                                }
                                if let Some(f) = counted.get_mut(i) {
                                    *f = true;
                                }
                            }
                        }
                    }
                }
                leaves.clear();
                leaves.extend(
                    open.iter()
                        .copied()
                        .filter(|&i| open_children.get(i).copied().unwrap_or(0) == 0),
                );
                if leaves.is_empty() {
                    continue;
                }
                leaves.sort_by_key(|&i| model.spans.get(i).map_or(0, |s| s.id));
                let len = next - t;
                let k = leaves.len() as i64;
                let share = len / k;
                let rem = (len % k) as usize;
                for (pos, &i) in leaves.iter().enumerate() {
                    if let Some(s) = self_us.get_mut(i) {
                        *s += share + i64::from(pos < rem);
                    }
                }
            }
        }

        /// Decomposes every `session.run` span into setup / transfer / wait /
        /// other time, priority-ordered so overlapping phases (setup happens
        /// *during* the queue wait) are not double-counted.
        pub(super) fn sessions(model: &TraceModel) -> Vec<SessionRow> {
            let horizon = model.horizon_us();
            let roots = root_of(model);
            let mut out = Vec::new();
            for (idx, span) in model.spans.iter().enumerate() {
                if span.name != "session.run" {
                    continue;
                }
                let start = span.start_us;
                let end = span.effective_end(horizon);
                let mut setup = Vec::new();
                let mut transfer = Vec::new();
                let mut wait = Vec::new();
                let mut transfers = 0u64;
                let mut attempts = 0u64;
                let mut fallback = false;
                for (midx, member) in model.spans.iter().enumerate() {
                    if midx == idx || !descends(model, &roots, midx, idx) {
                        continue;
                    }
                    let iv = (member.start_us.max(start), member.effective_end(horizon).min(end));
                    match member.name.as_str() {
                        "session.vc_setup" => setup.push(iv),
                        "session.transfer" => {
                            transfers += 1;
                            transfer.push(iv);
                        }
                        "session.queue_wait" => wait.push(iv),
                        "vc.attempt" => attempts += 1,
                        "session.fallback" => fallback = true,
                        _ => {}
                    }
                }
                let segments = partition(start, end, &setup, &transfer, &wait);
                let mut sums = [0i64; 4];
                for &(a, b, phase) in &segments {
                    let slot = match phase {
                        SessionPhase::Setup => 0,
                        SessionPhase::Transfer => 1,
                        SessionPhase::Wait => 2,
                        SessionPhase::Other => 3,
                    };
                    if let Some(s) = sums.get_mut(slot) {
                        *s += b - a;
                    }
                }
                let [setup_us, transfer_us, wait_us, other_us] = sums;
                out.push(SessionRow {
                    session: span
                        .fields
                        .iter()
                        .find(|(k, _)| k == "session")
                        .and_then(|(_, v)| v.as_i64()),
                    start_us: start,
                    end_us: end,
                    setup_us,
                    transfer_us,
                    wait_us,
                    other_us,
                    transfers,
                    attempts,
                    fallback,
                    segments,
                });
            }
            out.sort_by_key(|r| (r.start_us, r.session));
            out
        }

        fn descends(model: &TraceModel, roots: &[usize], mut at: usize, ancestor: usize) -> bool {
            // Quick reject: different trees cannot be related.
            if roots.get(at) != roots.get(ancestor) {
                return false;
            }
            let by_id = index_by_id(model);
            for _ in 0..=model.spans.len() {
                let Some(span) = model.spans.get(at) else { return false };
                if span.parent == 0 {
                    return false;
                }
                match by_id.get(&span.parent) {
                    Some(&up) if up == ancestor => return true,
                    Some(&up) if up != at => at = up,
                    _ => return false,
                }
            }
            false
        }

        /// The span id a well-formed `span.start` record `j` opens, with
        /// its name.
        fn start_at(model: &TraceModel, j: usize) -> Option<(u64, &str)> {
            let rec = model.records.get(j).filter(|r| r.kind == "span.start")?;
            Some((rec.int("span")? as u64, rec.text("name")?))
        }

        /// The `driver.run` in effect at record `r`: the latest whose
        /// start record (the first well-formed start of its id) comes
        /// before `r`.
        fn run_at(model: &TraceModel, r: usize) -> Option<u64> {
            (0..r).rev().find_map(|j| {
                let (id, name) = start_at(model, j)?;
                let first = (0..j).all(|k| start_at(model, k).is_none_or(|(other, _)| other != id));
                (name == "driver.run" && first).then_some(id)
            })
        }

        /// Structural assertions over a trace: span pairing, parent links,
        /// circuit spans contained in their reservation windows, and the
        /// setup-share bound.
        pub(super) fn check(model: &TraceModel, cfg: &CheckConfig) -> CheckReport {
            let mut report = CheckReport { spans: model.spans.len(), ..CheckReport::default() };
            for msg in &model.malformed {
                report.violations.push(format!("malformed span event: {msg}"));
            }
            for id in &model.duplicate_starts {
                report.violations.push(format!("span {id} started twice"));
            }
            for (t_us, id) in &model.orphan_ends {
                report.violations.push(format!("span.end at t_us={t_us} for unknown span {id}"));
            }
            let by_id = index_by_id(model);
            for span in &model.spans {
                match span.end_us {
                    None => report.violations.push(format!(
                        "span {} ({}) started at t_us={} but never ended",
                        span.id, span.name, span.start_us
                    )),
                    Some(end) if end < span.start_us => report.violations.push(format!(
                        "span {} ({}) ends at t_us={} before its start t_us={}",
                        span.id, span.name, end, span.start_us
                    )),
                    Some(_) => {}
                }
                if span.parent != 0 && !by_id.contains_key(&span.parent) {
                    report.violations.push(format!(
                        "span {} ({}) references unknown parent {}",
                        span.id, span.name, span.parent
                    ));
                }
            }

            // Circuit spans must not outlive their reservation windows. The
            // admission event carries the window; join on the run and the reservation id.
            let roots = root_of(model);
            for (at, span) in
                model.spans.iter().enumerate().filter(|(_, s)| s.name == "circuit.lifetime")
            {
                let Some(rid) = span
                    .fields
                    .iter()
                    .find(|(k, _)| k == "reservation")
                    .and_then(|(_, v)| v.as_i64())
                else {
                    report
                        .violations
                        .push(format!("circuit span {} carries no reservation id", span.id));
                    continue;
                };
                // The circuit's run is its `driver.run` root.
                let run = Some(&model.spans[roots[at]])
                    .filter(|root| root.name == "driver.run")
                    .map(|root| root.id);
                let admit = model.records.iter().enumerate().find(|&(r, rec)| {
                    rec.kind == "idc.admit" && rec.int("id") == Some(rid) && run_at(model, r) == run
                });
                let admit = admit.map(|(_, rec)| rec);
                let Some(admit) = admit else {
                    report.violations.push(format!(
                        "circuit span {} references reservation {rid} with no idc.admit event",
                        span.id
                    ));
                    continue;
                };
                report.circuits += 1;
                let window_end =
                    admit.t_us + (admit.num("window_s").unwrap_or(0.0) * 1e6).round() as i64;
                if let Some(end) = span.end_us {
                    if end > window_end + 1 {
                        report.violations.push(format!(
                            "circuit span {} for reservation {rid} ends at t_us={end}, outliving its \
                             reservation window ending at t_us={window_end}",
                            span.id
                        ));
                    }
                }
            }

            // Setup share: the amortization bound the paper's Table IV is
            // about — flag sessions whose circuit setup dominates.
            for row in sessions(model) {
                let dur = row.end_us - row.start_us;
                if dur <= 0 {
                    continue;
                }
                report.sessions += 1;
                let share = row.setup_us as f64 / dur as f64;
                if share > cfg.max_setup_share + 1e-9 {
                    report.violations.push(format!(
                        "session {} spends {:.1}% of its {:.1}s in circuit setup (bound {:.1}%)",
                        row.session.map_or_else(|| "?".to_string(), |s| s.to_string()),
                        share * 100.0,
                        dur as f64 / 1e6,
                        cfg.max_setup_share * 100.0
                    ));
                }
            }
            report
        }
    }
}

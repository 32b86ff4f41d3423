//! Workspace-level semantic rules over the item graph.
//!
//! Where [`crate::rules`] checks one file at a time, the rules here
//! see the whole workspace through [`crate::graph::ItemGraph`] and
//! prove *interprocedural* properties:
//!
//! * `determinism-confinement` — host wall-clock, OS entropy, env
//!   reads, and thread-id observation are reachable only from
//!   `gvc-telemetry`, proven over the call graph (a wrapper two hops
//!   away from `Instant::now()` is as nondeterministic as the probe
//!   itself);
//! * `lane-isolation` — simulation and analysis crates hold no shared
//!   mutable state, and types crossing a parallel fan-out (a
//!   `rayon::join` or `thread::scope` "lane") hold no non-`Send`
//!   interior mutability;
//! * `unordered-iteration-v2` — `HashMap`/`HashSet` values are
//!   tracked through `let` bindings and workspace-fn returns into
//!   presentation code, not just literal iteration sites.
//!
//! Rules resolve calls through [`crate::resolve`]; anything ambiguous
//! is dropped, so every finding is backed by a concrete chain.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Violation;
use crate::graph::{CallTarget, ItemGraph};
use crate::lexer::SourceFile;
use crate::rules::{crate_of, token_cols, violation, LIB_CRATES, PRESENTATION_FILES};

/// The parsed workspace plus its item graph — the input every
/// workspace rule checks.
pub struct Workspace {
    /// All scanned files, index-aligned with the graph's file list.
    pub files: Vec<SourceFile>,
    /// The item graph over those files.
    pub graph: ItemGraph,
}

impl Workspace {
    /// Builds the graph over already-parsed files.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let graph = ItemGraph::build(&files);
        Workspace { files, graph }
    }

    /// Parses `(rel_path, content)` pairs and builds the workspace —
    /// the entry point for engine tests and the perf suite.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace::build(sources.iter().map(|(p, s)| SourceFile::parse(p, s)).collect())
    }
}

/// A rule that checks the whole workspace at once.
pub trait WorkspaceRule {
    /// Registry name, used in diagnostics and `allow(...)` comments.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn description(&self) -> &'static str;
    /// Path substrings exempting whole files from this rule.
    fn allowlist(&self) -> &[String];
    /// Checks the workspace, returning all violations found.
    fn check(&self, ws: &Workspace) -> Vec<Violation>;

    /// True when `rel_path` is exempted by the allowlist.
    fn allowlisted(&self, rel_path: &str) -> bool {
        self.allowlist().iter().any(|p| rel_path.contains(p.as_str()))
    }
}

/// The v2 workspace rule registry.
pub fn default_workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(DeterminismConfinement::new(Vec::new())),
        Box::new(LaneIsolation::new(Vec::new())),
        Box::new(UnorderedFlow::new(Vec::new())),
    ]
}

/// Like [`token_cols`] but also requires a right identifier
/// boundary, for tokens that end in an identifier character.
fn token_cols_bounded(line: &str, tok: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    token_cols(line, tok)
        .into_iter()
        .filter(|&col| {
            let end = col - 1 + tok.len();
            bytes.get(end).is_none_or(|&b| {
                let c = b as char;
                !(c.is_ascii_alphanumeric() || c == '_')
            })
        })
        .collect()
}

/// Tokens whose presence in a fn body makes it a *direct* observer
/// of host nondeterminism. `env::var` also matches `env::var_os`;
/// `std::env::` paths match through the `env::` suffix boundary.
const SINK_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "env::var",
    "thread::current",
];

/// `determinism-confinement`: wall-clock, entropy, env reads, and
/// thread-id observation must stay inside `gvc-telemetry`. Proven
/// over the call graph: any fn outside telemetry that *reaches* a
/// sink through workspace calls is flagged at the call site that
/// imports the taint, with the chain in the message. Direct sink use
/// in lib crates stays the per-line `determinism` rule's job; this
/// rule catches the wrappers the line rule cannot see.
pub struct DeterminismConfinement {
    allow: Vec<String>,
}

impl DeterminismConfinement {
    /// New instance with `allow` path substrings.
    pub fn new(allow: Vec<String>) -> DeterminismConfinement {
        DeterminismConfinement { allow }
    }
}

/// Longest chain rendered in a confinement message.
const CHAIN_DISPLAY: usize = 4;
/// Propagation depth bound (defensive; real chains are short).
const CHAIN_MAX: usize = 16;

impl WorkspaceRule for DeterminismConfinement {
    fn name(&self) -> &'static str {
        "determinism-confinement"
    }

    fn description(&self) -> &'static str {
        "wall-clock/entropy/env/thread-id reachable only from gvc-telemetry, proven over the call graph"
    }

    fn allowlist(&self) -> &[String] {
        &self.allow
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let g = &ws.graph;
        // Pass 1: direct sinks per fn (suppressed sink lines do not
        // seed — that is what a justified allow(...) means here).
        let mut seeds: BTreeMap<usize, String> = BTreeMap::new();
        let mut sites: Vec<Violation> = Vec::new();
        for (i, f) in g.fns.iter().enumerate() {
            if f.is_test || f.krate == "telemetry" {
                continue;
            }
            let file = &ws.files[f.file];
            if self.allowlisted(&file.rel_path) {
                continue;
            }
            let mut toks: Vec<String> = SINK_TOKENS.iter().map(|t| (*t).to_string()).collect();
            for (alias, path) in g.files[f.file].uses.iter() {
                let joined = path.join("::");
                if joined == "std::time::Instant" || joined == "std::time::SystemTime" {
                    toks.push(format!("{alias}::now"));
                }
            }
            'body: for ln in f.body.clone() {
                let Some(line) = file.code.get(ln) else { break };
                if file.is_test.get(ln).copied().unwrap_or(false) {
                    continue;
                }
                for t in &toks {
                    let Some(&col) = token_cols(line, t).first() else {
                        continue;
                    };
                    if file.is_suppressed(self.name(), ln + 1) {
                        // A justified suppression contains the sink:
                        // no taint — but the site is still recorded
                        // (the runner routes it to the suppressed
                        // list) so the budget stays auditable.
                        sites.push(violation(
                            "determinism-confinement",
                            file,
                            ln,
                            col,
                            format!(
                                "`{}` directly observes nondeterministic `{t}` (suppressed \
                                 confinement boundary)",
                                f.qname
                            ),
                        ));
                        continue;
                    }
                    seeds.insert(i, t.clone());
                    break 'body;
                }
            }
        }
        // Pass 2: reverse call edges. Telemetry callees are the
        // confinement boundary: taint never crosses out of them.
        let mut callers: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
        for (i, f) in g.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for c in &f.calls {
                if let CallTarget::Fn(j) = g.resolve_call(c, f.file) {
                    if i == j || g.fns[j].krate == "telemetry" || g.fns[j].is_test {
                        continue;
                    }
                    callers.entry(j).or_default().push((i, c.line, c.col));
                }
            }
        }
        // Pass 3: backward propagation from the seeds; a fn is
        // flagged at the first call site that imports taint into it.
        let mut out = sites;
        let mut chains: BTreeMap<usize, (String, Vec<String>)> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (&i, sink) in &seeds {
            chains.insert(i, (sink.clone(), vec![g.fns[i].qname.clone()]));
            queue.push_back(i);
        }
        while let Some(j) = queue.pop_front() {
            let (sink, chain) = chains[&j].clone();
            if chain.len() >= CHAIN_MAX {
                continue;
            }
            let Some(edges) = callers.get(&j) else {
                continue;
            };
            for &(i, line, col) in edges {
                if chains.contains_key(&i) {
                    continue;
                }
                let f = &g.fns[i];
                let mut ch = vec![f.qname.clone()];
                ch.extend(chain.iter().cloned());
                chains.insert(i, (sink.clone(), ch.clone()));
                queue.push_back(i);
                if f.krate == "telemetry" {
                    continue;
                }
                let file = &ws.files[f.file];
                if self.allowlisted(&file.rel_path) {
                    continue;
                }
                let shown: Vec<&str> = ch.iter().take(CHAIN_DISPLAY).map(String::as_str).collect();
                let ellipsis = if ch.len() > CHAIN_DISPLAY { " -> ..." } else { "" };
                out.push(violation(
                    "determinism-confinement",
                    file,
                    line,
                    col,
                    format!(
                        "`{}` reaches nondeterministic `{}` via `{}{}`; only gvc-telemetry may \
                         observe host time/entropy — pass the value in as a parameter or move \
                         the probe behind gvc-telemetry",
                        f.qname,
                        sink,
                        shown.join(" -> "),
                        ellipsis
                    ),
                ));
            }
        }
        out
    }
}

/// Crates whose work may run on parallel lanes (the `rayon::join`
/// fan-outs in `gvc_core::sweep` and `gvc_bench::Scenarios::generate`
/// today): every lib crate except the host-facing telemetry crate.
fn lane_crates() -> Vec<&'static str> {
    LIB_CRATES.iter().copied().filter(|k| *k != "telemetry").collect()
}

/// Shared-mutable-state tokens banned in lane-fanned crates. A
/// parallel fan-out stays deterministic only while its lanes share
/// nothing mutable: any cross-lane channel — locks, atomics, mutable
/// statics, thread-locals — lets lane *timing* leak into results.
const SHARED_STATE_TOKENS: &[&str] = &[
    "static mut",
    "Mutex",
    "RwLock",
    "OnceLock",
    "LazyLock",
    "Condvar",
    "thread_local!",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Interior-mutability / non-`Send` hazards in struct fields.
const FIELD_HAZARDS: &[&str] = &["Rc<", "RefCell<", "Cell<", "UnsafeCell<", "*mut ", "*const "];

/// Tokens marking a fn body as a lane-spawn site.
const SPAWN_TOKENS: &[&str] = &["rayon::join", "thread::scope"];

/// `lane-isolation`: no shared mutable state in lane-fanned crates,
/// and types named in lane-spawning fn signatures must not hold
/// non-`Send` interior mutability (checked recursively through
/// workspace struct fields).
pub struct LaneIsolation {
    allow: Vec<String>,
}

impl LaneIsolation {
    /// New instance with `allow` path substrings.
    pub fn new(allow: Vec<String>) -> LaneIsolation {
        LaneIsolation { allow }
    }
}

impl WorkspaceRule for LaneIsolation {
    fn name(&self) -> &'static str {
        "lane-isolation"
    }

    fn description(&self) -> &'static str {
        "no shared mutable state in lane-fanned crates; lane-boundary types must be Send-safe"
    }

    fn allowlist(&self) -> &[String] {
        &self.allow
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let g = &ws.graph;
        let lanes = lane_crates();
        let mut out = Vec::new();
        // Token scan over non-test lines of lane-crate sources.
        for file in &ws.files {
            let Some((krate, tail)) = crate_of(&file.rel_path) else {
                continue;
            };
            if !lanes.contains(&krate)
                || !tail.starts_with("src/")
                || self.allowlisted(&file.rel_path)
            {
                continue;
            }
            for (idx, line) in file.code.iter().enumerate() {
                if file.is_test.get(idx).copied().unwrap_or(false) {
                    continue;
                }
                for tok in SHARED_STATE_TOKENS {
                    for col in token_cols(line, tok) {
                        out.push(violation(
                            "lane-isolation",
                            file,
                            idx,
                            col,
                            format!(
                                "shared mutable state `{tok}` in lane-fanned crate `{krate}`: \
                                 cross-lane channels make merge order timing-dependent and break \
                                 byte-identical replay"
                            ),
                        ));
                    }
                }
            }
        }
        // Send-boundary: types named in the signature of any fn that
        // spawns lanes must not hold interior mutability, transitively
        // through workspace struct fields.
        let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
        for f in &g.fns {
            if f.is_test {
                continue;
            }
            let file = &ws.files[f.file];
            let spawns = f.body.clone().any(|ln| {
                file.code
                    .get(ln)
                    .is_some_and(|l| SPAWN_TOKENS.iter().any(|t| !token_cols(l, t).is_empty()))
            });
            if !spawns {
                continue;
            }
            let mut visited: BTreeSet<String> = BTreeSet::new();
            for ty in type_idents(&f.sig) {
                self.scan_type(ws, &ty, &f.qname, &lanes, &mut visited, &mut seen, &mut out);
            }
        }
        out
    }
}

impl LaneIsolation {
    /// Recursively scans the fields of workspace type `name` (when it
    /// lives in a lane crate) for interior-mutability hazards,
    /// attributing findings to the lane boundary of `spawn_fn`.
    #[allow(clippy::too_many_arguments)]
    fn scan_type(
        &self,
        ws: &Workspace,
        name: &str,
        spawn_fn: &str,
        lanes: &[&'static str],
        visited: &mut BTreeSet<String>,
        seen: &mut BTreeSet<(String, usize)>,
        out: &mut Vec<Violation>,
    ) {
        if !visited.insert(name.to_string()) || visited.len() > 64 {
            return;
        }
        let g = &ws.graph;
        let Some(ids) = g.type_names.get(name) else {
            return;
        };
        for &ti in ids {
            let t = &g.types[ti];
            if t.is_test || !lanes.contains(&t.krate.as_str()) {
                continue;
            }
            let file = &ws.files[t.file];
            if self.allowlisted(&file.rel_path) {
                continue;
            }
            for (line, text) in &t.fields {
                for hz in FIELD_HAZARDS {
                    for col in token_cols(text, hz) {
                        if seen.insert((format!("{}:{line}", t.name), col)) {
                            out.push(violation(
                                "lane-isolation",
                                file,
                                *line,
                                col,
                                format!(
                                    "`{}` crosses the `{spawn_fn}` lane boundary but holds \
                                     `{}`; lane closures may only capture Send state",
                                    t.name,
                                    hz.trim_end()
                                ),
                            ));
                        }
                    }
                }
                for inner in type_idents(text) {
                    if inner != *name {
                        self.scan_type(ws, &inner, spawn_fn, lanes, visited, seen, out);
                    }
                }
            }
        }
    }
}

/// Uppercase-starting identifiers in a signature or field line —
/// candidate type names for workspace lookup.
fn type_idents(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if cur.starts_with(|c: char| c.is_ascii_uppercase()) && cur.len() > 1 {
                out.push(std::mem::take(&mut cur));
            }
            cur.clear();
        }
    }
    if cur.starts_with(|c: char| c.is_ascii_uppercase()) && cur.len() > 1 {
        out.push(cur);
    }
    out.sort();
    out.dedup();
    out
}

/// Patterns that iterate a tracked binding.
const ITER_SUFFIXES: &[&str] =
    &[".iter()", ".iter_mut()", ".into_iter()", ".keys()", ".values()", ".values_mut()", ".drain("];

/// `unordered-iteration-v2`: dataflow extension of the v1
/// `ordered-iteration` rule. Where v1 flags literal
/// `HashMap`-mention-plus-iteration in the same file, v2 follows
/// unordered collections *returned by workspace fns* through `let`
/// bindings and flags the downstream iteration in presentation code.
pub struct UnorderedFlow {
    allow: Vec<String>,
}

impl UnorderedFlow {
    /// New instance with `allow` path substrings.
    pub fn new(allow: Vec<String>) -> UnorderedFlow {
        UnorderedFlow { allow }
    }
}

/// True for files whose output is rendered for humans — the scope of
/// both ordered-iteration rules.
fn is_presentation(rel: &str) -> bool {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    PRESENTATION_FILES.contains(&name) || rel.starts_with("crates/cli/src/")
}

/// The unordered collection named in a fn's return type, if any.
fn returns_unordered(sig: &str) -> Option<&'static str> {
    let ret = sig.split("->").nth(1)?;
    if !token_cols(ret, "HashMap").is_empty() {
        return Some("HashMap");
    }
    if !token_cols(ret, "HashSet").is_empty() {
        return Some("HashSet");
    }
    None
}

/// The identifier bound by a `let [mut] name = …` ending at `col`.
fn let_binding(prefix: &str) -> Option<String> {
    let at = prefix.rfind("let ")?;
    let rest = prefix[at + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
    let name = &rest[..end];
    let after = rest[end..].trim_start();
    (!name.is_empty() && after.starts_with('=') && !after.starts_with("=="))
        .then(|| name.to_string())
}

impl WorkspaceRule for UnorderedFlow {
    fn name(&self) -> &'static str {
        "unordered-iteration-v2"
    }

    fn description(&self) -> &'static str {
        "tracks HashMap/HashSet through let bindings and fn returns into presentation iteration"
    }

    fn allowlist(&self) -> &[String] {
        &self.allow
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let g = &ws.graph;
        let mut out = Vec::new();
        for f in &g.fns {
            let file = &ws.files[f.file];
            if f.is_test || !is_presentation(&file.rel_path) || self.allowlisted(&file.rel_path) {
                continue;
            }
            // binding name -> (collection kind, source fn qname)
            let mut tracked: BTreeMap<String, (&'static str, String)> = BTreeMap::new();
            for ln in f.body.clone() {
                let Some(line) = file.code.get(ln) else { break };
                for c in f.calls.iter().filter(|c| c.line == ln) {
                    let CallTarget::Fn(j) = g.resolve_call(c, f.file) else {
                        continue;
                    };
                    let Some(kind) = returns_unordered(&g.fns[j].sig) else {
                        continue;
                    };
                    let prefix = &line[..c.col - 1];
                    if let Some(name) = let_binding(prefix) {
                        tracked.insert(name, (kind, g.fns[j].qname.clone()));
                    } else if prefix.contains(" in ") && line.trim_start().starts_with("for ") {
                        out.push(violation(
                            "unordered-iteration-v2",
                            file,
                            ln,
                            c.col,
                            format!(
                                "iterating the `{kind}` returned by `{}` directly; its order is \
                                 nondeterministic — collect into a BTree or sort first",
                                g.fns[j].qname
                            ),
                        ));
                    }
                }
                for (name, (kind, src)) in &tracked {
                    let mut cols: Vec<usize> = Vec::new();
                    for suf in ITER_SUFFIXES {
                        cols.extend(token_cols(line, &format!("{name}{suf}")));
                    }
                    if line.trim_start().starts_with("for ") {
                        for pat in
                            [format!("in {name}"), format!("in &{name}"), format!("in &mut {name}")]
                        {
                            cols.extend(token_cols_bounded(line, &pat));
                        }
                    }
                    cols.sort_unstable();
                    cols.dedup();
                    for col in cols {
                        out.push(violation(
                            "unordered-iteration-v2",
                            file,
                            ln,
                            col,
                            format!(
                                "`{name}` holds an unordered `{kind}` returned by `{src}`; \
                                 iterating it in presentation code leaks nondeterministic order \
                                 — collect into a BTree or sort first"
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_rule(rule: &dyn WorkspaceRule, files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let ws = Workspace::from_sources(files);
        rule.check(&ws).into_iter().map(|v| (v.path, v.line)).collect()
    }

    #[test]
    fn confinement_flags_two_hop_wrapper() {
        let sink = "pub fn stamp() -> u64 {\n    let t = std::time::Instant::now();\n    0\n}\n";
        let mid = "use gvc_net::stamp;\npub fn mid() -> u64 { stamp() }\n";
        let entry = "use gvc_core::mid;\npub fn entry() -> u64 { mid() }\n";
        let vs = check_rule(
            &DeterminismConfinement::new(Vec::new()),
            &[
                ("crates/net/src/lib.rs", sink),
                ("crates/core/src/lib.rs", mid),
                ("crates/gridftp/src/lib.rs", entry),
            ],
        );
        assert_eq!(
            vs,
            vec![
                ("crates/core/src/lib.rs".to_string(), 2),
                ("crates/gridftp/src/lib.rs".to_string(), 2),
            ]
        );
    }

    #[test]
    fn confinement_stops_at_telemetry_boundary() {
        let probe = "pub fn probe() -> f64 {\n    let t = std::time::Instant::now();\n    0.0\n}\n";
        let user = "use gvc_telemetry::probe;\npub fn timed() -> f64 { probe() }\n";
        let vs = check_rule(
            &DeterminismConfinement::new(Vec::new()),
            &[("crates/telemetry/src/lib.rs", probe), ("crates/core/src/lib.rs", user)],
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn confinement_suppressed_seed_does_not_taint() {
        let sink = "pub fn stamp() -> u64 {\n    \
                    // gvc-lint: allow(determinism-confinement) — host-only snapshot naming\n    \
                    let v = std::env::var(\"X\");\n    0\n}\n";
        let caller = "use gvc_bench::stamp;\npub fn wrap() -> u64 { stamp() }\n";
        let vs = check_rule(
            &DeterminismConfinement::new(Vec::new()),
            &[("crates/bench/src/lib.rs", sink), ("crates/core/src/lib.rs", caller)],
        );
        // The suppressed sink site itself is still recorded (the
        // runner routes it to the suppressed list), but no taint
        // reaches the caller.
        assert_eq!(vs, vec![("crates/bench/src/lib.rs".to_string(), 3)]);
    }

    #[test]
    fn lane_isolation_flags_shared_state_and_send_hazards() {
        let bad = "use std::sync::Mutex;\npub struct S {\n    m: Mutex<u32>,\n}\n";
        let vs = check_rule(&LaneIsolation::new(Vec::new()), &[("crates/core/src/s.rs", bad)]);
        // One hit for the use, one for the field.
        assert_eq!(vs.len(), 2, "{vs:?}");
        let carrier = "pub struct Carrier {\n    cell: std::cell::RefCell<u32>,\n}\n\
                       pub fn fan_out(c: Carrier) {\n    rayon::join(|| (), || ());\n}\n";
        let vs =
            check_rule(&LaneIsolation::new(Vec::new()), &[("crates/engine/src/l.rs", carrier)]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].1, 2);
    }

    #[test]
    fn lane_isolation_ignores_telemetry_and_tests() {
        let tele = "use std::sync::Mutex;\npub struct T {\n    m: Mutex<u32>,\n}\n";
        let test = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn f() {\n        \
                    let m = Mutex::new(0);\n    }\n}\n";
        let vs = check_rule(
            &LaneIsolation::new(Vec::new()),
            &[("crates/telemetry/src/t.rs", tele), ("crates/core/src/ok.rs", test)],
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unordered_flow_tracks_let_bindings() {
        let producer = "use std::collections::HashSet;\npub fn pair_set() -> HashSet<u32> {\n    \
             HashSet::new()\n}\n";
        let consumer =
            "use gvc_hntes::pair_set;\npub fn render() {\n    let pairs = pair_set();\n    \
                        for p in &pairs {\n        let _ = p;\n    }\n}\n";
        let vs = check_rule(
            &UnorderedFlow::new(Vec::new()),
            &[("crates/hntes/src/lib.rs", producer), ("crates/cli/src/report.rs", consumer)],
        );
        assert_eq!(vs, vec![("crates/cli/src/report.rs".to_string(), 4)]);
    }

    #[test]
    fn unordered_flow_ignores_non_presentation_and_ordered_returns() {
        let producer = "use std::collections::HashSet;\npub fn pair_set() -> HashSet<u32> {\n    \
                        HashSet::new()\n}\n";
        let engine_use =
            "use gvc_hntes::pair_set;\npub fn consume() {\n    let p = pair_set();\n    \
                          for x in &p {\n        let _ = x;\n    }\n}\n";
        let sorted = "use gvc_hntes::pair_set;\npub fn render() {\n    let mut v: Vec<u32> = \
                      pair_set().into_iter().collect();\n    v.sort_unstable();\n}\n";
        let vs = check_rule(
            &UnorderedFlow::new(Vec::new()),
            &[
                ("crates/hntes/src/lib.rs", producer),
                ("crates/engine/src/consume.rs", engine_use),
                ("crates/cli/src/fmt.rs", sorted),
            ],
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}

//! The declarative scenario spec format (`*.scn`).
//!
//! A spec is a line-oriented, dependency-free text format: `[section]`
//! headers followed by `key = value` lines, `#`-prefixed comment
//! lines, and blank lines. Sections:
//!
//! * `[scenario]` — name, description, seed (exactly once);
//! * `[topology]` — `kind = study | graph | chain` plus chain knobs
//!   (exactly once);
//! * `[node]` / `[link]` — repeated, `kind = graph` only;
//! * `[cluster]` — repeated, endpoint clusters for synthetic
//!   workloads;
//! * `[workload]` — a paper profile (`paper-ncar|slac|anl|ornl`) or a
//!   synthetic mix (`steady | bursty | flash-crowd`) with its knobs
//!   (exactly once);
//! * `[faults]` — optional, a `gvc-faults` plan string;
//! * `[expect]` — optional bounds checked on every run.
//!
//! Parsing is total: malformed input produces a typed [`SpecError`]
//! with a 1-based line number, never a panic. [`ScenarioSpec::parse`]
//! normalizes every optional knob to its default, so
//! `parse(to_spec_string(parse(text)))` is the identity on the
//! resulting struct (the proptest suite holds this as a law).

use std::fmt;

use gvc_faults::FaultPlan;

use crate::workload::{reservation_window_s, MAX_FILE_BYTES};

/// Largest time value a synthetic workload may carry, seconds (about
/// 31 700 years). It sits far inside the sim clock's microsecond
/// range, so every instant and span the runner derives from a spec
/// (horizon plus drain slack, flash start plus window, a session's
/// reservation window) fits the clock.
pub const MAX_SPEC_SECS: f64 = 1e12;

/// A parse or validation failure, pinned to a spec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec: {}", self.message)
        } else {
            write!(f, "spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError { line, message: message.into() })
}

/// A full scenario: everything `gvc scenario run` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Corpus-unique name; also the golden directory name.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Master seed; every RNG stream derives from it.
    pub seed: u64,
    /// The network under test.
    pub topology: TopologySpec,
    /// Endpoint clusters (synthetic workloads only).
    pub clusters: Vec<ClusterSpec>,
    /// The transfer mix.
    pub workload: WorkloadSpec,
    /// Optional fault plan (the `gvc-faults` grammar).
    pub fault_plan: Option<String>,
    /// Bounds checked on every run.
    pub expect: ExpectSpec,
}

/// The network under test.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's ESnet study topology (`gvc-topology`).
    Study,
    /// A declarative node/link graph.
    Graph {
        /// Nodes, in spec order.
        nodes: Vec<NodeSpec>,
        /// Duplex links, in spec order.
        links: Vec<LinkSpec>,
    },
    /// A linear multi-domain chain with one DTN host at each end
    /// (`src-dtn`, `dst-dtn`) for interdomain scenarios.
    Chain {
        /// Number of domains (≥ 2).
        domains: u32,
        /// Backbone hubs per domain (≥ 1).
        hubs_per_domain: u32,
        /// Capacity of every chain link.
        link_gbps: f64,
        /// One-way delay of every chain link.
        hop_delay_ms: f64,
    },
}

/// One graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Unique node name.
    pub name: String,
    /// `host` (DTN endpoint) or `router`.
    pub host: bool,
}

/// One duplex graph link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Endpoint node name.
    pub from: String,
    /// Endpoint node name.
    pub to: String,
    /// Capacity in Gb/s.
    pub gbps: f64,
    /// One-way delay in milliseconds.
    pub delay_ms: f64,
}

/// A GridFTP server pool attached to one node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name, referenced by `[workload] src/dst`.
    pub name: String,
    /// Where the pool attaches.
    pub attach: AttachSpec,
    /// Server count (≥ 1).
    pub servers: u32,
    /// Per-server NIC rate.
    pub nic_gbps: f64,
    /// Aggregate disk read rate.
    pub disk_read_gbps: f64,
    /// Aggregate disk write rate.
    pub disk_write_gbps: f64,
    /// Per-node cap across servers.
    pub node_cap_gbps: f64,
}

/// Cluster attachment point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachSpec {
    /// A study-topology site DTN (`kind = study` only).
    Site(String),
    /// A named node (`kind = graph | chain`).
    Node(String),
}

/// The transfer mix.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One of the paper's four path generators (study topology only;
    /// the generator registers its own clusters).
    Paper {
        /// Which generator.
        profile: PaperProfile,
        /// Fraction of the paper's workload volume.
        scale: f64,
    },
    /// A synthetic mix between two `[cluster]`s.
    Synthetic(SyntheticWorkload),
}

/// The paper's four source–destination paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperProfile {
    /// NCAR → NICS (Table III/VII–IX shape).
    NcarNics,
    /// SLAC → BNL.
    SlacBnl,
    /// NERSC → ANL production sessions.
    NerscAnl,
    /// NERSC → ORNL instrumented path.
    NerscOrnl,
}

impl PaperProfile {
    /// The `profile =` token.
    pub fn token(self) -> &'static str {
        match self {
            PaperProfile::NcarNics => "paper-ncar",
            PaperProfile::SlacBnl => "paper-slac",
            PaperProfile::NerscAnl => "paper-anl",
            PaperProfile::NerscOrnl => "paper-ornl",
        }
    }
}

/// Arrival shape of a synthetic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// NorduGrid-style Poisson arrivals at a steady mean rate.
    Steady,
    /// PAMELA-style periodic downlink bursts: every `burst_period_s`,
    /// `burst_sessions` sessions land inside `burst_window_s`.
    Bursty,
    /// One flash crowd: all sessions land inside `burst_window_s` of
    /// `flash_at_s`.
    FlashCrowd,
}

impl ArrivalProfile {
    /// The `profile =` token.
    pub fn token(self) -> &'static str {
        match self {
            ArrivalProfile::Steady => "steady",
            ArrivalProfile::Bursty => "bursty",
            ArrivalProfile::FlashCrowd => "flash-crowd",
        }
    }
}

/// A synthetic workload, fully concrete (defaults applied at parse).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// Arrival shape.
    pub profile: ArrivalProfile,
    /// Source cluster name.
    pub src: String,
    /// Destination cluster name.
    pub dst: String,
    /// Session budget (steady/flash-crowd; bursty derives its count
    /// from the burst knobs).
    pub sessions: u32,
    /// Simulated horizon; arrivals past it are dropped.
    pub horizon_s: f64,
    /// Steady: mean inter-arrival time.
    pub mean_interarrival_s: f64,
    /// Bursty: orbital period between downlink passes.
    pub burst_period_s: f64,
    /// Bursty: sessions per pass.
    pub burst_sessions: u32,
    /// Bursty/flash-crowd: arrival window width.
    pub burst_window_s: f64,
    /// Flash-crowd: window start.
    pub flash_at_s: f64,
    /// Transfers per session.
    pub transfers_per_session: u32,
    /// Inter-transfer think time.
    pub gap_s: f64,
    /// Lognormal file-size median.
    pub median_size_mb: f64,
    /// Lognormal file-size mean (must exceed the median).
    pub mean_size_mb: f64,
    /// Fraction of sessions that request a virtual circuit.
    pub vc_fraction: f64,
    /// Requested circuit rate.
    pub vc_rate_gbps: f64,
    /// Concurrent transfers within a session (≥ 1).
    pub concurrency: u32,
}

impl Default for SyntheticWorkload {
    fn default() -> SyntheticWorkload {
        SyntheticWorkload {
            profile: ArrivalProfile::Steady,
            src: String::new(),
            dst: String::new(),
            sessions: 20,
            horizon_s: 86_400.0,
            mean_interarrival_s: 600.0,
            burst_period_s: 5_700.0,
            burst_sessions: 5,
            burst_window_s: 300.0,
            flash_at_s: 3_600.0,
            transfers_per_session: 6,
            gap_s: 5.0,
            median_size_mb: 256.0,
            mean_size_mb: 1_024.0,
            vc_fraction: 0.5,
            vc_rate_gbps: 1.0,
            concurrency: 1,
        }
    }
}

/// Optional bounds checked against every run's outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpectSpec {
    /// Lower bound on logged transfers.
    pub min_transfers: Option<u64>,
    /// Upper bound on logged transfers.
    pub max_transfers: Option<u64>,
    /// Lower bound on the headline (60 s setup, 60 s gap) suitable
    /// session percentage.
    pub min_suitable_sessions_pct: Option<f64>,
    /// Upper bound on the trace check's setup share.
    pub max_setup_share: Option<f64>,
    /// Exact resilience storyline (fault scenarios).
    pub vc_requested: Option<u64>,
    /// Exact circuits established.
    pub vc_established: Option<u64>,
    /// Exact faults injected.
    pub faults_injected: Option<u64>,
    /// Exact retry count.
    pub retries: Option<u64>,
    /// Exact IP-fallback count.
    pub fallbacks: Option<u64>,
    /// Exact preemption count.
    pub preemptions: Option<u64>,
    /// Exact leaked-reservation count (0 asserts clean teardown).
    pub open_reservations: Option<u64>,
}

impl ExpectSpec {
    fn is_empty(&self) -> bool {
        *self == ExpectSpec::default()
    }
}

// ---------------------------------------------------------------- parsing

/// One raw `key = value` entry with its line number and a
/// consumed-flag so unknown keys can be reported.
struct Entry {
    line: usize,
    key: String,
    value: String,
    used: bool,
}

/// One raw `[section]` with its entries.
struct Section {
    line: usize,
    name: String,
    entries: Vec<Entry>,
}

impl Section {
    fn take(&mut self, key: &str) -> Option<(usize, String)> {
        for e in &mut self.entries {
            if !e.used && e.key == key {
                e.used = true;
                return Some((e.line, e.value.clone()));
            }
        }
        None
    }

    fn req(&mut self, key: &str) -> Result<(usize, String), SpecError> {
        match self.take(key) {
            Some(kv) => Ok(kv),
            None => err(self.line, format!("[{}] is missing required key `{key}`", self.name)),
        }
    }

    fn finish(&self) -> Result<(), SpecError> {
        for e in &self.entries {
            if !e.used {
                return err(e.line, format!("unknown key `{}` in [{}]", e.key, self.name));
            }
        }
        Ok(())
    }
}

fn parse_u64(line: usize, key: &str, v: &str) -> Result<u64, SpecError> {
    match v.parse::<u64>() {
        Ok(n) => Ok(n),
        Err(_) => err(line, format!("`{key}` wants a non-negative integer, got {v:?}")),
    }
}

fn parse_u32(line: usize, key: &str, v: &str) -> Result<u32, SpecError> {
    match v.parse::<u32>() {
        Ok(n) => Ok(n),
        Err(_) => err(line, format!("`{key}` wants a non-negative integer, got {v:?}")),
    }
}

fn parse_f64(line: usize, key: &str, v: &str) -> Result<f64, SpecError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => err(line, format!("`{key}` wants a finite number, got {v:?}")),
    }
}

fn parse_pos_f64(line: usize, key: &str, v: &str) -> Result<f64, SpecError> {
    let x = parse_f64(line, key, v)?;
    if x > 0.0 {
        Ok(x)
    } else {
        err(line, format!("`{key}` must be positive, got {v}"))
    }
}

/// Names usable as scenario/cluster/node identifiers: lowercase
/// letters and digits separated by single `-`/`_`/`.`, starting with
/// an alphanumeric. Keeps golden directory names and fault-plan link
/// references unambiguous.
fn check_name(line: usize, key: &str, v: &str) -> Result<String, SpecError> {
    let ok = !v.is_empty()
        && v.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_.".contains(c))
        && v.starts_with(|c: char| c.is_ascii_lowercase() || c.is_ascii_digit())
        && v.ends_with(|c: char| c.is_ascii_lowercase() || c.is_ascii_digit());
    if ok {
        Ok(v.to_owned())
    } else {
        err(
            line,
            format!(
                "`{key}` wants a name of lowercase letters, digits, and interior `-_.`, \
                 got {v:?}"
            ),
        )
    }
}

fn split_sections(text: &str) -> Result<Vec<Section>, SpecError> {
    let mut sections: Vec<Section> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix('[') {
            let Some(name) = inner.strip_suffix(']') else {
                return err(line, format!("malformed section header {trimmed:?}"));
            };
            let name = name.trim();
            if name.is_empty() {
                return err(line, "empty section header");
            }
            sections.push(Section { line, name: name.to_owned(), entries: Vec::new() });
            continue;
        }
        let Some((key, value)) = trimmed.split_once('=') else {
            return err(line, format!("expected `key = value` or `[section]`, got {trimmed:?}"));
        };
        let key = key.trim().to_owned();
        let value = value.trim().to_owned();
        if key.is_empty() {
            return err(line, "empty key");
        }
        let Some(section) = sections.last_mut() else {
            return err(line, format!("`{key}` appears before any [section] header"));
        };
        if section.entries.iter().any(|e| e.key == key) {
            return err(line, format!("duplicate key `{key}` in [{}]", section.name));
        }
        section.entries.push(Entry { line, key, value, used: false });
    }
    Ok(sections)
}

impl ScenarioSpec {
    /// Parses and validates a spec. Every failure is a typed
    /// [`SpecError`]; this function never panics.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let sections = split_sections(text)?;

        let mut scenario: Option<Section> = None;
        let mut topology: Option<Section> = None;
        let mut workload: Option<Section> = None;
        let mut faults: Option<Section> = None;
        let mut expect: Option<Section> = None;
        let mut nodes: Vec<Section> = Vec::new();
        let mut links: Vec<Section> = Vec::new();
        let mut clusters: Vec<Section> = Vec::new();

        for s in sections {
            let slot = match s.name.as_str() {
                "scenario" => &mut scenario,
                "topology" => &mut topology,
                "workload" => &mut workload,
                "faults" => &mut faults,
                "expect" => &mut expect,
                "node" => {
                    nodes.push(s);
                    continue;
                }
                "link" => {
                    links.push(s);
                    continue;
                }
                "cluster" => {
                    clusters.push(s);
                    continue;
                }
                other => return err(s.line, format!("unknown section [{other}]")),
            };
            if slot.is_some() {
                return err(s.line, format!("duplicate section [{}]", s.name));
            }
            *slot = Some(s);
        }

        let Some(mut scn) = scenario else {
            return err(0, "missing [scenario] section");
        };
        let (nl, name) = scn.req("name")?;
        let name = check_name(nl, "name", &name)?;
        let description = scn.take("description").map(|(_, v)| v).unwrap_or_default();
        let (sl, seed) = scn.req("seed")?;
        let seed = parse_u64(sl, "seed", &seed)?;
        scn.finish()?;

        let Some(mut topo) = topology else {
            return err(0, "missing [topology] section");
        };
        let (kl, kind) = topo.req("kind")?;
        let topology = match kind.as_str() {
            "study" => TopologySpec::Study,
            "graph" => {
                let mut ns = Vec::new();
                for mut s in std::mem::take(&mut nodes) {
                    let (l, n) = s.req("name")?;
                    let node_name = check_name(l, "name", &n)?;
                    let (l, k) = s.req("kind")?;
                    let host = match k.as_str() {
                        "host" => true,
                        "router" => false,
                        other => {
                            return err(l, format!("node kind wants host|router, got {other:?}"))
                        }
                    };
                    s.finish()?;
                    ns.push(NodeSpec { name: node_name, host });
                }
                let mut ls = Vec::new();
                for mut s in std::mem::take(&mut links) {
                    let (l, f) = s.req("from")?;
                    let from = check_name(l, "from", &f)?;
                    let (l, t) = s.req("to")?;
                    let to = check_name(l, "to", &t)?;
                    let (l, g) = s.req("gbps")?;
                    let gbps = parse_pos_f64(l, "gbps", &g)?;
                    let (l, d) = s.req("delay_ms")?;
                    let delay_ms = parse_pos_f64(l, "delay_ms", &d)?;
                    s.finish()?;
                    ls.push(LinkSpec { from, to, gbps, delay_ms });
                }
                TopologySpec::Graph { nodes: ns, links: ls }
            }
            "chain" => {
                let (l, d) = topo.req("domains")?;
                let domains = parse_u32(l, "domains", &d)?;
                if domains < 2 {
                    return err(l, "chain wants at least 2 domains");
                }
                let (l, h) = topo.req("hubs_per_domain")?;
                let hubs_per_domain = parse_u32(l, "hubs_per_domain", &h)?;
                if hubs_per_domain < 1 {
                    return err(l, "chain wants at least 1 hub per domain");
                }
                let (l, g) = topo.req("link_gbps")?;
                let link_gbps = parse_pos_f64(l, "link_gbps", &g)?;
                let (l, dm) = topo.req("hop_delay_ms")?;
                let hop_delay_ms = parse_pos_f64(l, "hop_delay_ms", &dm)?;
                TopologySpec::Chain { domains, hubs_per_domain, link_gbps, hop_delay_ms }
            }
            other => {
                return err(kl, format!("topology kind wants study|graph|chain, got {other:?}"))
            }
        };
        topo.finish()?;
        if !matches!(topology, TopologySpec::Graph { .. }) {
            if let Some(s) = nodes.first().or(links.first()) {
                return err(s.line, format!("[{}] sections want topology kind = graph", s.name));
            }
        }

        let mut cluster_specs = Vec::new();
        for mut s in clusters {
            let line = s.line;
            let (l, n) = s.req("name")?;
            let cname = check_name(l, "name", &n)?;
            let attach = match (s.take("site"), s.take("node")) {
                (Some((l, v)), None) => AttachSpec::Site(check_name(l, "site", &v)?),
                (None, Some((l, v))) => AttachSpec::Node(check_name(l, "node", &v)?),
                (Some(_), Some((l, _))) => {
                    return err(l, "cluster wants `site` or `node`, not both")
                }
                (None, None) => return err(line, "cluster wants a `site` or `node` attachment"),
            };
            let (l, v) = s.req("servers")?;
            let servers = parse_u32(l, "servers", &v)?;
            if servers == 0 {
                return err(l, "`servers` must be at least 1");
            }
            let opt_caps = |s: &mut Section, key: &str, default: f64| match s.take(key) {
                Some((l, v)) => parse_pos_f64(l, key, &v),
                None => Ok(default),
            };
            let nic_gbps = opt_caps(&mut s, "nic_gbps", 10.0)?;
            let disk_read_gbps = opt_caps(&mut s, "disk_read_gbps", 2.8)?;
            let disk_write_gbps = opt_caps(&mut s, "disk_write_gbps", 2.2)?;
            let node_cap_gbps = opt_caps(&mut s, "node_cap_gbps", 2.4)?;
            s.finish()?;
            cluster_specs.push(ClusterSpec {
                name: cname,
                attach,
                servers,
                nic_gbps,
                disk_read_gbps,
                disk_write_gbps,
                node_cap_gbps,
            });
        }

        let Some(mut wl) = workload else {
            return err(0, "missing [workload] section");
        };
        let (pl, profile) = wl.req("profile")?;
        let workload = match profile.as_str() {
            "paper-ncar" | "paper-slac" | "paper-anl" | "paper-ornl" => {
                let profile = match profile.as_str() {
                    "paper-ncar" => PaperProfile::NcarNics,
                    "paper-slac" => PaperProfile::SlacBnl,
                    "paper-anl" => PaperProfile::NerscAnl,
                    _ => PaperProfile::NerscOrnl,
                };
                let scale = match wl.take("scale") {
                    Some((l, v)) => {
                        let x = parse_pos_f64(l, "scale", &v)?;
                        if x > 10.0 {
                            return err(l, "`scale` must be at most 10");
                        }
                        x
                    }
                    None => 1.0,
                };
                WorkloadSpec::Paper { profile, scale }
            }
            "steady" | "bursty" | "flash-crowd" => {
                let arrival = match profile.as_str() {
                    "steady" => ArrivalProfile::Steady,
                    "bursty" => ArrivalProfile::Bursty,
                    _ => ArrivalProfile::FlashCrowd,
                };
                let d = SyntheticWorkload::default();
                let (l, src) = wl.req("src")?;
                let src = check_name(l, "src", &src)?;
                let (l, dst) = wl.req("dst")?;
                let dst = check_name(l, "dst", &dst)?;
                let opt_u32 = |wl: &mut Section, key: &str, default: u32| match wl.take(key) {
                    Some((l, v)) => parse_u32(l, key, &v),
                    None => Ok(default),
                };
                let opt_f64 = |wl: &mut Section, key: &str, default: f64| match wl.take(key) {
                    Some((l, v)) => parse_pos_f64(l, key, &v),
                    None => Ok(default),
                };
                let opt_secs = |wl: &mut Section, key: &str, default: f64| match wl.take(key) {
                    Some((l, v)) => {
                        let x = parse_pos_f64(l, key, &v)?;
                        if x > MAX_SPEC_SECS {
                            return err(l, format!("`{key}` must be at most {MAX_SPEC_SECS:e} s"));
                        }
                        Ok(x)
                    }
                    None => Ok(default),
                };
                let sessions = opt_u32(&mut wl, "sessions", d.sessions)?;
                let horizon_s = opt_secs(&mut wl, "horizon_s", d.horizon_s)?;
                let mean_interarrival_s =
                    opt_secs(&mut wl, "mean_interarrival_s", d.mean_interarrival_s)?;
                let burst_period_s = opt_secs(&mut wl, "burst_period_s", d.burst_period_s)?;
                let burst_sessions = opt_u32(&mut wl, "burst_sessions", d.burst_sessions)?;
                let burst_window_s = opt_secs(&mut wl, "burst_window_s", d.burst_window_s)?;
                let flash_at_s = opt_secs(&mut wl, "flash_at_s", d.flash_at_s)?;
                let transfers_per_session =
                    opt_u32(&mut wl, "transfers_per_session", d.transfers_per_session)?;
                let gap_s = opt_secs(&mut wl, "gap_s", d.gap_s)?;
                let median_size_mb = opt_f64(&mut wl, "median_size_mb", d.median_size_mb)?;
                let mean_size_mb = opt_f64(&mut wl, "mean_size_mb", d.mean_size_mb)?;
                let vc_fraction = match wl.take("vc_fraction") {
                    Some((l, v)) => {
                        let x = parse_f64(l, "vc_fraction", &v)?;
                        if !(0.0..=1.0).contains(&x) {
                            return err(l, "`vc_fraction` must be within [0, 1]");
                        }
                        x
                    }
                    None => d.vc_fraction,
                };
                let vc_rate_gbps = opt_f64(&mut wl, "vc_rate_gbps", d.vc_rate_gbps)?;
                let concurrency = opt_u32(&mut wl, "concurrency", d.concurrency)?;
                if sessions == 0 {
                    return err(wl.line, "`sessions` must be at least 1");
                }
                if burst_sessions == 0 {
                    return err(wl.line, "`burst_sessions` must be at least 1");
                }
                // A bursty schedule lands `burst_sessions` per pass; hold
                // its session count to the ceiling `sessions` has.
                let passes = (horizon_s / burst_period_s).ceil();
                if arrival == ArrivalProfile::Bursty
                    && passes * f64::from(burst_sessions) > f64::from(u32::MAX)
                {
                    return err(
                        wl.line,
                        format!(
                            "`burst_period_s` is too short: {passes:e} passes of \
                             {burst_sessions} sessions exceed {} sessions",
                            u32::MAX
                        ),
                    );
                }
                if transfers_per_session == 0 {
                    return err(wl.line, "`transfers_per_session` must be at least 1");
                }
                if concurrency == 0 {
                    return err(wl.line, "`concurrency` must be at least 1");
                }
                if mean_size_mb <= median_size_mb {
                    return err(wl.line, "`mean_size_mb` must exceed `median_size_mb`");
                }
                let worst_total_bytes = f64::from(transfers_per_session) * MAX_FILE_BYTES;
                if reservation_window_s(worst_total_bytes, vc_rate_gbps * 1e9) > MAX_SPEC_SECS {
                    return err(
                        wl.line,
                        format!(
                            "`vc_rate_gbps` is too low: a session's circuit reservation window \
                             could exceed {MAX_SPEC_SECS:e} s"
                        ),
                    );
                }
                WorkloadSpec::Synthetic(SyntheticWorkload {
                    profile: arrival,
                    src,
                    dst,
                    sessions,
                    horizon_s,
                    mean_interarrival_s,
                    burst_period_s,
                    burst_sessions,
                    burst_window_s,
                    flash_at_s,
                    transfers_per_session,
                    gap_s,
                    median_size_mb,
                    mean_size_mb,
                    vc_fraction,
                    vc_rate_gbps,
                    concurrency,
                })
            }
            other => {
                return err(
                    pl,
                    format!(
                        "workload profile wants paper-ncar|paper-slac|paper-anl|paper-ornl|\
                         steady|bursty|flash-crowd, got {other:?}"
                    ),
                )
            }
        };
        wl.finish()?;

        let fault_plan = match faults {
            Some(mut s) => {
                let (l, plan) = s.req("plan")?;
                s.finish()?;
                if let Err(e) = FaultPlan::parse(&plan) {
                    return err(l, format!("bad fault plan: {e}"));
                }
                Some(plan)
            }
            None => None,
        };

        let expect = match expect {
            Some(mut s) => {
                let opt_u64 = |s: &mut Section, key: &str| match s.take(key) {
                    Some((l, v)) => parse_u64(l, key, &v).map(Some),
                    None => Ok(None),
                };
                let min_transfers = opt_u64(&mut s, "min_transfers")?;
                let max_transfers = opt_u64(&mut s, "max_transfers")?;
                let min_suitable_sessions_pct = match s.take("min_suitable_sessions_pct") {
                    Some((l, v)) => {
                        let x = parse_f64(l, "min_suitable_sessions_pct", &v)?;
                        if !(0.0..=100.0).contains(&x) {
                            return err(l, "`min_suitable_sessions_pct` must be within [0, 100]");
                        }
                        Some(x)
                    }
                    None => None,
                };
                let max_setup_share = match s.take("max_setup_share") {
                    Some((l, v)) => {
                        let x = parse_f64(l, "max_setup_share", &v)?;
                        if !(0.0..=1.0).contains(&x) {
                            return err(l, "`max_setup_share` must be within [0, 1]");
                        }
                        Some(x)
                    }
                    None => None,
                };
                let vc_requested = opt_u64(&mut s, "vc_requested")?;
                let vc_established = opt_u64(&mut s, "vc_established")?;
                let faults_injected = opt_u64(&mut s, "faults_injected")?;
                let retries = opt_u64(&mut s, "retries")?;
                let fallbacks = opt_u64(&mut s, "fallbacks")?;
                let preemptions = opt_u64(&mut s, "preemptions")?;
                let open_reservations = opt_u64(&mut s, "open_reservations")?;
                s.finish()?;
                ExpectSpec {
                    min_transfers,
                    max_transfers,
                    min_suitable_sessions_pct,
                    max_setup_share,
                    vc_requested,
                    vc_established,
                    faults_injected,
                    retries,
                    fallbacks,
                    preemptions,
                    open_reservations,
                }
            }
            None => ExpectSpec::default(),
        };

        let spec = ScenarioSpec {
            name,
            description,
            seed,
            topology,
            clusters: cluster_specs,
            workload,
            fault_plan,
            expect,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-section semantic checks (structure already parsed).
    fn validate(&self) -> Result<(), SpecError> {
        match &self.workload {
            WorkloadSpec::Paper { .. } => {
                if !matches!(self.topology, TopologySpec::Study) {
                    return err(0, "paper profiles want topology kind = study");
                }
                if !self.clusters.is_empty() {
                    return err(
                        0,
                        "paper profiles register their own clusters; remove [cluster] sections",
                    );
                }
            }
            WorkloadSpec::Synthetic(s) => {
                for role in [("src", &s.src), ("dst", &s.dst)] {
                    if !self.clusters.iter().any(|c| c.name == *role.1) {
                        return err(
                            0,
                            format!("workload {} = {:?} names no [cluster]", role.0, role.1),
                        );
                    }
                }
                if s.src == s.dst {
                    return err(0, "workload src and dst must be distinct clusters");
                }
            }
        }
        let mut seen = Vec::new();
        for c in &self.clusters {
            if seen.contains(&&c.name) {
                return err(0, format!("duplicate cluster name {:?}", c.name));
            }
            seen.push(&c.name);
            match (&self.topology, &c.attach) {
                (TopologySpec::Study, AttachSpec::Node(n)) => {
                    return err(
                        0,
                        format!(
                            "cluster {:?}: study topology wants `site`, not node {n:?}",
                            c.name
                        ),
                    );
                }
                (_, AttachSpec::Site(site)) if !matches!(self.topology, TopologySpec::Study) => {
                    return err(
                        0,
                        format!(
                            "cluster {:?}: `site` {site:?} wants topology kind = study",
                            c.name
                        ),
                    );
                }
                _ => {}
            }
        }
        if let TopologySpec::Graph { nodes, links } = &self.topology {
            let mut names = Vec::new();
            for n in nodes {
                if names.contains(&&n.name) {
                    return err(0, format!("duplicate node name {:?}", n.name));
                }
                names.push(&n.name);
            }
            if links.is_empty() {
                return err(0, "graph topology wants at least one [link]");
            }
            for l in links {
                for end in [&l.from, &l.to] {
                    if !names.contains(&end) {
                        return err(0, format!("link references unknown node {end:?}"));
                    }
                }
                if l.from == l.to {
                    return err(0, format!("link {:?} -> {:?} is a self-loop", l.from, l.to));
                }
            }
        }
        Ok(())
    }

    /// Serializes back to spec text. `parse(to_spec_string(spec))`
    /// reproduces `spec` exactly (all defaults are written out).
    pub fn to_spec_string(&self) -> String {
        use std::fmt::Write as _;
        // Writing to a String cannot fail; ignore the Infallible results.
        let mut s = String::new();
        let _ = writeln!(s, "[scenario]");
        let _ = writeln!(s, "name = {}", self.name);
        if !self.description.is_empty() {
            let _ = writeln!(s, "description = {}", self.description);
        }
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "\n[topology]");
        match &self.topology {
            TopologySpec::Study => {
                let _ = writeln!(s, "kind = study");
            }
            TopologySpec::Chain { domains, hubs_per_domain, link_gbps, hop_delay_ms } => {
                let _ = writeln!(s, "kind = chain");
                let _ = writeln!(s, "domains = {domains}");
                let _ = writeln!(s, "hubs_per_domain = {hubs_per_domain}");
                let _ = writeln!(s, "link_gbps = {link_gbps}");
                let _ = writeln!(s, "hop_delay_ms = {hop_delay_ms}");
            }
            TopologySpec::Graph { nodes, links } => {
                let _ = writeln!(s, "kind = graph");
                for n in nodes {
                    let _ = writeln!(s, "\n[node]");
                    let _ = writeln!(s, "name = {}", n.name);
                    let _ = writeln!(s, "kind = {}", if n.host { "host" } else { "router" });
                }
                for l in links {
                    let _ = writeln!(s, "\n[link]");
                    let _ = writeln!(s, "from = {}", l.from);
                    let _ = writeln!(s, "to = {}", l.to);
                    let _ = writeln!(s, "gbps = {}", l.gbps);
                    let _ = writeln!(s, "delay_ms = {}", l.delay_ms);
                }
            }
        }
        for c in &self.clusters {
            let _ = writeln!(s, "\n[cluster]");
            let _ = writeln!(s, "name = {}", c.name);
            match &c.attach {
                AttachSpec::Site(site) => {
                    let _ = writeln!(s, "site = {site}");
                }
                AttachSpec::Node(node) => {
                    let _ = writeln!(s, "node = {node}");
                }
            }
            let _ = writeln!(s, "servers = {}", c.servers);
            let _ = writeln!(s, "nic_gbps = {}", c.nic_gbps);
            let _ = writeln!(s, "disk_read_gbps = {}", c.disk_read_gbps);
            let _ = writeln!(s, "disk_write_gbps = {}", c.disk_write_gbps);
            let _ = writeln!(s, "node_cap_gbps = {}", c.node_cap_gbps);
        }
        let _ = writeln!(s, "\n[workload]");
        match &self.workload {
            WorkloadSpec::Paper { profile, scale } => {
                let _ = writeln!(s, "profile = {}", profile.token());
                let _ = writeln!(s, "scale = {scale}");
            }
            WorkloadSpec::Synthetic(wl) => {
                let _ = writeln!(s, "profile = {}", wl.profile.token());
                let _ = writeln!(s, "src = {}", wl.src);
                let _ = writeln!(s, "dst = {}", wl.dst);
                let _ = writeln!(s, "sessions = {}", wl.sessions);
                let _ = writeln!(s, "horizon_s = {}", wl.horizon_s);
                let _ = writeln!(s, "mean_interarrival_s = {}", wl.mean_interarrival_s);
                let _ = writeln!(s, "burst_period_s = {}", wl.burst_period_s);
                let _ = writeln!(s, "burst_sessions = {}", wl.burst_sessions);
                let _ = writeln!(s, "burst_window_s = {}", wl.burst_window_s);
                let _ = writeln!(s, "flash_at_s = {}", wl.flash_at_s);
                let _ = writeln!(s, "transfers_per_session = {}", wl.transfers_per_session);
                let _ = writeln!(s, "gap_s = {}", wl.gap_s);
                let _ = writeln!(s, "median_size_mb = {}", wl.median_size_mb);
                let _ = writeln!(s, "mean_size_mb = {}", wl.mean_size_mb);
                let _ = writeln!(s, "vc_fraction = {}", wl.vc_fraction);
                let _ = writeln!(s, "vc_rate_gbps = {}", wl.vc_rate_gbps);
                let _ = writeln!(s, "concurrency = {}", wl.concurrency);
            }
        }
        if let Some(plan) = &self.fault_plan {
            let _ = writeln!(s, "\n[faults]");
            let _ = writeln!(s, "plan = {plan}");
        }
        if !self.expect.is_empty() {
            let _ = writeln!(s, "\n[expect]");
            let e = &self.expect;
            let counts = [("min_transfers", e.min_transfers), ("max_transfers", e.max_transfers)];
            for (key, v) in counts {
                if let Some(v) = v {
                    let _ = writeln!(s, "{key} = {v}");
                }
            }
            if let Some(v) = e.min_suitable_sessions_pct {
                let _ = writeln!(s, "min_suitable_sessions_pct = {v}");
            }
            if let Some(v) = e.max_setup_share {
                let _ = writeln!(s, "max_setup_share = {v}");
            }
            let storyline = [
                ("vc_requested", e.vc_requested),
                ("vc_established", e.vc_established),
                ("faults_injected", e.faults_injected),
                ("retries", e.retries),
                ("fallbacks", e.fallbacks),
                ("preemptions", e.preemptions),
                ("open_reservations", e.open_reservations),
            ];
            for (key, v) in storyline {
                if let Some(v) = v {
                    let _ = writeln!(s, "{key} = {v}");
                }
            }
        }
        s
    }
}

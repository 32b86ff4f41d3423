//! Name resolution for the workspace item graph.
//!
//! `gvc-tidy` has no compiler at hand, so resolution is *lexical*: a
//! per-file map from locally visible names to absolute-ish paths,
//! built from `use` declarations, plus the workspace conventions —
//! `gvc_<name>` is the library of `crates/<name>`, `crate::` is the
//! file's own crate, `self::`/`super::` are resolved against the
//! file's module path. The item graph ([`crate::graph`]) uses this to
//! turn call tokens into candidate callee paths; anything it cannot
//! pin down is treated as unknown rather than guessed, so the
//! semantic rules err toward silence, not false findings.

use std::collections::BTreeMap;

/// Per-file view of `use` declarations: local name → absolute path
/// segments (e.g. `Instant` → `["std", "time", "Instant"]`).
#[derive(Debug, Clone, Default)]
pub struct UseMap {
    map: BTreeMap<String, Vec<String>>,
}

impl UseMap {
    /// An empty map.
    pub fn new() -> UseMap {
        UseMap::default()
    }

    /// Parses one complete `use` declaration (everything between the
    /// `use` keyword and the `;`, braces included) into the map.
    /// Handles nested groups and `as` renames; glob imports carry no
    /// name and are ignored.
    pub fn add_decl(&mut self, decl: &str) {
        parse_use_tree(decl.trim(), &[], &mut self.map);
    }

    /// The absolute path `name` maps to, when imported.
    pub fn lookup(&self, name: &str) -> Option<&[String]> {
        self.map.get(name).map(Vec::as_slice)
    }

    /// Iterates `(local name, absolute segments)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Recursive descent over a use tree: `a::b::{c, d as e, f::{g}}`.
fn parse_use_tree(tree: &str, prefix: &[String], out: &mut BTreeMap<String, Vec<String>>) {
    let tree = tree.trim().trim_end_matches(';').trim();
    if tree.is_empty() || tree == "*" {
        return;
    }
    // Split off a brace group at the end: `head::{...}`.
    if let Some(open) = tree.find('{') {
        let head = tree[..open].trim_end_matches("::").trim();
        let inner = tree[open + 1..].strip_suffix('}').unwrap_or(&tree[open + 1..]);
        let mut base = prefix.to_vec();
        base.extend(head.split("::").filter(|s| !s.is_empty()).map(str::to_string));
        // Split the group body on top-level commas.
        let mut depth = 0usize;
        let mut start = 0usize;
        let bytes = inner.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    parse_use_tree(&inner[start..i], &base, out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parse_use_tree(&inner[start..], &base, out);
        return;
    }
    // Leaf: `path::to::Name` or `path::to::Name as Alias`.
    let (path, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim())),
        None => (tree, None),
    };
    let mut segs = prefix.to_vec();
    segs.extend(path.split("::").filter(|s| !s.is_empty()).map(str::to_string));
    let Some(last) = segs.last().cloned() else {
        return;
    };
    if last == "*" {
        return;
    }
    let name = alias.unwrap_or(&last);
    if !name.is_empty() && name != "_" {
        out.insert(name.to_string(), segs);
    }
}

/// Where an absolute path roots after workspace mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Root {
    /// A workspace crate, by short name (`net`, `telemetry`, …).
    Workspace(String),
    /// Anything else (`std`, vendored shims, unknown externals).
    External,
}

/// External crate names that are *not* workspace libraries even
/// though they are path roots in source.
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc", "rand", "rayon", "proptest"];

/// Maps a path's first segment to its root, applying the file's
/// `use` map and the workspace conventions. Returns the fully
/// expanded segments alongside.
///
/// `krate` is the file's own crate short name; `mods` its module
/// path inside that crate.
pub fn resolve_root(
    segments: &[String],
    uses: &UseMap,
    krate: &str,
    mods: &[String],
) -> (Root, Vec<String>) {
    let Some(first) = segments.first() else {
        return (Root::External, segments.to_vec());
    };
    // A locally imported name expands to its absolute path first.
    let expanded: Vec<String> = match uses.lookup(first) {
        Some(abs) => abs.iter().cloned().chain(segments.iter().skip(1).cloned()).collect(),
        None => segments.to_vec(),
    };
    let Some(head) = expanded.first().map(String::as_str) else {
        return (Root::External, expanded);
    };
    match head {
        "crate" => {
            let rest: Vec<String> = expanded.iter().skip(1).cloned().collect();
            (Root::Workspace(krate.to_string()), rest)
        }
        "self" => {
            let mut segs: Vec<String> = mods.to_vec();
            segs.extend(expanded.iter().skip(1).cloned());
            (Root::Workspace(krate.to_string()), segs)
        }
        "super" => {
            let mut up = 0usize;
            let mut it = expanded.iter();
            while it.clone().next().map(String::as_str) == Some("super") {
                up += 1;
                it.next();
            }
            let keep = mods.len().saturating_sub(up);
            let mut segs: Vec<String> = mods[..keep].to_vec();
            segs.extend(it.cloned());
            (Root::Workspace(krate.to_string()), segs)
        }
        h if h.starts_with("gvc_") => {
            let short = h.trim_start_matches("gvc_").to_string();
            let rest: Vec<String> = expanded.iter().skip(1).cloned().collect();
            (Root::Workspace(short), rest)
        }
        "gridftp_vc" => {
            let rest: Vec<String> = expanded.iter().skip(1).cloned().collect();
            (Root::Workspace("gridftp_vc".to_string()), rest)
        }
        h if EXTERNAL_ROOTS.contains(&h) => (Root::External, expanded),
        _ => {
            // Unqualified path in the file's own crate (an item from
            // the same module, or a type named without import).
            (Root::Workspace(krate.to_string()), expanded)
        }
    }
}

/// The short crate name a workspace-relative path belongs to:
/// `crates/net/...` → `net`, root `src/` → `gridftp_vc`, integration
/// tests and examples each form their own target (`test:<stem>`).
pub fn crate_of_path(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((krate, _)) = rest.split_once('/') {
            return krate.to_string();
        }
    }
    if rel.starts_with("src/") {
        return "gridftp_vc".to_string();
    }
    let stem = rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs");
    format!("test:{stem}")
}

/// The module path of a file inside its crate: `src/a/b.rs` →
/// `["a", "b"]`, `src/a/mod.rs` → `["a"]`, `src/lib.rs` → `[]`.
pub fn module_of_path(rel: &str) -> Vec<String> {
    let tail = match rel.strip_prefix("crates/").and_then(|r| r.split_once('/')) {
        Some((_, tail)) => tail,
        None => rel,
    };
    let Some(path) = tail.strip_prefix("src/") else {
        return Vec::new();
    };
    let path = path.trim_end_matches(".rs");
    if path == "lib" || path == "main" {
        return Vec::new();
    }
    let mut segs: Vec<String> = path.split('/').map(str::to_string).collect();
    if segs.last().map(String::as_str) == Some("mod") {
        segs.pop();
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(decls: &[&str]) -> UseMap {
        let mut m = UseMap::new();
        for d in decls {
            m.add_decl(d);
        }
        m
    }

    #[test]
    fn flat_and_grouped_uses_parse() {
        let m = uses(&["std::time::Instant;", "gvc_logs::{Dataset, TransferRecord as Rec};"]);
        assert_eq!(m.lookup("Instant").unwrap().join("::"), "std::time::Instant");
        assert_eq!(m.lookup("Dataset").unwrap().join("::"), "gvc_logs::Dataset");
        assert_eq!(m.lookup("Rec").unwrap().join("::"), "gvc_logs::TransferRecord");
        assert!(m.lookup("TransferRecord").is_none());
    }

    #[test]
    fn nested_groups_and_globs() {
        let m = uses(&["a::{b::{c, d}, e};", "f::*;"]);
        assert_eq!(m.lookup("c").unwrap().join("::"), "a::b::c");
        assert_eq!(m.lookup("d").unwrap().join("::"), "a::b::d");
        assert_eq!(m.lookup("e").unwrap().join("::"), "a::e");
        assert!(m.iter().all(|(k, _)| k != "*"));
    }

    #[test]
    fn roots_resolve_workspace_and_external() {
        let m = uses(&["std::time::Instant;", "gvc_net::NetworkSim;"]);
        let seg = |s: &str| s.split("::").map(str::to_string).collect::<Vec<_>>();
        let (root, p) = resolve_root(&seg("Instant::now"), &m, "core", &[]);
        assert_eq!(root, Root::External);
        assert_eq!(p.join("::"), "std::time::Instant::now");
        let (root, p) = resolve_root(&seg("NetworkSim::new"), &m, "core", &[]);
        assert_eq!(root, Root::Workspace("net".to_string()));
        assert_eq!(p.join("::"), "NetworkSim::new");
        let (root, p) = resolve_root(&seg("crate::sweep::run"), &m, "core", &[]);
        assert_eq!(root, Root::Workspace("core".to_string()));
        assert_eq!(p.join("::"), "sweep::run");
        let (root, _) = resolve_root(&seg("helper"), &m, "core", &[]);
        assert_eq!(root, Root::Workspace("core".to_string()));
    }

    #[test]
    fn super_and_self_use_the_module_path() {
        let m = UseMap::new();
        let seg = |s: &str| s.split("::").map(str::to_string).collect::<Vec<_>>();
        let mods = vec!["a".to_string(), "b".to_string()];
        let (_, p) = resolve_root(&seg("self::f"), &m, "core", &mods);
        assert_eq!(p.join("::"), "a::b::f");
        let (_, p) = resolve_root(&seg("super::g"), &m, "core", &mods);
        assert_eq!(p.join("::"), "a::g");
        let (_, p) = resolve_root(&seg("super::super::h"), &m, "core", &mods);
        assert_eq!(p.join("::"), "h");
    }

    #[test]
    fn crate_and_module_of_paths() {
        assert_eq!(crate_of_path("crates/net/src/sim.rs"), "net");
        assert_eq!(crate_of_path("src/lib.rs"), "gridftp_vc");
        assert_eq!(crate_of_path("tests/end_to_end.rs"), "test:end_to_end");
        assert_eq!(module_of_path("crates/net/src/sim.rs"), vec!["sim".to_string()]);
        assert!(module_of_path("crates/net/src/lib.rs").is_empty());
        assert_eq!(module_of_path("crates/core/src/a/mod.rs"), vec!["a".to_string()]);
        assert_eq!(
            module_of_path("crates/core/src/a/b.rs"),
            vec!["a".to_string(), "b".to_string()]
        );
        assert!(module_of_path("tests/end_to_end.rs").is_empty());
    }
}

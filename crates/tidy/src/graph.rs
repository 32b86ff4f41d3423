//! The workspace item graph: a hand-rolled, dependency-free index of
//! functions, types, `use` declarations, and call sites.
//!
//! Built from the masked code view ([`crate::lexer`]), so string and
//! comment contents can never fake an item or a call. The scanner is
//! line-oriented with a brace-depth scope stack: items are only
//! collected at module/impl/trait scope (never inside fn bodies or
//! macro bodies), and headers may span lines (multi-line signatures,
//! `where` clauses).
//!
//! The resulting [`ItemGraph`] is deliberately "call-graph-lite":
//! calls resolve through the per-file `use` map and workspace path
//! conventions ([`crate::resolve`]); anything ambiguous resolves to
//! [`CallTarget::Unknown`] so interprocedural rules stay silent
//! rather than guessing.

use std::collections::BTreeMap;

use crate::lexer::SourceFile;
use crate::resolve::{crate_of_path, module_of_path, resolve_root, Root, UseMap};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 0-based line index in the file.
    pub line: usize,
    /// 1-based column of the callee path.
    pub col: usize,
    /// The callee path as written (`helper`, `sweep::run`,
    /// `Instant::now`); for method calls, the bare method name.
    pub path: String,
    /// True for `.name(...)` receiver calls.
    pub is_method: bool,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into [`ItemGraph::files`].
    pub file: usize,
    /// Short crate name ([`crate_of_path`]).
    pub krate: String,
    /// `module::path::[Type::]name` within the crate.
    pub qname: String,
    /// Bare function name.
    pub name: String,
    /// Header text from `fn` up to the body brace / semicolon.
    pub sig: String,
    /// Declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based body line range (empty for bodyless trait fns).
    pub body: std::ops::Range<usize>,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Declared inside an `impl` or `trait` block.
    pub is_method: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
}

/// One `struct` / `enum` item, with its field lines for
/// Send-boundary scans.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Index into [`ItemGraph::files`].
    pub file: usize,
    /// Short crate name.
    pub krate: String,
    /// Bare type name.
    pub name: String,
    /// 0-based line of the declaring keyword.
    pub line: usize,
    /// `(0-based line, masked text)` of body lines (or the header
    /// itself for tuple/unit structs, whose fields sit inline).
    pub fields: Vec<(usize, String)>,
    /// Inside a test region.
    pub is_test: bool,
}

/// Per-file facts the graph keeps alongside the global item lists.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Short crate name.
    pub krate: String,
    /// File's module path within the crate.
    pub mods: Vec<String>,
    /// Resolved `use` declarations.
    pub uses: UseMap,
}

/// The whole-workspace index.
#[derive(Debug, Clone, Default)]
pub struct ItemGraph {
    /// Per-file facts, parallel to the runner's file list.
    pub files: Vec<FileInfo>,
    /// Every `fn` item.
    pub fns: Vec<FnItem>,
    /// Every `struct` / `enum` item.
    pub types: Vec<TypeItem>,
    /// Bare fn name → indices into `fns`.
    pub fn_names: BTreeMap<String, Vec<usize>>,
    /// Type name → indices into `types`.
    pub type_names: BTreeMap<String, Vec<usize>>,
}

/// What a call site resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// A unique workspace function (index into [`ItemGraph::fns`]).
    Fn(usize),
    /// A path outside the workspace, fully expanded
    /// (`std::time::Instant::now`).
    External(String),
    /// Ambiguous or unresolvable — rules must not guess.
    Unknown,
}

impl ItemGraph {
    /// Builds the graph over all files.
    pub fn build(files: &[SourceFile]) -> ItemGraph {
        let mut g = ItemGraph::default();
        for (idx, f) in files.iter().enumerate() {
            let mut sc = Scanner::new(idx, f);
            sc.scan(&mut g);
        }
        for (i, f) in g.fns.iter().enumerate() {
            g.fn_names.entry(f.name.clone()).or_default().push(i);
        }
        for (i, t) in g.types.iter().enumerate() {
            g.type_names.entry(t.name.clone()).or_default().push(i);
        }
        g
    }

    /// Resolves one call site found in `file` to a workspace fn,
    /// an external path, or unknown.
    pub fn resolve_call(&self, call: &Call, file: usize) -> CallTarget {
        let info = &self.files[file];
        if call.is_method {
            // Method calls carry no receiver type: resolve only when
            // the name is unique across the workspace and could not
            // be a std collection/iterator method (a `.insert(` on a
            // `HashMap` must not resolve to some workspace `insert`).
            if COMMON_METHODS.contains(&call.path.as_str()) {
                return CallTarget::Unknown;
            }
            return match self.fn_names.get(&call.path) {
                Some(ids) if ids.len() == 1 && self.fns[ids[0]].is_method => CallTarget::Fn(ids[0]),
                _ => CallTarget::Unknown,
            };
        }
        let segments: Vec<String> = call.path.split("::").map(str::to_string).collect();
        let (root, segs) = resolve_root(&segments, &info.uses, &info.krate, &info.mods);
        match root {
            Root::External => CallTarget::External(segs.join("::")),
            Root::Workspace(krate) => self.find_fn(&krate, &segs, file),
        }
    }

    /// Finds the unique fn in `krate` whose qualified name ends with
    /// `segs`, preferring same-file matches.
    fn find_fn(&self, krate: &str, segs: &[String], file: usize) -> CallTarget {
        let Some(last) = segs.last() else {
            return CallTarget::Unknown;
        };
        let Some(ids) = self.fn_names.get(last) else {
            return CallTarget::Unknown;
        };
        let suffix = segs.join("::");
        let matches: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                f.krate == krate && (f.qname == suffix || f.qname.ends_with(&format!("::{suffix}")))
            })
            .collect();
        match matches.len() {
            1 => CallTarget::Fn(matches[0]),
            0 => CallTarget::Unknown,
            _ => {
                // Prefer a same-file match when the bare name is
                // declared in several modules.
                let local: Vec<usize> =
                    matches.iter().copied().filter(|&i| self.fns[i].file == file).collect();
                if local.len() == 1 {
                    CallTarget::Fn(local[0])
                } else {
                    CallTarget::Unknown
                }
            }
        }
    }
}

/// What kind of scope a `{` opened.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    Mod,
    Impl(String),
    Trait(String),
    Fn(usize),
    Type(usize),
    Block,
}

struct Scope {
    kind: ScopeKind,
}

/// An item header being accumulated until its `{` or `;`.
struct Header {
    kind: &'static str,
    text: String,
    start_line: usize,
    is_pub: bool,
    /// Paren/bracket nesting inside the header (a `{` only ends the
    /// header at depth 0, so `fn f(x: impl Fn() -> {…}` stays safe).
    nest: i32,
}

struct Scanner<'a> {
    file_idx: usize,
    file: &'a SourceFile,
    krate: String,
    file_mods: Vec<String>,
    /// Inline `mod name { … }` names currently open.
    inline_mods: Vec<String>,
    depth: usize,
    scopes: Vec<Scope>,
    header: Option<Header>,
    /// Scope kind produced by a just-finished header whose body `{`
    /// is being opened (one word of hand-off state between
    /// `finish_header` and `open_brace_as_header_body`).
    finished_kind: Option<ScopeKind>,
    uses: UseMap,
}

impl<'a> Scanner<'a> {
    fn new(file_idx: usize, file: &'a SourceFile) -> Scanner<'a> {
        Scanner {
            file_idx,
            file,
            krate: crate_of_path(&file.rel_path),
            file_mods: module_of_path(&file.rel_path),
            inline_mods: Vec::new(),
            depth: 0,
            scopes: Vec::new(),
            header: None,
            finished_kind: None,
            uses: UseMap::new(),
        }
    }

    /// Full module path at the current position.
    fn mod_path(&self) -> Vec<String> {
        let mut p = self.file_mods.clone();
        p.extend(self.inline_mods.iter().cloned());
        p
    }

    /// True when the current scope can declare items the graph
    /// collects (module level, impl blocks, trait blocks).
    fn at_item_scope(&self) -> bool {
        matches!(
            self.scopes.last().map(|s| &s.kind),
            None | Some(ScopeKind::Mod | ScopeKind::Impl(_) | ScopeKind::Trait(_))
        )
    }

    fn scan(&mut self, g: &mut ItemGraph) {
        for ln in 0..self.file.code.len() {
            self.line(ln, g);
        }
        // Extract calls for every fn collected from this file.
        for f in &mut g.fns {
            if f.file == self.file_idx {
                f.calls = extract_calls(&self.file.code, f.body.clone());
            }
        }
        g.files.push(FileInfo {
            rel_path: self.file.rel_path.clone(),
            krate: self.krate.clone(),
            mods: self.file_mods.clone(),
            uses: std::mem::take(&mut self.uses),
        });
    }

    fn line(&mut self, ln: usize, g: &mut ItemGraph) {
        let code = self.file.code[ln].clone();
        if self.header.is_none() && self.at_item_scope() {
            let trimmed = code.trim_start();
            if trimmed.starts_with("#[") || trimmed.starts_with("#!") || trimmed.is_empty() {
                // Attributes and blank (or comment-only) lines
                // declare nothing.
                return;
            }
            if let Some((kind, is_pub)) = item_start(trimmed) {
                self.header =
                    Some(Header { kind, text: String::new(), start_line: ln, is_pub, nest: 0 });
            }
        }
        self.walk_chars(ln, &code, g);
    }

    fn walk_chars(&mut self, ln: usize, code: &str, g: &mut ItemGraph) {
        for c in code.chars() {
            if let Some(mut h) = self.header.take() {
                // `use` groups carry braces inside the header; for
                // every other item a depth-0 `{` opens the body.
                let group_braces = h.kind == "use";
                match c {
                    '(' | '[' => h.nest += 1,
                    ')' | ']' => h.nest -= 1,
                    '{' if group_braces => h.nest += 1,
                    '}' if group_braces => h.nest -= 1,
                    '{' if h.nest == 0 => {
                        self.finish_header(h, ln, true, g);
                        let kind = self.finished_kind.take().unwrap_or(ScopeKind::Block);
                        self.scopes.push(Scope { kind });
                        self.depth += 1;
                        continue;
                    }
                    ';' if h.nest == 0 => {
                        self.finish_header(h, ln, false, g);
                        continue;
                    }
                    _ => {}
                }
                h.text.push(c);
                self.header = Some(h);
            } else {
                match c {
                    '{' => {
                        self.scopes.push(Scope { kind: ScopeKind::Block });
                        self.depth += 1;
                    }
                    '}' => {
                        self.depth = self.depth.saturating_sub(1);
                        if let Some(s) = self.scopes.pop() {
                            self.close_scope(s.kind, ln, g);
                        }
                    }
                    _ => {}
                }
            }
        }
        // A header that spans lines keeps accumulating; add a space
        // so `fn f(\n  x: u32)` normalizes cleanly.
        if let Some(h) = &mut self.header {
            h.text.push(' ');
        }
    }

    fn close_scope(&mut self, kind: ScopeKind, ln: usize, g: &mut ItemGraph) {
        match kind {
            ScopeKind::Fn(idx) => {
                g.fns[idx].body.end = ln + 1;
            }
            ScopeKind::Type(idx) => {
                // Field lines include the header and closer, so
                // single-line declarations are covered too.
                let t = &mut g.types[idx];
                for l in t.line..=ln {
                    if let Some(text) = self.file.code.get(l) {
                        t.fields.push((l, text.clone()));
                    }
                }
            }
            ScopeKind::Mod => {
                self.inline_mods.pop();
            }
            _ => {}
        }
    }

    fn finish_header(&mut self, h: Header, ln: usize, has_body: bool, g: &mut ItemGraph) {
        let text = h.text.trim().to_string();
        let is_test = self.file.is_test.get(h.start_line).copied().unwrap_or(false);
        let kind_scope = match h.kind {
            "fn" => {
                let name = ident_after(&text, "fn ").unwrap_or_default();
                let owner = match self.scopes.last().map(|s| &s.kind) {
                    Some(ScopeKind::Impl(t) | ScopeKind::Trait(t)) => Some(t.clone()),
                    _ => None,
                };
                let mut qsegs = self.mod_path();
                if let Some(t) = &owner {
                    qsegs.push(t.clone());
                }
                qsegs.push(name.clone());
                let idx = g.fns.len();
                g.fns.push(FnItem {
                    file: self.file_idx,
                    krate: self.krate.clone(),
                    qname: qsegs.join("::"),
                    name,
                    sig: text.clone(),
                    is_pub: h.is_pub,
                    line: h.start_line,
                    // Body starts at the brace line so single-line
                    // bodies (`fn f() { g() }`) are scanned too; the
                    // end is patched when the scope closes.
                    body: if has_body { ln..ln + 1 } else { 0..0 },
                    is_test,
                    is_method: owner.is_some(),
                    calls: Vec::new(),
                });
                has_body.then_some(ScopeKind::Fn(idx))
            }
            "struct" | "enum" | "union" => {
                let name = ident_after(&text, h.kind).unwrap_or_default();
                let idx = g.types.len();
                let mut fields = Vec::new();
                if !has_body {
                    // Tuple / unit struct: fields live in the header.
                    fields.push((h.start_line, text.clone()));
                }
                g.types.push(TypeItem {
                    file: self.file_idx,
                    krate: self.krate.clone(),
                    name,
                    line: h.start_line,
                    fields,
                    is_test,
                });
                has_body.then_some(ScopeKind::Type(idx))
            }
            "trait" => {
                let name = ident_after(&text, "trait ").unwrap_or_default();
                has_body.then_some(ScopeKind::Trait(name))
            }
            "mod" => {
                let name = ident_after(&text, "mod ").unwrap_or_default();
                if has_body {
                    self.inline_mods.push(name);
                    Some(ScopeKind::Mod)
                } else {
                    None
                }
            }
            "impl" => {
                let ty = impl_type_name(&text);
                has_body.then_some(ScopeKind::Impl(ty))
            }
            "use" => {
                // The decl text is everything after the keyword
                // (`pub use` re-exports included).
                let decl = match text.find("use") {
                    Some(at) => text[at + 3..].trim().to_string(),
                    None => text.clone(),
                };
                self.uses.add_decl(&decl);
                // Group braces stay inside the header, so a `use`
                // never opens a scope.
                None
            }
            _ => has_body.then_some(ScopeKind::Block),
        };
        self.finished_kind = if has_body { kind_scope } else { None };
    }
}

/// Recognizes a module-level item declaration at the start of a
/// trimmed masked line. Returns the item kind and whether it is
/// `pub`.
fn item_start(trimmed: &str) -> Option<(&'static str, bool)> {
    let mut rest = trimmed;
    let mut is_pub = false;
    if let Some(r) = rest.strip_prefix("pub") {
        // `pub`, `pub(crate)`, `pub(super)`, `pub(in …)`.
        let r = r.trim_start();
        let r = if let Some(paren) = r.strip_prefix('(') {
            match paren.find(')') {
                Some(close) => paren[close + 1..].trim_start(),
                None => return None,
            }
        } else {
            r
        };
        if r.len() == rest.len() {
            return None;
        }
        is_pub = true;
        rest = r;
    }
    // Qualifiers that may precede `fn`.
    for q in ["default ", "const ", "async ", "unsafe ", "extern \"C\" ", "extern "] {
        if let Some(r) = rest.strip_prefix(q) {
            rest = r.trim_start();
        }
    }
    let kind =
        ["fn", "struct", "enum", "union", "trait", "mod", "impl", "use"].into_iter().find(|k| {
            rest.strip_prefix(k)
                .is_some_and(|r| r.starts_with(|c: char| !is_ident_char(c)) || r.is_empty())
        })?;
    // `use` as `fn` argument etc. can't start a trimmed line at item
    // scope; `impl Trait for` in a type position can't either.
    Some((kind, is_pub))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// First identifier after `marker` in `text`.
fn ident_after(text: &str, marker: &str) -> Option<String> {
    let at = text.find(marker)? + marker.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    let name = &rest[..end];
    (!name.is_empty()).then(|| name.to_string())
}

/// The self-type name of an `impl` header: `impl<T> Foo<T> for
/// Bar<T>` → `Bar`, `impl Baz { … }` → `Baz`.
fn impl_type_name(text: &str) -> String {
    let body = text.trim_start_matches("impl").trim_start();
    // Skip a leading generic parameter list.
    let body = if let Some(rest) = body.strip_prefix('<') {
        let mut depth = 1i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest[cut..].trim_start()
    } else {
        body
    };
    let body = match body.find(" for ") {
        Some(at) => body[at + 5..].trim_start(),
        None => body,
    };
    let end = body.find(|c: char| !is_ident_char(c) && c != ':').unwrap_or(body.len());
    body[..end].rsplit("::").next().unwrap_or("").to_string()
}

/// Method names so common on std types that a bare `.name(` must
/// never be attributed to a workspace method of the same name.
const COMMON_METHODS: &[&str] = &[
    "new",
    "insert",
    "get",
    "get_mut",
    "push",
    "pop",
    "len",
    "iter",
    "iter_mut",
    "into_iter",
    "clone",
    "next",
    "remove",
    "contains",
    "contains_key",
    "extend",
    "map",
    "filter",
    "collect",
    "sort",
    "join",
    "split",
    "trim",
    "parse",
    "entry",
    "keys",
    "values",
    "drain",
    "take",
    "send",
    "recv",
    "lock",
    "read",
    "write",
    "min",
    "max",
    "sum",
    "count",
    "last",
    "first",
    "find",
    "any",
    "all",
    "fold",
    "rev",
    "chain",
    "zip",
    "retain",
    "clear",
    "is_empty",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "as_slice",
    "into",
    "from",
    "unwrap_or",
    "unwrap_or_else",
    "and_then",
    "ok_or",
    "expect",
    "with_capacity",
    "default",
    "eq",
    "cmp",
    "hash",
    "fmt",
    "drop",
];

/// Keywords and enum constructors that look like calls but are not.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "loop", "fn", "move", "impl", "dyn",
    "where", "let", "else", "Some", "Ok", "Err", "None", "Box",
];

/// Scans a body's masked lines for call sites: an identifier path
/// directly before a `(`. Macro invocations (`name!(…)`) are skipped;
/// `.name(` is recorded as a method call.
pub(crate) fn extract_calls(code: &[String], body: std::ops::Range<usize>) -> Vec<Call> {
    let mut out = Vec::new();
    for ln in body {
        let Some(line) = code.get(ln) else { break };
        let bytes = line.as_bytes();
        for (at, _) in line.match_indices('(') {
            let mut start = at;
            while start > 0 {
                let p = bytes[start - 1] as char;
                if is_ident_char(p) || p == ':' {
                    start -= 1;
                } else {
                    break;
                }
            }
            if start == at {
                continue;
            }
            let path = &line[start..at];
            if path.starts_with(|c: char| c.is_ascii_digit()) || path.starts_with(':') {
                continue;
            }
            if NOT_CALLS.contains(&path) {
                continue;
            }
            let is_method = start > 0 && bytes[start - 1] == b'.';
            if is_method && path.contains(':') {
                continue;
            }
            out.push(Call { line: ln, col: start + 1, path: path.to_string(), is_method });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> ItemGraph {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        ItemGraph::build(&parsed)
    }

    fn fn_named<'g>(g: &'g ItemGraph, name: &str) -> &'g FnItem {
        let ids = g.fn_names.get(name).unwrap_or_else(|| panic!("no fn `{name}`"));
        assert_eq!(ids.len(), 1, "fn `{name}` not unique");
        &g.fns[ids[0]]
    }

    #[test]
    fn collects_fns_with_qualified_names_and_bodies() {
        let src = "use std::time::Instant;\n\
                   pub struct Clock {\n    t: u64,\n}\n\
                   impl Clock {\n    pub fn read(&self) -> u64 { self.t }\n}\n\
                   fn helper() {\n    let _ = Instant::now();\n}\n";
        let g = graph(&[("crates/net/src/sim.rs", src)]);
        let read = fn_named(&g, "read");
        assert_eq!(read.krate, "net");
        assert_eq!(read.qname, "sim::Clock::read");
        assert!(read.is_method && read.is_pub);
        let helper = fn_named(&g, "helper");
        assert_eq!(helper.qname, "sim::helper");
        assert!(!helper.is_pub);
        // The single-line body of `read` still yields its call scan
        // range; `helper`'s call to Instant::now resolves external.
        let call = helper.calls.iter().find(|c| c.path == "Instant::now").expect("call");
        assert_eq!(
            g.resolve_call(call, helper.file),
            CallTarget::External("std::time::Instant::now".to_string())
        );
    }

    #[test]
    fn single_line_bodies_are_scanned() {
        let src = "fn inner() {}\npub fn outer() { inner() }\n";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        let outer = fn_named(&g, "outer");
        let call = outer.calls.iter().find(|c| c.path == "inner").expect("inner call");
        let inner = fn_named(&g, "inner");
        let id = g.fn_names["inner"][0];
        assert_eq!(inner.qname, "inner");
        assert_eq!(g.resolve_call(call, outer.file), CallTarget::Fn(id));
    }

    #[test]
    fn cross_crate_calls_resolve_through_use() {
        let a = "pub fn sink_like() {}\n";
        let b = "use gvc_net::sink_like;\n\
                 pub fn caller() {\n    sink_like();\n    gvc_net::sink_like();\n}\n";
        let g = graph(&[("crates/net/src/lib.rs", a), ("crates/core/src/lib.rs", b)]);
        let id = g.fn_names["sink_like"][0];
        let caller = fn_named(&g, "caller");
        for c in caller.calls.iter().filter(|c| c.path.contains("sink_like")) {
            assert_eq!(g.resolve_call(c, caller.file), CallTarget::Fn(id), "path {}", c.path);
        }
    }

    #[test]
    fn struct_fields_cover_single_and_multi_line() {
        let src = "pub struct One { x: std::rc::Rc<u32> }\n\
                   pub struct Two {\n    y: u32,\n}\n\
                   pub struct Tup(pub u8);\n";
        let g = graph(&[("crates/core/src/t.rs", src)]);
        let one = &g.types[g.type_names["One"][0]];
        assert!(one.fields.iter().any(|(_, l)| l.contains("Rc<")));
        let two = &g.types[g.type_names["Two"][0]];
        assert!(two.fields.iter().any(|(_, l)| l.contains("y: u32")));
        let tup = &g.types[g.type_names["Tup"][0]];
        assert!(tup.fields.iter().any(|(_, l)| l.contains("u8")));
    }

    #[test]
    fn strings_and_comments_cannot_fake_items_or_calls() {
        let src = "pub fn f() -> String {\n    // calls helper() in a comment\n    \
                   let s = \"helper()\";\n    s.to_string()\n}\n";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        let f = fn_named(&g, "f");
        assert!(f.calls.iter().all(|c| c.path != "helper"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "pub fn f(v: &[u32]) -> u32 {\n    if (v.len()) > 0 {\n        \
                   assert_eq!(v[0], 0);\n    }\n    g(v)\n}\nfn g(_v: &[u32]) -> u32 { 0 }\n";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        let f = fn_named(&g, "f");
        let paths: Vec<&str> = f.calls.iter().map(|c| c.path.as_str()).collect();
        assert!(!paths.contains(&"if"));
        assert!(!paths.contains(&"assert_eq"));
        assert!(paths.contains(&"g"));
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let src = "mod inner {\n    pub fn f() {}\n}\npub fn outer() {}\n";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(fn_named(&g, "f").qname, "inner::f");
        assert_eq!(fn_named(&g, "outer").qname, "outer");
    }

    #[test]
    fn test_region_fns_are_flagged() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t() {\n        super::prod();\n    }\n}\n";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        assert!(!fn_named(&g, "prod").is_test);
        assert!(fn_named(&g, "t").is_test);
    }
}

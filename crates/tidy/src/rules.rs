//! The four lexical rules clippy cannot express.
//!
//! Each rule works on a [`SourceFile`]'s masked code view (comments
//! and string contents blanked), so forbidden tokens inside strings
//! or comments never fire. Rules carry their own scope (which files
//! they apply to); line-level exemptions use
//! `// gvc-lint: allow(<rule>) — <justification>` comments, which the
//! runner applies after the rule fires. Panics, terminal output, host
//! clocks and lane-shared state are clippy's (see
//! docs/static-analysis.md).

use crate::diag::Violation;
use crate::lexer::SourceFile;

/// Library crates held to the no-literal-index standard (the same
/// crates whose root `#![deny]` block holds the clippy panic lints).
/// `cli` and `bench` are deliberately absent: binaries own their
/// output and may fail fast on startup errors.
pub const LIB_CRATES: &[&str] = &[
    "core",
    "engine",
    "net",
    "oscars",
    "gridftp",
    "logs",
    "stats",
    "telemetry",
    "workload",
    "topology",
    "hntes",
    "faults",
    "scenario",
];

/// Files whose job is rendering reports and tables; unordered-map
/// iteration there produces nondeterministic output.
pub const PRESENTATION_FILES: &[&str] = &["tables.rs", "report.rs", "fmt.rs"];

/// A static-analysis rule.
pub trait Rule {
    /// Registry name, used in diagnostics and `allow(...)` comments.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn description(&self) -> &'static str;
    /// Checks one file, returning all violations found.
    fn check(&self, file: &SourceFile) -> Vec<Violation>;
}

/// True for non-binary library-crate sources (`crates/<lib>/src/`,
/// excluding `src/bin/`).
fn in_lib_crate(rel: &str) -> bool {
    let Some((krate, tail)) = rel.strip_prefix("crates/").and_then(|r| r.split_once('/')) else {
        return false;
    };
    LIB_CRATES.contains(&krate) && tail.starts_with("src/") && !tail.starts_with("src/bin/")
}

/// Column positions (1-based) where `tok` occurs in `line` as a code
/// token: the preceding character must not be part of an identifier.
fn token_cols(line: &str, tok: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    // Tokens that start mid-expression (`[`) carry their own
    // boundary; identifier-leading tokens must not match inside a
    // longer identifier (`HashMap` inside `FxHashMap`).
    let check_left = tok.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
    line.match_indices(tok)
        .filter(|&(at, _)| {
            !check_left || at == 0 || {
                let p = bytes[at - 1] as char;
                !(p.is_ascii_alphanumeric() || p == '_')
            }
        })
        .map(|(at, _)| at + 1)
        .collect()
}

fn violation(
    rule: &'static str,
    file: &SourceFile,
    line_idx: usize,
    col: usize,
    message: String,
) -> Violation {
    Violation {
        rule,
        path: file.rel_path.clone(),
        line: line_idx + 1,
        col,
        message,
        snippet: file.raw.get(line_idx).map(|l| l.trim().to_string()).unwrap_or_default(),
    }
}

/// `literal-index`: library crates must not index a slice with a
/// literal (`xs[0]`) in non-test code; that panics on short input.
/// Clippy's `indexing_slicing` would also flag every computed index,
/// so this lexical half of the old panic rule stays here.
pub struct LiteralIndex;

impl LiteralIndex {
    /// 1-based columns of `ident[<int literal>]` slice indexing.
    fn literal_index_cols(line: &str) -> Vec<usize> {
        let b = line.as_bytes();
        let mut out = Vec::new();
        for at in 0..b.len() {
            if b[at] != b'[' || at == 0 {
                continue;
            }
            let prev = b[at - 1] as char;
            if !(prev.is_ascii_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
                continue;
            }
            let mut j = at + 1;
            let mut digits = 0usize;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                if b[j].is_ascii_digit() {
                    digits += 1;
                }
                j += 1;
            }
            if digits > 0 && j < b.len() && b[j] == b']' {
                out.push(at + 1);
            }
        }
        out
    }
}

impl Rule for LiteralIndex {
    fn name(&self) -> &'static str {
        "literal-index"
    }

    fn description(&self) -> &'static str {
        "forbid literal slice indexing (`xs[0]`) in non-test library-crate code"
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        if !in_lib_crate(&file.rel_path) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for col in LiteralIndex::literal_index_cols(code) {
                out.push(violation(
                    self.name(),
                    file,
                    idx,
                    col,
                    "literal slice index can panic; use .get(..), .first()/.last(), or \
                     pattern matching"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// `ordered-iteration`: report- and table-producing files must not
/// mention `HashMap`/`HashSet` at all — iteration order would leak
/// into rendered output — and no non-test `fn` anywhere may return
/// one, so an unordered collection cannot reach a presentation file
/// from upstream either. Use `BTreeMap`/`BTreeSet` or sort
/// explicitly.
pub struct OrderedIteration;

impl OrderedIteration {
    fn presentation(rel: &str) -> bool {
        let file_name = rel.rsplit('/').next().unwrap_or(rel);
        PRESENTATION_FILES.contains(&file_name) || rel.starts_with("crates/cli/src/")
    }

    /// Byte range of the return type of the `fn` item whose name
    /// starts at `i` in `b`: from the parameter list's closing paren
    /// to the body `{`, a `;` or a `where`.
    fn return_type(b: &[u8], mut i: usize) -> Option<std::ops::Range<usize>> {
        let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        while b.get(i).is_some_and(|&c| ident(c)) {
            i += 1;
        }
        // Generics up to the parameter list; the `>` of an `->` inside
        // a bound (`F: Fn() -> T`) closes nothing.
        let mut angle = 0usize;
        loop {
            match *b.get(i)? {
                b'<' => angle += 1,
                b'>' if b.get(i.wrapping_sub(1)) != Some(&b'-') => angle = angle.saturating_sub(1),
                b'(' if angle == 0 => break,
                b'{' | b';' => return None,
                _ => {}
            }
            i += 1;
        }
        let mut depth = 0usize;
        loop {
            match *b.get(i)? {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let start = i + 1;
        let mut end = start;
        while let Some(&c) = b.get(end) {
            let at_where = b[end..].starts_with(b"where") && !ident(b[end - 1]);
            if c == b'{' || c == b';' || at_where {
                break;
            }
            end += 1;
        }
        Some(start..end)
    }

    /// `(line index, 1-based col, token)` of each `HashMap`/`HashSet`
    /// in the return type of a non-test `fn` item.
    fn unordered_returns(file: &SourceFile) -> Vec<(usize, usize, &'static str)> {
        let text = file.code.join("\n");
        let b = text.as_bytes();
        let mut line_starts = vec![0];
        line_starts.extend(b.iter().enumerate().filter(|(_, &c)| c == b'\n').map(|(i, _)| i + 1));
        let locate = |at: usize| {
            let line = line_starts.partition_point(|&s| s <= at) - 1;
            (line, at - line_starts[line] + 1)
        };
        let mut out = Vec::new();
        for fn_col in token_cols(&text, "fn ") {
            let (fn_line, _) = locate(fn_col - 1);
            if file.is_test.get(fn_line).copied().unwrap_or(false) {
                continue;
            }
            let Some(ret) = OrderedIteration::return_type(b, fn_col + 2) else { continue };
            for tok in ["HashMap", "HashSet"] {
                for col in token_cols(&text[ret.clone()], tok) {
                    let (line, col) = locate(ret.start + col - 1);
                    out.push((line, col, tok));
                }
            }
        }
        out
    }
}

impl Rule for OrderedIteration {
    fn name(&self) -> &'static str {
        "ordered-iteration"
    }

    fn description(&self) -> &'static str {
        "forbid HashMap/HashSet in report- and table-rendering files and in any fn's return \
         type; use BTreeMap/BTreeSet or an explicit sort"
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        if OrderedIteration::presentation(&file.rel_path) {
            for (idx, code) in file.code.iter().enumerate() {
                if file.is_test.get(idx).copied().unwrap_or(false) {
                    continue;
                }
                for tok in ["HashMap", "HashSet"] {
                    for col in token_cols(code, tok) {
                        out.push(violation(
                            self.name(),
                            file,
                            idx,
                            col,
                            format!(
                                "`{tok}` in a report/table-producing file: iteration order \
                                 leaks into output; use BTreeMap/BTreeSet or sort before \
                                 rendering"
                            ),
                        ));
                    }
                }
            }
        }
        for (idx, col, tok) in OrderedIteration::unordered_returns(file) {
            if out.iter().any(|v| v.line == idx + 1 && v.col == col) {
                continue;
            }
            out.push(violation(
                self.name(),
                file,
                idx,
                col,
                format!(
                    "fn returns a `{tok}`: its iteration order leaks into whatever renders it; \
                     return BTreeMap/BTreeSet or a sorted Vec"
                ),
            ));
        }
        out
    }
}

/// `hygiene`: no tabs, no trailing whitespace, and every task marker
/// comment carries an issue reference (`#<digits>`).
pub struct Hygiene;

impl Rule for Hygiene {
    fn name(&self) -> &'static str {
        "hygiene"
    }

    fn description(&self) -> &'static str {
        "no tabs, no trailing whitespace, and TODO/FIXME must reference an issue (#N)"
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        for (idx, raw) in file.raw.iter().enumerate() {
            if let Some(at) = raw.find('\t') {
                out.push(violation(
                    self.name(),
                    file,
                    idx,
                    at + 1,
                    "tab character; indent with spaces".to_string(),
                ));
            }
            if raw.ends_with(' ') || raw.ends_with('\t') {
                out.push(violation(
                    self.name(),
                    file,
                    idx,
                    raw.len(),
                    "trailing whitespace".to_string(),
                ));
            }
            let nostr = file.nostr.get(idx).map_or("", |l| l.as_str());
            for marker in ["TODO", "FIXME"] {
                for col in token_cols(nostr, marker) {
                    let tail = &nostr[col - 1..];
                    let has_ref = tail.char_indices().any(|(i, c)| {
                        c == '#' && tail[i + 1..].starts_with(|d: char| d.is_ascii_digit())
                    });
                    if !has_ref {
                        out.push(violation(
                            self.name(),
                            file,
                            idx,
                            col,
                            format!("`{marker}` without an issue reference; write `{marker}(#123): ...`"),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `trace-kind-naming`: trace event kinds and span names must be
/// lowercase dot-namespaced string literals (`subsystem.event`) at
/// the emit site, so the documented schema in
/// `docs/observability.md` stays mechanically auditable (the
/// `schema_drift` meta-test in `gvc-cli` closes the loop from the
/// other side).
pub struct TraceKindNaming;

/// Call tokens whose next string-literal argument is an event kind or
/// span name.
const EMIT_TOKENS: &[&str] = &["TraceEvent::new(", ".span_enter(", ".span_enter_with("];

/// How many lines after the emit token to search for the literal —
/// rustfmt puts wrapped call arguments one per line, with the name
/// never more than a few arguments in.
const EMIT_LOOKAHEAD: usize = 5;

impl TraceKindNaming {
    /// True for `seg(.seg)+` where each segment is nonempty
    /// `[a-z0-9_]+`.
    fn well_formed(name: &str) -> bool {
        let mut segments = 0usize;
        for seg in name.split('.') {
            let ok = !seg.is_empty()
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if !ok {
                return false;
            }
            segments += 1;
        }
        segments >= 2
    }

    /// The first string literal at or after char column `from` of line
    /// `start`, as `(line index, 1-based col, contents)`. Scanning
    /// stops at a `;` or `{` in the masked view — the name argument
    /// always precedes the statement end and any closure body — or
    /// when the lookahead window runs out. String masking blanks the
    /// delimiters too, so a real literal is a position where the raw
    /// line has `"` but the strings-masked views have a space (a quote
    /// inside a comment survives in `nostr` and is skipped).
    fn first_literal(
        file: &SourceFile,
        start: usize,
        from: usize,
    ) -> Option<(usize, usize, String)> {
        let stop = (start + EMIT_LOOKAHEAD).min(file.code.len());
        for j in start..stop {
            let code: Vec<char> = file.code.get(j)?.chars().collect();
            let raw: Vec<char> = file.raw.get(j)?.chars().collect();
            let nostr: Vec<char> = file.nostr.get(j)?.chars().collect();
            let begin = if j == start { from } else { 0 };
            for at in begin..raw.len() {
                if let Some(';' | '{') = code.get(at) {
                    return None;
                }
                let opens = raw.get(at) == Some(&'"') && nostr.get(at) == Some(&' ');
                if !opens {
                    continue;
                }
                let close = (at + 1..raw.len()).find(|&k| {
                    raw.get(k) == Some(&'"') && raw.get(k.wrapping_sub(1)) != Some(&'\\')
                })?;
                let lit: String = raw.get(at + 1..close)?.iter().collect();
                return Some((j, at + 2, lit));
            }
        }
        None
    }
}

impl Rule for TraceKindNaming {
    fn name(&self) -> &'static str {
        "trace-kind-naming"
    }

    fn description(&self) -> &'static str {
        "trace event kinds and span names must be lowercase dot-namespaced string literals \
         (`subsystem.event`) at the emit site"
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for tok in EMIT_TOKENS {
                for col in token_cols(code, tok) {
                    let from =
                        code.get(..col - 1 + tok.len()).map_or(0, |prefix| prefix.chars().count());
                    match TraceKindNaming::first_literal(file, idx, from) {
                        Some((line, lcol, lit)) => {
                            if !TraceKindNaming::well_formed(&lit) {
                                out.push(violation(
                                    self.name(),
                                    file,
                                    line,
                                    lcol,
                                    format!(
                                        "trace kind/span name `{lit}` must be lowercase \
                                         dot-namespaced, e.g. `subsystem.event` \
                                         (see docs/observability.md)"
                                    ),
                                ));
                            }
                        }
                        None => out.push(violation(
                            self.name(),
                            file,
                            idx,
                            col,
                            "trace kind/span name should be a string literal at the emit site \
                             so the documented schema stays auditable"
                                .to_string(),
                        )),
                    }
                }
            }
        }
        out
    }
}

/// The registry: every shipped rule, in report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(LiteralIndex),
        Box::new(OrderedIteration),
        Box::new(Hygiene),
        Box::new(TraceKindNaming),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    #[test]
    fn lib_crate_scoping() {
        assert!(in_lib_crate("crates/stats/src/summary.rs"));
        assert!(!in_lib_crate("crates/cli/src/commands.rs"));
        assert!(!in_lib_crate("crates/stats/src/bin/tool.rs"));
        assert!(!in_lib_crate("tests/end_to_end.rs"));
    }

    /// A workspace file, read as text.
    fn workspace_file(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
    }

    /// The lints of the root `#![deny(...)]` block of `krate`'s lib.rs.
    fn root_deny_block(krate: &str) -> Vec<String> {
        let text = workspace_file(&format!("crates/{krate}/src/lib.rs"));
        let Some(start) = text.find("#![deny(") else { return Vec::new() };
        let len = text[start..].find(")]").unwrap_or(0);
        let inner = text.get(start + "#![deny(".len()..start + len).unwrap_or("");
        inner.split(',').map(|l| l.trim().to_string()).filter(|l| !l.is_empty()).collect()
    }

    #[test]
    fn panic_rule_fires_on_each_token() {
        // The literal-index half stays here, one finding per index.
        let src = "fn f() {\n  a[0];\n  b()[1];\n  c[2][3];\n}\n";
        let v = LiteralIndex.check(&file("crates/core/src/x.rs", src));
        let at: Vec<(usize, usize)> = v.iter().map(|x| (x.line, x.col)).collect();
        assert_eq!(at, vec![(2, 4), (3, 6), (4, 4), (4, 7)], "{v:#?}");
        // unwrap/expect/panic!/unreachable! are clippy's, denied at
        // the root of every crate this rule scopes to.
        for krate in LIB_CRATES {
            let block = root_deny_block(krate);
            for lint in ["unwrap_used", "expect_used", "panic", "unreachable"] {
                assert!(block.contains(&format!("clippy::{lint}")), "{krate}: {lint}");
            }
        }
    }

    #[test]
    fn determinism_scope_and_tokens() {
        let config = workspace_file("clippy.toml");
        for path in [
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "std::env::var",
            "std::env::var_os",
            "std::thread::current",
        ] {
            assert!(config.contains(&format!("path = \"{path}\"")), "{path} not disallowed");
        }
        let manifest = workspace_file("Cargo.toml");
        assert!(manifest.contains("\ndisallowed_methods = \"deny\""));
        // Only the telemetry spine may read the real world; the CLI
        // and bench crates are not exempt.
        for krate in LIB_CRATES.iter().chain(&["cli", "bench"]) {
            let exempt = workspace_file(&format!("crates/{krate}/src/lib.rs"))
                .contains("clippy::disallowed_methods");
            assert_eq!(exempt, *krate == "telemetry", "{krate}");
        }
    }

    #[test]
    fn stdout_rule() {
        for krate in LIB_CRATES {
            let block = root_deny_block(krate);
            for lint in ["print_stdout", "print_stderr"] {
                assert!(block.contains(&format!("clippy::{lint}")), "{krate}: {lint}");
            }
        }
        assert!(workspace_file("Cargo.toml").contains("\ndbg_macro = \"deny\""));
        // The CLI binary owns its output.
        assert!(!root_deny_block("cli").contains(&"clippy::print_stdout".to_string()));
    }

    #[test]
    fn panic_rule_skips_non_lib_and_tests() {
        let src = "fn f(xs: &[u8]) -> u8 { xs[0] }\n";
        assert!(LiteralIndex.check(&file("crates/cli/src/x.rs", src)).is_empty());
        assert_eq!(LiteralIndex.check(&file("crates/core/src/x.rs", src)).len(), 1);
        let test_src = "#[cfg(test)]\nmod tests {\n fn f(xs: &[u8]) -> u8 { xs[0] } }\n";
        assert!(LiteralIndex.check(&file("crates/core/src/x.rs", test_src)).is_empty());
    }

    #[test]
    fn literal_index_detection() {
        assert_eq!(LiteralIndex::literal_index_cols("let a = xs[0];"), vec![11]);
        assert_eq!(LiteralIndex::literal_index_cols("f(ys)[12_3]"), vec![6]);
        assert!(LiteralIndex::literal_index_cols("let t: [u8; 4] = x;").is_empty());
        assert!(LiteralIndex::literal_index_cols("#[cfg(feature = x)]").is_empty());
        assert!(LiteralIndex::literal_index_cols("xs[i]").is_empty());
        assert!(LiteralIndex::literal_index_cols("xs[1..]").is_empty());
    }

    #[test]
    fn ordered_iteration_scope() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        let v = OrderedIteration.check(&file("crates/core/src/tables.rs", src));
        assert_eq!(v.len(), 2);
        assert!(OrderedIteration.check(&file("crates/core/src/sweep.rs", src)).is_empty());
        assert_eq!(OrderedIteration.check(&file("crates/cli/src/args.rs", src)).len(), 2);
    }

    #[test]
    fn ordered_iteration_flags_unordered_returns_anywhere() {
        let src = "pub fn pairs<F: Fn(u8) -> HashSet<u8>>(f: F, m: HashMap<u8, u8>)\n    -> HashMap<u8,\n        HashSet<u8>>\nwhere\n    F: Copy,\n{\n    todo()\n}\nfn ok(m: &HashMap<u8, u8>) -> Vec<u8> { vec![] }\nfn decl() -> BTreeMap<u8, u8>;\n#[cfg(test)]\nmod tests {\n    fn helper() -> HashMap<u8, u8> { HashMap::new() }\n}\n";
        let v = OrderedIteration.check(&file("crates/hntes/src/pairs.rs", src));
        let at: Vec<(usize, usize)> = v.iter().map(|x| (x.line, x.col)).collect();
        assert_eq!(at, vec![(2, 8), (3, 9)], "{v:#?}");
        assert!(v.iter().all(|x| x.message.contains("returns")));
        // In a presentation file the return is flagged once, not twice.
        let v = OrderedIteration
            .check(&file("crates/core/src/report.rs", "fn f() -> HashSet<u8> {}\n"));
        assert_eq!(v.len(), 1, "{v:#?}");
    }

    #[test]
    fn hygiene_rule() {
        let src = "let a = 1; \n\tlet b = 2;\n// TODO: fix this\n// TODO(#12): tracked\n";
        let v = Hygiene.check(&file("tests/x.rs", src));
        let rules: Vec<&str> =
            v.iter().map(|x| x.message.split(';').next().unwrap_or("")).collect();
        assert_eq!(v.len(), 3, "{rules:?}");
        assert!(v[0].message.contains("trailing"));
        assert!(v[1].message.contains("tab"));
        assert!(v[2].message.contains("issue reference"));
    }

    #[test]
    fn trace_kind_naming_accepts_namespaced_literals() {
        let src = "fn f(t: &Tracer) {\n    t.emit_with(|| TraceEvent::new(0, \"idc.admit\").field(\"id\", 1u64));\n    t.span_enter(SpanId::NONE, 0, \"session.vc_setup\");\n}\n";
        assert!(TraceKindNaming.check(&file("crates/core/src/x.rs", src)).is_empty());
    }

    #[test]
    fn trace_kind_naming_flags_bad_names_and_non_literals() {
        let src = "fn f(t: &Tracer) {\n    t.emit_with(|| TraceEvent::new(0, \"BadKind\"));\n    t.span_enter(p, 0, name);\n    let s = t.span_enter_with(\n        p,\n        0,\n        \"single\",\n        |ev| ev,\n    );\n}\n";
        let v = TraceKindNaming.check(&file("crates/core/src/x.rs", src));
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 3, 7], "{v:#?}");
        assert!(v.first().is_some_and(|x| x.message.contains("BadKind")));
        assert!(v.get(1).is_some_and(|x| x.message.contains("string literal")));
    }

    #[test]
    fn trace_kind_well_formedness() {
        assert!(TraceKindNaming::well_formed("idc.admit"));
        assert!(TraceKindNaming::well_formed("net.snmp_deposit"));
        assert!(TraceKindNaming::well_formed("a.b.c2"));
        assert!(!TraceKindNaming::well_formed("flat"));
        assert!(!TraceKindNaming::well_formed("Idc.Admit"));
        assert!(!TraceKindNaming::well_formed("idc..admit"));
        assert!(!TraceKindNaming::well_formed("idc.admit "));
        assert!(!TraceKindNaming::well_formed(""));
    }

    #[test]
    fn tokens_in_strings_and_comments_ignored() {
        let src =
            "// xs[0] and fn f() -> HashMap<u8, u8>\nlet s = \"xs[0] fn g() -> HashSet<u8>\";\n";
        let f = file("crates/core/src/report.rs", src);
        assert!(LiteralIndex.check(&f).is_empty());
        assert!(OrderedIteration.check(&f).is_empty());
    }
}

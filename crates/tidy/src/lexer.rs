//! A small comment/string/char-literal-aware scanner.
//!
//! `gvc-tidy` has no parser dependency (the vendor tree carries no
//! `syn`), so rules work on a *masked* view of each file: the exact
//! same lines as the source, but with comment text and string/char
//! contents blanked out. A forbidden token inside a string literal or
//! a doc comment therefore never matches, while every real code token
//! keeps its line and column.
//!
//! The scanner also derives two per-line facts the rules need:
//!
//! * **test regions** — lines inside a `#[cfg(test)]` or `#[test]`
//!   item's brace block, which the code rules skip;
//! * **suppressions** — `// gvc-lint: allow(<rule>) — <justification>`
//!   comments, which silence `<rule>` on the same and the following
//!   line. A suppression without a justification is itself reported.

/// One parsed suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// Whether a non-trivial justification follows the `allow(...)`.
    pub justified: bool,
}

/// A source file prepared for rule checks.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Raw lines, exactly as on disk (no trailing newline).
    pub raw: Vec<String>,
    /// Masked lines: comments and string/char contents blanked.
    pub code: Vec<String>,
    /// Lines with string/char contents blanked but comments kept —
    /// the view hygiene checks scan, since task markers live in
    /// comments.
    pub nostr: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` / `#[test]` block.
    pub is_test: Vec<bool>,
    /// All `gvc-lint: allow(...)` comments found in the file.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Scans `content` into the masked/classified form.
    pub fn parse(rel_path: &str, content: &str) -> SourceFile {
        let masked = mask_impl(content, true);
        let raw: Vec<String> = split_lines(content);
        let code: Vec<String> = split_lines(&masked);
        let nostr: Vec<String> = split_lines(&mask_impl(content, false));
        let is_test = test_lines(&masked, raw.len());
        // Suppressions are parsed from the strings-masked view so a
        // string literal mentioning the marker never counts.
        let suppressions = find_suppressions(&nostr);
        SourceFile { rel_path: rel_path.to_string(), raw, code, nostr, is_test, suppressions }
    }

    /// True when `rule` is suppressed on 1-based `line` (a suppression
    /// covers its own line and the line after it).
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }
}

fn split_lines(s: &str) -> Vec<String> {
    s.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l).to_string()).collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn mask_impl(content: &str, mask_comments: bool) -> String {
    let b: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        // Line comment (also covers doc comments).
        if c == '/' && next == Some('/') {
            while i < b.len() && b[i] != '\n' {
                out.push(if mask_comments { ' ' } else { b[i] });
                i += 1;
            }
            continue;
        }
        // Block comment, nestable.
        if c == '/' && next == Some('*') {
            let keep = |ch: char| if mask_comments { blank(ch) } else { ch };
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(keep('/'));
                    out.push(keep('*'));
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(keep('*'));
                    out.push(keep('/'));
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(keep(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw-byte / raw-C) strings: r"…", r#"…"#, br#"…"#,
        // cr#"…"#. The `c` prefix (C strings, Rust ≥ 1.77) used to be
        // unknown to this scanner, so `cr##"…"##` fell through to the
        // ordinary-string branch and any `#`-delimited (depth ≥ 1)
        // contents containing quotes leaked into the code view.
        let prev_ident = i > 0 && is_ident(b[i - 1]);
        if !prev_ident && (c == 'r' || c == 'b' || c == 'c') {
            let after_prefix =
                if (c == 'b' || c == 'c') && next == Some('r') { i + 2 } else { i + 1 };
            let is_raw = (c == 'r' || next == Some('r'))
                && matches!(b.get(after_prefix), Some('"') | Some('#'));
            if is_raw {
                let mut j = after_prefix;
                let mut hashes = 0usize;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&'"') {
                    // Opener confirmed; blank through the closer.
                    j += 1;
                    loop {
                        match b.get(j) {
                            None => break,
                            Some(&'"') => {
                                let mut k = 0;
                                while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                                    k += 1;
                                }
                                if k == hashes {
                                    j += 1 + hashes;
                                    break;
                                }
                                j += 1;
                            }
                            _ => j += 1,
                        }
                    }
                    for &ch in &b[i..j.min(b.len())] {
                        out.push(blank(ch));
                    }
                    i = j;
                    continue;
                }
            }
        }
        // Ordinary (and byte) strings.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                match b[i] {
                    '\\' => {
                        // The escaped char may be a newline (line
                        // continuation) — keep it so lines stay aligned.
                        out.push(' ');
                        if let Some(&esc) = b.get(i + 1) {
                            out.push(blank(esc));
                        }
                        i += 2;
                    }
                    '"' => {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    ch => {
                        out.push(blank(ch));
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = match next {
                Some('\\') => true,
                Some(_) => b.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => {
                            out.push(' ');
                            if let Some(&esc) = b.get(i + 1) {
                                out.push(blank(esc));
                            }
                            i += 2;
                        }
                        '\'' => {
                            out.push(' ');
                            i += 1;
                            break;
                        }
                        ch => {
                            out.push(blank(ch));
                            i += 1;
                        }
                    }
                }
                continue;
            }
            // Lifetime: emit the tick, let the ident pass as code.
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks every line inside a `#[cfg(test)]` or `#[test]` item's block.
fn test_lines(masked: &str, n_lines: usize) -> Vec<bool> {
    let bytes = masked.as_bytes();
    // Byte offset → 0-based line. '\n' cannot be a UTF-8 continuation
    // byte, so scanning bytes is safe.
    let mut line_of = Vec::with_capacity(bytes.len() + 1);
    let mut ln = 0usize;
    for &byte in bytes {
        line_of.push(ln);
        if byte == b'\n' {
            ln += 1;
        }
    }
    line_of.push(ln);
    let mut out = vec![false; n_lines];
    for pat in ["#[cfg(test)]", "#[test]"] {
        for (start, _) in masked.match_indices(pat) {
            let Some((_, close)) = attached_block(bytes, start + pat.len()) else {
                continue;
            };
            let (from, to) = (line_of[start], line_of[close]);
            for flag in out.iter_mut().take(to + 1).skip(from) {
                *flag = true;
            }
        }
    }
    out
}

/// Finds the brace block an attribute at `from` is attached to:
/// skips further attributes, gives up at a top-level `;` (non-block
/// item), otherwise brace-matches from the first `{`.
fn attached_block(bytes: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    let mut open = None;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                open = Some(i);
                break;
            }
            b';' => return None,
            b'[' => {
                // Another attribute or a slice type: skip to its `]`.
                let mut depth = 1usize;
                i += 1;
                while i < bytes.len() && depth > 0 {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    let open = open?;
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses `gvc-lint: allow(<rule>)` comments out of the raw lines.
fn find_suppressions(raw: &[String]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        let Some(pos) = line.find("gvc-lint:") else {
            continue;
        };
        let rest = line[pos + "gvc-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = inner.find(')') else {
            continue;
        };
        let rule = inner[..close].trim().to_string();
        // Rule names are kebab-case; prose placeholders such as
        // `allow(<rule>)` in docs are not suppressions.
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        let justification = &inner[close + 1..];
        let justified = justification.chars().filter(|c| c.is_alphanumeric()).count() >= 10;
        out.push(Suppression { line: idx + 1, rule, justified });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blanks comment text and string/char-literal contents, preserving
    /// line structure and the position of every code character.
    fn mask(content: &str) -> String {
        mask_impl(content, true)
    }

    #[test]
    fn masks_line_and_doc_comments() {
        let m = mask("let x = 1; // unwrap() here\n/// .expect(doc)\nlet y = 2;");
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y = 2;"));
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("expect"));
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("a /* x /* panic!( */ y */ b");
        assert!(m.contains('a'));
        assert!(m.contains('b'));
        assert!(!m.contains("panic"));
    }

    #[test]
    fn masks_string_contents_not_code() {
        let m = mask(r#"let s = "call .unwrap() now"; s.unwrap();"#);
        assert_eq!(m.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let m = mask("let s = r#\"has \"quotes\" and panic!( \"#; real();");
        assert!(!m.contains("panic"));
        assert!(m.contains("real();"));
    }

    #[test]
    fn masks_deep_hash_raw_strings_of_every_prefix() {
        // Depth ≥ 2 for every raw prefix the language has: plain,
        // byte, and C raw strings. The `cr##"…"##` case failed before
        // the scanner learned the `c` prefix — the inner quotes ended
        // the "ordinary string" early and `leaked.unwrap()` surfaced
        // as code (see fixtures/masked_tokens.rs for the corpus copy).
        for prefix in ["r", "br", "cr"] {
            let src = format!("let s = {prefix}##\"has \"leaked.unwrap()\" panic!( \"##; ok();");
            let m = mask(&src);
            assert!(!m.contains("unwrap"), "{prefix}: {m}");
            assert!(!m.contains("panic"), "{prefix}: {m}");
            assert!(!m.contains('#'), "{prefix}: delimiter hashes must be blanked: {m}");
            assert!(m.contains("ok();"), "{prefix}: {m}");
            assert_eq!(m.chars().count(), src.chars().count(), "{prefix}");
        }
    }

    #[test]
    fn masks_plain_c_strings() {
        let m = mask("let s = c\"call .unwrap() now\"; real();");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("real();"));
    }

    #[test]
    fn deep_raw_string_with_depth_one_closer_inside() {
        // A depth-2 raw string legitimately containing the depth-1
        // closer sequence `"#` must not end early.
        let m = mask("let s = r##\"end\"# panic!( \"##; after();");
        assert!(!m.contains("panic"), "{m}");
        assert!(m.contains("after();"));
    }

    #[test]
    fn masks_escaped_quotes() {
        let m = mask(r#"let s = "a \" .unwrap() b"; ok();"#);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("ok();"));
    }

    #[test]
    fn line_continuation_strings_keep_line_count() {
        // A `\` at end of line inside a string escapes the newline;
        // masking must still emit that newline or every later line
        // shifts (and diagnostics point at the wrong place).
        let src = "let s = \"first \\\n     second\";\nok();\n";
        let m = mask(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.lines().nth(2).is_some_and(|l| l.contains("ok();")));
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let m = mask("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }");
        assert!(m.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.contains('"'));
    }

    #[test]
    fn preserves_line_count_and_positions() {
        let src = "let a = 1; // c\nlet b = \"two\nlines\"; panic!(\"x\");\n";
        let m = mask(src);
        assert_eq!(src.matches('\n').count(), m.matches('\n').count());
        // panic!( survives at the same line.
        let line = m.split('\n').nth(2).unwrap();
        assert!(line.contains("panic!("));
    }

    #[test]
    fn cfg_test_block_is_flagged() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[1] && f.is_test[2] && f.is_test[3] && f.is_test[4]);
        assert!(!f.is_test[5]);
    }

    #[test]
    fn test_fn_outside_cfg_block_is_flagged() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\nfn real() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_test[0] && f.is_test[1] && f.is_test[2] && f.is_test[3]);
        assert!(!f.is_test[4]);
    }

    #[test]
    fn cfg_test_on_use_item_is_ignored() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.is_test[2]);
    }

    #[test]
    fn suppression_parsed_with_justification() {
        let src =
            "// gvc-lint: allow(literal-index) — invariant: the list is never empty\nxs[0];\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 1);
        assert!(f.suppressions[0].justified);
        assert!(f.is_suppressed("literal-index", 2));
        assert!(!f.is_suppressed("hygiene", 2));
    }

    #[test]
    fn placeholder_rule_names_are_not_suppressions() {
        let src = "//! write `gvc-lint: allow(<rule>) — <why>`; see `gvc-lint: allow(...)`\n";
        assert!(SourceFile::parse("crates/core/src/x.rs", src).suppressions.is_empty());
    }

    #[test]
    fn bare_suppression_is_unjustified() {
        let src = "xs[0]; // gvc-lint: allow(literal-index)\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.suppressions[0].justified);
        assert!(f.is_suppressed("literal-index", 1));
    }
}

//! The fixture-home table shared by the tidy integration tests.
//!
//! Every row is one finding the earlier, larger gvc-tidy engine
//! reported on a fixture under its synthetic in-tree path — `(line,
//! old rule)` — with the check that holds it today:
//!
//! * a kept rule is run, and must fire at that line (or, for the
//!   unordered-flow findings, at the return type the flow starts
//!   from);
//! * a clippy lint or `clippy.toml` entry is read from the manifests,
//!   the crate roots and `clippy.toml` as text;
//! * a compiler check names the bound or lint and the text that
//!   carries it.

#![allow(dead_code, reason = "each test binary that includes this module uses a part of it")]

use gvc_tidy::run_sources;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub enum Home {
    /// A kept gvc-tidy rule fires at `line` of fixture `at`.
    Kept { rule: &'static str, at: &'static str, line: usize },
    /// A clippy lint in the root `#![deny]` block of the fixture's
    /// crate.
    CrateLint(&'static str),
    /// A clippy lint denied in `[workspace.lints.clippy]`.
    WorkspaceLint(&'static str),
    /// A path under a `clippy.toml` key, whose lint is denied in the
    /// fixture's crate.
    Listed { key: &'static str, path: &'static str },
    /// The host sinks are denied everywhere but in gvc-telemetry, so
    /// no wrapper outside it can reach one.
    Confined,
    /// A compiler check, carried by `text` in `file`.
    Compiler { check: &'static str, file: &'static str, text: &'static str },
    /// A function no vendored shim under `dir` defines: calling it is
    /// an unresolved-name error.
    Undefined { dir: &'static str, item: &'static str },
}

pub struct Fixture {
    pub file: &'static str,
    /// The synthetic workspace path the fixture is checked under.
    pub path: &'static str,
    pub findings: Vec<(usize, &'static str, Home)>,
}

pub fn kept(rule: &'static str, at: &'static str, line: usize) -> Home {
    Home::Kept { rule, at, line }
}

pub const SEND_BOUND: Home = Home::Compiler {
    check: "the `Send` bound on `std::thread::Scope::spawn`: a closure borrowing an \
            `Rc`/`RefCell` holder is not `Send`",
    file: "crates/bench/src/scenarios.rs",
    text: "std::thread::scope(",
};

pub fn table() -> Vec<Fixture> {
    use Home::{CrateLint, Listed, Undefined, WorkspaceLint};
    let methods = |path| Listed { key: "disallowed-methods", path };
    let types = |path| Listed { key: "disallowed-types", path };
    let rand = |item| Undefined { dir: "vendor/rand/src", item };
    vec![
        Fixture {
            file: "hygiene.rs",
            path: "tests/hygiene_fixture.rs",
            findings: [4, 5, 9, 10]
                .into_iter()
                .map(|l| (l, "hygiene", kept("hygiene", "hygiene.rs", l)))
                .collect(),
        },
        Fixture {
            file: "masked_tokens.rs",
            path: "crates/core/src/masked_tokens.rs",
            findings: vec![],
        },
        Fixture {
            file: "nondeterminism.rs",
            path: "crates/net/src/nondeterminism.rs",
            findings: vec![
                (4, "determinism", methods("std::time::Instant::now")),
                (5, "determinism", methods("std::time::SystemTime::now")),
                (11, "determinism", rand("thread_rng")),
                (12, "determinism", rand("from_entropy")),
                (13, "determinism", rand("random")),
            ],
        },
        Fixture {
            file: "panic_paths.rs",
            path: "crates/core/src/panic_paths.rs",
            findings: vec![
                (4, "no-panic-in-lib", CrateLint("unwrap_used")),
                (5, "no-panic-in-lib", CrateLint("expect_used")),
                (7, "no-panic-in-lib", CrateLint("panic")),
                (10, "no-panic-in-lib", CrateLint("unreachable")),
                (11, "no-panic-in-lib", WorkspaceLint("todo")),
                (12, "no-panic-in-lib", WorkspaceLint("unimplemented")),
                (13, "no-panic-in-lib", kept("literal-index", "panic_paths.rs", 13)),
            ],
        },
        Fixture {
            file: "stdout.rs",
            path: "crates/logs/src/stdout.rs",
            findings: vec![
                (4, "no-stdout-in-lib", CrateLint("print_stdout")),
                (5, "no-stdout-in-lib", CrateLint("print_stdout")),
                (6, "no-stdout-in-lib", CrateLint("print_stderr")),
                (7, "no-stdout-in-lib", CrateLint("print_stderr")),
                (8, "no-stdout-in-lib", WorkspaceLint("dbg_macro")),
            ],
        },
        Fixture {
            file: "suppressions.rs",
            path: "crates/core/src/suppressions.rs",
            findings: vec![
                (9, "lint-suppression", kept("lint-suppression", "suppressions.rs", 9)),
                (14, "no-panic-in-lib", CrateLint("unwrap_used")),
            ],
        },
        Fixture {
            file: "trace_kinds.rs",
            path: "crates/gridftp/src/trace_kinds.rs",
            findings: [5, 6, 9]
                .into_iter()
                .map(|l| (l, "trace-kind-naming", kept("trace-kind-naming", "trace_kinds.rs", l)))
                .collect(),
        },
        Fixture {
            file: "unordered_render.rs",
            path: "crates/core/src/tables.rs",
            findings: [3, 4, 6, 6]
                .into_iter()
                .map(|l| {
                    (l, "ordered-iteration", kept("ordered-iteration", "unordered_render.rs", l))
                })
                .collect(),
        },
        Fixture {
            file: "sem/confinement_entry.rs",
            path: "crates/gridftp/src/entry.rs",
            findings: vec![(9, "determinism-confinement", Home::Confined)],
        },
        Fixture {
            file: "sem/confinement_mid.rs",
            path: "crates/core/src/mid.rs",
            findings: vec![(9, "determinism-confinement", Home::Confined)],
        },
        Fixture {
            file: "sem/confinement_sink.rs",
            path: "crates/net/src/clock.rs",
            findings: vec![(7, "determinism", methods("std::time::Instant::now"))],
        },
        Fixture {
            file: "sem/lane_send_boundary.rs",
            path: "crates/engine/src/lanes.rs",
            findings: vec![(7, "lane-isolation", SEND_BOUND), (13, "lane-isolation", SEND_BOUND)],
        },
        Fixture {
            file: "sem/lane_shared_state.rs",
            path: "crates/engine/src/shared.rs",
            findings: vec![
                (4, "lane-isolation", types("std::sync::atomic::AtomicUsize")),
                (5, "lane-isolation", types("std::sync::Mutex")),
                (8, "lane-isolation", types("std::sync::atomic::AtomicUsize")),
                (8, "lane-isolation", types("std::sync::atomic::AtomicUsize")),
                (12, "lane-isolation", types("std::sync::Mutex")),
                (
                    16,
                    "lane-isolation",
                    Home::Compiler {
                        check: "`unsafe_code`: every read or write of a `static mut` needs an \
                                `unsafe` block",
                        file: "Cargo.toml",
                        text: "unsafe_code = \"deny\"",
                    },
                ),
            ],
        },
        Fixture {
            file: "sem/unordered_consumer.rs",
            path: "crates/cli/src/report.rs",
            findings: vec![
                (
                    9,
                    "unordered-iteration-v2",
                    kept("ordered-iteration", "sem/unordered_producer.rs", 7),
                ),
                (
                    13,
                    "unordered-iteration-v2",
                    kept("ordered-iteration", "sem/unordered_producer.rs", 12),
                ),
            ],
        },
        Fixture {
            file: "sem/unordered_producer.rs",
            path: "crates/hntes/src/pairs.rs",
            findings: vec![],
        },
    ]
}

pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

pub fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

pub fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

pub fn walk(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).expect("fixture dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(&path, out);
        } else {
            let rel = path.strip_prefix(fixtures_dir()).expect("under fixtures");
            out.insert(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The crate root a synthetic `crates/<name>/src/...` path compiles
/// into.
pub fn crate_root(path: &str) -> String {
    let krate = path.strip_prefix("crates/").and_then(|p| p.split('/').next());
    format!("crates/{}/src/lib.rs", krate.unwrap_or_else(|| panic!("{path} is not in a crate")))
}

/// The lints of the first `#![deny(...)]` block of a crate root;
/// empty when it has none.
pub fn deny_block(root_rel: &str) -> Vec<String> {
    let text = read(root_rel);
    let Some(start) = text.find("#![deny(") else { return Vec::new() };
    let len = text[start..].find(")]").expect("closed deny block");
    let inner = &text[start + "#![deny(".len()..start + len];
    inner.split(',').map(|l| l.trim().to_string()).filter(|l| !l.is_empty()).collect()
}

/// Every `.rs` file under `dir`, workspace-relative.
pub fn sources_under(dir: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(root().join(dir)).expect("source dir") {
        let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
        let rel = format!("{dir}/{name}");
        if root().join(&rel).is_dir() {
            sources_under(&rel, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

pub fn workspace_denies(lint: &str) -> bool {
    let manifest = read("Cargo.toml");
    let section = manifest.split("[workspace.lints.clippy]").nth(1).expect("clippy lints");
    let section = section.split("\n[").next().unwrap_or(section);
    section.lines().any(|l| l.trim() == format!("{lint} = \"deny\""))
}

/// True when clippy's `lint` is denied for code in `path`'s crate:
/// in its root block, or workspace-wide and not relaxed at its root.
pub fn denied_in(path: &str, lint: &str) -> bool {
    let root = crate_root(path);
    deny_block(&root).contains(&format!("clippy::{lint}"))
        || (workspace_denies(lint) && !read(&root).contains(&format!("clippy::{lint}")))
}

/// True when `text` holds an `allow`/`expect` attribute naming
/// clippy's `lint` (a mention in a string or a comment does not
/// count).
pub fn allows(text: &str, lint: &str) -> bool {
    text.match_indices(&format!("clippy::{lint}")).any(|(at, _)| {
        let attr = text[..at].rfind('#').map_or("", |hash| &text[hash..at]);
        let open = ["#![allow(", "#[allow(", "#![expect(", "#[expect("];
        open.iter().any(|o| attr.starts_with(o)) && !attr.contains(')')
    })
}

/// The `[...]` list under `key` in the root clippy.toml.
pub fn clippy_toml_list(key: &str) -> String {
    let text = read("clippy.toml");
    let start = text.find(&format!("\n{key} = [")).unwrap_or_else(|| panic!("no {key}"));
    let len = text[start..].find("\n]").expect("closed list");
    text[start..start + len].to_string()
}

pub fn assert_home(fx: &Fixture, line: usize, old: &str, home: &Home, tables: &[Fixture]) {
    let at = format!("{}:{line} ({old})", fx.file);
    match home {
        Home::Kept { rule, at: target, line: want } => {
            let tfx = tables.iter().find(|f| f.file == *target).expect("target fixture");
            let src = read(&format!("crates/tidy/tests/fixtures/{}", tfx.file));
            let report = run_sources(&[(tfx.path, src.as_str())]);
            assert!(
                report.violations.iter().any(|v| v.rule == *rule && v.line == *want),
                "{at}: kept rule `{rule}` does not fire at {target}:{want}: {:#?}",
                report.violations
            );
        }
        Home::CrateLint(lint) => {
            let root = crate_root(fx.path);
            assert!(
                deny_block(&root).contains(&format!("clippy::{lint}")),
                "{at}: `clippy::{lint}` is not in {root}'s #![deny] block"
            );
        }
        Home::WorkspaceLint(lint) => {
            assert!(workspace_denies(lint), "{at}: `{lint}` is not denied in Cargo.toml");
        }
        Home::Listed { key, path } => {
            assert!(
                clippy_toml_list(key).contains(&format!("\"{path}\"")),
                "{at}: `{path}` is not under clippy.toml's {key}"
            );
            let lint = key.replace('-', "_");
            assert!(denied_in(fx.path, &lint), "{at}: `{lint}` is not denied in {}", fx.path);
        }
        Home::Confined => {
            assert!(denied_in(fx.path, "disallowed_methods"), "{at}: sinks allowed in {}", fx.path);
            let mut files = Vec::new();
            sources_under("src", &mut files);
            for entry in fs::read_dir(root().join("crates")).expect("crates dir") {
                let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
                sources_under(&format!("crates/{name}/src"), &mut files);
            }
            files.retain(|f| allows(&read(f), "disallowed_methods"));
            assert_eq!(files, vec!["crates/telemetry/src/lib.rs"], "{at}: host reads escape");
        }
        Home::Compiler { check, file, text } => {
            assert!(read(file).contains(text), "{at}: {check} — `{text}` not found in {file}");
        }
        Home::Undefined { dir, item } => {
            for entry in fs::read_dir(root().join(dir)).expect("vendor dir") {
                let src = fs::read_to_string(entry.expect("entry").path()).expect("read");
                for def in [format!("fn {item}("), format!("fn {item}<")] {
                    assert!(!src.contains(&def), "{at}: {dir} defines `{item}`");
                }
            }
        }
    }
}

/// Asserts that fixture `file` has findings at exactly `lines`, in
/// table order, and that each one's home holds.
pub fn assert_fixture_rows(file: &str, lines: &[usize]) {
    let tables = table();
    let fx = tables.iter().find(|f| f.file == file).unwrap_or_else(|| panic!("no row for {file}"));
    let got: Vec<usize> = fx.findings.iter().map(|(l, _, _)| *l).collect();
    assert_eq!(got, lines, "{file}: the table's finding lines");
    for (line, old, home) in &fx.findings {
        assert_home(fx, *line, old, home, &tables);
    }
}

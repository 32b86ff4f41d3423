//! Byte-exact golden for the session-analysis commands (`sessions`,
//! `suitability`, `sweep`): regenerates small logs through the real
//! binary and compares the transcript of every command's stdout with
//! `tests/analysis_golden.txt`.
//!
//! The logs are a generated NCAR log, its anonymized copy (every
//! record unsessionizable) and a mixed log: NCAR plus SLAC plus the
//! anonymized records plus two zero-duration records, so one store
//! holds several pairs, an ungroupable tail and degenerate records.
//!
//! The written logs are held too: the two generated logs, the
//! anonymized copy and a pseudonymized copy of the mixed log (two
//! remotes, first seen in start-time order) must equal the files under
//! `tests/fixtures/` byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXPECTED: &str = include_str!("analysis_golden.txt");

/// Zero-duration records appended to the mixed log.
const DEGENERATE_LINES: &str = "\
RETR|5000000|1233480800000000|0|frost.ucar.edu|dtn.nics.tennessee.edu|8|1|4194304|262144|disk|disk
STOR|7000000|1328114100000000|0|dtn.slac.stanford.edu|dtn.bnl.gov|1|1|4194304|262144|disk|disk
";

fn gvc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gvc")).args(args).output().expect("spawn");
    assert!(out.status.success(), "gvc {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

/// Requires the log at `p` to equal `tests/fixtures/<fixture>` byte
/// for byte, naming the first line that differs.
fn assert_matches_fixture(p: &Path, fixture: &str) {
    let want_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let want = std::fs::read(&want_path).expect("read fixture");
    let got = std::fs::read(p).expect("read log");
    if got != want {
        let (got, want) = (String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
        let at = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{} drifted from {fixture}: {} vs {} lines, first difference at line {}",
            p.display(),
            got.lines().count(),
            want.lines().count(),
            at.map_or_else(|| "past the shorter file".to_owned(), |i| (i + 1).to_string())
        );
    }
}

/// Records of a log file without its header line.
fn body(p: &Path) -> String {
    let text = std::fs::read_to_string(p).expect("read log");
    text.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect()
}

#[test]
fn analysis_commands_match_golden() {
    let dir = std::env::temp_dir().join(format!("gvc-analysis-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let log = |name: &str| -> PathBuf {
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    };
    let (ncar, anon, slac, mixed, pseudonyms) = (
        log("ncar.log"),
        log("anon.log"),
        log("slac.log"),
        log("mixed.log"),
        log("mixed-pseudonym.log"),
    );
    gvc(&["generate", "ncar", path_str(&ncar), "--scale", "0.02", "--seed", "1"]);
    gvc(&["anonymize", path_str(&ncar), path_str(&anon)]);
    gvc(&["generate", "slac", path_str(&slac), "--scale", "0.002", "--seed", "1"]);
    let mixed_text = format!(
        "{}{}{}{}",
        std::fs::read_to_string(&ncar).expect("read ncar"),
        body(&slac),
        body(&anon),
        DEGENERATE_LINES
    );
    std::fs::write(&mixed, mixed_text).expect("write mixed");
    gvc(&["anonymize", path_str(&mixed), path_str(&pseudonyms), "--policy", "pseudonym"]);
    assert_matches_fixture(&ncar, "ncar.log");
    assert_matches_fixture(&slac, "slac.log");
    assert_matches_fixture(&anon, "ncar-anon.log");
    assert_matches_fixture(&pseudonyms, "mixed-pseudonym.log");

    let runs: &[(&str, &Path, &[&str])] = &[
        ("ncar.log", &ncar, &["sessions"]),
        ("ncar.log", &ncar, &["sessions", "--gap", "0"]),
        ("ncar.log", &ncar, &["suitability"]),
        ("ncar.log", &ncar, &["suitability", "--gap", "0", "--setup", "0.05"]),
        ("ncar.log", &ncar, &["sweep"]),
        ("anon.log", &anon, &["sessions"]),
        ("anon.log", &anon, &["suitability"]),
        ("anon.log", &anon, &["sweep"]),
        ("mixed.log", &mixed, &["sessions", "--gap", "120"]),
        ("mixed.log", &mixed, &["suitability", "--gap", "30", "--setup", "1", "--factor", "5"]),
        (
            "mixed.log",
            &mixed,
            &["sweep", "--gaps", "300,0,60", "--delays", "1,60", "--factor", "5"],
        ),
    ];
    let mut transcript = String::new();
    for (name, path, args) in runs {
        let (cmd, flags) = args.split_first().expect("command");
        transcript.push_str(&format!("$ gvc {cmd} {name}"));
        for f in flags {
            transcript.push_str(&format!(" {f}"));
        }
        transcript.push('\n');
        let mut argv = vec![*cmd, path_str(path)];
        argv.extend_from_slice(flags);
        transcript.push_str(&gvc(&argv));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(transcript == EXPECTED, "analysis output drifted from the golden:\n{transcript}");
}

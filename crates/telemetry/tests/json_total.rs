//! Property tests for the JSON reader and the three document formats
//! built on it — trace JSONL ([`parse_trace`]), `BENCH_*.json` and
//! `--perf` snapshots ([`PerfSnapshot`]), and timelines ([`TimelineDoc`]). Every parser is total: arbitrary
//! bytes, token soup, truncations, byte flips, and pathological
//! nesting all return `Ok` or a typed error, never a panic. The
//! writers and readers are mutual inverses.

use gvc_telemetry::json::{Json, MAX_DEPTH};
use gvc_telemetry::{
    parse_trace, BenchMetric, HostFingerprint, PerfSnapshot, TimelineDoc, TimelineRecorder,
    TraceEvent,
};
use proptest::prelude::*;

/// Runs every parser over `text`, checking each error is well-formed.
fn parse_all(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = Json::parse(text) {
        prop_assert!(e.pos <= text.len(), "error offset {} past the input", e.pos);
        prop_assert!(!e.msg.is_empty());
    }
    if let Err(e) = parse_trace(text) {
        prop_assert!(e.line >= 1 && e.line <= text.lines().count(), "line {}", e.line);
        prop_assert!(!e.message.is_empty());
    }
    if let Err(e) = PerfSnapshot::parse(text) {
        prop_assert!(!e.is_empty());
    }
    if let Err(e) = TimelineDoc::parse(text) {
        prop_assert!(!e.is_empty());
    }
    Ok(())
}

/// A long-lived valid document of each format.
fn valid_documents() -> Vec<String> {
    let trace = [
        TraceEvent::new(0, "run.manifest").field("seed", 7u64).field("note", "café \"q\"\n"),
        TraceEvent::new(10, "span.start").field("span", 1u64).field("name", "driver.run"),
        TraceEvent::new(40, "idc.admit").field("rate_bps", 1e9).field("ok", true),
        TraceEvent::new(90, "span.end").field("span", 1u64),
    ]
    .iter()
    .map(TraceEvent::to_json)
    .collect::<Vec<_>>()
    .join("\n");
    let mut timeline = TimelineRecorder::new(30_000_000);
    timeline.add("driver.transfers", 0, 2.0);
    timeline.sample("oscars.reserved_bps", 31_000_000, 2e9);
    timeline.observe("driver.vc_setup", 0, 60.0);
    vec![trace, snapshot_fixture().to_json(), timeline.to_json()]
}

fn fingerprint(host: &str, cpus: u64, created_unix_ms: u64) -> HostFingerprint {
    HostFingerprint {
        host: host.to_string(),
        os: "linux".to_string(),
        arch: "x86_64".to_string(),
        cpus,
        rustc: "rustc 1.85.0".to_string(),
        git_sha: "0123456789ab".to_string(),
        version: "0.1.0".to_string(),
        created_unix_ms,
    }
}

fn snapshot_fixture() -> PerfSnapshot {
    PerfSnapshot {
        name: "analysis".to_string(),
        reps: 3,
        fingerprint: fingerprint("höst", 2, 1_700_000_000_000),
        metrics: vec![BenchMetric {
            id: "analysis.parse_trace.lines_per_sec".to_string(),
            unit: "lines/sec".to_string(),
            higher_is_better: true,
            items: 40_000,
            value: 1.25e6,
            samples: vec![1.2e6, 1.25e6, 1.3e6],
        }],
    }
}

/// Fragments that recombine into near-JSON: structure, escapes,
/// numbers at the edges of `i64`, and multi-byte text.
static TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\n",
    "\"",
    "\\",
    "\\u00e9",
    "\\ud83d",
    "\\ude00",
    "\\u",
    "\\x",
    "0",
    "-",
    "1.5e3",
    "9223372036854775808",
    "-9223372036854775808",
    "1e999",
    "true",
    "nul",
    "null",
    "\"t_us\"",
    "\"kind\"",
    "\"width_us\"",
    "\"series\"",
    "\"windows\"",
    "\"w\"",
    "\"schema\"",
    "\"gvc.perf.snapshot/v1\"",
    "\"metrics\"",
    "é",
    "😀",
];
const TOKENS_LEN: u64 = TOKENS.len() as u64;

/// Shortest-round-trip float from a mantissa and a decimal exponent.
fn float(m: f64, e: i32) -> f64 {
    m * 10f64.powi(e)
}

/// Characters for generated text: ASCII, every escape class, and
/// two-, three- and four-byte UTF-8.
static CHARS: &[char] =
    &['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', 'é', 'ж', '中', '😀'];
const CHARS_LEN: u64 = CHARS.len() as u64;

fn text_of(picks: &[u64]) -> String {
    picks.iter().map(|&i| CHARS[i as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded lossily, never panic a parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..200)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        parse_all(&String::from_utf8_lossy(&raw))?;
    }

    /// Near-JSON token soup never panics a parser.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0u64..TOKENS_LEN, 0..60)) {
        let text: String = picks.iter().map(|&i| TOKENS[i as usize]).collect();
        parse_all(&text)?;
    }

    /// One flipped byte anywhere in a valid document never panics a
    /// parser.
    #[test]
    fn single_byte_flips_never_panic(doc in 0usize..3, at in 0usize..4096, mask in 1u16..256) {
        let docs = valid_documents();
        let mut raw = docs[doc].clone().into_bytes();
        let at = at % raw.len();
        raw[at] ^= mask as u8;
        parse_all(&String::from_utf8_lossy(&raw))?;
    }

    /// Snapshots survive `to_json` → `parse` exactly, including
    /// integers past 2^53 and floats across the exponent range.
    #[test]
    fn snapshot_round_trips(
        host in proptest::collection::vec(0u64..CHARS_LEN, 0..24),
        cpus in 0u64..(i64::MAX as u64),
        created in 0u64..(i64::MAX as u64),
        reps in 0u64..1_000,
        items in 0u64..(i64::MAX as u64),
        mantissas in proptest::collection::vec(-1.0f64..1.0, 1..6),
        exp in -300i32..300,
        higher in proptest::bool::ANY,
    ) {
        let samples: Vec<f64> = mantissas.iter().map(|&m| float(m, exp)).collect();
        let snap = PerfSnapshot {
            name: text_of(&host),
            reps,
            fingerprint: fingerprint(&text_of(&host), cpus, created),
            metrics: vec![BenchMetric {
                id: format!("suite.{}.per_sec", text_of(&host)),
                unit: "ops/sec".to_string(),
                higher_is_better: higher,
                items,
                value: samples[0],
                samples,
            }],
        };
        let back = PerfSnapshot::parse(&snap.to_json()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, snap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A long string of multi-byte text and escapes round-trips
    /// through the trace writer and reader unchanged.
    #[test]
    fn long_multibyte_string_round_trips(
        picks in proptest::collection::vec(0u64..CHARS_LEN, 10_000..40_000),
    ) {
        let text = text_of(&picks);
        let line = TraceEvent::new(5, "x").field("s", text.clone()).to_json();
        let value = Json::parse(&line).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(value.get("s").and_then(Json::as_str), Some(text.as_str()));
        let records = parse_trace(&line).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(records[0].text("s"), Some(text.as_str()));
    }
}

#[test]
fn every_truncation_of_a_valid_document_is_handled() {
    for doc in valid_documents() {
        let raw = doc.as_bytes();
        for cut in 0..raw.len() {
            parse_all(&String::from_utf8_lossy(&raw[..cut])).unwrap_or_else(|e| panic!("{e}"));
        }
        parse_all(&doc).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn valid_documents_parse() {
    let docs = valid_documents();
    assert_eq!(parse_trace(&docs[0]).map(|r| r.len()), Ok(4));
    assert_eq!(PerfSnapshot::parse(&docs[1]), Ok(snapshot_fixture()));
    assert_eq!(TimelineDoc::parse(&docs[2]).map(|d| d.series.len()), Ok(3));
}

#[test]
fn ten_thousand_nested_brackets_are_rejected_not_overflowed() {
    let deep = "[".repeat(10_000);
    let deep_obj = "{\"a\":".repeat(10_000);
    let deep_field = format!("{{\"t_us\":1,\"kind\":\"x\",\"v\":{deep}");
    for text in [&deep, &deep_obj, &deep_field] {
        parse_all(text).unwrap_or_else(|e| panic!("{e}"));
        let err = Json::parse(text).expect_err("unterminated nesting");
        assert_eq!(err.msg, "nesting too deep");
        assert!(PerfSnapshot::parse(text).is_err());
        assert!(TimelineDoc::parse(text).is_err());
        assert!(parse_trace(text).is_err());
    }
    // The cap itself is reachable: MAX_DEPTH levels below the top.
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(Json::parse(&ok).is_ok());
}

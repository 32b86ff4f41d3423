//! Property tests for the SLO rule grammar behind `gvc timeline check
//! --slo`: [`parse_rule`] and [`parse_rules`] are total. Arbitrary
//! bytes, token soup, every truncation and byte flips of valid rules
//! all return rules or an error message, never a panic, and what they
//! accept can be evaluated against a timeline.

use gvc_telemetry::{check_rules, parse_rule, parse_rules, TimelineDoc, TimelineRecorder};
use proptest::prelude::*;

/// Parses `text` as a rule file and each line as a rule, checking
/// accepted rules are well-formed and evaluable, and errors carry a
/// message (file errors name a line of the input).
fn check(text: &str) -> Result<(), TestCaseError> {
    for line in text.lines() {
        match parse_rule(line) {
            Ok(rule) => {
                prop_assert!(!rule.series.is_empty(), "empty series from {line:?}");
                prop_assert!((0.0..=100.0).contains(&rule.min_pct), "{line:?}");
                prop_assert_eq!(&rule.raw, line);
            }
            Err(msg) => prop_assert!(!msg.is_empty(), "empty error for {line:?}"),
        }
    }
    match parse_rules(text) {
        Ok(rules) => {
            let mut tl = TimelineRecorder::new(30_000_000);
            tl.add("driver.retries", 0, 1.0);
            tl.observe("driver.vc_setup", 0, 60.0);
            let doc = TimelineDoc::parse(&tl.to_json()).map_err(TestCaseError::fail)?;
            // Every rule yields at least one outcome, matched or not.
            prop_assert!(check_rules(&doc, &rules).len() >= rules.len());
        }
        Err(msg) => {
            let n: usize = msg
                .strip_prefix("rule line ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| TestCaseError::fail(format!("unnumbered error {msg:?}")))?;
            prop_assert!(n >= 1 && n <= text.lines().count(), "line {n} in {msg:?}");
        }
    }
    Ok(())
}

/// Valid rules covering every statistic, comparator, unit and window
/// clause.
static VALID: &[&str] = &[
    "vc_setup_p99<=5s@95%-of-windows",
    "link_util <= 0.9",
    "driver.retries>=1",
    "vc_setup_p50<=250ms",
    "kernel.dispatched_n > 3 @ 50%-of-windows",
    "oscars.reserved_bps_max < 1e10",
    "net.link_util[denv-cr->kans-cr]_mean<0.5us",
];

/// Fragments that recombine into near-valid rules.
static TOKENS: &[&str] = &[
    "vc_setup",
    "driver.retries",
    "net.link_util[a->b]",
    "_p50",
    "_p90",
    "_p99",
    "_mean",
    "_max",
    "_value",
    "_n",
    "<=",
    ">=",
    "<",
    ">",
    "=",
    "5",
    "-1",
    ".5",
    "1e999",
    "nan",
    "inf",
    "s",
    "ms",
    "us",
    "@",
    "95",
    "101",
    "%-of-windows",
    "%",
    " ",
    "\n",
    "#",
    "é",
    "😀",
];
const TOKENS_LEN: u64 = TOKENS.len() as u64;
const VALID_LEN: usize = VALID.len();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded lossily, never panic the parsers.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..120)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        check(&String::from_utf8_lossy(&raw))?;
    }

    /// Near-valid token soup never panics the parsers.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0u64..TOKENS_LEN, 0..30)) {
        let text: String = picks.iter().map(|&i| TOKENS[i as usize]).collect();
        check(&text)?;
    }

    /// One flipped byte anywhere in a valid rule file never panics the
    /// parsers.
    #[test]
    fn single_byte_flips_never_panic(at in 0usize..4096, mask in 1u16..256) {
        let mut raw = VALID.join("\n").into_bytes();
        let at = at % raw.len();
        raw[at] ^= mask as u8;
        check(&String::from_utf8_lossy(&raw))?;
    }

    /// Two valid rules spliced at arbitrary character boundaries never
    /// panic the parsers.
    #[test]
    fn spliced_rules_never_panic(a in 0usize..VALID_LEN, b in 0usize..VALID_LEN, cut in 0usize..64) {
        let (x, y) = (VALID[a], VALID[b]);
        let cut_x = cut.min(x.len());
        let cut_y = cut.min(y.len());
        check(&format!("{}{}", &x[..cut_x], &y[cut_y..]))?;
    }
}

/// Every prefix of the valid rule file parses or fails cleanly.
#[test]
fn every_truncation_is_total() {
    let file = VALID.join("\n");
    for end in (0..=file.len()).filter(|&e| file.is_char_boundary(e)) {
        check(&file[..end]).unwrap_or_else(|e| panic!("{e}"));
    }
}

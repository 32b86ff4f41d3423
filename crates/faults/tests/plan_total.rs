//! Property tests for the `--faults` grammar: [`FaultPlan::parse`] is
//! total. Arbitrary bytes, token soup, every truncation and byte flips
//! of valid specs all return a plan or a typed [`FaultSpecError`],
//! never a panic — and every accepted plan is one the driver can run:
//! its probabilities are probabilities, its flaps name `SRC->DST`
//! links, and its flap and preemption times fit the simulation clock.

use gvc_engine::{SimSpan, SimTime};
use gvc_faults::{FaultPlan, FaultSpecError};
use proptest::prelude::*;

/// Parses `text`, checking that an accepted plan is runnable and that
/// an error carries a message.
fn check(text: &str) -> Result<(), TestCaseError> {
    match FaultPlan::parse(text) {
        Ok(plan) => {
            for p in [plan.provision_failure_p, plan.setup_timeout_p, plan.server_restart_p] {
                prop_assert!((0.0..=1.0).contains(&p), "probability {p} from {text:?}");
            }
            for flap in &plan.link_flaps {
                let arrow = flap.endpoints().is_some_and(|(s, d)| !s.is_empty() && !d.is_empty());
                prop_assert!(arrow, "flap link {:?} from {text:?}", flap.link);
                prop_assert!((0.0..=1.0).contains(&flap.residual_frac), "{text:?}");
                prop_assert!(SimTime::try_from_secs_f64(flap.at_s).is_some(), "{text:?}");
                prop_assert!(
                    SimTime::try_from_secs_f64(flap.at_s + flap.duration_s).is_some(),
                    "{text:?}"
                );
            }
            if let Some(after) = plan.preempt_after_s {
                prop_assert!(after > 0.0 && SimSpan::try_from_secs_f64(after).is_some());
            }
        }
        Err(FaultSpecError(msg)) => prop_assert!(!msg.is_empty(), "empty error for {text:?}"),
    }
    Ok(())
}

/// Valid specs covering every key.
static VALID: &[&str] = &[
    "seed=9,fail-first=2,provision-p=0.1,timeout-p=0.05,preempt-after=300,restart-p=0.2,\
     flap=anl->bnl@120+30*0.1",
    "seed=7,fail-first=3,provision-p=0.45,timeout-p=0.2,flap=chic-cr->nash-cr@1800+1200*0.1",
    "preempt-after=1e6,flap=a->b@0+1e6",
];

/// Fragments that recombine into near-valid specs: every key, numbers
/// at the edges of the clock and of `f64`, and broken separators.
static TOKENS: &[&str] = &[
    "seed=",
    "fail-first=",
    "provision-p=",
    "timeout-p=",
    "restart-p=",
    "preempt-after=",
    "flap=",
    "a->b@",
    "foo@",
    "->",
    "@",
    "+",
    "*",
    ",",
    "=",
    " ",
    "0",
    "1",
    "-1",
    "0.5",
    "1.5",
    "1e300",
    "1e13",
    "9.2e12",
    "1.8e13",
    "18446744073709",
    "18446744073709.552",
    "nan",
    "inf",
    "-0",
    "4294967296",
    "é",
    "bogus",
];
const TOKENS_LEN: u64 = TOKENS.len() as u64;
const VALID_LEN: usize = VALID.len();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded lossily, never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..120)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        check(&String::from_utf8_lossy(&raw))?;
    }

    /// Near-valid token soup never panics the parser, and what it
    /// accepts is runnable.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0u64..TOKENS_LEN, 0..30)) {
        let text: String = picks.iter().map(|&i| TOKENS[i as usize]).collect();
        check(&text)?;
    }

    /// A flap or preemption time drawn across the whole `f64` exponent
    /// range is either runnable or refused.
    #[test]
    fn clock_edges_are_refused_not_panicked(
        at_m in 0.0f64..10.0,
        at_e in -5i32..310,
        dur_m in 0.0f64..10.0,
        dur_e in -5i32..310,
    ) {
        let at = at_m * 10f64.powi(at_e);
        let dur = dur_m * 10f64.powi(dur_e);
        check(&format!("flap=a->b@{at}+{dur}"))?;
        check(&format!("preempt-after={dur}"))?;
    }

    /// One flipped byte anywhere in a valid spec never panics the
    /// parser.
    #[test]
    fn single_byte_flips_never_panic(doc in 0usize..VALID_LEN, at in 0usize..4096, mask in 1u16..128) {
        let mut raw = VALID[doc].as_bytes().to_vec();
        let at = at % raw.len();
        raw[at] ^= mask as u8;
        check(&String::from_utf8_lossy(&raw))?;
    }
}

/// Every prefix of every valid spec parses or fails cleanly.
#[test]
fn every_truncation_is_total() {
    for spec in VALID {
        for end in 0..=spec.len() {
            check(&spec[..end]).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

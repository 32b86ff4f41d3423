//! Recovery policies: bounded retries with deterministic exponential
//! backoff + jitter, a setup-timeout deadline, and the paper's own
//! contingency — falling back to the routed IP path when a virtual
//! circuit cannot be established (§VI: transfers run today without
//! circuits; the VC is an optimization, not a prerequisite).

use gvc_stats::rng::child_seed;

/// What a client does after a failed circuit-establishment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Try again after the given backoff delay.
    Retry {
        /// Microseconds to wait before the next attempt (integral so
        /// the action stays `Eq`/hashable and maps onto `SimSpan`).
        delay_s_micros: u64,
    },
    /// Stop retrying and run over the routed IP path.
    FallbackToIp,
    /// Stop retrying and do not fall back (circuit-or-nothing).
    GiveUp,
}

/// A policy field failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError(pub String);

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid recovery policy: {}", self.0)
    }
}

impl std::error::Error for PolicyError {}

/// Bounded-retry recovery with deterministic exponential backoff.
///
/// The backoff schedule is a pure function of `(policy, seed)`:
/// attempt `n` waits `min(cap, base · factor^n)` plus a jitter drawn
/// deterministically from the seed, clamped so the schedule is
/// monotone non-decreasing and never exceeds `max_backoff_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries allowed after the first attempt (total attempts are
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// First backoff delay, seconds.
    pub base_backoff_s: f64,
    /// Multiplicative growth per retry (≥ 1).
    pub backoff_factor: f64,
    /// Hard cap on any single backoff delay, seconds.
    pub max_backoff_s: f64,
    /// Jitter as a fraction of the unjittered delay, in `[0, 1)`.
    pub jitter_frac: f64,
    /// A provision whose circuit would only become usable later than
    /// this many seconds from "now" counts as a setup timeout.
    pub setup_deadline_s: f64,
    /// Whether exhausting the retry budget falls back to the routed
    /// IP path (the paper's contingency) or gives up.
    pub fallback_to_ip: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            base_backoff_s: 5.0,
            backoff_factor: 2.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.25,
            setup_deadline_s: 300.0,
            fallback_to_ip: true,
        }
    }
}

/// Uniform fraction in `[0, 1)` from a 64-bit hash.
fn unit_frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl RecoveryPolicy {
    /// Checks field ranges, returning the policy for chaining.
    ///
    /// # Errors
    /// [`PolicyError`] on non-finite or out-of-range fields.
    pub fn validate(self) -> Result<RecoveryPolicy, PolicyError> {
        let finite_nonneg = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(PolicyError(format!("{name} must be finite and non-negative, got {v}")))
            }
        };
        finite_nonneg("base_backoff_s", self.base_backoff_s)?;
        finite_nonneg("max_backoff_s", self.max_backoff_s)?;
        finite_nonneg("setup_deadline_s", self.setup_deadline_s)?;
        if !(self.backoff_factor.is_finite() && self.backoff_factor >= 1.0) {
            return Err(PolicyError(format!(
                "backoff_factor must be >= 1, got {}",
                self.backoff_factor
            )));
        }
        if !(self.jitter_frac.is_finite() && (0.0..1.0).contains(&self.jitter_frac)) {
            return Err(PolicyError(format!(
                "jitter_frac must be in [0, 1), got {}",
                self.jitter_frac
            )));
        }
        Ok(self)
    }

    /// Total attempts the budget allows (first try + retries).
    pub fn attempt_budget(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The backoff delay before retry number `retry` (1-based),
    /// deterministic in `(policy, seed)`. Monotone non-decreasing in
    /// `retry` and bounded by `max_backoff_s`.
    pub fn backoff_s(&self, seed: u64, retry: u32) -> f64 {
        let mut prev = 0.0f64;
        for n in 1..=retry {
            let raw = (self.base_backoff_s * self.backoff_factor.powi(n as i32 - 1))
                .min(self.max_backoff_s);
            let u = unit_frac(child_seed(seed, "backoff").wrapping_add(u64::from(n)));
            let jittered = (raw * (1.0 + self.jitter_frac * u)).min(self.max_backoff_s);
            prev = prev.max(jittered);
        }
        prev
    }

    /// What to do after `failed_attempts` establishment attempts have
    /// failed: retry (with the seeded backoff) while budget remains,
    /// then fall back or give up.
    pub fn decide(&self, seed: u64, failed_attempts: u32) -> RecoveryAction {
        if failed_attempts < self.attempt_budget() {
            let delay = self.backoff_s(seed, failed_attempts);
            RecoveryAction::Retry { delay_s_micros: (delay * 1e6).round() as u64 }
        } else if self.fallback_to_ip {
            RecoveryAction::FallbackToIp
        } else {
            RecoveryAction::GiveUp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_validates() {
        assert!(RecoveryPolicy::default().validate().is_ok());
    }

    #[test]
    fn bad_fields_rejected() {
        let bad = RecoveryPolicy { backoff_factor: 0.5, ..RecoveryPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = RecoveryPolicy { jitter_frac: 1.0, ..RecoveryPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = RecoveryPolicy { base_backoff_s: f64::NAN, ..RecoveryPolicy::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn backoff_monotone_and_capped() {
        let p = RecoveryPolicy { max_retries: 8, ..RecoveryPolicy::default() };
        let mut prev = 0.0;
        for retry in 1..=8 {
            let d = p.backoff_s(7, retry);
            assert!(d >= prev, "retry {retry}: {d} < {prev}");
            assert!(d <= p.max_backoff_s + 1e-12, "retry {retry}: {d}");
            prev = d;
        }
    }

    #[test]
    fn backoff_deterministic_in_seed() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_s(42, 3), p.backoff_s(42, 3));
        assert_ne!(p.backoff_s(42, 3), p.backoff_s(43, 3));
    }

    #[test]
    fn decide_walks_retry_then_fallback() {
        let p = RecoveryPolicy { max_retries: 2, ..RecoveryPolicy::default() };
        assert!(matches!(p.decide(1, 1), RecoveryAction::Retry { .. }));
        assert!(matches!(p.decide(1, 2), RecoveryAction::Retry { .. }));
        assert_eq!(p.decide(1, 3), RecoveryAction::FallbackToIp);
        let strict = RecoveryPolicy { fallback_to_ip: false, ..p };
        assert_eq!(strict.decide(1, 3), RecoveryAction::GiveUp);
    }

    #[test]
    fn zero_jitter_is_pure_exponential() {
        let p = RecoveryPolicy {
            jitter_frac: 0.0,
            base_backoff_s: 2.0,
            backoff_factor: 3.0,
            max_backoff_s: 1000.0,
            ..RecoveryPolicy::default()
        };
        assert!((p.backoff_s(0, 1) - 2.0).abs() < 1e-12);
        assert!((p.backoff_s(0, 2) - 6.0).abs() < 1e-12);
        assert!((p.backoff_s(0, 3) - 18.0).abs() < 1e-12);
    }
}

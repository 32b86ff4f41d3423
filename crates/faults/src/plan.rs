//! Seed-driven fault plans: what goes wrong, when, deterministically.
//!
//! A [`FaultPlan`] combines scheduled faults (fail the first N
//! provisions, preempt the circuit after T seconds, flap a named link
//! over a window) with probabilistic ones (per-attempt signalling
//! failure, setup timeout, per-transfer server restart) drawn from a
//! dedicated RNG stream derived from the plan seed. The same plan and
//! seed always produce the same fault sequence, which is what makes
//! the resilience harness assert exact event orders.

use rand::Rng;

use gvc_engine::{SimSpan, SimTime};
use gvc_stats::rng::component_rng;
use rand::rngs::SmallRng;

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// IDC signalling failure: the provision RPC errors out.
    SignallingFailure,
    /// IDC setup timeout: signalling succeeds but the circuit would
    /// not be usable before the policy's setup deadline.
    SetupTimeout,
    /// Mid-reservation teardown: the provider preempts an active
    /// circuit before the reservation's scheduled end.
    Preemption,
    /// A backbone link flaps: capacity collapses for a window.
    LinkFlap,
    /// GridFTP server restart mid-transfer (restart-marker recovery).
    ServerRestart,
}

impl FaultKind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::SignallingFailure,
        FaultKind::SetupTimeout,
        FaultKind::Preemption,
        FaultKind::LinkFlap,
        FaultKind::ServerRestart,
    ];

    /// Stable label used for metric labels and trace event fields.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::SignallingFailure => "signalling_failure",
            FaultKind::SetupTimeout => "setup_timeout",
            FaultKind::Preemption => "preemption",
            FaultKind::LinkFlap => "link_flap",
            FaultKind::ServerRestart => "server_restart",
        }
    }
}

/// A scheduled capacity collapse on one named link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFlapSpec {
    /// Link name, `"src->dst"` as printed by the topology.
    pub link: String,
    /// Sim time the flap starts, seconds.
    pub at_s: f64,
    /// Flap duration, seconds.
    pub duration_s: f64,
    /// Fraction of nominal capacity that survives the flap, in
    /// `[0, 1]`. Zero is a hard outage; flows on the link stall.
    pub residual_frac: f64,
}

impl LinkFlapSpec {
    /// The link's endpoint names, `(src, dst)`; `None` for a name
    /// without the `->` arrow, which [`FaultPlan::parse`] refuses.
    pub fn endpoints(&self) -> Option<(&str, &str)> {
        self.link.split_once("->")
    }
}

/// A deterministic fault plan: scheduled + probabilistic faults under
/// one seed. `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's own RNG stream (independent from the
    /// scenario seed so fault draws never perturb workload draws).
    pub seed: u64,
    /// Deterministically fail the first N provision attempts
    /// (signalling failures), regardless of probability.
    pub fail_first_provisions: u32,
    /// Per-attempt probability of a signalling failure after the
    /// scheduled ones are spent.
    pub provision_failure_p: f64,
    /// Per-attempt probability that a successful signalling exchange
    /// still misses the setup deadline.
    pub setup_timeout_p: f64,
    /// Preempt each session's circuit this many seconds after it
    /// becomes usable (None = never preempt).
    pub preempt_after_s: Option<f64>,
    /// Scheduled link flaps.
    pub link_flaps: Vec<LinkFlapSpec>,
    /// Per-transfer probability of a forced server restart.
    pub server_restart_p: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            fail_first_provisions: 0,
            provision_failure_p: 0.0,
            setup_timeout_p: 0.0,
            preempt_after_s: None,
            link_flaps: Vec::new(),
            server_restart_p: 0.0,
        }
    }
}

/// A fault spec string failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_f64(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    let v: f64 = value
        .parse()
        .map_err(|_| FaultSpecError(format!("{key}: expected a number, got {value:?}")))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(FaultSpecError(format!("{key}: must be finite, got {value:?}")))
    }
}

fn parse_prob(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    let v = parse_f64(key, value)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(FaultSpecError(format!("{key}: probability must be in [0, 1], got {value}")))
    }
}

/// Parses `flap=LINK@START+DUR[*RESIDUAL]`, e.g. `flap=anl->bnl@120+30`
/// or `flap=anl->bnl@120+30*0.1`.
fn parse_flap(value: &str) -> Result<LinkFlapSpec, FaultSpecError> {
    let err = || {
        FaultSpecError(format!(
            "flap: expected LINK@START+DUR[*RESIDUAL] (e.g. anl->bnl@120+30*0.1), got {value:?}"
        ))
    };
    let (link, rest) = value.rsplit_once('@').ok_or_else(err)?;
    if !link.split_once("->").is_some_and(|(src, dst)| !src.is_empty() && !dst.is_empty()) {
        return Err(FaultSpecError(format!("flap: link must be SRC->DST, got {link:?}")));
    }
    let (at, rest) = rest.split_once('+').ok_or_else(err)?;
    let (dur, residual) = match rest.split_once('*') {
        Some((d, r)) => (d, parse_prob("flap residual", r)?),
        None => (rest, 0.0),
    };
    let at_s = parse_f64("flap start", at)?;
    let duration_s = parse_f64("flap duration", dur)?;
    if at_s < 0.0 || duration_s <= 0.0 {
        return Err(FaultSpecError(format!(
            "flap: start must be >= 0 and duration > 0, got {value:?}"
        )));
    }
    // The driver schedules the flap and its restore on the sim clock.
    if SimTime::try_from_secs_f64(at_s).is_none()
        || SimTime::try_from_secs_f64(at_s + duration_s).is_none()
    {
        return Err(FaultSpecError(format!(
            "flap: start and start + duration must fit the simulation clock, got {value:?}"
        )));
    }
    Ok(LinkFlapSpec { link: link.to_string(), at_s, duration_s, residual_frac: residual })
}

impl FaultPlan {
    /// Parses the CLI fault-spec grammar: comma-separated `key=value`
    /// tokens (see `docs/faults.md`).
    ///
    /// ```
    /// use gvc_faults::FaultPlan;
    /// let plan = FaultPlan::parse("seed=7,fail-first=2,restart-p=0.05").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.fail_first_provisions, 2);
    /// ```
    ///
    /// # Errors
    /// [`FaultSpecError`] on unknown keys, malformed numbers,
    /// out-of-range probabilities, or times the simulation clock
    /// cannot represent.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("expected key=value, got {token:?}")))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value.trim().parse().map_err(|_| {
                        FaultSpecError(format!("seed: expected an integer, got {value:?}"))
                    })?;
                }
                "fail-first" => {
                    plan.fail_first_provisions = value.trim().parse().map_err(|_| {
                        FaultSpecError(format!("fail-first: expected an integer, got {value:?}"))
                    })?;
                }
                "provision-p" => plan.provision_failure_p = parse_prob("provision-p", value)?,
                "timeout-p" => plan.setup_timeout_p = parse_prob("timeout-p", value)?,
                "restart-p" => plan.server_restart_p = parse_prob("restart-p", value)?,
                "preempt-after" => {
                    let v = parse_f64("preempt-after", value)?;
                    if v <= 0.0 {
                        return Err(FaultSpecError(format!(
                            "preempt-after: must be > 0, got {value}"
                        )));
                    }
                    if SimSpan::try_from_secs_f64(v).is_none() {
                        return Err(FaultSpecError(format!(
                            "preempt-after: must fit the simulation clock, got {value}"
                        )));
                    }
                    plan.preempt_after_s = Some(v);
                }
                "flap" => plan.link_flaps.push(parse_flap(value)?),
                other => {
                    return Err(FaultSpecError(format!(
                        "unknown key {other:?} (expected seed, fail-first, provision-p, \
                         timeout-p, preempt-after, restart-p, or flap)"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// Refuses a plan that flaps a link the topology lacks: parsing
    /// cannot see the topology, and the driver would skip such a flap
    /// without a word. `has_link(src, dst)` answers for the topology
    /// the plan will run on.
    ///
    /// # Errors
    /// [`FaultSpecError`] naming the first flap link `has_link` rejects.
    pub fn check_flap_links(
        &self,
        has_link: impl Fn(&str, &str) -> bool,
    ) -> Result<(), FaultSpecError> {
        for flap in &self.link_flaps {
            if !flap.endpoints().is_some_and(|(src, dst)| has_link(src, dst)) {
                return Err(FaultSpecError(format!(
                    "flap: no link {:?} in the topology",
                    flap.link
                )));
            }
        }
        Ok(())
    }
}

/// Stateful executor of a [`FaultPlan`]: owns the plan's RNG stream
/// and the scheduled-fault countdowns. One injector per run.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    provision_rng: SmallRng,
    fail_first_left: u32,
    /// Faults delivered so far, indexed by `FaultKind as usize`.
    injected: [u64; 5],
}

impl FaultInjector {
    /// Builds an injector with RNG streams derived from the plan seed.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let provision_rng = component_rng(plan.seed, "faults/provision");
        let fail_first_left = plan.fail_first_provisions;
        FaultInjector { plan, provision_rng, fail_first_left, injected: [0; 5] }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far (all kinds).
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults of one kind injected so far.
    pub fn injected_count(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize]
    }

    /// Records a fault delivered outside the injector's own draws: a
    /// preemption or a link flap the driver actually carried out.
    pub fn note(&mut self, kind: FaultKind) {
        self.injected[kind as usize] += 1;
    }

    /// Decides the fate of one circuit-establishment attempt. Draws
    /// from the injector's own stream, so attempt outcomes are a pure
    /// function of (plan, attempt index) regardless of what the rest
    /// of the simulation does in between.
    pub fn provision_fault(&mut self) -> Option<FaultKind> {
        // Keep the stream aligned: one failure draw and one timeout
        // draw per attempt, even when a scheduled failure preempts
        // the probabilistic one.
        let fail_draw = self.plan.provision_failure_p > 0.0
            && self.provision_rng.gen_bool(self.plan.provision_failure_p);
        let timeout_draw = self.plan.setup_timeout_p > 0.0
            && self.provision_rng.gen_bool(self.plan.setup_timeout_p);
        let kind = if self.fail_first_left > 0 {
            self.fail_first_left -= 1;
            FaultKind::SignallingFailure
        } else if fail_draw {
            FaultKind::SignallingFailure
        } else if timeout_draw {
            FaultKind::SetupTimeout
        } else {
            return None;
        };
        self.note(kind);
        Some(kind)
    }

    /// Seconds after circuit readiness at which to preempt, if the
    /// plan schedules preemption.
    pub fn preempt_after_s(&self) -> Option<f64> {
        self.plan.preempt_after_s
    }

    /// Scheduled link flaps, in plan order.
    pub fn link_flaps(&self) -> &[LinkFlapSpec] {
        &self.plan.link_flaps
    }

    /// Whether a given transfer suffers a forced server restart. The
    /// draw is keyed by `(plan seed, session, job)` rather than taken
    /// from a sequential stream, so one session's outcome never
    /// depends on how many transfers other sessions ran first.
    pub fn server_restart(&mut self, session: usize, job: u32) -> bool {
        if self.plan.server_restart_p <= 0.0 {
            return false;
        }
        let label = format!("faults/restart/{session}/{job}");
        let hit = component_rng(self.plan.seed, &label).gen_bool(self.plan.server_restart_p);
        if hit {
            self.note(FaultKind::ServerRestart);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(inj.provision_fault(), None);
        }
        assert!(!inj.server_restart(0, 0));
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=9,fail-first=2,provision-p=0.1,timeout-p=0.05,\
             preempt-after=300,restart-p=0.2,flap=anl->bnl@120+30*0.1",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.fail_first_provisions, 2);
        assert!((plan.provision_failure_p - 0.1).abs() < 1e-12);
        assert!((plan.setup_timeout_p - 0.05).abs() < 1e-12);
        assert_eq!(plan.preempt_after_s, Some(300.0));
        assert!((plan.server_restart_p - 0.2).abs() < 1e-12);
        assert_eq!(plan.link_flaps.len(), 1);
        let flap = &plan.link_flaps[0];
        assert_eq!(flap.link, "anl->bnl");
        assert!((flap.at_s - 120.0).abs() < 1e-12);
        assert!((flap.duration_s - 30.0).abs() < 1e-12);
        assert!((flap.residual_frac - 0.1).abs() < 1e-12);
        assert_ne!(plan, FaultPlan::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("provision-p=1.5").is_err());
        assert!(FaultPlan::parse("provision-p=nan").is_err());
        assert!(FaultPlan::parse("fail-first=-1").is_err());
        assert!(FaultPlan::parse("flap=nolink").is_err());
        assert!(FaultPlan::parse("flap=foo@1+2").is_err());
        assert!(FaultPlan::parse("flap=a->@1+2").is_err());
        assert!(FaultPlan::parse("flap=a->b@5").is_err());
        assert!(FaultPlan::parse("flap=a->b@-1+5").is_err());
        assert!(FaultPlan::parse("preempt-after=0").is_err());
        assert!(FaultPlan::parse("seed").is_err());
    }

    #[test]
    fn flap_links_are_checked_against_the_topology() {
        let plan = FaultPlan::parse("flap=a->b@1+2,flap=b->c@3+4").unwrap();
        let known = |src: &str, dst: &str| (src, dst) == ("a", "b") || (src, dst) == ("b", "c");
        assert_eq!(plan.check_flap_links(known), Ok(()));
        let only_ab = |src: &str, dst: &str| (src, dst) == ("a", "b");
        let err = plan.check_flap_links(only_ab).unwrap_err();
        assert!(err.0.contains("\"b->c\""), "{err}");
        assert_eq!(FaultPlan::default().check_flap_links(|_, _| false), Ok(()));
    }

    #[test]
    fn parse_rejects_times_past_the_sim_clock() {
        // Each used to parse and then panic the driver converting it.
        for spec in ["flap=a->b@1e300+1", "flap=a->b@1+1e300", "preempt-after=1e300"] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.0.contains("simulation clock"), "{spec}: {err}");
        }
        assert!(FaultPlan::parse("flap=a->b@1e6+1e6,preempt-after=1e6").is_ok());
    }

    #[test]
    fn parse_empty_is_inert() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" , ,").unwrap(), FaultPlan::default());
    }

    #[test]
    fn fail_first_is_deterministic() {
        let plan = FaultPlan { fail_first_provisions: 3, ..FaultPlan::default() };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..3 {
            assert_eq!(inj.provision_fault(), Some(FaultKind::SignallingFailure));
        }
        assert_eq!(inj.provision_fault(), None);
        assert_eq!(inj.injected_total(), 3);
        assert_eq!(inj.injected_count(FaultKind::SignallingFailure), 3);
        inj.note(FaultKind::Preemption);
        assert_eq!(inj.injected_count(FaultKind::Preemption), 1);
        assert_eq!(inj.injected_total(), 4);
    }

    #[test]
    fn probabilistic_stream_reproduces() {
        let plan = FaultPlan {
            seed: 11,
            provision_failure_p: 0.3,
            setup_timeout_p: 0.2,
            ..FaultPlan::default()
        };
        let seq1: Vec<_> = {
            let mut inj = FaultInjector::new(plan.clone());
            (0..64).map(|_| inj.provision_fault()).collect()
        };
        let seq2: Vec<_> = {
            let mut inj = FaultInjector::new(plan);
            (0..64).map(|_| inj.provision_fault()).collect()
        };
        assert_eq!(seq1, seq2);
        assert!(seq1.iter().any(Option::is_some));
        assert!(seq1.iter().any(Option::is_none));
    }

    #[test]
    fn scheduled_failures_do_not_shift_later_draws() {
        // Same seed, plans differing only in fail_first: after the
        // scheduled failures are spent, the probabilistic outcomes
        // line up attempt-for-attempt.
        let base = FaultPlan { seed: 5, provision_failure_p: 0.25, ..FaultPlan::default() };
        let shifted = FaultPlan { fail_first_provisions: 4, ..base.clone() };
        let mut a = FaultInjector::new(base);
        let mut b = FaultInjector::new(shifted);
        let tail_a: Vec<_> = (0..32).map(|_| a.provision_fault()).collect();
        let tail_b: Vec<_> = (0..32).map(|_| b.provision_fault()).collect();
        assert_eq!(tail_a[4..], tail_b[4..]);
    }

    #[test]
    fn server_restart_keyed_by_session_and_job() {
        let plan = FaultPlan { seed: 3, server_restart_p: 0.5, ..FaultPlan::default() };
        let mut inj = FaultInjector::new(plan.clone());
        let first: Vec<bool> = (0..16).map(|j| inj.server_restart(1, j)).collect();
        // Re-query in a different order: outcomes must not change.
        let mut inj2 = FaultInjector::new(plan);
        let mut second: Vec<bool> = (0..16).rev().map(|j| inj2.server_restart(1, j)).collect();
        second.reverse();
        assert_eq!(first, second);
        assert!(first.iter().any(|&x| x));
        assert!(first.iter().any(|&x| !x));
    }
}

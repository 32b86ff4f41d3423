//! The HNTES controller: offline learning of α ingress-egress pairs.
//!
//! §IV: flow redirection cannot wait for a flow to prove itself —
//! by the time a flow is measurably α, much of it has already crossed
//! the IP path. The deployable trick (used by the authors' HNTES
//! system) is *offline* identification: α flows observed during one
//! measurement interval install firewall-filter rules for their
//! ingress-egress pair, so that *future* flows of the same pair are
//! redirected onto a pre-provisioned intra-domain LSP from their first
//! packet. Science traffic is strongly repetitive across days, so
//! pair-level rules capture most α bytes.

use crate::classifier::AlphaClassifier;
use crate::flowrec::FlowRecord;
use gvc_topology::NodeId;
use std::collections::HashMap;

/// One installed redirection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RedirectRule {
    /// Ingress router/edge of the pair.
    pub ingress: NodeId,
    /// Egress router/edge of the pair.
    pub egress: NodeId,
}

/// The controller state: learned rules plus bookkeeping about when
/// each pair was last seen carrying α traffic (rules age out).
#[derive(Debug, Clone)]
pub struct HntesController {
    classifier: AlphaClassifier,
    rules: HashMap<RedirectRule, i64>,
    /// Rules expire after this many µs without fresh α evidence
    /// (0 disables expiry).
    pub rule_ttl_us: i64,
}

impl HntesController {
    /// A controller with the given classifier and a 7-day rule TTL.
    pub fn new(classifier: AlphaClassifier) -> HntesController {
        HntesController { classifier, rules: HashMap::new(), rule_ttl_us: 7 * 86_400 * 1_000_000 }
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The installed rules, deterministic order.
    pub fn rules(&self) -> Vec<RedirectRule> {
        let mut v: Vec<RedirectRule> = self.rules.keys().copied().collect();
        v.sort_by_key(|r| (r.ingress, r.egress));
        v
    }

    /// Processes one measurement interval's flow records: α flows
    /// install (or refresh) their pair's rule; stale rules age out.
    /// Returns the number of rules installed or refreshed.
    pub fn observe_interval(&mut self, records: &[FlowRecord], now_unix_us: i64) -> usize {
        let mut touched = 0;
        for r in records {
            if self.classifier.is_alpha(r) {
                let rule = RedirectRule { ingress: r.ingress, egress: r.egress };
                self.rules.insert(rule, now_unix_us);
                touched += 1;
            }
        }
        if self.rule_ttl_us > 0 {
            self.rules.retain(|_, last| now_unix_us - *last <= self.rule_ttl_us);
        }
        touched
    }

    /// Would a new flow on this pair be redirected right now?
    pub fn redirects(&self, ingress: NodeId, egress: NodeId) -> bool {
        self.rules.contains_key(&RedirectRule { ingress, egress })
    }

    /// Applies the current rules to a future interval's records:
    /// returns `(redirected, missed_alpha, false_redirects)` where
    /// `redirected` are records steered onto circuits, `missed_alpha`
    /// are α flows still on the IP path, and `false_redirects` are β
    /// flows needlessly steered (pair-level rules are coarse).
    pub fn apply<'a>(
        &self,
        records: &'a [FlowRecord],
    ) -> (Vec<&'a FlowRecord>, Vec<&'a FlowRecord>, Vec<&'a FlowRecord>) {
        let mut redirected = Vec::new();
        let mut missed = Vec::new();
        let mut false_pos = Vec::new();
        for r in records {
            let is_alpha = self.classifier.is_alpha(r);
            if self.redirects(r.ingress, r.egress) {
                redirected.push(r);
                if !is_alpha {
                    false_pos.push(r);
                }
            } else if is_alpha {
                missed.push(r);
            }
        }
        (redirected, missed, false_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ing: u32, eg: u32, bytes: u64, dur_s: f64, start_s: i64) -> FlowRecord {
        FlowRecord {
            ingress: NodeId(ing),
            egress: NodeId(eg),
            bytes,
            start_unix_us: start_s * 1_000_000,
            end_unix_us: start_s * 1_000_000 + (dur_s * 1e6) as i64,
        }
    }

    fn alpha(ing: u32, eg: u32, start_s: i64) -> FlowRecord {
        rec(ing, eg, 20_000_000_000, 60.0, start_s)
    }

    fn beta(ing: u32, eg: u32, start_s: i64) -> FlowRecord {
        rec(ing, eg, 5_000_000, 2.0, start_s)
    }

    #[test]
    fn alpha_observation_installs_rule() {
        let mut c = HntesController::new(AlphaClassifier::default());
        assert_eq!(c.rule_count(), 0);
        c.observe_interval(&[alpha(1, 2, 0), beta(3, 4, 0)], 0);
        assert_eq!(c.rule_count(), 1);
        assert!(c.redirects(NodeId(1), NodeId(2)));
        assert!(!c.redirects(NodeId(3), NodeId(4)));
        assert!(!c.redirects(NodeId(2), NodeId(1)), "rules are directional");
    }

    #[test]
    fn rules_age_out_without_fresh_evidence() {
        let mut c = HntesController::new(AlphaClassifier::default());
        c.rule_ttl_us = 1_000_000; // 1 s TTL
        c.observe_interval(&[alpha(1, 2, 0)], 0);
        assert_eq!(c.rule_count(), 1);
        // Next interval, no alpha traffic, 2 s later: rule expires.
        c.observe_interval(&[beta(1, 2, 2)], 2_000_000);
        assert_eq!(c.rule_count(), 0);
    }

    #[test]
    fn refresh_keeps_rule_alive() {
        let mut c = HntesController::new(AlphaClassifier::default());
        c.rule_ttl_us = 1_500_000;
        c.observe_interval(&[alpha(1, 2, 0)], 0);
        c.observe_interval(&[alpha(1, 2, 1)], 1_000_000);
        c.observe_interval(&[beta(9, 9, 2)], 2_000_000);
        assert!(c.redirects(NodeId(1), NodeId(2)));
    }

    #[test]
    fn apply_partitions_future_traffic() {
        let mut c = HntesController::new(AlphaClassifier::default());
        c.observe_interval(&[alpha(1, 2, 0)], 0);
        let future = vec![
            alpha(1, 2, 100), // captured
            beta(1, 2, 100),  // false redirect (same pair)
            alpha(5, 6, 100), // missed (new pair)
            beta(7, 8, 100),  // correctly left alone
        ];
        let (redirected, missed, false_pos) = c.apply(&future);
        assert_eq!(redirected.len(), 2);
        assert_eq!(missed.len(), 1);
        assert_eq!(false_pos.len(), 1);
    }

    #[test]
    fn pair_set_matches_rules() {
        let mut c = HntesController::new(AlphaClassifier::default());
        c.observe_interval(&[alpha(1, 2, 0), alpha(3, 4, 0), alpha(1, 2, 0)], 0);
        let pairs: Vec<_> = c.rules().iter().map(|r| (r.ingress, r.egress)).collect();
        assert_eq!(pairs, vec![(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))]);
        assert_eq!(c.rules().len(), 2);
    }
}

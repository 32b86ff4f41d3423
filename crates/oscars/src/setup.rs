//! Virtual-circuit setup-delay models.
//!
//! §IV: the deployed IDC "has the opportunity to collect all
//! provisioning requests that start in the next minute and send them in
//! batch mode to the ingress router. This solution however results in a
//! minimum 1-min VC setup delay if a data transfer application sends a
//! VC setup request to the IDC for immediate usage." Table IV also
//! evaluates a 50 ms setup delay — "the lowest value (round-trip
//! propagation delay across the US) if VC setup message processing is
//! implemented in hardware".

use gvc_engine::{SimSpan, SimTime};

/// When a circuit requested at time `t` becomes usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupDelayModel {
    /// A fixed setup delay (the analysis-side abstraction; Table IV
    /// uses `Fixed(1 min)` and `Fixed(50 ms)`).
    Fixed(SimSpan),
    /// The deployed batched IDC: requests are collected until the next
    /// batch boundary and provisioned during the following batch, so
    /// the delay for an immediate-use request is in
    /// `[interval, 2·interval)` — "minimally 1 min" with the 1-minute
    /// batch.
    Batched {
        /// Batch interval (1 minute in ESnet's deployment).
        interval: SimSpan,
    },
}

impl SetupDelayModel {
    /// The ESnet deployment: 1-minute batches.
    pub fn esnet_deployed() -> SetupDelayModel {
        SetupDelayModel::Batched { interval: SimSpan::from_mins(1) }
    }

    /// The paper's hardware lower bound: flat 50 ms.
    pub fn hardware() -> SetupDelayModel {
        SetupDelayModel::Fixed(SimSpan::from_millis(50))
    }

    /// The flat 1-minute delay Table IV assumes analytically.
    pub fn one_minute() -> SetupDelayModel {
        SetupDelayModel::Fixed(SimSpan::from_mins(1))
    }

    /// Instant at which a circuit requested at `requested` for
    /// immediate use becomes ready.
    pub fn ready_at(self, requested: SimTime) -> SimTime {
        match self {
            SetupDelayModel::Fixed(d) => requested + d,
            SetupDelayModel::Batched { interval } => {
                let iv = interval.micros() as u64;
                assert!(iv > 0, "batch interval must be positive");
                // Next boundary at or after the request (a request
                // landing exactly on a boundary is collected there)…
                let boundary = requested.micros().div_ceil(iv) * iv;
                // …plus one full batch of provisioning.
                SimTime(boundary) + interval
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_is_additive() {
        let m = SetupDelayModel::hardware();
        let t = SimTime::from_secs(100);
        assert_eq!(m.ready_at(t), t + SimSpan::from_millis(50));
    }

    #[test]
    fn batched_minimum_is_one_interval() {
        let m = SetupDelayModel::esnet_deployed();
        // Request exactly on a boundary: collected there, ready one
        // batch later…
        let t = SimTime::from_secs(120);
        assert_eq!(m.ready_at(t), SimTime::from_secs(180));
        // …request just before a boundary: ready just over 1 min later.
        let t2 = SimTime::from_secs(119);
        assert_eq!(m.ready_at(t2), SimTime::from_secs(180));
    }

    #[test]
    fn nominal_delays() {
        // The presets carry the paper's setup-delay scalars: 1 min
        // flat, 1-min batches, and the 50 ms hardware bound.
        assert_eq!(SetupDelayModel::one_minute(), SetupDelayModel::Fixed(SimSpan::from_mins(1)));
        let batched = SetupDelayModel::Batched { interval: SimSpan::from_mins(1) };
        assert_eq!(SetupDelayModel::esnet_deployed(), batched);
        assert_eq!(SetupDelayModel::hardware(), SetupDelayModel::Fixed(SimSpan::from_millis(50)));
    }

    proptest! {
        /// The batched delay always lies in [interval, 2*interval).
        #[test]
        fn prop_batched_delay_bounds(secs in 0u64..10_000) {
            let m = SetupDelayModel::esnet_deployed();
            let t = SimTime::from_secs(secs);
            let d = m.ready_at(t) - t;
            prop_assert!(d >= SimSpan::from_mins(1));
            prop_assert!(d < SimSpan::from_mins(2));
        }

        /// ready_at is monotone in the request time.
        #[test]
        fn prop_monotone(a in 0u64..10_000u64, b in 0u64..10_000u64) {
            let (lo, hi) = (a.min(b), a.max(b));
            for m in [SetupDelayModel::esnet_deployed(), SetupDelayModel::hardware()] {
                prop_assert!(m.ready_at(SimTime::from_secs(lo)) <= m.ready_at(SimTime::from_secs(hi)));
            }
        }
    }
}

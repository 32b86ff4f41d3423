//! Reservation lifecycle types.

use gvc_engine::SimTime;
use gvc_topology::{NodeId, Path};

/// Identifier assigned by the IDC to an admitted reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationId(pub u64);

/// A `createReservation` message (§IV: startTime, endTime, bandwidth,
/// circuit endpoint addresses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationRequest {
    /// Circuit ingress endpoint.
    pub src: NodeId,
    /// Circuit egress endpoint.
    pub dst: NodeId,
    /// Requested guaranteed rate, bps.
    pub rate_bps: f64,
    /// Scheduled start.
    pub start: SimTime,
    /// Scheduled end.
    pub end: SimTime,
}

impl ReservationRequest {
    /// Validates the request's internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_bps <= 0.0 {
            return Err("rate must be positive".into());
        }
        if self.end <= self.start {
            return Err("window must be non-empty".into());
        }
        if self.src == self.dst {
            return Err("endpoints must differ".into());
        }
        Ok(())
    }
}

/// Lifecycle states of an admitted reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationState {
    /// Admitted, waiting for its start time.
    Scheduled,
    /// Provisioning signalled; circuit not yet usable.
    Provisioning,
    /// Circuit up and carrying traffic.
    Active,
    /// Torn down (explicitly or at window end).
    Released,
}

/// An admitted reservation with its selected path.
#[derive(Debug, Clone)]
pub struct Reservation {
    /// The IDC-assigned id.
    pub id: ReservationId,
    /// The original request.
    pub request: ReservationRequest,
    /// The CSPF-selected path.
    pub path: Path,
    /// Current lifecycle state.
    pub state: ReservationState,
    /// When the circuit became usable (set on activation).
    pub ready_at: Option<SimTime>,
}

impl Reservation {
    /// True while the circuit can carry traffic at instant `t`.
    #[cfg(test)]
    pub(crate) fn usable_at(&self, t: SimTime) -> bool {
        self.state == ReservationState::Active
            && self.ready_at.is_some_and(|r| t >= r)
            && t < self.request.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_topology::{Graph, NodeKind};

    fn req(rate: f64, s: u64, e: u64) -> ReservationRequest {
        ReservationRequest {
            src: NodeId(0),
            dst: NodeId(1),
            rate_bps: rate,
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
        }
    }

    #[test]
    fn validation() {
        assert!(req(1e9, 0, 10).validate().is_ok());
        assert!(req(0.0, 0, 10).validate().is_err());
        assert!(req(1e9, 10, 10).validate().is_err());
        let mut same = req(1e9, 0, 10);
        same.dst = same.src;
        assert!(same.validate().is_err());
    }

    #[test]
    fn usability_window() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeKind::Host);
        let b = g.add_node("b", NodeKind::Host);
        let l = g.add_link(a, b, 1e10, 0.01);
        let mut r = Reservation {
            id: ReservationId(1),
            request: req(1e9, 0, 100),
            path: Path::new(&g, a, b, vec![l]),
            state: ReservationState::Scheduled,
            ready_at: None,
        };
        assert!(!r.usable_at(SimTime::from_secs(10)));
        r.state = ReservationState::Active;
        r.ready_at = Some(SimTime::from_secs(60));
        assert!(!r.usable_at(SimTime::from_secs(30)));
        assert!(r.usable_at(SimTime::from_secs(60)));
        assert!(r.usable_at(SimTime::from_secs(99)));
        assert!(!r.usable_at(SimTime::from_secs(100)));
    }
}

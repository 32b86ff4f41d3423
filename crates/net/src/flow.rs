//! Flow and resource identities for the fluid simulator.

use gvc_engine::SimTime;
use gvc_topology::LinkId;

/// Handle to an active (or completed) flow in a [`crate::NetworkSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Handle to a server-side capacity resource (NIC, disk array, CPU
/// aggregate) registered with a [`crate::NetworkSim`]. Resources are
/// capacity constraints exactly like links; they are what makes
/// concurrent transfers at one data-transfer node compete (§VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// A flow to inject into the simulator.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Network links traversed, in order.
    pub route: Vec<LinkId>,
    /// Server resources consumed at the endpoints.
    pub resources: Vec<ResourceId>,
    /// Payload to move, bytes.
    pub size_bytes: f64,
    /// Guaranteed minimum rate (virtual-circuit reservation), bps.
    pub min_rate_bps: f64,
    /// Maximum useful rate (TCP window cap, application limit), bps.
    pub max_rate_bps: f64,
    /// Caller-defined tag for correlating completions back to
    /// transfers/sessions.
    pub tag: u64,
}

impl FlowSpec {
    /// A best-effort flow with no guarantee and no cap.
    pub fn best_effort(route: Vec<LinkId>, size_bytes: f64) -> FlowSpec {
        FlowSpec {
            route,
            resources: Vec::new(),
            size_bytes,
            min_rate_bps: 0.0,
            max_rate_bps: f64::INFINITY,
            tag: 0,
        }
    }

    /// Sets the rate cap, returning `self` (builder style).
    pub fn with_cap(mut self, max_rate_bps: f64) -> FlowSpec {
        self.max_rate_bps = max_rate_bps;
        self
    }

    /// Sets a circuit guarantee, returning `self`.
    #[cfg(test)]
    pub(crate) fn with_guarantee(mut self, min_rate_bps: f64) -> FlowSpec {
        self.min_rate_bps = min_rate_bps;
        self
    }

    /// Adds endpoint resources, returning `self`.
    pub fn with_resources(mut self, resources: Vec<ResourceId>) -> FlowSpec {
        self.resources = resources;
        self
    }

    /// Sets the correlation tag, returning `self`.
    pub fn with_tag(mut self, tag: u64) -> FlowSpec {
        self.tag = tag;
        self
    }
}

/// Emitted when a flow finishes moving its payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCompletion {
    /// The finished flow.
    pub id: FlowId,
    /// Its caller-defined tag.
    pub tag: u64,
    /// Injection time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Bytes moved (the spec's `size_bytes`).
    pub bytes: f64,
    /// Highest instantaneous rate the flow held (bps) — peak-to-mean
    /// is the burstiness measure of the Lan & Heidemann taxonomy the
    /// paper cites in §III.
    pub peak_rate_bps: f64,
}

impl FlowCompletion {
    /// Elapsed transfer time in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Mean throughput in bits per second.
    pub fn throughput_bps(&self) -> f64 {
        let d = self.duration_s();
        if d <= 0.0 {
            0.0
        } else {
            self.bytes * 8.0 / d
        }
    }

    /// Peak-to-mean rate ratio (≥ 1 for any flow that ran; 0 for
    /// degenerate ones).
    pub fn burstiness(&self) -> f64 {
        let mean = self.throughput_bps();
        if mean <= 0.0 {
            0.0
        } else {
            self.peak_rate_bps / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let f = FlowSpec::best_effort(vec![], 100.0)
            .with_cap(5.0)
            .with_guarantee(1.0)
            .with_tag(7)
            .with_resources(vec![ResourceId(0)]);
        assert_eq!(f.max_rate_bps, 5.0);
        assert_eq!(f.min_rate_bps, 1.0);
        assert_eq!(f.tag, 7);
        assert_eq!(f.resources, vec![ResourceId(0)]);
    }

    #[test]
    fn completion_metrics() {
        let c = FlowCompletion {
            id: FlowId(1),
            tag: 0,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(18),
            bytes: 1e9,
            peak_rate_bps: 1.5e9,
        };
        assert!((c.duration_s() - 8.0).abs() < 1e-12);
        assert!((c.throughput_bps() - 1e9).abs() < 1.0);
        assert!((c.burstiness() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_completion_throughput_zero() {
        let c = FlowCompletion {
            id: FlowId(1),
            tag: 0,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(10),
            bytes: 1e9,
            peak_rate_bps: 1e9,
        };
        assert_eq!(c.throughput_bps(), 0.0);
        assert_eq!(c.burstiness(), 0.0);
    }
}

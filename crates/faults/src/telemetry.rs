//! Fault-injection and recovery telemetry, following the workspace
//! conventions in `docs/observability.md`: every injected fault and
//! every recovery decision is counted in the registry and traced as a
//! `fault.*` / `recovery.*` event.

use crate::plan::FaultKind;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{Counter, Histogram, Telemetry, TimelineHandle};
use std::sync::Arc;

/// Fault/recovery metrics, built from a run's [`Telemetry`] context
/// wherever the injector and recovery policy act. Reports never read
/// them back: they take the injector's and the caller's own counts.
pub struct FaultTelemetry {
    /// `fault_injected_total{kind=...}`, one counter per fault kind.
    injected: [Arc<Counter>; 5],
    /// `recovery_retries_total`: establishment attempts retried.
    pub retries: Arc<Counter>,
    /// `fallback_ip_total`: sessions that gave up on a circuit and
    /// ran over the routed IP path.
    pub fallback_ip: Arc<Counter>,
    /// `recovery_latency_seconds`: first attempt to final outcome
    /// (success or fallback), per session.
    pub recovery_latency: Arc<Histogram>,
    /// Flight recorder for the `fault.injected` windowed series. Each
    /// fault fires in exactly one shard lane, so the per-window sums
    /// are shard-invariant.
    timeline: Option<TimelineHandle>,
}

impl FaultTelemetry {
    /// Registers the fault metrics in `ctx`'s registry, windowing
    /// injections in its flight recorder. Callers trace the `fault.*`
    /// / `recovery.*` events through `ctx`'s tracer themselves.
    pub fn new(ctx: &Telemetry) -> FaultTelemetry {
        let registry = &ctx.registry;
        registry.describe("fault_injected_total", "Injected faults, by kind");
        registry.describe("recovery_retries_total", "Circuit establishment attempts retried");
        registry
            .describe("fallback_ip_total", "Sessions that gave up on a circuit and ran over IP");
        registry.describe(
            "recovery_latency_seconds",
            "First establishment attempt to final outcome, per session",
        );
        let counter =
            |kind: FaultKind| registry.counter("fault_injected_total", &[("kind", kind.as_str())]);
        FaultTelemetry {
            injected: FaultKind::ALL.map(counter),
            retries: registry.counter("recovery_retries_total", &[]),
            fallback_ip: registry.counter("fallback_ip_total", &[]),
            recovery_latency: registry.histogram(
                "recovery_latency_seconds",
                &[],
                Histogram::timing,
            ),
            timeline: ctx.timeline.clone(),
        }
    }

    /// Counts one injected fault of `kind` at sim time `t_us`, in its
    /// counter and in the `fault.injected` timeline window.
    pub fn count_injected(&self, kind: FaultKind, t_us: u64) {
        self.injected[kind as usize].inc();
        if let Some(tl) = &self.timeline {
            tl.add(series::FAULT_INJECTED, t_us, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_route_by_kind() {
        let ctx = Telemetry::metrics_only();
        let t = FaultTelemetry::new(&ctx);
        t.count_injected(FaultKind::SignallingFailure, 0);
        t.count_injected(FaultKind::SignallingFailure, 0);
        t.count_injected(FaultKind::Preemption, 0);
        let text = ctx.registry.render();
        assert!(text.contains("fault_injected_total{kind=\"signalling_failure\"} 2"));
        assert!(text.contains("fault_injected_total{kind=\"preemption\"} 1"));
        assert!(text.contains("fault_injected_total{kind=\"link_flap\"} 0"));
    }
}

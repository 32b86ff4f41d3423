//! Queueing-jitter proxy for the virtual-queue isolation ablation.
//!
//! The paper's third argument for circuits (§I): configuring packet
//! classifiers and schedulers to isolate α-flow packets into their own
//! virtual queues "will prevent packets of general-purpose flows from
//! getting stuck behind a large-sized burst of packets from an α flow.
//! The result is a reduction in delay variance (jitter) for the
//! general-purpose flows."
//!
//! We quantify that with an M/G/1-style delay model of one output
//! interface: the mean queueing wait is
//! `W = ρ·S·(1+CV²)/(2(1−ρ))` (Pollaczek–Khinchine with mean service
//! time `S`), and the burst contribution of α flows enters through an
//! effective service-burst size. With isolation, the general-purpose
//! queue sees only general-purpose load `ρ_gp` and MTU-sized bursts;
//! sharing the queue with α flows both raises the utilization to
//! `ρ_gp + ρ_α` and inflates the burst size to the α block size.

/// An output-interface jitter model.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Line rate, bps.
    pub line_rate_bps: f64,
    /// MTU for general-purpose packets, bytes.
    pub mtu_bytes: f64,
    /// Burst size of an α flow (a GridFTP block flushed back-to-back),
    /// bytes.
    pub alpha_burst_bytes: f64,
}

impl Default for JitterModel {
    fn default() -> JitterModel {
        JitterModel { line_rate_bps: 10e9, mtu_bytes: 1500.0, alpha_burst_bytes: 256.0 * 1024.0 }
    }
}

impl JitterModel {
    /// Transmission time of `bytes` at line rate, seconds.
    fn tx_time(&self, bytes: f64) -> f64 {
        bytes * 8.0 / self.line_rate_bps
    }

    /// Mean queueing wait (seconds) for general-purpose packets when
    /// sharing the queue with α traffic: utilization is the sum and
    /// the burst mix includes α blocks.
    ///
    /// # Panics
    /// Panics when total utilization ≥ 1 or either load is negative.
    pub fn shared_queue_wait_s(&self, gp_util: f64, alpha_util: f64) -> f64 {
        assert!(gp_util >= 0.0 && alpha_util >= 0.0, "loads must be non-negative");
        let rho = gp_util + alpha_util;
        assert!(rho < 1.0, "utilization must be < 1, got {rho}");
        if rho == 0.0 {
            return 0.0;
        }
        // Weighted second moment of the service (burst) size mix.
        let s_gp = self.tx_time(self.mtu_bytes);
        let s_a = self.tx_time(self.alpha_burst_bytes);
        let w_gp = gp_util / rho;
        let w_a = alpha_util / rho;
        let m1 = w_gp * s_gp + w_a * s_a;
        let m2 = w_gp * s_gp * s_gp + w_a * s_a * s_a;
        // Pollaczek–Khinchine: W = λ m2 / (2 (1 − ρ)), λ = ρ / m1.
        (rho / m1) * m2 / (2.0 * (1.0 - rho))
    }

    /// Mean queueing wait (seconds) for general-purpose packets when α
    /// flows are isolated into their own virtual queue: only `gp_util`
    /// and MTU bursts remain. (The α queue is serviced separately; a
    /// weighted scheduler guarantees the GP queue its share.)
    ///
    /// # Panics
    /// Panics when `gp_util` ≥ 1 or negative.
    pub fn isolated_queue_wait_s(&self, gp_util: f64) -> f64 {
        assert!((0.0..1.0).contains(&gp_util), "utilization must be in [0,1)");
        if gp_util == 0.0 {
            return 0.0;
        }
        let s = self.tx_time(self.mtu_bytes);
        (gp_util / s) * s * s / (2.0 * (1.0 - gp_util))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_zero_wait() {
        let m = JitterModel::default();
        assert_eq!(m.shared_queue_wait_s(0.0, 0.0), 0.0);
        assert_eq!(m.isolated_queue_wait_s(0.0), 0.0);
    }

    #[test]
    fn wait_grows_with_utilization() {
        let m = JitterModel::default();
        let w1 = m.isolated_queue_wait_s(0.2);
        let w2 = m.isolated_queue_wait_s(0.6);
        let w3 = m.isolated_queue_wait_s(0.9);
        assert!(w1 < w2 && w2 < w3);
    }

    #[test]
    fn alpha_bursts_inflate_gp_wait() {
        let m = JitterModel::default();
        let shared = m.shared_queue_wait_s(0.05, 0.40);
        let isolated = m.isolated_queue_wait_s(0.05);
        assert!(shared > 10.0 * isolated, "shared={shared} isolated={isolated}");
    }

    /// The jitter-reduction factor isolation buys, `shared /
    /// isolated`: the two columns the isolation ablation prints.
    fn isolation_gain(m: &JitterModel, gp_util: f64, alpha_util: f64) -> f64 {
        m.shared_queue_wait_s(gp_util, alpha_util) / m.isolated_queue_wait_s(gp_util)
    }

    #[test]
    fn gain_increases_with_alpha_load() {
        let m = JitterModel::default();
        let g1 = isolation_gain(&m, 0.05, 0.1);
        let g2 = isolation_gain(&m, 0.05, 0.4);
        assert!(g2 > g1);
        assert!(g1 > 1.0);
    }

    #[test]
    fn no_alpha_traffic_no_gain() {
        let m = JitterModel::default();
        let g = isolation_gain(&m, 0.3, 0.0);
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "utilization must be < 1")]
    fn overload_panics() {
        let m = JitterModel::default();
        m.shared_queue_wait_s(0.6, 0.6);
    }

    #[test]
    fn mm1_limit_matches_closed_form() {
        // With alpha burst == MTU the mix collapses to deterministic
        // service: W = rho * S / (2 (1 - rho)) (M/D/1).
        let m = JitterModel { alpha_burst_bytes: 1500.0, ..JitterModel::default() };
        let s = 1500.0 * 8.0 / 10e9;
        let rho: f64 = 0.5;
        let expected = rho * s / (2.0 * (1.0 - rho));
        assert!((m.shared_queue_wait_s(0.25, 0.25) - expected).abs() < 1e-15);
    }
}

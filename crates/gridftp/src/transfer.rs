//! One file movement: from job description to fluid flow and log
//! record.

use crate::server::ServerCluster;
use gvc_logs::{EndpointKind, TransferType};
use gvc_net::tcp::TcpModel;
use gvc_net::FlowSpec;
use gvc_stats::dist::{Distribution, TruncNormal};
use gvc_topology::{Graph, Path};
use rand::rngs::SmallRng;
use rand::Rng;

/// A single GridFTP file transfer to execute.
#[derive(Debug, Clone)]
pub struct TransferJob {
    /// Size of the file, bytes.
    pub size_bytes: u64,
    /// Parallel TCP streams.
    pub streams: u32,
    /// Stripes (servers per end).
    pub stripes: u32,
    /// Per-stream TCP buffer, bytes.
    pub tcp_buffer_bytes: u64,
    /// GridFTP block size, bytes.
    pub block_size_bytes: u64,
    /// Source endpoint kind.
    pub src_kind: EndpointKind,
    /// Destination endpoint kind.
    pub dst_kind: EndpointKind,
    /// Direction recorded in the *logging* server's log. The study's
    /// logs come from one side; `Retr` means the logging server is the
    /// source.
    pub logged_as: TransferType,
}

impl Default for TransferJob {
    fn default() -> TransferJob {
        TransferJob {
            size_bytes: 1 << 30,
            streams: 8,
            stripes: 1,
            tcp_buffer_bytes: 4 << 20,
            block_size_bytes: 256 << 10,
            src_kind: EndpointKind::Disk,
            dst_kind: EndpointKind::Disk,
            logged_as: TransferType::Retr,
        }
    }
}

/// Per-transfer server-side rate noise: competition for CPU, memory
/// bus, file-system state and other unmodelled node resources. The
/// paper found the coefficient of variation *highest* for mem-to-mem
/// transfers (Table VI) — variance does not come from the disks alone.
#[derive(Debug, Clone, Copy)]
pub struct ServerNoise {
    /// Mean multiplicative factor (≤ 1; mean efficiency).
    pub mean: f64,
    /// Standard deviation of the factor.
    pub sd: f64,
}

impl Default for ServerNoise {
    fn default() -> ServerNoise {
        ServerNoise { mean: 0.82, sd: 0.22 }
    }
}

impl ServerNoise {
    /// Draws one transfer's efficiency factor in `(0.05, 1.0]`.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        TruncNormal::new(self.mean, self.sd, 0.05, 1.0).sample(rng)
    }
}

/// Mid-transfer failure and restart (§II: GridFTP offers "recovery
/// from failures during transfers" via restart markers). A failed
/// transfer reconnects and resumes from its last marker, so the
/// payload is not re-sent — but the stall and the re-sent tail show up
/// as extra duration in the usage log.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Per-transfer probability of a failure event.
    pub probability: f64,
    /// Reconnect/stall time, seconds (uniform in this range).
    pub min_recovery_s: f64,
    /// Upper bound of the reconnect/stall time.
    pub max_recovery_s: f64,
    /// Restart-marker interval, seconds of progress: on average half
    /// an interval of progress is re-sent.
    pub marker_interval_s: f64,
}

impl Default for FailureModel {
    fn default() -> FailureModel {
        FailureModel {
            probability: 0.003,
            min_recovery_s: 2.0,
            max_recovery_s: 30.0,
            marker_interval_s: 5.0,
        }
    }
}

impl FailureModel {
    /// Samples the extra duration one failure event costs (0 when the
    /// transfer does not fail).
    pub fn sample_penalty_s(&self, rng: &mut SmallRng) -> f64 {
        if rng.gen::<f64>() >= self.probability {
            return 0.0;
        }
        self.sample_forced_penalty_s(rng)
    }

    /// Samples the cost of a failure known to have happened (e.g. an
    /// injected server restart), skipping the probability gate.
    pub fn sample_forced_penalty_s(&self, rng: &mut SmallRng) -> f64 {
        let recovery = self.min_recovery_s
            + rng.gen::<f64>() * (self.max_recovery_s - self.min_recovery_s).max(0.0);
        // Progress since the last marker is re-sent: uniformly up to
        // one interval.
        let resend = rng.gen::<f64>() * self.marker_interval_s;
        recovery + resend
    }
}

/// Everything needed to turn a [`TransferJob`] into a [`FlowSpec`] and
/// later into a logged record.
pub struct PreparedTransfer {
    /// The flow to inject; its `max_rate_bps` is the steady-state cap
    /// the slow-start penalty was computed from.
    pub spec: FlowSpec,
    /// Extra logged time: slow-start ramp + control-channel overhead
    /// (+ failure recovery when the transfer fails mid-flight).
    pub overhead_s: f64,
    /// Whether this transfer drew a rare TCP loss event.
    pub lossy: bool,
    /// Whether this transfer failed and restarted mid-flight.
    pub failed: bool,
    /// The job (for the log record).
    pub job: TransferJob,
}

/// Prepares a job for execution between two clusters over `path`.
///
/// The flow's rate cap is the minimum of the TCP window cap, the two
/// clusters' per-transfer (stripe-scaled, endpoint-kind-aware) caps,
/// and the path line rate — scaled by a per-transfer server-noise
/// factor, and by the loss penalty if this transfer is one of the rare
/// ones to see a loss event.
///
/// The failure draw comes from `fail_rng`, a stream keyed per
/// transfer rather than shared across the run: whether *this*
/// transfer fails must not depend on how many draws other sessions
/// consumed first, or turning one session's shape changes another's
/// failure outcomes.
#[allow(
    clippy::too_many_arguments,
    reason = "each input is an independent per-transfer fact; a struct would only rename them"
)]
pub fn prepare_transfer(
    graph: &Graph,
    path: &Path,
    src: &ServerCluster,
    dst: &ServerCluster,
    job: TransferJob,
    tcp: &TcpModel,
    noise: ServerNoise,
    failures: FailureModel,
    control_overhead_s: f64,
    rng: &mut SmallRng,
    fail_rng: &mut SmallRng,
) -> PreparedTransfer {
    let rtt = path.rtt_s(graph).max(1e-4);
    let window_cap = tcp.window_cap_bps(job.streams, job.tcp_buffer_bytes as f64, rtt);
    let src_cap = src.per_transfer_cap_bps(job.stripes, job.src_kind == EndpointKind::Disk, true);
    let dst_cap = dst.per_transfer_cap_bps(job.stripes, job.dst_kind == EndpointKind::Disk, false);
    let line = path.bottleneck_bps(graph);

    let mut cap = window_cap.min(src_cap).min(dst_cap).min(line);
    cap *= noise.sample(rng);
    let lossy = rng.gen::<f64>() < tcp.loss_probability;
    if lossy {
        cap *= tcp.loss_penalty_factor(job.streams);
    }
    let cap = cap.max(1e3); // never fully stall
    let failure_penalty = failures.sample_penalty_s(fail_rng);

    let mut resources = vec![src.aggregate_resource(), dst.aggregate_resource()];
    if job.src_kind == EndpointKind::Disk {
        resources.push(src.disk_read_resource());
    }
    if job.dst_kind == EndpointKind::Disk {
        resources.push(dst.disk_write_resource());
    }

    let spec = FlowSpec::best_effort(path.links.clone(), job.size_bytes as f64)
        .with_cap(cap)
        .with_resources(resources);

    let ss = tcp.ramp_penalty_s(job.size_bytes as f64, cap, rtt, job.streams);
    PreparedTransfer {
        spec,
        overhead_s: ss + control_overhead_s + failure_penalty,
        lossy,
        failed: failure_penalty > 0.0,
        job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerCaps;
    use gvc_net::NetworkSim;
    use gvc_stats::rng::component_rng;
    use gvc_topology::{study_topology, Site};

    struct Fixture {
        sim: NetworkSim,
        path: Path,
        src: ServerCluster,
        dst: ServerCluster,
    }

    fn fixture() -> Fixture {
        let t = study_topology();
        let path = t.path(Site::Nersc, Site::Ornl);
        let (nersc, ornl) = (t.dtn(Site::Nersc), t.dtn(Site::Ornl));
        let mut sim = NetworkSim::new(t.graph, 0);
        let src =
            ServerCluster::register(&mut sim, "dtn.nersc.gov", nersc, ServerCaps::default(), 1);
        let dst = ServerCluster::register(&mut sim, "dtn.ornl.gov", ornl, ServerCaps::default(), 1);
        Fixture { sim, path, src, dst }
    }

    fn quiet_noise() -> ServerNoise {
        ServerNoise { mean: 1.0, sd: 0.0 }
    }

    fn no_failures() -> FailureModel {
        FailureModel { probability: 0.0, ..FailureModel::default() }
    }

    fn no_loss_tcp() -> TcpModel {
        TcpModel { loss_probability: 0.0, ..TcpModel::default() }
    }

    #[test]
    fn window_cap_binds_single_stream() {
        let f = fixture();
        let mut rng = component_rng(1, "t");
        let job = TransferJob {
            streams: 1,
            src_kind: EndpointKind::Memory,
            dst_kind: EndpointKind::Memory,
            ..TransferJob::default()
        };
        let p = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            job,
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng,
            &mut component_rng(1, "fail"),
        );
        let rtt = f.path.rtt_s(f.sim.graph());
        let expected = (4u64 << 20) as f64 * 8.0 / rtt;
        assert!((p.spec.max_rate_bps - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn eight_streams_hit_server_cap_instead() {
        let f = fixture();
        let mut rng = component_rng(1, "t");
        let job = TransferJob {
            streams: 8,
            src_kind: EndpointKind::Memory,
            dst_kind: EndpointKind::Memory,
            ..TransferJob::default()
        };
        let p = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            job,
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng,
            &mut component_rng(1, "fail"),
        );
        // 8 x 4 MiB over ~70 ms RTT far exceeds the 2.4 Gbps node cap.
        assert!((p.spec.max_rate_bps - 2.4e9).abs() < 1e3, "{}", p.spec.max_rate_bps);
    }

    #[test]
    fn disk_destination_caps_lower_than_memory() {
        let f = fixture();
        let mut rng1 = component_rng(1, "t");
        let mut rng2 = component_rng(1, "t");
        let mk = |dst_kind| TransferJob {
            streams: 8,
            src_kind: EndpointKind::Memory,
            dst_kind,
            ..TransferJob::default()
        };
        let mem = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            mk(EndpointKind::Memory),
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng1,
            &mut component_rng(1, "fail"),
        );
        let disk = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            mk(EndpointKind::Disk),
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng2,
            &mut component_rng(1, "fail"),
        );
        assert!(disk.spec.max_rate_bps < mem.spec.max_rate_bps);
        assert_eq!(disk.spec.resources.len(), 3); // agg x2 + disk write
        assert_eq!(mem.spec.resources.len(), 2);
    }

    #[test]
    fn stripes_scale_the_cap() {
        let t = study_topology();
        let path = t.path(Site::Ncar, Site::Nics);
        let (a, b) = (t.dtn(Site::Ncar), t.dtn(Site::Nics));
        let mut sim = NetworkSim::new(t.graph, 0);
        let src = ServerCluster::register(&mut sim, "frost", a, ServerCaps::default(), 3);
        let dst = ServerCluster::register(&mut sim, "nics", b, ServerCaps::default(), 3);
        let mk = |stripes| TransferJob {
            streams: 8,
            stripes,
            src_kind: EndpointKind::Disk,
            dst_kind: EndpointKind::Disk,
            ..TransferJob::default()
        };
        let mut rng1 = component_rng(1, "t");
        let mut rng2 = component_rng(1, "t");
        let one = prepare_transfer(
            sim.graph(),
            &path,
            &src,
            &dst,
            mk(1),
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng1,
            &mut component_rng(1, "fail"),
        );
        let three = prepare_transfer(
            sim.graph(),
            &path,
            &src,
            &dst,
            mk(3),
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng2,
            &mut component_rng(1, "fail"),
        );
        assert!(three.spec.max_rate_bps > 2.0 * one.spec.max_rate_bps);
    }

    #[test]
    fn overhead_includes_slow_start_and_control() {
        let f = fixture();
        let mut rng = component_rng(1, "t");
        let job = TransferJob {
            size_bytes: 50 << 20,
            streams: 1,
            src_kind: EndpointKind::Memory,
            dst_kind: EndpointKind::Memory,
            ..TransferJob::default()
        };
        let p = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            job,
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.5,
            &mut rng,
            &mut component_rng(1, "fail"),
        );
        assert!(p.overhead_s > 0.5, "control overhead present");
    }

    #[test]
    fn certain_failure_adds_recovery_overhead() {
        let f = fixture();
        let always = FailureModel {
            probability: 1.0,
            min_recovery_s: 5.0,
            max_recovery_s: 5.0,
            marker_interval_s: 0.0,
        };
        let mut rng1 = component_rng(2, "t");
        let mut rng2 = component_rng(2, "t");
        let job = TransferJob::default;
        let ok = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            job(),
            &no_loss_tcp(),
            quiet_noise(),
            no_failures(),
            0.0,
            &mut rng1,
            &mut component_rng(1, "fail"),
        );
        let failed = prepare_transfer(
            f.sim.graph(),
            &f.path,
            &f.src,
            &f.dst,
            job(),
            &no_loss_tcp(),
            quiet_noise(),
            always,
            0.0,
            &mut rng2,
            &mut component_rng(1, "fail"),
        );
        assert!(failed.failed);
        assert!(!ok.failed);
        assert!((failed.overhead_s - ok.overhead_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn failure_penalty_bounds() {
        let m = FailureModel {
            probability: 1.0,
            min_recovery_s: 2.0,
            max_recovery_s: 30.0,
            marker_interval_s: 5.0,
        };
        let mut rng = component_rng(3, "t");
        for _ in 0..200 {
            let p = m.sample_penalty_s(&mut rng);
            assert!((2.0..=35.0).contains(&p), "{p}");
        }
        let never = FailureModel { probability: 0.0, ..m };
        assert_eq!(never.sample_penalty_s(&mut rng), 0.0);
    }

    #[test]
    fn forced_penalty_skips_the_probability_gate() {
        // Probability zero, yet the forced variant (injected server
        // restart) still charges recovery + re-send time.
        let m = FailureModel {
            probability: 0.0,
            min_recovery_s: 4.0,
            max_recovery_s: 10.0,
            marker_interval_s: 5.0,
        };
        let mut rng = component_rng(4, "t");
        for _ in 0..100 {
            let p = m.sample_forced_penalty_s(&mut rng);
            assert!((4.0..=15.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let n = ServerNoise::default();
        let mut r1 = component_rng(9, "x");
        let mut r2 = component_rng(9, "x");
        let a: Vec<f64> = (0..10).map(|_| n.sample(&mut r1)).collect();
        let b: Vec<f64> = (0..10).map(|_| n.sample(&mut r2)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.05..=1.0).contains(&v)));
    }
}

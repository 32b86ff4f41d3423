//! Driving the OSCARS-style IDC directly: advance reservations,
//! admission control, path selection, blocking, and the two
//! setup-delay models of Table IV.
//!
//! ```text
//! cargo run --release --example circuit_scheduler
//! ```

use gridftp_vc::oscars::{BlockReason, Idc, ReservationRequest, SetupDelayModel};
use gridftp_vc::prelude::{SimTime, Site};
use gridftp_vc::topology::study_topology;

fn main() {
    let topo = study_topology();
    let mut idc = Idc::new(topo.graph.clone(), SetupDelayModel::esnet_deployed());

    let hour = |h: u64| SimTime::from_secs(h * 3600);
    let req = |src, dst, gbps: f64, from: u64, to: u64| ReservationRequest {
        src: topo.dtn(src),
        dst: topo.dtn(dst),
        rate_bps: gbps * 1e9,
        start: hour(from),
        end: hour(to),
    };

    // A morning of createReservation traffic.
    let requests = [
        ("NERSC->ORNL 4G, 9-11h", req(Site::Nersc, Site::Ornl, 4.0, 9, 11)),
        ("SLAC->BNL   6G, 9-12h", req(Site::Slac, Site::Bnl, 6.0, 9, 12)),
        ("NERSC->ORNL 4G, 9-10h", req(Site::Nersc, Site::Ornl, 4.0, 9, 10)),
        ("NERSC->ORNL 4G, 9-10h (third)", req(Site::Nersc, Site::Ornl, 4.0, 9, 10)),
        ("NCAR->NICS  8G, 10-14h", req(Site::Ncar, Site::Nics, 8.0, 10, 14)),
        ("NERSC->ANL  9G, 11-12h", req(Site::Nersc, Site::Anl, 9.0, 11, 12)),
    ];

    let mut admitted = Vec::new();
    for (label, r) in requests {
        match idc.create_reservation(r) {
            Ok(id) => {
                let res = idc.reservation(id).expect("admitted");
                println!("ADMIT {label:<32} path: {}", res.path.describe(&topo.graph));
                admitted.push(id);
            }
            Err(BlockReason::NoFeasiblePath) => {
                println!("BLOCK {label:<32} (no path with spare bandwidth)");
            }
            Err(BlockReason::InvalidRequest(e)) => {
                println!("REJECT {label:<32} ({e})");
            }
        }
    }

    let stats = idc.stats();
    println!(
        "\n{} requests, {} admitted, blocking probability {:.2}",
        stats.requests,
        stats.admitted,
        stats.blocking_probability()
    );

    // Provision the first circuit for immediate use at t = 9h sharp
    // and show the deployed batched-setup latency, then compare
    // against hardware signalling.
    if let Some(&id) = admitted.first() {
        let asked_at = hour(9);
        let ready = idc.provision(id, asked_at).expect("admitted reservation provisions");
        println!(
            "\nbatched IDC: asked {:.0}s -> usable at {:.0}s (setup delay {:.0}s)",
            asked_at.as_secs_f64(),
            ready.as_secs_f64(),
            (ready - asked_at).as_secs_f64()
        );
    }
    let hw = SetupDelayModel::hardware();
    println!(
        "hardware signalling would be ready {:.3}s after the request",
        (hw.ready_at(hour(9)) - hour(9)).as_secs_f64()
    );

    // How much bandwidth is still reservable NERSC->ORNL at 9h?
    // Nothing was torn down, so the calendar still knows every hour.
    let probe = idc
        .probe_available_bps(req(Site::Nersc, Site::Ornl, 0.1, 9, 10))
        .expect("no teardown has moved the calendar watermark");
    println!("\nspare reservable NERSC->ORNL over 9-10h: {:.1} Gbps", probe / 1e9);
}

//! The central usage-statistics collector.
//!
//! §II: "GridFTP servers send usage statistics in UDP packets at the
//! end of each transfer to a server maintained by the Globus
//! organization. Administrators of GridFTP servers have the option to
//! disable this feature." The centrally collected dataset is therefore
//! a *lossy, partial* view of the local logs: UDP packets drop, and
//! whole sites opt out. The paper's authors used both channels ("We
//! used both methods for this data procurement"), so the analysis
//! layer must tolerate missing records — this module models the damage
//! and lets the robustness of each analysis be measured against it.

use crate::Dataset;
use gvc_stats::rng::component_rng;
use rand::Rng;
use std::collections::HashSet;

/// Collection impairments between local logs and the central dataset.
#[derive(Debug, Clone)]
pub struct CollectorModel {
    /// Probability an individual usage packet is lost in transit.
    pub udp_loss: f64,
    /// Servers whose administrators disabled reporting entirely.
    pub disabled_servers: HashSet<String>,
}

impl Default for CollectorModel {
    fn default() -> CollectorModel {
        CollectorModel {
            // WAN UDP loss to a single central listener; a few percent
            // under load.
            udp_loss: 0.02,
            disabled_servers: HashSet::new(),
        }
    }
}

impl CollectorModel {
    /// Which local records reach the central collector, one flag per
    /// record of `local`: records from disabled servers never do, the
    /// rest survive independently with probability `1 − udp_loss`.
    /// Deterministic in `seed`; a disabled server's records draw
    /// nothing from the stream.
    pub fn keep_mask(&self, local: &Dataset, seed: u64) -> Vec<bool> {
        assert!((0.0..=1.0).contains(&self.udp_loss), "udp_loss must be a probability");
        let mut rng = component_rng(seed, "usage-collector");
        local
            .records()
            .iter()
            .map(|r| {
                !self.disabled_servers.contains(&*r.server) && rng.gen::<f64>() >= self.udp_loss
            })
            .collect()
    }

    /// Produces the central collector's view of a set of local logs:
    /// the records [`CollectorModel::keep_mask`] keeps, in order.
    pub fn collect(&self, local: &Dataset, seed: u64) -> Dataset {
        let keep = self.keep_mask(local, seed);
        local.records().iter().zip(keep).filter(|&(_, k)| k).map(|(r, _)| r.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TransferRecord, TransferType};
    use proptest::prelude::*;

    fn dataset(n: usize, server: &str) -> Dataset {
        Dataset::from_records(
            (0..n)
                .map(|i| {
                    TransferRecord::simple(
                        TransferType::Retr,
                        1_000_000_000,
                        i as i64 * 5_000_000,
                        4_000_000,
                        server,
                        Some("peer"),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn lossless_collection_is_identity() {
        let ds = dataset(50, "srv");
        let m = CollectorModel { udp_loss: 0.0, disabled_servers: HashSet::new() };
        assert_eq!(m.collect(&ds, 1), ds);
    }

    #[test]
    fn udp_loss_drops_roughly_the_expected_fraction() {
        let ds = dataset(2_000, "srv");
        let m = CollectorModel { udp_loss: 0.10, disabled_servers: HashSet::new() };
        let central = m.collect(&ds, 7);
        let frac = central.len() as f64 / ds.len() as f64;
        assert!((frac - 0.90).abs() < 0.03, "survived {frac}");
    }

    #[test]
    fn disabled_server_vanishes() {
        let mut ds = dataset(30, "reports");
        ds.extend(dataset(30, "optout"));
        let m = CollectorModel {
            disabled_servers: HashSet::from(["optout".to_owned()]),
            ..CollectorModel::default()
        };
        let central = m.collect(&ds, 3);
        assert!(central.records().iter().all(|r| &*r.server == "reports"));
        assert!(central.len() <= 30);
    }

    #[test]
    fn collection_is_deterministic_in_seed() {
        let ds = dataset(500, "srv");
        let m = CollectorModel { udp_loss: 0.2, disabled_servers: HashSet::new() };
        assert_eq!(m.collect(&ds, 9), m.collect(&ds, 9));
        assert_ne!(m.collect(&ds, 9), m.collect(&ds, 10));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_panics() {
        let m = CollectorModel { udp_loss: 1.5, disabled_servers: HashSet::new() };
        m.collect(&Dataset::new(), 0);
    }

    /// The collector as one filter pass, drawing once per record of a
    /// reporting server: the stream `keep_mask` must reproduce.
    fn reference_collect(m: &CollectorModel, local: &Dataset, seed: u64) -> Dataset {
        let mut rng = component_rng(seed, "usage-collector");
        local
            .records()
            .iter()
            .filter(|r| !m.disabled_servers.contains(&*r.server) && rng.gen::<f64>() >= m.udp_loss)
            .cloned()
            .collect()
    }

    proptest! {
        /// `collect` is exactly the records its keep-mask flags, in
        /// order, and both follow the one-draw-per-reporting-record
        /// stream, over several server pairs, degenerate records and
        /// opted-out servers.
        #[test]
        fn prop_collect_is_the_keep_mask_filter(
            recs in proptest::collection::vec(
                (0i64..10_000_000_000, 0i64..60_000_000, 0u8..3, 0u8..3),
                0..80,
            ),
            disabled in proptest::collection::vec(any::<bool>(), 3),
            udp_loss in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let servers = ["s0", "s1", "s2"];
            let remotes = [Some("r0"), Some("r1"), None];
            let local = Dataset::from_records(
                recs.iter()
                    .map(|&(start, dur, srv, rem)| {
                        TransferRecord::simple(
                            TransferType::Retr,
                            1_000_000,
                            start,
                            dur,
                            servers[srv as usize],
                            remotes[rem as usize],
                        )
                    })
                    .collect(),
            );
            let m = CollectorModel {
                udp_loss,
                disabled_servers: servers
                    .iter()
                    .zip(&disabled)
                    .filter(|&(_, &d)| d)
                    .map(|(s, _)| (*s).to_owned())
                    .collect(),
            };
            let keep = m.keep_mask(&local, seed);
            prop_assert_eq!(keep.len(), local.len());
            let filtered: Dataset = local
                .records()
                .iter()
                .zip(&keep)
                .filter(|&(_, &k)| k)
                .map(|(r, _)| r.clone())
                .collect();
            let central = m.collect(&local, seed);
            prop_assert_eq!(&central, &filtered);
            prop_assert_eq!(&central, &reference_collect(&m, &local, seed));
            for (r, &k) in local.records().iter().zip(&keep) {
                prop_assert!(!(k && m.disabled_servers.contains(&*r.server)));
            }
        }
    }
}

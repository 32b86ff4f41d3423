//! SNMP recorder: per-interface byte counters fed by the fluid
//! simulator.
//!
//! Only *monitored* links record counters (the paper had SNMP for 5 of
//! the 7 routers on the NERSC–ORNL path); everything crossing a
//! monitored link — GridFTP flows and background cross-traffic alike —
//! deposits bytes into its 30-second bins, which is what makes the
//! Table XI "total bytes" correlations meaningful.

use gvc_logs::SnmpSeries;
use gvc_topology::LinkId;
use std::collections::BTreeMap;

/// Byte counters for a set of monitored interfaces.
#[derive(Debug, Clone, Default)]
pub struct SnmpRecorder {
    /// Ordered, and a handful of entries: a lookup is a few integer
    /// compares on the per-flow deposit path, with no hashing.
    series: BTreeMap<LinkId, SnmpSeries>,
}

impl SnmpRecorder {
    /// No interfaces monitored.
    pub fn new() -> SnmpRecorder {
        SnmpRecorder::default()
    }

    /// Starts monitoring `link` with 30-second bins from `origin_us`
    /// (unix microseconds). Re-registering an interface resets it.
    pub fn monitor(&mut self, link: LinkId, name: &str, origin_us: i64) {
        self.series.insert(link, SnmpSeries::thirty_second(name, origin_us));
    }

    /// Starts monitoring with a custom bin width.
    pub fn monitor_with_width(&mut self, link: LinkId, name: &str, origin_us: i64, width_us: i64) {
        self.series.insert(link, SnmpSeries::new(name, origin_us, width_us));
    }

    /// True when `link` is monitored.
    pub fn is_monitored(&self, link: LinkId) -> bool {
        self.series.contains_key(&link)
    }

    /// Deposits `bytes` spread over `[start_us, end_us)` unix
    /// microseconds onto `link`. Returns the bytes actually recorded
    /// (0 when the link is unmonitored).
    pub fn deposit(&mut self, link: LinkId, start_us: i64, end_us: i64, bytes: u64) -> u64 {
        if let Some(s) = self.series.get_mut(&link) {
            s.add_interval(start_us, end_us, bytes);
            bytes
        } else {
            0
        }
    }

    /// The recorded series for `link`.
    pub fn series(&self, link: LinkId) -> Option<&SnmpSeries> {
        self.series.get(&link)
    }

    /// All monitored links in deterministic (id) order.
    pub fn monitored_links(&self) -> Vec<LinkId> {
        self.series.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmonitored_deposits_dropped() {
        let mut r = SnmpRecorder::new();
        r.deposit(LinkId(0), 0, 10, 100);
        assert!(r.series(LinkId(0)).is_none());
        assert!(!r.is_monitored(LinkId(0)));
    }

    #[test]
    fn monitored_deposits_recorded() {
        let mut r = SnmpRecorder::new();
        r.monitor(LinkId(3), "sunn->denv", 0);
        r.deposit(LinkId(3), 0, 60_000_000, 600);
        let s = r.series(LinkId(3)).unwrap();
        assert_eq!(s.total_bytes(), 600);
        assert_eq!(s.bytes_in_bin(0), 300);
        assert_eq!(s.bytes_in_bin(1), 300);
    }

    #[test]
    fn monitored_links_sorted() {
        let mut r = SnmpRecorder::new();
        r.monitor(LinkId(9), "b", 0);
        r.monitor(LinkId(2), "a", 0);
        assert_eq!(r.monitored_links(), vec![LinkId(2), LinkId(9)]);
    }
}

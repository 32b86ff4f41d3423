//! Advance-reservation bandwidth calendars.
//!
//! A link's calendar is the set of bandwidth commitments over time.
//! Admission of a new reservation `[start, end) @ rate` requires that
//! the *peak* committed bandwidth over the window plus `rate` stays
//! within the link's reservable capacity. "Such advance-reservation
//! service is required when the requested circuit rate is a significant
//! portion of link capacity if the network is to be operated at high
//! utilization and with low call blocking probability" (§II).
//!
//! **The watermark contract.** A release takes a *watermark*: an
//! instant before which no later query or commitment may start. The
//! IDC passes the latest time at which it tore a reservation down, and
//! simulated time only moves forward. Besides releasing its owner's
//! windows, a release forgets every commitment on the link that ends at
//! or before the watermark, so a calendar holds only the commitments a
//! future window can still overlap: O(live reservations), not
//! O(history). Forgetting them changes no answer: a query over
//! `[start, end)` with `start >= watermark` already skips every
//! commitment with `end <= start`, and `retain` keeps the survivors in
//! their order, so the stable sort in [`LinkCalendar::peak_committed_bps`]
//! sums the same events in the same order, bit for bit.

use gvc_engine::SimTime;
use gvc_topology::LinkId;
use std::collections::HashMap;

/// One committed window on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Commitment {
    start: SimTime,
    end: SimTime,
    rate_bps: f64,
    /// Owner token so commitments can be released individually.
    owner: u64,
}

/// Bandwidth commitments on a single link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkCalendar {
    commitments: Vec<Commitment>,
}

impl LinkCalendar {
    /// An empty calendar.
    pub fn new() -> LinkCalendar {
        LinkCalendar::default()
    }

    /// Peak committed bandwidth over `[start, end)`.
    ///
    /// Event sweep: each overlapping commitment contributes a `+rate`
    /// event where it enters the window and a `−rate` event where it
    /// leaves (commitment ends are exclusive, so an end inside the
    /// window stops counting exactly there). One sort plus a
    /// running-sum scan — O(n log n), where the old
    /// breakpoint-times-rescan formulation was O(n²) on the calendars
    /// an admission-heavy simulation builds up.
    pub fn peak_committed_bps(&self, start: SimTime, end: SimTime) -> f64 {
        let mut events: Vec<(SimTime, f64)> = Vec::with_capacity(self.commitments.len() * 2);
        for c in &self.commitments {
            if c.start >= end || c.end <= start {
                continue;
            }
            events.push((c.start.max(start), c.rate_bps));
            if c.end < end {
                events.push((c.end, -c.rate_bps));
            }
        }
        events.sort_by_key(|e| e.0);
        let mut peak = 0.0f64;
        let mut current = 0.0f64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            // Apply every delta at this instant before sampling, so a
            // commitment ending at t never overlaps one starting at t.
            while i < events.len() && events[i].0 == t {
                current += events[i].1;
                i += 1;
            }
            peak = peak.max(current);
        }
        peak
    }

    /// Committed bandwidth at instant `t`.
    #[cfg(test)]
    fn committed_at(&self, t: SimTime) -> f64 {
        self.commitments.iter().filter(|c| c.start <= t && c.end > t).map(|c| c.rate_bps).sum()
    }

    /// Records a commitment.
    pub fn commit(&mut self, owner: u64, start: SimTime, end: SimTime, rate_bps: f64) {
        assert!(end > start, "commitment window must be non-empty");
        assert!(rate_bps > 0.0, "commitment rate must be positive");
        self.commitments.push(Commitment { start, end, rate_bps, owner });
    }

    /// Releases all commitments of `owner` from `watermark` onward and
    /// forgets every commitment that ends at or before `watermark`
    /// (see the module doc). Windows entirely in the future disappear;
    /// the active one is truncated at `watermark`, so it ends there
    /// and is forgotten too. Returns the number of `owner`'s
    /// commitments that were future or active.
    pub fn release(&mut self, owner: u64, watermark: SimTime) -> usize {
        let mut touched = 0;
        self.commitments.retain(|c| {
            if c.end <= watermark {
                return false;
            }
            if c.owner == owner {
                touched += 1;
                return false;
            }
            true
        });
        touched
    }

    /// Number of commitments on record.
    pub fn len(&self) -> usize {
        self.commitments.len()
    }

    /// True when no commitments.
    pub fn is_empty(&self) -> bool {
        self.commitments.is_empty()
    }
}

/// Calendars for every link in a topology.
#[derive(Debug, Clone, Default)]
pub struct NetworkCalendar {
    links: HashMap<LinkId, LinkCalendar>,
}

impl NetworkCalendar {
    /// An empty network calendar.
    pub fn new() -> NetworkCalendar {
        NetworkCalendar::default()
    }

    /// The calendar of `link` (created on first touch).
    pub fn link_mut(&mut self, link: LinkId) -> &mut LinkCalendar {
        self.links.entry(link).or_default()
    }

    /// Read-only access; `None` when never touched.
    pub fn link(&self, link: LinkId) -> Option<&LinkCalendar> {
        self.links.get(&link)
    }

    /// Spare reservable bandwidth on `link` over `[start, end)` given
    /// its reservable `capacity_bps`.
    pub fn available_bps(
        &self,
        link: LinkId,
        capacity_bps: f64,
        start: SimTime,
        end: SimTime,
    ) -> f64 {
        let committed = self.links.get(&link).map_or(0.0, |c| c.peak_committed_bps(start, end));
        (capacity_bps - committed).max(0.0)
    }

    /// Commits `rate` on every link of `path_links`.
    pub fn commit_path(
        &mut self,
        owner: u64,
        path_links: &[LinkId],
        start: SimTime,
        end: SimTime,
        rate_bps: f64,
    ) {
        for &l in path_links {
            self.link_mut(l).commit(owner, start, end, rate_bps);
        }
    }

    /// Releases `owner`'s commitments on the given links from
    /// `watermark`, forgetting what ended by then on those links
    /// ([`LinkCalendar::release`]).
    pub fn release_path(&mut self, owner: u64, path_links: &[LinkId], watermark: SimTime) {
        for &l in path_links {
            self.link_mut(l).release(owner, watermark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_calendar_has_zero_commitment() {
        let c = LinkCalendar::new();
        assert_eq!(c.peak_committed_bps(t(0), t(100)), 0.0);
        assert_eq!(c.committed_at(t(50)), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn overlapping_windows_sum() {
        let mut c = LinkCalendar::new();
        c.commit(1, t(0), t(100), 2e9);
        c.commit(2, t(50), t(150), 3e9);
        assert_eq!(c.committed_at(t(25)), 2e9);
        assert_eq!(c.committed_at(t(75)), 5e9);
        assert_eq!(c.committed_at(t(120)), 3e9);
        assert_eq!(c.peak_committed_bps(t(0), t(150)), 5e9);
        assert_eq!(c.peak_committed_bps(t(0), t(50)), 2e9);
        // Window ending exactly at an overlap start excludes it.
        assert_eq!(c.peak_committed_bps(t(100), t(150)), 3e9);
    }

    #[test]
    fn peak_sees_commitment_starting_inside_window() {
        let mut c = LinkCalendar::new();
        c.commit(1, t(60), t(80), 4e9);
        assert_eq!(c.peak_committed_bps(t(0), t(100)), 4e9);
        assert_eq!(c.peak_committed_bps(t(0), t(60)), 0.0);
    }

    #[test]
    fn release_future_and_truncate_active() {
        let mut c = LinkCalendar::new();
        c.commit(7, t(0), t(100), 1e9);
        c.commit(7, t(200), t(300), 1e9);
        c.commit(9, t(0), t(300), 2e9);
        let n = c.release(7, t(50));
        assert_eq!(n, 2);
        assert_eq!(c.committed_at(t(75)), 2e9); // truncated at 50
        assert_eq!(c.committed_at(t(50)), 2e9); // other owners intact
        assert_eq!(c.committed_at(t(250)), 2e9); // future dropped
        assert_eq!(c.len(), 1, "the truncated window ended at the watermark");
    }

    #[test]
    fn release_forgets_every_window_ended_by_the_watermark() {
        let mut c = LinkCalendar::new();
        c.commit(1, t(0), t(40), 1e9); // ended before the watermark
        c.commit(2, t(0), t(50), 1e9); // ends exactly at it
        c.commit(3, t(0), t(100), 2e9); // still open
        c.commit(4, t(10), t(60), 4e9); // released below
        assert_eq!(c.release(4, t(50)), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.committed_at(t(50)), 2e9);
        assert_eq!(c.peak_committed_bps(t(50), t(200)), 2e9);
    }

    #[test]
    fn commitment_ending_at_window_start_excluded() {
        // Ends are exclusive: a commitment whose window closes exactly
        // where the query window opens contributes nothing.
        let mut c = LinkCalendar::new();
        c.commit(1, t(0), t(50), 6e9);
        assert_eq!(c.peak_committed_bps(t(50), t(100)), 0.0);
        assert_eq!(c.committed_at(t(50)), 0.0);
        // …and one starting exactly at the window start is counted.
        c.commit(2, t(50), t(60), 1e9);
        assert_eq!(c.peak_committed_bps(t(50), t(100)), 1e9);
    }

    #[test]
    fn back_to_back_windows_never_double_count() {
        // owner 1 hands off to owner 2 at t=50; the instant of the
        // handoff must see one rate, not both.
        let mut c = LinkCalendar::new();
        c.commit(1, t(0), t(50), 6e9);
        c.commit(2, t(50), t(100), 6e9);
        assert_eq!(c.peak_committed_bps(t(0), t(100)), 6e9);
    }

    #[test]
    fn release_at_commitment_start_drops_it_entirely() {
        // `release(at)` with `at` equal to a window's start must treat
        // it as future (drop), not truncate it to an empty window.
        let mut c = LinkCalendar::new();
        c.commit(3, t(100), t(200), 2e9);
        assert_eq!(c.release(3, t(100)), 1);
        assert!(c.is_empty());
        assert_eq!(c.peak_committed_bps(t(100), t(300)), 0.0);
    }

    #[test]
    fn release_truncation_keeps_half_open_semantics() {
        let mut c = LinkCalendar::new();
        c.commit(4, t(0), t(100), 5e9);
        c.release(4, t(40));
        assert_eq!(c.committed_at(t(40)), 0.0, "truncated end is exclusive");
        assert_eq!(c.peak_committed_bps(t(40), t(100)), 0.0);
        // A window starting at the watermark sees the freed capacity.
        c.commit(5, t(40), t(100), 5e9);
        assert_eq!(c.peak_committed_bps(t(40), t(100)), 5e9);
    }

    #[test]
    fn peak_of_many_staggered_windows() {
        // 100 unit-rate commitments, each [i, i+10): peak overlap 10.
        let mut c = LinkCalendar::new();
        for i in 0..100u64 {
            c.commit(i, t(i), t(i + 10), 1.0);
        }
        assert_eq!(c.peak_committed_bps(t(0), t(200)), 10.0);
        // A window clipped to the ramp-up sees fewer overlaps.
        assert_eq!(c.peak_committed_bps(t(0), t(5)), 5.0);
    }

    #[test]
    fn release_wrong_owner_is_noop() {
        let mut c = LinkCalendar::new();
        c.commit(1, t(0), t(10), 1e9);
        assert_eq!(c.release(2, t(0)), 0);
        assert_eq!(c.committed_at(t(5)), 1e9);
    }

    #[test]
    fn network_calendar_availability() {
        let mut nc = NetworkCalendar::new();
        let l = LinkId(3);
        assert_eq!(nc.available_bps(l, 10e9, t(0), t(10)), 10e9);
        nc.commit_path(1, &[l], t(0), t(10), 4e9);
        assert_eq!(nc.available_bps(l, 10e9, t(0), t(10)), 6e9);
        assert_eq!(nc.available_bps(l, 10e9, t(10), t(20)), 10e9);
        nc.release_path(1, &[l], t(0));
        assert_eq!(nc.available_bps(l, 10e9, t(0), t(10)), 10e9);
    }

    #[test]
    fn availability_clamps_at_zero() {
        let mut nc = NetworkCalendar::new();
        let l = LinkId(0);
        nc.commit_path(1, &[l], t(0), t(10), 12e9);
        assert_eq!(nc.available_bps(l, 10e9, t(0), t(10)), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_panics() {
        let mut c = LinkCalendar::new();
        c.commit(1, t(10), t(10), 1e9);
    }

    /// The release the calendar had before the watermark contract, kept
    /// as the oracle: it drops `owner`'s future windows, truncates the
    /// active one at `at` and forgets nothing.
    fn release_unpruned(cal: &mut LinkCalendar, owner: u64, at: SimTime) {
        cal.commitments.retain_mut(|c| {
            if c.owner != owner || c.end <= at {
                true
            } else if c.start >= at {
                false
            } else {
                c.end = at;
                true
            }
        });
    }

    proptest! {
        /// Forgetting what ended by the watermark changes no answer:
        /// after each release, every window starting at or after the
        /// watermark sees the same peak and the same availability, bit
        /// for bit, as on a calendar that forgets nothing. Ops are
        /// `(kind, owner, first link, offset s, length s, rate units)`;
        /// kind 0 and 1 commit on links `first..first + 2` from
        /// `watermark + offset`, kind 2 releases there after advancing
        /// the watermark by `offset / 4`.
        #[test]
        fn prop_pruned_calendar_matches_unpruned_oracle(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..6, 0usize..3, 0u64..400, 1u64..600, 1u32..40),
                1..80,
            ),
            queries in proptest::collection::vec((0u64..500, 1u64..700), 1..8),
        ) {
            let links = [LinkId(0), LinkId(1), LinkId(2), LinkId(3)];
            let mut pruned = NetworkCalendar::new();
            let mut oracle = NetworkCalendar::new();
            let mut watermark_s = 0u64;
            for &(kind, owner, first, offset, len, units) in &ops {
                let path = &links[first..first + 2];
                if kind < 2 {
                    let (start, end) = (t(watermark_s + offset), t(watermark_s + offset + len));
                    // Thirds of a gigabit, so sums round and their
                    // order shows in the low bits.
                    let rate = f64::from(units) * 1e9 / 3.0;
                    pruned.commit_path(owner, path, start, end, rate);
                    oracle.commit_path(owner, path, start, end, rate);
                    continue;
                }
                watermark_s += offset / 4;
                pruned.release_path(owner, path, t(watermark_s));
                for &l in path {
                    release_unpruned(oracle.link_mut(l), owner, t(watermark_s));
                }
                for &(qoff, qlen) in &queries {
                    let (start, end) = (t(watermark_s + qoff), t(watermark_s + qoff + qlen));
                    for &l in &links {
                        let peak = |nc: &NetworkCalendar| {
                            nc.link(l).map_or(0.0, |c| c.peak_committed_bps(start, end))
                        };
                        prop_assert_eq!(peak(&pruned).to_bits(), peak(&oracle).to_bits());
                        prop_assert_eq!(
                            pruned.available_bps(l, 10e9, start, end).to_bits(),
                            oracle.available_bps(l, 10e9, start, end).to_bits()
                        );
                        let at = |nc: &NetworkCalendar| {
                            nc.link(l).map_or(0.0, |c| c.committed_at(start))
                        };
                        prop_assert_eq!(at(&pruned).to_bits(), at(&oracle).to_bits());
                    }
                }
            }
        }
    }
}

//! The "Connected Neighbors" part of the Peer Table (§4.1, Figure 2),
//! with the Rate Controller's per-neighbour state (§3, Figure 1) as
//! columns of the same rows.
//!
//! `M` TCP-connected gossip partners; "the periodical data exchange is
//! only performed between connected neighbors. If a neighbor is found to
//! have failed or supplied little data to the local node, it will be
//! replaced by an overheard node which has the lowest latency."
//!
//! The Rate Controller "monitors and estimates the receiving rate from
//! each connected neighbor": the estimate is `R_ij` in the urgency
//! formula (eq. 1) and `R(j)` in Algorithm 1. It is probe-based
//! (AIMD-flavoured): it only updates on periods in which the node
//! actually *requested* from the neighbour — an idle neighbour keeps its
//! estimate, avoiding the decay-to-zero/never-ask-again spiral. When a
//! neighbour served everything asked of it, the estimate multiplicatively
//! probes upward (the neighbour may have head-room); when it
//! under-delivered, the estimate averages down toward the observed rate.
//! A row starts at the node's prior, so a neighbour that was never asked
//! and an id that is not connected read the same rate; disconnecting a
//! neighbour drops its estimate with its row.

use cs_dht::DhtId;

/// Multiplicative probe factor applied when a supplier fully served a
/// period's requests *and* the period actually exercised the current
/// estimate. Gentle: aggressive probing inflates every estimate to its
/// cap, which concentrates all pulls on one neighbour and collapses
/// goodput under contention.
const PROBE_UP: f64 = 1.15;

/// EWMA weight of the newest observation when a supplier under-delivered.
const DOWN_ALPHA: f64 = 0.5;

/// Hard ceiling on any estimate, segments/s (far above every bandwidth in
/// the paper's setup; guards the multiplicative probe).
const MAX_RATE: f64 = 500.0;

/// One connected neighbour (a row of Figure 2's first table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour's overlay identifier.
    pub id: DhtId,
    /// Estimated one-way latency, milliseconds.
    pub latency_ms: f64,
    /// Supply from this neighbour, Kbps (Figure 2's "recent supply
    /// rate" column): an EWMA stepped once per delivered segment
    /// (`0.5·s + 0.5·kbps`, see [`ConnectedNeighbors::record_delivery`])
    /// and never decayed. It is therefore a monotone function of the
    /// segments the neighbour has delivered since it was connected, not
    /// a rate over a recent window; it starts at 0.
    pub recent_supply_kbps: f64,
    /// Receiving-rate estimate, segments/s; the prior until the first
    /// period in which the neighbour was asked for anything.
    pub(crate) estimate: f64,
    /// Segments requested from the neighbour this period.
    pub(crate) asked: u32,
    /// Segments the neighbour delivered this period.
    pub(crate) got: u32,
}

/// The bounded connected-neighbour set of one node.
///
/// A node has at most `M` (≈ 5) neighbours, so the table is one flat
/// `Vec` with linear finds — no hashing on the round loop's hottest
/// read path ([`Self::rate`] is called once per candidate-supplier pair
/// per round).
#[derive(Debug, Clone)]
pub struct ConnectedNeighbors {
    entries: Vec<NeighborEntry>,
    capacity: usize,
    /// Estimate of a neighbour never asked, segments/s.
    prior: f64,
}

impl ConnectedNeighbors {
    /// An empty set with room for `m` neighbours, whose unprobed
    /// neighbours are estimated at `prior` segments/s (a sensible
    /// default is the node's inbound capacity divided by `M`).
    pub fn new(m: usize, prior: f64) -> Self {
        assert!(m > 0, "a streaming node needs at least one neighbour");
        assert!(prior > 0.0, "rate prior must be positive");
        ConnectedNeighbors {
            entries: Vec::with_capacity(m),
            capacity: m,
            prior,
        }
    }

    /// The configured capacity `M`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of neighbours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbours are connected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the set is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The neighbour entries, in insertion order.
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Neighbour IDs, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = DhtId> + '_ {
        self.entries.iter().map(|e| e.id)
    }

    /// Whether `id` is a connected neighbour.
    pub fn contains(&self, id: DhtId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// A row for a neighbour that has supplied nothing and was never
    /// asked.
    fn fresh(&self, id: DhtId, latency_ms: f64) -> NeighborEntry {
        NeighborEntry {
            id,
            latency_ms,
            recent_supply_kbps: 0.0,
            estimate: self.prior,
            asked: 0,
            got: 0,
        }
    }

    /// Connect a new neighbour at `latency_ms`. Returns `false` (and does
    /// nothing) if the set is full or the id is already present.
    pub fn add(&mut self, id: DhtId, latency_ms: f64) -> bool {
        if self.is_full() || self.contains(id) {
            return false;
        }
        self.entries.push(self.fresh(id, latency_ms));
        true
    }

    /// Disconnect a neighbour. Returns `true` if it was present.
    pub fn remove(&mut self, id: DhtId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }

    /// Replace neighbour `old` with `id` at `latency_ms`. Returns `false`
    /// if `old` is absent or `id` already connected.
    pub fn replace(&mut self, old: DhtId, id: DhtId, latency_ms: f64) -> bool {
        if self.contains(id) || !self.contains(old) {
            return false;
        }
        self.remove(old);
        self.entries.push(self.fresh(id, latency_ms));
        true
    }

    /// Record one segment requested from `id` during this period. A no-op
    /// for an id that is not connected.
    pub fn record_request(&mut self, id: DhtId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.asked += 1;
        }
    }

    /// Record one segment of `kbps` delivered by `id` during this period:
    /// the period's delivery count and one step of the supply EWMA. A
    /// no-op for an id that is not connected.
    pub fn record_delivery(&mut self, id: DhtId, kbps: f64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.got += 1;
            e.recent_supply_kbps = 0.5 * e.recent_supply_kbps + 0.5 * kbps;
        }
    }

    /// Close the current period of `period_secs` seconds. Only neighbours
    /// that were *requested from* this period have their estimates
    /// updated: fully-served requests probe the estimate upward,
    /// under-served ones pull it down toward the observed rate.
    pub fn end_period(&mut self, period_secs: f64) {
        assert!(period_secs > 0.0);
        for row in &mut self.entries {
            if row.asked > 0 {
                let observed = row.got as f64 / period_secs;
                let current = row.estimate;
                let next = if row.got >= row.asked {
                    if observed >= 0.5 * current {
                        // The estimate was genuinely exercised: probe upward.
                        (current.max(observed) * PROBE_UP).min(MAX_RATE)
                    } else {
                        // Served in full, but we barely asked: no evidence
                        // either way — hold the estimate.
                        current
                    }
                } else {
                    (1.0 - DOWN_ALPHA) * current + DOWN_ALPHA * observed
                };
                row.estimate = next.max(0.01);
            }
            row.asked = 0;
            row.got = 0;
        }
    }

    /// The estimated receiving rate from `id`, segments/s (`R_ij`); the
    /// prior for an id that is not connected.
    #[inline]
    pub fn rate(&self, id: DhtId) -> f64 {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map_or(self.prior, |e| e.estimate)
    }

    /// The weakest neighbour: lowest [`NeighborEntry::recent_supply_kbps`],
    /// ties broken by higher latency then id. Since that column only
    /// ever steps toward the segment rate on a delivery, this is the
    /// neighbour with the fewest deliveries since it was connected (the
    /// column saturates after ~50, where latency decides). `None` when
    /// empty.
    pub fn weakest(&self) -> Option<NeighborEntry> {
        self.entries.iter().copied().min_by(|a, b| {
            a.recent_supply_kbps
                .total_cmp(&b.recent_supply_kbps)
                .then(b.latency_ms.total_cmp(&a.latency_ms))
                .then(a.id.cmp(&b.id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of capacity `m` at prior 3 holding `(id, latency, supply)`.
    fn table(m: usize, rows: &[(DhtId, f64, f64)]) -> ConnectedNeighbors {
        let mut n = ConnectedNeighbors::new(m, 3.0);
        for &(id, latency, supply) in rows {
            assert!(n.add(id, latency));
            n.entries.last_mut().unwrap().recent_supply_kbps = supply;
        }
        n
    }

    /// One connected neighbour, id 1, at `prior`.
    fn one(prior: f64) -> ConnectedNeighbors {
        let mut n = ConnectedNeighbors::new(1, prior);
        n.add(1, 5.0);
        n
    }

    #[test]
    fn capacity_enforced() {
        let mut n = table(2, &[(1, 5.0, 0.0), (2, 5.0, 0.0)]);
        assert!(!n.add(3, 5.0), "full set rejects adds");
        assert!(n.is_full());
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn duplicates_rejected() {
        let mut n = table(3, &[(1, 5.0, 0.0)]);
        assert!(!n.add(1, 9.0));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut n = table(3, &[(1, 5.0, 0.0)]);
        assert!(n.contains(1));
        assert!(n.remove(1));
        assert!(!n.contains(1));
        assert!(!n.remove(1));
    }

    #[test]
    fn supply_rate_is_smoothed() {
        let mut n = table(2, &[(1, 5.0, 100.0)]);
        n.record_delivery(1, 0.0);
        let e = n.entries()[0];
        assert_eq!(e.recent_supply_kbps, 50.0, "EWMA with α = 0.5");
        assert_eq!(e.got, 1);
    }

    #[test]
    fn weakest_prefers_low_supply_then_high_latency() {
        let n = table(4, &[(1, 5.0, 100.0), (2, 50.0, 10.0), (3, 5.0, 10.0)]);
        // 2 and 3 tie on supply; 2 has higher latency → weakest.
        assert_eq!(n.weakest().unwrap().id, 2);
        assert!(ConnectedNeighbors::new(1, 3.0).weakest().is_none());
    }

    #[test]
    fn replace_swaps_atomically() {
        let mut n = table(2, &[(1, 5.0, 0.0), (2, 5.0, 0.0)]);
        assert!(n.replace(1, 3, 2.0));
        assert!(!n.contains(1));
        assert!(n.contains(3));
        assert_eq!(n.len(), 2);
        // Replacing an absent neighbour or with an existing id fails.
        assert!(!n.replace(1, 4, 2.0));
        assert!(!n.replace(2, 3, 2.0));
    }

    /// The failure-detection sweep as the round loop runs it: collect
    /// the dead ids, then remove each.
    #[test]
    fn dead_ids_swept_by_ids_then_remove() {
        let mut n = table(
            4,
            &[(1, 5.0, 0.0), (2, 5.0, 0.0), (3, 5.0, 0.0), (4, 5.0, 0.0)],
        );
        let dead: Vec<DhtId> = n.ids().filter(|id| id % 2 == 1).collect();
        assert_eq!(dead, vec![1, 3]);
        assert!(dead.iter().all(|&id| n.remove(id)));
        assert_eq!(n.ids().collect::<Vec<_>>(), vec![2, 4]);
    }

    /// A partner that leaves the table takes its estimate, counts and
    /// supply with it: re-added or `replace`d in, it starts again at the
    /// prior with zeroed counts. Recording against an id that is not
    /// connected changes nothing.
    #[test]
    fn a_returning_partner_starts_again_at_the_prior() {
        let mut n = table(2, &[(1, 5.0, 0.0), (2, 5.0, 0.0)]);
        // A served period (the estimate probes up), then a period left
        // open with counts and supply in the row.
        let probe = |n: &mut ConnectedNeighbors, id| {
            for _ in 0..4 {
                n.record_request(id);
                n.record_delivery(id, 30.0);
            }
            n.end_period(1.0);
            n.record_request(id);
            n.record_delivery(id, 30.0);
        };
        probe(&mut n, 1);
        assert!(n.rate(1) > 3.0);
        assert!(n.remove(1));
        assert_eq!(n.rate(1), 3.0, "an id not connected reads the prior");
        assert!(n.add(1, 7.0));
        let fresh = NeighborEntry {
            id: 1,
            latency_ms: 7.0,
            recent_supply_kbps: 0.0,
            estimate: 3.0,
            asked: 0,
            got: 0,
        };
        assert_eq!(
            n.entries()[1],
            fresh,
            "re-added at the prior, counts zeroed"
        );

        // Replaced out with state, then `replace`d back in.
        probe(&mut n, 1);
        assert!(n.replace(1, 9, 4.0));
        assert_eq!(n.rate(1), 3.0);
        assert!(n.replace(2, 1, 7.0));
        assert_eq!(n.ids().collect::<Vec<_>>(), vec![9, 1]);
        assert_eq!(n.entries()[1], fresh, "replaced in at the prior");

        // 2 left above; recording against it touches no row.
        let before = n.entries().to_vec();
        n.record_request(2);
        n.record_delivery(2, 30.0);
        n.end_period(1.0);
        assert_eq!(
            n.entries(),
            &before[..],
            "record_* on a stranger is a no-op"
        );
        assert_eq!(n.rate(2), 3.0);
    }

    #[test]
    fn unseen_neighbor_gets_prior() {
        let n = ConnectedNeighbors::new(1, 3.0);
        assert_eq!(n.rate(42), 3.0);
        assert_eq!(one(3.0).rate(1), 3.0, "connected but never asked");
    }

    #[test]
    fn idle_neighbors_keep_their_estimate() {
        let mut n = one(3.0);
        // Probe once: ask 2, get 2 → estimate rises.
        n.record_request(1);
        n.record_request(1);
        n.record_delivery(1, 30.0);
        n.record_delivery(1, 30.0);
        n.end_period(1.0);
        let after_probe = n.rate(1);
        assert!(after_probe > 3.0);
        // Ten idle periods: no decay.
        for _ in 0..10 {
            n.end_period(1.0);
        }
        assert_eq!(n.rate(1), after_probe);
    }

    #[test]
    fn fully_served_probes_upward() {
        let mut n = one(2.0);
        for _ in 0..16 {
            // Ask at the current estimate so the probe condition (the
            // estimate was genuinely exercised) holds each period.
            let asked = n.rate(1).ceil() as u32;
            for _ in 0..asked {
                n.record_request(1);
                n.record_delivery(1, 30.0);
            }
            n.end_period(1.0);
        }
        assert!(
            n.rate(1) > 10.0,
            "estimate {} should probe well above the prior",
            n.rate(1)
        );
    }

    #[test]
    fn under_delivery_pulls_estimate_down() {
        let mut n = one(20.0);
        for _ in 0..8 {
            for _ in 0..10 {
                n.record_request(1);
            }
            for _ in 0..3 {
                n.record_delivery(1, 30.0);
            }
            n.end_period(1.0);
        }
        let r = n.rate(1);
        assert!(
            (2.0..5.0).contains(&r),
            "estimate {r} should approach the observed 3/s"
        );
    }

    #[test]
    fn estimates_stabilise_at_true_capacity() {
        // Supplier truly serves min(asked, 5)/period. The probe must
        // oscillate around ~5, not run away or collapse.
        let mut n = one(3.0);
        for _ in 0..40 {
            let asked = n.rate(1).floor().max(1.0) as u32;
            for _ in 0..asked {
                n.record_request(1);
            }
            for _ in 0..asked.min(5) {
                n.record_delivery(1, 30.0);
            }
            n.end_period(1.0);
        }
        let r = n.rate(1);
        assert!((3.0..12.0).contains(&r), "estimate {r} should hover near 5");
    }

    #[test]
    fn estimate_is_capped() {
        let mut n = one(400.0);
        for _ in 0..20 {
            n.record_request(1);
            n.record_delivery(1, 30.0);
            n.end_period(1.0);
        }
        assert!(n.rate(1) <= MAX_RATE);
    }

    #[test]
    fn period_length_scales_observation() {
        let mut n = one(20.0);
        // Ask 10 per half-second period, get 3 → observed 6/s.
        for _ in 0..10 {
            for _ in 0..10 {
                n.record_request(1);
            }
            for _ in 0..3 {
                n.record_delivery(1, 30.0);
            }
            n.end_period(0.5);
        }
        let r = n.rate(1);
        assert!((5.0..8.0).contains(&r), "estimate {r} should approach 6/s");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = ConnectedNeighbors::new(0, 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prior_panics() {
        let _ = ConnectedNeighbors::new(1, 0.0);
    }
}

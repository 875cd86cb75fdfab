//! The "Connected Neighbors" part of the Peer Table (§4.1, Figure 2).
//!
//! `M` TCP-connected gossip partners; "the periodical data exchange is
//! only performed between connected neighbors. If a neighbor is found to
//! have failed or supplied little data to the local node, it will be
//! replaced by an overheard node which has the lowest latency."

use cs_dht::DhtId;

/// One connected neighbour (a row of Figure 2's first table).
///
/// Generic over the peer identifier `I` (default [`DhtId`]). The
/// full-system simulator keys its tables by plain ids and looks each up
/// in a dense id table, so a neighbour walk is index loads rather than
/// hash probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry<I = DhtId> {
    /// The neighbour's overlay identifier.
    pub id: I,
    /// Estimated one-way latency, milliseconds.
    pub latency_ms: f64,
    /// Recent supply rate from this neighbour, Kbps (Figure 2's last
    /// column); updated by the Rate Controller every period.
    pub recent_supply_kbps: f64,
}

/// The bounded connected-neighbour set of one node.
#[derive(Debug, Clone)]
pub struct ConnectedNeighbors<I = DhtId> {
    entries: Vec<NeighborEntry<I>>,
    capacity: usize,
}

impl<I: Copy + PartialEq + Ord> ConnectedNeighbors<I> {
    /// An empty set with room for `m` neighbours.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "a streaming node needs at least one neighbour");
        ConnectedNeighbors {
            entries: Vec::with_capacity(m),
            capacity: m,
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
    pub fn entries(&self) -> &[NeighborEntry<I>] {
        &self.entries
    }

    /// Neighbour IDs, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.entries.iter().map(|e| e.id)
    }

    /// Whether `id` is a connected neighbour.
    pub fn contains(&self, id: I) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Connect a new neighbour. Returns `false` (and does nothing) if the
    /// set is full or the id is already present.
    pub fn add(&mut self, entry: NeighborEntry<I>) -> bool {
        if self.is_full() || self.contains(entry.id) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Disconnect a neighbour. Returns `true` if it was present.
    pub fn remove(&mut self, id: I) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }

    /// Record the supply rate observed from `id` this period (the Rate
    /// Controller's job). Returns `false` for unknown ids.
    pub fn record_supply(&mut self, id: I, kbps: f64) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                // Exponentially weighted so one idle period does not
                // immediately mark a good neighbour as weak.
                e.recent_supply_kbps = 0.5 * e.recent_supply_kbps + 0.5 * kbps;
                true
            }
            None => false,
        }
    }

    /// The weakest neighbour: lowest recent supply rate, ties broken by
    /// higher latency then id. `None` when empty.
    pub fn weakest(&self) -> Option<NeighborEntry<I>> {
        self.entries.iter().copied().min_by(|a, b| {
            a.recent_supply_kbps
                .total_cmp(&b.recent_supply_kbps)
                .then(b.latency_ms.total_cmp(&a.latency_ms))
                .then(a.id.cmp(&b.id))
        })
    }

    /// Replace neighbour `old` with `new`. Returns `false` if `old` is
    /// absent or `new.id` already connected.
    pub fn replace(&mut self, old: I, new: NeighborEntry<I>) -> bool {
        if self.contains(new.id) || !self.contains(old) {
            return false;
        }
        self.remove(old);
        self.entries.push(new);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: DhtId, latency: f64, supply: f64) -> NeighborEntry {
        NeighborEntry {
            id,
            latency_ms: latency,
            recent_supply_kbps: supply,
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut n = ConnectedNeighbors::new(2);
        assert!(n.add(entry(1, 5.0, 0.0)));
        assert!(n.add(entry(2, 5.0, 0.0)));
        assert!(!n.add(entry(3, 5.0, 0.0)), "full set rejects adds");
        assert!(n.is_full());
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn duplicates_rejected() {
        let mut n = ConnectedNeighbors::new(3);
        assert!(n.add(entry(1, 5.0, 0.0)));
        assert!(!n.add(entry(1, 9.0, 0.0)));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut n = ConnectedNeighbors::new(3);
        n.add(entry(1, 5.0, 0.0));
        assert!(n.contains(1));
        assert!(n.remove(1));
        assert!(!n.contains(1));
        assert!(!n.remove(1));
    }

    #[test]
    fn supply_rate_is_smoothed() {
        let mut n = ConnectedNeighbors::new(2);
        n.add(entry(1, 5.0, 100.0));
        assert!(n.record_supply(1, 0.0));
        let e = n.entries()[0];
        assert_eq!(e.recent_supply_kbps, 50.0, "EWMA with α = 0.5");
        assert!(!n.record_supply(9, 10.0));
    }

    #[test]
    fn weakest_prefers_low_supply_then_high_latency() {
        let mut n = ConnectedNeighbors::new(4);
        n.add(entry(1, 5.0, 100.0));
        n.add(entry(2, 50.0, 10.0));
        n.add(entry(3, 5.0, 10.0));
        // 2 and 3 tie on supply; 2 has higher latency → weakest.
        assert_eq!(n.weakest().unwrap().id, 2);
        assert!(ConnectedNeighbors::<DhtId>::new(1).weakest().is_none());
    }

    #[test]
    fn replace_swaps_atomically() {
        let mut n = ConnectedNeighbors::new(2);
        n.add(entry(1, 5.0, 0.0));
        n.add(entry(2, 5.0, 0.0));
        assert!(n.replace(1, entry(3, 2.0, 0.0)));
        assert!(!n.contains(1));
        assert!(n.contains(3));
        assert_eq!(n.len(), 2);
        // Replacing an absent neighbour or with an existing id fails.
        assert!(!n.replace(1, entry(4, 2.0, 0.0)));
        assert!(!n.replace(2, entry(3, 2.0, 0.0)));
    }

    /// The failure-detection sweep as the round loop runs it: collect
    /// the dead ids, then remove each.
    #[test]
    fn dead_ids_swept_by_ids_then_remove() {
        let mut n = ConnectedNeighbors::new(4);
        for id in 1..=4 {
            n.add(entry(id, 5.0, 0.0));
        }
        let dead: Vec<DhtId> = n.ids().filter(|id| id % 2 == 1).collect();
        assert_eq!(dead, vec![1, 3]);
        assert!(dead.iter().all(|&id| n.remove(id)));
        assert_eq!(n.ids().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = ConnectedNeighbors::<DhtId>::new(0);
    }
}

//! The "Overheard Nodes" part of the Peer Table (§4.1, Figure 2).
//!
//! "Overheard Nodes contains H nodes which are the latest overheard.
//! H = 20 is usually enough according to our simulation experience. Every
//! node continually overhears the routing messages passing by and updates
//! the overheard node list using the latest overheard nodes." Both other
//! parts of the Peer Table renew themselves from this list, which costs
//! no extra communication.

use std::collections::VecDeque;

use cs_dht::DhtId;

/// The paper's recommended overheard-list capacity.
pub const DEFAULT_H: usize = 20;

/// One overheard node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheardEntry {
    /// The overheard node's identifier.
    pub id: DhtId,
    /// Latency estimate, milliseconds (from the overheard message's
    /// timing or a subsequent probe).
    pub latency_ms: f64,
}

/// A bounded most-recently-overheard list.
#[derive(Debug, Clone)]
pub struct OverheardList {
    /// Front = most recent.
    entries: VecDeque<OverheardEntry>,
    capacity: usize,
}

impl Default for OverheardList {
    fn default() -> Self {
        Self::new(DEFAULT_H)
    }
}

impl OverheardList {
    /// An empty list with capacity `h`.
    pub fn new(h: usize) -> Self {
        assert!(h > 0, "overheard list needs positive capacity");
        OverheardList {
            entries: VecDeque::with_capacity(h),
            capacity: h,
        }
    }

    /// Capacity `H`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been overheard yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record an overheard node. Re-hearing an already-listed node moves
    /// it to the front and refreshes its latency; otherwise the oldest
    /// entry falls off when at capacity.
    pub fn record(&mut self, id: DhtId, latency_ms: f64) {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop_back();
        }
        self.entries.push_front(OverheardEntry { id, latency_ms });
    }

    /// Remove a node known to have failed. Returns `true` if present.
    pub fn remove(&mut self, id: DhtId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Entries from most to least recent.
    pub fn entries(&self) -> impl Iterator<Item = OverheardEntry> + '_ {
        self.entries.iter().copied()
    }

    /// The lowest-latency overheard node not rejected by `exclude` — the
    /// replacement candidate for a failed or weak connected neighbour
    /// ("it will be replaced by an overheard node which has the lowest
    /// latency").
    pub fn best_candidate(&self, exclude: impl Fn(DhtId) -> bool) -> Option<OverheardEntry> {
        self.entries
            .iter()
            .filter(|e| !exclude(e.id))
            .copied()
            .min_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms).then(a.id.cmp(&b.id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_most_recent_first() {
        let mut l = OverheardList::new(3);
        l.record(1, 10.0);
        l.record(2, 20.0);
        let ids: Vec<DhtId> = l.entries().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut l = OverheardList::new(3);
        for id in 1..=4 {
            l.record(id, 10.0);
        }
        let ids: Vec<DhtId> = l.entries().map(|e| e.id).collect();
        assert_eq!(ids, vec![4, 3, 2]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn rehearing_moves_to_front_and_refreshes() {
        let mut l = OverheardList::new(3);
        l.record(1, 10.0);
        l.record(2, 20.0);
        l.record(1, 5.0);
        let entries: Vec<OverheardEntry> = l.entries().collect();
        assert_eq!(entries[0].id, 1);
        assert_eq!(entries[0].latency_ms, 5.0);
        assert_eq!(l.len(), 2, "no duplicate entry");
    }

    #[test]
    fn best_candidate_lowest_latency() {
        let mut l = OverheardList::new(5);
        l.record(1, 30.0);
        l.record(2, 10.0);
        l.record(3, 20.0);
        assert_eq!(l.best_candidate(|_| false).unwrap().id, 2);
        // Excluding the best yields the next best.
        assert_eq!(l.best_candidate(|id| id == 2).unwrap().id, 3);
        // Excluding everything yields none.
        assert!(l.best_candidate(|_| true).is_none());
    }

    #[test]
    fn remove_works() {
        let mut l = OverheardList::new(3);
        l.record(1, 10.0);
        assert!(l.remove(1));
        assert!(!l.remove(1));
        assert!(l.is_empty());
    }

    #[test]
    fn default_capacity_is_paper_h() {
        assert_eq!(OverheardList::default().capacity(), 20);
    }
}

//! The RP (Rendezvous Point) server (§4.1).
//!
//! "A new node A first contacts the RP server to join the overlay
//! network. RP server holds a partial list of joining nodes and assigns a
//! unique ID to node A. Then RP server gives node A a short list of
//! several existing nodes which have close IDs as node A." Nodes also
//! report failures they detect ("tells the RP server E's failure").

use std::collections::BTreeSet;

use rand::Rng;

use cs_dht::{DhtId, IdSpace};
use cs_sim::SimRng;

/// The rendezvous-point server.
#[derive(Debug, Clone)]
pub struct RpServer {
    space: IdSpace,
    /// The (partial) membership list. BTreeSet gives ring-ordered access
    /// for the close-ID query.
    known: BTreeSet<DhtId>,
}

impl RpServer {
    /// A server for the given ID space with no members yet.
    pub fn new(space: IdSpace) -> Self {
        RpServer {
            space,
            known: BTreeSet::new(),
        }
    }

    /// The ID space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of members the server currently knows.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// True when the server knows no members.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// Whether `id` is known.
    pub fn knows(&self, id: DhtId) -> bool {
        self.known.contains(&id)
    }

    /// Whether every ID of the space is taken: the server can admit
    /// nobody until a member leaves.
    pub fn is_full(&self) -> bool {
        self.known.len() as u64 >= self.space.size()
    }

    /// Assign a fresh unique ID, register it, and return it.
    ///
    /// # Panics
    /// If the ID space is completely full ([`Self::is_full`]) — callers
    /// that can meet a full server turn the arrival away first.
    pub fn assign_id(&mut self, rng: &mut SimRng) -> DhtId {
        assert!(
            !self.is_full(),
            "ID space exhausted: {} nodes in a space of {}",
            self.known.len(),
            self.space.size()
        );
        loop {
            let id = rng.gen_range(0..self.space.size());
            if self.known.insert(id) {
                return id;
            }
        }
    }

    /// Register an externally chosen ID (e.g. the source node's fixed
    /// ID). Returns `false` if it was already taken.
    pub fn register(&mut self, id: DhtId) -> bool {
        assert!(self.space.contains(id), "id outside the ID space");
        self.known.insert(id)
    }

    /// Remove a member reported failed or departed. Returns `true` if it
    /// was known.
    pub fn report_failure(&mut self, id: DhtId) -> bool {
        self.known.remove(&id)
    }

    /// The `count` members with IDs closest to `id` on the ring (by
    /// minimum of clockwise and counter-clockwise distance), excluding
    /// `id` itself — the "short list of several existing nodes which have
    /// close IDs". Nearest first; equal distances in ascending id order.
    ///
    /// Walks the ordered membership outward from `id` in both directions
    /// and merges the two walks, so the cost is `O(log n + count)` rather
    /// than a sort of all members.
    pub fn close_list(&self, id: DhtId, count: usize) -> Vec<DhtId> {
        let key = |m: DhtId| self.closeness(id, m);
        // Clockwise: ids above `id`, then from zero up to it. Counter-
        // clockwise: ids below `id`, then from the top down to it. Each
        // walk lists every other member once, and its near half — the
        // members closer on its side — in ascending key order.
        let mut cw = (self.known.range(id + 1..))
            .chain(self.known.range(..id))
            .copied()
            .peekable();
        let mut ccw = (self.known.range(..id).rev())
            .chain(self.known.range(id + 1..).rev())
            .copied()
            .peekable();
        let others = self.known.len() - usize::from(self.known.contains(&id));
        let take = count.min(others);
        let mut out = Vec::with_capacity(take);
        // A member leaves a walk only when it is listed, and a walk runs
        // into its far half only once the other walk's near half is all
        // that is left — so until everyone is listed both heads are
        // unlisted and the closest unlisted member is one of them.
        while out.len() < take {
            let a = *cw.peek().expect("unlisted members remain");
            let b = *ccw.peek().expect("unlisted members remain");
            let next = if key(a) <= key(b) { a } else { b };
            out.push(next);
            if a == next {
                cw.next();
            }
            if b == next {
                ccw.next();
            }
        }
        out
    }

    /// Reference model for [`close_list`](Self::close_list): sort the
    /// whole membership by ring distance.
    #[cfg(test)]
    fn close_list_sorted(&self, id: DhtId, count: usize) -> Vec<DhtId> {
        let mut members: Vec<DhtId> = self.known.iter().copied().filter(|&m| m != id).collect();
        members.sort_by_key(|&m| self.closeness(id, m));
        members.truncate(count);
        members
    }

    /// The close-list sort key of member `m` as seen from `id`: ring
    /// distance in the nearer direction, ties broken by id.
    fn closeness(&self, id: DhtId, m: DhtId) -> (u64, DhtId) {
        let cw = self.space.clockwise_dist(id, m);
        let ccw = self.space.clockwise_dist(m, id);
        (cw.min(ccw), m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    #[test]
    fn assigns_unique_ids() {
        let mut rp = RpServer::new(IdSpace::new(8));
        let mut rng = RngTree::new(1).child("rp");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let id = rp.assign_id(&mut rng);
            assert!(seen.insert(id), "duplicate id {id}");
        }
        assert_eq!(rp.len(), 200);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut rp = RpServer::new(IdSpace::new(2)); // N = 4
        let mut rng = RngTree::new(1).child("rp");
        for _ in 0..5 {
            let _ = rp.assign_id(&mut rng);
        }
    }

    #[test]
    fn close_list_is_ring_metric() {
        let mut rp = RpServer::new(IdSpace::new(6)); // N = 64
        for id in [1u64, 10, 30, 62] {
            rp.register(id);
        }
        // From id 0: distances are 1→1, 10→10, 30→30 (ccw 34), 62→2.
        let list = rp.close_list(0, 3);
        assert_eq!(list, vec![1, 62, 10]);
    }

    #[test]
    fn close_list_excludes_self() {
        let mut rp = RpServer::new(IdSpace::new(6));
        rp.register(5);
        rp.register(6);
        let list = rp.close_list(5, 10);
        assert_eq!(list, vec![6]);
    }

    #[test]
    fn register_and_failure() {
        let mut rp = RpServer::new(IdSpace::new(6));
        assert!(rp.register(7));
        assert!(!rp.register(7), "double registration rejected");
        assert!(rp.knows(7));
        assert!(rp.report_failure(7));
        assert!(!rp.report_failure(7));
        assert!(!rp.knows(7));
    }

    #[test]
    fn close_list_walk_matches_the_sort() {
        use rand::Rng;
        let mut rng = RngTree::new(9).child("close-list");
        for case in 0..400 {
            let space = IdSpace::new(rng.gen_range(1u32..9));
            let mut rp = RpServer::new(space);
            // From empty through nearly full, so antipodes, equal-distance
            // pairs and fewer-than-`count` memberships all occur.
            let members = rng.gen_range(0..=space.size());
            for _ in 0..members {
                rp.known.insert(rng.gen_range(0..space.size()));
            }
            for _ in 0..20 {
                // Members and non-members alike, the ring's ends included.
                let id = match rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => space.size() - 1,
                    _ => rng.gen_range(0..space.size()),
                };
                let count = rng.gen_range(0usize..7);
                assert_eq!(
                    rp.close_list(id, count),
                    rp.close_list_sorted(id, count),
                    "case {case}: id {id}, count {count}, known {:?}",
                    rp.known
                );
            }
            let all = rp.close_list(0, usize::MAX);
            assert_eq!(all, rp.close_list_sorted(0, usize::MAX));
        }
    }

    #[test]
    fn close_list_on_empty_server() {
        let rp = RpServer::new(IdSpace::new(6));
        assert!(rp.close_list(3, 4).is_empty());
    }
}

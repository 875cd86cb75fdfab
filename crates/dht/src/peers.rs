//! The "DHT Peers" part of the Peer Table (§4.1, Figure 2).
//!
//! One optional peer per level `1..=log₂N`. The *only* restriction is
//! that the level-`i` peer lies in `[n + 2^(i-1), n + 2^i)`; within the
//! interval the node is free to pick whichever candidate it likes — the
//! implementation prefers lower latency, matching Figure 2's latency
//! column and the paper's neighbour-selection style. Entries are refreshed
//! from overheard nodes, so a table fills up (and heals after churn)
//! without any dedicated maintenance traffic.
//!
//! The levels are ordered, disjoint distance bands, and the table leans
//! on that: the greedy next hop, the closest-clockwise peer and removal
//! all go straight to the one level the distance in question falls in
//! (plus a bitmask of filled levels) instead of scanning the table.

use crate::id::{DhtId, IdSpace};

/// One DHT peer: identity plus the latency estimate used to choose among
/// candidates for the same level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhtPeerEntry {
    /// The peer's DHT identifier.
    pub id: DhtId,
    /// Estimated one-way latency to the peer in milliseconds (RTT/2, as
    /// measured by the PING probe of the join protocol).
    pub latency_ms: f64,
    /// Age counter: bumped by [`DhtPeerTable::tick`], reset on refresh.
    /// Stale entries lose to fresh candidates even at higher latency.
    pub age: u32,
}

/// Age after which an entry is considered stale and replaced by any fresh
/// candidate for its level regardless of latency.
pub const STALE_AGE: u32 = 8;

/// What an unfilled level's slot holds: never read through the mask.
const VACANT: DhtPeerEntry = DhtPeerEntry {
    id: 0,
    latency_ms: 0.0,
    age: 0,
};

/// The level-indexed DHT peer table of a single node.
#[derive(Clone)]
pub struct DhtPeerTable {
    space: IdSpace,
    owner: DhtId,
    /// `levels[i - 1]` holds the level-`i` peer, at clockwise distance
    /// in `[2^(i-1), 2^i)` from the owner — when bit `i - 1` of `filled`
    /// says so. A slot whose bit is clear holds a stale or vacant entry
    /// that nothing reads.
    levels: Vec<DhtPeerEntry>,
    /// Bit `i - 1` is set iff level `i` is filled (a space has at most
    /// 63 levels): the only record of which levels are set.
    filled: u64,
}

impl std::fmt::Debug for DhtPeerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let levels: Vec<Option<DhtPeerEntry>> =
            (0..self.levels.len()).map(|idx| self.at(idx)).collect();
        f.debug_struct("DhtPeerTable")
            .field("space", &self.space)
            .field("owner", &self.owner)
            .field("levels", &levels)
            .field("filled", &self.filled)
            .finish()
    }
}

impl DhtPeerTable {
    /// An empty table for node `owner`.
    pub fn new(space: IdSpace, owner: DhtId) -> Self {
        assert!(space.contains(owner), "owner must live in the ID space");
        DhtPeerTable {
            space,
            owner,
            levels: vec![VACANT; space.bits() as usize],
            filled: 0,
        }
    }

    /// The owning node's ID.
    pub fn owner(&self) -> DhtId {
        self.owner
    }

    /// The ID space this table lives in.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// The peer at 0-based level index `idx`, if the mask says it is
    /// filled.
    #[inline]
    fn at(&self, idx: usize) -> Option<DhtPeerEntry> {
        let entry = self.levels[idx];
        (self.filled >> idx & 1 == 1).then_some(entry)
    }

    /// The current level-`i` peer (1-based), if any.
    pub fn level(&self, i: u32) -> Option<DhtPeerEntry> {
        self.at((i - 1) as usize)
    }

    /// Number of filled levels.
    pub fn filled(&self) -> usize {
        self.filled.count_ones() as usize
    }

    /// Iterate over all current peers.
    pub fn peers(&self) -> impl Iterator<Item = DhtPeerEntry> + '_ {
        (0..self.levels.len()).filter_map(|idx| self.at(idx))
    }

    /// Offer a candidate (typically an overheard node). Files it at its
    /// level if the slot is empty, the incumbent is stale, or the
    /// candidate's latency is lower. Returns `true` if the table changed.
    pub fn offer(&mut self, id: DhtId, latency_ms: f64) -> bool {
        if id == self.owner || !self.space.contains(id) {
            return false;
        }
        let level = self
            .space
            .level_of(self.owner, id)
            .expect("non-owner id always has a level") as usize
            - 1;
        let replace = match self.at(level) {
            None => true,
            Some(cur) => {
                cur.id == id // refresh of the same peer: always take it
                    || cur.age >= STALE_AGE
                    || latency_ms < cur.latency_ms
            }
        };
        if replace {
            self.levels[level] = DhtPeerEntry {
                id,
                latency_ms,
                age: 0,
            };
            self.filled |= 1 << level;
        }
        replace
    }

    /// Offer a candidate that should win on *ring proximity* rather than
    /// latency: replaces the incumbent of its level when the candidate is
    /// clockwise-closer to the owner. Used when a joining node announces
    /// itself to its predecessor — the predecessor's closest-clockwise
    /// peer bounds its backup-responsibility range (§4.3), so it must
    /// learn about closer successors promptly. Returns `true` on change.
    pub fn offer_closer(&mut self, id: DhtId, latency_ms: f64) -> bool {
        if id == self.owner || !self.space.contains(id) {
            return false;
        }
        let level = self
            .space
            .level_of(self.owner, id)
            .expect("non-owner id always has a level") as usize
            - 1;
        let replace = match self.at(level) {
            None => true,
            Some(cur) => {
                self.space.clockwise_dist(self.owner, id)
                    <= self.space.clockwise_dist(self.owner, cur.id)
            }
        };
        if replace {
            self.levels[level] = DhtPeerEntry {
                id,
                latency_ms,
                age: 0,
            };
            self.filled |= 1 << level;
        }
        replace
    }

    /// Remove a peer known to have failed. Returns `true` if it was
    /// present. Only the level `id`'s distance falls in can hold it.
    pub fn remove(&mut self, id: DhtId) -> bool {
        if !self.space.contains(id) {
            return false;
        }
        let Some(level) = self.space.level_of(self.owner, id) else {
            return false;
        };
        let level = level as usize - 1;
        if self.at(level).map(|e| e.id) != Some(id) {
            return false;
        }
        self.filled &= !(1 << level);
        true
    }

    /// Age all entries by one maintenance period. Unfilled slots age too:
    /// nothing reads them, and a refill resets the age.
    pub fn tick(&mut self) {
        for slot in &mut self.levels {
            slot.age = slot.age.saturating_add(1);
        }
    }

    /// The peer whose ID is clockwise-closest to `target` without the
    /// distance exceeding the owner's own clockwise distance — the greedy
    /// next hop of §4.1. `None` when no peer is strictly closer than the
    /// owner (routing terminates at the owner).
    ///
    /// A peer gets closer exactly when it does not overshoot, i.e. its
    /// distance from the owner is at most the target's, and the closest
    /// such peer is the farthest one. Levels are ordered distance bands,
    /// so that is the peer in the target's own band unless it overshoots,
    /// and otherwise the highest filled level below — every lower band
    /// lies wholly short of the target.
    pub fn next_hop(&self, target: DhtId) -> Option<DhtPeerEntry> {
        let own_dist = self.space.clockwise_dist(self.owner, target);
        if own_dist == 0 {
            return None;
        }
        let band = (63 - own_dist.leading_zeros()) as usize;
        if let Some(p) = self.at(band) {
            if self.space.clockwise_dist(self.owner, p.id) <= own_dist {
                return Some(p);
            }
        }
        let below = self.filled & ((1 << band) - 1);
        if below == 0 {
            return None;
        }
        Some(self.levels[(63 - below.leading_zeros()) as usize])
    }

    /// The owner's *closest clockwise* DHT peer, i.e. the `n₁` of the
    /// backup-responsibility interval `[n, n₁)` (§4.3): the peer of the
    /// lowest filled level.
    pub fn closest_clockwise(&self) -> Option<DhtPeerEntry> {
        if self.filled == 0 {
            return None;
        }
        Some(self.levels[self.filled.trailing_zeros() as usize])
    }

    /// Reference model for [`next_hop`](Self::next_hop): score every peer
    /// by its remaining clockwise distance and keep the minimum.
    #[cfg(test)]
    fn next_hop_scan(&self, target: DhtId) -> Option<DhtPeerEntry> {
        let own_dist = self.space.clockwise_dist(self.owner, target);
        // A peer p "gets closer" when clockwise_dist(p, target) < own
        // remaining clockwise distance; ties do not progress.
        self.peers()
            .filter_map(|p| {
                let d = self.space.clockwise_dist(p.id, target);
                (d < own_dist).then_some((d, p))
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.id.cmp(&b.1.id)))
            .map(|(_, p)| p)
    }

    /// Reference model for [`closest_clockwise`](Self::closest_clockwise).
    #[cfg(test)]
    fn closest_clockwise_scan(&self) -> Option<DhtPeerEntry> {
        self.peers().min_by(|a, b| {
            let da = self.space.clockwise_dist(self.owner, a.id);
            let db = self.space.clockwise_dist(self.owner, b.id);
            da.cmp(&db)
        })
    }

    /// Reference model for [`remove`](Self::remove): search every level.
    #[cfg(test)]
    fn remove_scan(&mut self, id: DhtId) -> bool {
        for idx in 0..self.levels.len() {
            if self.at(idx).map(|e| e.id) == Some(id) {
                self.filled &= !(1 << idx);
                return true;
            }
        }
        false
    }

    /// Verify the level invariant for every entry; used by tests and debug
    /// assertions in the network layer.
    pub fn check_invariants(&self) -> Result<(), String> {
        for level in 1..=self.levels.len() as u32 {
            if let Some(e) = self.level(level) {
                let (from, to) = self.space.level_interval(self.owner, level);
                if !self.space.in_interval(e.id, from, to) {
                    return Err(format!(
                        "level {level} peer {} outside [{from}, {to})",
                        e.id
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;
    use rand::Rng;

    fn table() -> DhtPeerTable {
        DhtPeerTable::new(IdSpace::new(6), 10) // N = 64, owner 10
    }

    /// Every level as the mask exposes it: what the table means.
    fn view(t: &DhtPeerTable) -> Vec<Option<DhtPeerEntry>> {
        (1..=t.space.bits()).map(|i| t.level(i)).collect()
    }

    #[test]
    fn offer_files_at_correct_level() {
        let mut t = table();
        // dist(10, 11) = 1 → level 1; dist(10, 30) = 20 → level 5.
        assert!(t.offer(11, 5.0));
        assert!(t.offer(30, 9.0));
        assert_eq!(t.level(1).unwrap().id, 11);
        assert_eq!(t.level(5).unwrap().id, 30);
        assert_eq!(t.filled(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn lower_latency_wins() {
        let mut t = table();
        assert!(t.offer(30, 9.0));
        // Same level (dist 16..31), higher latency: rejected.
        assert!(!t.offer(27, 12.0));
        assert_eq!(t.level(5).unwrap().id, 30);
        // Lower latency: accepted.
        assert!(t.offer(27, 3.0));
        assert_eq!(t.level(5).unwrap().id, 27);
    }

    #[test]
    fn same_peer_refreshes() {
        let mut t = table();
        t.offer(30, 9.0);
        for _ in 0..3 {
            t.tick();
        }
        assert_eq!(t.level(5).unwrap().age, 3);
        // Re-offering the same peer resets age even at worse latency.
        assert!(t.offer(30, 20.0));
        assert_eq!(t.level(5).unwrap().age, 0);
        assert_eq!(t.level(5).unwrap().latency_ms, 20.0);
    }

    #[test]
    fn stale_entries_are_replaced() {
        let mut t = table();
        t.offer(30, 1.0);
        for _ in 0..STALE_AGE {
            t.tick();
        }
        // Fresh candidate with much worse latency still wins: incumbent
        // may be long gone.
        assert!(t.offer(27, 50.0));
        assert_eq!(t.level(5).unwrap().id, 27);
    }

    #[test]
    fn own_id_rejected() {
        let mut t = table();
        assert!(!t.offer(10, 0.1));
        assert_eq!(t.filled(), 0);
    }

    #[test]
    fn out_of_space_rejected() {
        let mut t = table();
        assert!(!t.offer(64, 1.0));
        assert!(!t.offer(1000, 1.0));
    }

    #[test]
    fn remove_clears_slot() {
        let mut t = table();
        t.offer(11, 5.0);
        assert!(t.remove(11));
        assert!(!t.remove(11));
        assert_eq!(t.filled(), 0);
    }

    #[test]
    fn next_hop_greedy_clockwise() {
        let mut t = table();
        t.offer(11, 1.0); // level 1
        t.offer(13, 1.0); // level 2
        t.offer(16, 1.0); // level 3 (dist 6)
        t.offer(20, 1.0); // level 4 (dist 10)
        t.offer(40, 1.0); // level 5 (dist 30)
                          // Target 42: peer 40 has dist 2, best.
        assert_eq!(t.next_hop(42).unwrap().id, 40);
        // Target 15: peer 13 has dist 2; 16 overshoots (dist 63). 13 wins.
        assert_eq!(t.next_hop(15).unwrap().id, 13);
        // Target 10 is the owner itself: dist 0, nobody is closer.
        assert!(t.next_hop(10).is_none());
        // Target 11: peer 11 has dist 0 — delivered there.
        assert_eq!(t.next_hop(11).unwrap().id, 11);
    }

    #[test]
    fn next_hop_never_overshoots() {
        // Overshooting (going clockwise past the target) would give a huge
        // wrapped distance, so it can never be selected while a closer
        // non-overshooting option exists; and when *all* peers overshoot,
        // routing must stop.
        let mut t = table();
        t.offer(40, 1.0);
        // Target 20: owner dist 10; peer 40 dist = 44 (wraps) → stop.
        assert!(t.next_hop(20).is_none());
    }

    #[test]
    fn closest_clockwise_is_successor_like() {
        let mut t = table();
        t.offer(13, 1.0);
        t.offer(11, 1.0);
        t.offer(40, 1.0);
        assert_eq!(t.closest_clockwise().unwrap().id, 11);
        let empty = table();
        assert!(empty.closest_clockwise().is_none());
    }

    #[test]
    fn level_index_matches_reference_scans() {
        let mut rng = RngTree::new(21).child("peer-table");
        for case in 0..600 {
            let space = IdSpace::new(rng.gen_range(1u32..11));
            let n = space.size();
            // Every third owner sits at the top of the space, so its
            // levels wrap through zero.
            let owner = if case % 3 == 0 {
                n - 1 - rng.gen_range(0..n.min(3))
            } else {
                rng.gen_range(0..n)
            };
            let mut t = DhtPeerTable::new(space, owner);
            // Empty, sparse, half-offered and fully offered tables (the
            // last fills every level that has an id at all).
            let offers = match case % 4 {
                0 => rng.gen_range(0u64..3),
                1 => rng.gen_range(0..n),
                2 => n / 2,
                _ => 4 * n,
            };
            for _ in 0..offers {
                let id = rng.gen_range(0..n);
                t.offer(id, rng.gen_range(1.0..100.0));
                if rng.gen_bool(0.1) {
                    t.tick();
                }
            }
            if case % 5 == 0 {
                // The farthest possible peer: it overshoots every target
                // but its own id.
                t.offer_closer(space.wrap(owner + n - 1), 1.0);
            }
            t.check_invariants().unwrap();

            // Every target, which covers target == owner and exact hits.
            for target in 0..n {
                assert_eq!(
                    t.next_hop(target),
                    t.next_hop_scan(target),
                    "case {case}: owner {owner}, target {target}, table {t:?}"
                );
            }
            assert_eq!(t.closest_clockwise(), t.closest_clockwise_scan());

            // Removal: filed peers, absent ids, the owner, out-of-space.
            let filed: Vec<DhtId> = t.peers().map(|p| p.id).collect();
            let mut victims = filed;
            victims.extend([owner, n, n + 5, rng.gen_range(0..n), rng.gen_range(0..n)]);
            for id in victims {
                let mut a = t.clone();
                let mut b = t.clone();
                let removed = a.remove(id);
                assert_eq!(removed, b.remove_scan(id), "case {case}: remove {id}");
                assert_eq!(view(&a), view(&b));
                assert_eq!(a.filled, b.filled);
                a.check_invariants().unwrap();
                assert_eq!(a.closest_clockwise(), a.closest_clockwise_scan());
                if !removed {
                    continue;
                }

                // The removed entry still sits behind its cleared bit; it
                // must stay invisible to every reader, and ageing must
                // not touch it.
                let level = space.level_of(owner, id).unwrap();
                let old = t.level(level).unwrap();
                a.tick();
                assert_eq!(a.level(level), None, "case {case}: stale level {level}");
                assert!(a.peers().all(|p| p.id != id));
                for target in 0..n {
                    assert_eq!(a.next_hop(target), a.next_hop_scan(target), "case {case}");
                }
                assert_eq!(a.closest_clockwise(), a.closest_clockwise_scan());

                // Re-offer at the same level, at a latency the stale
                // entry would have beaten: the level is empty, so the
                // candidate is filed fresh, at age 0.
                let width = 1u64 << (level - 1);
                for cand in [id, space.wrap(owner + width + rng.gen_range(0..width))] {
                    let mut c = a.clone();
                    let latency = old.latency_ms + 1.0;
                    assert!(c.offer(cand, latency), "case {case}: re-offer {cand}");
                    let mut expect = view(&a);
                    expect[level as usize - 1] = Some(DhtPeerEntry {
                        id: cand,
                        latency_ms: latency,
                        age: 0,
                    });
                    assert_eq!(view(&c), expect, "case {case}: re-offer {cand}");
                    c.check_invariants().unwrap();
                    for target in 0..n {
                        assert_eq!(c.next_hop(target), c.next_hop_scan(target), "case {case}");
                    }
                    assert_eq!(c.closest_clockwise(), c.closest_clockwise_scan());
                }
            }
        }
    }

    #[test]
    fn invariant_check_catches_corruption() {
        let mut t = table();
        t.offer(11, 1.0);
        // Manually corrupt: put a level-1 peer in the level-3 slot.
        t.levels[2] = DhtPeerEntry {
            id: 11,
            latency_ms: 1.0,
            age: 0,
        };
        t.filled |= 1 << 2;
        assert!(t.check_invariants().is_err());
    }
}

//! Backup placement (§4.3).
//!
//! Every data segment is backed up at `k` nodes. For segment `id`, replica
//! `i ∈ 1..=k` targets the ring position `hash(id·i) % N`; the node whose
//! responsibility interval `[n, n₁)` contains that position stores the
//! replica (`n₁` is the node's closest clockwise DHT peer). The paper uses
//! `id·i` rather than `id+i` precisely to *scatter* replicas: with `id+i`,
//! consecutive segments would pile their replicas onto the same node. The
//! scorecard's placement ablation compares both, so the additive variant
//! is also provided.

use cs_sim::splitmix64;

use crate::id::{DhtId, IdSpace};

/// The "common hash function" of §4.3. SplitMix64 is a well-mixed 64-bit
/// permutation, more than enough for load-balancing ring positions.
#[inline]
pub fn common_hash(x: u64) -> u64 {
    splitmix64(x)
}

/// Ring position of the `i`-th replica (1-based) of `segment_id`:
/// `hash(id·i) % N` (paper eq. 5). The allocation-free unit behind
/// [`backup_targets`], for callers that iterate replicas directly.
#[inline]
pub fn backup_target(space: IdSpace, segment_id: u64, i: u32) -> DhtId {
    space.wrap(common_hash(segment_id.wrapping_mul(i as u64)))
}

/// Ring positions of the `k` replicas of `segment_id`:
/// `hash(id·i) % N` for `i = 1..=k` (paper eq. 5).
pub fn backup_targets(space: IdSpace, segment_id: u64, k: u32) -> Vec<DhtId> {
    (1..=k)
        .map(|i| backup_target(space, segment_id, i))
        .collect()
}

/// The load-unbalanced alternative the paper warns about: `hash(id+i)`.
/// Kept for the placement ablation (`ablation-placement/jain`).
pub fn backup_targets_additive(space: IdSpace, segment_id: u64, k: u32) -> Vec<DhtId> {
    (1..=k as u64)
        .map(|i| space.wrap(common_hash(segment_id.wrapping_add(i))))
        .collect()
}

/// A node's backup responsibility interval `[owner, successor)` on the
/// ring (§4.3: "n must store ... data segments with id satisfying
/// hash(id×i)%N ∈ [n, n₁)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponsibilityRange {
    space: IdSpace,
    /// The owning node.
    pub owner: DhtId,
    /// The owner's closest clockwise DHT peer (`n₁`).
    pub successor: DhtId,
}

impl ResponsibilityRange {
    /// The interval `[owner, successor)`.
    pub fn new(space: IdSpace, owner: DhtId, successor: DhtId) -> Self {
        assert!(space.contains(owner) && space.contains(successor));
        ResponsibilityRange {
            space,
            owner,
            successor,
        }
    }

    /// Whether ring position `pos` falls inside this responsibility range.
    /// When `owner == successor` the node is alone on the ring and owns
    /// everything.
    pub fn contains(&self, pos: DhtId) -> bool {
        if self.owner == self.successor {
            return true;
        }
        self.space.in_interval(pos, self.owner, self.successor)
    }

    /// Whether this node must back up replica `i` (1-based) of
    /// `segment_id` under the paper's multiplicative placement.
    pub fn responsible_for_replica(&self, segment_id: u64, i: u32) -> bool {
        self.contains(backup_target(self.space, segment_id, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::new(13) // N = 8192, the paper's Figure 3 space
    }

    #[test]
    fn targets_are_deterministic_and_in_space() {
        let s = space();
        let a = backup_targets(s, 12345, 4);
        let b = backup_targets(s, 12345, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&t| s.contains(t)));
    }

    #[test]
    fn multiplicative_placement_scatters_consecutive_segments() {
        // The paper's rationale: with id+i, segments with close ids
        // aggregate on the same nodes. Measure dispersion of replica 1
        // across 100 consecutive segments: multiplicative hashing should
        // produce ~100 distinct coarse ring regions.
        let s = space();
        let regions: std::collections::HashSet<u64> = (1000..1100u64)
            .map(|id| backup_targets(s, id, 1)[0] / 64) // 128 regions
            .collect();
        assert!(
            regions.len() > 50,
            "only {} distinct regions for 100 segments",
            regions.len()
        );
    }

    #[test]
    fn replicas_of_one_segment_are_dispersed() {
        let s = space();
        let targets = backup_targets(s, 7777, 4);
        let distinct: std::collections::HashSet<_> = targets.iter().collect();
        assert_eq!(
            distinct.len(),
            4,
            "replicas should land on distinct positions"
        );
    }

    #[test]
    fn segment_zero_degenerates_multiplicatively() {
        // 0·i = 0 for every i: all replicas of segment 0 collide. This is
        // a real corner of the paper's scheme; cs-core therefore numbers
        // segments from 1. The test documents the behaviour.
        let s = space();
        let targets = backup_targets(s, 0, 4);
        assert!(targets.iter().all(|&t| t == targets[0]));
    }

    #[test]
    fn range_contains_basics() {
        let s = IdSpace::new(6); // N = 64
        let r = ResponsibilityRange::new(s, 10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
    }

    #[test]
    fn range_wraps() {
        let s = IdSpace::new(6);
        let r = ResponsibilityRange::new(s, 60, 4);
        assert!(r.contains(60));
        assert!(r.contains(63));
        assert!(r.contains(0));
        assert!(r.contains(3));
        assert!(!r.contains(4));
        assert!(!r.contains(30));
    }

    #[test]
    fn singleton_ring_owns_everything() {
        let s = IdSpace::new(6);
        let r = ResponsibilityRange::new(s, 5, 5);
        for pos in 0..64 {
            assert!(r.contains(pos));
        }
    }

    #[test]
    fn exactly_one_node_responsible_per_replica() {
        // Partition the ring among several nodes and check each replica
        // position has exactly one responsible node.
        let s = IdSpace::new(8); // N = 256
        let ids = [3u64, 50, 90, 170, 240];
        let ranges: Vec<ResponsibilityRange> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let succ = ids[(i + 1) % ids.len()];
                ResponsibilityRange::new(s, id, succ)
            })
            .collect();
        for seg in 1..200u64 {
            for i in 1..=4u32 {
                let responsible = ranges
                    .iter()
                    .filter(|r| r.responsible_for_replica(seg, i))
                    .count();
                assert_eq!(responsible, 1, "segment {seg} replica {i}");
            }
        }
    }

    #[test]
    fn responsible_for_lists_matching_replicas() {
        let s = IdSpace::new(4); // tiny ring: N = 16, collisions certain
        let r = ResponsibilityRange::new(s, 0, 8); // owns half the ring
        let seg = 42;
        let mine: Vec<u32> = (1..=8)
            .filter(|&i| r.responsible_for_replica(seg, i))
            .collect();
        // Each of the 8 replica positions is in [0, 8) with p = 1/2;
        // verify against direct computation.
        let direct: Vec<u32> = (1..=8u32)
            .filter(|&i| {
                let pos = s.wrap(common_hash(seg * i as u64));
                pos < 8
            })
            .collect();
        assert_eq!(mine, direct);
    }

    #[test]
    fn additive_variant_differs() {
        let s = space();
        assert_ne!(
            backup_targets(s, 1234, 4),
            backup_targets_additive(s, 1234, 4)
        );
    }
}

//! Circular ID-space arithmetic.
//!
//! The ID space has size `N = 2^bits` ("N is the maximum number of nodes
//! the overlay can accommodate, i.e. the size of ID space", §4.1); all
//! arithmetic is modulo `N` and *clockwise* means increasing IDs.

/// A node or key identifier within an [`IdSpace`]. Stored raw; all
/// interpretation goes through the space.
pub type DhtId = u64;

/// A power-of-two circular identifier space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// A space of size `2^bits`.
    ///
    /// # Panics
    /// If `bits` is 0 or greater than 63.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=63).contains(&bits),
            "ID space must have between 1 and 63 bits, got {bits}"
        );
        IdSpace { bits }
    }

    /// The space just large enough to hold `n` nodes with at least the
    /// paper's sparsity (the paper's Figure 3 setup uses `N = 8192` for up
    /// to 8000 nodes; the full system uses `N ≥ 2·n` by default elsewhere).
    pub fn for_capacity(n: u64) -> Self {
        let bits = 64 - n.max(2).next_power_of_two().leading_zeros() - 1;
        IdSpace::new(bits.max(1))
    }

    /// `log₂ N` — also the number of DHT peer levels a node keeps.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The size `N` of the space.
    pub fn size(&self) -> u64 {
        1u64 << self.bits
    }

    /// Reduce an arbitrary value into the space.
    #[inline]
    pub fn wrap(&self, x: u64) -> DhtId {
        x & (self.size() - 1)
    }

    /// True if `x` is a valid ID in this space.
    #[inline]
    pub fn contains(&self, x: DhtId) -> bool {
        x < self.size()
    }

    /// The clockwise distance from `a` to `b`: how far IDs must increase
    /// (mod N) to get from `a` to `b`. Zero iff `a == b`.
    #[inline]
    pub fn clockwise_dist(&self, a: DhtId, b: DhtId) -> u64 {
        debug_assert!(self.contains(a) && self.contains(b));
        self.wrap(b.wrapping_sub(a))
    }

    /// True if `x` lies in the clockwise half-open interval `[from, to)`.
    /// The interval may wrap; `[a, a)` is empty.
    #[inline]
    pub fn in_interval(&self, x: DhtId, from: DhtId, to: DhtId) -> bool {
        if from == to {
            return false;
        }
        self.clockwise_dist(from, x) < self.clockwise_dist(from, to)
    }

    /// The level (1-based) at which node `n` would file a peer `p`:
    /// the unique `i` with `p ∈ [n + 2^(i-1), n + 2^i)`, i.e.
    /// `i = ⌊log₂(clockwise_dist(n, p))⌋ + 1`. Returns `None` for `p == n`.
    #[inline]
    pub fn level_of(&self, n: DhtId, p: DhtId) -> Option<u32> {
        let d = self.clockwise_dist(n, p);
        if d == 0 {
            None
        } else {
            Some(63 - d.leading_zeros() + 1)
        }
    }

    /// The clockwise interval `[n + 2^(i-1), n + 2^i)` of level `i`
    /// (1-based) peers of node `n`, as `(from, to)`.
    #[inline]
    pub fn level_interval(&self, n: DhtId, level: u32) -> (DhtId, DhtId) {
        assert!(
            (1..=self.bits).contains(&level),
            "level must be in 1..={}, got {level}",
            self.bits
        );
        let from = self.wrap(n.wrapping_add(1u64 << (level - 1)));
        let to = self.wrap(n.wrapping_add(1u64 << level));
        (from, to)
    }
}

/// A dense `DhtId → arena slot` table over a whole [`IdSpace`]: one `u32`
/// per id, allocated once at `space.size()` entries and never grown, so a
/// lookup is a bounds-checked array load and iteration is in ascending id
/// order. Both node arenas (the DHT's and the full-system simulator's)
/// resolve ids through one of these.
///
/// Ids are `< N` by construction (§4.1: `N` is "the maximum number of
/// nodes the overlay can accommodate"), which is what makes a table
/// indexed by id affordable; [`IdSlotTable::MAX_IDS`] bounds it.
#[derive(Debug, Clone)]
pub struct IdSlotTable {
    /// `slots[id]` is the slot of live id `id`, `VACANT` otherwise.
    slots: Vec<u32>,
    len: usize,
}

impl IdSlotTable {
    /// The largest ID space a table may cover: 2^28 ids (1 GiB of slots).
    pub const MAX_IDS: u64 = 1 << 28;

    const VACANT: u32 = u32::MAX;

    /// An empty table over `space`.
    ///
    /// # Panics
    /// If the space holds more than [`IdSlotTable::MAX_IDS`] ids.
    pub fn new(space: IdSpace) -> Self {
        assert!(
            space.size() <= Self::MAX_IDS,
            "ID space of {} ids is too large for a dense id table (at most {} ids, 2^28)",
            space.size(),
            Self::MAX_IDS
        );
        IdSlotTable {
            slots: vec![Self::VACANT; space.size() as usize],
            len: 0,
        }
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot of `id`; `None` for ids that are vacant or outside the
    /// space.
    #[inline]
    pub fn get(&self, id: DhtId) -> Option<u32> {
        match self.slots.get(id as usize) {
            Some(&s) if s != Self::VACANT => Some(s),
            _ => None,
        }
    }

    /// Map `id` to `slot`, returning the slot it was mapped to before.
    ///
    /// # Panics
    /// If `id` lies outside the space or `slot` is `u32::MAX`.
    pub fn insert(&mut self, id: DhtId, slot: u32) -> Option<u32> {
        assert!(slot != Self::VACANT, "slot u32::MAX is reserved");
        let prev = std::mem::replace(&mut self.slots[id as usize], slot);
        if prev == Self::VACANT {
            self.len += 1;
            None
        } else {
            Some(prev)
        }
    }

    /// Unmap `id`, returning the slot it was mapped to.
    pub fn remove(&mut self, id: DhtId) -> Option<u32> {
        let slot = self.get(id)?;
        self.slots[id as usize] = Self::VACANT;
        self.len -= 1;
        Some(slot)
    }

    /// The live `(id, slot)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (DhtId, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != Self::VACANT)
            .map(|(id, &s)| (id as DhtId, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;
    use rand::Rng;

    #[test]
    fn id_slot_table_matches_a_hash_map() {
        // Model test: random insert / remove / re-insert of the same id
        // under a different slot, against std's map.
        let mut rng = RngTree::new(14).child("id-slot-table");
        for case in 0..50 {
            let space = IdSpace::new(rng.gen_range(1u32..9));
            let mut table = IdSlotTable::new(space);
            let mut model = std::collections::HashMap::new();
            for step in 0..400 {
                let id = rng.gen_range(0..space.size());
                if rng.gen_bool(0.6) {
                    let slot = rng.gen_range(0u32..1000);
                    assert_eq!(table.insert(id, slot), model.insert(id, slot));
                } else {
                    assert_eq!(table.remove(id), model.remove(&id));
                }
                assert_eq!(table.len(), model.len(), "case {case} step {step}");
                assert_eq!(table.is_empty(), model.is_empty());
                let probe = rng.gen_range(0..space.size());
                assert_eq!(table.get(probe), model.get(&probe).copied());
            }
            let listed: Vec<(DhtId, u32)> = table.iter().collect();
            let mut expect: Vec<(DhtId, u32)> = model.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(listed, expect, "case {case}: ascending id order");
            // Ids beyond the space are simply absent.
            assert_eq!(table.get(space.size()), None);
            assert_eq!(table.remove(space.size() + 7), None);
        }
    }

    #[test]
    #[should_panic(expected = "too large for a dense id table (at most 268435456 ids")]
    fn id_slot_table_rejects_an_oversized_space() {
        let _ = IdSlotTable::new(IdSpace::new(29));
    }

    #[test]
    fn size_and_wrap() {
        let s = IdSpace::new(13);
        assert_eq!(s.size(), 8192);
        assert_eq!(s.wrap(8192), 0);
        assert_eq!(s.wrap(8193), 1);
        assert!(s.contains(8191));
        assert!(!s.contains(8192));
    }

    #[test]
    fn for_capacity_gives_enough_room() {
        assert_eq!(IdSpace::for_capacity(8000).size(), 8192);
        assert_eq!(IdSpace::for_capacity(8192).size(), 8192);
        assert_eq!(IdSpace::for_capacity(8193).size(), 16384);
        assert!(IdSpace::for_capacity(1).size() >= 2);
    }

    #[test]
    fn clockwise_distance() {
        let s = IdSpace::new(4); // N = 16
        assert_eq!(s.clockwise_dist(3, 7), 4);
        assert_eq!(s.clockwise_dist(7, 3), 12); // wraps
        assert_eq!(s.clockwise_dist(5, 5), 0);
        assert_eq!(s.clockwise_dist(15, 0), 1);
    }

    #[test]
    fn intervals() {
        let s = IdSpace::new(4);
        assert!(s.in_interval(5, 3, 8));
        assert!(!s.in_interval(8, 3, 8), "interval is half-open");
        assert!(s.in_interval(3, 3, 8), "from is included");
        // Wrapping interval [14, 2): contains 14, 15, 0, 1.
        assert!(s.in_interval(15, 14, 2));
        assert!(s.in_interval(0, 14, 2));
        assert!(!s.in_interval(2, 14, 2));
        assert!(!s.in_interval(7, 14, 2));
        // Empty interval.
        assert!(!s.in_interval(5, 5, 5));
    }

    #[test]
    fn levels_partition_the_ring() {
        // Every non-self ID must fall in exactly one level interval.
        let s = IdSpace::new(6); // N = 64
        let n = 37;
        for p in 0..s.size() {
            if p == n {
                assert_eq!(s.level_of(n, p), None);
                continue;
            }
            let level = s.level_of(n, p).unwrap();
            assert!((1..=6).contains(&level));
            let (from, to) = s.level_interval(n, level);
            assert!(
                s.in_interval(p, from, to),
                "p={p} claims level {level} with interval [{from},{to})"
            );
            // No other level contains it.
            for l in 1..=6 {
                if l != level {
                    let (f, t) = s.level_interval(n, l);
                    assert!(!s.in_interval(p, f, t));
                }
            }
        }
    }

    #[test]
    fn level_interval_matches_paper_formula() {
        let s = IdSpace::new(13); // N = 8192
        let n = 100;
        // Level 1: [n+1, n+2); level 13: [n+4096, n+8192) mod N.
        assert_eq!(s.level_interval(n, 1), (101, 102));
        assert_eq!(s.level_interval(n, 13), (4196, s.wrap(100 + 8192)));
    }

    #[test]
    fn level_interval_wraps() {
        let s = IdSpace::new(4); // N = 16
        let (from, to) = s.level_interval(14, 2); // [14+2, 14+4) = [0, 2)
        assert_eq!((from, to), (0, 2));
    }

    #[test]
    #[should_panic(expected = "level must be in")]
    fn level_out_of_range_panics() {
        let s = IdSpace::new(4);
        let _ = s.level_interval(0, 5);
    }

    #[test]
    #[should_panic(expected = "between 1 and 63")]
    fn zero_bits_panics() {
        let _ = IdSpace::new(0);
    }
}

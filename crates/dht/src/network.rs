//! A whole DHT overlay: every node's peer table plus ring membership.
//!
//! This is the substrate for the Figure 3 experiment and for the
//! on-demand retrieval path of the full system. It deliberately stays
//! *structural*: latencies are supplied by the caller (derived from trace
//! ping times in the real experiments), and timing/byte accounting happens
//! in the layers above.
//!
//! ## Data layout: the node arena
//!
//! Node state lives in a dense arena (`Vec<Option<DhtNodeState>>` + free
//! list) addressed by [`DhtIdx`] slot handles, mirroring the node arena of
//! the full-system simulator. Ring membership is a sorted `Vec<DhtId>`
//! (binary-searched by `responsible_of`/`successor_of`/`predecessor_of`),
//! and ids resolve to slots through a dense [`IdSlotTable`] — one `u32`
//! per id of the space, allocated once in [`DhtNetwork::new`] and never
//! grown, so `lookup`/`contains` and the stale-hint fallback of the
//! routing loop are a single array load, not a hash probe. Inside the
//! routing loop every hop moves slot-to-slot through the slot hints
//! cached in [`DhtPeerEntry`], and the greedy next hop is read straight
//! off the level the target's distance falls in (see
//! [`DhtPeerTable::next_hop`]). Every decision (greedy next hop,
//! tie-breaks, table replacement, RNG consumption in `build`/`join`) is
//! keyed on `DhtId` exactly as in the `BTreeMap`-keyed implementation
//! this replaced, so routes are bit-identical (pinned by
//! `tests/dht_routing.rs`).
//!
//! [`DhtPeerEntry`]: crate::peers::DhtPeerEntry

use rand::Rng;

use cs_sim::SimRng;

use crate::id::{DhtId, IdSlotTable, IdSpace};
use crate::peers::{DhtPeerTable, NO_SLOT};
use crate::placement::ResponsibilityRange;

/// Dense handle into the DHT node arena. Plain slot index — the free
/// list reuses slots across churn, so a bare `DhtIdx` is only meaningful
/// while the node it was resolved for is alive; longer-lived references
/// carry the `DhtId` and re-resolve at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtIdx(pub(crate) u32);

impl DhtIdx {
    /// The raw slot index (for parallel bookkeeping structures).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-node DHT state.
#[derive(Debug, Clone)]
pub struct DhtNodeState {
    /// The node's level-constrained peer table.
    pub peers: DhtPeerTable,
}

/// Errors joining a node into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// The ID is already taken.
    IdTaken(DhtId),
    /// The ID does not fit the network's ID space.
    OutOfSpace(DhtId),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::IdTaken(id) => write!(f, "DHT id {id} is already taken"),
            JoinError::OutOfSpace(id) => write!(f, "DHT id {id} outside the ID space"),
        }
    }
}

impl std::error::Error for JoinError {}

/// How many candidates per level the table-builder samples before keeping
/// the lowest-latency one. Mirrors the paper's "much freedom in choosing
/// its DHT peers": any in-range node is legal, we just prefer nearby ones.
const CANDIDATES_PER_LEVEL: usize = 3;

/// How many live nodes a join announces the newcomer to.
const ANNOUNCE_SAMPLE: usize = 16;

/// The indices the shim's `choose_multiple(rng, amount)` picks from a
/// slice of `len` elements — same draws, same picks, same order, the RNG
/// left in the same state — handed to `pick` one at a time, without its
/// O(len) index vector: the same partial Fisher–Yates runs over a virtual
/// identity vector, and `disp` records the at most `2·amount` entries it
/// has displaced (`SLOTS` bounds that record).
fn choose_indices<const SLOTS: usize>(
    rng: &mut SimRng,
    len: usize,
    amount: usize,
    mut pick: impl FnMut(usize),
) {
    let amount = amount.min(len);
    assert!(2 * amount <= SLOTS, "SLOTS must hold 2·amount entries");
    let mut disp = [(usize::MAX, 0usize); SLOTS];
    let mut nd = 0usize;
    let idx_at = |disp: &[(usize, usize)], nd: usize, x: usize| {
        disp[..nd]
            .iter()
            .find(|d| d.0 == x)
            .map(|d| d.1)
            .unwrap_or(x)
    };
    for k in 0..amount {
        let j = rng.gen_range(k..len);
        let vk = idx_at(&disp, nd, k);
        let vj = idx_at(&disp, nd, j);
        for (x, v) in [(k, vj), (j, vk)] {
            match disp[..nd].iter_mut().find(|d| d.0 == x) {
                Some(d) => d.1 = v,
                None => {
                    disp[nd] = (x, v);
                    nd += 1;
                }
            }
        }
        pick(vj);
    }
}

/// The DHT overlay network.
#[derive(Debug, Clone)]
pub struct DhtNetwork {
    space: IdSpace,
    /// The node arena: `slots[i]` holds the node whose handle is
    /// `DhtIdx(i)`, `None` for vacant slots awaiting reuse.
    slots: Vec<Option<DhtNodeState>>,
    /// Vacant slot indices, reused LIFO by `join`.
    free: Vec<u32>,
    /// Live id → occupied slot.
    by_id: IdSlotTable,
    /// Live ids in ring (ascending) order; binary-searched by the
    /// ring-geometry queries and indexed directly by `random_id`.
    ring: Vec<DhtId>,
}

impl DhtNetwork {
    /// An empty network over the given ID space.
    ///
    /// # Panics
    /// If the space holds more than [`IdSlotTable::MAX_IDS`] (2^28) ids:
    /// the id → slot table is dense over the whole space.
    pub fn new(space: IdSpace) -> Self {
        DhtNetwork {
            space,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: IdSlotTable::new(space),
            ring: Vec::new(),
        }
    }

    /// Build a network over `ids`, populating every node's peer table from
    /// the live membership: for each level, sample a few in-range
    /// candidates and keep the lowest-latency one.
    ///
    /// # Panics
    /// If `ids` contains duplicates or out-of-space values.
    pub fn build(
        space: IdSpace,
        ids: &[DhtId],
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut net = DhtNetwork::new(space);
        // Slot `i` holds `ids[i]`; the id table is complete before any
        // table is built, so every candidate is filed with its slot hint.
        for (slot, &id) in ids.iter().enumerate() {
            assert!(space.contains(id), "id {id} outside the ID space");
            let prev = net.by_id.insert(id, slot as u32);
            assert!(prev.is_none(), "duplicate id {id}");
        }
        net.slots = vec![None; ids.len()];
        net.ring = ids.to_vec();
        net.ring.sort_unstable();
        // Tables are built in ring (ascending id) order, like the
        // id-keyed implementation iterated its sorted key set.
        for at in 0..net.ring.len() {
            let id = net.ring[at];
            let peers = net.build_table(id, &net.ring, latency_ms, rng);
            let slot = net.by_id.get(id).expect("just inserted");
            net.slots[slot as usize] = Some(DhtNodeState { peers });
        }
        net
    }

    fn build_table(
        &self,
        owner: DhtId,
        sorted_ids: &[DhtId],
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> DhtPeerTable {
        let mut table = DhtPeerTable::new(self.space, owner);
        for level in 1..=self.space.bits() {
            let (from, to) = self.space.level_interval(owner, level);
            let view = interval_view(self.space, sorted_ids, from, to);
            // `in_range.choose_multiple(rng, CANDIDATES_PER_LEVEL)` without
            // materialising the interval (the top level alone spans half
            // the ring, which made table construction O(N) per node, O(N²)
            // per build).
            choose_indices::<{ 2 * CANDIDATES_PER_LEVEL }>(
                rng,
                view.len(),
                CANDIDATES_PER_LEVEL,
                |i| {
                    let cand = view.get(i);
                    let hint = self.by_id.get(cand).unwrap_or(NO_SLOT);
                    table.offer_hinted(cand, latency_ms(owner, cand), hint);
                },
            );
        }
        table
    }

    /// The ID space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Number of arena slots ever allocated (occupied + vacant).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of vacant slots awaiting reuse.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// True when no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `id` is a live node.
    pub fn contains(&self, id: DhtId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// Iterate over live node IDs in ring order.
    pub fn ids(&self) -> impl Iterator<Item = DhtId> + '_ {
        self.ring.iter().copied()
    }

    /// The arena handle of a live node (the boundary id → slot step).
    pub fn lookup(&self, id: DhtId) -> Option<DhtIdx> {
        self.by_id.get(id).map(DhtIdx)
    }

    /// The id occupying an arena slot, if it is live.
    pub fn id_at(&self, idx: DhtIdx) -> Option<DhtId> {
        self.slots
            .get(idx.index())
            .and_then(|s| s.as_ref())
            .map(|n| n.peers.owner())
    }

    /// Borrow a node's state.
    pub fn node(&self, id: DhtId) -> Option<&DhtNodeState> {
        self.by_id.get(id).map(|s| {
            self.slots[s as usize]
                .as_ref()
                .expect("mapped slot occupied")
        })
    }

    /// Mutably borrow a node's state.
    pub fn node_mut(&mut self, id: DhtId) -> Option<&mut DhtNodeState> {
        match self.by_id.get(id) {
            Some(s) => self.slots[s as usize].as_mut(),
            None => None,
        }
    }

    /// Direct slot access for the routing hot loop (slot must be live).
    #[inline]
    pub(crate) fn state_at(&self, slot: u32) -> &DhtNodeState {
        self.slots[slot as usize]
            .as_ref()
            .expect("routing slot is live")
    }

    /// Mutable direct slot access for the routing hot loop.
    #[inline]
    pub(crate) fn state_at_mut(&mut self, slot: u32) -> &mut DhtNodeState {
        self.slots[slot as usize]
            .as_mut()
            .expect("routing slot is live")
    }

    /// Resolve an id to its current slot: fast path verifies the cached
    /// hint's occupant, slow path consults the id table (the id may
    /// occupy a different slot after leave + rejoin). `None` means the id
    /// is not currently alive.
    #[inline]
    pub(crate) fn resolve_slot(&self, id: DhtId, hint: u32) -> Option<u32> {
        if let Some(Some(n)) = self.slots.get(hint as usize) {
            if n.peers.owner() == id {
                return Some(hint);
            }
        }
        self.by_id.get(id)
    }

    /// Ground truth: the node *counter-clockwise closest* to `key` — the
    /// node that §4.3 makes responsible for ring position `key`. `None`
    /// on an empty network.
    pub fn responsible_of(&self, key: DhtId) -> Option<DhtId> {
        debug_assert!(self.space.contains(key));
        let i = self.ring.partition_point(|&x| x <= key);
        if i > 0 {
            Some(self.ring[i - 1])
        } else {
            self.ring.last().copied()
        }
    }

    /// The live successor of `id` on the ring (clockwise next node,
    /// excluding `id` itself); `None` if `id` is alone or absent.
    pub fn successor_of(&self, id: DhtId) -> Option<DhtId> {
        if self.ring.len() < 2 || !self.contains(id) {
            return None;
        }
        let i = self.ring.partition_point(|&x| x <= id);
        Some(if i < self.ring.len() {
            self.ring[i]
        } else {
            self.ring[0]
        })
    }

    /// The live predecessor of `id` on the ring (counter-clockwise next
    /// node, excluding `id` itself); `None` if `id` is alone or absent.
    pub fn predecessor_of(&self, id: DhtId) -> Option<DhtId> {
        if self.ring.len() < 2 || !self.contains(id) {
            return None;
        }
        let i = self.ring.partition_point(|&x| x < id);
        Some(if i > 0 {
            self.ring[i - 1]
        } else {
            *self.ring.last().expect("len >= 2")
        })
    }

    /// The responsibility range of a live node, derived from its *actual*
    /// ring successor (ground truth, used by tests and by the storage
    /// layer when redistributing after churn).
    pub fn responsibility_of(&self, id: DhtId) -> Option<ResponsibilityRange> {
        let succ = self.successor_of(id).unwrap_or(id);
        self.contains(id)
            .then(|| ResponsibilityRange::new(self.space, id, succ))
    }

    /// Join a new node: build its table from the live membership and
    /// advertise it to a handful of nodes that would file it (the nodes
    /// whose level intervals contain it), mimicking the announcement the
    /// join protocol sends to its close-ID contacts.
    pub fn join(
        &mut self,
        id: DhtId,
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> Result<(), JoinError> {
        if !self.space.contains(id) {
            return Err(JoinError::OutOfSpace(id));
        }
        if self.contains(id) {
            return Err(JoinError::IdTaken(id));
        }
        // Both the newcomer's table and the announcement sample are drawn
        // from the pre-join membership, so they are taken before `id`
        // enters the ring (table draws first, then the sample's).
        let table = self.build_table(id, &self.ring, latency_ms, rng);
        let mut sample = [0; ANNOUNCE_SAMPLE];
        let mut sampled = 0;
        choose_indices::<{ 2 * ANNOUNCE_SAMPLE }>(rng, self.ring.len(), ANNOUNCE_SAMPLE, |i| {
            sample[sampled] = self.ring[i];
            sampled += 1;
        });

        let node = Some(DhtNodeState { peers: table });
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none(), "free slot occupied");
                self.slots[s as usize] = node;
                s
            }
            None => {
                self.slots.push(node);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id.insert(id, slot);
        let at = self.ring.partition_point(|&x| x < id);
        self.ring.insert(at, id);

        // The predecessor must learn its new closest-clockwise peer: that
        // peer bounds the predecessor's backup range [n, n₁).
        if let Some(pred) = self.predecessor_of(id) {
            let lat = latency_ms(pred, id);
            if let Some(state) = self.node_mut(pred) {
                state.peers.offer_closer_hinted(id, lat, slot);
            }
        }
        // Tell the sample about the newcomer; the rest will learn by
        // overhearing routed messages.
        for &other in &sample[..sampled] {
            let lat = latency_ms(other, id);
            if let Some(state) = self.node_mut(other) {
                state.peers.offer_hinted(id, lat, slot);
            }
        }
        Ok(())
    }

    /// Remove a node. Dangling references in other tables are repaired
    /// lazily by the router. Returns `true` if the node was present.
    pub fn leave(&mut self, id: DhtId) -> bool {
        let Some(slot) = self.by_id.remove(id) else {
            return false;
        };
        let node = self.slots[slot as usize].take();
        debug_assert!(node.is_some(), "mapped slot occupied");
        self.free.push(slot);
        let at = self.ring.partition_point(|&x| x < id);
        debug_assert!(
            self.ring.get(at) == Some(&id),
            "ring in sync with the id table"
        );
        self.ring.remove(at);
        true
    }

    /// Age every table by one maintenance period (stale entries become
    /// replaceable by any overheard candidate).
    pub fn tick_tables(&mut self) {
        for state in self.slots.iter_mut().flatten() {
            state.peers.tick();
        }
    }

    /// A uniformly random live node ID.
    pub fn random_id(&self, rng: &mut SimRng) -> Option<DhtId> {
        if self.ring.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.ring.len());
        Some(self.ring[idx])
    }

    /// Check every node's level invariant plus the arena's structural
    /// invariants (id table ↔ slots ↔ ring ↔ free list); `Err` describes
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Ring: strictly ascending, exactly the live membership.
        if let Some(w) = self.ring.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "ring not strictly ascending at {} >= {}",
                w[0], w[1]
            ));
        }
        if self.ring.len() != self.by_id.len() {
            return Err(format!(
                "ring has {} ids but the id table has {}",
                self.ring.len(),
                self.by_id.len()
            ));
        }
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != self.by_id.len() {
            return Err(format!(
                "{} occupied slots but {} mapped ids",
                occupied,
                self.by_id.len()
            ));
        }
        if self.free.len() + occupied != self.slots.len() {
            return Err(format!(
                "free list ({}) + occupied ({}) != slots ({})",
                self.free.len(),
                occupied,
                self.slots.len()
            ));
        }
        for &f in &self.free {
            if self.slots.get(f as usize).is_none_or(|s| s.is_some()) {
                return Err(format!("free-list slot {f} is not vacant"));
            }
        }
        // Per-node, in ring order (like the id-keyed implementation walked
        // its sorted key set): the table's own ascending enumeration is
        // the ring, each id points at a slot owned by that id, and the
        // level invariant holds.
        for ((id, slot), &ring_id) in self.by_id.iter().zip(&self.ring) {
            if id != ring_id {
                return Err(format!("id table lists {id} where the ring has {ring_id}"));
            }
            let Some(Some(state)) = self.slots.get(slot as usize) else {
                return Err(format!("id {id} maps to vacant slot {slot}"));
            };
            if state.peers.owner() != id {
                return Err(format!(
                    "id {id} maps to slot {slot} owned by {}",
                    state.peers.owner()
                ));
            }
            state
                .peers
                .check_invariants()
                .map_err(|e| format!("node {id}: {e}"))?;
        }
        Ok(())
    }
}

/// A zero-copy view of the IDs from a sorted slice lying in the (possibly
/// wrapping) clockwise interval `[from, to)`: one or two contiguous
/// sub-slices. Enumerates exactly the sequence the eager
/// `ids_in_interval` helper used to collect (the wrapping `[from, N)`
/// segment first).
///
/// It needs no exclusion: a table owner never lies in its own level
/// intervals (their distances from it are in `[2^(i-1), 2^i)`, never 0),
/// and a joiner's table is built before it enters the ring.
struct IntervalView<'a> {
    first: &'a [DhtId],
    second: &'a [DhtId],
}

impl IntervalView<'_> {
    fn len(&self) -> usize {
        self.first.len() + self.second.len()
    }

    fn get(&self, i: usize) -> DhtId {
        if i < self.first.len() {
            self.first[i]
        } else {
            self.second[i - self.first.len()]
        }
    }
}

fn interval_view(space: IdSpace, sorted_ids: &[DhtId], from: DhtId, to: DhtId) -> IntervalView<'_> {
    let range = |lo: DhtId, hi_excl: DhtId| {
        let start = sorted_ids.partition_point(|&x| x < lo);
        let end = sorted_ids.partition_point(|&x| x < hi_excl);
        &sorted_ids[start..end]
    };
    let (first, second) = if from < to {
        (range(from, to), &sorted_ids[0..0])
    } else {
        // Wraps: [from, N) ∪ [0, to).
        (range(from, space.size()), range(0, to))
    };
    IntervalView { first, second }
}

/// All IDs from `sorted_ids` lying in the (possibly wrapping) clockwise
/// interval `[from, to)`. Reference model for [`interval_view`] (the hot
/// path no longer materialises intervals).
#[cfg(test)]
fn ids_in_interval(space: IdSpace, sorted_ids: &[DhtId], from: DhtId, to: DhtId) -> Vec<DhtId> {
    let mut out = Vec::new();
    let mut push_range = |lo: DhtId, hi_excl: DhtId| {
        // indices of ids in [lo, hi_excl)
        let start = sorted_ids.partition_point(|&x| x < lo);
        let end = sorted_ids.partition_point(|&x| x < hi_excl);
        out.extend_from_slice(&sorted_ids[start..end]);
    };
    if from < to {
        push_range(from, to);
    } else {
        // Wraps: [from, N) ∪ [0, to).
        push_range(from, space.size());
        push_range(0, to);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;
    use rand::seq::SliceRandom;

    fn flat_latency(_: DhtId, _: DhtId) -> f64 {
        10.0
    }

    fn build_net(n: usize, bits: u32, seed: u64) -> DhtNetwork {
        let mut rng = RngTree::new(seed).child("dht-net");
        let space = IdSpace::new(bits);
        // Random distinct IDs.
        let mut ids: Vec<DhtId> = Vec::with_capacity(n);
        let mut used = std::collections::HashSet::new();
        while ids.len() < n {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        DhtNetwork::build(space, &ids, &flat_latency, &mut rng)
    }

    #[test]
    fn build_fills_reachable_levels() {
        let net = build_net(500, 13, 1);
        net.check_invariants().unwrap();
        // With 500 nodes in 8192 positions most high levels must be
        // filled; the very low levels (intervals of size 1 or 2) are
        // usually empty.
        let avg_filled: f64 = net
            .ids()
            .map(|id| net.node(id).unwrap().peers.filled() as f64)
            .sum::<f64>()
            / net.len() as f64;
        assert!(
            avg_filled >= 6.0,
            "average filled levels {avg_filled} too low for n=500, N=8192"
        );
    }

    #[test]
    fn responsible_of_is_ccw_closest() {
        let space = IdSpace::new(6);
        let mut rng = RngTree::new(2).child("x");
        let net = DhtNetwork::build(space, &[10, 20, 40], &flat_latency, &mut rng);
        assert_eq!(net.responsible_of(10), Some(10));
        assert_eq!(net.responsible_of(15), Some(10));
        assert_eq!(net.responsible_of(39), Some(20));
        assert_eq!(net.responsible_of(63), Some(40));
        // Wrap: positions before the first node belong to the last node.
        assert_eq!(net.responsible_of(5), Some(40));
    }

    #[test]
    fn successor_wraps() {
        let space = IdSpace::new(6);
        let mut rng = RngTree::new(3).child("x");
        let net = DhtNetwork::build(space, &[10, 20, 40], &flat_latency, &mut rng);
        assert_eq!(net.successor_of(10), Some(20));
        assert_eq!(net.successor_of(40), Some(10));
        assert_eq!(net.successor_of(99), None);
    }

    #[test]
    fn responsibility_partition_covers_ring() {
        let net = build_net(50, 10, 4);
        let space = net.space();
        for key in (0..space.size()).step_by(7) {
            let owner = net.responsible_of(key).unwrap();
            let range = net.responsibility_of(owner).unwrap();
            assert!(range.contains(key), "key {key} not in its owner's range");
        }
    }

    #[test]
    fn join_and_leave() {
        let mut net = build_net(100, 10, 5);
        let mut rng = RngTree::new(5).child("join");
        // Find a free ID.
        let free = (0..net.space().size())
            .find(|&id| !net.contains(id))
            .unwrap();
        net.join(free, &flat_latency, &mut rng).unwrap();
        assert!(net.contains(free));
        assert!(net.node(free).unwrap().peers.filled() > 0);
        assert_eq!(
            net.join(free, &flat_latency, &mut rng),
            Err(JoinError::IdTaken(free))
        );
        assert!(net.leave(free));
        assert!(!net.leave(free));
    }

    #[test]
    fn join_out_of_space_rejected() {
        let mut net = build_net(10, 6, 6);
        let mut rng = RngTree::new(6).child("join");
        assert_eq!(
            net.join(64, &flat_latency, &mut rng),
            Err(JoinError::OutOfSpace(64))
        );
    }

    #[test]
    #[should_panic(expected = "too large for a dense id table (at most 268435456 ids, 2^28)")]
    fn oversized_space_is_rejected_at_construction() {
        let _ = DhtNetwork::new(IdSpace::new(29));
    }

    #[test]
    fn newcomer_is_advertised() {
        let mut net = build_net(200, 10, 7);
        let mut rng = RngTree::new(7).child("join");
        let free = (0..net.space().size())
            .find(|&id| !net.contains(id))
            .unwrap();
        let pred = {
            let mut tmp = net.clone();
            tmp.join(free, &flat_latency, &mut rng).unwrap();
            tmp.predecessor_of(free).unwrap()
        };
        net.join(free, &flat_latency, &mut RngTree::new(7).child("join2"))
            .unwrap();
        // At minimum the ring predecessor must have filed the newcomer:
        // its backup-responsibility range depends on it.
        assert!(
            net.node(pred).unwrap().peers.peers().any(|p| p.id == free),
            "predecessor {pred} should have filed the newcomer {free}"
        );
    }

    #[test]
    fn ids_in_interval_wrapping() {
        let space = IdSpace::new(6);
        let ids = [1u64, 5, 20, 60, 62];
        // Wrapping interval: the [from, N) segment comes first.
        let v = ids_in_interval(space, &ids, 58, 6);
        assert_eq!(v, vec![60, 62, 1, 5]);
        let v2 = ids_in_interval(space, &ids, 2, 21);
        assert_eq!(v2, vec![5, 20]);
    }

    #[test]
    fn interval_view_matches_reference() {
        let mut rng = RngTree::new(11).child("view");
        for case in 0..300 {
            let bits = rng.gen_range(2u32..10);
            let space = IdSpace::new(bits);
            let n = rng.gen_range(0usize..40);
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                set.insert(rng.gen_range(0..space.size()));
            }
            let sorted: Vec<DhtId> = set.into_iter().collect();
            let from = rng.gen_range(0..space.size());
            let to = rng.gen_range(0..space.size());
            let reference = ids_in_interval(space, &sorted, from, to);
            let view = interval_view(space, &sorted, from, to);
            let listed: Vec<DhtId> = (0..view.len()).map(|i| view.get(i)).collect();
            assert_eq!(listed, reference, "case {case} [{from}, {to})");
        }
    }

    /// Why `interval_view` needs no exclusion: over seeded rings, sparse
    /// to full, no owner appears in its own level intervals, and neither
    /// does a joiner once it is in the ring (its table is built before).
    #[test]
    fn no_node_lies_in_its_own_level_intervals() {
        let mut rng = RngTree::new(12).child("own-levels");
        for case in 0..200 {
            let bits = rng.gen_range(1u32..10);
            let space = IdSpace::new(bits);
            let n = space.size();
            let mut set = std::collections::BTreeSet::new();
            if case % 5 == 0 {
                set.extend(0..n); // a full space
            } else {
                // Both ends of the space, plus a random few.
                set.extend([0, n - 1]);
                for _ in 0..rng.gen_range(0..n) {
                    set.insert(rng.gen_range(0..n));
                }
            }
            let ring: Vec<DhtId> = set.iter().copied().collect();
            // Every owner, and joiners that are not (yet) in the ring:
            // checked against the ring as it is once they have joined.
            let joiners: Vec<DhtId> = (0..n).filter(|id| !set.contains(id)).take(8).collect();
            for &id in ring.iter().chain(&joiners) {
                let mut with_id = ring.clone();
                if let Err(at) = with_id.binary_search(&id) {
                    with_id.insert(at, id);
                }
                for level in 1..=bits {
                    let (from, to) = space.level_interval(id, level);
                    assert!(
                        !space.in_interval(id, from, to),
                        "case {case}: {id} level {level}"
                    );
                    let view = interval_view(space, &with_id, from, to);
                    assert!(
                        (0..view.len()).all(|i| view.get(i) != id),
                        "case {case}: {id} listed at level {level}"
                    );
                }
            }
        }
    }

    /// `choose_indices` against the shim's `choose_multiple` over an
    /// index slice: same picks, same order, same RNG state afterwards.
    #[test]
    fn choose_indices_matches_choose_multiple() {
        let mut seeds = RngTree::new(13).child("choose");
        for case in 0..1_000u64 {
            let (len, amount) = match case {
                0 => (0, 3),
                1 => (1, 3),
                2 => (1, 16),
                3 => (2, 16),
                _ => (
                    seeds.gen_range(0usize..64),
                    seeds.gen_range(0..=ANNOUNCE_SAMPLE),
                ),
            };
            let mut shim = RngTree::new(case).child("pick");
            let mut ours = shim.clone();
            let all: Vec<usize> = (0..len).collect();
            let want: Vec<usize> = all.choose_multiple(&mut shim, amount).copied().collect();
            let mut got = Vec::new();
            choose_indices::<{ 2 * ANNOUNCE_SAMPLE }>(&mut ours, len, amount, |i| got.push(i));
            assert_eq!(got, want, "case {case}: len {len}, amount {amount}");
            assert_eq!(ours, shim, "case {case}: RNG state diverged");
        }
    }

    #[test]
    fn random_id_is_live() {
        let net = build_net(30, 8, 8);
        let mut rng = RngTree::new(8).child("r");
        for _ in 0..20 {
            let id = net.random_id(&mut rng).unwrap();
            assert!(net.contains(id));
        }
        let empty = DhtNetwork::new(IdSpace::new(4));
        let mut rng2 = RngTree::new(8).child("r2");
        assert!(empty.random_id(&mut rng2).is_none());
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut net = build_net(50, 10, 9);
        let mut rng = RngTree::new(9).child("churn");
        let before = net.slot_count();
        // Leave 10, rejoin 10: no arena growth.
        let victims: Vec<DhtId> = net.ids().take(10).collect();
        for v in &victims {
            assert!(net.leave(*v));
        }
        assert_eq!(net.free_count(), 10);
        let mut joined = 0;
        while joined < 10 {
            let id = rng.gen_range(0..net.space().size());
            if net.join(id, &flat_latency, &mut rng).is_ok() {
                joined += 1;
            }
        }
        assert_eq!(net.slot_count(), before, "rejoins must reuse freed slots");
        assert_eq!(net.free_count(), 0);
        net.check_invariants().unwrap();
    }

    #[test]
    fn lookup_and_id_at_roundtrip() {
        let net = build_net(40, 9, 10);
        for id in net.ids().collect::<Vec<_>>() {
            let idx = net.lookup(id).expect("live id resolves");
            assert_eq!(net.id_at(idx), Some(id));
        }
    }
}

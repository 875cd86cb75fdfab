//! The simulator's data layout: the dense node arena and the persistent
//! per-round scratch. Types only — every phase that reads or mutates
//! them lives in a sibling module.

use cs_dht::{DhtId, IdSlotTable, IdSpace};
use cs_net::{NodeBandwidth, TrafficCounter};
use cs_overlay::{ConnectedNeighbors, NeighborEntry, OverheardList};
use cs_trace::derive_latency;

use crate::backup::VodBackupStore;
use crate::buffer::StreamBuffer;
use crate::config::SystemConfig;
use crate::rate::RateController;
use crate::retrieval::RetrievalScratch;
use crate::scheduler::{Assignment, MaskCandidate, SchedulerScratch};
use crate::urgent::UrgentLine;
use crate::SegmentId;

use super::twin::TwinAnnounce;

/// Dense handle into the node arena. Plain slot index — the arena's
/// free-list may reuse slots across churn, so a bare `NodeIdx` is only
/// meaningful while the node it was created for is alive; longer-lived
/// references use [`PeerRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) struct NodeIdx(pub(super) u32);

pub(super) const INVALID_SLOT: u32 = u32::MAX;

/// A peer handle: `DhtId` identity plus a cached arena slot.
///
/// Equality and ordering are **by id only** — the slot is a lookup
/// accelerator that may go stale under churn (the arena re-resolves it
/// through the id table when it does). So every comparison and
/// tie-break is a function of ids, whichever slot a node occupies.
#[derive(Debug, Clone, Copy)]
pub(super) struct PeerRef {
    pub(super) id: DhtId,
    pub(super) slot: u32,
}

impl PartialEq for PeerRef {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for PeerRef {}
impl PartialOrd for PeerRef {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PeerRef {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// A partner-table entry for a peer that has supplied nothing yet.
pub(super) fn fresh_neighbor(id: PeerRef, latency_ms: f64) -> NeighborEntry<PeerRef> {
    NeighborEntry {
        id,
        latency_ms,
        recent_supply_kbps: 0.0,
    }
}

/// Per-node simulation state.
pub(super) struct NodeSim {
    /// The node's DHT identifier; also the generation check for arena
    /// slot reuse (a stale `PeerRef` whose slot now holds a different id
    /// falls back to the id table).
    pub(super) id: DhtId,
    /// Unique lifetime stamp assigned by the arena on insertion. Ids can
    /// be reassigned (the RP server frees departed ids) and slots are
    /// reused, so `(slot, id)` does not identify a node *lifetime* —
    /// this does; the buffer-map exchange keys its snapshot reuse on it.
    pub(super) birth: u64,
    pub(super) bandwidth: NodeBandwidth,
    pub(super) connected: ConnectedNeighbors<PeerRef>,
    pub(super) overheard: OverheardList<PeerRef>,
    pub(super) buffer: StreamBuffer,
    pub(super) backup: VodBackupStore,
    pub(super) rate: RateController<PeerRef>,
    pub(super) urgent: UrgentLine,
    /// Next segment to play; `None` until playback starts.
    pub(super) next_play: Option<SegmentId>,
    /// Round at which the node first received any data; playback starts
    /// a fixed buffering delay after this.
    pub(super) first_data_round: Option<u32>,
    /// Round the node entered the overlay (0 for initial members); fresh
    /// nodes get a catch-up grace before the rescue cap applies.
    pub(super) spawn_round: u32,
    /// Segments obtained by pre-fetch, pending the §4.3 Case-2
    /// (repeated-data) check until the play point passes them.
    pub(super) prefetch_tags: PrefetchTags,
    /// Segments received (gossip + pre-fetch) during the previous round;
    /// drives the "supplied little data" neighbour-replacement rule.
    pub(super) last_inflow: u32,
    /// Segments received so far in the current round.
    pub(super) round_inflow: u32,
    /// Fractional left-over outbound budget carried between rounds.
    pub(super) outbound_carry: f64,
    /// Fractional left-over inbound budget carried between rounds.
    pub(super) inbound_carry: f64,
    /// VCR pause: playback is frozen (the play point holds still) but the
    /// node keeps buffering and serving. Set only through
    /// [`SystemEvent::Pause`]/[`SystemEvent::Resume`].
    pub(super) paused: bool,
    pub(super) is_source: bool,
}

/// A node's pre-fetch tags: a sorted, duplicate-free `Vec` (the
/// [`VodBackupStore`] pattern). A node holds a handful of tags at a time
/// — the round's fetches until the play point passes them — so binary
/// search plus shift beats hashing, and nothing allocates while the tags
/// fit the capacity the node was built with.
pub(super) struct PrefetchTags(Vec<SegmentId>);

impl PrefetchTags {
    pub(super) fn with_capacity(tags: usize) -> Self {
        PrefetchTags(Vec::with_capacity(tags))
    }

    /// Tag `seg` (a no-op when it is already tagged).
    pub(super) fn insert(&mut self, seg: SegmentId) {
        if let Err(pos) = self.0.binary_search(&seg) {
            self.0.insert(pos, seg);
        }
    }

    /// Untag `seg`; whether it was tagged.
    pub(super) fn take(&mut self, seg: SegmentId) -> bool {
        match self.0.binary_search(&seg) {
            Ok(pos) => {
                self.0.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Drop every tag below `floor`.
    pub(super) fn prune_below(&mut self, floor: SegmentId) {
        let k = self.0.partition_point(|&s| s < floor);
        self.0.drain(..k);
    }
}

/// The dense node store: occupied slots + free list + the dense
/// `DhtId → slot` table (one `u32` per id of the space, allocated once),
/// plus the slot-indexed ping array behind the latency oracle.
///
/// The oracle ([`Self::latency`]) is what the DHT calls for every
/// overheard offer — O(path²) times per route, some 80 calls per
/// Algorithm 2 retrieval — so [`Self::ping_of`] is two array loads (id →
/// slot → ping) and never touches a `NodeSim`.
pub(super) struct NodeArena {
    pub(super) slots: Vec<Option<NodeSim>>,
    pub(super) free: Vec<u32>,
    pub(super) by_id: IdSlotTable,
    /// `pings[slot]` is the ping time of the slot's occupant; a vacant
    /// slot keeps its last occupant's, which no id resolves to.
    pings: Vec<f64>,
    /// Monotonic birth-stamp counter (see `NodeSim::birth`).
    pub(super) next_birth: u64,
}

impl NodeArena {
    /// An empty arena for ids of `space`, with room for `n` nodes.
    pub(super) fn new(space: IdSpace, n: usize) -> Self {
        NodeArena {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            by_id: IdSlotTable::new(space),
            pings: Vec::with_capacity(n),
            next_birth: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.by_id.len()
    }

    pub(super) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(super) fn insert(&mut self, mut node: NodeSim, ping_ms: f64) -> NodeIdx {
        let id = node.id;
        node.birth = self.next_birth;
        self.next_birth += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(node);
                self.pings[s as usize] = ping_ms;
                s
            }
            None => {
                self.slots.push(Some(node));
                self.pings.push(ping_ms);
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.by_id.insert(id, slot);
        debug_assert!(prev.is_none(), "duplicate node id {id}");
        NodeIdx(slot)
    }

    pub(super) fn remove_id(&mut self, id: DhtId) -> Option<NodeSim> {
        let slot = self.by_id.remove(id)?;
        let node = self.slots[slot as usize].take();
        debug_assert!(node.is_some());
        self.free.push(slot);
        node
    }

    #[inline]
    pub(super) fn lookup(&self, id: DhtId) -> Option<NodeIdx> {
        self.by_id.get(id).map(NodeIdx)
    }

    /// A `PeerRef` for a node that may or may not be alive; dead ids get
    /// an invalid cached slot and resolve to `None` until (unless) the id
    /// comes alive again.
    #[inline]
    pub(super) fn make_ref(&self, id: DhtId) -> PeerRef {
        PeerRef {
            id,
            slot: self.by_id.get(id).unwrap_or(INVALID_SLOT),
        }
    }

    /// Resolve a peer handle to its current arena slot: fast path checks
    /// the cached slot's identity, slow path re-consults the id table (the
    /// id may live in a different slot after leave + rejoin). `None`
    /// means the id is not currently alive.
    #[inline]
    pub(super) fn resolve(&self, r: PeerRef) -> Option<NodeIdx> {
        if let Some(Some(n)) = self.slots.get(r.slot as usize) {
            if n.id == r.id {
                return Some(NodeIdx(r.slot));
            }
        }
        self.lookup(r.id)
    }

    #[inline]
    pub(super) fn get(&self, idx: NodeIdx) -> Option<&NodeSim> {
        self.slots.get(idx.0 as usize).and_then(|s| s.as_ref())
    }

    #[inline]
    pub(super) fn node(&self, idx: NodeIdx) -> &NodeSim {
        self.slots[idx.0 as usize]
            .as_ref()
            .expect("NodeIdx points at a live node")
    }

    #[inline]
    pub(super) fn node_mut(&mut self, idx: NodeIdx) -> &mut NodeSim {
        self.slots[idx.0 as usize]
            .as_mut()
            .expect("NodeIdx points at a live node")
    }

    /// Ping time of a live node.
    #[inline]
    pub(super) fn ping_at(&self, idx: NodeIdx) -> f64 {
        debug_assert!(self.get(idx).is_some(), "NodeIdx points at a live node");
        self.pings[idx.0 as usize]
    }

    /// Ping time of `id`; ids that are not (or no longer) alive read a
    /// 50 ms default.
    #[inline]
    pub(super) fn ping_of(&self, id: DhtId) -> f64 {
        self.by_id.get(id).map_or(50.0, |s| self.pings[s as usize])
    }

    /// Latency between two ids at the DHT/overlay boundary.
    #[inline]
    pub(super) fn latency(&self, a: DhtId, b: DhtId) -> f64 {
        derive_latency(self.ping_of(a), self.ping_of(b))
    }

    /// The live `(id, handle)` pairs in ascending id order.
    pub(super) fn iter_pairs(&self) -> impl Iterator<Item = (DhtId, NodeIdx)> + '_ {
        self.by_id.iter().map(|(id, s)| (id, NodeIdx(s)))
    }
}

/// One gossip pull request, queued at its supplier. Carries the dense
/// requester handle for state access plus the requester's `DhtId` for the
/// deterministic per-round tie-break hash (keyed on the id, so a reused
/// slot never changes the service order).
///
/// Requests live in one flat arena bucketed by supplier slot (see
/// [`RoundScratch::requests`]); the supplier slot rides along for the
/// bucketing scatter.
#[derive(Debug, Clone, Copy)]
pub(super) struct PullRequest {
    pub(super) requester: NodeIdx,
    pub(super) requester_id: DhtId,
    pub(super) segment: SegmentId,
    pub(super) priority: f64,
    /// The supplier's arena slot this request is queued at.
    pub(super) supplier_slot: u32,
}

/// A per-node buffer-map snapshot slot: the generation-stamped exchange.
pub(super) struct MapSnap {
    /// Birth stamp of the node lifetime the snapshot was taken from. Ids
    /// and slots are both reusable; the birth stamp is not, so an equal
    /// `(birth, epoch)` pair guarantees an identical bitmap.
    pub(super) birth: u64,
    /// The announcing buffer's mutation epoch at snapshot time; equal
    /// epoch ⇒ the bitmap is unchanged and need not be re-copied.
    pub(super) epoch: u64,
    /// Round stamp: snapshots not refreshed this round are invisible.
    pub(super) stamp: u64,
    pub(super) map: StreamBuffer,
}

/// The round's advertised buffer maps, one snapshot slot per arena slot
/// — the one table every decision of the round reads a neighbour's map
/// from. The exchange of
/// [`SystemSim::step_with`](super::SystemSim::step_with) fills it through
/// [`Self::install`], its only public operation; a snapshot not installed
/// this round is invisible.
#[derive(Default)]
pub struct MapStore {
    pub(super) snaps: Vec<MapSnap>,
    /// The stamp marking snapshots taken this round.
    pub(super) stamp: u64,
}

impl MapStore {
    pub(super) fn begin_round(&mut self, round: u32, slot_count: usize) {
        self.stamp = round as u64 + 1;
        while self.snaps.len() < slot_count {
            self.snaps.push(MapSnap {
                birth: u64::MAX,
                epoch: u64::MAX,
                stamp: 0,
                // Sized like every node's buffer, so the first install
                // copies into place instead of growing the words.
                map: StreamBuffer::new(SystemConfig::BUFFER_SEGMENTS),
            });
        }
    }

    /// Install `view` as this round's advertised map of the node in arena
    /// `slot`, copying bitmap words only when the `(birth, epoch)` key
    /// says the bitmap changed since the last copy — the delta shape a
    /// real network would use, and what keeps the exchange of unchanged
    /// buffers free.
    ///
    /// # Panics
    /// If `slot` is past the arena.
    pub fn install(&mut self, slot: u32, view: TwinAnnounce<&[u64]>) {
        let snap = &mut self.snaps[slot as usize];
        if snap.birth != view.birth || snap.epoch != view.epoch {
            snap.map.install_wire(view.head, view.capacity, view.words);
            snap.birth = view.birth;
            snap.epoch = view.epoch;
        }
        snap.stamp = self.stamp;
    }

    /// The map in `idx`'s slot, whatever round it is from — for a slot
    /// [`Self::get`] already vouched for this round.
    #[inline]
    pub(super) fn map_at(&self, idx: NodeIdx) -> &StreamBuffer {
        &self.snaps[idx.0 as usize].map
    }

    /// The advertised map of `idx`, if it was snapshotted this round.
    #[inline]
    pub(super) fn get(&self, idx: NodeIdx) -> Option<&StreamBuffer> {
        self.snaps
            .get(idx.0 as usize)
            .filter(|s| s.stamp == self.stamp)
            .map(|s| &s.map)
    }
}

/// One connected neighbour as a planning pass sees it: resolved once, and
/// only if it advertised a map this round.
#[derive(Clone, Copy)]
pub(super) struct NbrView {
    pub(super) peer: PeerRef,
    /// The arena slot `peer` resolved to — also its [`MapStore`] slot.
    pub(super) slot: NodeIdx,
}

/// Reusable scratch for one node's scheduling pass.
#[derive(Default)]
pub(super) struct SchedScratch {
    /// This pass's possible suppliers, ascending by id: bit `k` of every
    /// supplier mask, and row `k` of `fresh`, is `view[k]`.
    pub(super) view: Vec<NbrView>,
    /// `(supplier, R(j))` in `view` order — the scheduler context's rate
    /// table (moved in and out to keep its allocation).
    pub(super) rates: Vec<(PeerRef, f64)>,
    /// Per window word (64 segments from the play anchor): after the
    /// gather's first pass the segments the node lacks, after its second
    /// those of them some neighbour advertises — the candidates, in
    /// segment order.
    pub(super) wanted: Vec<u64>,
    /// `fresh[w * view.len() + k]`: word `w` of `view[k]`'s
    /// `theirs & !mine` over the window.
    pub(super) fresh: Vec<u64>,
    /// The pass's candidates, built in ascending segment order; every
    /// scheduler runs on them in mask form.
    pub(super) candidates: Vec<MaskCandidate>,
    /// The scheduling algorithms' own working memory (supplier lanes,
    /// ordering buffer, feasible list) for the mask-form entry points.
    pub(super) algo: SchedulerScratch<PeerRef>,
    /// The resulting assignments of the last pass.
    pub(super) assignments: Vec<Assignment<PeerRef>>,
}

/// Step-6 outcome counters.
#[derive(Default)]
pub(super) struct ServiceCounters {
    pub(super) deliveries: u64,
    pub(super) issued: u64,
    pub(super) dropped: u64,
    /// §4.3 Case-2 repetitions detected on delivery of tagged segments.
    pub(super) repeated: u32,
    /// Suppliers that delivered ≥ 1 segment this round (telemetry).
    pub(super) supplier_active: usize,
    /// Largest delivery count by a single supplier this round (telemetry).
    pub(super) supplier_peak: u64,
}

/// Everything one round counts, from its first phase to its record: the
/// traffic ledger, the [`RoundRecord`](crate::metrics::RoundRecord)
/// fields and the telemetry accumulators. Starts at `default()` each
/// round; the finalise phase turns it into the round's records.
#[derive(Default)]
pub(super) struct RoundTally {
    pub(super) traffic: TrafficCounter,
    /// Churn joins admitted / nodes that left (gracefully or not).
    pub(super) joins: usize,
    pub(super) leaves: usize,
    /// First segment the source emitted this round.
    pub(super) first_new: SegmentId,
    /// Frontier-push and joiner-seed copies that arrived (they count as
    /// gossip-plane deliveries).
    pub(super) seeded: u64,
    pub(super) svc: ServiceCounters,
    pub(super) prefetch_attempts: u32,
    pub(super) prefetch_successes: u32,
    pub(super) prefetch_overdue: u32,
    pub(super) prefetch_suppressed: u32,
    /// §4.3 Case-2 repetitions seen by the pre-fetch planner (the record
    /// adds the ones step 6 detected on delivery, `svc.repeated`).
    pub(super) prefetch_repeated: u32,
    pub(super) prefetch_routing_msgs: u64,
    /// Telemetry: the largest effective per-node fetch cap this round
    /// (watches the policy layer's deficit-scaled throttle ramp).
    pub(super) rescue_cap_peak: usize,
    pub(super) alive: usize,
    pub(super) playing: usize,
    pub(super) continuous: usize,
    pub(super) paused: usize,
    pub(super) alpha_sum: f64,
    // Telemetry, summed over playing nodes.
    pub(super) runway_sum: u64,
    /// Meaningful only once a playing node was seen.
    pub(super) min_runway: u64,
    pub(super) gap_sum: u64,
    pub(super) occupancy_sum: f64,
    pub(super) slack_used: u64,
    pub(super) backup_total: u64,
    pub(super) gc_evictions: u64,
    /// Nodes whose step-5 planner / step-7 urgent-line check found
    /// something to do, counted by the planners themselves.
    pub(super) active_sched: u64,
    pub(super) active_prefetch: u64,
}

/// Persistent per-round working memory: everything the round loop used to
/// allocate afresh every period now lives (and is reused) here.
#[derive(Default)]
pub(super) struct RoundScratch {
    pub(super) maps: MapStore,
    /// Step 5's planning scratch: one node's pass at a time.
    pub(super) sched: SchedScratch,
    /// The round's pull requests, flat in scheduling order. One shared
    /// arena instead of a `Vec` per supplier: per-slot queues re-grow
    /// from zero capacity whenever a slot sees a new high-water mark,
    /// which kept the service phase allocating for hundreds of rounds;
    /// the flat arena's capacity converges to the total-requests
    /// high-water after a handful of rounds.
    pub(super) requests: Vec<PullRequest>,
    /// `requests` scattered into contiguous per-supplier buckets laid
    /// out in ascending slot order (counting sort, stable), then sorted
    /// within each bucket by the service policy.
    pub(super) requests_sorted: Vec<PullRequest>,
    /// Per-slot bucket sizes; nonzero only for `touched_suppliers`.
    pub(super) queue_count: Vec<u32>,
    /// Per-slot bucket start offsets into `requests_sorted`.
    pub(super) queue_start: Vec<u32>,
    /// Per-slot scatter cursors (consumed during bucketing).
    pub(super) queue_cursor: Vec<u32>,
    /// Slots with pending requests this round.
    pub(super) touched_suppliers: Vec<u32>,
    /// Step 7's miss list: the predicted-missed segments of the node
    /// whose urgent-line check ran last.
    pub(super) missed: Vec<SegmentId>,
    /// Outbound budget already spent on pre-fetch uploads, per slot.
    pub(super) outbound_spent: Vec<f64>,
    pub(super) touched_spent: Vec<u32>,
    /// Route/locate buffers reused by every Algorithm 2 retrieval.
    pub(super) retrieval: RetrievalScratch,
    /// General-purpose peer-list scratch (neighbour maintenance).
    pub(super) tmp_refs: Vec<PeerRef>,
    pub(super) tmp_refs2: Vec<PeerRef>,
    pub(super) tmp_pairs: Vec<(PeerRef, f64)>,
}

impl RoundScratch {
    pub(super) fn begin_round(&mut self, round: u32, slot_count: usize) {
        self.maps.begin_round(round, slot_count);
        if self.queue_count.len() < slot_count {
            self.queue_count.resize(slot_count, 0);
            self.queue_start.resize(slot_count, 0);
            self.queue_cursor.resize(slot_count, 0);
        }
        for &s in &self.touched_suppliers {
            self.queue_count[s as usize] = 0;
        }
        self.touched_suppliers.clear();
        self.requests.clear();
        if self.outbound_spent.len() < slot_count {
            self.outbound_spent.resize(slot_count, 0.0);
        }
        for &s in &self.touched_spent {
            self.outbound_spent[s as usize] = 0.0;
        }
        self.touched_spent.clear();
    }

    pub(super) fn push_request(&mut self, req: PullRequest) {
        let count = &mut self.queue_count[req.supplier_slot as usize];
        if *count == 0 {
            self.touched_suppliers.push(req.supplier_slot);
        }
        *count += 1;
        self.requests.push(req);
    }

    /// Scatter `requests` into contiguous per-slot buckets in
    /// `requests_sorted` (ascending slot order, stable within a slot).
    /// Returns nothing; bucket ranges are `queue_start[s] ..
    /// queue_start[s] + queue_count[s]`.
    pub(super) fn bucket_requests(&mut self) {
        self.touched_suppliers.sort_unstable();
        let mut start = 0u32;
        for &s in &self.touched_suppliers {
            self.queue_start[s as usize] = start;
            self.queue_cursor[s as usize] = start;
            start += self.queue_count[s as usize];
        }
        if self.requests_sorted.len() < self.requests.len() {
            let dummy = PullRequest {
                requester: NodeIdx(0),
                requester_id: 0,
                segment: 0,
                priority: 0.0,
                supplier_slot: 0,
            };
            self.requests_sorted.resize(self.requests.len(), dummy);
        }
        for i in 0..self.requests.len() {
            let req = self.requests[i];
            let cursor = &mut self.queue_cursor[req.supplier_slot as usize];
            self.requests_sorted[*cursor as usize] = req;
            *cursor += 1;
        }
    }

    pub(super) fn add_spent(&mut self, supplier: NodeIdx, amount: f64) {
        let slot = &mut self.outbound_spent[supplier.0 as usize];
        if *slot == 0.0 {
            self.touched_spent.push(supplier.0);
        }
        *slot += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;
    use rand::Rng;
    use std::collections::HashMap;

    /// The sorted tag set against the `HashMap<SegmentId, round>` it
    /// replaced, under the simulator's three operations: tag on fetch,
    /// untag on a repeated delivery (§4.3 Case 2), prune at the play
    /// point. The set must hold exactly the map's keys after every step.
    #[test]
    fn tag_set_matches_hash_map_model() {
        for case in 0..1000u64 {
            let mut rng = RngTree::new(0x7A65).child_indexed("prefetch-tags", case);
            let mut tags = PrefetchTags::with_capacity(rng.gen_range(0usize..16));
            let mut model: HashMap<SegmentId, u32> = HashMap::new();
            let mut play = rng.gen_range(1u64..1000);
            for round in 0..rng.gen_range(0u32..120) {
                match rng.gen_range(0u32..10) {
                    0..=4 => {
                        let seg = play + rng.gen_range(0u64..40);
                        tags.insert(seg);
                        model.insert(seg, round);
                    }
                    5..=7 => {
                        // Deliveries land behind the play point too.
                        let seg = (play + rng.gen_range(0u64..45)).saturating_sub(5);
                        assert_eq!(
                            tags.take(seg),
                            model.remove(&seg).is_some(),
                            "case {case}: take {seg}"
                        );
                    }
                    _ => {
                        play += rng.gen_range(0u64..15);
                        tags.prune_below(play);
                        model.retain(|&seg, _| seg >= play);
                    }
                }
                let mut keys: Vec<SegmentId> = model.keys().copied().collect();
                keys.sort_unstable();
                assert_eq!(tags.0, keys, "case {case}, round {round}");
            }
        }
    }
}

//! The simulator's data layout: the dense node arena and the persistent
//! per-round scratch. Types only — every phase that reads or mutates
//! them lives in a sibling module.

use cs_dht::{DhtId, IdSlotTable, IdSpace};
use cs_net::NodeBandwidth;
use cs_overlay::{ConnectedNeighbors, OverheardList};
use cs_trace::derive_latency;

use crate::backup::VodBackupStore;
use crate::buffer::StreamBuffer;
use crate::config::SystemConfig;
use crate::metrics::RoundRecord;
use crate::retrieval::RetrievalScratch;
use crate::scheduler::{Assignment, MaskCandidate, SchedulerScratch};
use crate::telemetry::TelemetryRound;
use crate::urgent::UrgentLine;
use crate::SegmentId;

use super::twin::TwinAnnounce;

/// Dense handle into the node arena. Plain slot index — the arena's
/// free-list may reuse slots across churn, so a bare `NodeIdx` is only
/// meaningful while the node it was created for is alive; longer-lived
/// references (the partner table with its Rate Controller columns, the
/// overheard list, pull requests) hold the peer's `DhtId` and look it
/// up in the arena's id table, one array load, when they need its
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) struct NodeIdx(pub(super) u32);

/// Per-node simulation state.
pub(super) struct NodeSim {
    /// The node's DHT identifier: the handle every other node's tables
    /// hold it by.
    pub(super) id: DhtId,
    /// Unique lifetime stamp assigned by the arena on insertion. Ids can
    /// be reassigned (the RP server frees departed ids) and slots are
    /// reused, so `(slot, id)` does not identify a node *lifetime* —
    /// this does; every buffer-map snapshot records the one it was
    /// installed for.
    pub(super) birth: u64,
    pub(super) bandwidth: NodeBandwidth,
    pub(super) connected: ConnectedNeighbors,
    pub(super) overheard: OverheardList,
    pub(super) buffer: StreamBuffer,
    pub(super) backup: VodBackupStore,
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
/// fit the capacity the node was built with. A tag is a `u32`:
/// `validate` bounds segment ids by 2^20, as for [`PullRequest::segment`].
pub(super) struct PrefetchTags(Vec<u32>);

impl PrefetchTags {
    pub(super) fn with_capacity(tags: usize) -> Self {
        PrefetchTags(Vec::with_capacity(tags))
    }

    fn tag(seg: SegmentId) -> u32 {
        u32::try_from(seg).expect("validate bounds segment ids by 2^20")
    }

    /// Tag `seg` (a no-op when it is already tagged).
    pub(super) fn insert(&mut self, seg: SegmentId) {
        let seg = Self::tag(seg);
        if let Err(pos) = self.0.binary_search(&seg) {
            self.0.insert(pos, seg);
        }
    }

    /// Untag `seg`; whether it was tagged.
    pub(super) fn take(&mut self, seg: SegmentId) -> bool {
        match self.0.binary_search(&Self::tag(seg)) {
            Ok(pos) => {
                self.0.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Drop every tag below `floor`.
    pub(super) fn prune_below(&mut self, floor: SegmentId) {
        let k = self.0.partition_point(|&s| SegmentId::from(s) < floor);
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

    /// The arena slot of `id`; `None` when the id is not alive.
    #[inline]
    pub(super) fn lookup(&self, id: DhtId) -> Option<NodeIdx> {
        self.by_id.get(id).map(NodeIdx)
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

/// One gossip pull request, queued at its supplier. The requester is
/// held by its `DhtId` — step 6 looks it up in the arena's id table, and
/// the id keys the per-round tie-break hash, so a reused slot never
/// changes the service order.
///
/// Requests live in one flat arena in scheduling order (see
/// [`RoundScratch::requests`]); the supplier slot rides along for the
/// bucketing scatter. 24 bytes: the segment id fits a `u32` because
/// `SystemConfig::validate` bounds the run's segments by 2^20.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct PullRequest {
    pub(super) requester_id: DhtId,
    pub(super) priority: f64,
    pub(super) segment: u32,
    /// The supplier's arena slot this request is queued at.
    pub(super) supplier_slot: u32,
}

impl PullRequest {
    /// Step 6's service order within one supplier's queue: most urgent
    /// first, ties broken on a per-round hash of the requester —
    /// deterministic, but not the same node winning every round (a fixed
    /// tie-break starves whoever sorts last) — then by segment. The key
    /// is unique per request (splitmix64 is a bijection and a requester
    /// asks a supplier for a segment at most once), so an unstable sort
    /// gives the order a stable one would.
    #[inline]
    pub(super) fn service_cmp(&self, other: &Self, salt: u64) -> std::cmp::Ordering {
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| {
                cs_sim::splitmix64(self.requester_id ^ salt)
                    .cmp(&cs_sim::splitmix64(other.requester_id ^ salt))
            })
            .then(self.segment.cmp(&other.segment))
    }
}

/// A per-node buffer-map snapshot slot.
pub(super) struct MapSnap {
    /// Birth stamp of the node lifetime the snapshot was taken from. Ids
    /// and slots are both reusable; the birth stamp is not, so the
    /// exchange phase can tell another lifetime's view from this one's.
    pub(super) birth: u64,
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
                stamp: 0,
                // Sized like every node's buffer, so the first install
                // copies into place instead of growing the words.
                map: StreamBuffer::new(SystemConfig::BUFFER_SEGMENTS),
            });
        }
    }

    /// Install `view` as this round's advertised map of the node in arena
    /// `slot`: its words are copied into the slot's snapshot whole, as
    /// the paper's exchange sends the whole map every period (§5.4.2).
    ///
    /// # Panics
    /// If `slot` is past the arena.
    pub fn install(&mut self, slot: u32, view: TwinAnnounce<&[u64]>) {
        let snap = &mut self.snaps[slot as usize];
        snap.map.install_wire(view.head, view.capacity, view.words);
        snap.birth = view.birth;
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
    pub(super) peer: DhtId,
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
    pub(super) rates: Vec<(DhtId, f64)>,
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
    pub(super) algo: SchedulerScratch<DhtId>,
    /// The resulting assignments of the last pass.
    pub(super) assignments: Vec<Assignment<DhtId>>,
}

/// Everything one round counts, from its first phase to its records:
/// the round's [`RoundRecord`] and [`TelemetryRound`] themselves, which
/// the phases increment where each event happens (the record's `traffic`
/// is the round's ledger), plus what the finalise phase derives the rest
/// from — the first segment emitted, the paused count and the four sums
/// the per-node means divide. A per-round counter is declared once, as a
/// field of the record type it is exported from. Starts at `default()`
/// each round; the finalise phase fills in the derived values and pushes
/// the two rows.
#[derive(Default)]
pub(super) struct RoundTally {
    pub(super) record: RoundRecord,
    pub(super) telemetry: TelemetryRound,
    /// First segment the source emitted this round.
    pub(super) first_new: SegmentId,
    /// Playing nodes frozen by a VCR pause (left out of the continuity
    /// ratio).
    pub(super) paused: usize,
    /// Urgent ratio α summed over alive nodes.
    pub(super) alpha_sum: f64,
    // Summed over playing nodes.
    pub(super) runway_sum: u64,
    pub(super) gap_sum: u64,
    pub(super) occupancy_sum: f64,
}

/// Persistent per-round working memory: everything the round loop used to
/// allocate afresh every period now lives (and is reused) here.
#[derive(Default)]
pub(super) struct RoundScratch {
    pub(super) maps: MapStore,
    /// Step 5's planning scratch: one node's pass at a time.
    pub(super) sched: SchedScratch,
    /// The round's pull requests, flat in scheduling order (node
    /// order). One shared arena instead of a `Vec` per supplier: per-slot
    /// queues re-grow from zero capacity whenever a slot sees a new
    /// high-water mark, which kept the service phase allocating for
    /// hundreds of rounds; the flat arena's capacity converges to the
    /// total-requests high-water after a handful of rounds.
    pub(super) requests: Vec<PullRequest>,
    /// Indices into `requests`, counting-scattered into contiguous
    /// per-supplier ranges laid out in ascending slot order; step 6
    /// sorts each range into service order, so no request is copied.
    pub(super) order: Vec<u32>,
    /// Per-slot queue sizes, zeroed whole each round.
    pub(super) queue_count: Vec<u32>,
    /// Per-slot scatter cursors: once [`Self::bucket_requests`] has run,
    /// one past the end of the slot's range of `order`.
    pub(super) queue_cursor: Vec<u32>,
    /// Step 7's miss list: the predicted-missed segments of the node
    /// whose urgent-line check ran last.
    pub(super) missed: Vec<SegmentId>,
    /// The source-side outbound ledger, per slot, zeroed whole each
    /// round: what frontier pushes, joiner seeds, origin fallbacks and
    /// rescue uploads have spent of a node's outbound rate (step-6
    /// gossip service budgets apart and never reads it).
    pub(super) outbound_spent: Vec<f64>,
    /// Route/locate buffers reused by every Algorithm 2 retrieval.
    pub(super) retrieval: RetrievalScratch,
    /// General-purpose peer-list scratch (neighbour maintenance).
    pub(super) tmp_refs: Vec<DhtId>,
    pub(super) tmp_refs2: Vec<DhtId>,
    pub(super) tmp_pairs: Vec<(DhtId, f64)>,
}

impl RoundScratch {
    pub(super) fn begin_round(&mut self, round: u32, slot_count: usize) {
        self.maps.begin_round(round, slot_count);
        self.queue_count.clear();
        self.queue_count.resize(slot_count, 0);
        self.queue_cursor.resize(slot_count, 0);
        self.requests.clear();
        self.outbound_spent.clear();
        self.outbound_spent.resize(slot_count, 0.0);
    }

    pub(super) fn push_request(&mut self, req: PullRequest) {
        self.queue_count[req.supplier_slot as usize] += 1;
        self.requests.push(req);
    }

    /// Counting-scatter the indices of `requests` into contiguous
    /// per-slot ranges of `order` (ascending slot order, node order
    /// within a slot). A slot's range ends at `queue_cursor[s]` and
    /// holds `queue_count[s]` indices.
    pub(super) fn bucket_requests(&mut self) {
        let mut start = 0u32;
        for (cursor, &count) in self.queue_cursor.iter_mut().zip(&self.queue_count) {
            *cursor = start;
            start += count;
        }
        if self.order.len() < self.requests.len() {
            self.order.resize(self.requests.len(), 0);
        }
        for (i, req) in self.requests.iter().enumerate() {
            let cursor = &mut self.queue_cursor[req.supplier_slot as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }

    /// Sort supplier `slot`'s range of `order` into service order
    /// ([`PullRequest::service_cmp`]) and return it.
    pub(super) fn sort_queue(&mut self, slot: usize, salt: u64) -> std::ops::Range<usize> {
        let end = self.queue_cursor[slot] as usize;
        let range = end - self.queue_count[slot] as usize..end;
        let requests = &self.requests;
        // Load every queued request once up front. These loads are
        // independent, so their cache misses overlap; the sort's own
        // loads wait on its comparisons and would take them one by one.
        for &i in &self.order[range.clone()] {
            std::hint::black_box(requests[i as usize].priority);
        }
        self.order[range.clone()].sort_unstable_by(|&a, &b| {
            requests[a as usize].service_cmp(&requests[b as usize], salt)
        });
        range
    }

    pub(super) fn add_spent(&mut self, supplier: NodeIdx, amount: f64) {
        self.outbound_spent[supplier.0 as usize] += amount;
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
                let mut keys: Vec<u32> = model.keys().map(|&seg| seg as u32).collect();
                keys.sort_unstable();
                assert_eq!(tags.0, keys, "case {case}, round {round}");
            }
        }
    }

    /// The hot per-node and per-request records at their packed sizes: a
    /// field that creeps back fails here instead of showing up as RSS.
    #[test]
    fn hot_records_keep_their_sizes() {
        use cs_overlay::{NeighborEntry, OverheardEntry};
        use std::mem::size_of;
        assert_eq!(size_of::<PullRequest>(), 24);
        // The peer handle every table holds is the id itself.
        assert_eq!(size_of::<DhtId>(), 8);
        assert_eq!(size_of::<OverheardEntry>(), 16);
        // Partner, latency, supply and the Rate Controller's estimate
        // and this period's two counts.
        assert_eq!(size_of::<NeighborEntry>(), 40);
    }

    /// Step 6's index scatter + per-range sort against the bucketed copy
    /// it replaced: scatter the requests themselves into per-slot buckets
    /// (ascending slot, stable), then sort each bucket by the service
    /// key. Both must give every supplier the same request sequence.
    #[test]
    fn index_scatter_matches_bucketed_copy() {
        fn reference(requests: &[PullRequest], slots: usize, salt: u64) -> Vec<Vec<PullRequest>> {
            let mut buckets = vec![Vec::new(); slots];
            for req in requests {
                buckets[req.supplier_slot as usize].push(*req);
            }
            for bucket in &mut buckets {
                bucket.sort_unstable_by(|a, b| {
                    b.priority
                        .total_cmp(&a.priority)
                        .then_with(|| {
                            cs_sim::splitmix64(a.requester_id ^ salt)
                                .cmp(&cs_sim::splitmix64(b.requester_id ^ salt))
                        })
                        .then(a.segment.cmp(&b.segment))
                });
            }
            buckets
        }

        let mut scratch = RoundScratch::default();
        for case in 0..400u64 {
            let mut rng = RngTree::new(0x5E7F).child_indexed("service-order", case);
            let slots = match case % 4 {
                0 => 1,
                1 => rng.gen_range(2usize..6),
                _ => rng.gen_range(2usize..64),
            };
            // Only some slots serve: the rest keep empty queues.
            let suppliers: Vec<u32> = (0..slots as u32)
                .filter(|_| slots == 1 || rng.gen_range(0u32..3) > 0)
                .collect();
            // Half the cases draw priorities from three values, so the
            // requester hash decides most ties.
            let tied = case % 2 == 0;
            let salt = cs_sim::splitmix64(case);
            scratch.begin_round(case as u32, slots);
            let mut id = 0u64;
            for _ in 0..rng.gen_range(0u32..40) {
                if suppliers.is_empty() {
                    break;
                }
                // Node order: ascending requester ids, each asking for a
                // run of distinct segments, several often at one supplier.
                id += rng.gen_range(1u64..1000);
                let first = rng.gen_range(0u32..500);
                for k in 0..rng.gen_range(1u32..8) {
                    let priority = if tied {
                        [0.25, 1.0, 2.5][rng.gen_range(0usize..3)]
                    } else {
                        rng.gen_range(0.0f64..3.0)
                    };
                    scratch.push_request(PullRequest {
                        requester_id: id,
                        priority,
                        segment: first + 3 * k,
                        supplier_slot: suppliers[rng.gen_range(0..suppliers.len())],
                    });
                }
            }
            let expected = reference(&scratch.requests, slots, salt);
            scratch.bucket_requests();
            for (slot, bucket) in expected.iter().enumerate() {
                let got: Vec<PullRequest> = if scratch.queue_count[slot] == 0 {
                    Vec::new()
                } else {
                    scratch
                        .sort_queue(slot, salt)
                        .map(|i| scratch.requests[scratch.order[i] as usize])
                        .collect()
                };
                assert_eq!(&got, bucket, "case {case}, slot {slot}");
            }
        }
    }
}

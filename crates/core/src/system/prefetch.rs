//! Step 7 — the urgent line and Algorithm 2: one loop in node order that
//! runs a node's urgent-line check (which is also the proof that it has
//! nothing to fetch) and then its DHT retrievals, before the next node's.

use cs_dht::DhtId;
use cs_net::{TrafficClass, TrafficCounter, PAPER_MEAN_KBPS, SEGMENT_KBITS};
use cs_trace::derive_latency;

use super::recovery::ControlFault;
use super::state::{MapStore, NodeArena, NodeIdx, RoundScratch, RoundTally};
use super::{SystemSim, SIZES};
use crate::buffer::StreamBuffer;
use crate::config::SystemConfig;
use crate::policy::{AdaptivePolicy, PolicyKind};
use crate::retrieval::{retrieve_one_into, RetrievalSummary};
use crate::urgent::PrefetchCheck;
use crate::SegmentId;

/// Time to download one segment at the paper's mean rate, in ms: the
/// transfer part of a rescue fetch (UDP direct download, §4.3) and of an
/// origin fallback.
pub(super) const SEGMENT_TRANSFER_MS: f64 = SEGMENT_KBITS / PAPER_MEAN_KBPS * 1000.0;

/// The urgent-line parameters the active policy grants a node at this
/// anchor: `(fetch_cap, suppression_threshold, min_horizon)`. Legacy is
/// the paper's fixed `N_miss > l` cutoff (cap == threshold == `l`,
/// horizon 0); Adaptive scales all three with the runway deficit, with
/// the probe clamped to the buffer window — a probe past `head +
/// capacity` would make every successful fetch slide the window and
/// evict still-unplayed segments (reachable with an oversized
/// runway-target knob, or right after a backward seek re-anchored
/// playback near the buffer head).
///
/// `round`/`spawn_round` feed the joiner grace window
/// ([`AdaptivePolicy::join_grace_rounds`]): inside it the node gets the
/// full rescue envelope — `RESCUE_CAP_MAX`, no Case-3 suppression, the
/// whole runway-target horizon — because a catching-up joiner's window
/// is *supposed* to be all holes, and the deficit-scaled throttle would
/// read that as the systemic overload it exists to suppress. With the
/// knob at 0 (the default) the grace branch is unreachable.
fn rescue_params(
    config: &SystemConfig,
    buffer: &StreamBuffer,
    anchor: SegmentId,
    round: u32,
    spawn_round: u32,
) -> (usize, usize, u64) {
    const L: usize = SystemConfig::PREFETCH_CAP;
    let p = SystemConfig::DEMAND_PER_ROUND;
    match &config.policy {
        PolicyKind::Legacy => (L, L, 0),
        PolicyKind::Adaptive(ap) => {
            let window = (buffer.head() + buffer.capacity()).saturating_sub(anchor);
            if ap.in_join_grace(round, spawn_round) {
                // The cap stays inside the scratch pre-sizing bound
                // (`RESCUE_CAP_MAX.max(l)`), so grace never regrows the
                // miss list.
                return (
                    AdaptivePolicy::RESCUE_CAP_MAX.max(L),
                    usize::MAX / 2,
                    ap.rescue_horizon(p).min(window),
                );
            }
            let deficit = ap.runway_deficit(buffer.contiguous_from(anchor), p);
            (
                AdaptivePolicy::rescue_cap(L, deficit),
                AdaptivePolicy::suppression_threshold(L, deficit),
                ap.rescue_horizon(p).min(window),
            )
        }
    }
}

/// What one node's urgent-line check asks step 7 to do.
enum Rescue {
    /// Nothing to fetch: the source, a node with no anchor yet, or a full
    /// probe window.
    Idle,
    /// §4.3 Case 3: retrieval suppressed (`N_miss > l`, or past the
    /// policy's deficit-scaled threshold).
    Suppressed,
    /// Fetch the first `max_fetches` — what fits the inbound budget — of
    /// the miss list, after `repeated` §4.3 Case-2 α-down signals.
    Fetch { repeated: u32, max_fetches: usize },
}

/// One node's urgent-line check, the Case-2 repeated scan against the
/// round's snapshots, and the inbound budget. Reads only the owning
/// node's state plus round-stable facts. Leaves the predicted-missed
/// segments in `missed` and returns, with the outcome, the effective
/// fetch cap the check ran with (`l` under Legacy,
/// deficit-scaled under Adaptive; 0 when the node never reached the
/// check) for telemetry.
fn check_node(
    nodes: &NodeArena,
    config: &SystemConfig,
    maps: &MapStore,
    newest_emitted: SegmentId,
    round: u32,
    idx: NodeIdx,
    missed: &mut Vec<SegmentId>,
) -> (usize, Rescue) {
    let node = nodes.node(idx);
    if node.is_source {
        return (0, Rescue::Idle);
    }
    // Playing nodes guard their play point; buffering nodes guard the
    // contiguity they need to *start* (this is how the pre-fetch
    // "accelerates the streaming system's entering its stable phase",
    // §5.4.1).
    let anchor = node.next_play.or_else(|| node.buffer.iter().next());
    let Some(anchor) = anchor else {
        return (0, Rescue::Idle);
    };
    let started = node.next_play.is_some();
    // Deficit-scaled rescue (the policy layer): under Adaptive the
    // fetch cap, the Case-3 cutoff and the probe horizon all grow with
    // the node's runway deficit, so a stressed swarm's rescue
    // *throttles* to the cap instead of switching off for everyone at
    // once — and holes start getting healed while they are still many
    // rounds from their deadline. See [`rescue_params`].
    let (cap, threshold, horizon) =
        rescue_params(config, &node.buffer, anchor, round, node.spawn_round);
    let check = node.urgent.decide_scaled_into(
        &node.buffer,
        anchor,
        newest_emitted,
        missed,
        cap,
        threshold,
        horizon,
    );
    match check {
        PrefetchCheck::NotTriggered => return (cap, Rescue::Idle),
        PrefetchCheck::TooMany(_) => return (cap, Rescue::Suppressed),
        // A fetch always lists something: a cap of 0 only occurs with a
        // cutoff of 0, which suppresses instead.
        PrefetchCheck::Fetch => {}
    }

    // §4.3 Case 2 (repeated data), pull-model form: a predicted-missed
    // segment that a connected neighbour still advertises — with its
    // deadline at least one period away — could "still be got by the
    // data scheduling algorithm before its deadline". The paper
    // fetches it anyway and uses the repetition as the α-down signal;
    // we do the same (skipping the fetch and trusting gossip turned
    // out to strand segments whose pulls kept losing the budget race).
    let mut repeated = 0;
    for &seg in missed.iter() {
        let deadline_far = !started || seg >= anchor + SystemConfig::DEMAND_PER_ROUND;
        let neighbour_has = deadline_far
            && node.connected.ids().any(|nref| {
                nodes
                    .lookup(nref)
                    .and_then(|ni| maps.get(ni))
                    .is_some_and(|m| m.contains(seg))
            });
        if neighbour_has {
            repeated += 1;
        }
    }
    // Pre-fetch shares the inbound rate with the scheduler (§4.3); the
    // adaptive policy's slack over-provision applies here too.
    let base_room = node.bandwidth.inbound_segments_per_sec() * SystemConfig::PERIOD_SECS;
    let inbound_room = node.inbound_carry + config.policy.provisioned_inbound(base_room);
    let max_fetches = missed.len().min(inbound_room.floor().max(0.0) as usize);
    (
        cap,
        Rescue::Fetch {
            repeated,
            max_fetches,
        },
    )
}

impl SystemSim {
    /// Step 7: in node order, check each node's urgent line and run the
    /// retrievals it asks for before moving to the next node. Runs
    /// *after* step 6 because deliveries move α (Case-2 repetitions
    /// shrink the urgent probe). Most nodes have a full probe; their
    /// check is a few word loads ending in `NotTriggered` (see
    /// [`UrgentLine::decide_scaled_into`](crate::urgent::UrgentLine::decide_scaled_into)).
    /// Along the way it takes the round's rescue-cap peak and counts the
    /// nodes whose check triggered (fetch or Case 3) — the round's
    /// `active_prefetch`.
    pub(super) fn prefetch_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        tally: &mut RoundTally,
    ) {
        // Taken out for the phase (the retrievals borrow the rest of the
        // scratch), and sized once to the widest cap the policy can
        // grant, so a node hitting a new deficit high-water mid-run
        // never regrows it (zero-alloc pin).
        let mut missed = std::mem::take(&mut scratch.missed);
        let cap_max = match &self.config.policy {
            PolicyKind::Legacy => SystemConfig::PREFETCH_CAP,
            PolicyKind::Adaptive(_) => {
                AdaptivePolicy::RESCUE_CAP_MAX.max(SystemConfig::PREFETCH_CAP)
            }
        };
        missed.clear();
        missed.reserve(cap_max);
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let (cap, rescue) = check_node(
                &self.nodes,
                &self.config,
                &scratch.maps,
                self.newest_emitted,
                round,
                idx,
                &mut missed,
            );
            tally.telemetry.rescue_cap = tally.telemetry.rescue_cap.max(cap as u64);
            match rescue {
                Rescue::Idle => {}
                Rescue::Suppressed => {
                    tally.telemetry.active_prefetch += 1;
                    tally.record.prefetch_suppressed += 1;
                }
                Rescue::Fetch {
                    repeated,
                    max_fetches,
                } => {
                    tally.telemetry.active_prefetch += 1;
                    for _ in 0..repeated {
                        self.nodes.node_mut(idx).urgent.on_repeated();
                    }
                    tally.record.prefetch_repeated += repeated;
                    self.fetch_missed(idx, &missed[..max_fetches], round, scratch, tally);
                }
            }
        }
        scratch.missed = missed;
    }

    /// One Algorithm 2 lookup: route `seg`'s replica positions over the
    /// DHT on behalf of `requester_id` and pick a supplier among the
    /// holders with outbound budget left this round. Accounts the
    /// routing traffic and lazily repairs the DHT — routing just
    /// contacted the located nodes, so any crashed one among them is
    /// detected now and evicted from the routing tables. The located
    /// list stays in `scratch.retrieval`. With `shun_evicted` (recovery
    /// retries) a supplier under eviction is treated as having nothing
    /// to give, so selection fails over to the next-best replica holder.
    pub(super) fn dht_retrieve(
        &mut self,
        requester_id: DhtId,
        seg: SegmentId,
        shun_evicted: bool,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> RetrievalSummary {
        // Split borrows: the DHT is mutated by routing; node state, the
        // eviction list and the outbound ledger are read through
        // disjoint fields.
        let outcome = {
            let nodes = &self.nodes;
            let config = &self.config;
            let faults = &self.faults;
            let spent = &scratch.outbound_spent;
            let latency = |a: DhtId, b: DhtId| nodes.latency(a, b);
            let has_backup = |n: DhtId, s: SegmentId| {
                nodes.lookup(n).is_some_and(|i| nodes.node(i).backup.has(s))
            };
            let available_rate = |n: DhtId| {
                if shun_evicted && faults.evicted(n) {
                    return 0.0;
                }
                nodes
                    .lookup(n)
                    .map(|i| {
                        let cap = nodes.node(i).bandwidth.outbound_segments_per_sec();
                        let used = spent.get(i.0 as usize).copied().unwrap_or(0.0);
                        (cap - used).max(0.0)
                    })
                    .unwrap_or(0.0)
            };
            retrieve_one_into(
                &mut self.dht,
                requester_id,
                seg,
                &latency,
                &has_backup,
                &available_rate,
                config.replicas,
                SEGMENT_TRANSFER_MS,
                &mut scratch.retrieval,
            )
        };
        traffic.add(
            TrafficClass::PrefetchRouting,
            outcome.routing_messages as u64 * SIZES.routing_message_bits,
        );
        if self.faults.crashed_any {
            self.repair_stale_routes(&scratch.retrieval.located);
        }
        outcome
    }

    /// Land `seg` at node `idx` outside the gossip service path (rescue
    /// fetch, recovery retry, source push or seed): buffer it, count the
    /// inflow, and offer it to the node's VoD backup store.
    pub(super) fn receive_direct(&mut self, idx: NodeIdx, id: DhtId, seg: SegmentId) {
        let successor = self.believed_successor(id);
        let node = self.nodes.node_mut(idx);
        node.buffer.insert(seg);
        node.round_inflow += 1;
        node.backup.maybe_store(seg, successor);
    }

    /// Algorithm 2 for one node: retrieve `missed` over the DHT, most
    /// urgent first. Mutates shared state (DHT tables, the outbound-spend
    /// ledger, backups), which later nodes' retrievals see.
    fn fetch_missed(
        &mut self,
        idx: NodeIdx,
        missed: &[SegmentId],
        round: u32,
        scratch: &mut RoundScratch,
        tally: &mut RoundTally,
    ) {
        let (requester_id, anchor, started) = {
            let node = self.nodes.node(idx);
            // The anchor the check used: nothing has moved it since.
            let anchor = node
                .next_play
                .or_else(|| node.buffer.iter().next())
                .expect("checked node had an anchor");
            (node.id, anchor, node.next_play.is_some())
        };
        let p = SystemConfig::DEMAND_PER_ROUND;
        let period_ms = SystemConfig::PERIOD_SECS * 1000.0;
        let source_cap = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |pol| pol.source_rescue_cap);
        let mut source_fallbacks = 0usize;

        for &seg in missed {
            tally.record.prefetch_attempts += 1;
            let outcome =
                self.dht_retrieve(requester_id, seg, false, scratch, &mut tally.record.traffic);
            // The requester overhears every node its lookups reached
            // (the located list stayed in the retrieval scratch).
            {
                let local_ping = self.nodes.ping_at(idx);
                for li in 0..scratch.retrieval.located.len() {
                    let l = scratch.retrieval.located[li];
                    if l != requester_id {
                        let lat = derive_latency(local_ping, self.nodes.ping_of(l));
                        self.nodes.node_mut(idx).overheard.record(l, lat);
                    }
                }
            }
            let fetch_ms = if let Some(supplier) = outcome.supplier {
                // Fault plane: the rescue fetch rides the control path —
                // it can be swallowed outright or delayed past its
                // deadline.
                let mut extra_delay_ms = 0.0;
                if self.faults.active {
                    match self.control_fetch_fault(round, requester_id, supplier) {
                        ControlFault::Lost => {
                            self.note_lost_pull(round, requester_id, seg, Some(supplier));
                            continue;
                        }
                        ControlFault::Delayed(ms) => extra_delay_ms = ms,
                        ControlFault::None => {}
                    }
                }
                tally
                    .record
                    .traffic
                    .add(TrafficClass::PrefetchData, SIZES.segment_bits);
                if let Some(sup_idx) = self.nodes.lookup(supplier) {
                    scratch.add_spent(sup_idx, 1.0 / SystemConfig::PERIOD_SECS);
                }
                self.receive_direct(idx, requester_id, seg);
                outcome.fetch_latency_ms.unwrap_or(period_ms) + extra_delay_ms
            } else if source_fallbacks < source_cap {
                // No replica holds the segment at all. Origin fallback:
                // re-seed the copy from the source so the gossip plane
                // can re-amplify it (see [`Self::source_fetch`]).
                source_fallbacks += 1;
                let traffic = &mut tally.record.traffic;
                match self.source_fetch(round, idx, requester_id, seg, scratch, traffic) {
                    Some(fetch_ms) => fetch_ms,
                    None => continue,
                }
            } else {
                continue;
            };
            tally.record.prefetch_successes += 1;
            // Deadline: the start of the round in which `seg` plays.
            // Buffering nodes have no deadline yet.
            let deadline_ms = if !started {
                f64::INFINITY
            } else if seg < anchor + p {
                0.0 // needed this very round: always late
            } else {
                ((seg - anchor) / p) as f64 * period_ms
            };
            let node = self.nodes.node_mut(idx);
            node.prefetch_tags.insert(seg);
            if fetch_ms > deadline_ms.max(f64::EPSILON) && deadline_ms < period_ms {
                // Case 1: arrived after (or perilously at) its
                // deadline round.
                node.urgent.on_overdue();
                tally.record.prefetch_overdue += 1;
            }
        }
    }
}

//! Step 5 — data scheduling: the exchange window, one node's pull plan
//! (Algorithm 1 and the baselines over the snapshotted maps; its gather
//! is also the proof that a node has nothing to pull), and the phase —
//! one loop in node order that plans a node and queues its requests.

use cs_sim::SimRng;

use super::state::{
    MapStore, NbrView, NodeArena, NodeIdx, NodeSim, PeerRef, PullRequest, RoundScratch, RoundTally,
    SchedScratch,
};
use super::SystemSim;
use crate::buffer::{low_bits, BitIter, StreamBuffer};
use crate::config::{SchedulerKind, SystemConfig};
use crate::policy::{AdaptivePolicy, PolicyKind};
use crate::priority::{PriorityPolicy, PriorityTerms};
use crate::scheduler::{
    schedule_coolstreaming_masks_into, schedule_greedy_masks_into, schedule_random_masks_into,
    sort_mask_candidates, Assignment, MaskCandidate, ScheduleContext,
};
use crate::SegmentId;

/// The fixed (Legacy) exchange window at `play_anchor`: its width
/// `max(2·startup_segments, 4·p)` and its end. Pulls focus on segments
/// within a couple of buffering delays of the play point — spending
/// inbound budget on far-future segments starves near-deadline ones (the
/// failure the §4.2 urgency term exists to avoid; real CoolStreaming
/// bounds its exchange window the same way). The scheduler's window, its
/// scratch sizing and the telemetry's `window_occupancy` all start here.
pub(super) fn legacy_window(
    config: &SystemConfig,
    play_anchor: SegmentId,
    newest_emitted: SegmentId,
) -> (u64, SegmentId) {
    let width = (2 * config.startup_segments).max(4 * SystemConfig::DEMAND_PER_ROUND);
    (width, window_end(play_anchor, newest_emitted, width))
}

/// The end of a `width`-segment window at `play_anchor`, capped by what
/// has been emitted and by the buffer.
fn window_end(play_anchor: SegmentId, newest_emitted: SegmentId, width: u64) -> SegmentId {
    (newest_emitted + 1)
        .min(play_anchor + width)
        .min(play_anchor + SystemConfig::BUFFER_SEGMENTS)
}

/// The scheduler's exchange window at a given play anchor:
/// `(window_end, occupancy)`. Legacy keeps the fixed window
/// ([`legacy_window`]) and reports occupancy 1.0; under the adaptive
/// policy the lookahead widens as the fixed window's occupancy drops (see
/// [`crate::policy`]).
pub(super) fn exchange_window(
    config: &SystemConfig,
    buffer: &StreamBuffer,
    play_anchor: SegmentId,
    newest_emitted: SegmentId,
) -> (SegmentId, f64) {
    let (legacy_width, legacy_end) = legacy_window(config, play_anchor, newest_emitted);
    if matches!(config.policy, PolicyKind::Legacy) {
        return (legacy_end, 1.0);
    }
    let occupancy = if legacy_end > play_anchor {
        let held = buffer.count_range(play_anchor, legacy_end);
        held as f64 / (legacy_end - play_anchor) as f64
    } else {
        1.0
    };
    let lookahead = AdaptivePolicy::lookahead(legacy_width, occupancy);
    (
        window_end(play_anchor, newest_emitted, lookahead),
        occupancy,
    )
}

/// The requester's estimate of supplier `s`'s sending rate `R(j)`:
/// the larger of the observed delivery EWMA and the supplier's
/// advertised per-neighbour outbound share. Without the advertised
/// component, a neighbour that was never asked decays to an estimated
/// rate of zero and is then never asked — a death spiral the real
/// Rate Controller avoids by knowing the peer's advertised bandwidth
/// (Figure 2 carries it in the Peer Table).
fn supplier_rate_estimate(
    nodes: &NodeArena,
    config: &SystemConfig,
    requester: &NodeSim,
    s: &NbrView,
) -> f64 {
    let observed = requester.rate.rate(s.peer);
    let outbound = nodes.node(s.slot).bandwidth.outbound_segments_per_sec();
    let advertised_share = outbound / config.neighbors as f64;
    // The estimate can never exceed what the supplier could physically
    // send even with no other requester; without this cap the
    // multiplicative probe inflates until every pull piles onto one
    // neighbour.
    observed.max(advertised_share).min(outbound.max(0.01))
}

/// Fraction of the inbound budget the ContinuStreaming scheduler may
/// spend on *urgent* candidates (deadline within ~1 s). Deadline
/// rescue must be bounded: a scheduler that always serves the nearest
/// deadline first stops acquiring fresh segments, the neighbourhood
/// has nothing to trade, and the swarm collapses (the scorecard's
/// `ablation-priority` rows test it). The remainder follows the diversified
/// rarity order; stragglers that slip through are exactly what the
/// urgent line + DHT retrieval exist to catch.
const RESCUE_BUDGET_FRACTION: f64 = 0.2;

/// Compute one node's pull schedule from its neighbours' snapshotted
/// maps. Pure read over the arena and the exchange snapshots (apart from
/// `sched`, which is this pass's scratch, and the scheduler RNG, which
/// only the Random scheduler draws from). Returns the
/// node's new inbound carry, with the assignments left in
/// `sched.assignments` — or `None` when there is nothing to pull: the
/// source, or a node for which the gather finds no candidate. Such a
/// node keeps its carry, and nothing after the gather runs for it: no
/// rate estimate, no budget arithmetic, no RNG draw.
///
/// The pass works on the shape its input has — a handful of neighbours
/// times a window of a few hundred bits — and the gather runs in two
/// passes so that "nothing to do" (§4.2: no fresh segment) costs what
/// proving it costs. [`gather_lacking`] reads only the node's own
/// buffer: a node that holds its whole exchange window — a sated paused
/// viewer — returns after ⌈window/64⌉ loads, before any neighbour is
/// looked at. [`resolve_view`] then looks each neighbour up once and
/// [`gather_fresh`] ANDs their maps into the lacking words: a node whose
/// neighbours advertise none of what it lacks — a dark neighbourhood in
/// the startup wave — returns there. Only then [`prioritise`] turns the
/// set bits into candidates whose supplier set is a bitmask over the
/// view (ranked by §4.2 priority only for the Algorithm 1 arms), and
/// [`order_and_assign`] runs the configured scheduler's mask form: one
/// path for every [`SchedulerKind`].
#[allow(clippy::too_many_arguments)]
fn plan_node(
    nodes: &NodeArena,
    config: &SystemConfig,
    maps: &MapStore,
    newest_emitted: SegmentId,
    idx: NodeIdx,
    round: u32,
    sched: &mut SchedScratch,
    rng: &mut SimRng,
) -> Option<f64> {
    let node = nodes.node(idx);
    if node.is_source {
        return None;
    }
    let local_anchor = node.next_play.or_else(|| node.buffer.iter().next());
    let play_anchor = local_anchor.unwrap_or_else(|| {
        // Nothing buffered yet: aim at the oldest segment any
        // neighbour still holds (bounded below by 1) — the one anchor
        // that needs the view before the window exists.
        resolve_view(nodes, maps, node, sched);
        sched
            .view
            .iter()
            .filter_map(|v| maps.map_at(v.slot).iter().next())
            .min()
            .unwrap_or(1)
    });
    // The exchange window (see [`exchange_window`]); the occupancy
    // feeds the adaptive policy's rarity bias below.
    let (window_end, occupancy) =
        exchange_window(config, &node.buffer, play_anchor, newest_emitted);

    // The scratch is sized to the window's *cap*, not its current width:
    // the width creeps toward the cap as the play gap drifts, and under
    // the adaptive policy occupancy-driven widening moves it mid-run.
    // Sizing to the widest window the policy can ask for up front keeps
    // either from re-growing the scratch hundreds of rounds in (the
    // zero-alloc assertion pins it).
    let (legacy_width, _) = legacy_window(config, play_anchor, newest_emitted);
    let wcap = match &config.policy {
        PolicyKind::Legacy => legacy_width,
        PolicyKind::Adaptive(_) => AdaptivePolicy::max_lookahead(legacy_width),
    }
    .min(SystemConfig::BUFFER_SEGMENTS) as usize;
    let words_cap = wcap.div_ceil(64);
    if sched.wanted.len() < words_cap {
        sched.wanted.resize(words_cap, 0);
        sched.fresh.resize(words_cap * config.neighbors, 0);
        sched.candidates.reserve(wcap);
    }

    let words = window_end.saturating_sub(play_anchor).div_ceil(64) as usize;
    if !gather_lacking(&node.buffer, play_anchor, window_end, words, sched) {
        return None;
    }
    if local_anchor.is_some() {
        resolve_view(nodes, maps, node, sched);
    }
    if !gather_fresh(maps, play_anchor, words, sched) {
        return None;
    }
    prioritise(
        nodes,
        config,
        maps,
        node,
        play_anchor,
        occupancy,
        words,
        sched,
    );

    // Inbound budget with carry. The adaptive policy over-provisions
    // the per-round allotment by the slack fraction (the steady-state
    // slack knob: a budget exactly equal to demand lets every
    // inefficiency compound into permanent holes).
    let base_budget = node.bandwidth.inbound_segments_per_sec() * SystemConfig::PERIOD_SECS;
    let budget_f = config.policy.provisioned_inbound(base_budget) + node.inbound_carry;
    let budget = budget_f.floor().max(0.0) as u32;
    order_and_assign(config, node, round, budget, sched, rng);
    Some((budget_f - budget as f64).clamp(0.0, 1.0))
}

/// Resolve the node's connected neighbours once into `sched.view`: the
/// ones alive and advertising a map this round — dead refs and
/// unsnapshotted slots can supply nothing — in ascending-id order, which
/// every supplier tie-break and float fold downstream follows.
fn resolve_view(nodes: &NodeArena, maps: &MapStore, node: &NodeSim, sched: &mut SchedScratch) {
    sched.view.clear();
    for peer in node.connected.ids() {
        if let Some(slot) = nodes.resolve(peer).filter(|&ni| maps.get(ni).is_some()) {
            sched.view.push(NbrView { peer, slot });
        }
    }
    sched.view.sort_unstable_by_key(|v| v.peer);
}

/// The gather's first pass, over the node's own buffer only, a word (64
/// segments from the play anchor) at a time: `lacking = !mine & window`
/// into `sched.wanted`. Returns whether the node lacks anything — `false`
/// is the window-complete proof (an empty window included), by
/// computation rather than by a check kept beside it.
fn gather_lacking(
    buffer: &StreamBuffer,
    play_anchor: SegmentId,
    window_end: SegmentId,
    words: usize,
    sched: &mut SchedScratch,
) -> bool {
    let mut any = 0u64;
    for w in 0..words {
        let base = play_anchor + 64 * w as u64;
        let lacking = !buffer.window_word(base) & low_bits(window_end - base);
        sched.wanted[w] = lacking;
        any |= lacking;
    }
    any != 0
}

/// The gather's second pass: `fresh = theirs & lacking` per neighbour of
/// `sched.view` into `sched.fresh`, their union — the candidate set,
/// already in segment order — back into `sched.wanted`. A word the node
/// fully holds needs no look at the neighbours (its `fresh` row is then
/// never read). Returns whether there is any candidate — `false` covers
/// the empty view and the neighbourhood that advertises nothing wanted.
fn gather_fresh(
    maps: &MapStore,
    play_anchor: SegmentId,
    words: usize,
    sched: &mut SchedScratch,
) -> bool {
    let nv = sched.view.len();
    let mut any = 0u64;
    for w in 0..words {
        let lacking = sched.wanted[w];
        if lacking == 0 {
            continue;
        }
        let base = play_anchor + 64 * w as u64;
        let mut advertised = 0u64;
        let row = &mut sched.fresh[w * nv..(w + 1) * nv];
        for (fresh, v) in row.iter_mut().zip(&sched.view) {
            *fresh = maps.map_at(v.slot).window_word(base) & lacking;
            advertised |= *fresh;
        }
        sched.wanted[w] = advertised;
        any |= advertised;
    }
    any != 0
}

/// Turn the gathered bits into `sched.candidates`, in ascending segment
/// order (deterministic regardless of neighbour iteration, which also
/// makes the Random scheduler's shuffle reproducible across processes):
/// each with its supplier mask over `sched.view` and — for the arms that
/// rank by it, Algorithm 1's — its §4.2 priority; the baselines'
/// candidates carry 0.0, which their schedulers never read. Suppliers
/// fold in ascending-id order, so `max_rate` and the rarity product are
/// the same floats a walk over a sorted supplier list gives.
#[allow(clippy::too_many_arguments)]
fn prioritise(
    nodes: &NodeArena,
    config: &SystemConfig,
    maps: &MapStore,
    node: &NodeSim,
    play_anchor: SegmentId,
    occupancy: f64,
    words: usize,
    sched: &mut SchedScratch,
) {
    // Per-neighbour rate estimates, computed once (they depend only on
    // the supplier) and reused for every candidate below and for the
    // scheduler context.
    sched.rates.clear();
    for v in &sched.view {
        sched
            .rates
            .push((v.peer, supplier_rate_estimate(nodes, config, node, v)));
    }
    let policy = match config.scheduler {
        SchedulerKind::ContinuStreaming => Some(PriorityPolicy::UrgencyRarity),
        SchedulerKind::GreedyWithPolicy(p) => Some(p),
        SchedulerKind::CoolStreaming | SchedulerKind::Random => None,
    };
    let (view, rates) = (&sched.view, &sched.rates);
    let priority = |policy: PriorityPolicy, seg: SegmentId, suppliers: u64| {
        let mut max_rate = 0.0f64;
        let mut rarity_product = 1.0f64;
        for k in BitIter(suppliers) {
            let k = k as usize;
            max_rate = max_rate.max(rates[k].1);
            rarity_product *= maps.map_at(view[k].slot).replacement_probability(seg);
        }
        let terms = PriorityTerms {
            id: seg,
            play_id: play_anchor,
            playback_rate: SystemConfig::DEMAND_PER_ROUND as f64,
            max_rate,
            rarity_product,
            supplier_count: suppliers.count_ones() as usize,
        };
        // Per-(node, segment) deterministic jitter, sized to dominate
        // the rarity band (0..1) but not genuine urgency (> 1 once a
        // deadline is inside ~1 s): neighbours that compute identical
        // priorities pull identical segments in identical order,
        // holdings synchronise, and the intra-neighbourhood trading that
        // makes swarming work dies. Within the non-urgent bulk the order
        // is therefore diversified per node; near-deadline segments
        // still beat everything. The A1 ablation bench quantifies this.
        let jitter = 1.0
            * (cs_sim::splitmix64(node.id ^ seg.wrapping_mul(0x9E37_79B9)) as f64
                / u64::MAX as f64);
        // Below the policy's occupancy floor the adaptive policy adds a
        // bounded rarity bonus on top of the jitter: candidates few
        // neighbours advertise are pulled preferentially, re-creating the
        // holdings diversity that neighbourhood trading needs — while the
        // per-node jitter keeps neighbouring pull orders decorrelated
        // (replacing the jitter with a shared rarity rank synchronises
        // them and accelerates the spiral).
        match &config.policy {
            PolicyKind::Legacy => policy.evaluate_terms(&terms) + jitter,
            PolicyKind::Adaptive(_) => {
                policy.evaluate_terms(&terms)
                    + jitter
                    + AdaptivePolicy::rarity_bonus(occupancy, terms.supplier_count)
            }
        }
    };
    let nv = view.len();
    sched.candidates.clear();
    for w in 0..words {
        let row = &sched.fresh[w * nv..(w + 1) * nv];
        for b in BitIter(sched.wanted[w]) {
            let seg = play_anchor + 64 * w as u64 + u64::from(b);
            let suppliers = row
                .iter()
                .enumerate()
                .fold(0u64, |mask, (k, fresh)| mask | (fresh >> b & 1) << k);
            sched.candidates.push(MaskCandidate {
                id: seg,
                priority: policy.map_or(0.0, |policy| priority(policy, seg, suppliers)),
                suppliers,
            });
        }
    }
}

/// Order `sched.candidates` for the configured scheduler and assign
/// suppliers into `sched.assignments`. Every arm runs a mask-form
/// scheduler over the same candidates: the two baselines order them
/// themselves, the Algorithm 1 arms sort them by priority first.
fn order_and_assign(
    config: &SystemConfig,
    node: &NodeSim,
    round: u32,
    budget: u32,
    sched: &mut SchedScratch,
    rng: &mut SimRng,
) {
    let mut ctx = ScheduleContext {
        inbound_budget: budget,
        period_secs: SystemConfig::PERIOD_SECS,
        supplier_rates: std::mem::take(&mut sched.rates),
        deadline_cutoff: node
            .next_play
            .map(|np| np + 2 * SystemConfig::DEMAND_PER_ROUND),
    };
    let (candidates, algo, out) = (
        &mut sched.candidates,
        &mut sched.algo,
        &mut sched.assignments,
    );
    match config.scheduler {
        SchedulerKind::CoolStreaming => {
            schedule_coolstreaming_masks_into(candidates, &ctx, algo, out)
        }
        SchedulerKind::Random => schedule_random_masks_into(candidates, &ctx, rng, algo, out),
        SchedulerKind::ContinuStreaming => {
            // Bounded-rescue ordering: urgent candidates (deadline
            // pressure has pushed their priority above the rarity
            // band) are capped at a fraction of the budget; the rest
            // of the order is the diversified rarity ranking. See
            // [`RESCUE_BUDGET_FRACTION`].
            sort_mask_candidates(candidates);
            // Catch-up grace: a node that just joined (or just started
            // playing) is *supposed* to spend its whole budget near
            // its play point; the rescue cap only binds in steady
            // state. `join_grace_rounds` can lengthen the window (it
            // never shortens below the 6 rounds the cliff fix
            // hard-wired, so the knob at 0 is bit-identical).
            let grace_rounds = config
                .policy
                .as_adaptive()
                .map_or(6, |ap| ap.join_grace_rounds.max(6));
            let in_grace = round < node.spawn_round.saturating_add(grace_rounds);
            let rescue_cap = if in_grace {
                budget as usize
            } else {
                ((budget as f64 * RESCUE_BUDGET_FRACTION).floor() as usize).max(1)
            };
            let split = candidates
                .iter()
                .position(|c| c.priority <= 1.0)
                .unwrap_or(candidates.len());
            if split > rescue_cap {
                // Keep the `rescue_cap` most urgent, then the normal
                // band; urgent overflow goes to the back of the line
                // (it will usually miss — that is the pre-fetcher's
                // problem, not worth starving dissemination for).
                // [A|B|C] → [A|C|B] is a rotation of the tail.
                candidates[rescue_cap..].rotate_left(split - rescue_cap);
            }
            schedule_greedy_masks_into(candidates, &ctx, algo, out);
        }
        SchedulerKind::GreedyWithPolicy(_) => {
            sort_mask_candidates(candidates);
            schedule_greedy_masks_into(candidates, &ctx, algo, out);
        }
    }
    sched.rates = std::mem::take(&mut ctx.supplier_rates);
}

impl SystemSim {
    /// Step 5: in (ascending) node order, plan each node's pulls against
    /// the snapshotted maps and apply the plan — inbound carry, request
    /// accounting, queueing at the suppliers. A node [`plan_node`] found
    /// nothing to pull for has no plan to apply; the ones that have are
    /// the round's `active_sched`.
    pub(super) fn run_schedule_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        tally: &mut RoundTally,
    ) {
        // Taken out for the phase so `apply_plan` can read the plan while
        // it pushes into the scratch's request arena.
        let mut sched = std::mem::take(&mut scratch.sched);
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            if let Some(carry) = plan_node(
                &self.nodes,
                &self.config,
                &scratch.maps,
                self.newest_emitted,
                idx,
                round,
                &mut sched,
                &mut self.sched_rng,
            ) {
                tally.active_sched += 1;
                self.apply_plan(idx, carry, &sched.assignments, scratch);
            }
        }
        scratch.sched = sched;
    }

    /// Apply one node's plan: update the inbound carry, account the
    /// requests in the Rate Controller, queue them at the suppliers.
    fn apply_plan(
        &mut self,
        idx: NodeIdx,
        new_carry: f64,
        assignments: &[Assignment<PeerRef>],
        scratch: &mut RoundScratch,
    ) {
        let node_id = {
            let node = self.nodes.node_mut(idx);
            node.inbound_carry = new_carry;
            node.id
        };
        for &a in assignments {
            self.nodes.node_mut(idx).rate.record_request(a.supplier);
            let sup_slot = self
                .nodes
                .resolve(a.supplier)
                .expect("scheduled suppliers are alive this round");
            scratch.push_request(PullRequest {
                requester: idx,
                requester_id: node_id,
                segment: a.segment,
                priority: a.priority,
                supplier_slot: sup_slot.0,
            });
        }
    }
}

//! Step 6 — supplier service: the read-only decision half (queue sort +
//! budget acceptance, sharded by supplier slot) and the serial merge
//! half that applies deliveries in ascending-id supplier order.

use cs_net::{TrafficClass, TrafficCounter};
use cs_obs::WorkerPhase;

use super::state::{
    NodeArena, NodeIdx, NodeSim, PeerRef, PullRequest, RoundScratch, ServePlan, ServiceCounters,
};
use super::{carve, shard_profiler, timed_shard, SystemSim};
use crate::config::SystemConfig;

/// The decision half of supplier service for one supplier slot: sort the
/// pending queue (most urgent first, per-round-hash tie-break) and decide
/// which requests the outbound budget accepts. Pure read over the arena
/// apart from the queue sort and the plan output — which is what lets
/// [`SystemSim::plan_service_phase`] run it for disjoint slot ranges
/// concurrently.
fn plan_service(
    nodes: &NodeArena,
    config: &SystemConfig,
    salt: u64,
    slot: u32,
    reqs: &mut [PullRequest],
    plan: &mut ServePlan,
) {
    let sup = nodes.node(NodeIdx(slot));
    let budget = sup
        .bandwidth
        .outbound_segments_per_sec(config.segment_kbits)
        * config.period_secs
        + sup.outbound_carry;
    let sends = budget.floor();
    plan.carry = budget - sends;
    plan.sends = sends as i64;
    plan.buffer_epoch = sup.buffer.epoch();
    // Most urgent first. Ties break on a per-round hash of the requester
    // — deterministic, but not the same node winning every round (a
    // fixed tie-break starves whoever sorts last). Unstable sort: the
    // (priority, requester-hash, segment) key is unique per request
    // (splitmix64 is a bijection), so the order matches a stable sort.
    reqs.sort_unstable_by(|a, b| {
        b.priority
            .total_cmp(&a.priority)
            .then_with(|| {
                cs_sim::splitmix64(a.requester_id ^ salt)
                    .cmp(&cs_sim::splitmix64(b.requester_id ^ salt))
            })
            .then(a.segment.cmp(&b.segment))
    });
    (plan.issued, plan.dropped) = decide_service(plan.sends, sup, nodes, reqs);
}

/// The budget/acceptance walk of supplier service: marks each request
/// that fits the outbound budget (and the supplier's held data, and a
/// live requester) accepted, in place. The single implementation behind
/// both the plan half and the merge's epoch-revalidation replay — the
/// "bit-identical at any thread count" guarantee rests on these two
/// paths never diverging. Returns `(issued, dropped)`.
fn decide_service(
    sends_budget: i64,
    sup: &NodeSim,
    nodes: &NodeArena,
    reqs: &mut [PullRequest],
) -> (u64, u64) {
    let mut issued = 0u64;
    let mut dropped = 0u64;
    let mut sends = sends_budget;
    for req in reqs.iter_mut() {
        req.accepted = false;
        issued += 1;
        if sends <= 0 {
            dropped += 1;
            continue;
        }
        // The supplier must (still) hold the segment.
        if !sup.buffer.contains(req.segment) {
            continue;
        }
        if nodes.get(req.requester).is_none() {
            continue;
        }
        sends -= 1;
        req.accepted = true;
    }
    (issued, dropped)
}

impl SystemSim {
    /// Step 6, decision half: bucket the round's requests by supplier
    /// slot, then plan every pending queue (sort + budget acceptance).
    /// The touched slots are cut into [`SystemConfig::parallel_threads`]
    /// contiguous runs for [`cs_sim::fork_join`] — buckets are laid out
    /// in ascending slot order, so each run owns a disjoint slice of the
    /// request arena and a disjoint slice of the plan table.
    pub(super) fn plan_service_phase(&self, salt: u64, scratch: &mut RoundScratch) {
        scratch.bucket_requests();
        let RoundScratch {
            requests_sorted,
            queue_count,
            queue_start,
            touched_suppliers,
            serve_plans,
            ..
        } = scratch;
        let nodes = &self.nodes;
        let config = &self.config;
        // Shared views for the shard closure (the exclusive borrows stay
        // with the carved-up request/plan arrays).
        let queue_start: &[u32] = queue_start;
        let queue_count: &[u32] = queue_count;
        let workers = config.parallel_threads.unwrap_or(1);
        let chunk = touched_suppliers.len().div_ceil(workers).max(1);
        let prof = shard_profiler(&self.obs, touched_suppliers.len().div_ceil(chunk));
        let mut rest_reqs: &mut [PullRequest] = requests_sorted;
        let mut rest_plans: &mut [ServePlan] = serve_plans;
        let (mut reqs_consumed, mut plans_consumed) = (0usize, 0usize);
        let shards = touched_suppliers.chunks(chunk).map(|slots| {
            let first = slots[0] as usize;
            let last = slots[slots.len() - 1] as usize;
            let run_start = queue_start[first] as usize;
            let run_end = queue_start[last] as usize + queue_count[last] as usize;
            let reqs = carve(&mut rest_reqs, &mut reqs_consumed, run_start, run_end);
            let plans = carve(&mut rest_plans, &mut plans_consumed, first, last + 1);
            (slots, reqs, run_start, plans, first)
        });
        cs_sim::fork_join(shards, |_, (slots, reqs, run_start, plans, first)| {
            timed_shard(prof, WorkerPhase::ServicePlan, || {
                for &slot in slots {
                    let b0 = queue_start[slot as usize] as usize - run_start;
                    let blen = queue_count[slot as usize] as usize;
                    plan_service(
                        nodes,
                        config,
                        salt,
                        slot,
                        &mut reqs[b0..b0 + blen],
                        &mut plans[slot as usize - first],
                    );
                }
            })
        });
    }

    /// Step 6, merge half: walk suppliers in ascending-id order (the
    /// serial service order) and apply each plan's deliveries. A supplier
    /// whose buffer changed since its plan was computed — it received
    /// segments from an earlier-ordered supplier, possibly sliding its
    /// window — gets its decisions recomputed serially against the live
    /// buffer, which is exactly what the old serial loop saw. Results are
    /// therefore bit-identical to serial at any worker count.
    pub(super) fn apply_service_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
        svc: &mut ServiceCounters,
    ) {
        let faults_on = self.faults.active;
        for k in 0..self.order_idx.len() {
            let sidx = self.order_idx[k];
            let slot = sidx.0 as usize;
            let len = scratch.queue_count[slot] as usize;
            if len == 0 {
                continue;
            }
            let start = scratch.queue_start[slot] as usize;
            let plan = scratch.serve_plans[slot];
            let sup_ref = {
                let sup = self.nodes.node_mut(sidx);
                sup.outbound_carry = plan.carry;
                PeerRef {
                    id: sup.id,
                    slot: sidx.0,
                }
            };
            let (issued, dropped) = if self.nodes.node(sidx).buffer.epoch() == plan.buffer_epoch {
                // Fast path: the plan's inputs are still exact.
                (plan.issued, plan.dropped)
            } else {
                // Revalidation: re-run the shared decision walk on the
                // live buffer (the bucket is already sorted).
                decide_service(
                    plan.sends,
                    self.nodes.node(sidx),
                    &self.nodes,
                    &mut scratch.requests_sorted[start..start + len],
                )
            };
            svc.issued += issued;
            svc.dropped += dropped;
            let mut delivered_here = 0u64;
            for ri in start..start + len {
                let req = scratch.requests_sorted[ri];
                if req.accepted {
                    // Fault plane: the supplier sent, but the segment
                    // never arrives — the requester cannot tell a lost
                    // delivery from a silent supplier, which is what the
                    // recovery plane's timeout exists to resolve.
                    if faults_on && self.data_delivery_lost(round, sup_ref.id, req.requester_id) {
                        self.note_lost_pull(round, req.requester_id, req.segment, Some(sup_ref.id));
                        continue;
                    }
                    self.deliver_one(sup_ref, req, traffic, svc);
                    delivered_here += 1;
                }
            }
            if delivered_here > 0 {
                svc.supplier_active += 1;
                svc.supplier_peak = svc.supplier_peak.max(delivered_here);
                if let Some(o) = self.obs.as_deref_mut() {
                    if o.dist_active(round) {
                        o.supplier_load.record(delivered_here);
                    }
                }
            }
        }
    }

    /// Deliver one accepted request: payload accounting, receiver buffer
    /// insert, rate/supply bookkeeping, the §4.3 Case-2 check for tagged
    /// repeats, and backup placement of newly received segments.
    fn deliver_one(
        &mut self,
        sup_ref: PeerRef,
        req: PullRequest,
        traffic: &mut TrafficCounter,
        svc: &mut ServiceCounters,
    ) {
        svc.deliveries += 1;
        traffic.add(TrafficClass::Data, self.sizes.segment_bits);
        let newly = {
            let receiver = self.nodes.node_mut(req.requester);
            let newly = receiver.buffer.insert(req.segment);
            receiver.round_inflow += 1;
            receiver.rate.record_delivery(sup_ref);
            receiver
                .connected
                .record_supply(sup_ref, self.config.segment_kbits);
            newly
        };
        if !newly {
            // Already present: if it carries a pre-fetch tag and its
            // deadline has not passed, this is §4.3 Case 2.
            let receiver = self.nodes.node_mut(req.requester);
            if receiver.prefetch_tags.remove(&req.segment).is_some()
                && receiver.next_play.is_none_or(|np| req.segment >= np)
            {
                receiver.urgent.on_repeated();
                svc.repeated += 1;
            }
            return;
        }
        let successor = self.believed_successor(req.requester_id);
        let receiver = self.nodes.node_mut(req.requester);
        receiver.backup.maybe_store(req.segment, successor);
    }
}

//! Step 6 — supplier service: one loop over the suppliers in ascending-id
//! order that sorts each pending queue, then decides and delivers request
//! by request against the supplier's live buffer.

use cs_dht::DhtId;
use cs_net::{TrafficClass, SEGMENT_KBITS};

use super::state::{NodeIdx, PullRequest, RoundScratch, RoundTally};
use super::{SystemSim, SIZES};
use crate::config::SystemConfig;
use crate::SegmentId;

impl SystemSim {
    /// Step 6: bucket the round's requests by supplier slot, then serve
    /// every supplier with a pending queue, in node order. A supplier
    /// sends what its outbound budget (with carry) covers, most urgent
    /// request first, and only what it holds when its turn comes: an
    /// earlier supplier's delivery may have slid its window past a
    /// segment it advertised.
    pub(super) fn service_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        tally: &mut RoundTally,
    ) {
        scratch.bucket_requests();
        let salt = cs_sim::splitmix64(round as u64 ^ self.config.seed);
        let faults_on = self.faults.active;
        for k in 0..self.order_idx.len() {
            let sidx = self.order_idx[k];
            let slot = sidx.0 as usize;
            let len = scratch.queue_count[slot] as usize;
            if len == 0 {
                continue;
            }
            let (sup_id, mut sends) = {
                let sup = self.nodes.node_mut(sidx);
                // The outbound-spend ledger (pushes, seeds, fallbacks,
                // rescue uploads) is not read here: the two budgets add.
                let budget = sup.bandwidth.outbound_segments_per_sec() * SystemConfig::PERIOD_SECS
                    + sup.outbound_carry;
                let sends = budget.floor();
                sup.outbound_carry = budget - sends;
                (sup.id, sends as i64)
            };
            let queue = scratch.sort_queue(slot, salt);
            tally.record.requests_issued += len as u64;
            let mut delivered_here = 0u64;
            for ri in queue.clone() {
                if sends <= 0 {
                    // Out of budget: the rest of the queue is refused.
                    tally.record.requests_dropped += (queue.end - ri) as u64;
                    break;
                }
                let req = scratch.requests[scratch.order[ri] as usize];
                let segment = SegmentId::from(req.segment);
                // The supplier must (still) hold the segment, and the
                // requester must be alive to receive it.
                if !self.nodes.node(sidx).buffer.contains(segment) {
                    continue;
                }
                let Some(ridx) = self.nodes.lookup(req.requester_id) else {
                    continue;
                };
                sends -= 1;
                // Fault plane: the supplier sent, but the segment never
                // arrives — the requester cannot tell a lost delivery
                // from a silent supplier, which is what the recovery
                // plane's timeout exists to resolve.
                if faults_on && self.data_delivery_lost(round, sup_id, req.requester_id) {
                    self.note_lost_pull(round, req.requester_id, segment, Some(sup_id));
                    continue;
                }
                self.deliver_one(sup_id, ridx, req, tally);
                delivered_here += 1;
            }
            if delivered_here > 0 {
                let t = &mut tally.telemetry;
                t.supplier_active += 1;
                t.supplier_peak_load = t.supplier_peak_load.max(delivered_here);
                if let Some(o) = self.obs.as_deref_mut() {
                    if o.dist_active(round) {
                        o.supplier_load.record(delivered_here);
                    }
                }
            }
        }
    }

    /// Deliver one accepted request to the requester in arena slot `ridx`:
    /// payload accounting, receiver buffer insert, the supplier's row in
    /// the receiver's partner table (delivery count and supply step, one
    /// find), the §4.3 Case-2 check for tagged repeats, and backup
    /// placement of newly received segments.
    fn deliver_one(
        &mut self,
        sup_id: DhtId,
        ridx: NodeIdx,
        req: PullRequest,
        tally: &mut RoundTally,
    ) {
        let segment = SegmentId::from(req.segment);
        let record = &mut tally.record;
        record.gossip_deliveries += 1;
        record.traffic.add(TrafficClass::Data, SIZES.segment_bits);
        let newly = {
            let receiver = self.nodes.node_mut(ridx);
            let newly = receiver.buffer.insert(segment);
            receiver.round_inflow += 1;
            receiver.connected.record_delivery(sup_id, SEGMENT_KBITS);
            newly
        };
        if !newly {
            // Already present: if it carries a pre-fetch tag and its
            // deadline has not passed, this is §4.3 Case 2.
            let receiver = self.nodes.node_mut(ridx);
            if receiver.prefetch_tags.take(segment)
                && receiver.next_play.is_none_or(|np| segment >= np)
            {
                receiver.urgent.on_repeated();
                tally.record.prefetch_repeated += 1;
            }
            return;
        }
        let successor = self.believed_successor(req.requester_id);
        let receiver = self.nodes.node_mut(ridx);
        receiver.backup.maybe_store(segment, successor);
    }
}

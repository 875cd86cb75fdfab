//! Test hooks: per-node state dumps and the scratch / neighbour
//! invariant checkers.

use cs_dht::DhtId;

use super::{NodeDebugState, SystemSim};

impl SystemSim {
    /// Debug introspection: one [`NodeDebugState`] tuple per alive node.
    #[doc(hidden)]
    pub fn debug_states(&self) -> Vec<NodeDebugState> {
        self.order_idx
            .iter()
            .map(|&idx| {
                let n = self.nodes.node(idx);
                let first = n.buffer.iter().next();
                (
                    n.id,
                    n.next_play,
                    n.buffer.len(),
                    first,
                    first.map(|f| n.buffer.contiguous_from(f)).unwrap_or(0),
                    n.connected.len(),
                    n.bandwidth.inbound_segments_per_sec(),
                )
            })
            .collect()
    }

    /// Verify the persistent round-scratch invariants (test hook; panics
    /// on violation): the round's queues partition its request arena,
    /// and every snapshot stamped this round belongs to its slot's
    /// current occupant.
    #[doc(hidden)]
    pub fn debug_check_scratch(&self) {
        let scratch = &self.scratch;
        // Request arena: the per-slot counts partition the flat request
        // list exactly.
        let total: u64 = scratch.queue_count.iter().map(|&c| c as u64).sum();
        assert_eq!(
            total,
            scratch.requests.len() as u64,
            "request counts out of sync with the flat arena"
        );
        // Requests are queued in node order, so one node's are adjacent:
        // every node that issued any was counted into `active_sched`.
        let mut requesters: Vec<DhtId> = scratch.requests.iter().map(|r| r.requester_id).collect();
        requesters.dedup();
        let active = self.telemetry.rounds.last().map_or(0, |t| t.active_sched);
        assert!(
            requesters.len() as u64 <= active,
            "{} nodes issued requests but only {active} were counted active",
            requesters.len(),
        );
        // Queues: contiguous, disjoint ranges of `order` in ascending slot
        // order, each pointing only at requests queued at its slot; the
        // ranges together are a permutation of the request indices.
        let mut expected_start = 0u32;
        let mut seen = vec![false; scratch.requests.len()];
        for (slot, &count) in scratch.queue_count.iter().enumerate() {
            let end = scratch.queue_cursor[slot];
            assert_eq!(
                end.checked_sub(count),
                Some(expected_start),
                "queue for slot {slot} is not laid out contiguously"
            );
            for &i in &scratch.order[expected_start as usize..end as usize] {
                let req = scratch
                    .requests
                    .get(i as usize)
                    .unwrap_or_else(|| panic!("slot {slot}: order index {i} past the arena"));
                assert_eq!(
                    req.supplier_slot as usize, slot,
                    "slot {slot}'s queue points at request {i}, queued at another slot"
                );
                assert!(!seen[i as usize], "request {i} queued twice");
                seen[i as usize] = true;
            }
            expected_start = end;
        }
        // Buffer-map snapshots: every stamped-this-round snapshot must
        // belong to a currently alive node lifetime. A snapshot whose
        // birth stamp does not match the slot's current occupant must
        // not be stamped.
        for (slot, snap) in scratch.maps.snaps.iter().enumerate() {
            if snap.stamp != scratch.maps.stamp {
                continue; // stale snapshot: invisible by construction
            }
            let node = self.nodes.slots[slot]
                .as_ref()
                .unwrap_or_else(|| panic!("slot {slot}: stamped snapshot of a dead node"));
            assert_eq!(
                snap.birth, node.birth,
                "slot {slot}: stamped snapshot of a previous lifetime"
            );
        }
    }

    /// Debug invariant (fault suite): every connected neighbour of every
    /// alive node resolves to an alive node — crashed nodes were
    /// detected and dropped by the end of the round, so nothing serves
    /// from or schedules against a dark supplier.
    #[doc(hidden)]
    pub fn debug_neighbors_alive(&self) -> bool {
        self.order_idx.iter().all(|&idx| {
            self.nodes
                .node(idx)
                .connected
                .ids()
                .all(|r| self.nodes.lookup(r).is_some())
        })
    }
}

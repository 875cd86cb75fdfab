//! Test hooks: per-node state dumps and the scratch / neighbour
//! invariant checkers.

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
    /// on violation). Stale state in the reused buffers must be
    /// *invisible*: every lazily-cleared structure is only reachable
    /// through a generation stamp, a touched-list entry or a per-round
    /// count that was refreshed this round.
    #[doc(hidden)]
    pub fn debug_check_scratch(&self) {
        let scratch = &self.scratch;
        // Request arena: per-slot counts are nonzero only for touched
        // slots, and they partition the flat request list exactly.
        let mut touched_total = 0u64;
        for &slot in &scratch.touched_suppliers {
            let count = scratch.queue_count[slot as usize];
            assert!(count > 0, "touched slot {slot} has an empty bucket");
            touched_total += count as u64;
        }
        for (slot, &count) in scratch.queue_count.iter().enumerate() {
            if !scratch.touched_suppliers.contains(&(slot as u32)) {
                assert_eq!(
                    count, 0,
                    "slot {slot} holds a stale queue count without a touched entry \
                     (it would never be cleared)"
                );
            }
        }
        assert_eq!(
            touched_total,
            scratch.requests.len() as u64,
            "request counts out of sync with the flat arena"
        );
        for req in &scratch.requests {
            assert!(
                scratch.touched_suppliers.contains(&req.supplier_slot),
                "request queued at slot {} which is not touched",
                req.supplier_slot
            );
        }
        // Requests are queued in node order, so one node's are adjacent:
        // every node that issued any was counted into `active_sched`.
        let mut requesters: Vec<u32> = scratch.requests.iter().map(|r| r.requester.0).collect();
        requesters.dedup();
        let active = self.telemetry.rounds.last().map_or(0, |t| t.active_sched);
        assert!(
            requesters.len() as u64 <= active,
            "{} nodes issued requests but only {active} were counted active",
            requesters.len(),
        );
        // Buckets: contiguous, disjoint, in ascending slot order.
        let mut expected_start = 0u32;
        let mut sorted = scratch.touched_suppliers.clone();
        sorted.sort_unstable();
        for &slot in &sorted {
            assert_eq!(
                scratch.queue_start[slot as usize], expected_start,
                "bucket for slot {slot} is not laid out contiguously"
            );
            expected_start += scratch.queue_count[slot as usize];
        }
        // Outbound pre-fetch ledger: nonzero spend only on touched-spent
        // slots (anything else would leak into later rounds' rate caps).
        for (slot, &spent) in scratch.outbound_spent.iter().enumerate() {
            if spent != 0.0 {
                assert!(
                    scratch.touched_spent.contains(&(slot as u32)),
                    "slot {slot} carries untracked outbound spend {spent}"
                );
            }
        }
        // Buffer-map snapshots: every stamped-this-round snapshot must
        // belong to a currently alive node lifetime, with its epoch
        // trailing (never leading) the live buffer, and bitmap equality
        // whenever the epochs match. A snapshot whose birth stamp does
        // not match the slot's current occupant must not be stamped.
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
            assert!(
                snap.epoch <= node.buffer.epoch(),
                "slot {slot}: snapshot epoch leads the live buffer"
            );
            if snap.epoch == node.buffer.epoch() {
                assert_eq!(
                    snap.map, node.buffer,
                    "slot {slot}: equal epochs but diverged bitmaps"
                );
            }
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
                .all(|r| self.nodes.resolve(r).is_some())
        })
    }
}

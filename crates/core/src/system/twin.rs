//! The buffer-map exchange seam — the one place the simulator and the
//! live-network twin differ. [`SystemSim::step_with`] calls its exchange
//! once per round, between neighbour maintenance and the exchange phase,
//! with the round's [`MapStore`](crate::MapStore): the exchange installs
//! each alive node's view into it. [`SystemSim::step`] installs every
//! node's own announcement, read in place (nothing moves); `cs-twin`
//! sends the announcements of [`SystemSim::twin_announcements`] over a
//! transport and installs each loopback copy as it arrives.

use cs_dht::DhtId;

use super::state::{MapStore, NodeSim};
use super::SystemSim;
use crate::SegmentId;

/// One node's per-round buffer-map announcement — the protocol's only
/// continuous all-to-neighbours state flow. Owned (`W = Vec<u64>`, the
/// default) it is the payload of the twin's `Announce` messages;
/// borrowed (`W = &[u64]`) it is what
/// [`MapStore::install`](crate::MapStore::install) takes — a node's live
/// buffer read in place, or a received copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwinAnnounce<W = Vec<u64>> {
    /// Arena lifetime stamp of the announcing node (slot reuse guard).
    pub birth: u64,
    /// Read by nothing, and `0` in every announcement the simulator
    /// makes: buffers keep no mutation epoch, and every install copies
    /// the whole map. The field stays because the frozen benchmark
    /// kernel builds this struct field by field; it goes with
    /// `is_empty`.
    pub epoch: u64,
    /// Window start of the advertised bitmap.
    pub head: SegmentId,
    /// Window size of the advertised bitmap.
    pub capacity: u64,
    /// The availability bitmap words.
    pub words: W,
    /// Whether the buffer was empty at emission. Nothing in the round
    /// reads it any more (the scheduler's gather sees an empty map as
    /// zero words); the field stays because the frozen benchmark kernel
    /// builds this struct field by field — it goes with the next
    /// `[benchmark]` PR.
    pub is_empty: bool,
}

impl<W> TwinAnnounce<W> {
    /// The same header over another representation of the bitmap —
    /// `a.with_words(a.words.as_slice())` is a received announcement as
    /// [`MapStore::install`](crate::MapStore::install) takes it.
    pub fn with_words<V>(&self, words: V) -> TwinAnnounce<V> {
        TwinAnnounce {
            birth: self.birth,
            epoch: self.epoch,
            head: self.head,
            capacity: self.capacity,
            words,
            is_empty: self.is_empty,
        }
    }
}

impl NodeSim {
    /// What this node announces right now, read in place.
    pub(super) fn announce(&self) -> TwinAnnounce<&[u64]> {
        let (head, capacity, words) = self.buffer.wire_parts();
        TwinAnnounce {
            birth: self.birth,
            epoch: 0,
            head,
            capacity,
            words,
            is_empty: self.buffer.is_empty(),
        }
    }
}

impl SystemSim {
    /// [`Self::step`]'s exchange: install every alive node's own
    /// announcement, read in place.
    pub(super) fn install_announcements(&self, maps: &mut MapStore) {
        for &idx in &self.order_idx {
            maps.install(idx.0, self.nodes.node(idx).announce());
        }
    }

    /// Visit every alive node's announcement in the deterministic
    /// ascending-id round order: `(id, arena slot, announcement,
    /// recipients)`, the recipients being the node's connected
    /// neighbours in the overlay's order. Meant to be called from the
    /// exchange of [`Self::step_with`]: phases 1–3 have run by then, so
    /// the announcements carry this round's emission and the
    /// post-maintenance neighbour sets — exactly what [`Self::step`]
    /// installs.
    pub fn twin_announcements(&self, mut visit: impl FnMut(DhtId, u32, TwinAnnounce, &[DhtId])) {
        let mut recipients: Vec<DhtId> = Vec::new();
        for &idx in &self.order_idx {
            let node = self.nodes.node(idx);
            recipients.clear();
            recipients.extend(node.connected.ids());
            let own = node.announce();
            visit(
                node.id,
                idx.0,
                own.with_words(own.words.to_vec()),
                &recipients,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use cs_sim::SimTime;

    fn churny() -> SystemConfig {
        SystemConfig {
            nodes: 60,
            rounds: 20,
            startup_segments: 30,
            seed: 0x5EA4,
            ..SystemConfig::default()
        }
        .with_dynamic_churn()
    }

    /// The loopback exchange: this round's announcements, straight from
    /// the visitor, installed as the views — each through `tamper`
    /// first, which may edit or withhold it.
    fn loopback(
        sim: &SystemSim,
        maps: &mut MapStore,
        mut tamper: impl FnMut(u32, TwinAnnounce) -> Option<TwinAnnounce>,
    ) {
        sim.twin_announcements(|_, slot, announce, _| {
            if let Some(a) = tamper(slot, announce) {
                maps.install(slot, a.with_words(a.words.as_slice()));
            }
        });
    }

    #[test]
    fn loopback_exchange_equals_the_local_one_every_round() {
        let mut local = SystemSim::new(churny());
        let mut looped = SystemSim::new(churny());
        for round in 0..20u32 {
            assert!(local.step());
            assert!(looped.step_with(|sim, r, deadline, maps| {
                assert_eq!(r, round);
                assert_eq!(deadline, SimTime::from_secs(round as u64 + 1));
                loopback(sim, maps, |_, a| Some(a));
            }));
            local.debug_check_scratch();
            looped.debug_check_scratch();
            assert_eq!(local.records(), looped.records(), "round {round}");
            assert_eq!(local.debug_states(), looped.debug_states(), "round {round}");
        }
        let churned = |f: fn(&crate::RoundRecord) -> usize| local.records().iter().map(f).sum();
        let (joins, leaves): (usize, usize) = (churned(|r| r.joins), churned(|r| r.leaves));
        assert!(joins > 0 && leaves > 0, "slots must actually be reused");
        assert!(!looped.step_with(|_, _, _, _| {}), "rounds are spent");
    }

    /// Inside the exchange, right after the installs, every snapshot
    /// stamped this round is a copy of its node's live buffer — through
    /// [`SystemSim::step`]'s local exchange and through the loopback one,
    /// under churn that hands freed arena slots to joiners.
    #[test]
    fn installed_snapshots_equal_the_live_buffers() {
        // Counts the slots whose old snapshot is another lifetime's.
        fn reused(sim: &SystemSim, maps: &MapStore) -> usize {
            sim.order_idx
                .iter()
                .filter(|&&idx| {
                    let birth = maps.snaps[idx.0 as usize].birth;
                    birth != u64::MAX && birth != sim.nodes.node(idx).birth
                })
                .count()
        }
        fn check(sim: &SystemSim, maps: &MapStore, round: u32) {
            let mut stamped = 0;
            for (slot, snap) in maps.snaps.iter().enumerate() {
                if snap.stamp != maps.stamp {
                    continue;
                }
                let node = sim.nodes.slots[slot]
                    .as_ref()
                    .unwrap_or_else(|| panic!("round {round}: slot {slot} is stamped but dead"));
                assert_eq!(snap.birth, node.birth, "round {round}, slot {slot}");
                assert_eq!(snap.map, node.buffer, "round {round}, slot {slot}");
                stamped += 1;
            }
            assert_eq!(stamped, sim.order_idx.len(), "round {round}");
        }
        let mut local = SystemSim::new(churny());
        let mut looped = SystemSim::new(churny());
        let (mut local_reused, mut looped_reused) = (0, 0);
        for round in 0..20u32 {
            assert!(local.step_with(|sim, _, _, maps| {
                local_reused += reused(sim, maps);
                sim.install_announcements(maps);
                check(sim, maps, round);
            }));
            assert!(looped.step_with(|sim, _, _, maps| {
                looped_reused += reused(sim, maps);
                loopback(sim, maps, |_, a| Some(a));
                check(sim, maps, round);
            }));
        }
        assert!(
            local_reused > 0 && looped_reused > 0,
            "slots must actually be reused"
        );
    }

    #[test]
    #[should_panic(expected = "round 0: no delivered view for slot 7")]
    fn withheld_view_panics() {
        let mut sim = SystemSim::new(churny());
        sim.step_with(|sim, _, _, maps| loopback(sim, maps, |slot, a| (slot != 7).then_some(a)));
    }

    #[test]
    #[should_panic(expected = "round 0: stale view for slot 7 (arena slot reuse)")]
    fn view_from_another_node_lifetime_panics() {
        let mut sim = SystemSim::new(churny());
        sim.step_with(|sim, _, _, maps| {
            loopback(sim, maps, |slot, mut a| {
                a.birth += u64::from(slot == 7);
                Some(a)
            })
        });
    }
}

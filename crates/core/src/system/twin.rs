//! The live-network twin's seam: the wire-level announcement types, the
//! in-flight round token, and the begin/finish entry points `cs-twin`
//! drives a round through.

use cs_dht::DhtId;
use cs_net::TrafficCounter;
use cs_obs::Lap;
use cs_sim::{SimDuration, SimTime};

use super::state::{MapStore, NodeIdx, RoundScratch};
use super::SystemSim;
use crate::SegmentId;

/// One node's per-round buffer-map announcement as carried by the
/// live-network twin's transport (`cs-twin`). This is the protocol's
/// only continuous all-to-neighbours state flow: in the simulator the
/// exchange phase reads every node's buffer directly; in the twin the
/// same bytes travel as `Announce` messages and are installed back via
/// [`SystemSim::twin_finish_round`]. `(birth, epoch)` carry the
/// snapshot-reuse key so the install path can suppress redundant word
/// copies exactly like the local exchange does.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinAnnounce {
    /// Arena lifetime stamp of the announcing node (slot reuse guard).
    pub birth: u64,
    /// The announcing buffer's mutation epoch at emission time.
    pub epoch: u64,
    /// Window start of the advertised bitmap.
    pub head: SegmentId,
    /// Window size of the advertised bitmap.
    pub capacity: u64,
    /// The availability bitmap words.
    pub words: Vec<u64>,
    /// Whether the buffer was empty at emission (feeds the
    /// dark-neighbourhood skip proof, which otherwise would read live
    /// remote state).
    pub is_empty: bool,
}

/// The round's delivered exchange views, indexed by arena slot — what
/// the twin hands back to [`SystemSim::twin_finish_round`] after the
/// transport delivered every announcement. Views are assembled from
/// *received messages*; if the transport drops, delays past the round
/// deadline, or corrupts an announcement, the installed view differs
/// from the live state and the decision log diverges from the
/// simulator's — which is exactly what the sim-vs-live equivalence
/// harness detects.
#[derive(Debug, Default, Clone)]
pub struct TwinViews {
    by_slot: Vec<Option<std::sync::Arc<TwinAnnounce>>>,
}

impl TwinViews {
    /// Drop every view (start of a new round).
    pub fn clear(&mut self) {
        self.by_slot.clear();
    }

    /// Install the delivered announcement for `slot`.
    pub fn install(&mut self, slot: u32, announce: std::sync::Arc<TwinAnnounce>) {
        let slot = slot as usize;
        if self.by_slot.len() <= slot {
            self.by_slot.resize(slot + 1, None);
        }
        self.by_slot[slot] = Some(announce);
    }

    /// The delivered announcement for `slot`, if any.
    pub fn get(&self, slot: u32) -> Option<&TwinAnnounce> {
        self.by_slot.get(slot as usize).and_then(|s| s.as_deref())
    }
}

/// An in-flight round between [`SystemSim::twin_begin_round`] (phases
/// 1–3: churn, emission, maintenance) and
/// [`SystemSim::twin_finish_round`] (phase 4 onward: exchange through
/// playback). Opaque: it carries the round's scratch state and
/// profiler lap, and must be handed back to the same simulator.
pub struct TwinPendingRound {
    pub(super) round: u32,
    pub(super) round_end: SimTime,
    pub(super) first_new: SegmentId,
    pub(super) scratch: RoundScratch,
    pub(super) traffic: TrafficCounter,
    pub(super) joins: usize,
    pub(super) leaves: usize,
    pub(super) olap: Lap,
}

impl TwinPendingRound {
    /// The round index being executed.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The simulated time at which this round ends — the twin's
    /// delivery deadline: announcements due after this instant miss
    /// the round.
    pub fn round_end(&self) -> SimTime {
        self.round_end
    }
}

/// One alive node's announcement-relevant state, lent to the visitor
/// of [`SystemSim::twin_wire_states`]. Everything the twin needs to
/// build this node's `Announce` payload ([`TwinAnnounce`]) and its
/// outgoing link set, without cs-twin reaching into simulator
/// internals.
pub struct TwinWireState<'a> {
    /// The node's DHT identifier (the wire-level address).
    pub id: DhtId,
    /// The node's arena slot — the key [`TwinViews`] is indexed by.
    pub slot: u32,
    /// Arena lifetime stamp (guards against same-round slot reuse).
    pub birth: u64,
    /// The buffer's mutation epoch (snapshot-reuse key).
    pub epoch: u64,
    /// Advertised window start.
    pub head: SegmentId,
    /// Advertised window size.
    pub capacity: u64,
    /// Availability bitmap words.
    pub words: &'a [u64],
    /// Whether the buffer is empty at emission time.
    pub is_empty: bool,
    /// Whether this node is the streaming source.
    pub is_source: bool,
    /// The node's ping latency in milliseconds (feeds per-link
    /// latency in the twin's link catalogue).
    pub ping_ms: f64,
    /// Connected-neighbour ids in the overlay's deterministic order —
    /// the announcement's recipient set.
    pub neighbors: &'a [DhtId],
}

impl MapStore {
    /// Install a *received* announcement into `idx`'s snapshot slot —
    /// the live-network twin's replacement for [`Self::snapshot`]: the
    /// bitmap comes off the wire instead of being read from the node's
    /// live state. Mirrors the `(birth, epoch)` re-copy suppression, so
    /// the install path has the same delta-encoding shape a real
    /// network would use.
    pub(super) fn install_wire(&mut self, idx: NodeIdx, a: &TwinAnnounce) {
        let snap = &mut self.snaps[idx.0 as usize];
        if snap.birth != a.birth || snap.epoch != a.epoch {
            snap.map.install_wire(a.head, a.capacity, &a.words);
            snap.birth = a.birth;
            snap.epoch = a.epoch;
        }
        snap.stamp = self.stamp;
    }
}

impl SystemSim {
    /// Live-network twin entry point: run phases 1–3 of the next round
    /// (churn, source emission, neighbour maintenance) and hand back
    /// the in-flight round token, or `None` once the configured number
    /// of rounds has run. Between this call and
    /// [`Self::twin_finish_round`] the twin reads every node's
    /// announcement state via [`Self::twin_wire_states`], moves it
    /// between nodes over its transport, and assembles the delivered
    /// [`TwinViews`]. [`Self::step`] is exactly
    /// `twin_begin_round` + `twin_finish_round` with the exchange
    /// short-circuited to local reads — the decision code is shared,
    /// which is what makes sim-vs-live equivalence a meaningful test.
    ///
    /// Round `r` ends at simulated time `(r + 1)·τ` exactly — integer
    /// microsecond arithmetic, so the twin's delivery deadline and the
    /// record's timestamp agree on every platform.
    pub fn twin_begin_round(&mut self) -> Option<TwinPendingRound> {
        if self.next_round >= self.config.rounds {
            return None;
        }
        let tau = SimDuration::from_secs_f64(self.config.period_secs);
        let round = self.next_round;
        let end = SimTime::ZERO + tau * (round as u64 + 1);
        Some(self.round_prelude(round, end))
    }

    /// Finish a round begun with [`Self::twin_begin_round`]: run phase
    /// 4 onward with the exchange reading the transport-delivered
    /// `views` instead of live node state.
    ///
    /// # Panics
    /// If `views` lacks an announcement for any alive node — a
    /// faithful transport always self-delivers (the loopback copy),
    /// so a hole is a runtime bug, not a protocol condition.
    pub fn twin_finish_round(&mut self, pending: TwinPendingRound, views: &TwinViews) {
        self.round_decide(pending, Some(views));
        self.next_round += 1;
    }

    /// Visit every alive node's wire-level announcement state in the
    /// deterministic ascending-id round order. Valid between
    /// [`Self::twin_begin_round`] and [`Self::twin_finish_round`]:
    /// phases 1–3 have run, so the states carry this round's emission
    /// and the post-maintenance neighbour sets — exactly what the
    /// simulator's own exchange phase would read.
    pub fn twin_wire_states(&self, visit: &mut dyn FnMut(TwinWireState<'_>)) {
        let mut neighbors: Vec<DhtId> = Vec::new();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node(idx);
            neighbors.clear();
            neighbors.extend(node.connected.ids().map(|p| p.id));
            let (head, capacity, words) = node.buffer.wire_parts();
            visit(TwinWireState {
                id: node.id,
                slot: idx.0,
                birth: node.birth,
                epoch: node.buffer.epoch(),
                head,
                capacity,
                words,
                is_empty: node.buffer.is_empty(),
                is_source: node.is_source,
                ping_ms: self.nodes.ping_at(idx),
                neighbors: &neighbors,
            });
        }
    }
}

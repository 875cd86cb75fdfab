//! Membership: workload events (join/leave/crash/VCR/capacity), the
//! §4.1 admission protocol, departures, and per-round neighbour
//! maintenance.

use rand::Rng;

use cs_dht::DhtId;
use cs_net::{NodeBandwidth, SEGMENT_KBITS};
use cs_obs::EventKind;

use super::schedule::exchange_window;
use super::state::RoundScratch;
use super::{EventOutcome, SeekTarget, SystemEvent, SystemSim};
use crate::config::SystemConfig;

impl SystemSim {
    /// Apply one workload event between rounds. See [`SystemEvent`] for
    /// the semantics of each variant; membership-changing events rebuild
    /// the deterministic node order immediately, so an [`Self::alive_ids`]
    /// read after the call is current.
    pub fn apply_event(&mut self, event: SystemEvent) -> EventOutcome {
        match event {
            SystemEvent::Join { ping_ms, bandwidth } => {
                // Rejected before any scenario-stream draw: a rejected
                // join consumes zero randomness, exactly like every
                // other rejection path.
                if self.rp_turns_away(self.next_round) {
                    return EventOutcome::Rejected;
                }
                let id = self.rp.assign_id(&mut self.scenario_rng);
                let ping = match ping_ms {
                    Some(p) => p,
                    None => {
                        let k = self.scenario_rng.gen_range(0..self.joiner_pings.len());
                        self.joiner_pings[k]
                    }
                };
                let bw = match bandwidth {
                    Some(b) => b,
                    None => self.bw_assigner.sample_node(&mut self.scenario_rng),
                };
                if self.admit_joiner(id, ping, bw, self.next_round, true) {
                    self.rebuild_order();
                    EventOutcome::Joined(id)
                } else {
                    EventOutcome::Rejected
                }
            }
            SystemEvent::Leave { id, graceful } => {
                if id == self.source || self.nodes.lookup(id).is_none() {
                    return EventOutcome::Rejected;
                }
                if graceful {
                    self.graceful_leave(id);
                } else {
                    self.abrupt_failure(id);
                }
                self.rebuild_order();
                EventOutcome::Applied
            }
            SystemEvent::Crash { id } => {
                if id == self.source || self.nodes.lookup(id).is_none() {
                    return EventOutcome::Rejected;
                }
                self.faults.active = true;
                self.crash(id);
                self.obs_emit(self.next_round, EventKind::Crash, id, 0, "scenario");
                self.rebuild_order();
                EventOutcome::Applied
            }
            SystemEvent::Seek { id, target } => self.apply_seek(id, target),
            SystemEvent::Pause { id } => self.set_paused(id, true),
            SystemEvent::Resume { id } => self.set_paused(id, false),
            SystemEvent::SetBandwidth { id, bandwidth } => {
                if id == self.source {
                    return EventOutcome::Rejected;
                }
                let Some(idx) = self.nodes.lookup(id) else {
                    return EventOutcome::Rejected;
                };
                self.nodes.node_mut(idx).bandwidth = bandwidth;
                EventOutcome::Applied
            }
        }
    }

    /// VCR seek: move the play anchor and re-anchor the buffer window
    /// when the jump leaves it. The exchange window, urgent line and
    /// pre-fetcher all derive from the play anchor, so they follow on
    /// the next round; pre-fetch tags behind the new anchor are dropped
    /// (their Case-1/Case-2 deadlines no longer mean anything).
    fn apply_seek(&mut self, id: DhtId, target: SeekTarget) -> EventOutcome {
        if id == self.source {
            return EventOutcome::Rejected;
        }
        let Some(idx) = self.nodes.lookup(id) else {
            return EventOutcome::Rejected;
        };
        let newest = self.newest_emitted;
        let startup = self.config.startup_segments;
        let node = self.nodes.node_mut(idx);
        let Some(np) = node.next_play else {
            // Still buffering: only a jump to the live frontier makes
            // sense (re-anchor the buffering there); relative seeks have
            // no play point to be relative to.
            if matches!(target, SeekTarget::ToLive) {
                let anchor = newest.saturating_sub(startup).max(1);
                node.buffer.slide_to(anchor);
                node.prefetch_tags.prune_below(anchor);
                return EventOutcome::Applied;
            }
            return EventOutcome::Rejected;
        };
        let dest = match target {
            SeekTarget::Forward(n) => np.saturating_add(n).min(newest.max(1)),
            SeekTarget::Backward(n) => np.saturating_sub(n),
            SeekTarget::ToLive => newest.saturating_sub(startup),
        }
        // Never below the buffer head: segments under it cannot be
        // (re-)inserted, so a play anchor there could never advance.
        .max(node.buffer.head())
        .max(1);
        if dest >= node.buffer.head() + node.buffer.capacity() {
            // The jump leaves the current window entirely: re-anchor it
            // at the destination (everything held is behind the new
            // anchor and unreachable for own playback).
            node.buffer.slide_to(dest);
        }
        node.next_play = Some(dest);
        node.prefetch_tags.prune_below(dest);
        EventOutcome::Applied
    }

    fn set_paused(&mut self, id: DhtId, paused: bool) -> EventOutcome {
        if id == self.source {
            return EventOutcome::Rejected;
        }
        let Some(idx) = self.nodes.lookup(id) else {
            return EventOutcome::Rejected;
        };
        let node = self.nodes.node_mut(idx);
        if node.paused == paused {
            return EventOutcome::Rejected;
        }
        node.paused = paused;
        EventOutcome::Applied
    }

    pub(super) fn rebuild_order(&mut self) {
        // The arena's id table enumerates in ascending id order.
        self.order_ids.clear();
        self.order_idx.clear();
        for (id, idx) in self.nodes.iter_pairs() {
            self.order_ids.push(id);
            self.order_idx.push(idx);
        }
    }

    pub(super) fn maintain_neighbors(&mut self, round: u32, scratch: &mut RoundScratch) {
        // Recovery plane: suppliers under timeout-eviction are dropped
        // exactly like dead ones — failover to the overheard refill.
        let evict_on = self.faults.active && !self.faults.dead_until.is_empty();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let self_id = self.nodes.node(idx).id;
            // Drop dead neighbours.
            scratch.tmp_refs.clear();
            for nref in self.nodes.node(idx).connected.ids() {
                if self.nodes.lookup(nref).is_none() || (evict_on && self.faults.evicted(nref)) {
                    scratch.tmp_refs.push(nref);
                }
            }
            for di in 0..scratch.tmp_refs.len() {
                let d = scratch.tmp_refs[di];
                let node = self.nodes.node_mut(idx);
                node.connected.remove(d);
                node.overheard.remove(d);
            }
            // Membership gossip: overhear one neighbour-of-neighbour,
            // keeping the overheard list warm at (near) zero cost.
            scratch.tmp_refs.clear();
            scratch
                .tmp_refs
                .extend(self.nodes.node(idx).connected.ids());
            let heard: Option<(DhtId, f64)> = if scratch.tmp_refs.is_empty() {
                None
            } else {
                let via = scratch.tmp_refs[self.sched_rng.gen_range(0..scratch.tmp_refs.len())];
                scratch.tmp_refs2.clear();
                if let Some(vidx) = self.nodes.lookup(via) {
                    scratch.tmp_refs2.extend(
                        self.nodes
                            .node(vidx)
                            .connected
                            .ids()
                            .filter(|&x| x != self_id),
                    );
                }
                if scratch.tmp_refs2.is_empty() {
                    None
                } else {
                    let pick =
                        scratch.tmp_refs2[self.sched_rng.gen_range(0..scratch.tmp_refs2.len())];
                    Some((pick, self.nodes.latency(self_id, pick)))
                }
            };
            if let Some((pick, lat)) = heard {
                self.nodes.node_mut(idx).overheard.record(pick, lat);
            }
            // Refill to M from the overheard list — only a node below M
            // has anything to refill, and it is the common case that none
            // is: resolving H overheard entries is H arena touches.
            if !self.nodes.node(idx).connected.is_full() {
                scratch.tmp_pairs.clear();
                let node = self.nodes.node(idx);
                for e in node.overheard.entries() {
                    if e.id != self_id
                        && self.nodes.lookup(e.id).is_some()
                        && !node.connected.contains(e.id)
                        && !(evict_on && self.faults.evicted(e.id))
                    {
                        scratch.tmp_pairs.push((e.id, e.latency_ms));
                    }
                }
                // Unstable (allocation-free) sort: overheard entries have
                // unique ids, so the id tie-break makes the comparator total.
                scratch
                    .tmp_pairs
                    .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let node = self.nodes.node_mut(idx);
                for &(cref, lat) in &scratch.tmp_pairs {
                    if node.connected.is_full() {
                        break;
                    }
                    node.connected.add(cref, lat);
                }
            }
            // Replace a weak neighbour ("supplied little data") with an
            // overheard candidate. A starving node rewires immediately —
            // finding a better-provisioned neighbourhood is its only way
            // out; a healthy node only sheds neighbours that supply
            // nothing. Starving means *unmet demand*: inflow below the
            // playback rate while the exchange window still has holes. A
            // sated node (window fully buffered — e.g. a paused viewer)
            // pulls nothing by choice; treating its idle inflow as
            // starvation made it rewire every third round forever,
            // thrashing the overlay. Rate-limited: a node reconsiders its
            // weakest partnership at most every third round. Rewiring
            // every round under system stress destroys the supply
            // relationships it is trying to fix (every replacement resets
            // rate estimates and supplier history).
            let starving = {
                let node = self.nodes.node(idx);
                node.next_play.is_some_and(|anchor| {
                    (node.last_inflow as u64) < SystemConfig::DEMAND_PER_ROUND
                        && (round as u64 + self_id).is_multiple_of(3)
                        && {
                            let (window_end, _) = exchange_window(
                                &self.config,
                                &node.buffer,
                                anchor,
                                self.newest_emitted,
                            );
                            window_end > anchor
                                && !node.buffer.has_range(anchor, window_end - anchor)
                        }
                })
            };
            if starving || round % 5 == 4 {
                let weak: Option<DhtId> = {
                    let node = self.nodes.node(idx);
                    if !node.connected.is_full() {
                        None
                    } else {
                        node.connected
                            .weakest()
                            .filter(|w| {
                                (starving || w.recent_supply_kbps < 0.05 * SEGMENT_KBITS)
                                    && w.id != self.source
                            })
                            .map(|w| w.id)
                    }
                };
                if let Some(w) = weak {
                    let replacement: Option<(DhtId, f64)> = {
                        let node = self.nodes.node(idx);
                        node.overheard
                            .best_candidate(|c| {
                                c == self_id
                                    || c == w
                                    || self.nodes.lookup(c).is_none()
                                    || node.connected.contains(c)
                                    || (evict_on && self.faults.evicted(c))
                            })
                            .map(|e| (e.id, e.latency_ms))
                    };
                    if let Some((rref, lat)) = replacement {
                        let node = self.nodes.node_mut(idx);
                        node.connected.replace(w, rref, lat);
                        if starving {
                            self.obs_emit(
                                round,
                                EventKind::StarvationRewire,
                                self_id,
                                w,
                                "starving",
                            );
                        }
                    }
                }
            }
        }
    }

    /// Graceful leave: hand the VoD backups to the ring predecessor, tell
    /// the RP server, drop the node.
    pub(super) fn graceful_leave(&mut self, id: DhtId) {
        let heir = self.dht.predecessor_of(id);
        if let Some(mut node) = self.nodes.remove_id(id) {
            if let Some(h) = heir.filter(|h| *h != id) {
                if let Some(heir_idx) = self.nodes.lookup(h) {
                    let heir_node = self.nodes.node_mut(heir_idx);
                    for seg in node.backup.drain() {
                        heir_node.backup.store_handover(seg);
                    }
                }
            }
        }
        self.rp.report_failure(id);
        self.dht.leave(id);
        self.obs_emit(self.next_round, EventKind::Leave, id, 0, "graceful");
    }

    /// Abrupt failure: the node just vanishes (no handover).
    pub(super) fn abrupt_failure(&mut self, id: DhtId) {
        self.nodes.remove_id(id);
        self.rp.report_failure(id);
        self.dht.leave(id);
        self.obs_emit(self.next_round, EventKind::Leave, id, 0, "abrupt");
    }

    /// Whether the RP server — the only way in — admits nobody in
    /// `round`: a bootstrap outage, or no id of the space left to give.
    fn rp_turns_away(&self, round: u32) -> bool {
        round < self.faults.rp_outage_until || self.rp.is_full()
    }

    /// One churn join via the RP server (§4.1 protocol).
    pub(super) fn join_one(&mut self, round: u32) -> bool {
        // Turned away before any `"join"` draw.
        if self.rp_turns_away(round) {
            return false;
        }
        let id = self.rp.assign_id(&mut self.join_rng);
        let ping =
            self.joiner_pings[(round as usize * 31 + self.nodes.len()) % self.joiner_pings.len()];
        let bandwidth = self.bw_assigner.sample_node(&mut self.join_rng);
        self.admit_joiner(id, ping, bandwidth, round, false)
    }

    /// The §4.1 admission protocol, shared by churn joins and scenario
    /// [`SystemEvent::Join`]s: PING the RP's close-ID list, notify the
    /// contacts, adopt a neighbour view, enter the DHT. `scenario`
    /// selects which RNG stream the DHT join consumes — churn joins keep
    /// drawing from the `"join"` stream exactly as before, scenario
    /// joins stay on their own stream.
    fn admit_joiner(
        &mut self,
        id: DhtId,
        ping: f64,
        bandwidth: NodeBandwidth,
        round: u32,
        scenario: bool,
    ) -> bool {
        let t_fetch = cs_analysis::t_fetch(self.nodes.len().max(2) as u64, self.config.t_hop_secs);
        let mut node = Self::make_node(&self.config, self.space, id, bandwidth, t_fetch, false);
        node.spawn_round = round;

        // PING the close-ID list, adopt the nearest alive node's view.
        // (Latency to the joiner reads the 50 ms default ping: the arena
        // does not hold the joiner until it is inserted below.)
        let candidates = self.rp.close_list(id, 4);
        let mut alive: Vec<(f64, DhtId)> = Vec::new();
        for c in candidates {
            if self.nodes.lookup(c).is_some() {
                alive.push((self.nodes.latency(id, c), c));
            } else {
                self.rp.report_failure(c);
            }
        }
        alive.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some(&(_, base)) = alive.first() else {
            // Nobody reachable; abort the join (id rolled back).
            self.rp.report_failure(id);
            return false;
        };

        // "notifies B, C, D his joining": the notified nodes file the
        // newcomer — into a free connected slot if they have one, and into
        // their overheard list either way. Without this, nobody ever
        // points at joiners, in-degree concentrates on long-lived nodes,
        // and the swarm's aggregate upload capacity decays under churn.
        for &(lat, c) in &alive {
            if let Some(cidx) = self.nodes.lookup(c) {
                let peer = self.nodes.node_mut(cidx);
                peer.overheard.record(id, lat);
                if !peer.connected.is_full() {
                    peer.connected.add(id, lat);
                }
            }
        }

        // Adopt: the alive close-ID candidates first (they are uniform
        // over the membership, which keeps the overlay's expansion intact
        // across join generations — adopting only the base's neighbours
        // degenerates the graph into clusters of clones), then the base
        // itself and a couple of its neighbours, then overheard fill.
        for &(lat, c) in &alive {
            if c != id && !node.connected.is_full() {
                node.connected.add(c, lat);
            }
        }

        // Ring-spread sponsor adoption (joiner integration): before
        // inheriting the base's view, adopt up to `join_sponsors` peers
        // at deterministic ring-spread positions — the same
        // position-hashing idea as the frontier push — and notify them,
        // exactly like the close contacts. Sponsors give the joiner
        // suppliers across the whole ring (the base's view is clustered
        // near the base), and give the *sponsors* a pointer at the
        // joiner, so in-degree under sustained churn spreads instead of
        // concentrating in the RP close neighbourhood. RNG-free and
        // unreachable with the knob at 0 (the default).
        let sponsors = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |p| p.join_sponsors);
        if sponsors > 0 && !self.order_ids.is_empty() {
            for i in 0..sponsors as u64 {
                let sid = self.order_ids[self.ring_spread(id, i)];
                // The order arrays are rebuilt only after the whole
                // churn batch, so mid-batch entries can be stale: skip
                // departed sponsors (and never sponsor through the
                // source — the point is to bypass its neighbourhood).
                if sid == id || sid == self.source {
                    continue;
                }
                let Some(sidx) = self.nodes.lookup(sid) else {
                    continue;
                };
                let lat = self.nodes.latency(id, sid);
                let sponsor = self.nodes.node_mut(sidx);
                sponsor.overheard.record(id, lat);
                if !sponsor.connected.is_full() {
                    sponsor.connected.add(id, lat);
                }
                if !node.connected.is_full() {
                    node.connected.add(sid, lat);
                } else {
                    node.overheard.record(sid, lat);
                }
            }
        }
        {
            let base_idx = self.nodes.lookup(base).expect("base is alive");
            let base_node = self.nodes.node(base_idx);
            let adopt_connected: Vec<DhtId> = base_node.connected.ids().collect();
            let adopt_overheard: Vec<DhtId> = base_node.overheard.entries().map(|e| e.id).collect();
            // Follow the base's play point only if the base is actually
            // playing; otherwise the joiner buffers up and starts like any
            // fresh node. (Following a synthetic frontier position pins
            // the joiner at the emission edge where nothing is available
            // yet — it would never receive anything.)
            let follow_play = base_node.next_play;
            for nref in adopt_connected {
                if nref != id && !node.connected.is_full() {
                    node.connected.add(nref, self.nodes.latency(id, nref));
                }
            }
            if !node.connected.is_full() {
                node.connected.add(base, self.nodes.latency(id, base));
            }
            for nref in adopt_overheard {
                if nref != id {
                    node.overheard.record(nref, self.nodes.latency(id, nref));
                }
            }
            // "A new joining node ... starts its media playback by
            // following its neighbors' current steps."
            if let Some(fp) = follow_play {
                node.buffer.slide_to(fp);
                node.next_play = Some(fp);
            }
        }

        self.nodes.insert(node, ping);
        // The DHT join closure sees the joiner's real ping: it is in the
        // arena now.
        let rng = if scenario {
            &mut self.scenario_rng
        } else {
            &mut self.join_rng
        };
        let nodes = &self.nodes;
        let latency = |a: DhtId, b: DhtId| nodes.latency(a, b);
        if self.dht.join(id, &latency, rng).is_err() {
            // The id collides with the stale DHT entry of a *crashed*
            // node: a joiner's close-list ping found it dead and told
            // the RP ("tells the RP server E's failure"), the RP freed
            // and later reassigned the id, but nobody cleaned the DHT —
            // crashes leave no graceful handoff. Only crashes create
            // this split-brain (every other departure path removes the
            // node from the RP and the DHT together), so repair the
            // stale entry lazily and retry; `join` fails before any RNG
            // draw, keeping the retry deterministic.
            debug_assert!(self.faults.crashed_any, "collision without any crash");
            let removed = self.dht.leave(id);
            debug_assert!(removed, "IdTaken id missing from the DHT");
            self.faults.counters.stale_repairs += 1;
            self.dht
                .join(id, &latency, rng)
                .expect("RP-assigned ids are unique once the stale entry is gone");
        }
        self.obs_emit(
            round,
            EventKind::JoinAdmitted,
            id,
            0,
            if scenario { "scenario" } else { "churn" },
        );
        true
    }
}

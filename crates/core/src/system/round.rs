//! The round: one driver ([`SystemSim::step_with`]) that takes the
//! scratch once and calls one function per phase — churn, source
//! emission, neighbour maintenance, then the buffer-map exchange (the
//! caller's, see [`super::twin`]) and everything decided over it:
//! scheduling, supplier service, pre-fetch, recovery, playback, GC and
//! record finalisation.

use cs_dht::DhtId;
use cs_net::TrafficClass;
use cs_obs::{EventKind, Lap, Phase as ObsPhase};
use cs_overlay::plan_churn;
use cs_sim::{SimDuration, SimTime};

use super::schedule::legacy_window;
use super::state::{MapStore, RoundScratch, RoundTally};
use super::{SystemSim, SIZES};
use crate::config::SystemConfig;
use crate::faults::FaultRoundRecord;
use crate::metrics::RoundRecord;
use crate::telemetry::{StartupSample, TelemetryRound};
use crate::SegmentId;

impl SystemSim {
    /// Execute the next scheduling round — the one round entry; returns
    /// `false` (without doing anything) once the configured number of
    /// rounds has run. `exchange` is called exactly once, after churn,
    /// source emission and neighbour maintenance and before anything
    /// reads a neighbour's state, with the simulator, the round index,
    /// the round's end — the delivery deadline: round `r` ends at
    /// simulated time `(r + 1)·τ` exactly (integer microseconds, so the
    /// deadline and the record's timestamp agree on every platform) —
    /// and the round's [`MapStore`]. The views it installs there are
    /// what every decision of the round reads as the nodes' advertised
    /// maps, so any loss, late delivery or corruption between
    /// [`Self::twin_announcements`] and those installs shows up as
    /// decision-log divergence from [`Self::step`].
    ///
    /// # Panics
    /// If the exchange installed no view for an alive node ("no
    /// delivered view for slot") or installed another node lifetime's
    /// announcement for it ("stale view for slot … (arena slot reuse)").
    pub fn step_with(
        &mut self,
        exchange: impl FnOnce(&SystemSim, u32, SimTime, &mut MapStore),
    ) -> bool {
        if self.next_round >= self.config.rounds {
            return false;
        }
        let round = self.next_round;
        let tau = SimDuration::from_secs_f64(SystemConfig::PERIOD_SECS);
        let round_end = SimTime::ZERO + tau * (round as u64 + 1);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut tally = RoundTally::default();
        // Profiler lap: one `Instant::now()` per phase boundary when obs
        // is armed, one `Option` check per boundary otherwise. Wall-clock
        // never feeds back into simulation state.
        let mut lap = Lap::start(self.obs.is_some());

        // --- 1–3. churn, source emission, neighbour maintenance ---------
        self.churn_phase(round, &mut tally);
        self.obs_phase(ObsPhase::Churn, &mut lap);
        self.emit_phase(&mut tally);
        self.obs_phase(ObsPhase::SourceEmit, &mut lap);
        self.maintain_neighbors(round, &mut scratch);
        self.obs_phase(ObsPhase::Maintain, &mut lap);

        // --- 4. buffer-map exchange (the exchange's own time included) --
        scratch.begin_round(round, self.nodes.slot_count());
        exchange(self, round, round_end, &mut scratch.maps);
        self.exchange_phase(round, &mut scratch, &mut tally);
        self.obs_phase(ObsPhase::Exchange, &mut lap);

        // --- 5. scheduling ----------------------------------------------
        self.run_schedule_phase(round, &mut scratch, &mut tally);
        self.obs_phase(ObsPhase::Schedule, &mut lap);

        // --- 6. supplier service ----------------------------------------
        self.service_phase(round, &mut scratch, &mut tally.traffic, &mut tally.svc);
        self.obs_phase(ObsPhase::ServiceApply, &mut lap);

        // --- 7. on-demand pre-fetch (Algorithm 2) -----------------------
        if self.config.prefetch_enabled {
            self.prefetch_phase(round, &mut scratch, &mut tally);
        }
        self.obs_phase(ObsPhase::PrefetchExec, &mut lap);

        // --- 7b. failure recovery (fault plane) -------------------------
        // Timeout detection, backed-off retries and supplier failover
        // for pulls the fault plane swallowed. Runs before playback so a
        // successful retry still counts toward this round's continuity.
        if self.faults.active {
            self.run_recovery_phase(round, &mut scratch, &mut tally.traffic);
        }
        self.obs_phase(ObsPhase::Recovery, &mut lap);

        // --- 8. playback and continuity; 9. GC and the round's records --
        self.playback_phase(round, &mut tally);
        self.obs_phase(ObsPhase::Playback, &mut lap);
        self.finalize_phase(round, round_end, tally);
        self.obs_phase(ObsPhase::Finalize, &mut lap);
        self.scratch = scratch;
        self.next_round += 1;
        true
    }

    /// Phase 1 — churn, then the fault plane's steady-state crashes.
    fn churn_phase(&mut self, round: u32, tally: &mut RoundTally) {
        if !self.config.churn.is_static() && round > 0 {
            let plan = plan_churn(
                &self.config.churn,
                &self.order_ids,
                self.source,
                &mut self.churn_rng,
            );
            tally.leaves = plan.leavers();
            for &id in &plan.graceful_leaves {
                self.graceful_leave(id);
            }
            for &id in &plan.failures {
                self.abrupt_failure(id);
            }
            for _ in 0..plan.joins {
                if self.join_one(round) {
                    tally.joins += 1;
                }
            }
            self.rebuild_order();
        }
        // Crashes are *not* churn — no RP report, no DHT leave, no
        // backup handover — so they run off the churn books and the
        // `"faults"` stream.
        if self.faults.active {
            self.inject_crashes();
        }
    }

    /// Phase 2 — the source emits this round's `p` segments.
    fn emit_phase(&mut self, tally: &mut RoundTally) {
        tally.first_new = self.newest_emitted + 1;
        self.newest_emitted += SystemConfig::DEMAND_PER_ROUND;
        let successor = self.believed_successor(self.source);
        let src = self.nodes.node_mut(self.source_idx);
        for seg in tally.first_new..=self.newest_emitted {
            src.buffer.insert(seg);
            src.backup.maybe_store(seg, successor);
        }
    }

    /// Phase 4 — check that the exchange installed a view of this node
    /// lifetime for every alive node and charge the announcements, then
    /// the two source seeding passes that must see the snapshots taken
    /// and precede scheduling.
    fn exchange_phase(&mut self, round: u32, scratch: &mut RoundScratch, tally: &mut RoundTally) {
        if let Some(o) = self.obs.as_deref_mut() {
            // Amortised growth, like the scratch: a no-op once the arena
            // is at steady size.
            o.node_cont.ensure(self.nodes.slot_count());
        }
        let bufmap_bits = SIZES.bufmap_bits();
        for &idx in &self.order_idx {
            let node = self.nodes.node(idx);
            let snap = &scratch.maps.snaps[idx.0 as usize];
            assert!(
                snap.stamp == scratch.maps.stamp,
                "round {round}: no delivered view for slot {}",
                idx.0
            );
            assert_eq!(
                snap.birth, node.birth,
                "round {round}: stale view for slot {} (arena slot reuse)",
                idx.0
            );
            if !node.is_source {
                tally.traffic.add(
                    TrafficClass::Control,
                    bufmap_bits * node.connected.len() as u64,
                );
            }
        }
        // 4b, frontier push seeding (recovery plane), and 4c, joiner
        // runway seeding: after the snapshots so the seeded copies are
        // advertised (and gossip-amplified) from next round, before
        // scheduling so the source's ledger reflects them when pulls are
        // served.
        tally.seeded = self.push_frontier(round, tally.first_new, scratch, &mut tally.traffic)
            + self.seed_joiners(round, scratch, &mut tally.traffic);
    }

    /// Phase 8 — playback and continuity: start players whose buffering
    /// delay has passed, check every playing node's deadline, advance the
    /// play points and close the per-node rate/inflow period.
    fn playback_phase(&mut self, round: u32, tally: &mut RoundTally) {
        let p = SystemConfig::DEMAND_PER_ROUND;
        let startup_rounds = (self.config.startup_segments / p).max(1) as u32;
        tally.min_runway = u64::MAX;
        // Distribution taps: `obs_dist` gates the windowed per-node
        // continuity/runway samples; startup delays are recorded
        // whenever obs is armed. Both are pure reads — no RNG, no state.
        let obs_dist = self.obs.as_deref().is_some_and(|o| o.dist_active(round));
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node_mut(idx);
            if node.is_source {
                continue;
            }
            tally.alive += 1;
            tally.alpha_sum += node.urgent.alpha();
            tally.backup_total += node.backup.len() as u64;
            match node.next_play {
                None => {
                    // Startup: like a real player, buffer for a fixed
                    // time after first data, then start at the earliest
                    // buffered segment (initial holes are the scheduler's
                    // and pre-fetcher's problem from here on).
                    if node.first_data_round.is_none() && !node.buffer.is_empty() {
                        node.first_data_round = Some(round);
                    }
                    if let Some(fdr) = node.first_data_round {
                        if round >= fdr + startup_rounds {
                            node.next_play = node.buffer.iter().next();
                            if node.next_play.is_some() {
                                self.telemetry.startups.push(StartupSample {
                                    id: node.id,
                                    spawn_round: node.spawn_round,
                                    first_data_round: fdr,
                                    start_round: round,
                                });
                                if let Some(o) = self.obs.as_deref_mut() {
                                    o.startup_delay.record((round - node.spawn_round) as u64);
                                }
                            }
                        }
                    }
                }
                Some(_) if node.paused => {
                    // VCR pause: the play point holds still. The node
                    // needs no data to keep its (frozen) playback
                    // smooth, so it leaves the continuity ratio
                    // entirely — numerator *and* denominator — or pause
                    // pressure would read as a streaming stall.
                    tally.paused += 1;
                }
                Some(np) => {
                    tally.playing += 1;
                    let on_time = node.buffer.has_range(np, p);
                    if on_time {
                        tally.continuous += 1;
                    }
                    let runway = node.buffer.contiguous_from(np);
                    if obs_dist {
                        // Per-node samples inside the measurement window:
                        // runway now, continuity accumulated per slot
                        // (birth-guarded against arena slot reuse).
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.runway.record(runway);
                            o.node_cont.observe(idx.0 as usize, node.birth, on_time);
                        }
                    }
                    // Inflow beyond per-round demand: how much slack the
                    // node actually used to heal holes.
                    tally.slack_used += (node.round_inflow as u64).saturating_sub(p);
                    tally.runway_sum += runway;
                    tally.min_runway = tally.min_runway.min(runway);
                    tally.gap_sum += self.newest_emitted.saturating_sub(np);
                    // How much of the fixed exchange window the node will
                    // pull over is already held.
                    let (_, window_end) = legacy_window(&self.config, np, self.newest_emitted);
                    if window_end > np {
                        let held = node.buffer.count_range(np, window_end);
                        tally.occupancy_sum += held as f64 / (window_end - np) as f64;
                    }
                    let next = np + p;
                    node.next_play = Some(next);
                    // The buffer is FIFO in *arrival* order: played
                    // segments stay (serving lagging neighbours) until
                    // fresh segments slide the window past them. Only the
                    // pre-fetch tags expire at the play point.
                    node.prefetch_tags.prune_below(next);
                }
            }
            node.rate.end_period(SystemConfig::PERIOD_SECS);
            node.last_inflow = node.round_inflow;
            node.round_inflow = 0;
        }
    }

    /// Phase 9 — backup GC and DHT table aging (every tenth round), then
    /// the round's tally becomes its record, fault-trace entry and
    /// telemetry row.
    fn finalize_phase(&mut self, round: u32, round_end: SimTime, mut tally: RoundTally) {
        if round % 10 == 9 {
            let horizon = self.global_play_floor();
            for k in 0..self.order_idx.len() {
                tally.gc_evictions += self
                    .nodes
                    .node_mut(self.order_idx[k])
                    .backup
                    .gc_before(horizon) as u64;
            }
            self.dht.tick_tables();
        }
        let RoundTally {
            alive,
            playing,
            paused,
            continuous,
            ..
        } = tally;
        // Mean over the playing nodes the telemetry sums ran over.
        let per_playing = |sum: f64| {
            if playing > 0 {
                sum / playing as f64
            } else {
                0.0
            }
        };
        self.records.push(RoundRecord {
            round,
            time_secs: round_end.as_secs_f64(),
            alive,
            playing,
            continuous,
            // Paused nodes are excluded from the ratio (see the pause
            // arm of the playback phase); with none paused this is
            // exactly `continuous / alive`, the pinned historical
            // definition.
            continuity: if alive > paused {
                continuous as f64 / (alive - paused) as f64
            } else {
                0.0
            },
            traffic: tally.traffic,
            prefetch_attempts: tally.prefetch_attempts,
            prefetch_successes: tally.prefetch_successes,
            prefetch_overdue: tally.prefetch_overdue,
            prefetch_repeated: tally.svc.repeated + tally.prefetch_repeated,
            prefetch_suppressed: tally.prefetch_suppressed,
            mean_alpha: if alive > 0 {
                tally.alpha_sum / alive as f64
            } else {
                0.0
            },
            gossip_deliveries: tally.svc.deliveries + tally.seeded,
            requests_issued: tally.svc.issued,
            requests_dropped: tally.svc.dropped,
            joins: tally.joins,
            leaves: tally.leaves,
        });
        // Fault plane: drain the round's counters into the trace. While
        // inert this is one branch — the trace stays empty and the
        // counters are never touched.
        let frec = if self.faults.active {
            let mut rec = self.faults.counters;
            rec.round = round;
            self.faults.counters = FaultRoundRecord::default();
            self.faults.trace.push(rec);
            rec
        } else {
            FaultRoundRecord::default()
        };
        self.telemetry.rounds.push(TelemetryRound {
            round,
            playing,
            newest_emitted: self.newest_emitted,
            mean_runway: per_playing(tally.runway_sum as f64),
            min_runway: if playing > 0 { tally.min_runway } else { 0 },
            mean_frontier_gap: per_playing(tally.gap_sum as f64),
            window_occupancy: per_playing(tally.occupancy_sum),
            supplier_active: tally.svc.supplier_active,
            supplier_peak_load: tally.svc.supplier_peak,
            dht_routing_msgs: tally.prefetch_routing_msgs,
            gc_evictions: tally.gc_evictions,
            backup_segments: tally.backup_total,
            rescue_cap: tally.rescue_cap_peak as u64,
            suppressed_nodes: tally.prefetch_suppressed as u64,
            slack_used: tally.slack_used,
            faults_injected: frec.injected() as u64,
            timeouts_detected: frec.timeouts as u64,
            retries_issued: frec.retries as u64,
            failovers: frec.failovers as u64,
            stale_repairs: frec.stale_repairs as u64,
            mean_time_to_recover: if frec.recoveries > 0 {
                frec.recovery_rounds as f64 / frec.recoveries as f64
            } else {
                0.0
            },
            active_sched: tally.active_sched,
            active_prefetch: tally.active_prefetch,
        });
    }

    /// Close the current profiler lap into `phase` (no-op when obs
    /// is unarmed — `lap_ns` is `None` and nothing is read).
    #[inline]
    fn obs_phase(&mut self, phase: ObsPhase, lap: &mut Lap) {
        if let Some(ns) = lap.lap_ns() {
            if let Some(o) = self.obs.as_deref_mut() {
                o.profiler.record(phase, ns);
            }
        }
    }

    /// Push a typed protocol event into the trace ring (no-op when
    /// obs is unarmed). Every call site is deterministic round code
    /// — which is what makes traces byte-identical across re-runs.
    #[inline]
    pub(super) fn obs_emit(
        &mut self,
        round: u32,
        kind: EventKind,
        node: DhtId,
        aux: u64,
        cause: &'static str,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.emit(round, kind, node, aux, cause);
        }
    }

    /// The node's *belief* about its ring successor: its closest clockwise
    /// DHT peer (the loose `n₁` of §4.3), falling back to itself.
    pub(super) fn believed_successor(&self, id: DhtId) -> DhtId {
        self.dht
            .node(id)
            .and_then(|s| s.peers.closest_clockwise())
            .map(|p| p.id)
            .unwrap_or(id)
    }

    /// Oldest play point across alive nodes (for backup GC).
    fn global_play_floor(&self) -> SegmentId {
        self.order_idx
            .iter()
            .filter_map(|&idx| self.nodes.node(idx).next_play)
            .min()
            .unwrap_or(1)
            .saturating_sub(SystemConfig::DEMAND_PER_ROUND)
            .max(1)
    }
}

//! The round driver: phases 1–3 (churn, source emission, neighbour
//! maintenance), then phase 4 onward — exchange, the dispatched planning
//! phases, playback and continuity, GC and record finalisation.

use cs_dht::DhtId;
use cs_net::{TrafficClass, TrafficCounter};
use cs_obs::{EventKind, Lap, Phase as ObsPhase};
use cs_overlay::plan_churn;
use cs_sim::SimTime;

use super::state::ServiceCounters;
use super::twin::{TwinPendingRound, TwinViews};
use super::SystemSim;
use crate::faults::FaultRoundRecord;
use crate::metrics::RoundRecord;
use crate::telemetry::{StartupSample, TelemetryRound};
use crate::SegmentId;

impl SystemSim {
    /// Phases 1–3 of a round — churn, source emission, neighbour
    /// maintenance: everything that happens *before* the buffer-map
    /// exchange, i.e. before any cross-node state flows. The returned
    /// token carries the in-flight round; [`Self::step`] resumes
    /// it immediately with [`Self::round_decide`], while the
    /// live-network twin first moves the exchange over its transport
    /// and resumes via [`Self::twin_finish_round`].
    pub(super) fn round_prelude(&mut self, round: u32, round_end: SimTime) -> TwinPendingRound {
        let mut scratch = std::mem::take(&mut self.scratch);
        let traffic = TrafficCounter::new();
        let mut joins = 0usize;
        let mut leaves = 0usize;
        // Profiler lap: one `Instant::now()` per phase boundary when
        // armed, one `Option` check per boundary otherwise. Wall-clock
        // never feeds back into simulation state.
        let profiling = self.obs.as_deref().is_some_and(|o| o.profiling());
        let mut olap = Lap::start(profiling);

        // --- 1. churn -----------------------------------------------------
        if !self.config.churn.is_static() && round > 0 {
            let plan = plan_churn(
                &self.config.churn,
                &self.order_ids,
                self.source,
                &mut self.churn_rng,
            );
            leaves = plan.leavers();
            for &id in &plan.graceful_leaves {
                self.graceful_leave(id);
            }
            for &id in &plan.failures {
                self.abrupt_failure(id);
            }
            for _ in 0..plan.joins {
                if self.join_one(round) {
                    joins += 1;
                }
            }
            self.rebuild_order();
        }
        // Fault plane: steady-state crash failures. Crashes are *not*
        // churn — no RP report, no DHT leave, no backup handover — so
        // they run off the churn books and the `"faults"` stream.
        if self.faults.active {
            self.inject_crashes();
        }
        self.obs_phase(ObsPhase::Churn, &mut olap);

        // --- 2. source emission -------------------------------------------
        let p = self.config.demand_per_round();
        let first_new = self.newest_emitted + 1;
        self.newest_emitted += p;
        {
            let successor = self.believed_successor(self.source);
            let src = self.nodes.node_mut(self.source_idx);
            for seg in first_new..=self.newest_emitted {
                src.buffer.insert(seg);
                src.backup.maybe_store(seg, successor);
            }
        }
        self.obs_phase(ObsPhase::SourceEmit, &mut olap);

        // --- 3. neighbour maintenance --------------------------------------
        self.maintain_neighbors(round, &mut scratch);
        self.obs_phase(ObsPhase::Maintain, &mut olap);

        TwinPendingRound {
            round,
            round_end,
            first_new,
            scratch,
            traffic,
            joins,
            leaves,
            olap,
        }
    }

    /// Phase 4 onward — from the buffer-map exchange through playback,
    /// GC and record finalisation. With `views: None` the exchange
    /// reads each node's live buffer directly (the simulator path, the
    /// pinned historical behaviour). With `Some(views)` the exchange
    /// installs the transport-delivered announcements instead: the
    /// decisions are then made over *received* state, so any loss,
    /// late delivery or corruption on the wire shows up as decision-log
    /// divergence from the simulator.
    pub(super) fn round_decide(&mut self, pending: TwinPendingRound, views: Option<&TwinViews>) {
        let TwinPendingRound {
            round,
            round_end,
            first_new,
            mut scratch,
            mut traffic,
            joins,
            leaves,
            mut olap,
        } = pending;
        // Pure config read — same value the prelude's emission phase used.
        let p = self.config.demand_per_round();

        // --- 4. buffer-map exchange -----------------------------------------
        scratch.begin_round(round, self.nodes.slot_count());
        self.hot.ensure(self.nodes.slot_count());
        if let Some(o) = self.obs.as_deref_mut() {
            if o.dist_enabled() {
                // Same amortised-growth contract as `hot.ensure`: a no-op
                // once the arena is at steady size.
                o.node_cont.ensure(self.nodes.slot_count());
            }
        }
        let bufmap_bits = self.sizes.bufmap_bits();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node(idx);
            match views {
                None => {
                    scratch.maps.snapshot(idx, node);
                    // Recorded alongside the snapshot so the
                    // dark-neighbourhood skip proof reads what this round
                    // *advertises*, not a later buffer state.
                    self.hot.map_empty[idx.0 as usize] = node.buffer.is_empty();
                }
                Some(v) => {
                    // Twin path: the advertised map comes off the wire.
                    // A missing or slot-reused view means the transport
                    // failed to self-deliver — a runtime bug, not a
                    // protocol condition, hence the hard assertions.
                    let a = v.get(idx.0).unwrap_or_else(|| {
                        panic!("twin round {round}: no delivered view for slot {}", idx.0)
                    });
                    assert_eq!(
                        a.birth, node.birth,
                        "twin round {round}: stale view for slot {} (arena slot reuse)",
                        idx.0
                    );
                    scratch.maps.install_wire(idx, a);
                    self.hot.map_empty[idx.0 as usize] = a.is_empty;
                }
            }
            if !node.is_source {
                traffic.add(
                    TrafficClass::Control,
                    bufmap_bits * node.connected.len() as u64,
                );
            }
        }

        // --- 4b. frontier push seeding (recovery plane) ----------------------
        // After the snapshots so the seeded copies are advertised (and
        // gossip-amplified) from next round, before scheduling so the
        // source's ledger reflects the pushes when pulls are served.
        let pushed = self.push_frontier(round, first_new, &mut scratch, &mut traffic);

        // --- 4c. joiner runway seeding (joiner integration) ------------------
        // Same placement contract as 4b: after the snapshots, before
        // scheduling, so the source ledger reflects the seeds when
        // pulls are served.
        let seeded = self.seed_joiners(round, &mut scratch, &mut traffic);
        self.obs_phase(ObsPhase::Exchange, &mut olap);

        // --- 4d. active-set classification (scheduling) ----------------------
        // After the last buffer mutation before planning (the 4b/4c
        // seeding), so the skip proofs read exactly the state step 5
        // will read.
        self.classify_sched(round);
        self.obs_phase(ObsPhase::ClassifySched, &mut olap);

        // --- 5. scheduling ---------------------------------------------------
        self.run_schedule_phase(round, &mut scratch);
        self.obs_phase(ObsPhase::Schedule, &mut olap);

        // --- 6. supplier service ----------------------------------------------
        // Split into a read-only decision half (parallelisable per
        // supplier slot) and a serial merge half that applies deliveries
        // in ascending-id supplier order — bit-identical to the old
        // single serial loop (see [`ServePlan`]).
        let mut svc = ServiceCounters::default();
        let salt = cs_sim::splitmix64(round as u64 ^ self.config.seed);
        self.plan_service_phase(salt, &mut scratch);
        self.obs_phase(ObsPhase::ServicePlan, &mut olap);
        self.apply_service_phase(round, &mut scratch, &mut traffic, &mut svc);
        self.obs_phase(ObsPhase::ServiceApply, &mut olap);
        let gossip_deliveries = svc.deliveries + pushed + seeded;
        let requests_issued = svc.issued;
        let requests_dropped = svc.dropped;
        let mut prefetch_repeated = svc.repeated;

        // --- 7. on-demand pre-fetch (Algorithm 2) ------------------------------
        // Same split: the urgent-line checks and Case-2 scans are pure
        // reads over per-node state and the round's snapshots, so they
        // fan out; the DHT retrievals mutate shared state (routing
        // tables, the outbound-spend ledger, backups) and stay serial in
        // node order (see [`PrefetchPlan`]).
        let telemetry_on = self.telemetry.is_some();
        let mut prefetch_attempts = 0u32;
        let mut prefetch_successes = 0u32;
        let mut prefetch_overdue = 0u32;
        let mut prefetch_suppressed = 0u32;
        let mut prefetch_routing_msgs = 0u64;
        // Telemetry: the largest effective per-node fetch cap this round
        // (watches the policy layer's deficit-scaled throttle ramp).
        let mut rescue_cap_peak = 0usize;
        if self.config.prefetch_enabled {
            // The pre-fetch classification runs here, not with the
            // scheduling pass: step-6 deliveries move α (Case-2
            // repetitions shrink the probe), so the urgent line is only
            // now stable for the round. On classified rounds the
            // classifier also computes the legacy cap peak (it derives
            // every anchored node's rescue params anyway); on dense
            // rounds (toggle off or hysteresis) every plan is fresh and
            // the peak comes from the planned caps, as before.
            rescue_cap_peak = self.classify_prefetch(round, telemetry_on);
            self.obs_phase(ObsPhase::ClassifyPrefetch, &mut olap);
            self.plan_prefetch_phase(round, &mut scratch);
            self.obs_phase(ObsPhase::PrefetchPlan, &mut olap);
            let targets = std::mem::take(&mut self.hot.active_prefetch);
            for &k in &targets {
                let k = k as usize;
                let idx = self.order_idx[k];
                if telemetry_on && !self.hot.prefetch_classified {
                    rescue_cap_peak = rescue_cap_peak.max(scratch.prefetch_plans[k].cap);
                }
                let (attempts, successes, overdue, suppressed, repeated, routing) =
                    self.execute_prefetch(idx, k, round, &mut scratch, &mut traffic);
                prefetch_attempts += attempts;
                prefetch_successes += successes;
                prefetch_overdue += overdue;
                prefetch_suppressed += suppressed;
                prefetch_repeated += repeated;
                prefetch_routing_msgs += routing;
            }
            self.hot.active_prefetch = targets;
        }
        self.obs_phase(ObsPhase::PrefetchExec, &mut olap);

        // --- 7b. failure recovery (fault plane) ---------------------------------
        // Timeout detection, backed-off retries and supplier failover
        // for pulls the fault plane swallowed. Runs before playback so a
        // successful retry still counts toward this round's continuity.
        if self.faults.active {
            self.run_recovery_phase(round, &mut scratch, &mut traffic);
        }
        self.obs_phase(ObsPhase::Recovery, &mut olap);

        // --- 8. playback and continuity -----------------------------------------
        let mut playing = 0usize;
        let mut continuous = 0usize;
        let mut alive = 0usize;
        let mut paused = 0usize;
        let mut alpha_sum = 0.0;
        // Telemetry accumulators (all dead weight on the disabled path:
        // a handful of untouched stack variables).
        let mut runway_sum = 0u64;
        let mut min_runway = u64::MAX;
        let mut gap_sum = 0u64;
        let mut occupancy_sum = 0.0f64;
        let mut backup_total = 0u64;
        let mut slack_used = 0u64;
        let lookahead = (2 * self.config.startup_segments).max(4 * p);
        // Distribution taps: `obs_dist` gates the windowed per-node
        // continuity/runway samples, `obs_startup` the (unwindowed)
        // startup delays. Both are pure reads — no RNG, no state.
        let obs_dist = self.obs.as_deref().is_some_and(|o| o.dist_active(round));
        let obs_startup = self.obs.as_deref().is_some_and(|o| o.dist_enabled());
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node_mut(idx);
            if node.is_source {
                continue;
            }
            alive += 1;
            alpha_sum += node.urgent.alpha();
            if telemetry_on {
                backup_total += node.backup.len() as u64;
            }
            match node.next_play {
                None => {
                    // Startup: like a real player, buffer for a fixed
                    // time after first data, then start at the earliest
                    // buffered segment (initial holes are the scheduler's
                    // and pre-fetcher's problem from here on).
                    if node.first_data_round.is_none() && !node.buffer.is_empty() {
                        node.first_data_round = Some(round);
                    }
                    let startup_rounds = (self.config.startup_segments / p.max(1)).max(1) as u32;
                    if let Some(fdr) = node.first_data_round {
                        if round >= fdr + startup_rounds {
                            node.next_play = node.buffer.iter().next();
                            if node.next_play.is_some() {
                                if telemetry_on {
                                    let sample = StartupSample {
                                        id: node.id,
                                        spawn_round: node.spawn_round,
                                        first_data_round: fdr,
                                        start_round: round,
                                    };
                                    if let Some(t) = self.telemetry.as_deref_mut() {
                                        t.startups.push(sample);
                                    }
                                }
                                if obs_startup {
                                    let delay = (round - node.spawn_round) as u64;
                                    if let Some(o) = self.obs.as_deref_mut() {
                                        o.startup_delay.record(delay);
                                    }
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
                    paused += 1;
                }
                Some(np) => {
                    playing += 1;
                    let on_time = node.buffer.has_range(np, p);
                    if on_time {
                        continuous += 1;
                    }
                    if obs_dist {
                        // Per-node samples inside the measurement window:
                        // runway now, continuity accumulated per slot
                        // (birth-guarded against arena slot reuse).
                        let runway = node.buffer.contiguous_from(np);
                        let birth = node.birth;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.runway.record(runway);
                            o.node_cont.observe(idx.0 as usize, birth, on_time);
                        }
                    }
                    if telemetry_on {
                        // Inflow beyond per-round demand: how much slack
                        // the node actually used to heal holes.
                        slack_used += (node.round_inflow as u64).saturating_sub(p);
                        let runway = node.buffer.contiguous_from(np);
                        runway_sum += runway;
                        min_runway = min_runway.min(runway);
                        gap_sum += self.newest_emitted.saturating_sub(np);
                        // Mirror the scheduler's exchange-window bounds
                        // (`plan_node`): how much of what the node will
                        // pull over is already held.
                        let window_end = (self.newest_emitted + 1)
                            .min(np + lookahead)
                            .min(np + self.config.buffer_size);
                        if window_end > np {
                            let held = node.buffer.count_range(np, window_end);
                            occupancy_sum += held as f64 / (window_end - np) as f64;
                        }
                    }
                    let next = np + p;
                    node.next_play = Some(next);
                    // The buffer is FIFO in *arrival* order: played
                    // segments stay (serving lagging neighbours) until
                    // fresh segments slide the window past them. Only the
                    // pre-fetch tags expire at the play point.
                    node.prefetch_tags.retain(|&seg, _| seg >= next);
                }
            }
            node.rate.end_period(self.config.period_secs);
            node.last_inflow = node.round_inflow;
            node.round_inflow = 0;
        }
        self.obs_phase(ObsPhase::Playback, &mut olap);

        // --- 9. backup GC and DHT table aging -------------------------------------
        let mut gc_evictions = 0u64;
        if round % 10 == 9 {
            let horizon = self.global_play_floor();
            for k in 0..self.order_idx.len() {
                gc_evictions += self
                    .nodes
                    .node_mut(self.order_idx[k])
                    .backup
                    .gc_before(horizon) as u64;
            }
            self.dht.tick_tables();
        }

        // Cached: `env::var_os` builds a C string per call, which would
        // be the round loop's only steady-state allocation.
        static DEBUG_ROUNDS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *DEBUG_ROUNDS.get_or_init(|| std::env::var_os("CS_DEBUG_ROUNDS").is_some()) {
            self.debug_round_report(round);
        }
        self.records.push(RoundRecord {
            round,
            time_secs: round_end.as_secs_f64(),
            alive,
            playing,
            continuous,
            // Paused nodes are excluded from the ratio (see the pause
            // arm above); with none paused this is exactly
            // `continuous / alive`, the pinned historical definition.
            continuity: if alive > paused {
                continuous as f64 / (alive - paused) as f64
            } else {
                0.0
            },
            traffic,
            prefetch_attempts,
            prefetch_successes,
            prefetch_overdue,
            prefetch_repeated,
            prefetch_suppressed,
            mean_alpha: if alive > 0 {
                alpha_sum / alive as f64
            } else {
                0.0
            },
            gossip_deliveries,
            requests_issued,
            requests_dropped,
            joins,
            leaves,
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
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.rounds.push(TelemetryRound {
                round,
                playing,
                newest_emitted: self.newest_emitted,
                mean_runway: if playing > 0 {
                    runway_sum as f64 / playing as f64
                } else {
                    0.0
                },
                min_runway: if playing > 0 { min_runway } else { 0 },
                mean_frontier_gap: if playing > 0 {
                    gap_sum as f64 / playing as f64
                } else {
                    0.0
                },
                window_occupancy: if playing > 0 {
                    occupancy_sum / playing as f64
                } else {
                    0.0
                },
                supplier_active: svc.supplier_active,
                supplier_peak_load: svc.supplier_peak,
                dht_routing_msgs: prefetch_routing_msgs,
                gc_evictions,
                backup_segments: backup_total,
                rescue_cap: rescue_cap_peak as u64,
                suppressed_nodes: prefetch_suppressed as u64,
                slack_used,
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
                active_sched: self.hot.active_sched.len() as u64,
                active_prefetch: self.hot.active_prefetch.len() as u64,
                touched_active: self.hot.forced,
            });
        }
        self.obs_phase(ObsPhase::Finalize, &mut olap);
        self.scratch = scratch;
    }

    /// Close the current profiler lap into `phase` (no-op when the
    /// profiler is unarmed — `lap_ns` is `None` and nothing is read).
    #[inline]
    fn obs_phase(&mut self, phase: ObsPhase, lap: &mut Lap) {
        if let Some(ns) = lap.lap_ns() {
            if let Some(o) = self.obs.as_deref_mut() {
                o.profiler.record(phase, ns);
            }
        }
    }

    /// Push a typed protocol event into the trace ring (no-op when
    /// tracing is unarmed). Every call site is serial, deterministic
    /// round code — which is what makes traces byte-identical across
    /// re-runs and thread counts.
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
            .saturating_sub(self.config.demand_per_round())
            .max(1)
    }
}

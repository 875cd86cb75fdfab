//! The fault plane, the recovery plane and source seeding: crash/loss
//! injection, the scripted-fault API, timeout → retry → failover for
//! lost pulls, and the source-side pushes (frontier, joiner runway,
//! origin fallback) that share the source's outbound ledger with the
//! round's rescue uploads (step-6 gossip service budgets apart from it).

use rand::Rng;

use cs_dht::DhtId;
use cs_net::{TrafficClass, TrafficCounter};
use cs_obs::EventKind;
use cs_sim::SimRng;
use cs_trace::derive_latency;

use super::prefetch::SEGMENT_TRANSFER_MS;
use super::state::{NodeIdx, RoundScratch};
use super::{SystemSim, SIZES};
use crate::config::SystemConfig;
use crate::faults::{FaultPlan, FaultRoundRecord, FaultTrace};
use crate::policy::AdaptivePolicy;
use crate::SegmentId;

/// A pull whose delivery was lost to the fault plane and is being
/// watched by the recovery plane (Adaptive policy only): the requester
/// times the supplier out, retries with exponential backoff and fails
/// over to a DHT rescue fetch that shuns suspected-dead suppliers.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingRetry {
    pub(super) requester: DhtId,
    pub(super) segment: SegmentId,
    /// The supplier whose delivery went dark (`None` for losses with no
    /// attributable peer). Suspected and evicted on first timeout.
    pub(super) supplier: Option<DhtId>,
    /// Round the original pull was lost (time-to-recover baseline).
    pub(super) lost_round: u32,
    /// Backed-off retries issued so far (bounded by
    /// [`AdaptivePolicy::RETRY_MAX`]).
    pub(super) attempts: u32,
    /// Round at which the timeout/backoff timer next fires.
    pub(super) next_check: u32,
    /// Whether the supplier has already been suspected (failover counted
    /// once per lost pull).
    pub(super) suspected: bool,
}

/// What the fault plane did to one control-path fetch.
pub(super) enum ControlFault {
    None,
    Lost,
    Delayed(f64),
}

/// All fault-injection and failure-recovery state. Grouped so the hot
/// path can gate every fault check on one `active` flag: with the
/// default inert [`FaultPlan`] and no scripted fault events, nothing
/// here is read past that flag, no `"faults"` RNG draw happens and the
/// run is bit-identical to a fault-free build.
pub(super) struct FaultState {
    /// Dedicated stream for every fault/recovery draw. Deriving the
    /// child consumes nothing from the sibling streams, so creating it
    /// unconditionally is free.
    pub(super) rng: SimRng,
    /// The config's steady-state rates, for the whole run.
    pub(super) plan: FaultPlan,
    /// Scripted transient loss burst: extra loss probability while
    /// `round < burst_until`.
    pub(super) burst_loss: f64,
    pub(super) burst_until: u32,
    /// Scripted partition: sorted arc members; messages crossing the
    /// arc boundary drop deterministically while `round < partition_until`.
    pub(super) partition: Vec<DhtId>,
    pub(super) partition_until: u32,
    /// RP/bootstrap outage: joins are rejected while
    /// `round < rp_outage_until`.
    pub(super) rp_outage_until: u32,
    /// Whether the fault plane ever armed. Gates all per-round work.
    pub(super) active: bool,
    /// Whether any crash ever happened; gates the lazy stale-route
    /// repair scan (only crashes leave stale DHT entries behind).
    pub(super) crashed_any: bool,
    /// Scratch: steady-state crash victims drawn this round.
    pub(super) victims: Vec<DhtId>,
    /// Suppliers suspected dead by the recovery plane, each with the
    /// round its eviction window expires.
    pub(super) dead_until: Vec<(DhtId, u32)>,
    /// Lost pulls under timeout/retry watch.
    pub(super) pending: Vec<PendingRetry>,
    /// Counters accumulating for the current round; drained into the
    /// trace at end of round.
    pub(super) counters: FaultRoundRecord,
    /// The per-round fault/recovery trace (empty while inert).
    pub(super) trace: FaultTrace,
}

impl FaultState {
    pub(super) fn new(rng: SimRng, plan: FaultPlan) -> Self {
        FaultState {
            rng,
            plan,
            burst_loss: 0.0,
            burst_until: 0,
            partition: Vec::new(),
            partition_until: 0,
            rp_outage_until: 0,
            active: plan.enabled(),
            crashed_any: false,
            victims: Vec::new(),
            dead_until: Vec::new(),
            pending: Vec::new(),
            counters: FaultRoundRecord::default(),
            trace: FaultTrace::default(),
        }
    }

    /// Whether the scripted partition drops messages between `a` and `b`
    /// this round (exactly one endpoint inside the arc).
    fn partition_blocks(&self, round: u32, a: DhtId, b: DhtId) -> bool {
        if round >= self.partition_until || self.partition.is_empty() {
            return false;
        }
        let inside = |id| self.partition.binary_search(&id).is_ok();
        inside(a) != inside(b)
    }

    /// Effective loss probability on the data path this round.
    fn data_loss(&self, round: u32) -> f64 {
        let burst = if round < self.burst_until {
            self.burst_loss
        } else {
            0.0
        };
        (self.plan.data_loss + burst).min(1.0)
    }

    /// Effective loss probability on the control path this round.
    fn control_loss(&self, round: u32) -> f64 {
        let burst = if round < self.burst_until {
            self.burst_loss
        } else {
            0.0
        };
        (self.plan.control_loss + burst).min(1.0)
    }

    /// Whether `id` is currently under recovery-plane eviction.
    pub(super) fn evicted(&self, id: DhtId) -> bool {
        self.dead_until.iter().any(|&(d, _)| d == id)
    }
}

impl SystemSim {
    /// Script a transient loss burst: `loss` extra loss probability on
    /// every message path for the next `rounds` rounds.
    pub fn begin_loss_burst(&mut self, loss: f64, rounds: u32) {
        assert!(
            (0.0..=1.0).contains(&loss),
            "burst loss must be a probability"
        );
        self.faults.burst_loss = loss;
        self.faults.burst_until = self.next_round.saturating_add(rounds);
        if loss > 0.0 && rounds > 0 {
            self.faults.active = true;
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "loss_burst",
            );
        }
    }

    /// Script a network partition: messages between `members` and the
    /// rest of the overlay drop deterministically for the next `rounds`
    /// rounds.
    pub fn set_partition(&mut self, mut members: Vec<DhtId>, rounds: u32) {
        members.sort_unstable();
        members.dedup();
        let arms = !members.is_empty() && rounds > 0;
        self.faults.partition = members;
        self.faults.partition_until = self.next_round.saturating_add(rounds);
        if arms {
            self.faults.active = true;
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "partition",
            );
        }
    }

    /// Script an RP/bootstrap outage: every join (churn or scenario) is
    /// rejected for the next `rounds` rounds. Consumes no randomness, so
    /// it does not arm the fault plane's per-round machinery.
    pub fn set_rp_outage(&mut self, rounds: u32) {
        self.faults.rp_outage_until = self.next_round.saturating_add(rounds);
        if rounds > 0 {
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "rp_outage",
            );
        }
    }

    /// Crash failure (fault plane): the node goes silently dark. Unlike
    /// [`Self::abrupt_failure`], *nothing else is told* — the RP keeps
    /// the id allocated (so it is never reused), the DHT keeps routing
    /// through the stale entry until [`Self::repair_stale_routes`]
    /// evicts it on contact, and neighbours only notice on their next
    /// maintenance pass. Backups the node held are stranded.
    pub(super) fn crash(&mut self, id: DhtId) {
        self.nodes.remove_id(id);
        self.faults.crashed_any = true;
        self.faults.counters.crashes += 1;
    }

    /// Steady-state crash injection: each alive non-source node crashes
    /// this round with probability `crash_rate`, drawn on the `"faults"`
    /// stream in deterministic id order.
    pub(super) fn inject_crashes(&mut self) {
        let rate = self.faults.plan.crash_rate;
        if rate <= 0.0 {
            return;
        }
        let source = self.source;
        self.faults.victims.clear();
        for &id in &self.order_ids {
            if id != source && self.faults.rng.gen_bool(rate) {
                self.faults.victims.push(id);
            }
        }
        if self.faults.victims.is_empty() {
            return;
        }
        for vi in 0..self.faults.victims.len() {
            let id = self.faults.victims[vi];
            self.crash(id);
            self.obs_emit(self.next_round, EventKind::Crash, id, 0, "crash_rate");
        }
        self.rebuild_order();
    }

    /// Lazily repair stale DHT routing state: every crashed node a
    /// retrieval routed through or located is evicted from the routing
    /// tables on contact. Only crashes leave stale entries behind
    /// (leaves and failures already call `dht.leave`), so the scan is
    /// gated on any crash ever having happened.
    pub(super) fn repair_stale_routes(&mut self, located: &[DhtId]) {
        for &l in located {
            if self.nodes.lookup(l).is_none() && self.dht.leave(l) {
                self.faults.counters.stale_repairs += 1;
            }
        }
    }

    /// Whether the fault plane swallows one data-path delivery. Only
    /// called while the plane is active.
    pub(super) fn data_delivery_lost(
        &mut self,
        round: u32,
        supplier: DhtId,
        requester: DhtId,
    ) -> bool {
        let f = &mut self.faults;
        if f.partition_blocks(round, supplier, requester) {
            f.counters.data_losses += 1;
            return true;
        }
        let p = f.data_loss(round);
        if p > 0.0 && f.rng.gen_bool(p) {
            f.counters.data_losses += 1;
            return true;
        }
        false
    }

    /// What the fault plane does to one control-path fetch (DHT rescue
    /// download). Only called while the plane is active.
    pub(super) fn control_fetch_fault(
        &mut self,
        round: u32,
        requester: DhtId,
        supplier: DhtId,
    ) -> ControlFault {
        let f = &mut self.faults;
        if f.partition_blocks(round, requester, supplier) {
            f.counters.control_losses += 1;
            return ControlFault::Lost;
        }
        let p = f.control_loss(round);
        if p > 0.0 && f.rng.gen_bool(p) {
            f.counters.control_losses += 1;
            return ControlFault::Lost;
        }
        if f.plan.delay_prob > 0.0 && f.rng.gen_bool(f.plan.delay_prob) {
            f.counters.delays += 1;
            return ControlFault::Delayed(f.plan.delay_ms);
        }
        ControlFault::None
    }

    /// Put a lost pull under recovery watch. Legacy policy has no
    /// recovery plane — the loss simply stands, exactly the gap the
    /// Legacy-vs-Adaptive chaos comparison measures.
    pub(super) fn note_lost_pull(
        &mut self,
        round: u32,
        requester: DhtId,
        segment: SegmentId,
        supplier: Option<DhtId>,
    ) {
        if self.config.policy.as_adaptive().is_none() {
            return;
        }
        self.faults.pending.push(PendingRetry {
            requester,
            segment,
            supplier,
            lost_round: round,
            attempts: 0,
            next_check: round + AdaptivePolicy::SUPPLIER_TIMEOUT_ROUNDS,
            suspected: false,
        });
    }

    /// Step 7b: the recovery plane. Scans the pending lost pulls in
    /// arrival order: segments that arrived by other means are
    /// recovered; expired timeouts suspect and evict the dark supplier
    /// (failover) and re-issue the pull as a DHT rescue fetch with
    /// exponential backoff + jitter, bounded by
    /// [`AdaptivePolicy::RETRY_MAX`].
    pub(super) fn run_recovery_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) {
        // Suspected-supplier evictions expire.
        self.faults.dead_until.retain(|&(_, until)| until > round);
        if self.faults.pending.is_empty() {
            return;
        }
        // Only `note_lost_pull` fills `pending`, and never under Legacy.
        debug_assert!(self.config.policy.as_adaptive().is_some());
        let mut kept = 0usize;
        for i in 0..self.faults.pending.len() {
            let mut e = self.faults.pending[i];
            let drop_entry = 'decide: {
                let Some(ridx) = self.nodes.lookup(e.requester) else {
                    // Requester gone: nothing left to recover.
                    break 'decide true;
                };
                {
                    let node = self.nodes.node(ridx);
                    if node.buffer.contains(e.segment) {
                        // Healed by gossip or an earlier retry.
                        self.faults.counters.recoveries += 1;
                        self.faults.counters.recovery_rounds += (round - e.lost_round) as u64;
                        break 'decide true;
                    }
                    if e.segment < node.buffer.head()
                        || node.next_play.is_some_and(|np| e.segment < np)
                    {
                        // Playback moved past the hole: moot.
                        break 'decide true;
                    }
                }
                if round < e.next_check {
                    break 'decide false;
                }
                // Timeout fired: the supplier has been dark for the full
                // window — suspect it once per lost pull.
                self.faults.counters.timeouts += 1;
                if let Some(sup) = e.supplier {
                    if !e.suspected {
                        e.suspected = true;
                        // Liveness probe before failover (the §4.1 ping
                        // idiom): a crashed supplier never answers; an
                        // alive one answers unless the probe itself is
                        // lost on the control path. Without the probe a
                        // loss burst mass-evicts the *alive* supply side
                        // for `EVICT_ROUNDS` — the recovery plane then
                        // amplifies the burst into a supply collapse
                        // instead of damping it.
                        let dead = self.nodes.lookup(sup).is_none() || {
                            let p = self.faults.control_loss(round);
                            p > 0.0 && self.faults.rng.gen_bool(p)
                        };
                        if dead {
                            if !self.faults.evicted(sup) {
                                self.faults
                                    .dead_until
                                    .push((sup, round + AdaptivePolicy::EVICT_ROUNDS));
                            }
                            self.faults.counters.failovers += 1;
                            self.obs_emit(
                                round,
                                EventKind::SupplierFailover,
                                e.requester,
                                sup,
                                "dark_supplier",
                            );
                        }
                    }
                }
                if e.attempts >= AdaptivePolicy::RETRY_MAX {
                    // Retry budget exhausted: give up, gossip may still
                    // heal the hole.
                    break 'decide true;
                }
                e.attempts += 1;
                self.faults.counters.retries += 1;
                self.obs_emit(
                    round,
                    EventKind::RetryBackoff,
                    e.requester,
                    e.segment,
                    "supplier_timeout",
                );
                if self.retry_fetch(round, ridx, e.requester, e.segment, scratch, traffic) {
                    self.faults.counters.recoveries += 1;
                    self.faults.counters.recovery_rounds += (round - e.lost_round) as u64;
                    self.obs_emit(
                        round,
                        EventKind::Rescue,
                        e.requester,
                        e.segment,
                        "recovery_retry",
                    );
                    break 'decide true;
                }
                let jitter = self
                    .faults
                    .rng
                    .gen_range(0..=AdaptivePolicy::BACKOFF_JITTER_ROUNDS);
                e.next_check = round
                    + AdaptivePolicy::SUPPLIER_TIMEOUT_ROUNDS
                    + AdaptivePolicy::backoff_rounds(e.attempts)
                    + jitter;
                false
            };
            if !drop_entry {
                self.faults.pending[kept] = e;
                kept += 1;
            }
        }
        self.faults.pending.truncate(kept);
    }

    /// One recovery retry: a direct Algorithm-2 rescue fetch that shuns
    /// suppliers currently under eviction. Returns whether the segment
    /// arrived.
    fn retry_fetch(
        &mut self,
        round: u32,
        idx: NodeIdx,
        requester_id: DhtId,
        seg: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> bool {
        // Failover: suppliers under eviction are shunned.
        let outcome = self.dht_retrieve(requester_id, seg, true, scratch, traffic);
        let Some(supplier) = outcome.supplier else {
            // Last resort: no replica holds the segment, so retrying the
            // DHT lookup is futile — fall back to the origin when the
            // policy allows it.
            if self
                .config
                .policy
                .as_adaptive()
                .is_some_and(|p| p.source_rescue_cap > 0)
            {
                return self
                    .source_fetch(round, idx, requester_id, seg, scratch, traffic)
                    .is_some();
            }
            return false;
        };
        // The retry rides the control path too: it can be lost again
        // (the entry stays pending; delay is irrelevant at round
        // granularity — the segment still lands this round).
        if let ControlFault::Lost = self.control_fetch_fault(round, requester_id, supplier) {
            return false;
        }
        traffic.add(TrafficClass::PrefetchData, SIZES.segment_bits);
        if let Some(sup_idx) = self.nodes.lookup(supplier) {
            scratch.add_spent(sup_idx, 1.0 / SystemConfig::PERIOD_SECS);
        }
        self.receive_direct(idx, requester_id, seg);
        true
    }

    /// Whether the source's outbound ledger for this round is used up.
    /// Frontier pushes, joiner seeds, origin fallbacks and the source's
    /// own rescue uploads all draw on this one ledger, so together they
    /// stay within one outbound rate. Step-6 gossip service does not:
    /// it budgets each supplier from `outbound·τ` plus carry and never
    /// reads the ledger, so a source (like any node) can upload up to
    /// about twice its outbound rate in one round.
    fn source_uplink_spent(&self, scratch: &RoundScratch) -> bool {
        let src = self.source_idx;
        let cap = self.nodes.node(src).bandwidth.outbound_segments_per_sec();
        let used = scratch
            .outbound_spent
            .get(src.0 as usize)
            .copied()
            .unwrap_or(0.0);
        cap - used <= 0.0
    }

    /// Push one copy of `seg` from the source to node `idx`. The push is
    /// sent — ledger and bits spent — whether or not the fault plane
    /// swallows it in flight; returns whether it arrived.
    fn source_push_one(
        &mut self,
        round: u32,
        idx: NodeIdx,
        id: DhtId,
        seg: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> bool {
        scratch.add_spent(self.source_idx, 1.0 / SystemConfig::PERIOD_SECS);
        traffic.add(TrafficClass::Data, SIZES.segment_bits);
        if self.faults.active && self.data_delivery_lost(round, self.source, id) {
            return false;
        }
        self.receive_direct(idx, id, seg);
        true
    }

    /// Step 4b (recovery plane): frontier push seeding. The source
    /// pushes up to `source_push` copies of each segment it emitted
    /// this round to deterministic ring-spread positions (the node
    /// closest clockwise to `hash(segment, i)`, the same
    /// position-hashing idea as the §4.2 backup placement). Charged to
    /// the source's outbound ledger (shared with the other source-side
    /// transfers, not with step-6 gossip) and subject to data-path
    /// loss, like any other data transfer. Returns the copies that
    /// arrived (they count as gossip-plane deliveries). RNG-free; with
    /// the knob at 0 (the default) it is a single branch.
    pub(super) fn push_frontier(
        &mut self,
        round: u32,
        first_new: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> u64 {
        let fanout = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |p| p.source_push);
        if fanout == 0 {
            return 0;
        }
        let mut pushed = 0u64;
        for seg in first_new..=self.newest_emitted {
            for i in 0..fanout as u64 {
                if self.source_uplink_spent(scratch) {
                    // The ledger is spent: pushing stops for the round.
                    return pushed;
                }
                let k = self.ring_spread(seg, i);
                let id = self.order_ids[k];
                if id == self.source || self.nodes.node(self.order_idx[k]).buffer.contains(seg) {
                    continue;
                }
                let idx = self.order_idx[k];
                pushed += u64::from(self.source_push_one(round, idx, id, seg, scratch, traffic));
            }
        }
        pushed
    }

    /// Step 4c (joiner integration): runway seeding for freshly-admitted
    /// nodes — the frontier push extended to joiners. Every node
    /// admitted *this* round gets up to `join_seed` segments of its
    /// initial runway pushed straight from the source, starting at its
    /// adopted play anchor, charged to the same outbound ledger as every
    /// other source-side transfer (a spent ledger seeds less; step-6
    /// gossip is budgeted apart from it) and subject to data-path
    /// loss. Without it a joiner pulls its whole catch-up window from
    /// neighbours who are themselves at budget, and under 5 %-per-round
    /// churn that steady catch-up tax is what drags the swarm below the
    /// paper's fig-8 continuity. Serial and RNG-free; with the knob at
    /// 0 (the default) it is a single branch. The initial population
    /// (spawn round 0) is excluded by the round-0 early out.
    pub(super) fn seed_joiners(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> u64 {
        let seed = self.config.policy.as_adaptive().map_or(0, |p| p.join_seed) as u64;
        if seed == 0 || round == 0 {
            return 0;
        }
        let mut pushed = 0u64;
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let (id, anchor) = {
                let node = self.nodes.node(idx);
                if node.is_source || node.spawn_round != round {
                    continue;
                }
                // A joiner that adopted no play point (its base was not
                // playing and holds nothing) has no runway to seed yet;
                // the regular startup path covers it.
                let Some(anchor) = node.next_play.or_else(|| node.buffer.iter().next()) else {
                    continue;
                };
                (node.id, anchor)
            };
            for seg in anchor..anchor.saturating_add(seed).min(self.newest_emitted + 1) {
                if self.source_uplink_spent(scratch) {
                    // The ledger is spent: seeding stops for the round.
                    return pushed;
                }
                if self.nodes.node(idx).buffer.contains(seg) {
                    continue;
                }
                pushed += u64::from(self.source_push_one(round, idx, id, seg, scratch, traffic));
            }
        }
        pushed
    }

    /// Origin-fallback fetch (recovery plane): every replica lookup for
    /// `seg` came up empty or dark, so the §4.3 rescue cannot succeed no
    /// matter how often it retries — but the source always holds the
    /// full stream. A direct unicast fetch to the bootstrap address (no
    /// DHT routing), charged against the source's outbound-spend ledger:
    /// when the ledger is spent, the fallback fails like any saturated
    /// supplier, so fallbacks, pushes, seeds and rescue uploads together
    /// stay within one outbound rate (step-6 gossip is budgeted apart
    /// from the ledger). The point is not to serve the swarm from the
    /// origin — one uplink cannot — but to re-seed a broken distribution
    /// wave with copies the gossip plane then re-amplifies. Rides the
    /// control path (the fault plane can swallow or delay it). Returns
    /// the eq. 6-style fetch time when the segment arrived.
    pub(super) fn source_fetch(
        &mut self,
        round: u32,
        idx: NodeIdx,
        requester_id: DhtId,
        seg: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> Option<f64> {
        if requester_id == self.source || seg > self.newest_emitted {
            return None;
        }
        let src_idx = self.source_idx;
        if self.source_uplink_spent(scratch) {
            return None;
        }
        // One request message to a known address, then the payload.
        traffic.add(TrafficClass::PrefetchRouting, SIZES.routing_message_bits);
        let mut extra_delay_ms = 0.0;
        if self.faults.active {
            match self.control_fetch_fault(round, requester_id, self.source) {
                ControlFault::Lost => return None,
                ControlFault::Delayed(ms) => extra_delay_ms = ms,
                ControlFault::None => {}
            }
        }
        self.faults.counters.failovers += 1;
        traffic.add(TrafficClass::PrefetchData, SIZES.segment_bits);
        scratch.add_spent(src_idx, 1.0 / SystemConfig::PERIOD_SECS);
        let rtt = {
            let req_ping = self.nodes.ping_at(idx);
            let src_ping = self.nodes.ping_at(src_idx);
            derive_latency(req_ping, src_ping) * 2.0
        };
        self.receive_direct(idx, requester_id, seg);
        self.obs_emit(
            round,
            EventKind::OriginFallback,
            requester_id,
            seg,
            "replicas_exhausted",
        );
        Some(rtt + SEGMENT_TRANSFER_MS + extra_delay_ms)
    }
}

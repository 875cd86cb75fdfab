//! The full-system simulator: the paper's §5.2 methodology end to end.
//!
//! One run wires every piece together: a synthetic Clip2-style trace
//! (edges augmented to `M` neighbours), per-node bandwidth from the §5.2
//! distribution, the hybrid overlay (connected neighbours + loose DHT +
//! overheard list), periodic buffer-map exchange, a pluggable data
//! scheduler, the urgent line, Algorithm 2 pre-fetching over the DHT, VoD
//! backup placement/handover, churn, and the §5.3 metrics.
//!
//! ## Timing model
//!
//! The simulation advances in scheduling periods (`τ`-rounds): round `r`
//! ends at simulated time `(r + 1)·τ` exactly (integer microseconds).
//! Within a round, transfer and routing times are computed analytically
//! from trace latencies and bandwidth shares (Algorithm 1 already
//! guarantees every accepted transfer completes inside the period).
//! Segments delivered in round `r` become playable in round `r + 1`; the
//! continuity check runs at the start of each round, exactly like the
//! paper's per-round ratio.
//!
//! ## Data layout: the node arena
//!
//! Node state lives in a dense arena (`Vec<NodeSim>` + free list) indexed
//! by `NodeIdx`. Ids resolve to slots through a dense `DhtId → slot`
//! table (`cs_dht::IdSlotTable`: one `u32` per id of the space, allocated
//! once, enumerating in ascending id order), so the DHT/overlay boundary
//! — routing, joins, retrieval, and above all the latency oracle the DHT
//! calls for every overheard offer, some 80 times per retrieval — costs
//! array loads: id → slot → the arena's slot-indexed ping array. Inside
//! the round loop everything that outlives a phase — the partner table
//! (whose rows carry the Rate Controller's estimates), the overheard
//! list, pull requests — holds peers by their `DhtId` alone, 8 bytes,
//! and per-node access is that same id-table load. Every tie-break is a
//! function of ids alone, so the arena's slot reuse under churn never
//! reorders a decision (pinned by the behavioural fingerprints in
//! `tests/determinism.rs`).
//!
//! Per-round allocations are gone entirely: a persistent `RoundScratch`
//! owns the buffer-map snapshots (every advertised map copied whole each
//! round, round-stamped so last round's copy is invisible), the
//! flat pull-request arena (one `Vec` in node order, plus the `u32`
//! indices step 6 counting-scatters into per-supplier ranges and sorts
//! there, so no request is copied), the pre-fetch miss list, outbound
//! ledger and retrieval route buffers, and the scheduling scratch
//! (including the schedulers' own `_into` working memory). A warmed-up
//! steady-state round performs **zero heap allocations** across every
//! phase — pinned by the counting-allocator suite in
//! `tests/zero_alloc.rs`.
//!
//! ## One body per phase
//!
//! A round is one thread walking the phases in order, and steps 5, 6 and
//! 7 are each one loop in ascending node order: scheduling plans a node
//! and queues its requests before it looks at the next node; supplier
//! service sorts a supplier's queue and then decides and delivers request
//! by request against its live buffer (so a supplier whose window slid
//! under an earlier supplier's delivery serves only what it still
//! holds); pre-fetch checks a node's urgent line and runs its retrievals
//! before the next node's check. The per-node algorithms are the paper's
//! (§4.2 Algorithm 1, §4.3 Algorithm 2); there is no plan table between a
//! decision and its effect. Parallelism lives outside the round, across
//! runs ([`cs_sim::fork_join`] under `cs_bench::run_many`).
//!
//! Steps 5 and 7 visit every node, and a node with nothing to do costs
//! them a few word loads: the scheduler's candidate gather returns when
//! the node lacks nothing in its exchange window (before it resolves a
//! single neighbour) or when no neighbour advertises what it lacks, and
//! the urgent-line check is a word-level hole scan that ends in
//! `NotTriggered`. "Nothing to do" is decided by the algorithm that
//! would do it, never by a second test beside it; telemetry's
//! `active_sched` / `active_prefetch` count the nodes that got past
//! those exits.
//!
//! ## Module map
//!
//! `state` holds the arena, scratch and tally types, among them
//! [`MapStore`], the round's one table of advertised maps, which the
//! exchange fills, and `RoundTally`, which carries the round's
//! [`RoundRecord`] and [`TelemetryRound`](crate::TelemetryRound) rows
//! for the phases to count into in place; `round` the round driver
//! ([`SystemSim::step_with`], the one round entry) and the phases it
//! keeps to itself (churn, emission, exchange, playback, finalise);
//! `schedule`, `service` and `prefetch` steps 5, 6 and 7; `membership`
//! neighbour maintenance, joins, leaves and workload events; `recovery`
//! the fault plane, the recovery plane and source seeding; `twin` the
//! buffer-map exchange seam — the only place the simulator and the
//! live-network twin differ; `debug` the test hooks.

use rand::Rng;

use cs_dht::{DhtId, DhtNetwork, IdSpace};
use cs_net::{BandwidthAssigner, MessageSizes, NodeBandwidth};
use cs_obs::{ObsConfig, ObsRunReport, ObsState};
use cs_overlay::overheard::DEFAULT_H;
use cs_overlay::{ConnectedNeighbors, OverheardList, RpServer};
use cs_sim::{RngTree, SimRng};
use cs_trace::{augment_to_min_degree, derive_latency, TraceGenConfig, TraceGenerator};

use crate::backup::VodBackupStore;
use crate::buffer::StreamBuffer;
use crate::config::SystemConfig;
use crate::faults::FaultTrace;
use crate::metrics::{stable_tail_start, summarize, RoundRecord, RunReport};
use crate::policy::PolicyKind;
use crate::telemetry::Telemetry;
use crate::urgent::UrgentLine;
use crate::SegmentId;

mod debug;
mod membership;
mod prefetch;
mod recovery;
mod round;
mod schedule;
mod service;
mod state;
mod twin;

pub use state::MapStore;
pub use twin::TwinAnnounce;

use recovery::FaultState;
use state::{NodeArena, NodeIdx, NodeSim, PrefetchTags, RoundScratch};

/// The §5.4.2 message sizes of the paper's buffer, for traffic accounting.
const SIZES: MessageSizes = MessageSizes::for_buffer(SystemConfig::BUFFER_SEGMENTS);

/// A workload event applied between rounds — the hook API the
/// `cs-scenario` engine (and any other external driver) uses to change
/// the system mid-run. Events never consume the churn/scheduler/join RNG
/// streams: everything they need to sample flows through a dedicated
/// `"scenario"` child of the seed tree, so a run that applies no events
/// is bit-identical to a plain [`SystemSim::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemEvent {
    /// Admit one node through the §4.1 RP join protocol (the same path
    /// churn joins take: close-ID ping, neighbour adoption, DHT join).
    /// `None` fields are drawn from the joiner pools on the scenario
    /// stream; `Some` fields express heterogeneous node classes
    /// (capacity tiers, latency classes).
    Join {
        /// Override the joiner's ping time (latency class).
        ping_ms: Option<f64>,
        /// Override the joiner's capacity (upload tier).
        bandwidth: Option<NodeBandwidth>,
    },
    /// Remove a node; `graceful` leaves hand their VoD backups to the
    /// ring predecessor, abrupt failures just vanish.
    Leave { id: DhtId, graceful: bool },
    /// Crash a node (fault plane). Unlike [`SystemEvent::Leave`] with
    /// `graceful: false` — which still tells the RP server and the DHT —
    /// a crash is silent: backups are stranded, DHT routing entries go
    /// stale until lazily repaired on contact, and neighbours only learn
    /// on their next maintenance pass.
    Crash { id: DhtId },
    /// VCR: move a node's play anchor. The exchange window, the urgent
    /// line and the pre-fetcher all re-derive from the new anchor on the
    /// next round.
    Seek { id: DhtId, target: SeekTarget },
    /// VCR: freeze playback. The node keeps buffering, serving and
    /// counting as alive, but its play point holds still and it is not
    /// counted as playing until resumed.
    Pause { id: DhtId },
    /// VCR: resume a paused node at its frozen play point.
    Resume { id: DhtId },
    /// Change a node's capacity mid-run (tier upgrade or throttle).
    SetBandwidth { id: DhtId, bandwidth: NodeBandwidth },
}

/// Where a [`SystemEvent::Seek`] moves the play anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekTarget {
    /// Jump `n` segments toward the live frontier (clamped to it).
    Forward(u64),
    /// Jump `n` segments back (clamped to the oldest segment the buffer
    /// window can still address).
    Backward(u64),
    /// Jump to the live frontier minus the startup buffering window.
    ToLive,
}

/// What applying a [`SystemEvent`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// A join succeeded; the new node got this id.
    Joined(DhtId),
    /// The event applied to its target.
    Applied,
    /// The event had no effect: dead or unsuitable target (e.g. the
    /// source, or a seek on a node that has not started playback), or a
    /// join that found no reachable contact.
    Rejected,
}

/// The full-system simulator.
pub struct SystemSim {
    config: SystemConfig,
    space: IdSpace,
    rp: RpServer,
    dht: DhtNetwork,
    nodes: NodeArena,
    /// Alive node ids in deterministic (sorted) order; rebuilt on churn.
    order_ids: Vec<DhtId>,
    /// Arena handles parallel to `order_ids`.
    order_idx: Vec<NodeIdx>,
    source: DhtId,
    source_idx: NodeIdx,
    bw_assigner: BandwidthAssigner,
    /// Ping-time pool for joiners, drawn as bare pings from the same
    /// distribution as the initial trace (`expected_joins + 16` of them).
    /// Its length is behaviour: a churn join takes entry
    /// `(round·31 + live) mod len`, a scenario join a uniform one.
    joiner_pings: Vec<f64>,
    newest_emitted: SegmentId,
    records: Vec<RoundRecord>,
    churn_rng: SimRng,
    sched_rng: SimRng,
    join_rng: SimRng,
    /// Dedicated stream for [`SystemEvent`] internals (scenario joins'
    /// ids, pings, capacities). Untouched streams above stay untouched:
    /// a run that applies no events reproduces `run()` bit for bit.
    scenario_rng: SimRng,
    /// Next round index for the manual stepping API ([`Self::step`]).
    next_round: u32,
    /// The per-round diagnostic counters, always recorded: one row per
    /// stepped round, one sample per node that started playback. Sized
    /// at construction (`rounds` rows, `nodes` startups), so a warm
    /// round appends without allocating.
    telemetry: Telemetry,
    /// Observability layer (profiler + distributions + event trace),
    /// armed as one unit by [`Self::enable_obs`]; `None` (the default)
    /// costs one branch per tap. It is purely observational: it
    /// consumes no RNG and mutates no protocol state, so arming it
    /// cannot move a behavioural fingerprint (its wall-clock readings
    /// are Debug-hidden).
    obs: Option<Box<ObsState>>,
    /// Fault-injection / failure-recovery state; inert (one branch per
    /// gate, no draws, no allocations) unless armed by the config plan
    /// or a scripted fault event.
    faults: FaultState,
    scratch: RoundScratch,
}

/// Debug introspection record: `(id, next_play, buffer_len, first_id,
/// contiguous_from_first, connected, inbound_rate)`.
pub type NodeDebugState = (DhtId, Option<u64>, u64, Option<u64>, u64, usize, f64);

impl SystemSim {
    /// Build a simulator (generates the trace, assigns bandwidth, wires
    /// the overlay and DHT). Deterministic in `config.seed`.
    pub fn new(config: SystemConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let tree = RngTree::new(config.seed);

        // 1. Trace: synthetic Clip2-style topology, augmented to M.
        let mut trace_rng = tree.child("trace");
        let topo_cfg = TraceGenConfig::with_nodes(config.nodes);
        let mut topo = TraceGenerator::new(topo_cfg).generate(&mut trace_rng);
        let mut aug_rng = tree.child("augment");
        augment_to_min_degree(&mut topo, config.neighbors, &mut aug_rng);

        // 2. IDs from the RP server.
        let space = IdSpace::for_capacity(config.id_capacity());
        let mut rp = RpServer::new(space);
        let mut rp_rng = tree.child("rp");
        let ids: Vec<DhtId> = (0..config.nodes)
            .map(|_| rp.assign_id(&mut rp_rng))
            .collect();

        // 3. Bandwidth.
        let bw_assigner = BandwidthAssigner::paper(config.bandwidth);
        let mut bw_rng = tree.child("bandwidth");

        // 4. Node states in the arena. Index 0 of the trace is the source.
        let t_fetch = cs_analysis::t_fetch(config.nodes as u64, config.t_hop_secs);
        let mut nodes = NodeArena::new(space, config.nodes);
        let pings: Vec<f64> = topo.records().iter().map(|r| r.ping_ms).collect();
        for (idx, &id) in ids.iter().enumerate() {
            let is_source = idx == 0;
            let bandwidth = if is_source {
                bw_assigner.source_node()
            } else {
                bw_assigner.sample_node(&mut bw_rng)
            };
            nodes.insert(
                Self::make_node(&config, space, id, bandwidth, t_fetch, is_source),
                pings[idx],
            );
        }
        let source = ids[0];
        let source_idx = nodes.lookup(source).expect("just inserted");

        // 5. Connected neighbours from the augmented topology: up to M
        //    lowest-latency adjacent nodes.
        for (idx, &id) in ids.iter().enumerate() {
            let mut adj: Vec<(f64, DhtId)> = topo
                .neighbors(idx)
                .iter()
                .map(|&j| (derive_latency(pings[idx], pings[j]), ids[j]))
                .collect();
            adj.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let own = nodes.lookup(id).expect("node exists");
            for (lat, nid) in adj {
                let node = nodes.node_mut(own);
                if node.connected.is_full() {
                    break;
                }
                node.connected.add(nid, lat);
            }
            // Seed the overheard list with a few random members so
            // neighbour repair has material from round one. The member's
            // ping comes straight from the arena (it carries pings[k] for
            // ids[k]), replacing the O(N) `position()` scan per seed that
            // made this loop — and the whole constructor — O(N²).
            let mut seed_rng = tree.child_indexed("overheard-seed", idx as u64);
            for _ in 0..4 {
                let other = ids[seed_rng.gen_range(0..ids.len())];
                if other != id {
                    let oidx = nodes.lookup(other).expect("member");
                    let other_ping = nodes.ping_at(oidx);
                    nodes
                        .node_mut(own)
                        .overheard
                        .record(other, derive_latency(pings[idx], other_ping));
                }
            }
        }

        // 6. The DHT over the same membership, with latencies from the
        //    pings held in the arena.
        let dht = {
            let latency = |a: DhtId, b: DhtId| nodes.latency(a, b);
            let mut dht_rng = tree.child("dht");
            DhtNetwork::build(space, &ids, &latency, &mut dht_rng)
        };

        // 7. A ping pool for joiners, same distribution as the trace:
        //    the trace generator's per-record draws with only the pings
        //    kept (no records, no edges). Its length is behaviour (see
        //    `joiner_pings`), so it stays `expected_joins + 16`.
        let pool = TraceGenConfig::with_nodes(config.expected_joins() as usize + 16);
        let joiner_pings = TraceGenerator::new(pool).pings(&mut tree.child("joiner-pings"));

        let mut sim = SystemSim {
            space,
            rp,
            dht,
            nodes,
            order_ids: Vec::new(),
            order_idx: Vec::new(),
            source,
            source_idx,
            bw_assigner,
            joiner_pings,
            newest_emitted: 0,
            records: Vec::with_capacity(config.rounds as usize),
            churn_rng: tree.child("churn"),
            sched_rng: tree.child("scheduler"),
            join_rng: tree.child("join"),
            scenario_rng: tree.child("scenario"),
            next_round: 0,
            telemetry: Telemetry {
                rounds: Vec::with_capacity(config.rounds as usize),
                startups: Vec::with_capacity(config.nodes),
            },
            obs: None,
            faults: FaultState::new(tree.child("faults"), config.faults),
            scratch: RoundScratch::default(),
            config,
        };
        sim.rebuild_order();
        sim
    }

    fn make_node(
        config: &SystemConfig,
        space: IdSpace,
        id: DhtId,
        bandwidth: NodeBandwidth,
        t_fetch: f64,
        is_source: bool,
    ) -> NodeSim {
        let prior = (bandwidth.inbound_segments_per_sec() / config.neighbors as f64).max(0.5);
        NodeSim {
            id,
            birth: 0, // assigned by NodeArena::insert
            bandwidth,
            connected: ConnectedNeighbors::new(config.neighbors, prior),
            overheard: OverheardList::new(DEFAULT_H),
            buffer: StreamBuffer::new(SystemConfig::BUFFER_SEGMENTS),
            backup: VodBackupStore::new(space, id, config.replicas).with_capacity_hint(
                // ≈ 4× the expected share of the live stream window that
                // hashes into this node's responsibility range, so
                // steady-state `maybe_store` calls never grow the vector
                // (the zero-alloc round-loop assertion pins this).
                (((SystemConfig::BUFFER_SEGMENTS as usize
                    + 20 * SystemConfig::PLAYBACK_RATE as usize)
                    * config.replicas as usize
                    * 4)
                    / config.nodes)
                    .clamp(16, 512),
            ),
            urgent: UrgentLine::new(
                SystemConfig::PLAYBACK_RATE as f64,
                SystemConfig::BUFFER_SEGMENTS,
                SystemConfig::PERIOD_SECS,
                t_fetch,
                config.t_hop_secs,
            ),
            next_play: None,
            first_data_round: None,
            spawn_round: 0,
            // Sized so steady-state tag churn (insert on fetch, prune at
            // the play point) never regrows the table (the zero-alloc
            // suite pins this). Legacy fetches at most `l` a round into
            // the α-window just past the play point, so a tag lives a
            // round or two: the committed Legacy runs peak at 7–9 tags
            // with l = 5, and 3·l leaves a round of head-room. Adaptive
            // tags are bounded by the rescue probe depth: twice the
            // policy's horizon.
            prefetch_tags: PrefetchTags::with_capacity(match &config.policy {
                PolicyKind::Legacy => 3 * SystemConfig::PREFETCH_CAP,
                PolicyKind::Adaptive(ap) => {
                    64.max(2 * ap.rescue_horizon(SystemConfig::DEMAND_PER_ROUND) as usize)
                }
            }),
            last_inflow: 0,
            round_inflow: 0,
            outbound_carry: 0.0,
            inbound_carry: 0.0,
            paused: false,
            is_source,
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current number of alive nodes (including the source).
    pub fn alive(&self) -> usize {
        self.nodes.len()
    }

    /// Run the configured number of rounds and produce the report.
    ///
    /// Equivalent to stepping every remaining round with [`Self::step`]
    /// and calling [`Self::finish`] — external drivers (the `cs-scenario`
    /// engine) interleave [`Self::apply_event`] calls between steps and
    /// get bit-identical behaviour when they apply no events.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        self.finish()
    }

    /// Execute the next scheduling round. Returns `false` (without doing
    /// anything) once the configured number of rounds has run.
    ///
    /// [`Self::step_with`] an exchange that installs every alive node's
    /// own announcement, read in place: every node's view of a neighbour
    /// is that neighbour's live buffer. The live-network twin differs
    /// only in the exchange it passes.
    pub fn step(&mut self) -> bool {
        self.step_with(|sim, _, _, maps| sim.install_announcements(maps))
    }

    /// Rounds executed so far — equivalently, the index of the round the
    /// next [`Self::step`] will run.
    pub fn rounds_run(&self) -> u32 {
        self.next_round
    }

    /// Consume the simulator and produce the report over every round
    /// stepped so far.
    ///
    /// # Panics
    /// If no round has run yet (there is nothing to summarise).
    pub fn finish(mut self) -> RunReport {
        let mut summary = summarize(&self.records);
        if let Some(o) = self.obs.as_deref_mut() {
            summary.dist = Some(o.dist_summary());
        }
        RunReport {
            rounds: self.records,
            summary,
        }
    }

    /// The per-round records accumulated so far (one per stepped round).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Alive node ids in deterministic (ascending) order, including the
    /// source. External drivers use this to resolve event targets.
    pub fn alive_ids(&self) -> &[DhtId] {
        &self.order_ids
    }

    /// The id of the source node (it never leaves and ignores VCR/leave
    /// events).
    pub fn source_id(&self) -> DhtId {
        self.source
    }

    /// Newest segment the source has emitted so far.
    pub fn newest_segment(&self) -> SegmentId {
        self.newest_emitted
    }

    /// The play state of a node: `None` if the id is dead,
    /// `Some((next_play, paused))` otherwise (`next_play` is `None`
    /// while the node is still buffering toward its first play).
    pub fn play_state(&self, id: DhtId) -> Option<(Option<SegmentId>, bool)> {
        let idx = self.nodes.lookup(id)?;
        let node = self.nodes.node(idx);
        Some((node.next_play, node.paused))
    }

    /// A no-op: telemetry is always recorded. Kept for the benchmark
    /// harness (`benchmark/`), which still calls it.
    pub fn enable_telemetry(&mut self) {}

    /// The telemetry recorded so far: one row per stepped round.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Take ownership of the recorded telemetry (recording continues
    /// into a fresh collector if more rounds are stepped). Always
    /// `Some`; the `Option` is kept for the benchmark harness.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        Some(std::mem::take(&mut self.telemetry))
    }

    /// Arm the observability layer — profiler, per-node distributions
    /// and event trace, as one unit (idempotent; `ObsConfig` carries no
    /// settings — the argument stays because `benchmark/` passes one).
    /// Purely observational: it draws from no RNG stream and mutates no
    /// protocol state, so every behavioural fingerprint reproduces
    /// bit-for-bit whether obs is armed or not. Wall-clock readings live
    /// only in the profiler, which no fingerprint hashes.
    pub fn enable_obs(&mut self, _cfg: ObsConfig) {
        if self.obs.is_none() {
            let rounds = self.config.rounds;
            let dist_start = stable_tail_start(rounds as usize) as u32;
            let mut o = Box::new(ObsState::new(dist_start, rounds));
            o.node_cont.ensure(self.nodes.slot_count());
            self.obs = Some(o);
        }
    }

    /// The observability state, if armed.
    pub fn obs(&self) -> Option<&ObsState> {
        self.obs.as_deref()
    }

    /// Export the observability run report (trace JSONL, distribution
    /// summary, phase breakdown). The distribution summary is finalised
    /// and cached on first call, so a later [`Self::finish`] attaches
    /// the identical `dist` block to the run summary.
    pub fn take_obs_report(&mut self) -> Option<ObsRunReport> {
        self.obs.as_deref_mut().map(|o| o.run_report())
    }

    /// The per-round fault/recovery trace. Empty while the fault plane
    /// is inert; once armed it gains exactly one record per stepped
    /// round, and its digest is the run's fault fingerprint (two runs
    /// with the same seed and workload produce byte-identical traces).
    pub fn fault_trace(&self) -> &FaultTrace {
        &self.faults.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::priority::PriorityPolicy;
    use cs_net::TrafficClass;

    fn tiny(scheduler: SchedulerKind, seed: u64) -> SystemConfig {
        SystemConfig {
            nodes: 40,
            rounds: 18,
            startup_segments: 30,
            scheduler,
            seed,
            ..Default::default()
        }
    }

    /// The joiner pool drawn as bare pings against the construction it
    /// replaced: a whole trace of `expected_joins + 16` nodes, edges
    /// and all, of which only the records' pings were kept.
    #[test]
    fn joiner_pings_match_a_generated_trace() {
        let churn = SystemConfig {
            nodes: 200,
            rounds: 40,
            seed: 9,
            ..Default::default()
        }
        .with_dynamic_churn();
        for config in [tiny(SchedulerKind::ContinuStreaming, 8), churn] {
            let tree = RngTree::new(config.seed);
            let expected: Vec<f64> = TraceGenerator::new(TraceGenConfig::with_nodes(
                (config.expected_joins() as usize + 16).max(16),
            ))
            .generate(&mut tree.child("joiner-pings"))
            .records()
            .iter()
            .map(|r| r.ping_ms)
            .collect();
            let sim = SystemSim::new(config);
            assert_eq!(sim.joiner_pings.len(), expected.len());
            assert!(
                sim.joiner_pings
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "pool of {} differs from the generated trace's pings",
                expected.len()
            );
        }
    }

    #[test]
    fn run_produces_one_record_per_round() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 1)).run();
        assert_eq!(report.rounds.len(), 18);
        for (i, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i);
            assert!((r.time_secs - (i as f64 + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn continuity_ramps_up() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 2)).run();
        let first = report.rounds.first().unwrap().continuity;
        let last = report.rounds.last().unwrap().continuity;
        assert!(last > first, "continuity should rise: {first} → {last}");
        assert!(
            last > 0.5,
            "a 40-node static net should mostly play: {last}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 3)).run();
        let b = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 3)).run();
        assert_eq!(a.rounds, b.rounds);
        let c = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 4)).run();
        assert_ne!(a.rounds, c.rounds);
    }

    #[test]
    fn random_scheduler_is_deterministic_too() {
        // The candidate sets are built in ascending segment order (not
        // hash-map order), so even the shuffling scheduler reproduces.
        let a = SystemSim::new(tiny(SchedulerKind::Random, 21)).run();
        let b = SystemSim::new(tiny(SchedulerKind::Random, 21)).run();
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn coolstreaming_never_prefetches() {
        let report = SystemSim::new(tiny(SchedulerKind::CoolStreaming, 5)).run();
        for r in &report.rounds {
            assert_eq!(r.prefetch_attempts, 0);
            assert_eq!(r.traffic.bits(TrafficClass::PrefetchData), 0);
            assert_eq!(r.traffic.bits(TrafficClass::PrefetchRouting), 0);
        }
    }

    #[test]
    fn continustreaming_prefetches_something() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 6)).run();
        let attempts: u32 = report.rounds.iter().map(|r| r.prefetch_attempts).sum();
        assert!(attempts > 0, "some pre-fetch should trigger in 12 rounds");
    }

    /// Step 7 (Algorithm 2) runs exactly under the schedulers that
    /// pre-fetch: their runs record attempts and DHT routing bits, the
    /// gossip baselines' record none.
    #[test]
    fn prefetch_runs_iff_the_scheduler_prefetches() {
        for scheduler in [
            SchedulerKind::ContinuStreaming,
            SchedulerKind::CoolStreaming,
            SchedulerKind::Random,
            SchedulerKind::GreedyWithPolicy(PriorityPolicy::UrgencyOnly),
        ] {
            let report = SystemSim::new(tiny(scheduler, 6)).run();
            let attempts: u32 = report.rounds.iter().map(|r| r.prefetch_attempts).sum();
            let routing: u64 = report
                .rounds
                .iter()
                .map(|r| r.traffic.bits(TrafficClass::PrefetchRouting))
                .sum();
            let data: u64 = report
                .rounds
                .iter()
                .map(|r| r.traffic.bits(TrafficClass::PrefetchData))
                .sum();
            if scheduler.prefetches() {
                assert!(attempts > 0 && routing > 0, "{scheduler:?}");
            } else {
                assert_eq!((attempts, routing, data), (0, 0, 0), "{scheduler:?}");
            }
        }
    }

    #[test]
    fn control_overhead_is_small_and_present() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 7)).run();
        let oh = report.summary.control_overhead;
        assert!(oh > 0.0, "buffer maps are exchanged");
        assert!(oh < 0.1, "control overhead {oh} should be small");
    }

    #[test]
    fn dynamic_churn_changes_membership() {
        let cfg = tiny(SchedulerKind::ContinuStreaming, 8).with_dynamic_churn();
        let report = SystemSim::new(cfg).run();
        let joins: usize = report.rounds.iter().map(|r| r.joins).sum();
        let leaves: usize = report.rounds.iter().map(|r| r.leaves).sum();
        assert!(joins > 0, "some joins over 12 rounds of 5% churn");
        assert!(leaves > 0, "some leaves over 12 rounds of 5% churn");
    }

    /// The joiner knobs are bare integers: at their extremes the round
    /// arithmetic they feed (`spawn_round + grace` in the scheduler,
    /// `anchor + seed` in joiner seeding) must saturate, not overflow —
    /// that was a debug-build panic and, in release, a wrapped grace
    /// window that disagreed with `AdaptivePolicy::in_join_grace`.
    #[test]
    fn maximal_joiner_knobs_do_not_overflow_the_round() {
        let cfg = SystemConfig {
            policy: PolicyKind::Adaptive(crate::policy::AdaptivePolicy {
                join_grace_rounds: u32::MAX,
                join_seed: usize::MAX,
                ..Default::default()
            }),
            ..tiny(SchedulerKind::ContinuStreaming, 8).with_dynamic_churn()
        };
        let report = SystemSim::new(cfg).run();
        assert_eq!(report.rounds.len(), 18);
        let joins: usize = report.rounds.iter().map(|r| r.joins).sum();
        assert!(joins > 0, "both sums are only reached by a mid-run joiner");
    }

    /// A join that finds every id of the space taken is turned away —
    /// `Rejected` for a scripted join, `false` for a churn join — before
    /// any RNG draw, like an RP outage; it is not a panic out of
    /// `RpServer::assign_id`.
    #[test]
    fn a_full_id_space_rejects_joins_without_drawing() {
        let cfg = SystemConfig {
            nodes: 6,
            neighbors: 3,
            id_space_slack: 1,
            ..tiny(SchedulerKind::ContinuStreaming, 15)
        };
        let join = SystemEvent::Join {
            ping_ms: None,
            bandwidth: None,
        };
        // Six ids in a space of eight: two joins fit, the rest do not.
        let fill = |sim: &mut SystemSim| {
            for _ in 0..2 {
                assert!(matches!(sim.apply_event(join), EventOutcome::Joined(_)));
            }
            assert_eq!(sim.alive() as u64, sim.space.size());
        };
        let mut sim = SystemSim::new(cfg.clone());
        let mut quiet = SystemSim::new(cfg);
        fill(&mut sim);
        fill(&mut quiet);
        for _ in 0..3 {
            assert_eq!(sim.apply_event(join), EventOutcome::Rejected);
            assert!(!sim.join_one(0));
        }
        assert_eq!(sim.alive() as u64, sim.space.size());
        // The rejections drew nothing: once an id is free again, both
        // simulators admit the same joiner, and step alike.
        let victim = *sim.order_ids.iter().find(|&&id| id != sim.source).unwrap();
        for s in [&mut sim, &mut quiet] {
            let leave = SystemEvent::Leave {
                id: victim,
                graceful: false,
            };
            assert_eq!(s.apply_event(leave), EventOutcome::Applied);
        }
        assert_eq!(sim.apply_event(join), quiet.apply_event(join));
        assert!(sim.step() && quiet.step());
        assert_eq!(sim.records(), quiet.records());
        assert_eq!(sim.debug_states(), quiet.debug_states());
    }

    #[test]
    fn alive_count_tracks_churn() {
        let cfg = SystemConfig {
            nodes: 60,
            rounds: 10,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.2,
                join_fraction: 0.0,
                graceful_fraction: 0.5,
            },
            ..tiny(SchedulerKind::ContinuStreaming, 9)
        };
        let report = SystemSim::new(cfg).run();
        let first = report.rounds.first().unwrap().alive;
        let last = report.rounds.last().unwrap().alive;
        assert!(last < first, "pure leaving must shrink the overlay");
    }

    #[test]
    fn source_always_survives() {
        let cfg = SystemConfig {
            nodes: 30,
            rounds: 15,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.3,
                join_fraction: 0.0,
                graceful_fraction: 0.0,
            },
            ..tiny(SchedulerKind::ContinuStreaming, 10)
        };
        let sim = SystemSim::new(cfg);
        let source = sim.source;
        let report = sim.run();
        // The run completes every round — the source kept emitting.
        assert_eq!(report.rounds.len(), 15);
        let _ = source;
    }

    #[test]
    fn greedy_policy_variants_run() {
        for policy in [
            PriorityPolicy::UrgencyOnly,
            PriorityPolicy::RarityOnly,
            PriorityPolicy::RarestFirst,
        ] {
            let cfg = tiny(SchedulerKind::GreedyWithPolicy(policy), 11);
            let report = SystemSim::new(cfg).run();
            assert_eq!(report.rounds.len(), 18);
        }
    }

    #[test]
    fn random_scheduler_runs_and_underperforms_eventually() {
        let rand_report = SystemSim::new(tiny(SchedulerKind::Random, 12)).run();
        let cont_report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 12)).run();
        assert!(
            cont_report.summary.stable_continuity >= rand_report.summary.stable_continuity,
            "ContinuStreaming ({}) should not lose to random ({})",
            cont_report.summary.stable_continuity,
            rand_report.summary.stable_continuity
        );
    }

    #[test]
    fn arena_reuses_slots_without_aliasing() {
        // Drive heavy churn and verify the slot-reuse invariants the hot
        // path relies on: ids resolve to nodes carrying that id, and the
        // arena's id table, its occupied slots, the round order and the
        // DHT ring all describe the same membership.
        let cfg = SystemConfig {
            nodes: 50,
            rounds: 25,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.15,
                join_fraction: 0.15,
                graceful_fraction: 0.5,
            },
            ..tiny(SchedulerKind::ContinuStreaming, 14)
        };
        let mut sim = SystemSim::new(cfg);
        for round in 0..25 {
            assert!(sim.step());
            let occupied: usize = sim.nodes.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(occupied, sim.nodes.by_id.len(), "round {round}");
            assert_eq!(occupied + sim.nodes.free.len(), sim.nodes.slot_count());
            for &f in &sim.nodes.free {
                assert!(
                    sim.nodes.slots[f as usize].is_none(),
                    "free slot {f} occupied"
                );
            }
            for (id, idx) in sim.nodes.iter_pairs() {
                let node = sim.nodes.get(idx).expect("mapped slot occupied");
                assert_eq!(node.id, id, "round {round}: slot/id mismatch");
                assert_eq!(sim.nodes.lookup(id), Some(idx));
                assert_eq!(sim.nodes.ping_of(id), sim.nodes.ping_at(idx));
            }
            // The table enumerates in ascending id order: the round order
            // is that enumeration, and (no crashes here) so is the ring.
            assert!(sim.order_ids.windows(2).all(|w| w[0] < w[1]));
            assert!(sim.nodes.iter_pairs().eq(sim
                .order_ids
                .iter()
                .copied()
                .zip(sim.order_idx.iter().copied())));
            assert!(
                sim.dht.ids().eq(sim.order_ids.iter().copied()),
                "round {round}"
            );
            sim.dht.check_invariants().unwrap();
            assert!(sim.nodes.lookup(sim.source).is_some(), "source immortal");
        }
    }

    #[test]
    fn ring_spread_picks_the_first_alive_id_clockwise() {
        let sim = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 5));
        let space = sim.dht.space().size();
        let alive: Vec<DhtId> = sim.nodes.iter_pairs().map(|(id, _)| id).collect();
        let mut wrapped = 0;
        for key in 0..2000u64 {
            for i in 0..3u64 {
                let pos = cs_sim::splitmix64(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i) % space;
                // Linear scan: the first alive id at or after `pos`, else
                // the lowest id (the ring wraps past its top).
                let expected = alive.iter().copied().find(|&id| id >= pos);
                wrapped += usize::from(expected.is_none());
                let picked = sim.order_ids[sim.ring_spread(key, i)];
                assert_eq!(picked, expected.unwrap_or(alive[0]), "key {key}, copy {i}");
            }
        }
        assert!(wrapped > 0, "no position fell past the highest id");
    }

    #[test]
    fn obs_window_starts_at_the_stable_tail() {
        let mut sim = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, 3));
        for n in 0..=300u32 {
            sim.obs = None;
            sim.config.rounds = n;
            sim.enable_obs(ObsConfig::default());
            let start = sim.obs().unwrap().partial_dist().window_start_round;
            assert_eq!(start as usize, stable_tail_start(n as usize), "n = {n}");
        }
    }
}

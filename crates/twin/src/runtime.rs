//! The twin runtime: a transport-backed buffer-map exchange.
//!
//! Each round, every node announces its buffer map to itself
//! (loopback) and to every connected neighbour over the
//! [`Transport`]; the exchange drains the
//! transport up to the round's deadline, assembles each node's
//! delivered view, and returns the views to the simulator core —
//! which makes every protocol decision (scheduling, pre-fetch,
//! rescue, failover) exactly as it would have standalone. The sim
//! core stays the single source of protocol truth; the twin only
//! changes *how state moves between nodes*. Everything around the
//! exchange — events, telemetry, the outcome — is `cs_scenario`'s
//! driver, unchanged.
//!
//! Because a node's canonical round view is its own loopback delivery
//! and the transport delivers in a unique total order, a faithful
//! transport reproduces the simulator's decision log byte for byte —
//! the equivalence `tests/twin_equivalence.rs` locks down. An
//! *unfaithful* transport (loss, late delivery, corruption) surfaces
//! as divergence counters here and as decision-log drift there.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cs_core::{SystemSim, TwinAnnounce, TwinViews};
use cs_dht::DhtId;
use cs_net::LinkCatalog;
use cs_obs::ObsConfig;
use cs_scenario::{drive, ScenarioOutcome, ScenarioSpec};
use cs_sim::{fan_out, SimDuration, SimTime};

use crate::clock::VirtualClock;
use crate::transport::{InProcTransport, MsgBody, Transport, TransportStats, WireMsg};

/// How the twin runs a scenario.
#[derive(Debug, Clone, Copy)]
pub struct TwinConfig {
    /// Executor workers for the per-node inbox fold (0 means 1).
    /// Results are bit-identical at any value (pinned in the
    /// determinism suite).
    pub workers: usize,
    /// Per-link wire characteristics. The equivalence profile is
    /// [`LinkCatalog::uniform`] with any latency below the round
    /// period and no loss/delay: every announcement then lands inside
    /// its round and decisions match the simulator exactly.
    pub links: LinkCatalog,
}

impl Default for TwinConfig {
    fn default() -> Self {
        TwinConfig {
            workers: 1,
            links: LinkCatalog::uniform(SimDuration::from_millis(50)),
        }
    }
}

/// Cumulative per-node transport accounting, keyed by node id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwinNodeStats {
    /// Node id.
    pub id: DhtId,
    /// Announcements this node handed to the transport (loopback +
    /// one per neighbour, each round it was alive).
    pub sent: u64,
    /// Envelopes delivered to this node inside their round.
    pub received: u64,
    /// Envelopes for this node that missed their round deadline.
    pub late: u64,
    /// Received copies whose content differed from the sender's
    /// canonical announcement (a faithful transport keeps this 0).
    pub divergences: u64,
}

/// Per-round snapshot handed to the observed runner's callback.
#[derive(Debug, Clone)]
pub struct TwinRoundStats {
    /// The round just finished.
    pub round: u32,
    /// Transport counters so far (cumulative).
    pub transport: TransportStats,
    /// Late envelopes so far (cumulative).
    pub late: u64,
    /// Content divergences so far (cumulative).
    pub divergences: u64,
    /// Per-node cumulative rows, ascending by id.
    pub nodes: Vec<TwinNodeStats>,
}

/// Everything a twin run produces: the standard scenario outcome
/// (byte-comparable against `cs_scenario::run_scenario`'s) plus the
/// wire-level accounting the simulator has no concept of.
#[derive(Debug)]
pub struct TwinOutcome {
    /// Report, telemetry, metrics log, fault trace and obs report —
    /// assembled exactly like `cs_scenario`'s, so equality against a
    /// sim run is meaningful field by field.
    pub outcome: ScenarioOutcome,
    /// Final transport counters.
    pub transport: TransportStats,
    /// Envelopes that missed their round's delivery deadline.
    pub late: u64,
    /// Envelopes addressed to nodes no longer alive on delivery.
    pub stale_dropped: u64,
    /// Received copies that differed from the sender's canonical
    /// announcement. Non-zero means the transport was unfaithful.
    pub divergences: u64,
    /// Per-node cumulative accounting, ascending by id (includes
    /// departed nodes).
    pub node_stats: Vec<TwinNodeStats>,
}

/// One alive node's side of the round's exchange: what it announced and
/// to how many recipients (loopback included).
struct Announcer {
    id: DhtId,
    slot: u32,
    announce: Arc<TwinAnnounce>,
    sent: u64,
}

struct FoldOut {
    canonical: Option<Arc<TwinAnnounce>>,
    received: u64,
    divergences: u64,
}

/// The transport-backed buffer-map exchange — everything the twin adds
/// to a simulator round. [`Self::run`] is the exchange
/// `SystemSim::step_with` calls: announce, deliver up to the round's
/// deadline, fold each node's inbox into its view.
struct TwinExchange<T> {
    transport: T,
    clock: VirtualClock,
    workers: usize,
    late: u64,
    stale_dropped: u64,
    divergences: u64,
    /// `BTreeMap`: the rows come out ascending by id without a sort.
    totals: BTreeMap<DhtId, TwinNodeStats>,
}

impl<T: Transport> TwinExchange<T> {
    fn run(&mut self, sim: &SystemSim, round: u32, round_end: SimTime) -> TwinViews {
        // 1. Every alive node announces its buffer map to itself
        // (loopback) and to every connected neighbour. Serial, in the
        // simulator's ascending-id order: the transport's RNG stream
        // position is part of the wire contract, so send order must not
        // depend on worker scheduling.
        let now = self.clock.now();
        let mut nodes: Vec<Announcer> = Vec::new();
        sim.twin_announcements(|id, slot, announce, recipients| {
            let announce = Arc::new(announce);
            for &dst in std::iter::once(&id).chain(recipients) {
                self.transport.send(
                    now,
                    WireMsg {
                        src: id,
                        dst,
                        round,
                        body: MsgBody::Announce(Arc::clone(&announce)),
                    },
                );
            }
            nodes.push(Announcer {
                id,
                slot,
                announce,
                sent: 1 + recipients.len() as u64,
            });
        });
        let index_of: HashMap<DhtId, usize> =
            nodes.iter().enumerate().map(|(k, n)| (n.id, k)).collect();

        // 2. Drain deliveries due by the round deadline, in the
        // transport's total (due, round, src, seq) order, advancing
        // the virtual clock to each delivery instant.
        let mut inboxes: Vec<Vec<(DhtId, Arc<TwinAnnounce>)>> = Vec::new();
        inboxes.resize_with(nodes.len(), Vec::new);
        let mut late_by_node: Vec<u64> = vec![0; nodes.len()];
        while let Some(env) = self.transport.poll(round_end) {
            self.clock.advance_to(env.due);
            let MsgBody::Announce(a) = env.msg.body;
            if env.round != round {
                // Leftover from an earlier round: its decisions were
                // already made without it.
                self.late += 1;
                if let Some(&k) = index_of.get(&env.msg.dst) {
                    late_by_node[k] += 1;
                }
                continue;
            }
            match index_of.get(&env.msg.dst) {
                Some(&k) => inboxes[k].push((env.msg.src, a)),
                None => self.stale_dropped += 1,
            }
        }
        // The round barrier: the protocol's synchronous clock edge.
        self.clock.advance_to(round_end);

        // 3. Each node folds its inbox: the loopback copy becomes its
        // canonical view; every neighbour copy is verified
        // content-equal against what the sender actually emitted.
        // Data-parallel; order restored by the executor's merge.
        let folds: Vec<FoldOut> = fan_out(self.workers, &nodes, |k, n| {
            let mut canonical: Option<Arc<TwinAnnounce>> = None;
            let mut div = 0u64;
            for (src, a) in &inboxes[k] {
                if *src == n.id {
                    canonical = Some(Arc::clone(a));
                } else {
                    match index_of.get(src) {
                        Some(&sk) => {
                            if **a != *nodes[sk].announce {
                                div += 1;
                            }
                        }
                        // A sender id we never emitted for: forged.
                        None => div += 1,
                    }
                }
            }
            // The canonical copy itself must match what was emitted —
            // a transport that corrupts loopback corrupts decisions.
            if let Some(c) = &canonical {
                if **c != *n.announce {
                    div += 1;
                }
            }
            FoldOut {
                canonical,
                received: inboxes[k].len() as u64,
                divergences: div,
            }
        });

        // 4. Merge (already in node order): the views the simulator
        // core decides the round over, and the accounting.
        let mut views = TwinViews::default();
        for (k, (n, f)) in nodes.iter().zip(folds).enumerate() {
            if let Some(c) = f.canonical {
                views.install(n.slot, c);
            }
            self.divergences += f.divergences;
            let t = self.totals.entry(n.id).or_default();
            t.id = n.id;
            t.sent += n.sent;
            t.received += f.received;
            t.late += late_by_node[k];
            t.divergences += f.divergences;
        }
        views
    }
}

/// Run `spec` through the twin. Deterministic in `(spec, cfg.links)`:
/// two calls produce byte-identical outcomes at any worker count.
pub fn run_twin(spec: &ScenarioSpec, cfg: &TwinConfig) -> TwinOutcome {
    drive_twin(spec, cfg, None, |_, _| {})
}

/// [`run_twin`] with the observability layer armed and a per-round
/// callback (the monitor publish hook; it sees the simulator
/// read-only plus the twin's wire accounting).
pub fn run_twin_observed(
    spec: &ScenarioSpec,
    cfg: &TwinConfig,
    obs_cfg: ObsConfig,
    on_round: impl FnMut(&SystemSim, &TwinRoundStats),
) -> TwinOutcome {
    drive_twin(spec, cfg, Some(obs_cfg), on_round)
}

fn drive_twin(
    spec: &ScenarioSpec,
    cfg: &TwinConfig,
    obs_cfg: Option<ObsConfig>,
    mut on_round: impl FnMut(&SystemSim, &TwinRoundStats),
) -> TwinOutcome {
    let transport = InProcTransport::new(cfg.links, spec.config.seed);
    drive_twin_over(spec, cfg, transport, obs_cfg, &mut on_round)
}

/// The generic driver: `cs_scenario`'s, stepping each round through a
/// [`Transport`]-backed exchange — any implementation. Public so the
/// equivalence harness can run a deliberately unfaithful transport and
/// prove the harness is not vacuous. Every field of the outcome is
/// byte-comparable against a sim run's; `on_round` fires only when
/// `obs_cfg` arms the run.
pub fn drive_twin_over<T: Transport>(
    spec: &ScenarioSpec,
    cfg: &TwinConfig,
    transport: T,
    obs_cfg: Option<ObsConfig>,
    on_round: &mut dyn FnMut(&SystemSim, &TwinRoundStats),
) -> TwinOutcome {
    let observed = obs_cfg.is_some();
    let mut exchange = TwinExchange {
        transport,
        clock: VirtualClock::new(),
        workers: cfg.workers.max(1),
        late: 0,
        stale_dropped: 0,
        divergences: 0,
        totals: BTreeMap::new(),
    };
    let outcome = drive(spec, obs_cfg, |sim| {
        let stepped = sim.step_with(|sim, round, round_end| exchange.run(sim, round, round_end));
        if stepped && observed {
            let stats = TwinRoundStats {
                round: sim.rounds_run() - 1,
                transport: exchange.transport.stats(),
                late: exchange.late,
                divergences: exchange.divergences,
                nodes: exchange.totals.values().copied().collect(),
            };
            on_round(sim, &stats);
        }
        stepped
    });
    TwinOutcome {
        outcome,
        transport: exchange.transport.stats(),
        late: exchange.late,
        stale_dropped: exchange.stale_dropped,
        divergences: exchange.divergences,
        node_stats: exchange.totals.into_values().collect(),
    }
}

//! The round-lockstep twin runtime.
//!
//! Each round, every node is a task: it announces its buffer map to
//! itself (loopback) and to every connected neighbour over the
//! [`Transport`](crate::transport::Transport); the runtime drains the
//! transport up to the round's deadline, assembles each node's
//! delivered view, and hands the views back to the simulator core —
//! which makes every protocol decision (scheduling, pre-fetch,
//! rescue, failover) exactly as it would have standalone. The sim
//! core stays the single source of protocol truth; the twin only
//! changes *how state moves between nodes*.
//!
//! Because a node's canonical round view is its own loopback delivery
//! and the transport delivers in a unique total order, a faithful
//! transport reproduces the simulator's decision log byte for byte —
//! the equivalence `tests/twin_equivalence.rs` locks down. An
//! *unfaithful* transport (loss, late delivery, corruption) surfaces
//! as divergence counters here and as decision-log drift there.

use std::collections::HashMap;
use std::sync::Arc;

use cs_core::{SegmentId, SystemSim, TwinAnnounce, TwinViews};
use cs_dht::DhtId;
use cs_net::LinkCatalog;
use cs_obs::ObsConfig;
use cs_scenario::{MetricsLog, ScenarioEngine, ScenarioOutcome, ScenarioSpec};
use cs_sim::{fan_out, SimDuration};

use crate::clock::VirtualClock;
use crate::transport::{InProcTransport, MsgBody, Transport, TransportStats, WireMsg};

/// How the twin runs a scenario.
#[derive(Debug, Clone, Copy)]
pub struct TwinConfig {
    /// Executor workers for the per-node fan-out phases. Results are
    /// bit-identical at any value ≥ 1 (pinned in the determinism
    /// suite).
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

/// One node's owned wire state for the round, copied out of the
/// simulator so the emit fan-out borrows no simulator internals.
struct NodeWire {
    id: DhtId,
    slot: u32,
    birth: u64,
    epoch: u64,
    head: SegmentId,
    capacity: u64,
    words: Vec<u64>,
    is_empty: bool,
    neighbors: Vec<DhtId>,
}

struct FoldOut {
    slot: u32,
    canonical: Option<Arc<TwinAnnounce>>,
    received: u64,
    divergences: u64,
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

/// The generic driver: any [`Transport`] implementation. Public so
/// the equivalence harness can run a deliberately unfaithful
/// transport and prove the harness is not vacuous.
pub fn drive_twin_over<T: Transport>(
    spec: &ScenarioSpec,
    cfg: &TwinConfig,
    mut transport: T,
    obs_cfg: Option<ObsConfig>,
    on_round: &mut dyn FnMut(&SystemSim, &TwinRoundStats),
) -> TwinOutcome {
    let mut sim = SystemSim::new(spec.config.clone());
    sim.enable_telemetry();
    let observed = obs_cfg.is_some();
    if let Some(c) = obs_cfg {
        sim.enable_obs(c);
    }
    let mut engine = ScenarioEngine::new(spec.clone());
    let workers = cfg.workers.max(1);
    let mut clock = VirtualClock::new();
    let mut views = TwinViews::default();
    let mut late = 0u64;
    let mut stale_dropped = 0u64;
    let mut divergences = 0u64;
    // BTreeMap: `node_stats` comes out ascending by id without a sort.
    let mut totals: std::collections::BTreeMap<DhtId, TwinNodeStats> =
        std::collections::BTreeMap::new();

    // Same loop contract as `cs_scenario`'s driver: scenario events
    // land before the round they target, and the engine's stats feed
    // the metrics log. The only difference is *how the round runs*.
    while sim.rounds_run() < spec.config.rounds {
        engine.drive_round(&mut sim);
        let Some(pending) = sim.twin_begin_round() else {
            break;
        };
        let round = pending.round();
        let round_end = pending.round_end();

        // 1. Read every alive node's wire state (serial; the only
        // phase that borrows the simulator).
        let mut nodes: Vec<NodeWire> = Vec::new();
        sim.twin_wire_states(&mut |w| {
            nodes.push(NodeWire {
                id: w.id,
                slot: w.slot,
                birth: w.birth,
                epoch: w.epoch,
                head: w.head,
                capacity: w.capacity,
                words: w.words.to_vec(),
                is_empty: w.is_empty,
                neighbors: w.neighbors.to_vec(),
            });
        });
        let index_of: HashMap<DhtId, usize> =
            nodes.iter().enumerate().map(|(k, n)| (n.id, k)).collect();

        // 2. Each node task builds its announcement and addresses it
        // to itself (loopback) and every connected neighbour.
        // Data-parallel; order restored by the executor's merge.
        let emitted: Vec<(Arc<TwinAnnounce>, Vec<WireMsg>)> = fan_out(workers, &nodes, |_, n| {
            let a = Arc::new(TwinAnnounce {
                birth: n.birth,
                epoch: n.epoch,
                head: n.head,
                capacity: n.capacity,
                words: n.words.clone(),
                is_empty: n.is_empty,
            });
            let mut out = Vec::with_capacity(1 + n.neighbors.len());
            out.push(WireMsg {
                src: n.id,
                dst: n.id,
                round,
                body: MsgBody::Announce(Arc::clone(&a)),
            });
            for &nb in &n.neighbors {
                out.push(WireMsg {
                    src: n.id,
                    dst: nb,
                    round,
                    body: MsgBody::Announce(Arc::clone(&a)),
                });
            }
            (a, out)
        });

        // 3. Hand everything to the transport serially in merged
        // (ascending-id) order — the transport's RNG stream position
        // is part of the wire contract, so send order must not depend
        // on worker scheduling.
        let now = clock.now();
        for (_, out) in &emitted {
            for m in out {
                transport.send(now, m.clone());
            }
        }

        // 4. Drain deliveries due by the round deadline, in the
        // transport's total (due, round, src, seq) order, advancing
        // the virtual clock to each delivery instant.
        let mut inboxes: Vec<Vec<(DhtId, Arc<TwinAnnounce>)>> = Vec::new();
        inboxes.resize_with(nodes.len(), Vec::new);
        let mut late_by_node: Vec<u64> = vec![0; nodes.len()];
        while let Some(env) = transport.poll(round_end) {
            clock.advance_to(env.due);
            let MsgBody::Announce(a) = env.msg.body;
            if env.round != round {
                // Leftover from an earlier round: its decisions were
                // already made without it.
                late += 1;
                if let Some(&k) = index_of.get(&env.msg.dst) {
                    late_by_node[k] += 1;
                }
                continue;
            }
            match index_of.get(&env.msg.dst) {
                Some(&k) => inboxes[k].push((env.msg.src, a)),
                None => stale_dropped += 1,
            }
        }
        // The round barrier: the protocol's synchronous clock edge.
        clock.advance_to(round_end);

        // 5. Each node folds its inbox: the loopback copy becomes its
        // canonical view; every neighbour copy is verified
        // content-equal against what the sender actually emitted.
        let folds: Vec<FoldOut> = fan_out(workers, &nodes, |k, n| {
            let mut canonical: Option<Arc<TwinAnnounce>> = None;
            let mut received = 0u64;
            let mut div = 0u64;
            for (src, a) in &inboxes[k] {
                received += 1;
                if *src == n.id {
                    canonical = Some(Arc::clone(a));
                } else {
                    match index_of.get(src) {
                        Some(&sk) => {
                            if **a != *emitted[sk].0 {
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
                if **c != *emitted[k].0 {
                    div += 1;
                }
            }
            FoldOut {
                slot: n.slot,
                canonical,
                received,
                divergences: div,
            }
        });

        // 6. Merge (already in node order), install views, account.
        views.clear();
        for (k, f) in folds.iter().enumerate() {
            if let Some(c) = &f.canonical {
                views.install(f.slot, Arc::clone(c));
            }
            divergences += f.divergences;
            let t = totals.entry(nodes[k].id).or_default();
            t.id = nodes[k].id;
            t.sent += emitted[k].1.len() as u64;
            t.received += f.received;
            t.late += late_by_node[k];
            t.divergences += f.divergences;
        }

        // 7. The simulator core decides the round over the delivered
        // views.
        sim.twin_finish_round(pending, &views);

        if observed {
            let stats = TwinRoundStats {
                round,
                transport: transport.stats(),
                late,
                divergences,
                nodes: totals.values().copied().collect(),
            };
            on_round(&sim, &stats);
        }
    }

    // Epilogue identical to `cs_scenario`'s driver, so every field of
    // the outcome is byte-comparable against a sim run.
    let telemetry = sim.take_telemetry().unwrap_or_default();
    let fault_trace = sim.fault_trace().clone();
    let obs = observed.then(|| sim.take_obs_report()).flatten();
    let report = sim.finish();
    let log = MetricsLog::new(spec, &report, &telemetry, engine.stats());
    TwinOutcome {
        outcome: ScenarioOutcome {
            report,
            telemetry,
            log,
            fault_trace,
            obs,
        },
        transport: transport.stats(),
        late,
        stale_dropped,
        divergences,
        node_stats: totals.into_values().collect(),
    }
}

//! The twin runtime: a transport-backed buffer-map exchange.
//!
//! Each round, every node announces its buffer map to itself
//! (loopback) and to every connected neighbour over the
//! [`Transport`]; the exchange drains the transport up to the round's
//! deadline in one serial pass, installing each loopback envelope as
//! its node's view in the round's [`MapStore`] as it arrives; the
//! simulator core then makes every protocol decision (scheduling,
//! pre-fetch, rescue, failover) exactly as it would have standalone.
//! The sim core stays the single source of protocol truth; the twin only
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

use std::sync::Arc;

use cs_core::{MapStore, SystemSim, TwinAnnounce};
use cs_dht::DhtId;
use cs_net::LinkCatalog;
use cs_obs::{ObsConfig, TwinNodeRow};
use cs_scenario::{drive, ScenarioOutcome, ScenarioSpec};
use cs_sim::{SimDuration, SimTime};

use crate::transport::{InProcTransport, MsgBody, Transport, TransportStats, WireMsg};

/// How the twin runs a scenario.
#[derive(Debug, Clone, Copy)]
pub struct TwinConfig {
    /// Read by nothing: the exchange is one serial pass. The field stays
    /// because the frozen benchmark builds this struct field by field
    /// (`TwinConfig { workers: 1, links }`); it goes with the next
    /// `[benchmark]` PR.
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
    pub nodes: Vec<TwinNodeRow>,
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
    pub node_stats: Vec<TwinNodeRow>,
}

/// One alive node's side of the round's exchange: what it announced and
/// where its cumulative row is.
struct Announcer {
    id: DhtId,
    slot: u32,
    announce: Arc<TwinAnnounce>,
    /// Index into [`TwinExchange::rows`], fixed for the round.
    row: usize,
}

/// The announcer with `id` this round, if it announced.
fn announcer(announcers: &[Announcer], id: DhtId) -> Option<&Announcer> {
    let k = announcers.binary_search_by_key(&id, |a| a.id).ok()?;
    Some(&announcers[k])
}

/// The transport-backed buffer-map exchange — everything the twin adds
/// to a simulator round. [`Self::run`] is the exchange
/// `SystemSim::step_with` calls: announce, then deliver up to the
/// round's deadline, folding each envelope into `maps` as it arrives.
struct TwinExchange<T> {
    transport: T,
    /// Virtual time: the last delivery instant or round barrier. It only
    /// moves inside [`Self::run`], never with the wall clock, so runs are
    /// bit-identical whatever the host load.
    now: SimTime,
    late: u64,
    stale_dropped: u64,
    divergences: u64,
    /// Cumulative per-node rows, ascending by id.
    rows: Vec<TwinNodeRow>,
    /// This round's announcers, ascending by id; empty between rounds.
    announcers: Vec<Announcer>,
}

impl<T: Transport> TwinExchange<T> {
    fn run(&mut self, sim: &SystemSim, round: u32, round_end: SimTime, maps: &mut MapStore) {
        // 1. Every alive node announces its buffer map to itself
        // (loopback) and to every connected neighbour, in the
        // simulator's ascending-id order: the transport's RNG stream
        // position is part of the wire contract.
        sim.twin_announcements(|id, slot, announce, recipients| {
            debug_assert!(
                self.announcers.last().is_none_or(|a| a.id < id),
                "announcers come in ascending-id order"
            );
            let announce = Arc::new(announce);
            for &dst in std::iter::once(&id).chain(recipients) {
                self.transport.send(
                    self.now,
                    WireMsg {
                        src: id,
                        dst,
                        round,
                        body: MsgBody::Announce(Arc::clone(&announce)),
                    },
                );
            }
            // Ascending ids make every row index of an earlier
            // announcer stable under this insert.
            let rows = &mut self.rows;
            let row = rows
                .binary_search_by_key(&id, |r| r.node)
                .unwrap_or_else(|k| {
                    rows.insert(
                        k,
                        TwinNodeRow {
                            node: id,
                            ..TwinNodeRow::default()
                        },
                    );
                    k
                });
            rows[row].sent += 1 + recipients.len() as u64;
            self.announcers.push(Announcer {
                id,
                slot,
                announce,
                row,
            });
        });

        // 2. Drain deliveries due by the round deadline, in the
        // transport's total (due, round, src, seq) order, folding each
        // as it is polled: the loopback copy is installed as its node's
        // view, and every copy is checked content-equal against what its
        // sender emitted.
        while let Some(env) = self.transport.poll(round_end) {
            assert!(
                env.due >= self.now,
                "virtual clock regression: {} < {}",
                env.due,
                self.now
            );
            self.now = env.due;
            let MsgBody::Announce(a) = env.msg.body;
            let dst = announcer(&self.announcers, env.msg.dst);
            if env.round != round {
                // Leftover from an earlier round: its decisions were
                // already made without it.
                self.late += 1;
                if let Some(d) = dst {
                    self.rows[d.row].late += 1;
                }
                continue;
            }
            let Some(d) = dst else {
                self.stale_dropped += 1;
                continue;
            };
            let row = &mut self.rows[d.row];
            row.received += 1;
            // A sender that announced nothing this round is forged; a
            // corrupted loopback copy corrupts decisions.
            let diverged =
                announcer(&self.announcers, env.msg.src).is_none_or(|s| *a != *s.announce);
            if diverged {
                row.divergences += 1;
                self.divergences += 1;
            }
            if env.msg.src == d.id {
                maps.install(d.slot, a.with_words(a.words.as_slice()));
            }
        }
        // The round barrier: the protocol's synchronous clock edge. The
        // announcements go with the round; the installed views are what
        // the simulator still reads.
        self.now = round_end;
        self.announcers.clear();
    }
}

/// Run `spec` through the twin. Deterministic in `(spec, cfg.links)`:
/// two calls produce byte-identical outcomes.
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
/// `obs_cfg` arms the run. The transport already carries the link
/// profile, so `_cfg` is read by nothing (like [`TwinConfig::workers`],
/// it stays for the frozen benchmark's call).
pub fn drive_twin_over<T: Transport>(
    spec: &ScenarioSpec,
    _cfg: &TwinConfig,
    transport: T,
    obs_cfg: Option<ObsConfig>,
    on_round: &mut dyn FnMut(&SystemSim, &TwinRoundStats),
) -> TwinOutcome {
    let observed = obs_cfg.is_some();
    let mut exchange = TwinExchange {
        transport,
        now: SimTime::ZERO,
        late: 0,
        stale_dropped: 0,
        divergences: 0,
        rows: Vec::new(),
        announcers: Vec::new(),
    };
    let outcome = drive(spec, obs_cfg, |sim| {
        let stepped =
            sim.step_with(|sim, round, round_end, maps| exchange.run(sim, round, round_end, maps));
        if stepped && observed {
            let stats = TwinRoundStats {
                round: sim.rounds_run() - 1,
                transport: exchange.transport.stats(),
                late: exchange.late,
                divergences: exchange.divergences,
                nodes: exchange.rows.clone(),
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
        node_stats: exchange.rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Envelope;
    use cs_core::SystemConfig;

    /// Hands each round's deliveries back latest first.
    struct Reversing {
        inner: InProcTransport,
        held: Vec<Envelope>,
    }

    impl Transport for Reversing {
        fn send(&mut self, now: SimTime, msg: WireMsg) {
            self.inner.send(now, msg);
        }

        fn next_due(&self) -> Option<SimTime> {
            self.inner.next_due()
        }

        fn poll(&mut self, deadline: SimTime) -> Option<Envelope> {
            if self.held.is_empty() {
                while let Some(env) = self.inner.poll(deadline) {
                    self.held.push(env);
                }
            }
            self.held.pop()
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    #[test]
    #[should_panic(expected = "virtual clock regression")]
    fn a_delivery_due_before_the_previous_one_panics() {
        let spec = ScenarioSpec::null(
            "twin-reversed",
            SystemConfig {
                nodes: 20,
                rounds: 2,
                startup_segments: 20,
                ..SystemConfig::default()
            },
        );
        let cfg = TwinConfig::default();
        let transport = Reversing {
            inner: InProcTransport::new(cfg.links, spec.config.seed),
            held: Vec::new(),
        };
        drive_twin_over(&spec, &cfg, transport, None, &mut |_, _| {});
    }
}

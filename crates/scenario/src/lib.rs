//! # cs-scenario — deterministic workloads for the ContinuStreaming simulator
//!
//! The paper's headline results (fig 7/8: high continuity up to 8,000
//! nodes) were measured in one hard-coded environment — static
//! membership, uniform nodes, one churn knob. This crate is the layer
//! that opens every *other* environment without touching simulator
//! internals:
//!
//! * **[`ScenarioSpec`]** — a declarative, deterministic timeline of
//!   workload: phased churn models (Poisson arrivals; exponential,
//!   Weibull or log-normal session lengths), flash-crowd bursts,
//!   correlated mass departures, VCR behaviour (seek, pause, resume),
//!   and heterogeneous node classes (capacity tiers, latency classes).
//!   Specs are plain values, buildable in code or parsed from the small
//!   text format ([`parse_scenario`]), and *fingerprintable*: same spec
//!   + seed ⇒ byte-identical metrics.
//! * **[`ScenarioEngine`]** — resolves the spec round by round into
//!   concrete [`cs_core::SystemEvent`]s through `SystemSim::apply_event`
//!   (joins take the §4.1 RP path, seeks move the play anchor and the
//!   exchange window follows). All randomness flows through a dedicated
//!   child of the seeded [`cs_sim::RngTree`], so the null scenario is
//!   bit-identical to a plain `SystemSim::run()` — pinned by the
//!   determinism suite.
//! * **[`MetricsLog`]** — the telemetry export: per-round §5.3 metrics
//!   merged with the diagnostic taps (play-anchor runway, exchange-window
//!   occupancy, supplier load distribution, DHT routing traffic, backup
//!   GC pressure, per-joiner startup delays), as CSV, JSON, per-round
//!   fingerprints and a human summary.
//!
//! ## Quick start
//!
//! ```
//! use cs_core::SystemConfig;
//! use cs_scenario::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::null(
//!     "smoke",
//!     SystemConfig { nodes: 40, rounds: 10, startup_segments: 20, seed: 3,
//!                    ..SystemConfig::default() },
//! );
//! let outcome = run_scenario(&spec);
//! assert_eq!(outcome.report.rounds.len(), 10);
//! println!("{}", outcome.log.summarize());
//! ```

pub mod engine;
pub mod gate;
pub mod metrics;
pub mod parse;
pub mod spec;

pub use engine::{EngineStats, ScenarioEngine};
pub use gate::{mean_continuity_gate, p99_continuity_gate};
pub use metrics::{MetricsLog, MetricsRow};
pub use parse::{parse_scenario, ParseError};
pub use spec::{
    fnv1a, ArrivalModel, NodeClass, Phase, Round, ScenarioEventKind, ScenarioSpec, SessionModel,
    SpecError, TimedEvent, VcrModel,
};

use cs_core::{FaultTrace, ObsConfig, ObsRunReport, RunReport, SystemSim, Telemetry};

/// Everything one scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The standard run report (per-round records + summary).
    pub report: RunReport,
    /// The diagnostic telemetry (every run records it).
    pub telemetry: Telemetry,
    /// The merged, exportable metrics log.
    pub log: MetricsLog,
    /// The per-round fault/recovery trace (empty unless the spec armed
    /// the fault plane); its digest is the run's fault fingerprint.
    pub fault_trace: FaultTrace,
    /// The observability report (`None` unless the run was driven by
    /// [`run_scenario_observed`]).
    pub obs: Option<ObsRunReport>,
}

/// Run a scenario end to end: build the simulator from the spec's
/// config and let the [`ScenarioEngine`] drive every round.
/// Deterministic in the spec (two calls produce byte-identical
/// outcomes).
///
/// # Panics
/// If the spec does not [`validate`](ScenarioSpec::validate).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    drive(spec, None, SystemSim::step)
}

/// [`run_scenario`] with the observability layer armed: the simulator
/// collects per-phase timings, per-node distributions and the event
/// trace, and `on_round` fires after every stepped round (the
/// live-monitor publish hook — it sees the simulator read-only).
///
/// Observation never perturbs behaviour: the `report` is bit-identical
/// to the unobserved run's (obs consumes no RNG and mutates no
/// protocol state), which the determinism suite pins.
pub fn run_scenario_observed(
    spec: &ScenarioSpec,
    obs_cfg: ObsConfig,
    mut on_round: impl FnMut(&SystemSim),
) -> ScenarioOutcome {
    drive(spec, Some(obs_cfg), |sim| {
        let stepped = sim.step();
        if stepped {
            on_round(sim);
        }
        stepped
    })
}

/// The scenario driver — the workspace's only one: build the simulator
/// from the spec's config (with `obs_cfg`, the observability layer
/// armed), let the [`ScenarioEngine`] apply each round's events, run
/// the round with `step`, and assemble the outcome.
/// `step` is "how to step a round": [`SystemSim::step`] for the
/// simulator, a `SystemSim::step_with` over a transport for the
/// live-network twin (`cs-twin`), either wrapped with whatever should
/// happen after each round. It returns whether a round ran.
///
/// # Panics
/// If the spec does not [`validate`](ScenarioSpec::validate).
pub fn drive(
    spec: &ScenarioSpec,
    obs_cfg: Option<ObsConfig>,
    mut step: impl FnMut(&mut SystemSim) -> bool,
) -> ScenarioOutcome {
    let mut sim = SystemSim::new(spec.config.clone());
    if let Some(cfg) = obs_cfg {
        sim.enable_obs(cfg);
    }
    let mut engine = ScenarioEngine::new(spec.clone());
    // Bound-check *before* driving: events scheduled at `rounds` or
    // later must not be applied (and counted in the stats) when no
    // simulated round would ever observe them.
    while sim.rounds_run() < spec.config.rounds {
        engine.drive_round(&mut sim);
        if !step(&mut sim) {
            break;
        }
    }
    let telemetry = sim.telemetry().clone();
    let fault_trace = sim.fault_trace().clone();
    let obs = sim.take_obs_report();
    // `finish` attaches the same cached distribution summary to
    // `report.summary.dist`, so the exporters and the obs report agree.
    let report = sim.finish();
    let log = MetricsLog::new(spec, &report, &telemetry, engine.stats());
    ScenarioOutcome {
        report,
        telemetry,
        log,
        fault_trace,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::SystemConfig;

    fn base(nodes: usize, rounds: u32, seed: u64) -> SystemConfig {
        SystemConfig {
            nodes,
            rounds,
            startup_segments: 20,
            seed,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn null_scenario_matches_plain_run() {
        let config = base(60, 12, 11);
        // A bare simulator, stepped with no enable call, records one
        // telemetry row per round — the same rows the driver exports.
        let mut sim = SystemSim::new(config.clone());
        while sim.step() {}
        let telemetry = sim.telemetry().clone();
        let plain = sim.finish();
        let outcome = run_scenario(&ScenarioSpec::null("null", config));
        assert_eq!(plain.rounds, outcome.report.rounds);
        assert_eq!(plain.summary, outcome.report.summary);
        assert_eq!(telemetry.rounds.len(), 12);
        assert_eq!(telemetry, outcome.telemetry);
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let mut spec = ScenarioSpec::null("churny", base(60, 15, 13));
        spec.phases.push(Phase {
            start: 2,
            end: 15,
            arrivals: ArrivalModel { poisson_rate: 1.5 },
            session: SessionModel::Weibull {
                shape: 0.8,
                scale_rounds: 8.0,
            },
            graceful_fraction: 0.5,
            classes: Vec::new(),
            vcr: VcrModel {
                seek_prob: 0.02,
                seek_max: 30,
                pause_prob: 0.01,
                resume_prob: 0.3,
            },
            loss: 0.0,
            crash: 0.0,
        });
        spec.events.push(TimedEvent {
            round: 6,
            kind: ScenarioEventKind::FlashCrowd {
                count: 15,
                class: None,
            },
        });
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.report.rounds, b.report.rounds);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.log.to_csv(), b.log.to_csv());
        assert_eq!(a.log.to_json(), b.log.to_json());
        assert_eq!(a.log.round_fingerprints(), b.log.round_fingerprints());
        assert!(a.log.engine.joins > 0, "the flash crowd joined");
    }

    #[test]
    fn faulty_scenario_is_reproducible_with_identical_trace() {
        let mut config = base(80, 30, 31);
        config.faults = cs_core::FaultPlan {
            crash_rate: 0.004,
            data_loss: 0.02,
            control_loss: 0.02,
            delay_prob: 0.01,
            delay_ms: 40.0,
        };
        let mut spec = ScenarioSpec::null("faulty", config);
        spec.events.push(TimedEvent {
            round: 10,
            kind: ScenarioEventKind::LossBurst {
                loss: 0.5,
                rounds: 3,
            },
        });
        spec.events.push(TimedEvent {
            round: 18,
            kind: ScenarioEventKind::CrashNodes {
                count: 5,
                correlated: false,
            },
        });
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.report.rounds, b.report.rounds);
        assert_eq!(a.fault_trace, b.fault_trace);
        assert_eq!(a.fault_trace.digest(), b.fault_trace.digest());
        assert!(
            a.fault_trace.rounds.iter().any(|r| r.injected() > 0),
            "the armed fault plane must actually inject something"
        );
        assert_eq!(a.log.engine.crashes, 5);
    }

    #[test]
    fn flash_crowd_grows_membership() {
        let mut spec = ScenarioSpec::null("crowd", base(50, 12, 17));
        spec.events.push(TimedEvent {
            round: 4,
            kind: ScenarioEventKind::FlashCrowd {
                count: 30,
                class: None,
            },
        });
        let outcome = run_scenario(&spec);
        let before = outcome.report.rounds[3].alive;
        let after = outcome.report.rounds[4].alive;
        assert!(
            after >= before + 25,
            "flash crowd should land at round 4: {before} → {after}"
        );
    }

    #[test]
    fn correlated_departure_shrinks_membership() {
        let mut spec = ScenarioSpec::null("crash", base(80, 12, 19));
        spec.events.push(TimedEvent {
            round: 6,
            kind: ScenarioEventKind::MassDeparture {
                fraction: 0.25,
                correlated: true,
                graceful: false,
            },
        });
        let outcome = run_scenario(&spec);
        let before = outcome.report.rounds[5].alive;
        let after = outcome.report.rounds[6].alive;
        assert!(
            (after as f64) < before as f64 * 0.8,
            "a quarter should vanish: {before} → {after}"
        );
        assert_eq!(outcome.log.engine.leaves, (before as u64 + 1) / 4);
    }

    #[test]
    fn capacity_shift_and_seek_storm_apply() {
        let mut spec = ScenarioSpec::null("mixed", base(60, 18, 23));
        spec.classes.push(NodeClass {
            name: "throttled".into(),
            inbound_kbps: Some(350.0),
            outbound_kbps: Some(150.0),
            ping_ms: None,
            weight: 1.0,
        });
        spec.events.push(TimedEvent {
            round: 8,
            kind: ScenarioEventKind::CapacityShift {
                fraction: 0.5,
                class: "throttled".into(),
            },
        });
        spec.events.push(TimedEvent {
            round: 10,
            kind: ScenarioEventKind::SeekStorm {
                fraction: 0.5,
                jump: -40,
            },
        });
        let outcome = run_scenario(&spec);
        assert!(outcome.log.engine.capacity_changes > 0);
        assert!(outcome.log.engine.seeks > 0);
        assert_eq!(outcome.report.rounds.len(), 18);
    }

    #[test]
    fn paused_nodes_freeze_and_resume() {
        let mut spec = ScenarioSpec::null("pausy", base(40, 16, 29));
        spec.phases.push(Phase {
            start: 6,
            end: 16,
            arrivals: ArrivalModel::default(),
            session: SessionModel::Forever,
            graceful_fraction: 0.5,
            classes: Vec::new(),
            vcr: VcrModel {
                seek_prob: 0.0,
                seek_max: 0,
                pause_prob: 0.3,
                resume_prob: 0.2,
            },
            loss: 0.0,
            crash: 0.0,
        });
        let outcome = run_scenario(&spec);
        assert!(outcome.log.engine.pauses > 0, "someone paused");
        // Paused nodes drop out of the playing count.
        let playing_mid: Vec<usize> = outcome.report.rounds[8..]
            .iter()
            .map(|r| r.playing)
            .collect();
        let alive = outcome.report.rounds[10].alive;
        assert!(
            playing_mid.iter().any(|&p| p < alive),
            "with 30% pause pressure someone must be frozen: {playing_mid:?} vs alive {alive}"
        );
    }
}

//! Sim-vs-live equivalence: the headline guarantee of the twin.
//!
//! The live-network twin (`cs-twin`) runs the protocol as
//! message-exchanging node tasks over a transport; the simulator runs
//! it as a closed-form round loop. Under a faithful transport (every
//! announcement delivered unmodified inside its round) the two must be
//! **indistinguishable on every deterministic export**: the decision
//! log (structured event trace), the fault trace and its digest, the
//! run report, and the CSV/JSON metrics — byte for byte.
//!
//! The harness would be vacuous if nothing *could* fail it, so the
//! last test drives a deliberately corrupting transport and asserts
//! the twin both notices (divergence counters) and actually diverges
//! (different decision log).
//!
//! The full-scale profile from the issue (1000 nodes × 200 rounds for
//! both shipped scenarios) runs in CI via the `twin-smoke` job; here it
//! is `#[ignore]`d so `cargo test` stays fast. Run it with
//! `cargo test --release --test twin_equivalence -- --ignored`.

use continustreaming::prelude::*;
use continustreaming::twin::{
    drive_twin_over, run_twin_observed, Envelope, InProcTransport, MsgBody, Transport,
    TransportStats, TwinConfig, WireMsg,
};
use cs_core::TwinAnnounce;
use std::sync::Arc;

fn load_spec(path: &str, nodes: usize, rounds: u32) -> ScenarioSpec {
    let text = std::fs::read_to_string(path).expect("scenario file");
    let mut spec = parse_scenario(&text).expect("scenario parses");
    spec.config.nodes = nodes;
    spec.config.rounds = rounds;
    spec
}

/// Assert every deterministic export of a twin run is byte-identical
/// to the sim run of the same spec.
fn assert_equivalent(spec: &ScenarioSpec, cfg: &TwinConfig) {
    let sim = run_scenario_observed(spec, ObsConfig::default(), |_| {});
    let twin = run_twin_observed(spec, cfg, ObsConfig::default(), |_, _| {});

    assert_eq!(
        twin.divergences, 0,
        "`{}`: faithful transport reported content divergences",
        spec.name
    );
    assert_eq!(
        twin.late, 0,
        "`{}`: equivalence profile must deliver everything inside its round",
        spec.name
    );
    assert_eq!(twin.transport.lost, 0, "`{}`: no loss armed", spec.name);

    let sim_trace = sim.obs.as_ref().expect("obs armed").trace_jsonl.as_str();
    let twin_trace = twin
        .outcome
        .obs
        .as_ref()
        .expect("obs armed")
        .trace_jsonl
        .as_str();
    assert!(
        !sim_trace.is_empty(),
        "`{}`: empty decision log would make the comparison vacuous",
        spec.name
    );
    assert_eq!(
        sim_trace, twin_trace,
        "`{}`: decision logs differ",
        spec.name
    );

    assert_eq!(
        twin.outcome.fault_trace, sim.fault_trace,
        "`{}`: fault traces differ",
        spec.name
    );
    assert_eq!(twin.outcome.fault_trace.digest(), sim.fault_trace.digest());
    assert_eq!(
        twin.outcome.report, sim.report,
        "`{}`: run reports differ",
        spec.name
    );
    assert_eq!(
        format!("{:?}", twin.outcome.report),
        format!("{:?}", sim.report),
        "`{}`: report debug serialisation differs",
        spec.name
    );
    assert_eq!(
        twin.outcome.log.to_csv(),
        sim.log.to_csv(),
        "`{}`: CSV exports differ",
        spec.name
    );
    assert_eq!(
        twin.outcome.log.to_json(),
        sim.log.to_json(),
        "`{}`: JSON exports differ",
        spec.name
    );
}

/// `static.scn` as shipped (200 × 40): a quiet overlay where every
/// byte of the decision log comes from scheduling/pre-fetch/rescue
/// decisions over transported buffer maps.
#[test]
fn static_scenario_sim_and_twin_are_byte_identical() {
    let spec = load_spec("scenarios/static.scn", 200, 40);
    assert_equivalent(&spec, &TwinConfig::default());
}

/// Jittered per-link latency (50 ms + [0, 400) ms of deterministic
/// per-pair spread, still under the 1 s round period) must not change
/// a single decision: arrival *order within the round* is invisible to
/// the round-synchronous protocol.
#[test]
fn static_scenario_equivalence_holds_under_link_jitter() {
    let spec = load_spec("scenarios/static.scn", 150, 30);
    let cfg = TwinConfig {
        links: LinkCatalog::jittered(
            SimDuration::from_millis(50),
            SimDuration::from_millis(400),
            0xA11CE,
        ),
        ..TwinConfig::default()
    };
    assert_equivalent(&spec, &cfg);
}

/// `lossy_churn.scn` (reduced to 300 × 60): churn, scripted events and
/// the PR-6 fault plane all armed. Crashes and per-path loss/delay are
/// injected core-side from the `"faults"` RNG child, so the twin must
/// replay the *identical* fault trace — digest and all — while moving
/// every announcement over the wire.
#[test]
fn lossy_churn_equivalence_includes_the_fault_plane() {
    let spec = load_spec("scenarios/lossy_churn.scn", 300, 60);
    assert!(spec.config.faults.enabled(), "scenario must arm faults");
    let cfg = TwinConfig::default();
    let twin = run_twin_observed(&spec, &cfg, ObsConfig::default(), |_, _| {});
    assert!(
        !twin.outcome.fault_trace.is_empty(),
        "fault plane armed but the trace is empty — comparison would be vacuous"
    );
    assert_equivalent(&spec, &cfg);
}

/// The issue's full-scale acceptance profile: both shipped scenarios
/// at 1000 nodes × 200 rounds. CI runs this via the `twin-smoke` job
/// (release profile); locally: `cargo test --release --test
/// twin_equivalence -- --ignored`.
#[test]
#[ignore = "full-scale profile; run with --ignored (CI: twin-smoke)"]
fn full_scale_1000x200_equivalence() {
    for path in ["scenarios/static.scn", "scenarios/lossy_churn.scn"] {
        let spec = load_spec(path, 1000, 200);
        assert_equivalent(&spec, &TwinConfig::default());
    }
}

/// A transport that delivers everything on time but quietly drops one
/// advertised segment from every announcement (clears the lowest set
/// bit of the first non-zero map word) — including loopback, so the
/// corruption reaches the canonical views decisions are made over.
struct BitDroppingTransport {
    inner: InProcTransport,
    corrupted: u64,
}

impl Transport for BitDroppingTransport {
    fn send(&mut self, now: SimTime, msg: WireMsg) {
        self.inner.send(now, msg);
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    fn poll(&mut self, deadline: SimTime) -> Option<Envelope> {
        let mut env = self.inner.poll(deadline)?;
        let MsgBody::Announce(a) = &env.msg.body;
        if let Some(i) = a.words.iter().position(|&w| w != 0) {
            let mut tampered = TwinAnnounce::clone(a);
            tampered.words[i] &= tampered.words[i] - 1;
            env.msg.body = MsgBody::Announce(Arc::new(tampered));
            self.corrupted += 1;
        }
        Some(env)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Non-vacuity: an unfaithful transport must (a) trip the divergence
/// counters and (b) actually change the decision log. If this test
/// ever passes with `divergences == 0` or identical traces, the
/// equivalence harness above has stopped testing anything.
#[test]
fn corrupting_transport_is_detected_and_diverges() {
    let spec = ScenarioSpec::null(
        "twin-corrupt",
        SystemConfig {
            nodes: 80,
            rounds: 15,
            startup_segments: 30,
            seed: 11,
            ..SystemConfig::default()
        },
    );
    let sim = run_scenario_observed(&spec, ObsConfig::default(), |_| {});
    let cfg = TwinConfig::default();
    let transport = BitDroppingTransport {
        inner: InProcTransport::new(cfg.links, spec.config.seed),
        corrupted: 0,
    };
    let twin = drive_twin_over(
        &spec,
        &cfg,
        transport,
        Some(ObsConfig::default()),
        &mut |_, _| {},
    );
    assert!(
        twin.divergences > 0,
        "content verification failed to notice tampered announcements"
    );
    let sim_trace = sim.obs.as_ref().expect("obs armed").trace_jsonl.as_str();
    let twin_trace = twin
        .outcome
        .obs
        .as_ref()
        .expect("obs armed")
        .trace_jsonl
        .as_str();
    assert_ne!(
        sim_trace, twin_trace,
        "decisions over corrupted views must drift from the simulator"
    );
}

//! Scenario-driven continuity regression suite for the policy layer.
//!
//! PR 4 localised the 1000×200 continuity cliff; the adaptive policy
//! layer (`cs_core::policy`) fixes it. This suite pins both sides of
//! the config gate:
//!
//! * **Legacy** (the default) still walks off the cliff *exactly* as
//!   the canary in `tests/continuity_cliff.rs` records — the policy
//!   layer must be invisible when disabled (the full pinned-fingerprint
//!   proof lives in `tests/determinism.rs`; here the cliff shape itself
//!   is re-asserted from a shared run).
//! * **Adaptive** holds per-round continuity ≥ 0.99 from the end of
//!   startup through all 200 rounds at 1,000 nodes — the paper's fig 7
//!   claim, finally reproduced past round 160 — and beats Legacy's
//!   stable continuity by pinned margins under the committed
//!   `flash_crowd.scn` and `dynamic_churn.scn` workloads.
//!
//! Measured reference values (release, x86_64 Linux, seed 20080414) are
//! quoted next to each assertion; the assertions use comfortable
//! margins so libm-level drift on other platforms does not flip them.

use continustreaming::prelude::*;

/// The exact configuration of the pinned cliff canary, with the policy
/// under test swapped in.
fn cliff_config(policy: PolicyKind) -> SystemConfig {
    SystemConfig {
        nodes: 1000,
        rounds: 200,
        seed: 20080414,
        policy,
        ..SystemConfig::default()
    }
}

/// Legacy still trips the cliff canary exactly: 1.0 through round 120,
/// < 0.5 at 155, 0.0 from 160 — and Adaptive, on the *same*
/// configuration, holds ≥ 0.99 through every post-startup round.
///
/// One test so the two 1000×200 runs and their comparison live next to
/// each other; `continuity_cliff.rs` keeps the standalone Legacy canary.
#[test]
fn adaptive_fixes_the_1000x200_cliff_legacy_still_trips_it() {
    // --- Legacy: the pinned collapse, unchanged ---------------------
    let legacy = SystemSim::new(cliff_config(PolicyKind::Legacy)).run();
    assert_eq!(legacy.rounds.len(), 200);
    for round in [60, 80, 100, 120] {
        assert_eq!(
            legacy.rounds[round].continuity, 1.0,
            "legacy round {round}: pre-cliff plateau must be perfect"
        );
    }
    assert!(
        legacy.rounds[140].continuity >= 0.99,
        "legacy round 140: leading edge (≥ 0.99), got {}",
        legacy.rounds[140].continuity
    );
    assert!(
        legacy.rounds[155].continuity < 0.5,
        "legacy round 155: mid-collapse (< 0.5), got {}",
        legacy.rounds[155].continuity
    );
    for round in [160, 170, 180, 199] {
        assert_eq!(
            legacy.rounds[round].continuity, 0.0,
            "legacy round {round}: the collapse must still flatline at 0.0 \
             (the policy layer must be invisible under PolicyKind::Legacy)"
        );
    }

    // --- Adaptive: the fix ------------------------------------------
    // Measured (release, x86_64): continuity is exactly 1.0 for every
    // round from 25 through 199; stable-phase continuity 1.0000 (vs
    // Legacy's 0.3063). Asserted at ≥ 0.99 per the acceptance bar.
    let adaptive = SystemSim::new(cliff_config(PolicyKind::adaptive())).run();
    assert_eq!(adaptive.rounds.len(), 200);
    for (round, rec) in adaptive.rounds.iter().enumerate().skip(25) {
        assert!(
            rec.continuity >= 0.99,
            "adaptive round {round}: continuity {} fell below 0.99 — \
             the cliff fix regressed",
            rec.continuity
        );
        assert_eq!(rec.alive, 999, "adaptive round {round}: static run");
    }
    // Through the rounds where Legacy is already dead, Adaptive is
    // perfect — not merely above the bar.
    for round in [160, 170, 180, 199] {
        assert_eq!(
            adaptive.rounds[round].continuity, 1.0,
            "adaptive round {round}: expected perfect continuity where \
             legacy flatlines"
        );
        assert_eq!(adaptive.rounds[round].playing, 999);
    }
    assert!(
        adaptive.summary.stable_continuity > legacy.summary.stable_continuity + 0.5,
        "adaptive stable continuity ({}) must dominate legacy's ({})",
        adaptive.summary.stable_continuity,
        legacy.summary.stable_continuity
    );
}

/// Load a committed spec, shrink it for test time (keeping the workload
/// shape), and run it under both policies.
fn committed_spec_comparison(
    file: &str,
    shrink: impl Fn(&mut ScenarioSpec),
) -> (RunSummary, RunSummary) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
    let mut spec = parse_scenario(&text).unwrap();
    shrink(&mut spec);
    spec.config.policy = PolicyKind::Legacy;
    let legacy = run_scenario(&spec).report.summary;
    spec.config.policy = PolicyKind::adaptive();
    let adaptive = run_scenario(&spec).report.summary;
    (legacy, adaptive)
}

/// The committed flash-crowd workload (burst joins, correlated mass
/// departure, capacity shift) at reduced size: Adaptive beats Legacy's
/// stable continuity by a pinned margin.
///
/// Measured (release, x86_64, 80 nodes × 30 rounds): Legacy 0.8446,
/// Adaptive 0.9936 (+0.149). Pinned at ≥ 0.08 with Adaptive ≥ 0.95.
#[test]
fn adaptive_beats_legacy_under_flash_crowd() {
    let (legacy, adaptive) = committed_spec_comparison("flash_crowd.scn", |spec| {
        spec.config.nodes = 80;
        spec.config.rounds = 30;
    });
    assert!(
        adaptive.stable_continuity >= 0.95,
        "adaptive must hold the flash crowd together: {}",
        adaptive.stable_continuity
    );
    assert!(
        adaptive.stable_continuity >= legacy.stable_continuity + 0.08,
        "adaptive ({}) must beat legacy ({}) by the pinned flash-crowd margin",
        adaptive.stable_continuity,
        legacy.stable_continuity
    );
}

/// The committed 5 % + 5 % dynamic-churn workload at reduced size:
/// Adaptive beats Legacy's stable continuity by a pinned margin.
///
/// Measured (release, x86_64, 300 nodes × 80 rounds, spike at 50):
/// Legacy 0.2070, Adaptive 0.9942 (+0.787). Pinned at ≥ 0.5 with
/// Adaptive ≥ 0.9.
#[test]
fn adaptive_beats_legacy_under_dynamic_churn() {
    let (legacy, adaptive) = committed_spec_comparison("dynamic_churn.scn", |spec| {
        spec.config.nodes = 300;
        spec.config.rounds = 80;
        for ev in &mut spec.events {
            ev.round = ev.round.min(50);
        }
    });
    assert!(
        adaptive.stable_continuity >= 0.9,
        "adaptive must keep playing through 5%+5% churn: {}",
        adaptive.stable_continuity
    );
    assert!(
        adaptive.stable_continuity >= legacy.stable_continuity + 0.5,
        "adaptive ({}) must beat legacy ({}) by the pinned churn margin",
        adaptive.stable_continuity,
        legacy.stable_continuity
    );
}

/// The committed *tuned* dynamic-churn spec (the recovery + joiner
/// knobs on its policy line, hand-set until a derivation replaces
/// them) at reduced size: the tuned knobs must clear a pinned
/// mean-continuity floor and beat Legacy by a pinned margin. The full-size (1000×200)
/// ≥ 0.90 mean gate runs in the CI chaos-smoke matrix.
///
/// Measured (release, x86_64, 300 nodes × 80 rounds, spike at 50):
/// Legacy mean 0.2954 / stable 0.2070; tuned mean 0.8024 / stable
/// 0.9956 (startup dominates the reduced-size mean — the short run is
/// 20 % ramp). Pinned with comfortable margins.
#[test]
fn tuned_knobs_hold_dynamic_churn_at_reduced_size() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/dynamic_churn_tuned.scn")).unwrap();
    let mut spec = parse_scenario(&text).unwrap();
    assert!(
        matches!(spec.config.policy, PolicyKind::Adaptive(_)),
        "the tuned spec must commit its knobs (unlike the policy-agnostic base spec)"
    );
    spec.config.nodes = 300;
    spec.config.rounds = 80;
    for ev in &mut spec.events {
        ev.round = ev.round.min(50);
    }
    let tuned = run_scenario(&spec).report.summary;
    spec.config.policy = PolicyKind::Legacy;
    let legacy = run_scenario(&spec).report.summary;
    assert!(
        tuned.stable_continuity >= 0.95,
        "tuned knobs must hold the reduced churn workload: stable {}",
        tuned.stable_continuity
    );
    assert!(
        tuned.mean_continuity >= 0.75,
        "tuned knobs must keep the whole-run mean up: mean {}",
        tuned.mean_continuity
    );
    assert!(
        tuned.mean_continuity >= legacy.mean_continuity + 0.4,
        "tuned mean ({}) must beat legacy ({}) by the pinned margin",
        tuned.mean_continuity,
        legacy.mean_continuity
    );
    assert!(
        tuned.stable_continuity >= legacy.stable_continuity + 0.5,
        "tuned stable ({}) must beat legacy ({}) by the pinned margin",
        tuned.stable_continuity,
        legacy.stable_continuity
    );
}

/// Off-knob invisibility canary, scenario level: with the three PR-7
/// joiner knobs at their 0 defaults, the reduced dynamic-churn run
/// under bare Adaptive reproduces a pinned metrics fingerprint — any
/// leak of the sponsor/seed/grace code into the knobs-off path moves
/// this hash. (The system-level proof for Legacy and the pinned
/// behavioural fingerprints lives in `tests/determinism.rs`.) The
/// metrics fingerprint covers the spec and telemetry `Debug` formats,
/// so it legitimately moves when `SystemConfig` or `TelemetryRound`
/// gain or lose fields — re-pin only after the behavioural `RunReport`
/// fingerprint is shown unchanged (active-set PR: report hash
/// 0xee60762fffd96a8f held with the toggle on and off; PR 18, which
/// took 13 fields out of the spec's `Debug`: the same report hash and
/// the same CSV bytes from a parent and a change build; PR 20, which
/// took the classifier toggle out of the spec and the touch-forced
/// count out of the telemetry rows, and made `active_sched` /
/// `active_prefetch` count the nodes that found work: again report hash
/// 0xee60762fffd96a8f and the same 15 885 CSV bytes from a parent and a
/// change release build; PR 24, which took the shard-count field out of
/// the spec: the same report hash and CSV bytes again; and when the
/// merged row's telemetry stopped being an `Option` and the CSV gained
/// `active_sched,active_prefetch`: the same report hash, and the first
/// 36 CSV columns equal to all 15 885 bytes of the parent build's CSV;
/// and when the six §5.2 fields became constants: report hash
/// 0xee60762fffd96a8f and the same 16 547 CSV bytes again; and when
/// the scheduler came to decide pre-fetch and the phase fault rates
/// left `Phase`: report hash 0xee60762fffd96a8f and the same 16 547
/// CSV bytes from a parent and a change release build).
#[test]
fn joiner_knobs_off_reproduce_the_bare_adaptive_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/dynamic_churn.scn")).unwrap();
    let mut spec = parse_scenario(&text).unwrap();
    spec.config.nodes = 300;
    spec.config.rounds = 80;
    for ev in &mut spec.events {
        ev.round = ev.round.min(50);
    }
    spec.config.policy = PolicyKind::adaptive();
    let log = run_scenario(&spec).log;
    assert_eq!(
        log.fingerprint(),
        0xaadb_04d2_273f_1383,
        "bare-Adaptive reduced dynamic-churn run drifted — the joiner \
         knobs must be invisible at their 0 defaults"
    );
}

/// Off-knob invisibility canary, mechanism level: the sponsor and
/// seed knobs act only at joiner admission, so on a workload with no
/// joins at all they are bit-for-bit invisible even when armed.
/// (`join_grace_rounds` is deliberately excluded: grace covers every
/// node's post-spawn catch-up, launch cohort included, so arming it
/// is visible during startup by design.)
#[test]
fn sponsor_and_seed_knobs_are_invisible_without_joiners() {
    let run = |policy: AdaptivePolicy| {
        SystemSim::new(SystemConfig {
            nodes: 200,
            rounds: 60,
            startup_segments: 40,
            seed: 20080414,
            policy: PolicyKind::Adaptive(policy),
            ..SystemConfig::default()
        })
        .run()
    };
    let bare = run(AdaptivePolicy::default());
    let armed = run(AdaptivePolicy {
        join_sponsors: 8,
        join_seed: 24,
        ..AdaptivePolicy::default()
    });
    assert_eq!(bare.rounds, armed.rounds);
    assert_eq!(bare.summary, armed.summary);
}

/// The committed dynamic-churn spec parses, validates, and describes
/// the workload it claims (5 % + 5 % churn, a correlated spike).
#[test]
fn dynamic_churn_spec_is_well_formed() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/dynamic_churn.scn")).unwrap();
    let spec = parse_scenario(&text).unwrap();
    assert_eq!(spec.name, "dynamic-churn");
    assert!(!spec.config.churn.is_static(), "5%+5% churn");
    assert!((spec.config.churn.leave_fraction - 0.05).abs() < 1e-12);
    assert!((spec.config.churn.join_fraction - 0.05).abs() < 1e-12);
    assert!(spec.events.iter().any(|e| matches!(
        e.kind,
        ScenarioEventKind::MassDeparture {
            correlated: true,
            ..
        }
    )));
    // The spec itself stays policy-agnostic: the CI comparison drives
    // both policies from this one file via `--policy`.
    assert_eq!(spec.config.policy, PolicyKind::Legacy);
}

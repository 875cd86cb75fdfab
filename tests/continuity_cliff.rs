//! Regression canary for the late-run continuity collapse at scale.
//!
//! ROADMAP ("Continuity at scale"): a 1,000-node static run (seed
//! 20080414, the configuration the former hot-path bench recorded) holds
//! per-round continuity at 1.0 through ~125 rounds, starts degrading in
//! the 130s–140s as play points outrun acquirable data, collapses
//! between rounds ~150 and ~157, and flatlines at 0.0 from round ~158 —
//! with every node still alive and "playing". This is a **known open
//! bug**, not desired behaviour.
//!
//! The point of pinning it: *any* change to the collapse must be loud.
//! The cliff is now **fixed** behind the config-gated policy layer —
//! `SystemConfig::policy = PolicyKind::Adaptive` holds continuity ≥
//! 0.99 through all 200 rounds (see `tests/continuity_policy.rs`) — but
//! the default, `PolicyKind::Legacy`, must keep reproducing the
//! collapse bit for bit: this canary now pins the policy layer's
//! *invisibility* when disabled. A perf refactor that accidentally
//! shifts the cliff — in either direction — trips it and must be
//! treated as behavioural drift.
//!
//! One release-profile run of this configuration takes ~1.4 s; the dev
//! profile used by `cargo test` takes ~8 s, which is why the whole
//! trajectory is checked from a single run.

use continustreaming::prelude::*;

#[test]
fn continuity_cliff_is_pinned_at_1000_nodes() {
    let config = SystemConfig {
        nodes: 1000,
        rounds: 200,
        seed: 20080414,
        ..SystemConfig::default()
    };
    let report = SystemSim::new(config).run();
    assert_eq!(report.rounds.len(), 200);

    let continuity = |round: usize| report.rounds[round].continuity;

    // Healthy steady state: perfect continuity deep into the run.
    for round in [60, 80, 100, 120] {
        assert_eq!(
            continuity(round),
            1.0,
            "round {round}: the static 1k-node run should be perfectly continuous"
        );
    }

    // The leading edge of the degradation: still ≥ 0.99 at round 140
    // (measured 0.992 — a handful of nodes already starved).
    assert!(
        continuity(140) >= 0.99,
        "round 140: expected the pre-cliff plateau (≥ 0.99), got {}",
        continuity(140)
    );

    // The cliff itself: by round 155 the collapse is past its midpoint…
    assert!(
        continuity(155) < 0.5,
        "round 155: expected mid-collapse (< 0.5), got {}",
        continuity(155)
    );

    // …and from round 160 on, continuity is exactly 0.0 — everyone
    // alive, everyone's play point past anything obtainable.
    for round in [160, 170, 180, 199] {
        assert_eq!(
            continuity(round),
            0.0,
            "round {round}: the collapse should flatline at exactly 0.0 \
             (if you FIXED the cliff, update this canary and the ROADMAP!)"
        );
        assert_eq!(
            report.rounds[round].alive, 999,
            "round {round}: the collapse is not churn — every node is alive"
        );
        assert_eq!(
            report.rounds[round].playing, 999,
            "round {round}: every node is nominally playing"
        );
    }
}

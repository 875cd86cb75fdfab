//! Same-seed determinism and no-behavioural-drift guarantees.
//!
//! Two layers:
//!
//! 1. **Reproducibility** — the same seed must produce byte-identical
//!    `RunReport`s across two runs in the same process, for every
//!    scheduler (including Random, whose candidate order is built in
//!    ascending segment order precisely so this holds).
//! 2. **Pinned fingerprints** — the exact `RunReport` and round-0 hashes
//!    of a fixed scenario set, and the DHT batch hashes, held to
//!    `cs_bench::fingerprint::PINS` (the table the `fingerprint` binary
//!    gates on in CI). Any drift in scheduling order, tie-breaks, or RNG
//!    consumption shows up here.
//!
//! The pinned values involve `f64` transcendentals (`ln`, `exp`, `cos`)
//! whose last-bit behaviour depends on the platform libm, so the exact
//! hashes are only asserted on x86_64 Linux (the reference platform);
//! other platforms still get the reproducibility layer.

use continustreaming::prelude::*;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use cs_bench::fingerprint::round0_fingerprint;
use cs_bench::fingerprint::{active_set, dht, fingerprint, overlay_8k, scenarios, PINS};

/// Layer 1: same seed ⇒ identical report, different seed ⇒ different.
#[test]
fn same_seed_reports_are_byte_identical() {
    for scheduler in [
        SchedulerKind::ContinuStreaming,
        SchedulerKind::CoolStreaming,
        SchedulerKind::Random,
    ] {
        let config = |seed| SystemConfig {
            nodes: 60,
            rounds: 15,
            startup_segments: 30,
            scheduler,
            prefetch_enabled: matches!(scheduler, SchedulerKind::ContinuStreaming),
            seed,
            ..SystemConfig::default()
        };
        let a = SystemSim::new(config(42)).run();
        let b = SystemSim::new(config(42)).run();
        assert_eq!(
            a.rounds, b.rounds,
            "{scheduler:?}: same seed must reproduce"
        );
        assert_eq!(a.summary, b.summary);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{scheduler:?}: debug serialisation must be byte-identical"
        );
        let c = SystemSim::new(config(43)).run();
        assert_ne!(
            a.rounds, c.rounds,
            "{scheduler:?}: different seed must differ"
        );
    }
}

/// Layer 1b: the dynamic environment (churn, joins, handovers) is just as
/// reproducible.
#[test]
fn same_seed_reports_identical_under_churn() {
    let config = SystemConfig {
        nodes: 80,
        rounds: 20,
        startup_segments: 30,
        seed: 7,
        ..SystemConfig::default()
    }
    .with_dynamic_churn();
    let a = SystemSim::new(config.clone()).run();
    let b = SystemSim::new(config).run();
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.summary, b.summary);
}

/// The pinned `(run, round-0)` hashes of a scenario, from
/// `cs_bench::fingerprint::PINS` — the one table the `fingerprint`
/// binary gates on too.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin(name: &str) -> (u64, u64) {
    let row = PINS.iter().find(|row| row.0 == name);
    let &(_, run, round0) = row.expect("every scenario has a row in PINS");
    (run, round0)
}

/// Layer 2: pinned fingerprints from the pre-refactor round loop.
///
/// The first five run hashes were recorded from the implementation that
/// kept `HashMap<DhtId, NodeSim>` state and re-snapshotted every buffer
/// map each round, immediately before the node-arena / `RoundScratch`
/// refactor landed; the refactored loop reproduces every one, proving
/// the data-layout change altered no simulated behaviour. The next two
/// were recorded post-refactor, and `random_static` before the baselines
/// moved to the mask-form schedulers.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn arena_refactor_causes_no_behavioural_drift() {
    for (name, config) in scenarios() {
        let report = SystemSim::new(config).run();
        let hash = fingerprint(&report);
        let pin_hash = pin(name).0;
        assert_eq!(
            hash, pin_hash,
            "behavioural drift in scenario `{name}`: 0x{hash:016x} != pinned 0x{pin_hash:016x}"
        );
    }
}

/// Layer 2b: pinned *round-0* fingerprints — the per-node state right
/// after `SystemSim::new`, before any round runs.
///
/// The first seven were recorded from the pre-arena init path (the
/// O(N²) `position()` scan seeding overheard lists and the throwaway
/// `DhtId → ping` HashMap feeding the DHT latency closure). The
/// arena-built init must reproduce them byte for byte: any drift in trace
/// seeding, overheard-list contents, or DHT construction RNG consumption
/// shows up here, independently of the round-loop hashes above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn init_path_causes_no_round0_drift() {
    for (name, config) in scenarios() {
        let sim = SystemSim::new(config);
        let hash = round0_fingerprint(&sim);
        let pin_hash = pin(name).1;
        assert_eq!(
            hash, pin_hash,
            "round-0 drift in scenario `{name}`: 0x{hash:016x} != pinned 0x{pin_hash:016x}"
        );
    }
}

/// The pin table holds exactly one row per system scenario, per DHT
/// batch, per active-set run and for the 8k overlay, in the order the
/// `fingerprint` binary prints them — no scenario goes unpinned and no
/// pin goes unchecked.
#[test]
fn pin_table_matches_the_fingerprint_set() {
    let names: Vec<&str> = scenarios()
        .iter()
        .map(|(name, _)| *name)
        .chain(dht::fingerprints().iter().map(|(name, ..)| *name))
        .chain(active_set().iter().map(|(name, ..)| *name))
        .chain([overlay_8k().0])
        .collect();
    let pin_names: Vec<&str> = PINS.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names, pin_names);
}

/// Layer 2g: the DHT batches the `fingerprint` binary prints (the
/// 400-lookup overhearing batches are pinned nowhere else;
/// `tests/dht_routing.rs` pins 500-lookup ones). Integer latencies, no
/// libm: held on every platform.
#[test]
fn dht_fingerprints_match_pins() {
    for (name, routes, tables) in dht::fingerprints() {
        assert!(
            PINS.contains(&(name, routes, tables)),
            "DHT drift in `{name}`: routes 0x{routes:016x} tables 0x{tables:016x}"
        );
    }
}

/// Layer 2c: the **null scenario** — the `cs-scenario` driver with an
/// empty spec — reproduces the pinned pre-arena fingerprints exactly.
/// The scenario runner steps the simulator manually and interleaves
/// (zero) events, so this pins the whole stepping/hook path against the
/// same hashes `run()` must match.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn null_scenario_reproduces_pinned_fingerprints() {
    use cs_scenario::{run_scenario, ScenarioSpec};
    for (name, config) in scenarios() {
        let pin_hash = pin(name).0;
        let outcome = run_scenario(&ScenarioSpec::null(name, config));
        let hash = fingerprint(&outcome.report);
        assert_eq!(
            hash, pin_hash,
            "null-scenario drift in `{name}`: 0x{hash:016x} != pinned 0x{pin_hash:016x}"
        );
    }
}

/// Layer 2d: **faults-off invisibility** — a config armed with the
/// explicit default (all-zero) [`FaultPlan`] is not merely similar to
/// an unarmed one, it is the same machine: every pinned fingerprint
/// reproduces bit for bit, the fault plane draws nothing from the RNG
/// tree, and the run's fault trace stays empty with a zero digest.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn default_fault_plan_is_invisible() {
    use cs_scenario::{run_scenario, ScenarioSpec};
    for (name, mut config) in scenarios() {
        let pin_hash = pin(name).0;
        config.faults = FaultPlan::default();
        let outcome = run_scenario(&ScenarioSpec::null(name, config));
        let hash = fingerprint(&outcome.report);
        assert_eq!(
            hash, pin_hash,
            "faults-off drift in `{name}`: 0x{hash:016x} != pinned 0x{pin_hash:016x}"
        );
        assert!(
            outcome.fault_trace.is_empty(),
            "`{name}`: disabled fault plane must record nothing"
        );
        assert_eq!(outcome.fault_trace.digest(), 0);
    }
}

/// Layer 2f: **obs-armed invisibility** — arming the observability
/// layer in full (profiler + distribution histograms + event trace)
/// must not perturb the simulated system at all: the stepped run
/// reproduces the plain `run()` fingerprint for every scenario, and on
/// the reference platform that is the pre-refactor pinned hash. The
/// obs data itself lives outside the report's `Debug` surface (the
/// summary's manual impl hides `dist`), so this also guards against
/// anyone accidentally widening the fingerprint. The telemetry, which
/// every run records, is equal too: obs moves no diagnostic counter.
#[test]
fn armed_obs_layer_causes_no_behavioural_drift() {
    for (name, config) in scenarios() {
        let mut plain_sim = SystemSim::new(config.clone());
        while plain_sim.step() {}
        let plain_telemetry = plain_sim.telemetry().clone();
        let plain = fingerprint(&plain_sim.finish());
        let mut sim = SystemSim::new(config);
        sim.enable_obs(ObsConfig::default());
        while sim.step() {}
        let obs = sim.take_obs_report().expect("obs was armed");
        assert!(
            obs.phases.iter().any(|p| p.count > 0),
            "`{name}`: the armed profiler recorded no spans"
        );
        assert!(
            *sim.telemetry() == plain_telemetry,
            "`{name}`: armed obs moved the telemetry"
        );
        let report = sim.finish();
        assert!(
            report.summary.dist.is_some(),
            "`{name}`: finish() must attach the distribution block"
        );
        let hash = fingerprint(&report);
        assert_eq!(
            hash, plain,
            "`{name}`: armed obs drifted from plain run(): 0x{hash:016x}"
        );
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            let pin_hash = pin(name).0;
            assert_eq!(
                hash, pin_hash,
                "obs-armed drift in `{name}`: 0x{hash:016x} != pinned 0x{pin_hash:016x}"
            );
        }
    }
}

/// Layer 2e: a **large-overlay pin** — 8,000 nodes, five rounds — far
/// above the legacy scenario sizes, held to the `overlay_8k` row of
/// `PINS`. Recorded from a round loop that ran every planning step for
/// every node; the loop whose planners return at their first "nothing to
/// do" must reproduce both the round-0 state hash and the run hash bit
/// for bit.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn large_overlay_8k_pins_hold() {
    let (name, config) = overlay_8k();
    let (run_pin, round0_pin) = pin(name);
    let sim = SystemSim::new(config);
    let round0 = round0_fingerprint(&sim);
    assert_eq!(
        round0, round0_pin,
        "8k round-0 drift: 0x{round0:016x} != pinned 0x{round0_pin:016x}"
    );
    let hash = fingerprint(&sim.run());
    assert_eq!(
        hash, run_pin,
        "8k run drift: 0x{hash:016x} != pinned 0x{run_pin:016x}"
    );
}

//! Cross-crate integration tests: full-system runs exercising every
//! subsystem together, checked against the paper's qualitative claims.

use continustreaming::prelude::*;

fn base(nodes: usize, seed: u64) -> SystemConfig {
    SystemConfig {
        nodes,
        rounds: 30,
        startup_segments: 40,
        seed,
        ..SystemConfig::default()
    }
}

#[test]
fn continustreaming_beats_coolstreaming_static() {
    let cool = SystemSim::new(SystemConfig {
        scheduler: SchedulerKind::CoolStreaming,
        ..base(150, 5)
    })
    .run();
    let cont = SystemSim::new(SystemConfig {
        scheduler: SchedulerKind::ContinuStreaming,
        ..base(150, 5)
    })
    .run();
    assert!(
        cont.summary.stable_continuity >= cool.summary.stable_continuity,
        "paper's headline: ContinuStreaming ({:.3}) ≥ CoolStreaming ({:.3})",
        cont.summary.stable_continuity,
        cool.summary.stable_continuity
    );
    assert!(
        cont.summary.stable_continuity > 0.8,
        "a 150-node static ContinuStreaming net should mostly play: {:.3}",
        cont.summary.stable_continuity
    );
}

/// A scheduler that does not pre-fetch never runs Algorithm 2, so a
/// full run carries no DHT rescue traffic at all.
#[test]
fn prefetch_disabled_means_no_dht_traffic() {
    let cfg = SystemConfig {
        scheduler: SchedulerKind::CoolStreaming,
        ..base(100, 13)
    };
    assert!(!cfg.scheduler.prefetches());
    let report = SystemSim::new(cfg).run();
    let mut total = TrafficCounter::new();
    for r in &report.rounds {
        total.merge(&r.traffic);
    }
    assert_eq!(total.bits(TrafficClass::PrefetchRouting), 0);
    assert_eq!(total.bits(TrafficClass::PrefetchData), 0);
}

#[test]
fn prefetch_overhead_is_minor() {
    // Paper: "increasing the playback continuity very close to 1.0 with
    // only 4% or less extra overhead."
    let cont = SystemSim::new(base(150, 6)).run();
    assert!(
        cont.summary.prefetch_overhead < 0.08,
        "pre-fetch overhead {:.4} should be a few percent",
        cont.summary.prefetch_overhead
    );
    // Control overhead below 2% (Figure 9's headline).
    assert!(
        cont.summary.control_overhead < 0.03,
        "control overhead {:.4} should be ≈ M/495",
        cont.summary.control_overhead
    );
}

#[test]
fn traffic_accounting_is_consistent() {
    let report = SystemSim::new(base(100, 7)).run();
    let mut total = TrafficCounter::new();
    for r in &report.rounds {
        total.merge(&r.traffic);
    }
    // Data traffic must equal 30 Kb per gossip delivery.
    let deliveries: u64 = report.rounds.iter().map(|r| r.gossip_deliveries).sum();
    assert_eq!(total.bits(TrafficClass::Data), deliveries * 30 * 1024);
    // Prefetch payload bits must equal 30 Kb per successful prefetch.
    let prefetches: u64 = report
        .rounds
        .iter()
        .map(|r| r.prefetch_successes as u64)
        .sum();
    assert_eq!(
        total.bits(TrafficClass::PrefetchData),
        prefetches * 30 * 1024
    );
    // Control bits are whole buffer-map multiples (620 bits each).
    assert_eq!(total.bits(TrafficClass::Control) % 620, 0);
}

#[test]
fn runs_are_reproducible_end_to_end() {
    let a = SystemSim::new(base(80, 9)).run();
    let b = SystemSim::new(base(80, 9)).run();
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.summary, b.summary);
}

#[test]
fn dynamic_churn_is_survivable_at_small_scale() {
    let report = SystemSim::new(base(120, 11).with_dynamic_churn()).run();
    let joins: usize = report.rounds.iter().map(|r| r.joins).sum();
    let leaves: usize = report.rounds.iter().map(|r| r.leaves).sum();
    assert!(
        joins > 10 && leaves > 10,
        "churn actually happened: {joins}/{leaves}"
    );
    // The stream harness survives and someone keeps playing.
    assert!(report.summary.mean_continuity > 0.1);
    assert_eq!(report.rounds.len(), 30);
}

#[test]
fn theory_brackets_small_static_simulation() {
    // §5.1: simulated PC_new should land in the general region the Poisson
    // model predicts for λ between 14 and 15 (here we only assert the
    // bracket is sane and the simulation is in the upper half).
    let hi = ContinuityModel::paper_defaults(15.0).predict();
    let lo = ContinuityModel::paper_defaults(14.0).predict();
    assert!(lo.pc_new < hi.pc_new);
    let cont = SystemSim::new(base(150, 12)).run();
    assert!(
        cont.summary.stable_continuity > 0.5 * lo.pc_new,
        "simulation {:.3} too far below theory {:.3}",
        cont.summary.stable_continuity,
        lo.pc_new
    );
}

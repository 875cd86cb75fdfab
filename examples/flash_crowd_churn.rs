//! Flash-crowd and churn scenario, expressed on the `cs-scenario`
//! engine: a live broadcast under the paper's dynamic environment (5 %
//! of nodes leave and 5 % join every scheduling period), then the same
//! broadcast hit by a genuine flash crowd — a burst of 200 joiners in
//! one round on top of heavy-tailed Weibull session churn — followed by
//! a correlated mass departure when a third of the audience loses
//! interest at once.
//!
//! The pre-scenario version of this example hand-tuned `ChurnConfig`
//! multipliers; the scenario spec expresses the same workloads
//! declaratively, and the telemetry log shows what the membership
//! machinery (RP joins, overheard lists, neighbour replacement,
//! VoD-backup handover) does under each.
//!
//! ```text
//! cargo run --release --example flash_crowd_churn
//! ```

use continustreaming::prelude::*;

fn main() {
    let nodes = 300;

    // Workload 1: the paper's dynamic environment, as baseline churn in
    // the base config (the scenario layer adds nothing — this is the
    // null scenario over a dynamic-churn config).
    let paper_dynamic = ScenarioSpec::null(
        "paper-dynamic-churn",
        SystemConfig {
            nodes,
            rounds: 30,
            id_space_slack: 8,
            ..SystemConfig::continustreaming(nodes, 99)
        }
        .with_dynamic_churn(),
    );

    // Workload 2: a real flash crowd — static baseline, a Poisson
    // trickle of heterogeneous joiners with heavy-tailed sessions, a
    // 200-node burst at round 10, and a correlated mass departure at
    // round 22.
    let mut flash = ScenarioSpec::null(
        "flash-crowd",
        SystemConfig {
            nodes,
            rounds: 30,
            id_space_slack: 8,
            ..SystemConfig::continustreaming(nodes, 99)
        },
    );
    flash.classes = vec![
        NodeClass {
            name: "dsl".into(),
            inbound_kbps: Some(600.0),
            outbound_kbps: Some(300.0),
            ping_ms: None,
            weight: 3.0,
        },
        NodeClass {
            name: "fiber".into(),
            inbound_kbps: Some(2000.0),
            outbound_kbps: Some(1000.0),
            ping_ms: Some(40.0),
            weight: 1.0,
        },
    ];
    flash.phases = vec![Phase {
        start: 0,
        end: 30,
        arrivals: ArrivalModel { poisson_rate: 2.0 },
        session: SessionModel::Weibull {
            shape: 0.7,
            scale_rounds: 20.0,
        },
        graceful_fraction: 0.5,
        classes: vec!["dsl".into(), "fiber".into()],
        vcr: VcrModel::default(),
    }];
    flash.events = vec![
        TimedEvent {
            round: 10,
            kind: ScenarioEventKind::FlashCrowd {
                count: 200,
                class: Some("dsl".into()),
            },
        },
        TimedEvent {
            round: 22,
            kind: ScenarioEventKind::MassDeparture {
                fraction: 0.33,
                correlated: true,
                graceful: false,
            },
        },
    ];

    for spec in [paper_dynamic, flash] {
        let outcome = run_scenario(&spec);
        println!("== {} ==", spec.name);
        print!("{}", outcome.log.summarize());
        // The telemetry shows *why* continuity moved: pick the round
        // after the flash crowd and report integration pressure.
        if let Some(t) = outcome.telemetry.rounds.get(11) {
            println!(
                "  round 11 diagnostics: {} active suppliers (peak load {}), \
                 mean runway {:.0} segments, window occupancy {:.2}",
                t.supplier_active, t.supplier_peak_load, t.mean_runway, t.window_occupancy
            );
        }
        println!();
    }
    println!(
        "note: sustained 5%-per-second churn is an extreme regime — the mean node\n\
         session is only ~14 s. The scenario engine's Weibull sessions model the\n\
         measured shape instead: most joiners leave within minutes while a long\n\
         tail stays for the whole broadcast."
    );
}

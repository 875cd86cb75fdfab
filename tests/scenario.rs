//! Scenario-subsystem integration: determinism, null-scenario
//! equivalence, the event hook API, and the committed spec files.
//!
//! Three layers:
//!
//! 1. **Null equivalence** — driving `SystemSim` through the scenario
//!    runner with an empty spec must be *bit-identical* to `run()`, for
//!    every pinned fingerprint scenario (static, dynamic, every
//!    scheduler). This is what makes the scenario layer trustworthy: a
//!    workload of zero events measures exactly the system the rest of
//!    the test tree pins.
//! 2. **Scenario determinism** — a rich spec (churn phases, flash
//!    crowd, VCR, capacity shifts) must reproduce byte-identical CSV and
//!    JSON exports and identical per-round fingerprints across runs.
//! 3. **Committed specs** — the `scenarios/*.scn` files parse, validate
//!    and express the workloads CI smokes.

use continustreaming::prelude::*;
use cs_bench::fingerprint::{fingerprint, scenarios};

/// Layer 1: the null scenario is the identity — for every pinned
/// scenario config, the scenario runner reproduces `SystemSim::run()`
/// exactly (records, summary, and debug serialisation).
#[test]
fn null_scenario_is_bit_identical_to_plain_run() {
    for (name, config) in scenarios() {
        let plain = SystemSim::new(config.clone()).run();
        let outcome = run_scenario(&ScenarioSpec::null(name, config));
        assert_eq!(
            plain.rounds, outcome.report.rounds,
            "`{name}`: null scenario drifted from run()"
        );
        assert_eq!(plain.summary, outcome.report.summary, "`{name}`");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&outcome.report),
            "`{name}`: fingerprint drift through the scenario driver"
        );
    }
}

fn rich_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::null(
        "rich",
        SystemConfig {
            nodes: 80,
            rounds: 25,
            startup_segments: 30,
            id_space_slack: 4,
            seed,
            ..SystemConfig::default()
        },
    );
    spec.classes = vec![
        NodeClass {
            name: "dsl".into(),
            inbound_kbps: Some(600.0),
            outbound_kbps: Some(300.0),
            ping_ms: None,
            weight: 2.0,
        },
        NodeClass {
            name: "fiber".into(),
            inbound_kbps: Some(1800.0),
            outbound_kbps: Some(900.0),
            ping_ms: Some(35.0),
            weight: 1.0,
        },
    ];
    spec.phases = vec![Phase {
        start: 2,
        end: 25,
        arrivals: ArrivalModel { poisson_rate: 1.2 },
        session: SessionModel::LogNormal {
            mu: 2.2,
            sigma: 0.8,
        },
        graceful_fraction: 0.6,
        classes: vec!["dsl".into(), "fiber".into()],
        vcr: VcrModel {
            seek_prob: 0.03,
            seek_max: 40,
            pause_prob: 0.01,
            resume_prob: 0.25,
        },
        loss: 0.0,
        crash: 0.0,
    }];
    spec.events = vec![
        TimedEvent {
            round: 8,
            kind: ScenarioEventKind::FlashCrowd {
                count: 25,
                class: Some("dsl".into()),
            },
        },
        TimedEvent {
            round: 14,
            kind: ScenarioEventKind::MassDeparture {
                fraction: 0.2,
                correlated: true,
                graceful: false,
            },
        },
        TimedEvent {
            round: 18,
            kind: ScenarioEventKind::SeekStorm {
                fraction: 0.4,
                jump: -50,
            },
        },
        TimedEvent {
            round: 20,
            kind: ScenarioEventKind::CapacityShift {
                fraction: 0.3,
                class: "dsl".into(),
            },
        },
    ];
    spec
}

/// Layer 2: same spec + seed ⇒ byte-identical exports and identical
/// round fingerprints; a different seed diverges.
#[test]
fn scenario_exports_are_byte_identical_across_runs() {
    let spec = rich_spec(31);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(a.report.rounds, b.report.rounds);
    assert_eq!(a.telemetry, b.telemetry);
    assert_eq!(a.log.to_csv(), b.log.to_csv(), "CSV export must reproduce");
    assert_eq!(
        a.log.to_json(),
        b.log.to_json(),
        "JSON export must reproduce"
    );
    assert_eq!(a.log.round_fingerprints(), b.log.round_fingerprints());
    assert_eq!(a.log.fingerprint(), b.log.fingerprint());

    let c = run_scenario(&rich_spec(32));
    assert_ne!(
        a.log.round_fingerprints(),
        c.log.round_fingerprints(),
        "a different seed must actually change the run"
    );
    // The workload did what it says: joins, leaves, seeks all happened.
    assert!(a.log.engine.joins >= 25, "flash crowd + arrivals");
    assert!(a.log.engine.leaves > 0, "mass departure + sessions");
    assert!(a.log.engine.seeks > 0, "VCR + seek storm");
    assert!(a.log.engine.capacity_changes > 0, "capacity shift");
}

/// Layer 2b: telemetry is purely observational and always on — a
/// stepped simulator, with no enable call, records real diagnostics
/// beside the same records as the plain `run()`.
#[test]
fn telemetry_collection_causes_no_drift() {
    let config = SystemConfig {
        nodes: 60,
        rounds: 15,
        startup_segments: 30,
        seed: 41,
        ..SystemConfig::default()
    }
    .with_dynamic_churn();
    let plain = SystemSim::new(config.clone()).run();
    let mut sim = SystemSim::new(config);
    while sim.step() {}
    let telemetry = sim.telemetry().clone();
    let observed = sim.finish();
    assert_eq!(plain.rounds, observed.rounds);
    assert_eq!(telemetry.rounds.len(), 15);
    // The taps recorded something real.
    let last = telemetry.rounds.last().unwrap();
    assert!(last.supplier_active > 0);
    assert!(last.mean_runway > 0.0);
    assert!(last.window_occupancy > 0.0 && last.window_occupancy <= 1.0);
    assert!(!telemetry.startups.is_empty(), "nodes started playback");
}

/// The event hook API end to end: seek/pause/resume/capacity events on
/// explicitly chosen nodes behave as documented.
#[test]
fn apply_event_hooks_behave() {
    let config = SystemConfig {
        nodes: 40,
        rounds: 30,
        startup_segments: 20,
        seed: 51,
        ..SystemConfig::default()
    };
    let mut sim = SystemSim::new(config);
    for _ in 0..12 {
        sim.step();
    }
    let source = sim.source_id();
    let victim = *sim
        .alive_ids()
        .iter()
        .find(|&&id| id != source && matches!(sim.play_state(id), Some((Some(_), false))))
        .expect("someone is playing by round 12");

    // Source is protected from every event.
    assert_eq!(
        sim.apply_event(SystemEvent::Pause { id: source }),
        EventOutcome::Rejected
    );
    assert_eq!(
        sim.apply_event(SystemEvent::Leave {
            id: source,
            graceful: true
        }),
        EventOutcome::Rejected
    );

    // Pause freezes the play point across rounds; resume unfreezes.
    let (before, _) = sim.play_state(victim).unwrap();
    assert_eq!(
        sim.apply_event(SystemEvent::Pause { id: victim }),
        EventOutcome::Applied
    );
    sim.step();
    sim.step();
    let (frozen, paused) = sim.play_state(victim).unwrap();
    assert!(paused);
    assert_eq!(before, frozen, "paused play point must hold still");
    assert_eq!(
        sim.apply_event(SystemEvent::Resume { id: victim }),
        EventOutcome::Applied
    );
    sim.step();
    let (after, paused) = sim.play_state(victim).unwrap();
    assert!(!paused);
    assert!(after > frozen, "resumed playback advances again");

    // Seeks move the anchor where they say.
    let (Some(np), _) = sim.play_state(victim).unwrap() else {
        panic!("victim is playing");
    };
    assert_eq!(
        sim.apply_event(SystemEvent::Seek {
            id: victim,
            target: SeekTarget::Backward(5),
        }),
        EventOutcome::Applied
    );
    let (Some(rewound), _) = sim.play_state(victim).unwrap() else {
        panic!("still playing");
    };
    assert!(rewound <= np, "backward seek moves the anchor back");

    assert_eq!(
        sim.apply_event(SystemEvent::Seek {
            id: victim,
            target: SeekTarget::ToLive,
        }),
        EventOutcome::Applied
    );
    let (Some(live), _) = sim.play_state(victim).unwrap() else {
        panic!("still playing");
    };
    assert!(
        live + sim.config().startup_segments >= sim.newest_segment(),
        "to-live lands near the frontier"
    );

    // A scenario join really joins; a leave really leaves.
    let before_n = sim.alive_ids().len();
    let EventOutcome::Joined(newbie) = sim.apply_event(SystemEvent::Join {
        ping_ms: Some(45.0),
        bandwidth: Some(NodeBandwidth {
            inbound_kbps: 900.0,
            outbound_kbps: 450.0,
        }),
    }) else {
        panic!("join should succeed in a healthy overlay");
    };
    assert_eq!(sim.alive_ids().len(), before_n + 1);
    assert_eq!(
        sim.apply_event(SystemEvent::Leave {
            id: newbie,
            graceful: true
        }),
        EventOutcome::Applied
    );
    assert_eq!(sim.alive_ids().len(), before_n);
    // Dead target ⇒ rejected.
    assert_eq!(
        sim.apply_event(SystemEvent::Pause { id: newbie }),
        EventOutcome::Rejected
    );
}

/// A committed fault-heavy scenario at reduced size: the workload the
/// obs tests below need (crashes, loss, retries, churn) without the
/// full CI-scale runtime.
fn lossy_obs_spec() -> ScenarioSpec {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/lossy_churn.scn")).unwrap();
    let mut spec = parse_scenario(&text).unwrap();
    spec.config.nodes = 120;
    spec.config.rounds = 60;
    spec
}

/// Obs layer 1: the structured event trace and the distribution
/// percentiles are **deterministic artifacts** — two runs of the same
/// spec produce byte-identical trace JSONL, CSV and JSON exports, and
/// the per-node continuity quantiles land in both the summary and the
/// JSON export (lower-tail convention: p99 ≤ p95 ≤ p50).
#[test]
fn obs_trace_and_percentiles_reproduce_across_runs() {
    let spec = lossy_obs_spec();
    let a = run_scenario_observed(&spec, ObsConfig::default(), |_| {});
    let b = run_scenario_observed(&spec, ObsConfig::default(), |_| {});
    let oa = a.obs.as_ref().expect("obs armed");
    let ob = b.obs.as_ref().expect("obs armed");
    assert!(
        oa.trace_events > 0,
        "a fault-heavy run must emit trace events"
    );
    assert_eq!(oa.trace_dropped, 0, "default ring must hold this run");
    assert_eq!(
        oa.trace_jsonl, ob.trace_jsonl,
        "event trace must be byte-identical across re-runs"
    );
    assert_eq!(a.log.to_csv(), b.log.to_csv());
    assert_eq!(a.log.to_json(), b.log.to_json());

    // Every trace line is one well-formed JSON object with the schema
    // the docs promise.
    for line in oa.trace_jsonl.lines() {
        for key in [
            "\"round\":",
            "\"event\":",
            "\"node\":",
            "\"aux\":",
            "\"cause\":",
        ] {
            assert!(line.contains(key), "trace line missing {key}: {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    let dist = a.report.summary.dist.as_ref().expect("dist attached");
    assert!(dist.continuity.count > 0, "nodes were measured");
    assert!(
        dist.continuity.p99 <= dist.continuity.p95 && dist.continuity.p95 <= dist.continuity.p50,
        "lower-tail ordering: {:?}",
        dist.continuity
    );
    let json = a.log.to_json();
    assert!(
        json.contains("\"distributions\"") && json.contains("\"p99\""),
        "JSON export must carry the distribution block"
    );
    assert!(
        a.log.to_csv().contains("#dist,"),
        "CSV export must carry the #dist trailer"
    );
}

/// Obs layer 3: the live monitoring endpoint serves a parseable
/// Prometheus-style text exposition **during** a run — a client
/// connecting mid-run gets the sample published for the round in
/// flight, every line of it well-formed.
#[test]
fn monitor_endpoint_serves_parseable_exposition_during_run() {
    use continustreaming::obs::serve;
    use continustreaming::scenario::metrics::exposition;
    use std::io::{Read as _, Write as _};

    let handle = serve("127.0.0.1:0").expect("bind monitor");
    let addr = handle.addr();
    let mut spec = lossy_obs_spec();
    spec.config.rounds = 30;
    let mut mid_run_body = String::new();
    let outcome = run_scenario_observed(&spec, ObsConfig::default(), |sim| {
        handle.publish(exposition(sim));
        // Fetch from inside the run, once, mid-stream.
        if sim.rounds_run() == 16 {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect mid-run");
            stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut resp = String::new();
            stream.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.0 200"), "bad status: {resp}");
            mid_run_body = resp
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .unwrap_or_default();
        }
    });
    assert_eq!(outcome.report.rounds.len(), 30);
    assert!(!mid_run_body.is_empty(), "mid-run scrape returned no body");
    assert!(mid_run_body.contains("cs_round 15"), "{mid_run_body}");
    assert!(mid_run_body.contains("cs_continuity_p99 "));
    assert!(mid_run_body.contains("cs_phase_mean_ns{"));
    // One gauge per CSV column, under the CSV name.
    let csv = outcome.log.to_csv();
    for column in csv.lines().next().unwrap().split(',') {
        let gauge = format!("\ncs_{column} ");
        assert!(mid_run_body.contains(&gauge), "no gauge for `{column}`");
    }
    // Parseable exposition: every non-comment line is `name[{labels}] value`
    // with a finite numeric value.
    for line in mid_run_body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(!name.is_empty());
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(v.is_finite(), "non-finite exposition value: {line}");
    }
}

/// Golden-file stability of the CSV export: the header (incl. the
/// policy-layer diagnostics `rescue_cap`, `suppressed_nodes`,
/// `slack_used`) is pinned byte for byte, every row has exactly the
/// header's column count, and — on the reference platform — two full
/// rows of a fixed tiny run are pinned verbatim. Any accidental
/// reordering, renaming or format change of the export trips this
/// before it silently breaks downstream consumers of the CI artifacts.
#[test]
fn csv_export_header_and_rows_are_stable() {
    const GOLDEN_HEADER: &str = "round,time_secs,alive,playing,continuous,continuity,joins,\
leaves,gossip_deliveries,requests_issued,requests_dropped,prefetch_attempts,\
prefetch_successes,prefetch_overdue,prefetch_repeated,prefetch_suppressed,mean_alpha,\
newest_emitted,mean_runway,min_runway,mean_frontier_gap,window_occupancy,supplier_active,\
supplier_peak_load,dht_routing_msgs,gc_evictions,backup_segments,rescue_cap,\
suppressed_nodes,slack_used,faults_injected,timeouts_detected,retries_issued,\
failovers,stale_repairs,mean_time_to_recover,active_sched,active_prefetch";
    let spec = ScenarioSpec::null(
        "golden",
        SystemConfig {
            nodes: 30,
            rounds: 6,
            startup_segments: 20,
            seed: 20080414,
            ..SystemConfig::default()
        },
    );
    let csv = run_scenario(&spec).log.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], GOLDEN_HEADER, "CSV header drifted");
    assert_eq!(lines.len(), 7, "header + one row per round");
    let cols = GOLDEN_HEADER.split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }
    // Full-row goldens involve floats whose last bits depend on the
    // platform libm (same policy as the pinned fingerprints).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        assert_eq!(
            lines[1],
            "0,1.0,29,0,0,0.0,0,0,50,50,0,0,0,0,0,0,0.016666666666666666,10,0.0,0,0.0,0.0,\
             1,50,0,0,7,5,0,0,0,0,0,0,0,0.0,5,0",
            "round-0 row drifted"
        );
        assert_eq!(
            lines[6],
            "5,6.0,29,29,29,1.0,0,0,328,349,21,3,3,3,0,0,0.01675287356321839,60,\
             19.655172413793103,10,50.37931034482759,0.7086206896551723,29,50,47,0,138,5,0,44,\
             0,0,0,0,0,0.0,29,3",
            "round-5 row drifted"
        );
    }
}

/// Layer 3: the committed spec files parse, validate, and carry the
/// workloads they claim (CI smokes them end to end).
#[test]
fn committed_scenario_files_parse() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    files.sort();
    let mut names = Vec::new();
    for path in &files {
        let file = path.display();
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let spec = parse_scenario(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        names.push(spec.name.clone());
        match spec.name.as_str() {
            "static" => {
                assert!(spec.events.is_empty() && spec.phases.is_empty());
                assert!(spec.config.churn.is_static());
            }
            "flash-crowd" => {
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::FlashCrowd { .. })));
                assert!(spec.events.iter().any(|e| matches!(
                    e.kind,
                    ScenarioEventKind::MassDeparture {
                        correlated: true,
                        ..
                    }
                )));
                assert!(!spec.classes.is_empty());
            }
            "heavy-vcr" => {
                assert!(spec.phases.iter().any(|p| p.vcr.seek_prob > 0.0));
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::SeekStorm { .. })));
            }
            "dynamic-churn" | "dynamic-churn-tuned" => {
                assert!(!spec.config.churn.is_static(), "5%+5% churn");
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::MassDeparture { .. })));
                assert_eq!(
                    spec.config.policy.as_adaptive().is_some(),
                    spec.name == "dynamic-churn-tuned",
                    "only the tuned spec commits a policy line"
                );
            }
            "lossy-churn" => {
                assert!(spec.config.faults.enabled(), "steady loss + crashes");
                assert!(
                    spec.config.faults.data_loss > 0.0 && spec.config.faults.control_loss > 0.0,
                    "1% loss on both paths"
                );
                assert!(spec.config.faults.crash_rate > 0.0, "0.5%/round crashes");
                let policy = spec.config.policy.as_adaptive().expect("adaptive");
                assert!(
                    policy.source_rescue_cap > 0 && policy.source_push > 0,
                    "the full recovery plane is armed"
                );
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::LossBurst { .. })));
            }
            "crash-heavy" => {
                assert!(spec.config.faults.crash_rate >= 0.01, "crash-dominated");
                assert!(spec.events.iter().any(|e| matches!(
                    e.kind,
                    ScenarioEventKind::CrashNodes {
                        correlated: true,
                        ..
                    }
                )));
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::PartitionArc { .. })));
            }
            "rp-outage" => {
                assert!(!spec.config.churn.is_static(), "join pressure via churn");
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::RpOutage { .. })));
                assert!(spec
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, ScenarioEventKind::CrashNodes { .. })));
            }
            other => panic!("unexpected scenario name `{other}`"),
        }
    }
    assert_eq!(
        names,
        [
            "crash-heavy",
            "dynamic-churn",
            "dynamic-churn-tuned",
            "flash-crowd",
            "heavy-vcr",
            "lossy-churn",
            "rp-outage",
            "static"
        ]
    );
}

/// A quick end-to-end smoke of one committed file at reduced size: the
/// flash-crowd scenario runs, grows, shrinks, and stays playable.
#[test]
fn flash_crowd_file_runs_end_to_end() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let text = std::fs::read_to_string(format!("{dir}/flash_crowd.scn")).unwrap();
    let mut spec = parse_scenario(&text).unwrap();
    // Shrink for test time; keep the workload shape.
    spec.config.nodes = 80;
    spec.config.rounds = 30;
    let outcome = run_scenario(&spec);
    assert_eq!(outcome.report.rounds.len(), 30);
    assert!(outcome.log.engine.joins > 40, "flash crowd landed");
    assert!(outcome.log.engine.leaves > 10, "mass departure landed");
    let peak = outcome.report.rounds.iter().map(|r| r.alive).max().unwrap();
    assert!(peak > 100, "membership peaked above the seed size");
    assert!(
        outcome.report.summary.mean_continuity > 0.2,
        "the swarm keeps playing through the crowd: {}",
        outcome.report.summary.mean_continuity
    );
}

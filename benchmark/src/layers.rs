//! The traced run: per-layer metrics.
//!
//! One repetition runs with the program's observability armed
//! (`ObsConfig { profile, dist, trace }`) and the benchmark's own spans
//! around every public call, between two untraced repetitions that
//! give the tracing overhead its baseline and its A/A noise floor. The
//! layer kernels run here too. Layers are the workspace crates; the
//! prefix of a metric name says which.
//!
//! On the twin workload the `core.*` and `scenario.*` metrics come
//! from the plain simulator running the same spec — the run proves the
//! two byte-identical, and `drive_twin_over` cannot be timed from
//! outside call by call — and the `twin.*` metrics from the twin
//! repetitions.

use continustreaming::core::ObsConfig;

use crate::catalog::{per_layer, phase_metric, PHASES};
use crate::kernels;
use crate::run::{
    determinism_check, health_gate, obs_invisible_check, rounds_check, setup_once, sim_rep,
    twin_equivalence_checks, twin_rep, Check, MetricValue, Rep, RunConfig, RunResult,
};
use crate::spans::Spans;
use crate::stats::{median, min_max, tail_percentile};

/// Set-up-only iterations in the traced run.
const SETUP_REPS: usize = 3;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics read off the traced simulator repetition and its spans.
fn sim_layer_metrics(traced: &Rep, spans: &Spans, out: &mut Vec<(String, f64)>) {
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let rounds = &traced.report.rounds;
    let sum = |f: &dyn Fn(&continustreaming::core::RoundRecord) -> f64| -> f64 {
        rounds.iter().map(f).sum()
    };
    let tele = |f: &dyn Fn(&continustreaming::core::TelemetryRound) -> f64| -> f64 {
        traced.telemetry.rounds.iter().map(f).sum()
    };

    // cs-scenario.
    put("scenario.drive_s", spans.total_s("scenario.drive_round"));
    let e = traced.engine;
    put(
        "scenario.events_applied",
        (e.joins + e.leaves + e.seeks + e.pauses + e.resumes + e.capacity_changes + e.crashes)
            as f64,
    );
    put("scenario.export_s", spans.total_s("scenario.export"));
    put(
        "scenario.export_bytes",
        (traced.csv.len() + traced.json.len()) as f64,
    );

    // cs-dht / cs-overlay work the run caused.
    put("dht.routing_msgs", tele(&|t| t.dht_routing_msgs as f64));
    put("overlay.joins", sum(&|r| r.joins as f64));
    put("overlay.joins_rejected", e.joins_rejected as f64);
    put("overlay.leaves", sum(&|r| r.leaves as f64));

    // cs-core: the step spans …
    let step_ns = spans.durations_ns("core.step");
    let step_ms: Vec<f64> = step_ns.iter().map(|ns| ns / 1e6).collect();
    let step_s = spans.total_s("core.step");
    put("core.step_s", step_s);
    put("core.step_p50_ms", median(&step_ms));
    let (pct, tail) = tail_percentile(&step_ms);
    put("core.step_tail_ms", tail);
    put("core.step_tail_pct", pct);
    put("core.step_max_ms", min_max(&step_ms).1);
    put("core.finish_s", spans.total_s("core.finish"));

    // … the program's own phase profiler …
    let phases = traced.obs.as_ref().map_or(&[][..], |o| &o.phases[..]);
    let mut phase_sum = 0.0;
    for p in PHASES {
        let row = phases.iter().find(|r| r.name == p);
        let total_s = row.map_or(0.0, |r| r.mean_ns * r.count as f64 / 1e9);
        phase_sum += total_s;
        put(&phase_metric(p), total_s);
        if p == "prefetch_exec" {
            put(
                "core.phase.prefetch_exec_max_ms",
                row.map_or(0.0, |r| r.max_ns as f64 / 1e6),
            );
        }
    }
    put("core.phase_sum_vs_step", ratio(phase_sum, step_s));

    // … and counts with their waste ratios.
    let issued = sum(&|r| r.requests_issued as f64);
    put("core.requests_issued", issued);
    put(
        "core.request_drop_ratio",
        ratio(sum(&|r| r.requests_dropped as f64), issued),
    );
    put(
        "core.gossip_deliveries",
        sum(&|r| r.gossip_deliveries as f64),
    );
    let attempts = sum(&|r| r.prefetch_attempts as f64);
    put("core.prefetch_attempts", attempts);
    put(
        "core.prefetch_success_ratio",
        ratio(sum(&|r| r.prefetch_successes as f64), attempts),
    );
    put(
        "core.prefetch_suppressed",
        sum(&|r| r.prefetch_suppressed as f64),
    );
    let alive = sum(&|r| r.alive as f64);
    put(
        "core.active_sched_frac",
        ratio(tele(&|t| t.active_sched as f64), alive),
    );
    put(
        "core.active_prefetch_frac",
        ratio(tele(&|t| t.active_prefetch as f64), alive),
    );
    put("core.faults_injected", tele(&|t| t.faults_injected as f64));
    put("core.timeouts", tele(&|t| t.timeouts_detected as f64));
    put("core.retries", tele(&|t| t.retries_issued as f64));
    put("core.failovers", tele(&|t| t.failovers as f64));
    let deadlines = sum(&|r| r.playing as f64);
    put("core.deadlines", deadlines);
    put(
        "core.deadlines_missed",
        deadlines - sum(&|r| r.continuous as f64),
    );

    // cs-net: the paper's §5.3 overhead ratios (simulated).
    put(
        "net.control_overhead",
        traced.report.summary.control_overhead,
    );
    put(
        "net.prefetch_overhead",
        traced.report.summary.prefetch_overhead,
    );

    // cs-obs.
    let obs = traced.obs.as_ref();
    put(
        "obs.trace_events",
        obs.map_or(0.0, |o| o.trace_events as f64),
    );
    put(
        "obs.trace_dropped",
        obs.map_or(0.0, |o| o.trace_dropped as f64),
    );
    put(
        "obs.continuity_p99",
        obs.and_then(|o| o.dist.as_ref())
            .map_or(0.0, |d| d.continuity.p99),
    );
}

/// The traced run of one workload.
pub fn run_traced(cfg: &RunConfig, text: &str) -> RunResult {
    let w = cfg.workload;
    let (nodes, rounds) = w.size(cfg.scale);
    let mut spans = Spans::new(w.name());
    let mut values: Vec<(String, f64)> = Vec::new();

    let setups: Vec<_> = (0..SETUP_REPS)
        .map(|_| spans.time("setup", || setup_once(text, w.is_twin())))
        .collect();
    values.push((
        "scenario.parse_us".into(),
        median(&setups.iter().map(|s| s.parse_s * 1e6).collect::<Vec<_>>()),
    ));
    values.push((
        "core.init_s".into(),
        median(&setups.iter().map(|s| s.init_s).collect::<Vec<_>>()),
    ));

    // Untraced, traced, untraced: the two untraced repetitions bracket
    // the traced one, so their disagreement is the noise floor the
    // overhead has to be read against.
    let plain_a = sim_rep(text, None, None);
    spans.enter("rep.traced");
    let traced = sim_rep(text, Some(ObsConfig::default()), Some(&mut spans));
    spans.exit();
    let plain_b = sim_rep(text, None, None);
    sim_layer_metrics(&traced, &spans, &mut values);
    let plain_loop = (plain_a.loop_s + plain_b.loop_s) / 2.0;
    values.push((
        "obs.overhead_frac".into(),
        (traced.loop_s - plain_loop) / plain_loop,
    ));
    values.push((
        "obs.aa_noise_frac".into(),
        (plain_a.loop_s - plain_b.loop_s).abs() / plain_loop,
    ));

    let mut checks = vec![
        determinism_check(&[plain_a.export_hashes(), plain_b.export_hashes()]),
        rounds_check(&traced, rounds),
        obs_invisible_check(&traced, &plain_a),
    ];
    checks.extend(health_gate(w, cfg.scale, &traced.report));
    let phase_ratio = values
        .iter()
        .find(|(n, _)| n == "core.phase_sum_vs_step")
        .map_or(0.0, |(_, v)| *v);
    checks.push(Check::new(
        "phase_sum_vs_step",
        (0.90..=1.10).contains(&phase_ratio),
        format!("profiler phases sum to {phase_ratio:.3} of the step spans (0.90–1.10 allowed)"),
    ));

    // cs-twin.
    let mut twin_values = [0.0; 7];
    if w.is_twin() {
        let twin_plain = twin_rep(text, None, None);
        spans.enter("rep.twin_traced");
        let twin_traced = twin_rep(text, Some(ObsConfig::default()), Some(&mut spans));
        spans.exit();
        checks.extend(twin_equivalence_checks(&twin_plain, &plain_a));
        checks.extend(twin_equivalence_checks(&twin_traced, &traced));
        let c = twin_traced.twin.expect("twin counters");
        twin_values = [
            c.send_s,
            c.poll_s,
            c.transport.sent as f64,
            c.transport.delivered as f64,
            c.late as f64,
            c.divergences as f64,
            twin_plain.wall_s / ((plain_a.wall_s + plain_b.wall_s) / 2.0),
        ];
    }
    let twin_names = [
        "twin.send_s",
        "twin.poll_s",
        "twin.sent",
        "twin.delivered",
        "twin.late",
        "twin.divergences",
        "twin.vs_sim_ratio",
    ];
    values.extend(twin_names.iter().map(|n| n.to_string()).zip(twin_values));

    values.extend(
        kernels::run(nodes, cfg.scale, cfg.seed, &mut spans)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v)),
    );

    // Report in catalogue order; a metric the catalogue names and the
    // run did not produce is a bug in this file.
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .1;
            MetricValue { name, value, unit }
        })
        .collect();
    let attempted = plain_a.node_rounds() + traced.node_rounds() + plain_b.node_rounds();
    RunResult {
        config: *cfg,
        metrics,
        attempted,
        checks,
        samples: Vec::new(),
        spans: Some(spans.to_json()),
    }
}

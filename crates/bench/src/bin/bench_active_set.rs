//! Wall-clock + occupancy recorder for the round loop at large N,
//! emitting a `BENCH_active_set.json`-shaped record.
//!
//! A node with nothing to pull and nothing to pre-fetch costs the round
//! a few word loads — the planners' own first step proves it (see
//! `cs_core::system`) — so steady-state round cost should track the
//! nodes that have work, not the overlay size `N`. Two workloads bracket
//! that:
//!
//! * **all-playing** — every node's play anchor advances every round,
//!   so every node has fresh input every round and nearly all of `N` is
//!   active: the dense case.
//! * **steady-paused** — after warm-up a large fraction of viewers
//!   pause (`--pause-frac`, applied before round `--pause-round`).
//!   A paused node's window freezes; once buffered it has nothing to
//!   do, and round cost detaches from `N`.
//!
//! The per-round tables (time, nodes that scheduled / pre-fetched) make
//! the scaling visible in data rather than as a single averaged claim;
//! each workload's `RunReport` fingerprint is printed and recorded. At
//! `--nodes 2000 --rounds 60 --pause-round 30` they are the two
//! `active_set_*` rows of `cs_bench::fingerprint::PINS`, which the
//! `fingerprint` binary computes with the same `PausePlan`.
//!
//! ```text
//! cargo run -p cs-bench --release --bin bench_active_set
//! cargo run -p cs-bench --release --bin bench_active_set -- \
//!     --nodes 100000 --rounds 200 --json BENCH_active_set.json
//! ```

use std::time::Instant;

use cs_bench::fingerprint::{fingerprint, PausePlan};
use cs_core::{ObsConfig, PhaseRow, SchedulerKind, SystemConfig, SystemSim, Telemetry};

fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name && i + 1 < args.len() {
            return args[i + 1]
                .parse()
                .unwrap_or_else(|_| panic!("{name} takes an integer"));
        }
    }
    default
}

fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name && i + 1 < args.len() {
            return args[i + 1]
                .parse()
                .unwrap_or_else(|_| panic!("{name} takes a number"));
        }
    }
    default
}

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name && i + 1 < args.len() {
            return Some(args[i + 1].clone());
        }
    }
    None
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

struct TimedRun {
    total_ms: f64,
    round_ms: Vec<f64>,
    fingerprint: u64,
    telemetry: Telemetry,
    paused: usize,
    phases: Vec<PhaseRow>,
}

fn timed_run(config: &SystemConfig, pause: PausePlan) -> TimedRun {
    let mut sim = SystemSim::new(config.clone());
    // For the phase breakdown; the distributions and the event trace
    // that arm with it go unreported.
    sim.enable_obs(ObsConfig::default());
    let mut round_ms = Vec::with_capacity(config.rounds as usize);
    let mut paused = 0usize;
    let t0 = Instant::now();
    loop {
        paused += pause.apply(&mut sim);
        if sim.rounds_run() == config.rounds / 2 {
            // Steady-window means: drop warm-up (and the pause wave)
            // from the profiler, matching `steady_mean`'s last-half
            // convention.
            if let Some(o) = sim.obs_mut() {
                o.reset_timings();
            }
        }
        let r0 = Instant::now();
        if !sim.step() {
            break;
        }
        round_ms.push(r0.elapsed().as_secs_f64() * 1000.0);
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let telemetry = sim.telemetry().clone();
    let phases = sim.take_obs_report().map(|r| r.phases).unwrap_or_default();
    let report = sim.finish();
    TimedRun {
        total_ms,
        round_ms,
        fingerprint: fingerprint(&report),
        telemetry,
        paused,
        phases,
    }
}

/// Mean over the steady-state window: the last half of the run, where
/// startup buffering is over and the audience mix is settled.
fn steady_mean(values: &[f64]) -> f64 {
    let tail = &values[values.len() / 2..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

struct Workload {
    name: &'static str,
    run: TimedRun,
}

/// Scheduling active-set size per round, for [`steady_mean`].
fn active_sched(run: &TimedRun) -> Vec<f64> {
    run.telemetry
        .rounds
        .iter()
        .map(|r| r.active_sched as f64)
        .collect()
}

fn run_workload(name: &'static str, config: &SystemConfig, pause: PausePlan) -> Workload {
    let nodes = config.nodes;
    let rounds = config.rounds;
    eprintln!("bench_active_set [{name}]: {nodes} nodes x {rounds} rounds");
    let run = timed_run(config, pause);
    println!(
        "[{name}] total {:.1} ms, steady round {:.2} ms, steady active {:.0}/{} nodes, fingerprint 0x{:016x}",
        run.total_ms,
        steady_mean(&run.round_ms),
        steady_mean(&active_sched(&run)),
        nodes,
        run.fingerprint
    );
    Workload { name, run }
}

fn main() {
    let nodes = arg_u64("--nodes", 100_000) as usize;
    let rounds = arg_u64("--rounds", 200) as u32;
    let json_path = arg_str("--json");
    let skip_dense = has_flag("--skip-dense");
    let pause_frac = arg_f64("--pause-frac", 0.8);
    let pause_round = arg_u64("--pause-round", 40) as u32;

    let config = SystemConfig {
        nodes,
        rounds,
        scheduler: SchedulerKind::ContinuStreaming,
        seed: 20080414,
        ..SystemConfig::default()
    };

    // keep_every: keep 1-in-k playing => paused fraction ~ 1 - 1/k.
    let keep_every = (1.0 / (1.0 - pause_frac).max(1e-9)).round().max(1.0) as usize;
    let pause = PausePlan {
        round: pause_round.min(rounds.saturating_sub(1)),
        keep_every,
    };

    let dense = if skip_dense {
        None
    } else {
        let everyone = PausePlan {
            keep_every: 1,
            ..pause
        };
        Some(run_workload("all-playing", &config, everyone))
    };
    // `--pause-frac 0` drops the steady-audience workload.
    let steady = if pause_frac > 0.0 {
        Some(run_workload("steady-paused", &config, pause))
    } else {
        None
    };

    let Some(path) = json_path else { return };
    let ms = |v: f64| format!("{v:.2}");
    let ns = |v: f64| format!("{v:.0}");
    let phase_rows = |run: &TimedRun| {
        run.phases
            .iter()
            .map(|r| {
                format!(
                    "      {{ \"phase\": \"{}\", \"count\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p99_ns\": {} }}",
                    r.name,
                    r.count,
                    ns(r.mean_ns),
                    ns(r.min_ns as f64),
                    ns(r.max_ns as f64),
                    ns(r.p99_ns as f64),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workload_block = |w: &Workload| {
        let run = &w.run;
        let round_rows = run
            .telemetry
            .rounds
            .iter()
            .map(|r| {
                let t = run.round_ms.get(r.round as usize).copied().unwrap_or(0.0);
                format!(
                    "      {{ \"round\": {}, \"ms\": {}, \"playing\": {}, \"active_sched\": {}, \"active_prefetch\": {} }}",
                    r.round,
                    ms(t),
                    r.playing,
                    r.active_sched,
                    r.active_prefetch
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n    \"name\": \"{}\",\n    \"paused\": {},\n    \"total_ms\": {},\n    \"steady_round_ms\": {},\n    \"steady_active_sched\": {:.1},\n    \"fingerprint\": \"0x{:016x}\",\n    \"phase_breakdown\": [\n{}\n    ],\n    \"rounds\": [\n{}\n    ]\n  }}",
            w.name,
            run.paused,
            ms(run.total_ms),
            ms(steady_mean(&run.round_ms)),
            steady_mean(&active_sched(run)),
            run.fingerprint,
            phase_rows(run),
            round_rows,
        )
    };
    let workloads = dense
        .iter()
        .chain(steady.iter())
        .map(workload_block)
        .collect::<Vec<_>>()
        .join(",\n  ");
    let json = format!(
        "{{\n  \"bench\": \"bench_active_set\",\n  \"config\": {{ \"nodes\": {nodes}, \"rounds\": {rounds}, \"scheduler\": \"ContinuStreaming\", \"prefetch\": true, \"churn\": \"default-static\", \"policy\": \"legacy\", \"faults\": \"inert\", \"seed\": 20080414, \"pause_frac\": {pause_frac}, \"pause_round\": {pause_round} }},\n  \"workloads\": [\n  {}\n  ]\n}}\n",
        workloads,
    );
    std::fs::write(&path, json).expect("write json record");
    eprintln!("wrote {path}");
}

//! Run a scenario spec file end to end and export its metrics.
//!
//! ```text
//! cargo run --release --example scenario_runner -- scenarios/flash_crowd.scn
//! cargo run --release --example scenario_runner -- scenarios/heavy_vcr.scn \
//!     --csv vcr.csv --json vcr.json
//! cargo run --release --example scenario_runner -- scenarios/dynamic_churn.scn \
//!     --policy adaptive --csv churn_adaptive.csv
//! cargo run --release --example scenario_runner -- scenarios/lossy_churn.scn \
//!     --trace trace.jsonl --profile-json profile.json \
//!     --monitor-addr 127.0.0.1:9464
//! ```
//!
//! Prints the human summary to stdout; `--csv`/`--json` write the full
//! per-round exports (the CI scenario-smoke job uploads the JSON as an
//! artifact). `--policy legacy|adaptive` overrides the spec's continuity
//! policy; `--nodes`/`--rounds` override the spec's size (how CI runs
//! the full scenarios at smoke scale).
//!
//! Observability (any of these arms the obs layer; `--obs` arms it
//! bare):
//!
//! * `--trace FILE` — write the structured event trace as JSON lines
//!   (join/leave/crash/failover/retry/rescue/rewire events with round,
//!   node and cause). Byte-identical across re-runs and thread counts.
//! * `--profile-json FILE` — write the per-phase round profiler
//!   breakdown (mean/min/max/p99 ns per phase).
//! * `--monitor-addr ADDR` — serve live Prometheus-style text
//!   exposition (`curl http://ADDR/` mid-run); one snapshot per round.
//!   `--monitor-linger-secs N` keeps serving the final snapshot for N
//!   seconds after the run so a scraper can catch the end state.
//!
//! CI gates (exit 1 on FAIL, exit 2 on usage errors; both **fail
//! closed** — a run whose gated quantity is undefined, e.g. a stable
//! window with no playing node ever, fails instead of vacuously
//! passing):
//!
//! * `--min-continuity F` — the run's mean continuity must be ≥ F.
//! * `--min-p99-continuity F` — 99 % of measured nodes must keep
//!   per-node continuity ≥ F over the distribution window (arms obs).
//!
//! The run is deterministic in the spec (+ overrides): re-running
//! produces byte-identical CSV/JSON/trace exports (timings excluded).

use continustreaming::obs::{render_prometheus, serve, MonitorSample};
use continustreaming::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_runner <spec.scn> [--csv out.csv] [--json out.json]\n\
         \x20      [--policy legacy|adaptive] [--nodes N] [--rounds N]\n\
         \x20      [--obs] [--trace out.jsonl] [--profile-json out.json]\n\
         \x20      [--monitor-addr host:port] [--monitor-linger-secs N]\n\
         \x20      [--min-continuity F] [--min-p99-continuity F]"
    );
    std::process::exit(2);
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse().unwrap_or_else(|e| {
        eprintln!("{flag} `{v}`: {e}");
        std::process::exit(2);
    })
}

#[derive(Default)]
struct Args {
    spec_path: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    policy: Option<String>,
    nodes: Option<usize>,
    rounds: Option<u32>,
    obs: bool,
    trace: Option<String>,
    profile_json: Option<String>,
    monitor_addr: Option<String>,
    monitor_linger_secs: u64,
    min_continuity: Option<f64>,
    min_p99_continuity: Option<f64>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        // Every flag but `--obs` takes a value; a flag at the end of
        // the line (or followed by another flag) is a usage error, not
        // a silently skipped option — `--min-continuity` with its
        // value lost to shell quoting used to make the gate vanish and
        // the runner exit 0.
        let value = || -> String {
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        };
        match flag {
            "--obs" => {
                a.obs = true;
                i += 1;
                continue;
            }
            "--csv" => a.csv = Some(value()),
            "--json" => a.json = Some(value()),
            "--policy" => a.policy = Some(value()),
            "--nodes" => a.nodes = Some(parse_or_exit(flag, &value())),
            "--rounds" => a.rounds = Some(parse_or_exit(flag, &value())),
            "--trace" => a.trace = Some(value()),
            "--profile-json" => a.profile_json = Some(value()),
            "--monitor-addr" => a.monitor_addr = Some(value()),
            "--monitor-linger-secs" => a.monitor_linger_secs = parse_or_exit(flag, &value()),
            "--min-continuity" => a.min_continuity = Some(parse_or_exit(flag, &value())),
            "--min-p99-continuity" => a.min_p99_continuity = Some(parse_or_exit(flag, &value())),
            _ if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            _ => {
                if a.spec_path.is_some() {
                    eprintln!("more than one spec path given");
                    usage();
                }
                a.spec_path = Some(flag.to_string());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    a
}

/// Assemble a live monitoring snapshot from the simulator's public
/// accessors plus the cumulative fault counters folded so far.
fn build_sample(sim: &SystemSim, faults: &[u64; 5]) -> MonitorSample {
    let mut s = MonitorSample::default();
    if let Some(r) = sim.records().last() {
        s.round = r.round as u64;
        s.alive = r.alive as u64;
        s.playing = r.playing as u64;
        s.continuity = r.continuity;
    }
    let (sched, prefetch) = sim.active_set_sizes();
    s.active_sched = sched as u64;
    s.active_prefetch = prefetch as u64;
    if let Some(o) = sim.obs() {
        if o.dist_enabled() {
            s.dist = Some(o.partial_dist());
        }
        s.phases = o.profiler.rows();
        s.trace_events = o.events.len() as u64;
        s.trace_dropped = o.events.dropped();
    }
    [
        s.faults_crashes,
        s.faults_timeouts,
        s.faults_retries,
        s.faults_failovers,
        s.faults_recoveries,
    ] = *faults;
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let Some(path) = args.spec_path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut spec = parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    if let Some(policy) = &args.policy {
        spec.config.policy = match policy.as_str() {
            "legacy" => PolicyKind::Legacy,
            "adaptive" => PolicyKind::adaptive(),
            other => {
                eprintln!("unknown --policy `{other}` (legacy|adaptive)");
                std::process::exit(2);
            }
        };
    }
    if let Some(n) = args.nodes {
        spec.config.nodes = n;
    }
    if let Some(r) = args.rounds {
        spec.config.rounds = r;
    }
    // The overrides above bypass the parser's validation.
    if let Err(e) = spec.validate() {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    }

    eprintln!(
        "running `{}`: {} nodes x {} rounds, seed {}, spec 0x{:016x}",
        spec.name,
        spec.config.nodes,
        spec.config.rounds,
        spec.config.seed,
        spec.fingerprint()
    );

    let obs_on = args.obs
        || args.trace.is_some()
        || args.profile_json.is_some()
        || args.monitor_addr.is_some()
        || args.min_p99_continuity.is_some();
    let monitor = args.monitor_addr.as_deref().map(|addr| {
        let handle = serve(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind monitor on {addr}: {e}");
            std::process::exit(2);
        });
        eprintln!("monitor serving on http://{}/", handle.addr());
        handle
    });

    let outcome = if obs_on {
        // Fold the fault trace incrementally (one new record per
        // round) into cumulative counters for the monitor.
        let mut faults = [0u64; 5];
        let mut folded = 0usize;
        outcome_with_obs(&spec, |sim| {
            if let Some(m) = &monitor {
                for r in &sim.fault_trace().rounds[folded..] {
                    faults[0] += r.crashes as u64;
                    faults[1] += r.timeouts as u64;
                    faults[2] += r.retries as u64;
                    faults[3] += r.failovers as u64;
                    faults[4] += r.recoveries as u64;
                }
                folded = sim.fault_trace().rounds.len();
                m.publish(render_prometheus(&build_sample(sim, &faults)));
            }
        })
    } else {
        run_scenario(&spec)
    };
    print!("{}", outcome.log.summarize());
    if !outcome.fault_trace.is_empty() {
        println!(
            "  fault trace: {} rounds, digest 0x{:016x}",
            outcome.fault_trace.rounds.len(),
            outcome.fault_trace.digest()
        );
    }

    if let Some(csv_path) = &args.csv {
        std::fs::write(csv_path, outcome.log.to_csv()).expect("write csv");
        eprintln!("wrote {csv_path}");
    }
    if let Some(json_path) = &args.json {
        std::fs::write(json_path, outcome.log.to_json()).expect("write json");
        eprintln!("wrote {json_path}");
    }
    if let Some(obs_report) = &outcome.obs {
        if let Some(trace_path) = &args.trace {
            std::fs::write(trace_path, &obs_report.trace_jsonl).expect("write trace");
            eprintln!(
                "wrote {trace_path} ({} events, {} dropped)",
                obs_report.trace_events, obs_report.trace_dropped
            );
        }
        if let Some(profile_path) = &args.profile_json {
            let mut out = String::new();
            out.push_str(&format!(
                "{{\n  \"scenario\": {:?},\n  \"phases\": [\n",
                spec.name
            ));
            for (i, row) in obs_report.phases.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"phase\": \"{}\", \"count\": {}, \"mean_ns\": {:.1}, \
                     \"min_ns\": {}, \"max_ns\": {}, \"p99_ns\": {}}}{}\n",
                    row.name,
                    row.count,
                    row.mean_ns,
                    row.min_ns,
                    row.max_ns,
                    row.p99_ns,
                    if i + 1 < obs_report.phases.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("  ]\n}\n");
            std::fs::write(profile_path, out).expect("write profile json");
            eprintln!("wrote {profile_path}");
        }
    }
    if let Some(m) = &monitor {
        if args.monitor_linger_secs > 0 {
            eprintln!(
                "monitor lingering {}s on http://{}/",
                args.monitor_linger_secs,
                m.addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(args.monitor_linger_secs));
        }
    }

    let mut failed = false;
    if let Some(threshold) = args.min_continuity {
        match mean_continuity_gate(&outcome.report) {
            Ok(mean) if mean >= threshold => {
                eprintln!("mean continuity {mean:.4} >= required {threshold:.4}");
            }
            Ok(mean) => {
                eprintln!("FAIL: mean continuity {mean:.4} < required {threshold:.4}");
                failed = true;
            }
            Err(why) => {
                eprintln!("FAIL: --min-continuity gate: {why}");
                failed = true;
            }
        }
    }
    if let Some(threshold) = args.min_p99_continuity {
        match p99_continuity_gate(&outcome.report.summary) {
            Ok(p99) if p99 >= threshold => {
                eprintln!("p99 per-node continuity {p99:.4} >= required {threshold:.4}");
            }
            Ok(p99) => {
                eprintln!("FAIL: p99 per-node continuity {p99:.4} < required {threshold:.4}");
                failed = true;
            }
            Err(why) => {
                eprintln!("FAIL: --min-p99-continuity gate: {why}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn outcome_with_obs(
    spec: &ScenarioSpec,
    on_round: impl FnMut(&SystemSim),
) -> continustreaming::scenario::ScenarioOutcome {
    run_scenario_observed(spec, ObsConfig::default(), on_round)
}

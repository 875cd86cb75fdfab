//! Run a scenario spec file end to end — through the simulator or, with
//! `--twin`, through the live-network twin — and export its metrics.
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
//! cargo run --release --example scenario_runner -- scenarios/lossy_churn.scn \
//!     --twin --latency-ms 50 --jitter-ms 30 \
//!     --trace twin_trace.jsonl --compare-sim
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
//! * `--trace FILE` — write the structured event trace — the decision
//!   log — as JSON lines (join/leave/crash/failover/retry/rescue/rewire
//!   events with round, node and cause). Byte-identical across re-runs
//!   and between the simulator and the twin.
//! * `--profile-json FILE` — write the per-phase round profiler
//!   breakdown (mean/min/max/p99 ns per phase).
//! * `--monitor-addr ADDR` — serve live Prometheus-style text
//!   exposition (`curl http://ADDR/` mid-run); one snapshot per round,
//!   under `--twin` with per-node transport counters
//!   (`cs_twin_node_{sent,received,late,divergences}{node="…"}`).
//!   `--monitor-linger-secs N` keeps serving the final snapshot for N
//!   seconds after the run so a scraper can catch the end state.
//!
//! The twin (`--twin`; the flags below are usage errors without it) runs
//! the same rounds with the buffer-map exchange moved over `cs-twin`'s
//! deterministic in-process transport:
//!
//! * `--latency-ms F` / `--jitter-ms F` / `--link-seed N` — the link
//!   catalogue: every link gets `latency + [0, jitter]` of deterministic
//!   per-pair spread (default 50 + 0). Keep `latency + jitter` below the
//!   round period for the equivalence profile.
//! * `--compare-sim` — also run the plain simulator on the same spec
//!   and byte-compare decision logs, fault traces, reports and metric
//!   exports (arms obs).
//!
//! Exit codes: 0 ok; 1 a gate, the `--compare-sim` comparison or the
//! twin's wire-content check failed; 2 usage or spec error. The gates
//! **fail closed** — a run whose gated quantity is undefined, e.g. a
//! stable window with no playing node ever, fails instead of vacuously
//! passing:
//!
//! * `--min-continuity F` — the run's mean continuity must be ≥ F.
//! * `--min-p99-continuity F` — 99 % of measured nodes must keep
//!   per-node continuity ≥ F over the distribution window (arms obs).
//!
//! The run is deterministic in the spec (+ overrides): re-running
//! produces byte-identical CSV/JSON/trace exports (timings excluded).

use continustreaming::obs::{render_twin_nodes, serve, MonitorHandle};
use continustreaming::prelude::*;
use continustreaming::scenario::metrics::{exposition, json_string};
use continustreaming::scenario::ScenarioOutcome;
use continustreaming::twin::TwinRoundStats;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_runner <spec.scn> [--csv out.csv] [--json out.json]\n\
         \x20      [--policy legacy|adaptive] [--nodes N] [--rounds N]\n\
         \x20      [--obs] [--trace out.jsonl] [--profile-json out.json]\n\
         \x20      [--monitor-addr host:port] [--monitor-linger-secs N]\n\
         \x20      [--min-continuity F] [--min-p99-continuity F]\n\
         \x20      [--twin [--latency-ms F] [--jitter-ms F] [--link-seed N]\n\
         \x20              [--compare-sim]]"
    );
    std::process::exit(2);
}

/// A usage or spec error: one line on stderr, exit 2.
fn exit_2(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .unwrap_or_else(|e| exit_2(format_args!("{flag} `{v}`: {e}")))
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
    twin: bool,
    latency_ms: Option<f64>,
    jitter_ms: Option<f64>,
    link_seed: Option<u64>,
    compare_sim: bool,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        // Every flag but the three switches takes a value; a flag at the
        // end of the line (or followed by another flag) is a usage
        // error, not a silently skipped option — `--min-continuity` with
        // its value lost to shell quoting used to make the gate vanish
        // and the runner exit 0.
        let value = || -> String {
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => exit_2(format_args!("{flag} requires a value")),
            }
        };
        let switch = match flag {
            "--obs" => Some(&mut a.obs),
            "--twin" => Some(&mut a.twin),
            "--compare-sim" => Some(&mut a.compare_sim),
            _ => None,
        };
        if let Some(on) = switch {
            *on = true;
            i += 1;
            continue;
        }
        match flag {
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
            "--latency-ms" => a.latency_ms = Some(parse_or_exit(flag, &value())),
            "--jitter-ms" => a.jitter_ms = Some(parse_or_exit(flag, &value())),
            "--link-seed" => a.link_seed = Some(parse_or_exit(flag, &value())),
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
    let twin_only = [
        ("--latency-ms", a.latency_ms.is_some()),
        ("--jitter-ms", a.jitter_ms.is_some()),
        ("--link-seed", a.link_seed.is_some()),
        ("--compare-sim", a.compare_sim),
    ];
    if let Some((flag, _)) = twin_only.iter().find(|(_, given)| *given && !a.twin) {
        exit_2(format_args!("{flag} requires --twin"));
    }
    a
}

/// Read, parse and override the spec; every way it can be unusable is a
/// one-line exit 2.
fn load_spec(path: &str, args: &Args) -> ScenarioSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| exit_2(format_args!("cannot read {path}: {e}")));
    let mut spec = parse_scenario(&text).unwrap_or_else(|e| exit_2(format_args!("{path}: {e}")));
    if let Some(policy) = &args.policy {
        spec.config.policy = match policy.as_str() {
            "legacy" => PolicyKind::Legacy,
            "adaptive" => PolicyKind::adaptive(),
            other => exit_2(format_args!("unknown --policy `{other}` (legacy|adaptive)")),
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
        exit_2(format_args!("{path}: {e}"));
    }
    spec
}

/// The twin's configuration from the link flags. `--latency-ms` and
/// `--jitter-ms` must be finite and non-negative, and small enough that
/// no delivery instant of the run overflows the simulated clock.
fn twin_config(args: &Args, spec: &ScenarioSpec) -> TwinConfig {
    let link_ms = |flag: &str, ms: Option<f64>, default: f64| {
        let ms = ms.unwrap_or(default);
        if !(ms.is_finite() && ms >= 0.0) {
            exit_2(format_args!(
                "{flag} `{ms}`: must be finite and non-negative"
            ));
        }
        SimDuration::from_secs_f64(ms / 1e3)
    };
    let latency = link_ms("--latency-ms", args.latency_ms, 50.0);
    let jitter = link_ms("--jitter-ms", args.jitter_ms, 0.0);
    let run = SimDuration::from_secs_f64(SystemConfig::PERIOD_SECS)
        .saturating_mul(spec.config.rounds as u64);
    let fits = latency
        .as_micros()
        .checked_add(jitter.as_micros())
        .and_then(|link| link.checked_add(run.as_micros()));
    if fits.is_none() {
        exit_2(format_args!(
            "--latency-ms + --jitter-ms: {latency} + {jitter} does not fit a SimDuration \
             within the run's {run}"
        ));
    }
    let links = if jitter.is_zero() {
        LinkCatalog::uniform(latency)
    } else {
        LinkCatalog::jittered(latency, jitter, args.link_seed.unwrap_or(spec.config.seed))
    };
    TwinConfig {
        links,
        ..TwinConfig::default()
    }
}

/// Publish one round's snapshot; a twin round adds its per-node
/// transport rows.
fn publish(monitor: &MonitorHandle, sim: &SystemSim, twin: Option<&TwinRoundStats>) {
    let mut body = exposition(sim);
    if let Some(t) = twin {
        body.push_str(&render_twin_nodes(&t.nodes));
    }
    monitor.publish(body);
}

/// The twin's wire-level outcome, printed under the summary.
struct TwinWire {
    line: String,
    divergences: u64,
}

/// Run the spec: simulator or twin, observed or bare.
fn run(
    spec: &ScenarioSpec,
    twin_cfg: Option<&TwinConfig>,
    obs_on: bool,
    monitor: Option<&MonitorHandle>,
) -> (ScenarioOutcome, Option<TwinWire>) {
    let on_round = |sim: &SystemSim, twin: Option<&TwinRoundStats>| {
        if let Some(m) = monitor {
            publish(m, sim, twin);
        }
    };
    let obs = ObsConfig::default();
    let t = match (twin_cfg, obs_on) {
        (None, false) => return (run_scenario(spec), None),
        (None, true) => {
            let outcome = run_scenario_observed(spec, obs, |sim| on_round(sim, None));
            return (outcome, None);
        }
        (Some(cfg), false) => run_twin(spec, cfg),
        (Some(cfg), true) => run_twin_observed(spec, cfg, obs, |sim, t| on_round(sim, Some(t))),
    };
    let line = format!(
        "  twin transport: {} sent ({} loopback), {} delivered, {} lost, {} delayed, {} late, {} stale, {} divergences",
        t.transport.sent,
        t.transport.loopback,
        t.transport.delivered,
        t.transport.lost,
        t.transport.delayed,
        t.late,
        t.stale_dropped,
        t.divergences,
    );
    let divergences = t.divergences;
    (t.outcome, Some(TwinWire { line, divergences }))
}

fn profile_json(spec: &ScenarioSpec, obs_report: &ObsRunReport) -> String {
    let mut out = format!(
        "{{\n  \"scenario\": {},\n  \"phases\": [\n",
        json_string(&spec.name)
    );
    for (i, row) in obs_report.phases.iter().enumerate() {
        let comma = if i + 1 < obs_report.phases.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"phase\": {}, \"count\": {}, \"mean_ns\": {:.1}, \
             \"min_ns\": {}, \"max_ns\": {}, \"p99_ns\": {}}}{comma}\n",
            json_string(row.name),
            row.count,
            row.mean_ns,
            row.min_ns,
            row.max_ns,
            row.p99_ns,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn write_exports(args: &Args, spec: &ScenarioSpec, outcome: &ScenarioOutcome) {
    if let Some(csv_path) = &args.csv {
        std::fs::write(csv_path, outcome.log.to_csv()).expect("write csv");
        eprintln!("wrote {csv_path}");
    }
    if let Some(json_path) = &args.json {
        std::fs::write(json_path, outcome.log.to_json()).expect("write json");
        eprintln!("wrote {json_path}");
    }
    let Some(obs_report) = &outcome.obs else {
        return;
    };
    if let Some(trace_path) = &args.trace {
        std::fs::write(trace_path, &obs_report.trace_jsonl).expect("write trace");
        eprintln!(
            "wrote {trace_path} ({} events, {} dropped)",
            obs_report.trace_events, obs_report.trace_dropped
        );
    }
    if let Some(profile_path) = &args.profile_json {
        std::fs::write(profile_path, profile_json(spec, obs_report)).expect("write profile json");
        eprintln!("wrote {profile_path}");
    }
}

/// One `>=` gate: report the verdict, return whether it passed. An
/// undefined quantity fails.
fn gate(what: &str, flag: &str, threshold: f64, measured: Result<f64, String>) -> bool {
    match measured {
        Ok(v) if v >= threshold => {
            eprintln!("{what} {v:.4} >= required {threshold:.4}");
            true
        }
        Ok(v) => {
            eprintln!("FAIL: {what} {v:.4} < required {threshold:.4}");
            false
        }
        Err(why) => {
            eprintln!("FAIL: {flag} gate: {why}");
            false
        }
    }
}

/// The other half of the equivalence contract: the plain simulator under
/// the identical spec and obs config must have produced the same bytes.
fn compare_sim(spec: &ScenarioSpec, twin: &ScenarioOutcome) -> bool {
    let sim = run_scenario_observed(spec, ObsConfig::default(), |_| {});
    let trace = |o: &ScenarioOutcome| o.obs.as_ref().map(|o| o.trace_jsonl.clone());
    let checks = [
        ("decision log (event trace)", trace(twin) == trace(&sim)),
        ("fault trace", twin.fault_trace == sim.fault_trace),
        (
            "fault digest",
            twin.fault_trace.digest() == sim.fault_trace.digest(),
        ),
        ("round report", twin.report == sim.report),
        ("metrics csv", twin.log.to_csv() == sim.log.to_csv()),
        ("metrics json", twin.log.to_json() == sim.log.to_json()),
    ];
    for (what, same) in checks {
        if same {
            eprintln!("compare-sim: {what} identical");
        } else {
            eprintln!("FAIL: compare-sim: {what} differs");
        }
    }
    checks.iter().all(|&(_, same)| same)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let Some(path) = &args.spec_path else { usage() };
    let spec = load_spec(path, &args);
    let twin_cfg = args.twin.then(|| twin_config(&args, &spec));

    eprintln!(
        "running `{}`: {} nodes x {} rounds, seed {}, spec 0x{:016x}",
        spec.name,
        spec.config.nodes,
        spec.config.rounds,
        spec.config.seed,
        spec.fingerprint()
    );
    if let Some(cfg) = &twin_cfg {
        eprintln!(
            "through the twin: latency {}+[0,{}]",
            cfg.links.base, cfg.links.jitter
        );
    }

    let obs_on = args.obs
        || args.trace.is_some()
        || args.profile_json.is_some()
        || args.monitor_addr.is_some()
        || args.min_p99_continuity.is_some()
        || args.compare_sim;
    let monitor = args.monitor_addr.as_deref().map(|addr| {
        let handle = serve(addr)
            .unwrap_or_else(|e| exit_2(format_args!("cannot bind monitor on {addr}: {e}")));
        eprintln!("monitor serving on http://{}/", handle.addr());
        handle
    });

    let (outcome, twin) = run(&spec, twin_cfg.as_ref(), obs_on, monitor.as_ref());
    print!("{}", outcome.log.summarize());
    if let Some(t) = &twin {
        println!("{}", t.line);
    }
    if !outcome.fault_trace.is_empty() {
        println!(
            "  fault trace: {} rounds, digest 0x{:016x}",
            outcome.fault_trace.rounds.len(),
            outcome.fault_trace.digest()
        );
    }
    write_exports(&args, &spec, &outcome);
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

    let mut ok = true;
    if let Some(threshold) = args.min_continuity {
        let mean = mean_continuity_gate(&outcome.report);
        ok &= gate("mean continuity", "--min-continuity", threshold, mean);
    }
    if let Some(threshold) = args.min_p99_continuity {
        let p99 = p99_continuity_gate(&outcome.report.summary);
        let what = "p99 per-node continuity";
        ok &= gate(what, "--min-p99-continuity", threshold, p99);
    }
    if let Some(t) = &twin {
        if t.divergences > 0 {
            eprintln!("FAIL: {} content divergences on the wire", t.divergences);
            ok = false;
        }
    }
    if args.compare_sim {
        ok &= compare_sim(&spec, &outcome);
    }
    if !ok {
        std::process::exit(1);
    }
}

//! Run a scenario through the live-network twin (`cs-twin`) — the
//! protocol as message-exchanging node tasks over a deterministic
//! in-process transport — and optionally prove sim-vs-live
//! equivalence in the same invocation.
//!
//! ```text
//! cargo run --release --example twin_runner -- scenarios/static.scn
//! cargo run --release --example twin_runner -- scenarios/lossy_churn.scn \
//!     --workers 4 --latency-ms 50 --jitter-ms 30 \
//!     --decision-log twin_trace.jsonl --compare-sim
//! cargo run --release --example twin_runner -- scenarios/static.scn \
//!     --monitor-addr 127.0.0.1:9465
//! ```
//!
//! * `--workers N` — executor workers for the per-node fan-out phases
//!   (results are bit-identical at any N; see `tests/determinism.rs`).
//! * `--latency-ms F` / `--jitter-ms F` / `--link-seed N` — the link
//!   catalogue: every link gets `latency + [0, jitter]` of
//!   deterministic per-pair spread. Keep `latency + jitter` below the
//!   round period for the equivalence profile.
//! * `--decision-log FILE` — write the structured event trace (the
//!   decision log) as JSON lines.
//! * `--compare-sim` — also run the plain simulator on the same spec
//!   and byte-compare decision logs, fault traces, reports and metric
//!   exports; exit 1 on any mismatch.
//! * `--monitor-addr ADDR` — live Prometheus-style exposition with
//!   per-twin-node transport counters
//!   (`cs_twin_node_{sent,received,late,divergences}{node="…"}`).
//!
//! Exit codes: 0 ok, 1 equivalence/divergence failure, 2 usage error.

use continustreaming::obs::{
    render_prometheus, render_twin_nodes, serve, MonitorSample, TwinNodeRow,
};
use continustreaming::prelude::*;
use continustreaming::twin::{run_twin, run_twin_observed, TwinOutcome, TwinRoundStats};

fn usage() -> ! {
    eprintln!(
        "usage: twin_runner <spec.scn> [--workers N] [--policy legacy|adaptive]\n\
         \x20      [--nodes N] [--rounds N]\n\
         \x20      [--latency-ms F] [--jitter-ms F] [--link-seed N]\n\
         \x20      [--csv out.csv] [--json out.json] [--decision-log out.jsonl]\n\
         \x20      [--compare-sim] [--monitor-addr host:port]"
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
    workers: Option<usize>,
    policy: Option<String>,
    nodes: Option<usize>,
    rounds: Option<u32>,
    latency_ms: Option<f64>,
    jitter_ms: Option<f64>,
    link_seed: Option<u64>,
    csv: Option<String>,
    json: Option<String>,
    decision_log: Option<String>,
    compare_sim: bool,
    monitor_addr: Option<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
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
            "--compare-sim" => {
                a.compare_sim = true;
                i += 1;
                continue;
            }
            "--workers" => a.workers = Some(parse_or_exit(flag, &value())),
            "--policy" => a.policy = Some(value()),
            "--nodes" => a.nodes = Some(parse_or_exit(flag, &value())),
            "--rounds" => a.rounds = Some(parse_or_exit(flag, &value())),
            "--latency-ms" => a.latency_ms = Some(parse_or_exit(flag, &value())),
            "--jitter-ms" => a.jitter_ms = Some(parse_or_exit(flag, &value())),
            "--link-seed" => a.link_seed = Some(parse_or_exit(flag, &value())),
            "--csv" => a.csv = Some(value()),
            "--json" => a.json = Some(value()),
            "--decision-log" => a.decision_log = Some(value()),
            "--monitor-addr" => a.monitor_addr = Some(value()),
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

fn build_sample(sim: &SystemSim) -> MonitorSample {
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
        s.trace_events = o.events.len() as u64;
        s.trace_dropped = o.events.dropped();
    }
    s
}

fn publish(handle: &continustreaming::obs::MonitorHandle, sim: &SystemSim, t: &TwinRoundStats) {
    let mut body = render_prometheus(&build_sample(sim));
    let rows: Vec<TwinNodeRow> = t
        .nodes
        .iter()
        .map(|n| TwinNodeRow {
            node: n.id,
            sent: n.sent,
            received: n.received,
            late: n.late,
            divergences: n.divergences,
        })
        .collect();
    body.push_str(&render_twin_nodes(&rows));
    handle.publish(body);
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

    let latency = SimDuration::from_secs_f64(args.latency_ms.unwrap_or(50.0) / 1e3);
    let jitter = SimDuration::from_secs_f64(args.jitter_ms.unwrap_or(0.0) / 1e3);
    let links = if jitter.is_zero() {
        LinkCatalog::uniform(latency)
    } else {
        LinkCatalog::jittered(latency, jitter, args.link_seed.unwrap_or(spec.config.seed))
    };
    let cfg = TwinConfig {
        workers: args.workers.unwrap_or(1),
        links,
    };
    eprintln!(
        "twin `{}`: {} nodes x {} rounds, seed {}, {} workers, latency {}+[0,{}]",
        spec.name,
        spec.config.nodes,
        spec.config.rounds,
        spec.config.seed,
        cfg.workers,
        latency,
        jitter,
    );

    let monitor = args.monitor_addr.as_deref().map(|addr| {
        let handle = serve(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind monitor on {addr}: {e}");
            std::process::exit(2);
        });
        eprintln!("monitor serving on http://{}/", handle.addr());
        handle
    });

    // The decision log, the comparison, and the monitor all need the
    // obs layer; a bare run skips it (and its allocations) entirely.
    let obs_on = args.decision_log.is_some() || args.compare_sim || monitor.is_some();
    let twin: TwinOutcome = if obs_on {
        run_twin_observed(&spec, &cfg, ObsConfig::default(), |sim, t| {
            if let Some(m) = &monitor {
                publish(m, sim, t);
            }
        })
    } else {
        run_twin(&spec, &cfg)
    };

    print!("{}", twin.outcome.log.summarize());
    println!(
        "  twin transport: {} sent ({} loopback), {} delivered, {} lost, {} delayed, {} late, {} stale, {} divergences",
        twin.transport.sent,
        twin.transport.loopback,
        twin.transport.delivered,
        twin.transport.lost,
        twin.transport.delayed,
        twin.late,
        twin.stale_dropped,
        twin.divergences,
    );
    if !twin.outcome.fault_trace.is_empty() {
        println!(
            "  fault trace: {} rounds, digest 0x{:016x}",
            twin.outcome.fault_trace.rounds.len(),
            twin.outcome.fault_trace.digest()
        );
    }

    if let Some(csv_path) = &args.csv {
        std::fs::write(csv_path, twin.outcome.log.to_csv()).expect("write csv");
        eprintln!("wrote {csv_path}");
    }
    if let Some(json_path) = &args.json {
        std::fs::write(json_path, twin.outcome.log.to_json()).expect("write json");
        eprintln!("wrote {json_path}");
    }
    if let Some(log_path) = &args.decision_log {
        let trace = twin
            .outcome
            .obs
            .as_ref()
            .map(|o| o.trace_jsonl.as_str())
            .unwrap_or("");
        std::fs::write(log_path, trace).expect("write decision log");
        eprintln!("wrote {log_path}");
    }

    let mut failed = false;
    if twin.divergences > 0 {
        eprintln!("FAIL: {} content divergences on the wire", twin.divergences);
        failed = true;
    }
    if args.compare_sim {
        // The other half of the equivalence contract: the plain
        // simulator under the identical spec and obs config.
        let sim = run_scenario_observed(&spec, ObsConfig::default(), |_| {});
        let twin_trace = twin.outcome.obs.as_ref().map(|o| o.trace_jsonl.as_str());
        let sim_trace = sim.obs.as_ref().map(|o| o.trace_jsonl.as_str());
        let checks: [(&str, bool); 6] = [
            ("decision log (event trace)", twin_trace == sim_trace),
            ("fault trace", twin.outcome.fault_trace == sim.fault_trace),
            (
                "fault digest",
                twin.outcome.fault_trace.digest() == sim.fault_trace.digest(),
            ),
            ("round report", twin.outcome.report == sim.report),
            ("metrics csv", twin.outcome.log.to_csv() == sim.log.to_csv()),
            (
                "metrics json",
                twin.outcome.log.to_json() == sim.log.to_json(),
            ),
        ];
        for (what, ok) in checks {
            if ok {
                eprintln!("compare-sim: {what} identical");
            } else {
                eprintln!("FAIL: compare-sim: {what} differs");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

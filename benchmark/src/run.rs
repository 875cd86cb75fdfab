//! Running one workload: repetitions, output checks, end-to-end
//! metrics.
//!
//! The program is driven only through its public API, and every
//! repetition goes the whole way from spec text to exported bytes:
//! `parse_scenario`, `SystemSim::new`, `ScenarioEngine::drive_round` +
//! `SystemSim::step` per round (or `drive_twin_over` on the twin
//! workload), `SystemSim::finish`, `MetricsLog::{new, to_csv, to_json}`.
//! It is a closed loop by construction — round *r + 1* starts when
//! round *r* ends — single-threaded (`parallel` feature off, twin
//! `workers = 1`).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use continustreaming::core::{FaultTrace, ObsConfig, ObsRunReport, RunReport, Telemetry};
use continustreaming::prelude::{parse_scenario, MetricsLog, SystemSim};
use continustreaming::scenario::{fnv1a, EngineStats, ScenarioEngine};
use continustreaming::sim::{SimDuration, SimTime};
use continustreaming::twin::{
    drive_twin_over, Envelope, InProcTransport, LinkCatalog, Transport, TransportStats, TwinConfig,
    WireMsg,
};

use crate::catalog::END_TO_END;
use crate::json::Json;
use crate::layers;
use crate::spans::Spans;
use crate::specs::{Scale, Workload};
use crate::stats::median;

/// Set-up-only iterations in a timed run: `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest repetitions of a timed run, whatever `--seconds` says: the
/// determinism check needs two.
const MIN_REPS: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Keep starting repetitions until this many seconds have passed.
    pub seconds: f64,
    /// `false`: timed repetitions with observability off, end-to-end
    /// metrics. `true`: the traced run, per-layer metrics.
    pub trace: bool,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation on one workload produces.
#[derive(Debug)]
pub struct RunResult {
    pub config: RunConfig,
    pub metrics: Vec<MetricValue>,
    /// Operations attempted: node-rounds simulated by the measured
    /// repetitions.
    pub attempted: u64,
    pub checks: Vec<Check>,
    /// Per-repetition samples of the timed metrics (empty for a traced
    /// run): `(metric, one value per repetition or set-up)`.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The span file of the traced run.
    pub spans: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Operations failed: 0, or every one of them when any output
    /// check failed — a run whose outputs are wrong measured nothing.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            0
        } else {
            self.attempted
        }
    }

    /// Process exit code for this result.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Wire-level accounting of one twin repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TwinCounters {
    pub transport: TransportStats,
    pub late: u64,
    pub divergences: u64,
    /// Seconds inside `Transport::send` / `Transport::poll`; measured
    /// in the traced run only.
    pub send_s: f64,
    pub poll_s: f64,
}

/// What one repetition produced, spec text in to exported bytes out.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spec text in → CSV + JSON bytes out.
    pub wall_s: f64,
    /// Time inside the round loop. On the twin workload the loop is not
    /// separable from outside: this is all of `drive_twin_over`, and
    /// the caller subtracts the median `SystemSim::new` time.
    pub loop_s: f64,
    pub report: RunReport,
    pub telemetry: Telemetry,
    pub engine: EngineStats,
    pub fault_trace: FaultTrace,
    pub csv: String,
    pub json: String,
    pub obs: Option<ObsRunReport>,
    pub twin: Option<TwinCounters>,
}

impl Rep {
    /// Node-rounds simulated: Σ over rounds of alive nodes.
    pub fn node_rounds(&self) -> u64 {
        self.report.rounds.iter().map(|r| r.alive as u64).sum()
    }

    /// `fnv1a` of the JSON and of the CSV export.
    pub fn export_hashes(&self) -> (u64, u64) {
        (fnv1a(self.json.as_bytes()), fnv1a(self.csv.as_bytes()))
    }
}

fn span<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// One repetition through the plain simulator.
pub fn sim_rep(text: &str, obs: Option<ObsConfig>, mut spans: Option<&mut Spans>) -> Rep {
    let start = Instant::now();
    let spec =
        span(&mut spans, "scenario.parse", || parse_scenario(text)).expect("generated specs parse");
    let mut sim = span(&mut spans, "core.init", || {
        let mut sim = SystemSim::new(spec.config.clone());
        sim.enable_telemetry();
        if let Some(cfg) = obs {
            sim.enable_obs(cfg);
        }
        sim
    });
    let mut engine = ScenarioEngine::new(spec.clone());

    // The loop of `cs_scenario::run_scenario`, with a clock around it.
    let loop_start = Instant::now();
    while sim.rounds_run() < spec.config.rounds {
        span(&mut spans, "scenario.drive_round", || {
            engine.drive_round(&mut sim)
        });
        if !span(&mut spans, "core.step", || sim.step()) {
            break;
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    let (report, telemetry, fault_trace, obs) = span(&mut spans, "core.finish", || {
        let telemetry = sim.take_telemetry().unwrap_or_default();
        let fault_trace = sim.fault_trace().clone();
        let obs = sim.take_obs_report();
        (sim.finish(), telemetry, fault_trace, obs)
    });
    let (csv, json) = span(&mut spans, "scenario.export", || {
        let log = MetricsLog::new(&spec, &report, &telemetry, engine.stats());
        (log.to_csv(), log.to_json())
    });
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        loop_s,
        report,
        telemetry,
        engine: engine.stats(),
        fault_trace,
        csv,
        json,
        obs,
        twin: None,
    }
}

/// [`InProcTransport`] with a clock around `send` and `poll`, for the
/// traced twin run. The driver consumes the transport, so the totals
/// leave through shared cells.
struct ClockedTransport {
    inner: InProcTransport,
    send_ns: Rc<Cell<u64>>,
    poll_ns: Rc<Cell<u64>>,
}

impl Transport for ClockedTransport {
    fn send(&mut self, now: SimTime, msg: WireMsg) {
        let t = Instant::now();
        self.inner.send(now, msg);
        self.send_ns
            .set(self.send_ns.get() + t.elapsed().as_nanos() as u64);
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    fn poll(&mut self, deadline: SimTime) -> Option<Envelope> {
        let t = Instant::now();
        let out = self.inner.poll(deadline);
        self.poll_ns
            .set(self.poll_ns.get() + t.elapsed().as_nanos() as u64);
        out
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The twin's wire profile: the equivalence profile of `cs-twin`
/// (uniform 50 ms links, no wire loss; the spec's faults stay
/// core-side).
fn twin_config() -> TwinConfig {
    TwinConfig {
        workers: 1,
        links: LinkCatalog::uniform(SimDuration::from_millis(50)),
    }
}

/// One repetition through the live-network twin. With `spans` the
/// transport is clocked.
pub fn twin_rep(text: &str, obs: Option<ObsConfig>, mut spans: Option<&mut Spans>) -> Rep {
    let start = Instant::now();
    let spec =
        span(&mut spans, "scenario.parse", || parse_scenario(text)).expect("generated specs parse");
    let cfg = twin_config();
    let inner = span(&mut spans, "twin.transport_new", || {
        InProcTransport::new(cfg.links, spec.config.seed)
    });
    let (send_ns, poll_ns) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let loop_start = Instant::now();
    let out = if spans.is_some() {
        let clocked = ClockedTransport {
            inner,
            send_ns: Rc::clone(&send_ns),
            poll_ns: Rc::clone(&poll_ns),
        };
        span(&mut spans, "twin.drive", || {
            drive_twin_over(&spec, &cfg, clocked, obs, &mut |_, _| {})
        })
    } else {
        drive_twin_over(&spec, &cfg, inner, obs, &mut |_, _| {})
    };
    let loop_s = loop_start.elapsed().as_secs_f64();
    let (csv, json) = span(&mut spans, "scenario.export", || {
        (out.outcome.log.to_csv(), out.outcome.log.to_json())
    });
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        loop_s,
        engine: out.outcome.log.engine,
        report: out.outcome.report,
        telemetry: out.outcome.telemetry,
        fault_trace: out.outcome.fault_trace,
        csv,
        json,
        obs: out.outcome.obs,
        twin: Some(TwinCounters {
            transport: out.transport,
            late: out.late,
            divergences: out.divergences,
            send_s: send_ns.get() as f64 / 1e9,
            poll_s: poll_ns.get() as f64 / 1e9,
        }),
    }
}

/// One set-up, nothing else: what `setup_s` measures.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub parse_s: f64,
    /// `SystemSim::new` + `enable_telemetry`.
    pub init_s: f64,
    /// Everything: parse, init, `ScenarioEngine::new`, and on the twin
    /// workload `InProcTransport::new`.
    pub total_s: f64,
}

pub fn setup_once(text: &str, twin: bool) -> SetupSample {
    let start = Instant::now();
    let spec = parse_scenario(text).expect("generated specs parse");
    let parse_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sim = SystemSim::new(spec.config.clone());
    sim.enable_telemetry();
    let init_s = t.elapsed().as_secs_f64();
    let engine = ScenarioEngine::new(spec.clone());
    let transport = twin.then(|| InProcTransport::new(twin_config().links, spec.config.seed));
    let total_s = start.elapsed().as_secs_f64();
    std::hint::black_box((&sim, &engine, &transport));
    SetupSample {
        parse_s,
        init_s,
        total_s,
    }
}

/// Every repetition of one spec must export the same bytes.
pub fn determinism_check(hashes: &[(u64, u64)]) -> Check {
    let same = hashes.windows(2).all(|w| w[0] == w[1]);
    let (json, csv) = hashes[0];
    Check::new(
        "determinism",
        same,
        format!(
            "{} repetitions, json fnv1a {json:016x}, csv fnv1a {csv:016x}{}",
            hashes.len(),
            if same { "" } else { " — exports differ" }
        ),
    )
}

pub fn rounds_check(rep: &Rep, want: u32) -> Check {
    let got = rep.report.rounds.len();
    Check::new(
        "rounds",
        got == want as usize,
        format!("report has {got} rounds, spec asks for {want}"),
    )
}

/// The twin must match one simulator run of the same spec byte for
/// byte, and its transport must have been faithful.
pub fn twin_equivalence_checks(twin: &Rep, sim: &Rep) -> Vec<Check> {
    let counters = twin.twin.expect("a twin repetition carries counters");
    let side = if twin.obs.is_some() {
        "traced"
    } else {
        "untraced"
    };
    let same = |name, ok: bool| {
        let verdict = if ok { "identical" } else { "differs" };
        Check::new(name, ok, format!("{side} pair: {verdict}"))
    };
    let mut checks = vec![
        same("twin_vs_sim.report", twin.report == sim.report),
        same(
            "twin_vs_sim.fault_digest",
            twin.fault_trace == sim.fault_trace
                && twin.fault_trace.digest() == sim.fault_trace.digest(),
        ),
        same("twin_vs_sim.csv", twin.csv == sim.csv),
        same("twin_vs_sim.json", twin.json == sim.json),
        Check::new(
            "twin.late",
            counters.late == 0,
            format!(
                "{side} twin: {} envelopes missed their round",
                counters.late
            ),
        ),
        Check::new(
            "twin.divergences",
            counters.divergences == 0,
            format!(
                "{side} twin: {} received copies differed",
                counters.divergences
            ),
        ),
    ];
    // The decision log exists only when both sides ran observed.
    if let (Some(t), Some(s)) = (&twin.obs, &sim.obs) {
        checks.push(same(
            "twin_vs_sim.decision_log",
            t.trace_jsonl == s.trace_jsonl,
        ));
    }
    checks
}

/// Observability must be invisible: the traced run's report equals the
/// untraced one. (`RunSummary`'s `Debug` is the fingerprint form; it
/// leaves out the distribution block only an observed run has.)
pub fn obs_invisible_check(traced: &Rep, plain: &Rep) -> Check {
    let ok = traced.report.rounds == plain.report.rounds
        && format!("{:?}", traced.report.summary) == format!("{:?}", plain.report.summary)
        && traced.telemetry == plain.telemetry
        && traced.fault_trace == plain.fault_trace;
    Check::new(
        "obs_invisible",
        ok,
        if ok {
            "traced report equals untraced report"
        } else {
            "traced report differs from untraced report"
        },
    )
}

/// The workloads are chosen healthy; a full-scale run that is not is
/// wrong output, whatever it timed.
pub fn health_gate(workload: Workload, scale: Scale, report: &RunReport) -> Option<Check> {
    if scale != Scale::Full {
        return None;
    }
    let s = &report.summary;
    let (what, value, floor) = match workload {
        Workload::Static8k => ("continuity_stable", s.stable_continuity, 0.99),
        Workload::ChurnRescue1k | Workload::LossyTwin1k => {
            ("continuity_mean", s.mean_continuity, 0.90)
        }
        Workload::Vcr4k => return None,
    };
    Some(Check::new(
        "health",
        value >= floor,
        format!("{what} {value:.4}, floor {floor}"),
    ))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable (the benchmark runs on Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status carries VmHWM in kB");
    kb / 1024.0
}

/// Run one workload as `cfg` says.
pub fn run_workload(cfg: &RunConfig) -> RunResult {
    let text = cfg.workload.spec_text(cfg.scale, cfg.seed);
    if cfg.trace {
        layers::run_traced(cfg, &text)
    } else {
        run_timed(cfg, &text)
    }
}

fn run_timed(cfg: &RunConfig, text: &str) -> RunResult {
    let w = cfg.workload;
    let rep = || {
        if w.is_twin() {
            twin_rep(text, None, None)
        } else {
            sim_rep(text, None, None)
        }
    };

    let setups: Vec<SetupSample> = (0..SETUP_REPS)
        .map(|_| setup_once(text, w.is_twin()))
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let init_s = median(&setups.iter().map(|s| s.init_s).collect::<Vec<_>>());

    let started = Instant::now();
    let first = rep();
    let node_rounds = first.node_rounds();
    let mut wall_s = vec![first.wall_s];
    let mut loop_s = vec![first.loop_s];
    let mut hashes = vec![first.export_hashes()];
    while wall_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        let r = rep();
        wall_s.push(r.wall_s);
        loop_s.push(r.loop_s);
        hashes.push(r.export_hashes());
    }
    // `drive_twin_over` builds the simulator itself; take that out.
    if w.is_twin() {
        for l in &mut loop_s {
            *l -= init_s;
        }
    }
    let rate: Vec<f64> = loop_s.iter().map(|l| node_rounds as f64 / l).collect();

    let mut checks = vec![
        determinism_check(&hashes),
        rounds_check(&first, w.size(cfg.scale).1),
    ];
    checks.extend(health_gate(w, cfg.scale, &first.report));
    if w.is_twin() {
        checks.extend(twin_equivalence_checks(&first, &sim_rep(text, None, None)));
    }

    let summary = &first.report.summary;
    let values = [
        median(&wall_s),
        median(&setup_s),
        median(&rate),
        peak_rss_mb(),
        summary.mean_continuity,
        summary.stable_continuity,
        first.telemetry.mean_startup_delay().unwrap_or(0.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| MetricValue {
            name: m.name.to_string(),
            value,
            unit: m.unit,
        })
        .collect();
    RunResult {
        config: *cfg,
        metrics,
        attempted: node_rounds * wall_s.len() as u64,
        checks,
        samples: vec![
            ("wall_s", wall_s),
            ("setup_s", setup_s),
            ("node_rounds_per_s", rate),
        ],
        spans: None,
    }
}

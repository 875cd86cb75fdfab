//! Command line of the benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload static_8k --seed 0 --seconds 20 --trace 0   # one workload
//! cargo run --release --manifest-path benchmark/Cargo.toml -- # all four
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --aa
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --emit-specs DIR
//! ```
//!
//! With `--workload` the process runs that workload itself and prints
//! the result object as the last line of stdout. Without it the process
//! starts one child per workload and trace mode — so `peak_rss_mb` is
//! per workload — and prints every metric of every workload; `--aa`
//! does that twice and holds the two against the bounds. Human-readable
//! output goes to stderr. Exit code 0 means every check passed.

use std::process::{Command, Stdio};

use cs_benchmark::catalog::{Better, END_TO_END};
use cs_benchmark::json::Json;
use cs_benchmark::provenance::{is_release_build, provenance};
use cs_benchmark::run::{run_workload, RunConfig, RunResult};
use cs_benchmark::specs::{Scale, Workload};
use cs_benchmark::stats::{mad, median, min_max};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ! {
    eprintln!(
        "usage: cs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--scale full|smoke] [--aa] [--emit-specs DIR]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    aa: bool,
    emit_specs: Option<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        aa: false,
        emit_specs: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--aa" {
            a.aa = true;
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else {
            eprintln!("{flag} requires a value");
            usage();
        };
        let bad = || -> ! {
            eprintln!("{flag}: cannot use `{value}`");
            usage();
        };
        match flag {
            "--workload" => a.workload = Some(Workload::parse(value).unwrap_or_else(|| bad())),
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                a.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(0.0..=3600.0).contains(&a.seconds) {
                    bad();
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--scale" => a.scale = Scale::parse(value).unwrap_or_else(|| bad()),
            "--emit-specs" => a.emit_specs = Some(value.clone()),
            _ => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
        }
        i += 2;
    }
    a
}

fn emit_specs(dir: &str, scale: Scale, seed: u64) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    });
    for w in Workload::ALL {
        let path = format!("{dir}/{}.scn", w.name());
        std::fs::write(&path, w.spec_text(scale, seed)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
}

fn print_human(result: &RunResult) {
    let c = &result.config;
    eprintln!(
        "== {} (seed {} -> simulator seed {}, scale {}, {}) ==",
        c.workload.name(),
        c.seed,
        c.workload.sim_seed(c.seed),
        c.scale.name(),
        if c.trace {
            "traced run"
        } else {
            "timed repetitions"
        }
    );
    for m in &result.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, values) in &result.samples {
        let (lo, hi) = min_max(values);
        eprintln!(
            "  {name}: median {:.6} MAD {:.6} min {lo:.6} max {hi:.6} over {} samples",
            median(values),
            mad(values),
            values.len(),
        );
    }
    for check in &result.checks {
        eprintln!(
            "  [{}] {}: {}",
            if check.ok { "ok" } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    eprintln!(
        "  operations (node-rounds): {} attempted, {} failed",
        result.attempted,
        result.failed()
    );
}

/// What the result line has no room for: the simulator seed, the
/// samples behind each median, and the checks.
fn detail_json(result: &RunResult) -> Json {
    let c = &result.config;
    let mut pairs = vec![
        ("sim_seed", Json::Num(c.workload.sim_seed(c.seed) as f64)),
        (
            "reps",
            Json::Num(result.samples.first().map_or(0, |s| s.1.len()) as f64),
        ),
    ];
    for (name, values) in &result.samples {
        let (lo, hi) = min_max(values);
        pairs.push((
            *name,
            Json::obj([
                ("median", Json::Num(median(values))),
                ("mad", Json::Num(mad(values))),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                (
                    "samples",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
        ));
    }
    pairs.push((
        "checks",
        Json::Arr(
            result
                .checks
                .iter()
                .map(|c| {
                    Json::obj([
                        ("name", Json::str(c.name)),
                        ("ok", Json::Bool(c.ok)),
                        ("detail", Json::str(c.detail.clone())),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(pairs)
}

/// Run one workload in this process.
fn run_one(cfg: RunConfig) -> ! {
    let result = run_workload(&cfg);
    print_human(&result);
    if let Some(spans) = &result.spans {
        // Next to the executable: inside the build directory wherever
        // the benchmark was started from, and never in the source tree.
        let path = std::env::current_exe()
            .expect("the benchmark knows its own path")
            .with_file_name(format!("spans-{}.json", cfg.workload.name()));
        match std::fs::write(&path, spans.to_string()) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        Json::obj([
            ("workload", Json::str(cfg.workload.name())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Bool(cfg.trace)),
            ("scale", Json::str(cfg.scale.name())),
            ("provenance", provenance()),
            ("detail", detail_json(&result)),
        ])
    );
    println!("{}", result.result_line());
    std::process::exit(result.exit_code());
}

/// What the parent keeps of one child run.
struct ChildRun {
    workload: Workload,
    trace: bool,
    exit_code: Option<i32>,
    /// The child's result object, if it printed one.
    result: Option<Json>,
    detail: Option<Json>,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.exit_code == Some(0)
            && self
                .result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                == Some(true)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> Option<f64> {
        self.result.as_ref()?.get(key)?.as_f64()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("trace", Json::Bool(self.trace)),
            (
                "exit_code",
                self.exit_code
                    .map_or(Json::Null, |c| Json::Num(f64::from(c))),
            ),
            ("result", self.result.clone().unwrap_or(Json::Null)),
            ("detail", self.detail.clone().unwrap_or(Json::Null)),
        ])
    }
}

fn spawn_child(a: &Args, workload: Workload, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", a.scale.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let detail = lines.next().and_then(|l| Json::parse(l).ok());
    ChildRun {
        workload,
        trace,
        exit_code: out.status.code(),
        result,
        detail,
    }
}

/// One pass over every workload: timed repetitions, and the traced run
/// unless `timed_only`.
fn run_set(a: &Args, timed_only: bool) -> Vec<ChildRun> {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        runs.push(spawn_child(a, w, false));
        if !timed_only {
            runs.push(spawn_child(a, w, true));
        }
    }
    runs
}

/// Hold two passes of the same code against each other. Returns the
/// per-metric comparison and whether every pair agreed: host-time
/// metrics within their bound, simulated metrics and the operation
/// counts exactly.
fn compare_aa(first: &[ChildRun], second: &[ChildRun]) -> (Json, bool) {
    let mut rows = Vec::new();
    let mut all_ok = true;
    eprintln!("== A/A: two passes of the same code ==");
    for (a, b) in first.iter().zip(second) {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (a.metric(m.name), b.metric(m.name)) else {
                all_ok = false;
                continue;
            };
            // Signed so that positive means "the second pass is worse".
            let delta = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let ok = if m.simulated {
                va == vb
            } else {
                delta.abs() <= m.bound
            };
            all_ok &= ok;
            eprintln!(
                "  {:<16} {:<22} {:>14.6} {:>14.6} {:>+8.3}% (bound {:.0}%{}) {}",
                a.workload.name(),
                m.name,
                va,
                vb,
                delta * 100.0,
                m.bound * 100.0,
                if m.simulated { ", must match" } else { "" },
                if ok { "ok" } else { "FAIL" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(a.workload.name())),
                ("metric", Json::str(m.name)),
                ("first", Json::Num(va)),
                ("second", Json::Num(vb)),
                ("noise_floor", Json::Num(delta.abs())),
                ("bound", Json::Num(m.bound)),
                ("ok", Json::Bool(ok)),
            ]));
        }
        for key in ["attempted", "failed"] {
            // Repetition counts follow the clock, so `attempted` is
            // compared per repetition.
            let per_rep = |r: &ChildRun| {
                let reps = r.detail.as_ref()?.get("detail")?.get("reps")?.as_f64()?;
                Some(r.count(key)? / reps)
            };
            let ok = per_rep(a).is_some() && per_rep(a) == per_rep(b);
            all_ok &= ok;
            eprintln!(
                "  {:<16} {:<22} {:>14} {:>14} per repetition, must match {}",
                a.workload.name(),
                key,
                per_rep(a).unwrap_or(f64::NAN),
                per_rep(b).unwrap_or(f64::NAN),
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    (Json::Arr(rows), all_ok)
}

fn run_all(a: &Args) -> ! {
    let first = run_set(a, a.aa);
    let mut ok = first.iter().all(ChildRun::ok);
    let mut report = vec![
        ("provenance", provenance()),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("scale", Json::str(a.scale.name())),
        (
            "runs",
            Json::Arr(first.iter().map(ChildRun::to_json).collect()),
        ),
    ];
    if a.aa {
        let second = run_set(a, true);
        ok &= second.iter().all(ChildRun::ok);
        let (rows, agreed) = compare_aa(&first, &second);
        ok &= agreed;
        report.push((
            "second_runs",
            Json::Arr(second.iter().map(ChildRun::to_json).collect()),
        ));
        report.push(("aa", rows));
    }
    for r in &first {
        eprintln!(
            "{} trace={} exit={:?} {}",
            r.workload.name(),
            u8::from(r.trace),
            r.exit_code,
            if r.ok() { "ok" } else { "FAILED" }
        );
    }
    report.push(("ok", Json::Bool(ok)));
    println!("{}", Json::obj(report));
    std::process::exit(i32::from(!ok));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if let Some(dir) = &args.emit_specs {
        emit_specs(dir, args.scale, args.seed);
        return;
    }
    if !is_release_build() {
        eprintln!(
            "cs-benchmark was built without --release; its timings would mean nothing. \
             Refusing to report."
        );
        std::process::exit(2);
    }
    match args.workload {
        Some(workload) => run_one(RunConfig {
            workload,
            scale: args.scale,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
        None => run_all(&args),
    }
}

//! CLI contract regression tests for the example runner.
//!
//! `scenario_runner` is the operational surface of the repo — simulator
//! and (`--twin`) live-network twin behind one binary; its failure modes
//! must be loud and well-coded. In particular, an unbindable
//! `--monitor-addr` must abort the run with exit code 2 and a clear
//! error *before* any rounds execute — silently continuing without the
//! monitor once shipped a run whose operator watched an endpoint that
//! was never going to exist — and no input may end in a panic.
//!
//! `cargo test` builds examples alongside the test binaries; if the
//! example binary is genuinely absent (e.g. a filtered build), the
//! tests skip rather than fail.

use std::path::PathBuf;
use std::process::{Command, Output};

/// `target/<profile>/examples/scenario_runner`, resolved relative to
/// this test binary (which lives in `target/<profile>/deps/`).
fn runner_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?;
    let profile = deps.parent()?;
    let path = profile.join("examples").join("scenario_runner");
    if !path.exists() {
        eprintln!("skipping: scenario_runner example binary not built");
    }
    path.exists().then_some(path)
}

/// Run the runner with `args`; `None` when it is not built.
fn runner(args: &[&str]) -> Option<Output> {
    let out = Command::new(runner_bin()?)
        .args(args)
        .output()
        .expect("spawn example");
    Some(out)
}

/// The run must have failed as a usage/spec error: exit 2, `needle` on
/// stderr, no panic, and nothing on stdout — every such check happens
/// before the first round.
fn assert_exit_2(out: &Output, what: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: must exit 2, got {:?}\nstderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle) && !stderr.contains("panicked"),
        "{what}: stderr must carry `{needle}` and no panic, got:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.is_empty(),
        "{what}: must fail before producing run output, got:\n{stdout}"
    );
}

/// 203.0.113.0/24 is TEST-NET-3 (RFC 5737): never assigned to a local
/// interface, so binding it fails deterministically without touching
/// the network.
const UNBINDABLE: &str = "203.0.113.7:9464";

#[test]
fn scenario_runner_rejects_unbindable_monitor_addr() {
    let args = ["scenarios/static.scn", "--monitor-addr", UNBINDABLE];
    let Some(out) = runner(&args) else { return };
    assert_exit_2(
        &out,
        "unbindable --monitor-addr",
        "cannot bind monitor on 203.0.113.7:9464",
    );
}

#[test]
fn scenario_runner_usage_error_exits_2() {
    let between = "must be between 0 and 1";
    for (args, what, needle) in [
        (
            &["--monitor-addr"][..],
            "flag without value",
            "--monitor-addr requires a value",
        ),
        // The twin's flags mean nothing to the simulator: refused, not
        // silently ignored.
        (
            &["--compare-sim"],
            "twin flag without --twin",
            "--compare-sim requires --twin",
        ),
        // The twin's exchange is one serial pass: there is no worker
        // count to set.
        (
            &["--twin", "--workers", "4"],
            "removed --workers",
            "unknown flag `--workers`",
        ),
        // Nothing to linger on without a monitor.
        (
            &["--monitor-linger-secs", "5"],
            "linger without a monitor",
            "--monitor-linger-secs requires --monitor-addr",
        ),
        // A continuity gate outside [0, 1] could only fail, after the
        // whole run (NaN printed `FAIL: … < required NaN`, exit 1).
        (&["--min-continuity", "nan"], "NaN mean gate", between),
        (&["--min-continuity", "2"], "mean gate above 1", between),
        (&["--min-p99-continuity", "nan"], "NaN p99 gate", between),
        (&["--min-p99-continuity", "-1"], "p99 gate below 0", between),
    ] {
        let argv: Vec<&str> = std::iter::once("scenarios/static.scn")
            .chain(args.iter().copied())
            .collect();
        let Some(out) = runner(&argv) else { return };
        assert_exit_2(&out, what, needle);
    }
}

/// An export path that cannot be written used to panic after the whole
/// run (`write csv: Os { code: 2, … }`, exit 101). Each export flag's
/// path is checked before the first round: one line naming it, exit 2.
#[test]
fn scenario_runner_rejects_an_unwritable_export_path_before_the_run() {
    let missing =
        std::env::temp_dir().join(format!("cs_runner_cli_{}_missing", std::process::id()));
    for flag in ["--csv", "--json", "--trace", "--profile-json"] {
        let path = missing.join("out");
        let path = path.to_str().expect("utf-8 temp path");
        let args = [
            "scenarios/static.scn",
            "--nodes",
            "40",
            "--rounds",
            "5",
            flag,
            path,
        ];
        let Some(out) = runner(&args) else { return };
        assert_exit_2(
            &out,
            &format!("unwritable {flag}"),
            &format!("{flag} `{path}`: "),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().count(),
            1,
            "{flag}: one line, got:\n{stderr}"
        );
    }
}

/// The link flags reach `SimDuration` arithmetic that panics on what a
/// command line can carry — negative, non-finite, or too large for the
/// simulated clock. The runner must refuse each with one line and exit
/// 2.
#[test]
fn scenario_runner_rejects_unusable_link_flags_with_exit_2() {
    let finite = "must be finite and non-negative";
    for (flag, value, needle) in [
        ("--latency-ms", "-5", finite),
        ("--latency-ms", "nan", finite),
        ("--latency-ms", "inf", finite),
        ("--jitter-ms", "-1", finite),
        ("--latency-ms", "1e300", "does not fit a SimDuration"),
        ("--jitter-ms", "1e300", "does not fit a SimDuration"),
    ] {
        let args = ["scenarios/static.scn", "--twin", flag, value];
        let Some(out) = runner(&args) else { return };
        assert_exit_2(&out, &format!("{flag} {value}"), needle);
    }
}

/// A spec the parser accepts token by token but that cannot run must
/// fail like every other validation error — exit 2 and a one-line
/// message — not with a panic backtrace out of `SystemSim::new`.
fn assert_bad_spec_exits_2(tag: &str, spec: &str, needle: &str) {
    // Unique per (process, case): the harness runs tests on parallel
    // threads.
    let path = std::env::temp_dir().join(format!("cs_runner_cli_{}_{tag}.scn", std::process::id()));
    std::fs::write(&path, spec).expect("write spec");
    let out = runner(&[path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    let Some(out) = out else { return };
    assert_exit_2(&out, &format!("`{spec}`"), needle);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.lines().count(),
        1,
        "`{spec}`: one line, got:\n{stderr}"
    );
}

#[test]
fn runners_reject_an_invalid_run_configuration_with_exit_2() {
    assert_bad_spec_exits_2(
        "one_node",
        "nodes = 1\n",
        "need at least a source and one receiver",
    );
    // The scheduler's supplier masks are one word wide.
    assert_bad_spec_exits_2(
        "wide_m",
        "nodes = 100\nneighbors = 65\n",
        "M = 65: a node has at most 64 neighbours",
    );
    // A runway target the buffer can never hold used to reach the
    // per-node table pre-sizing: a capacity-overflow panic (exit 101)
    // at u64::MAX, a failed 598 TB allocation (abort, exit 134) at 1e12.
    for (tag, rounds) in [
        ("runway_max", "18446744073709551615"),
        ("runway_huge", "1000000000000"),
    ] {
        assert_bad_spec_exits_2(
            tag,
            &format!(
                "nodes = 100\nrounds = 10\nchurn = 0.05 0.05\n\
                 policy = adaptive target_runway_rounds={rounds}\n"
            ),
            "more runway than the 600-segment buffer holds",
        );
    }
    // `replicas` is walked once per stored segment: 4e9 never finished,
    // and 0 ran with every Algorithm 2 lookup failing.
    for (tag, k) in [("replicas_huge", "4000000000"), ("replicas_zero", "0")] {
        assert_bad_spec_exits_2(
            tag,
            &format!("nodes = 50\nrounds = 20\nreplicas = {k}\n"),
            &format!("replicas = {k}: a segment has between 1 and 64 replicas"),
        );
    }
    // The per-round rows are sized from `rounds` at construction: 4e9
    // aborted on a 608 GB allocation (exit 134). The 20-bit segment id
    // ends the stream at 2^20 segments.
    assert_bad_spec_exits_2(
        "rounds_huge",
        "nodes = 50\nrounds = 4000000000\n",
        "rounds = 4000000000: the 20-bit segment id covers at most 104857 rounds at 10 segments per round",
    );
    // A 2^63 startup overflowed the exchange window (exit 101 in debug).
    assert_bad_spec_exits_2(
        "startup_huge",
        "nodes = 50\nrounds = 20\nstartup_segments = 9223372036854775808\n",
        "startup_segments = 9223372036854775808 exceeds the 600-segment buffer",
    );
    // B, p and l are constants, not keys: a 1e11 buffer was OOM-killed
    // (exit 137) and a 1e12 pre-fetch cap aborted on an 8 TB allocation
    // (exit 134) while they were settable.
    for (key, value) in [
        ("buffer_size", "100000000000"),
        ("playback_rate", "0"),
        ("prefetch_cap", "1000000000000"),
    ] {
        assert_bad_spec_exits_2(
            key,
            &format!("nodes = 50\nrounds = 20\n{key} = {value}\n"),
            &format!("line 3: unknown configuration key `{key}`"),
        );
    }
    // An arrival rate no ID space can admit saturated the Poisson draw
    // to `u64::MAX` joins a round and spun.
    assert_bad_spec_exits_2(
        "poisson_huge",
        "nodes = 50\nrounds = 20\nphase 0..20 arrivals=poisson:1e300\n",
        "phase 0 needs arrivals=poisson:<rate> between 0 and 268435456",
    );
    // Every flash-crowd join is attempted: 4e9 ran 27 s to count
    // rejections.
    assert_bad_spec_exits_2(
        "flash_crowd_huge",
        "nodes = 50\nrounds = 6\nat 2 flash_crowd count=4000000000\n",
        "event 0 needs flash_crowd count=<n> of at most 268435456",
    );
    // Class values reach the latency oracle and `NodeBandwidth` as given.
    for (tag, field, needle) in [
        (
            "ping_nan",
            "ping=nan",
            "class `x` needs a finite positive ping, got NaN",
        ),
        (
            "ping_neg",
            "ping=-5",
            "class `x` needs a finite positive ping, got -5",
        ),
        (
            "inbound_nan",
            "inbound=nan",
            "class `x` needs a finite non-negative inbound, got NaN",
        ),
        (
            "outbound_neg",
            "outbound=-3",
            "class `x` needs a finite non-negative outbound, got -3",
        ),
    ] {
        assert_bad_spec_exits_2(
            tag,
            &format!("nodes = 50\nrounds = 20\nclass x {field}\n"),
            needle,
        );
    }
}

/// A spec that parses line by line but fails as a whole has no line to
/// name: the one stderr line is `<path>: <message>`, never `line 0: …`.
#[test]
fn scenario_runner_names_the_file_not_a_line_for_a_whole_spec_error() {
    let message = "M = 5 must be below the node count 2";
    let path = std::env::temp_dir().join(format!(
        "cs_runner_cli_{}_whole_spec.scn",
        std::process::id()
    ));
    std::fs::write(&path, "nodes = 2\nneighbors = 5\n").expect("write spec");
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let out = runner(&[&path]);
    std::fs::remove_file(&path).ok();
    let Some(out) = out else { return };
    assert_exit_2(&out, "whole-spec error", message);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, format!("{path}: {message}\n"));
    assert!(!stderr.contains("line 0"), "{stderr}");
}

#[test]
fn runners_reject_a_duplicated_key_with_exit_2() {
    assert_bad_spec_exits_2(
        "duplicate_key",
        "nodes = 50\nrounds = 5\nnodes = 60\n",
        "line 3: duplicate key `nodes` (already set on line 1)",
    );
}

/// A committed spec under the runner's documented size overrides:
/// `flash_crowd.scn` shrunk to 8 nodes scripts more joins than its ID
/// space (8 × slack 8 = 64) has ids. A join that finds the RP full is a
/// rejection the engine counts, not a panic (this exited 101).
#[test]
fn scenario_runner_counts_joins_that_find_the_id_space_full() {
    let args = [
        "scenarios/flash_crowd.scn",
        "--nodes",
        "8",
        "--rounds",
        "30",
    ];
    let Some(out) = runner(&args) else { return };
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rejected: u64 = stdout
        .split_once("joins (+")
        .and_then(|(_, rest)| rest.split_once(" rejected)"))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no `joins (+N rejected)` in:\n{stdout}"));
    assert!(
        rejected > 0,
        "the script must outrun the ID space:\n{stdout}"
    );
}

/// The equivalence contract from the command line: the twin and the
/// simulator, run by the one runner in one invocation, agree on every
/// deterministic export.
#[test]
fn scenario_runner_twin_compare_sim_reports_six_identical_exports() {
    let args = [
        "scenarios/static.scn",
        "--twin",
        "--compare-sim",
        "--nodes",
        "100",
        "--rounds",
        "10",
    ];
    let Some(out) = runner(&args) else { return };
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    for what in [
        "decision log (event trace)",
        "fault trace",
        "fault digest",
        "round report",
        "metrics csv",
        "metrics json",
    ] {
        assert!(
            stderr.contains(&format!("compare-sim: {what} identical")),
            "missing `{what} identical` line in:\n{stderr}"
        );
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("twin transport:") && stdout.contains("0 divergences"),
        "the twin's wire accounting belongs under the summary:\n{stdout}"
    );
}

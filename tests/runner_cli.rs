//! CLI contract regression tests for the example runners.
//!
//! The runners are the operational surface of the repo; their failure
//! modes must be loud and well-coded. In particular, an unbindable
//! `--monitor-addr` must abort the run with exit code 2 and a clear
//! error *before* any rounds execute — silently continuing without the
//! monitor once shipped a run whose operator watched an endpoint that
//! was never going to exist.
//!
//! `cargo test` builds examples alongside the test binaries; if an
//! example binary is genuinely absent (e.g. a filtered build), the
//! test skips rather than fails.

use std::path::PathBuf;
use std::process::Command;

/// `target/<profile>/examples/<name>`, resolved relative to this test
/// binary (which lives in `target/<profile>/deps/`).
fn example_bin(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?;
    let profile = deps.parent()?;
    let path = profile.join("examples").join(name);
    path.exists().then_some(path)
}

/// 203.0.113.0/24 is TEST-NET-3 (RFC 5737): never assigned to a local
/// interface, so binding it fails deterministically without touching
/// the network.
const UNBINDABLE: &str = "203.0.113.7:9464";

fn assert_monitor_bind_failure_is_fatal(example: &str) {
    let Some(bin) = example_bin(example) else {
        eprintln!("skipping: {example} example binary not built");
        return;
    };
    let out = Command::new(&bin)
        .args(["scenarios/static.scn", "--monitor-addr", UNBINDABLE])
        .output()
        .expect("spawn example");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{example}: unbindable --monitor-addr must exit 2, got {:?}\nstderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("cannot bind monitor on 203.0.113.7:9464"),
        "{example}: stderr must name the monitor bind failure, got:\n{stderr}"
    );
    // The bind is checked before the run starts: no summary output.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.is_empty(),
        "{example}: must fail before producing run output, got:\n{stdout}"
    );
}

#[test]
fn scenario_runner_rejects_unbindable_monitor_addr() {
    assert_monitor_bind_failure_is_fatal("scenario_runner");
}

#[test]
fn twin_runner_rejects_unbindable_monitor_addr() {
    assert_monitor_bind_failure_is_fatal("twin_runner");
}

#[test]
fn scenario_runner_usage_error_exits_2() {
    let Some(bin) = example_bin("scenario_runner") else {
        eprintln!("skipping: scenario_runner example binary not built");
        return;
    };
    let out = Command::new(&bin)
        .args(["scenarios/static.scn", "--monitor-addr"])
        .output()
        .expect("spawn example");
    assert_eq!(out.status.code(), Some(2), "flag without value must exit 2");
}

/// A spec the parser accepts token by token but that cannot run must
/// fail like every other validation error — exit 2 and a one-line
/// message — not with a panic backtrace out of `SystemSim::new`.
fn assert_bad_spec_exits_2(example: &str, tag: &str, spec: &str, needle: &str) {
    let Some(bin) = example_bin(example) else {
        eprintln!("skipping: {example} example binary not built");
        return;
    };
    // Unique per (process, example, case): the harness runs tests on
    // parallel threads.
    let path = std::env::temp_dir().join(format!(
        "cs_runner_cli_{}_{example}_{tag}.scn",
        std::process::id()
    ));
    std::fs::write(&path, spec).expect("write spec");
    let out = Command::new(&bin)
        .arg(&path)
        .output()
        .expect("spawn example");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{example}: `{spec}` must exit 2, got {:?}\nstderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle) && !stderr.contains("panicked"),
        "{example}: stderr must carry `{needle}` and no panic, got:\n{stderr}"
    );
}

#[test]
fn runners_reject_an_invalid_run_configuration_with_exit_2() {
    for example in ["scenario_runner", "twin_runner"] {
        assert_bad_spec_exits_2(
            example,
            "one_node",
            "nodes = 1\n",
            "need at least a source and one receiver",
        );
    }
}

#[test]
fn runners_reject_a_duplicated_key_with_exit_2() {
    for example in ["scenario_runner", "twin_runner"] {
        assert_bad_spec_exits_2(
            example,
            "duplicate_key",
            "nodes = 50\nrounds = 5\nnodes = 60\n",
            "line 3: duplicate key `nodes` (already set on line 1)",
        );
    }
}

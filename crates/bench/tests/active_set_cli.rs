//! `bench_active_set`'s command line: an unknown flag, a missing or
//! unparsable value, a pause fraction outside [0, 1) or a record path
//! that cannot be created is one line on stderr and exit 2, before any
//! run starts (the default run is 100 000 nodes × 200 rounds, twice).

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn bench_active_set_rejects_bad_invocations_before_running_anything() {
    let cases: [&[&str]; 7] = [
        &["--node", "2000"],
        &["--nodes"],
        &["--nodes", "abc"],
        &["--pause-frac", "1.5"],
        &["--pause-frac", "-0.1"],
        &["--json", "/nonexistent/dir/x.json"],
        &["--nodes", "1"],
    ];
    for args in cases {
        let started = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_bench_active_set"))
            .args(args)
            .output()
            .expect("bench_active_set runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("bench_active_set: "),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(started.elapsed() < Duration::from_secs(5), "{args:?} ran");
    }
}

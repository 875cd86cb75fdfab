//! `repro`'s command line: `--json PATH` and nothing else, and a bad
//! invocation is one line on stderr and exit 2 before any run starts.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn repro_rejects_bad_invocations_before_running_anything() {
    let cases: [&[&str]; 4] = [
        &["--bogus"],
        &["--json"],
        &["--json", "/nonexistent/dir/x.json"],
        &["--rounds", "40"],
    ];
    for args in cases {
        let started = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("repro: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        // The full table takes minutes even in release.
        assert!(started.elapsed() < Duration::from_secs(5), "{args:?} ran");
    }
}

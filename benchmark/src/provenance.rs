//! Where a result came from: box, toolchain, source revision, build.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Whether this binary was built with optimisations and without debug
/// assertions — the only kind of build whose timings mean anything.
pub fn is_release_build() -> bool {
    !cfg!(debug_assertions)
}

/// The provenance block carried by every result.
pub fn provenance() -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(unknown);
    let git_rev = command_line("git", &["rev-parse", "HEAD"], repo);
    let git_dirty = git_rev
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain"], repo).map(|s| !s.is_empty()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], ".").unwrap_or_else(unknown)),
        ),
        ("git_rev", Json::Str(git_rev.unwrap_or_else(unknown))),
        ("git_dirty", git_dirty.map_or(Json::Null, Json::Bool)),
        (
            "build_profile",
            Json::str(if is_release_build() {
                "release"
            } else {
                "debug"
            }),
        ),
        (
            "threads",
            Json::str("1 (parallel feature off, twin workers = 1)"),
        ),
    ])
}

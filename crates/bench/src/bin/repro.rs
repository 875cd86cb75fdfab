//! The reproduction scorecard (`cs_bench::repro`) at the paper's
//! horizon: the markdown table on stdout, the record to `--json PATH`.
//!
//! ```text
//! cargo run --release -p cs-bench --bin repro -- --json REPRODUCTION.json > REPRODUCTION.md
//! ```
//!
//! Exit 0 when every row's status matches what it measured, 1 when a
//! `Held` row fails or an `Open` row now meets its claim (each named on
//! stderr), 2 on a bad flag or an unwritable path — before any run.

use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;

use cs_bench::repro::{evaluate, table, Horizon};

/// The exit code of a completed scorecard, or why it could not run.
fn run(mut args: impl Iterator<Item = String>) -> Result<u8, String> {
    let mut target = None;
    while let Some(arg) = args.next() {
        if arg != "--json" {
            return Err(format!(
                "unknown argument `{arg}` (usage: repro [--json PATH])"
            ));
        }
        let path = args.next().ok_or("--json needs a path")?;
        // Created up front so a bad path fails before the runs, not after.
        let file = File::create(&path).map_err(|e| format!("cannot write {path}: {e}"))?;
        target = Some((path, file));
    }
    let rows = table();
    let record = evaluate(&rows, &Horizon::paper(), |configs| {
        eprintln!("repro: {} rows, {} runs…", rows.len(), configs.len());
        cs_bench::run_many(configs)
    });
    record.print_markdown();
    if let Some((path, mut file)) = target {
        let written = file.write_all(record.to_json().as_bytes());
        written.map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mismatches = record.mismatches();
    for line in &mismatches {
        eprintln!("repro: {line}");
    }
    Ok(u8::from(!mismatches.is_empty()))
}

fn main() -> ExitCode {
    let code = run(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("repro: {message}");
        2
    });
    ExitCode::from(code)
}

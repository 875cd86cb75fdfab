//! # cs-bench — the experiment harness
//!
//! [`repro`] is the reproduction scorecard: every claim of the paper
//! this tree tests as one table of predicates, evaluated by the `repro`
//! binary into the committed `REPRODUCTION.md` / `REPRODUCTION.json`.
//! [`fingerprint`] holds the drift hashes; this module holds what they
//! share — many runs in parallel through [`cs_sim::fork_join`] (each run
//! is itself deterministic) and table formatting. Performance is
//! measured in `benchmark/`, not here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cs_core::{RunReport, SystemConfig, SystemSim};

pub mod fingerprint;
pub mod repro;

/// Run one full-system simulation.
pub fn run_system(config: SystemConfig) -> RunReport {
    SystemSim::new(config).run()
}

/// Run many configurations in parallel (one OS thread per available
/// core, work-stealing via an index counter — runs differ wildly in
/// cost, so static shards would idle). Each run is itself deterministic,
/// and results come back in input order, so the output is byte-identical
/// at any core count.
pub fn run_many(configs: Vec<SystemConfig>) -> Vec<RunReport> {
    let n = configs.len();
    let results: Mutex<Vec<Option<RunReport>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    cs_sim::fork_join(0..threads, |_, _| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let report = run_system(configs[i].clone());
        results.lock().expect("results mutex poisoned")[i] = Some(report);
    });
    results
        .into_inner()
        .expect("results mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every index was filled"))
        .collect()
}

/// Render an aligned markdown table, under its own heading, to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count().max(3)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:<width$} |", c, width = widths[i]));
        }
        println!("{out}");
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format a float to 4 decimals for table cells.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::SchedulerKind;

    fn tiny(seed: u64) -> SystemConfig {
        SystemConfig {
            nodes: 30,
            rounds: 8,
            startup_segments: 20,
            scheduler: SchedulerKind::ContinuStreaming,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn run_many_preserves_order_and_determinism() {
        let configs = vec![tiny(1), tiny(2), tiny(3), tiny(1)];
        let reports = run_many(configs);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].rounds, reports[3].rounds, "same seed, same run");
        assert_ne!(reports[0].rounds, reports[1].rounds);
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run_system(tiny(7));
        let parallel = run_many(vec![tiny(7)]).remove(0);
        assert_eq!(serial.rounds, parallel.rounds);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.12345), "0.1235");
    }
}

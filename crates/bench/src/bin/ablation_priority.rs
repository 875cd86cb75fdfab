//! Ablation A1: what drives the scheduler?
//!
//! Compares the production ContinuStreaming policy (eq. 3 with bounded
//! rescue and per-node tie diversification) against pure Algorithm-1
//! greedy runs driven by each raw policy, plus the CoolStreaming and
//! random baselines. This is the experiment that documents *why* the
//! bounded-rescue ordering exists: raw urgency-first ordering collapses
//! the swarm (the bound itself is `RESCUE_BUDGET_FRACTION` in
//! `cs-core`'s `system/schedule.rs`, which carries the reasoning).
//!
//! ```text
//! cargo run -p cs-bench --release --bin ablation_priority
//! ```

use cs_bench::{arg_rounds, arg_sizes, f3, f4, print_table, run_many};
use cs_core::{PriorityPolicy, SchedulerKind, SystemConfig};

fn main() {
    let n = arg_sizes(&[1000])[0];
    let rounds = arg_rounds(40);
    let variants: Vec<(&str, SchedulerKind, bool)> = vec![
        (
            "continu (bounded rescue)",
            SchedulerKind::ContinuStreaming,
            true,
        ),
        (
            "greedy urgency+rarity (raw eq.3)",
            SchedulerKind::GreedyWithPolicy(PriorityPolicy::UrgencyRarity),
            true,
        ),
        (
            "greedy urgency-only",
            SchedulerKind::GreedyWithPolicy(PriorityPolicy::UrgencyOnly),
            true,
        ),
        (
            "greedy rarity-only",
            SchedulerKind::GreedyWithPolicy(PriorityPolicy::RarityOnly),
            true,
        ),
        (
            "greedy rarest-first (1/n)",
            SchedulerKind::GreedyWithPolicy(PriorityPolicy::RarestFirst),
            true,
        ),
        (
            "coolstreaming (no prefetch)",
            SchedulerKind::CoolStreaming,
            false,
        ),
        ("random (no prefetch)", SchedulerKind::Random, false),
    ];
    let configs = variants
        .iter()
        .map(|&(_, scheduler, prefetch)| SystemConfig {
            nodes: n,
            rounds,
            scheduler,
            prefetch_enabled: prefetch,
            ..Default::default()
        })
        .collect();
    eprintln!(
        "running {} variants (n = {n}, {rounds} rounds)…",
        variants.len()
    );
    let reports = run_many(configs);

    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&reports)
        .map(|(&(name, _, _), r)| {
            vec![
                name.to_string(),
                f3(r.summary.stable_continuity),
                f3(r.summary.mean_continuity),
                f4(r.summary.stable_prefetch_overhead),
                r.summary
                    .stabilization_secs
                    .map(|t| format!("{t:.0}"))
                    .unwrap_or_else(|| "never".into()),
            ]
        })
        .collect();
    print_table(
        "Ablation A1 — scheduling policy",
        &["policy", "stable PC", "mean PC", "pf overhead", "stab (s)"],
        &rows,
    );
}

//! Compare every scheduling policy on the same overlay — a library-level
//! view, small enough to run in seconds, of what the scorecard's
//! `ablation-priority/*` rows (`REPRODUCTION.md`) gate at n = 1000.
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use continustreaming::prelude::*;

fn main() {
    let nodes = 250;
    let rounds = 30;
    let variants: Vec<(&str, SchedulerKind, bool)> = vec![
        (
            "ContinuStreaming (full)",
            SchedulerKind::ContinuStreaming,
            true,
        ),
        (
            "ContinuStreaming, prefetch off",
            SchedulerKind::ContinuStreaming,
            false,
        ),
        (
            "CoolStreaming (rarest-first)",
            SchedulerKind::CoolStreaming,
            false,
        ),
        (
            "CoolStreaming + prefetch",
            SchedulerKind::CoolStreaming,
            true,
        ),
        ("naive random gossip", SchedulerKind::Random, false),
    ];

    println!(
        "{:<34} {:>9} {:>9} {:>10} {:>10}",
        "policy", "stable", "mean", "ctrl oh", "pf oh"
    );
    for (name, scheduler, prefetch) in variants {
        let config = SystemConfig {
            nodes,
            rounds,
            scheduler,
            prefetch_enabled: prefetch,
            ..SystemConfig::continustreaming(nodes, 31)
        };
        let r = SystemSim::new(config).run();
        println!(
            "{:<34} {:>9.3} {:>9.3} {:>10.4} {:>10.4}",
            name,
            r.summary.stable_continuity,
            r.summary.mean_continuity,
            r.summary.stable_control_overhead,
            r.summary.stable_prefetch_overhead,
        );
    }
    println!(
        "\nthe pre-fetch toggle isolates the paper's contribution: the same scheduler\n\
         with and without the DHT rescue path."
    );
}

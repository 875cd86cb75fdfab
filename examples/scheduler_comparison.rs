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
    let greedy = SchedulerKind::GreedyWithPolicy;
    let variants = [
        ("ContinuStreaming", SchedulerKind::ContinuStreaming),
        (
            "greedy, urgency + rarity",
            greedy(PriorityPolicy::UrgencyRarity),
        ),
        ("greedy, urgency only", greedy(PriorityPolicy::UrgencyOnly)),
        ("greedy, rarity only", greedy(PriorityPolicy::RarityOnly)),
        ("greedy, rarest first", greedy(PriorityPolicy::RarestFirst)),
        ("CoolStreaming (rarest-first)", SchedulerKind::CoolStreaming),
        ("naive random gossip", SchedulerKind::Random),
    ];

    println!(
        "{:<34} {:>9} {:>9} {:>10} {:>10}",
        "policy", "stable", "mean", "ctrl oh", "pf oh"
    );
    for (name, scheduler) in variants {
        let config = SystemConfig {
            nodes,
            rounds,
            scheduler,
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
}

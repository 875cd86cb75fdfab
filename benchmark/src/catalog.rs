//! Every metric the benchmark reports, by name, unit and direction.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! self-test fails when the two disagree.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system sees. `bound` is
/// the share of the parent's median by which the metric may worsen
/// before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Simulated metrics are functions of the spec alone: two runs of
    /// one commit must agree on them exactly.
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "node_rounds_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "continuity_mean",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "continuity_stable",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "startup_delay_rounds",
        unit: "rounds",
        better: Lower,
        bound: 0.05,
        simulated: true,
    },
];

/// The 14 phases of the PR-9 round profiler, in execution order.
pub const PHASES: [&str; 14] = [
    "churn",
    "source_emit",
    "maintain",
    "exchange",
    "classify_sched",
    "schedule",
    "service_plan",
    "service_apply",
    "classify_prefetch",
    "prefetch_plan",
    "prefetch_exec",
    "recovery",
    "playback",
    "finalize",
];

/// A per-layer metric: `(name, unit, better)`. The prefix before the
/// first dot names the workspace crate the metric belongs to.
pub type PerLayer = (&'static str, &'static str, Better);

/// Per-layer metrics other than the per-phase times, which
/// [`per_layer`] splices in after `core.finish_s`.
const PER_LAYER_FIXED: [PerLayer; 62] = [
    ("scenario.parse_us", "us", Lower),
    ("scenario.drive_s", "s", Lower),
    ("scenario.events_applied", "count", Lower),
    ("scenario.export_s", "s", Lower),
    ("scenario.export_bytes", "bytes", Lower),
    ("trace.generate_s", "s", Lower),
    ("trace.edges", "count", Lower),
    ("dht.build_s", "s", Lower),
    ("dht.route_ns", "ns", Lower),
    ("dht.route_hops_mean", "hops", Lower),
    ("dht.route_success_ratio", "ratio", Higher),
    ("dht.churn_op_us", "us", Lower),
    ("dht.routing_msgs", "count", Lower),
    ("overlay.joins", "count", Lower),
    ("overlay.joins_rejected", "count", Lower),
    ("overlay.leaves", "count", Lower),
    ("core.init_s", "s", Lower),
    ("core.step_s", "s", Lower),
    ("core.step_p50_ms", "ms", Lower),
    ("core.step_tail_ms", "ms", Lower),
    ("core.step_tail_pct", "%", Higher),
    ("core.step_max_ms", "ms", Lower),
    ("core.finish_s", "s", Lower),
    ("core.phase.prefetch_exec_max_ms", "ms", Lower),
    ("core.phase_sum_vs_step", "ratio", Higher),
    ("core.requests_issued", "count", Lower),
    ("core.request_drop_ratio", "ratio", Lower),
    ("core.gossip_deliveries", "count", Higher),
    ("core.prefetch_attempts", "count", Lower),
    ("core.prefetch_success_ratio", "ratio", Higher),
    ("core.prefetch_suppressed", "count", Lower),
    ("core.active_sched_frac", "ratio", Lower),
    ("core.active_prefetch_frac", "ratio", Lower),
    ("core.faults_injected", "count", Lower),
    ("core.timeouts", "count", Lower),
    ("core.retries", "count", Lower),
    ("core.failovers", "count", Lower),
    ("core.deadlines", "count", Higher),
    ("core.deadlines_missed", "count", Lower),
    ("core.buffer.has_range_ns", "ns", Lower),
    ("core.buffer.fresh_for_ns", "ns", Lower),
    ("core.buffer.insert_slide_ns", "ns", Lower),
    ("core.sched.greedy_ns", "ns", Lower),
    ("core.sched.coolstreaming_ns", "ns", Lower),
    ("core.sched.random_ns", "ns", Lower),
    ("core.retrieve_one_ns", "ns", Lower),
    ("net.control_overhead", "ratio", Lower),
    ("net.prefetch_overhead", "ratio", Lower),
    ("net.link_latency_ns", "ns", Lower),
    ("obs.overhead_frac", "ratio", Lower),
    ("obs.aa_noise_frac", "ratio", Lower),
    ("obs.trace_events", "count", Lower),
    ("obs.trace_dropped", "count", Lower),
    ("obs.continuity_p99", "ratio", Higher),
    ("twin.send_s", "s", Lower),
    ("twin.poll_s", "s", Lower),
    ("twin.sent", "count", Lower),
    ("twin.delivered", "count", Lower),
    ("twin.late", "count", Lower),
    ("twin.divergences", "count", Lower),
    ("twin.vs_sim_ratio", "ratio", Lower),
    ("twin.envelope_ns", "ns", Lower),
];

/// Name of the per-layer metric carrying `phase`'s total time.
pub fn phase_metric(phase: &str) -> String {
    format!("core.phase.{phase}_s")
}

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for (name, unit, better) in PER_LAYER_FIXED {
        out.push((name.to_string(), unit, better));
        if name == "core.finish_s" {
            out.extend(PHASES.iter().map(|p| (phase_metric(p), "s", Lower)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        assert_eq!(names.len(), 7 + 62 + 14);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }
}

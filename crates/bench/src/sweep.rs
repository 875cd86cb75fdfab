//! Staged knob-sweep / ablation machinery for the continuity policy.
//!
//! Every Adaptive and recovery knob before PR 7 was hand-picked; this
//! module turns the tuning into an experiment: evaluate a deterministic
//! grid of knob points (each a whole [`AdaptivePolicy`] — its seven
//! fields are the swept knobs) against a committed scenario, stage by stage
//! (recovery plane → joiner integration → steady-state refinement),
//! emit a per-point continuity/overhead record for each, and reduce the
//! whole evaluated set to its Pareto frontier (no point on the frontier
//! is beaten on *both* continuity and overhead by any other). The
//! winning frontier for the committed scenarios lives in
//! `BENCH_knob_frontier.json`; the `knob_sweep` binary regenerates it.
//!
//! Everything here is deterministic: fixed grids, deterministic
//! scenario runs, input-order results and stable tie-breaks, so a
//! re-run diffs byte-identical (the CI sweep smoke pins exactly that).

use continustreaming::prelude::{PolicyKind, RunSummary};
use continustreaming::scenario::ScenarioSpec;
use cs_core::AdaptivePolicy;

/// A compact human label for a knob point (table rows, logs).
pub fn label(p: &AdaptivePolicy) -> String {
    format!(
        "push={} cap={} sponsors={} seed={} grace={} slack={:.2} runway={}",
        p.source_push,
        p.source_rescue_cap,
        p.join_sponsors,
        p.join_seed,
        p.join_grace_rounds,
        p.inbound_slack,
        p.target_runway_rounds
    )
}

/// The `.scn` policy line that sets exactly this point — how a winning
/// point is committed back into a scenario spec.
pub fn scn_fragment(p: &AdaptivePolicy) -> String {
    format!(
        "policy = adaptive source_push={} source_rescue_cap={} join_sponsors={} \
         join_seed={} join_grace_rounds={} inbound_slack={} target_runway_rounds={}",
        p.source_push,
        p.source_rescue_cap,
        p.join_sponsors,
        p.join_seed,
        p.join_grace_rounds,
        p.inbound_slack,
        p.target_runway_rounds
    )
}

/// The measured outcome at one knob point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The evaluated point.
    pub point: AdaptivePolicy,
    /// Which search stage evaluated it.
    pub stage: &'static str,
    /// Mean continuity over the whole run (the CI gate's number).
    pub mean_continuity: f64,
    /// Stable-phase continuity (the paper's headline number).
    pub stable_continuity: f64,
    /// Pre-fetch overhead over the run.
    pub prefetch_overhead: f64,
    /// Control overhead over the run.
    pub control_overhead: f64,
    /// Stabilisation time in seconds, if the run stabilised.
    pub stabilization_secs: Option<f64>,
}

impl PointResult {
    fn from_summary(point: AdaptivePolicy, stage: &'static str, s: &RunSummary) -> Self {
        PointResult {
            point,
            stage,
            mean_continuity: s.mean_continuity,
            stable_continuity: s.stable_continuity,
            prefetch_overhead: s.prefetch_overhead,
            control_overhead: s.control_overhead,
            stabilization_secs: s.stabilization_secs,
        }
    }

    /// Combined overhead — the frontier's cost axis.
    pub fn overhead(&self) -> f64 {
        self.prefetch_overhead + self.control_overhead
    }

    /// True when `self` beats `other` on one axis without losing the
    /// other (the Pareto dominance test; NaN never dominates).
    pub fn dominates(&self, other: &Self) -> bool {
        self.mean_continuity >= other.mean_continuity
            && self.overhead() <= other.overhead()
            && (self.mean_continuity > other.mean_continuity || self.overhead() < other.overhead())
    }
}

/// Evaluate every point of a stage against `spec` (in parallel, results
/// in grid order). The spec's scheduler/seed/shape are untouched — only
/// the policy knobs vary.
pub fn evaluate_stage(
    spec: &ScenarioSpec,
    points: &[AdaptivePolicy],
    stage: &'static str,
) -> Vec<PointResult> {
    let specs: Vec<ScenarioSpec> = points
        .iter()
        .map(|&pt| {
            let mut s = spec.clone();
            s.config.policy = PolicyKind::Adaptive(pt);
            s
        })
        .collect();
    crate::run_scenarios(specs)
        .iter()
        .zip(points)
        .map(|(outcome, &point)| PointResult::from_summary(point, stage, &outcome.report.summary))
        .collect()
}

/// The index of the stage's winner: highest mean continuity, ties
/// broken by stable continuity, then lower overhead, then grid order —
/// fully deterministic.
pub fn best(results: &[PointResult]) -> usize {
    let mut best = 0;
    for (i, r) in results.iter().enumerate().skip(1) {
        let b = &results[best];
        let better = r.mean_continuity > b.mean_continuity
            || (r.mean_continuity == b.mean_continuity
                && (r.stable_continuity > b.stable_continuity
                    || (r.stable_continuity == b.stable_continuity
                        && r.overhead() < b.overhead())));
        if better {
            best = i;
        }
    }
    best
}

/// The Pareto frontier of the whole evaluated set, as indices into
/// `all`, sorted by overhead ascending (continuity then ascends too —
/// that is what a frontier is). Dominated and NaN points drop out.
pub fn pareto_frontier(all: &[PointResult]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..all.len())
        .filter(|&i| {
            all[i].mean_continuity.is_finite()
                && all[i].overhead().is_finite()
                && !all.iter().enumerate().any(|(j, other)| {
                    // First-in-grid wins among exact duplicates.
                    j != i
                        && (other.dominates(&all[i])
                            || (j < i
                                && other.mean_continuity == all[i].mean_continuity
                                && other.overhead() == all[i].overhead()))
                })
        })
        .collect();
    frontier.sort_by(|&a, &b| {
        all[a]
            .overhead()
            .total_cmp(&all[b].overhead())
            .then(all[a].mean_continuity.total_cmp(&all[b].mean_continuity))
            .then(a.cmp(&b))
    });
    frontier
}

/// JSON-safe float at the records' fixed precision; non-finite is `null`.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn json_point(r: &PointResult) -> String {
    format!(
        "{{\"stage\": \"{}\", \"source_push\": {}, \"source_rescue_cap\": {}, \
         \"join_sponsors\": {}, \"join_seed\": {}, \"join_grace_rounds\": {}, \
         \"inbound_slack\": {}, \"target_runway_rounds\": {}, \
         \"mean_continuity\": {}, \"stable_continuity\": {}, \
         \"prefetch_overhead\": {}, \"control_overhead\": {}, \
         \"stabilization_secs\": {}}}",
        r.stage,
        r.point.source_push,
        r.point.source_rescue_cap,
        r.point.join_sponsors,
        r.point.join_seed,
        r.point.join_grace_rounds,
        json_f64(r.point.inbound_slack),
        r.point.target_runway_rounds,
        json_f64(r.mean_continuity),
        json_f64(r.stable_continuity),
        json_f64(r.prefetch_overhead),
        json_f64(r.control_overhead),
        r.stabilization_secs.map_or("null".into(), json_f64),
    )
}

/// The whole sweep record for one scenario, rendered as deterministic
/// JSON (fixed field order, fixed float formatting, no timestamps —
/// the CI smoke diffs two generations byte for byte).
#[allow(clippy::too_many_arguments)]
pub fn sweep_json(
    scenario_name: &str,
    spec_fingerprint: u64,
    full_nodes: usize,
    full_rounds: u32,
    sweep_nodes: usize,
    sweep_rounds: u32,
    all: &[PointResult],
    legacy: &RunSummary,
    adaptive_default: &RunSummary,
    winner: &PointResult,
    full_size: Option<&PointResult>,
) -> String {
    let frontier = pareto_frontier(all);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scenario\": \"{scenario_name}\",\n"));
    out.push_str(&format!(
        "  \"spec_fingerprint\": \"0x{spec_fingerprint:016x}\",\n"
    ));
    out.push_str(&format!(
        "  \"spec_full_size\": {{\"nodes\": {full_nodes}, \"rounds\": {full_rounds}}},\n"
    ));
    out.push_str(&format!(
        "  \"sweep_size\": {{\"nodes\": {sweep_nodes}, \"rounds\": {sweep_rounds}}},\n"
    ));
    out.push_str(&format!(
        "  \"reference\": {{\"legacy_mean\": {}, \"legacy_stable\": {}, \
         \"adaptive_default_mean\": {}, \"adaptive_default_stable\": {}}},\n",
        json_f64(legacy.mean_continuity),
        json_f64(legacy.stable_continuity),
        json_f64(adaptive_default.mean_continuity),
        json_f64(adaptive_default.stable_continuity),
    ));
    out.push_str("  \"points\": [\n");
    for (i, r) in all.iter().enumerate() {
        let sep = if i + 1 < all.len() { "," } else { "" };
        out.push_str(&format!("    {}{sep}\n", json_point(r)));
    }
    out.push_str("  ],\n");
    out.push_str("  \"frontier\": [\n");
    for (j, &i) in frontier.iter().enumerate() {
        let sep = if j + 1 < frontier.len() { "," } else { "" };
        out.push_str(&format!("    {}{sep}\n", json_point(&all[i])));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"winner\": {},\n", json_point(winner)));
    out.push_str(&format!(
        "  \"winner_scn_policy_line\": \"{}\",\n",
        scn_fragment(&winner.point)
    ));
    match full_size {
        Some(r) => out.push_str(&format!("  \"full_size_check\": {}\n", json_point(r))),
        None => out.push_str("  \"full_size_check\": null\n"),
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(mean: f64, over: f64) -> PointResult {
        PointResult {
            point: AdaptivePolicy::default(),
            stage: "t",
            mean_continuity: mean,
            stable_continuity: mean,
            prefetch_overhead: over,
            control_overhead: 0.0,
            stabilization_secs: None,
        }
    }

    #[test]
    fn scn_fragment_round_trips_through_the_parser() {
        let pt = AdaptivePolicy {
            source_push: 8,
            source_rescue_cap: 4,
            join_sponsors: 4,
            join_seed: 16,
            join_grace_rounds: 10,
            inbound_slack: 0.25,
            target_runway_rounds: 6,
        };
        let spec = continustreaming::scenario::parse_scenario(&scn_fragment(&pt))
            .expect("a sweep's policy line is a valid spec");
        assert_eq!(spec.config.policy, PolicyKind::Adaptive(pt));
    }

    #[test]
    fn dominance_and_frontier() {
        // (mean, overhead): b dominates a; c trades overhead for
        // continuity against b, so both survive; d is dominated by c.
        let all = vec![
            point(0.5, 0.4), // a
            point(0.6, 0.3), // b
            point(0.9, 0.5), // c
            point(0.8, 0.6), // d
        ];
        assert!(all[1].dominates(&all[0]));
        assert!(!all[1].dominates(&all[2]));
        let f = pareto_frontier(&all);
        assert_eq!(f, vec![1, 2], "frontier sorted by overhead ascending");
        // The winner is the continuity argmax.
        assert_eq!(best(&all), 2);
    }

    #[test]
    fn duplicate_points_keep_first_in_grid() {
        let all = vec![point(0.7, 0.3), point(0.7, 0.3)];
        assert_eq!(pareto_frontier(&all), vec![0]);
    }

    #[test]
    fn nan_points_never_reach_the_frontier() {
        let all = vec![point(f64::NAN, 0.3), point(0.2, 0.5)];
        assert_eq!(pareto_frontier(&all), vec![1]);
    }
}

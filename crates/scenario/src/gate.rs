//! CI gates over a finished run, failing **closed**.
//!
//! The runner's `--min-continuity` historically read
//! `summary.stable_continuity` directly; on a run whose stable tail
//! never had a single playing node (total collapse, or a spec whose
//! rounds all fall inside warm-up) that mean is vacuous, and a gate
//! comparing against it passes a dead swarm. Every gate here returns
//! `Err` — not a vacuous pass — when the quantity it checks is
//! undefined: an empty stable window, a missing distribution block, or
//! a non-finite value.

use cs_core::{stable_tail_start, RunReport, RunSummary};

/// The run's mean continuity (what `--min-continuity` has always
/// gated), or why it is undefined.
///
/// Fails closed when no round of the stable tail (the summary's own
/// window, [`stable_tail_start`]) had a playing node — the swarm
/// collapsed, or every simulated round is still warm-up and the mean
/// measures nothing — and when the mean is non-finite.
pub fn mean_continuity_gate(report: &RunReport) -> Result<f64, String> {
    let n = report.rounds.len();
    if n == 0 {
        return Err("no rounds were simulated: mean continuity is undefined".into());
    }
    let start = stable_tail_start(n);
    let playing = report.rounds[start..]
        .iter()
        .filter(|r| r.playing > 0)
        .count();
    if playing == 0 {
        return Err(format!(
            "no stable-phase round (rounds {}..{}) had any playing node: \
             the swarm collapsed or the run is all warm-up — \
             the continuity mean is vacuous, failing closed",
            start,
            n - 1
        ));
    }
    let v = report.summary.mean_continuity;
    if !v.is_finite() {
        return Err(format!("mean continuity is not finite ({v})"));
    }
    Ok(v)
}

/// The p99 per-node continuity (the level 99 % of measured nodes meet
/// or exceed), or why it is undefined.
///
/// Fails closed when the summary carries no distribution block (obs
/// was not armed), when no node qualified for the distribution window,
/// and when the quantile is non-finite.
pub fn p99_continuity_gate(summary: &RunSummary) -> Result<f64, String> {
    let Some(dist) = &summary.dist else {
        return Err(
            "the run carries no distribution block: p99 continuity needs the \
             observability layer armed (run through `run_scenario_observed`)"
                .into(),
        );
    };
    if dist.continuity.count == 0 {
        return Err(format!(
            "no node qualified for the continuity distribution \
             (window starts round {}, needs ≥{} playing rounds; \
             {} node(s) excluded as too short) — failing closed",
            dist.window_start_round, dist.min_rounds, dist.nodes_excluded_short
        ));
    }
    let v = dist.continuity.p99;
    if !v.is_finite() {
        return Err(format!("p99 continuity is not finite ({v})"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use crate::{run_scenario, run_scenario_observed};
    use cs_core::{ObsConfig, SystemConfig};

    fn tiny(rounds: u32) -> ScenarioSpec {
        ScenarioSpec::null(
            "gate",
            SystemConfig {
                nodes: 40,
                rounds,
                startup_segments: 20,
                seed: 5,
                ..SystemConfig::default()
            },
        )
    }

    #[test]
    fn mean_gate_passes_a_healthy_run() {
        let outcome = run_scenario(&tiny(12));
        let v = mean_continuity_gate(&outcome.report).expect("healthy run gates");
        assert_eq!(v, outcome.report.summary.mean_continuity);
    }

    #[test]
    fn mean_gate_fails_closed_when_nobody_plays() {
        // One round: everyone is still buffering toward first play, so
        // the stable tail has zero playing rounds — the historical bug
        // let this pass a `--min-continuity` gate.
        let outcome = run_scenario(&tiny(1));
        assert!(
            outcome.report.rounds.iter().all(|r| r.playing == 0),
            "precondition: a 1-round run must still be buffering"
        );
        let err = mean_continuity_gate(&outcome.report).unwrap_err();
        assert!(err.contains("failing closed"), "unexpected error: {err}");
    }

    #[test]
    fn p99_gate_needs_the_obs_layer() {
        let outcome = run_scenario(&tiny(12));
        let err = p99_continuity_gate(&outcome.report.summary).unwrap_err();
        assert!(err.contains("no distribution block"), "got: {err}");
    }

    #[test]
    fn p99_gate_reads_the_observed_distribution() {
        let outcome = run_scenario_observed(&tiny(30), ObsConfig::default(), |_| {});
        let v = p99_continuity_gate(&outcome.report.summary).expect("observed run gates");
        assert!((0.0..=1.0).contains(&v), "p99 continuity out of range: {v}");
    }

    #[test]
    fn p99_gate_fails_closed_on_an_empty_window() {
        // One round: everyone is still buffering toward first play, so
        // nobody samples the window and nothing qualifies.
        let outcome = run_scenario_observed(&tiny(1), ObsConfig::default(), |_| {});
        let err = p99_continuity_gate(&outcome.report.summary).unwrap_err();
        assert!(err.contains("failing closed"), "got: {err}");
    }
}

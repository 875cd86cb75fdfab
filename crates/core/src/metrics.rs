//! The paper's metrics (§5.3), per round and summarised.
//!
//! 1. **Playback continuity** — "for every round we record the ratio of
//!    nodes that have collected sufficient data segments to playback."
//! 2. **Control overhead** — buffer-map bits / gossip data bits.
//! 3. **Pre-fetch overhead** — (DHT routing + pre-fetched payload) bits /
//!    gossip data bits.
//!
//! Summaries report the stable phase the way the paper reads its tracks:
//! the stabilisation time is when continuity first stays within a small
//! band of its final level, and stable-phase values are means over the
//! tail of the run.

use cs_net::TrafficCounter;

/// Everything recorded at the end of one scheduling round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Simulated time at the end of the round, seconds.
    pub time_secs: f64,
    /// Alive non-source nodes.
    pub alive: usize,
    /// Nodes that have begun playback.
    pub playing: usize,
    /// Playing nodes that had every segment of this round's demand.
    pub continuous: usize,
    /// The §5.3 continuity ratio: `continuous / alive` (0 when empty).
    /// Nodes frozen by a VCR pause event are excluded from both sides —
    /// a paused player needs no data, so counting it as discontinuous
    /// would read pause pressure as a streaming stall. Without pause
    /// events this is exactly `continuous / alive`.
    pub continuity: f64,
    /// Traffic moved during this round only.
    pub traffic: TrafficCounter,
    /// Pre-fetch attempts this round (segments, not messages).
    pub prefetch_attempts: u32,
    /// Pre-fetch successes this round.
    pub prefetch_successes: u32,
    /// Case-1 events (overdue pre-fetched data) this round.
    pub prefetch_overdue: u32,
    /// Case-2 events (repeated data) this round.
    pub prefetch_repeated: u32,
    /// Rounds where retrieval was suppressed because `N_miss > l`.
    pub prefetch_suppressed: u32,
    /// Mean urgent ratio α over alive nodes.
    pub mean_alpha: f64,
    /// Segments delivered by gossip this round.
    pub gossip_deliveries: u64,
    /// Pull requests issued by schedulers this round.
    pub requests_issued: u64,
    /// Pull requests dropped at suppliers (budget exhausted) this round.
    pub requests_dropped: u64,
    /// Nodes that joined this round.
    pub joins: usize,
    /// Nodes that left this round.
    pub leaves: usize,
}

/// Stable-phase summary of one run.
///
/// `Debug` is implemented by hand and intentionally covers only the
/// original ten fields: behavioural fingerprints hash the full
/// `RunReport` `Debug` output, so the fields below the marker
/// (min-over-rounds diagnostics and the observability distribution
/// block) are *Debug-hidden* — they can appear, change, or carry
/// wall-clock-adjacent data without perturbing any pinned fingerprint.
#[derive(Clone, PartialEq)]
pub struct RunSummary {
    /// Mean continuity over the stable phase (the paper's headline
    /// number, e.g. 0.97 for ContinuStreaming static).
    pub stable_continuity: f64,
    /// First round (converted to seconds) at which continuity reached and
    /// held 95 % of the stable level — the paper's "enters its stable
    /// phase in N seconds". `None` if it never stabilised.
    pub stabilization_secs: Option<f64>,
    /// Control overhead over the whole run.
    pub control_overhead: f64,
    /// Pre-fetch overhead over the whole run.
    pub prefetch_overhead: f64,
    /// Control overhead over the stable phase only.
    pub stable_control_overhead: f64,
    /// Pre-fetch overhead over the stable phase only.
    pub stable_prefetch_overhead: f64,
    /// Mean continuity over the entire run.
    pub mean_continuity: f64,
    /// Total pre-fetch attempts / successes.
    pub prefetch_attempts: u64,
    /// Total successful pre-fetches.
    pub prefetch_successes: u64,
    /// Fraction of the run's rounds counted as stable phase.
    pub stable_fraction: f64,
    // ---- Debug-hidden fields (excluded from fingerprints) ----
    /// Worst per-round continuity over the whole run. Emitted
    /// unconditionally (even on collapsed runs where
    /// `stable_continuity == 0.0`) so an artifact alone shows how deep
    /// the run dipped.
    pub min_round_continuity: f64,
    /// Round index at which `min_round_continuity` occurred (first
    /// occurrence).
    pub min_continuity_round: u32,
    /// Per-node distribution summary (continuity/runway/startup/
    /// supplier-load percentiles). `Some` only when the observability
    /// layer's distribution metrics were enabled for the run.
    pub dist: Option<cs_obs::DistSummary>,
}

impl std::fmt::Debug for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Reproduces the pre-observability derived output exactly (same
        // fields, same order); see the struct-level note on fingerprints.
        f.debug_struct("RunSummary")
            .field("stable_continuity", &self.stable_continuity)
            .field("stabilization_secs", &self.stabilization_secs)
            .field("control_overhead", &self.control_overhead)
            .field("prefetch_overhead", &self.prefetch_overhead)
            .field("stable_control_overhead", &self.stable_control_overhead)
            .field("stable_prefetch_overhead", &self.stable_prefetch_overhead)
            .field("mean_continuity", &self.mean_continuity)
            .field("prefetch_attempts", &self.prefetch_attempts)
            .field("prefetch_successes", &self.prefetch_successes)
            .field("stable_fraction", &self.stable_fraction)
            .finish()
    }
}

/// A full run: per-round records plus the derived summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// One record per simulated round.
    pub rounds: Vec<RoundRecord>,
    /// Derived summary.
    pub summary: RunSummary,
}

/// Fraction of the run (from the end) treated as the stable phase.
const STABLE_TAIL_FRACTION: f64 = 1.0 / 3.0;

/// Band (relative to the stable level) within which continuity counts as
/// stabilised.
const STABILIZATION_BAND: f64 = 0.95;

/// First index of the stable-phase window for an `n`-round run: the
/// last `ceil(n/3)` rounds. Shared with the observability layer's
/// distribution window and the scenario gate helpers so all three
/// agree on what "stable phase" means. An empty run has an empty tail
/// starting at 0.
pub fn stable_tail_start(n: usize) -> usize {
    n - ((n as f64 * STABLE_TAIL_FRACTION).ceil() as usize).clamp(n.min(1), n)
}

/// Build a [`RunSummary`] from per-round records.
pub fn summarize(rounds: &[RoundRecord]) -> RunSummary {
    assert!(!rounds.is_empty(), "cannot summarise an empty run");
    let n = rounds.len();
    let tail_start = stable_tail_start(n);

    let stable = &rounds[tail_start..];
    let stable_continuity = stable.iter().map(|r| r.continuity).sum::<f64>() / stable.len() as f64;
    let mean_continuity = rounds.iter().map(|r| r.continuity).sum::<f64>() / n as f64;

    // Stabilisation: the first round from which continuity never drops
    // below the band again.
    let threshold = STABILIZATION_BAND * stable_continuity;
    let mut stabilization_secs = None;
    if stable_continuity > 0.0 {
        let mut candidate: Option<usize> = None;
        for (i, r) in rounds.iter().enumerate() {
            if r.continuity >= threshold {
                candidate.get_or_insert(i);
            } else {
                candidate = None;
            }
        }
        stabilization_secs = candidate.map(|i| rounds[i].time_secs);
    }

    let mut total = TrafficCounter::new();
    let mut stable_traffic = TrafficCounter::new();
    let mut attempts = 0u64;
    let mut successes = 0u64;
    for (i, r) in rounds.iter().enumerate() {
        total.merge(&r.traffic);
        if i >= tail_start {
            stable_traffic.merge(&r.traffic);
        }
        attempts += r.prefetch_attempts as u64;
        successes += r.prefetch_successes as u64;
    }
    let report = total.report();
    let stable_report = stable_traffic.report();

    // Min-over-rounds continuity, unconditionally: collapsed runs
    // (stable 0.0) must still be diagnosable from the summary alone.
    let mut min_round_continuity = f64::INFINITY;
    let mut min_continuity_round = 0u32;
    for r in rounds.iter() {
        if r.continuity < min_round_continuity {
            min_round_continuity = r.continuity;
            min_continuity_round = r.round;
        }
    }

    RunSummary {
        stable_continuity,
        stabilization_secs,
        control_overhead: report.control_overhead.unwrap_or(0.0),
        prefetch_overhead: report.prefetch_overhead.unwrap_or(0.0),
        stable_control_overhead: stable_report.control_overhead.unwrap_or(0.0),
        stable_prefetch_overhead: stable_report.prefetch_overhead.unwrap_or(0.0),
        mean_continuity,
        prefetch_attempts: attempts,
        prefetch_successes: successes,
        stable_fraction: stable.len() as f64 / n as f64,
        min_round_continuity,
        min_continuity_round,
        dist: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_net::TrafficClass;

    fn record(round: u32, continuity: f64) -> RoundRecord {
        RoundRecord {
            round,
            time_secs: (round + 1) as f64,
            alive: 100,
            playing: 100,
            continuous: (continuity * 100.0) as usize,
            continuity,
            traffic: TrafficCounter::new(),
            prefetch_attempts: 0,
            prefetch_successes: 0,
            prefetch_overdue: 0,
            prefetch_repeated: 0,
            prefetch_suppressed: 0,
            mean_alpha: 1.0 / 60.0,
            gossip_deliveries: 0,
            requests_issued: 0,
            requests_dropped: 0,
            joins: 0,
            leaves: 0,
        }
    }

    #[test]
    fn stable_phase_is_tail_mean() {
        // Ramp to 0.9 over 20 rounds, hold for 10: stable ≈ 0.9.
        let mut rounds: Vec<RoundRecord> = (0..20)
            .map(|i| record(i, 0.9 * (i as f64 + 1.0) / 20.0))
            .collect();
        rounds.extend((20..30).map(|i| record(i, 0.9)));
        let s = summarize(&rounds);
        assert!(
            (s.stable_continuity - 0.9).abs() < 0.02,
            "stable {}",
            s.stable_continuity
        );
        assert!(s.mean_continuity < s.stable_continuity);
    }

    #[test]
    fn stable_tail_of_an_empty_run_is_empty() {
        assert_eq!(
            [0, 1, 2, 3, 4, 30].map(stable_tail_start),
            [0, 0, 1, 2, 2, 20]
        );
    }

    #[test]
    fn stabilization_is_first_sustained_crossing() {
        let mut rounds: Vec<RoundRecord> = (0..10).map(|i| record(i, 0.1 * i as f64)).collect();
        rounds.extend((10..30).map(|i| record(i, 0.9)));
        let s = summarize(&rounds);
        // Threshold = 0.95 × 0.9 = 0.855; first sustained round ≥ that is
        // round 9 (0.9)… which holds through the end.
        let t = s.stabilization_secs.unwrap();
        assert!((t - 10.0).abs() < 1.01, "stabilised at {t}");
    }

    #[test]
    fn dip_resets_stabilization() {
        let mut rounds: Vec<RoundRecord> = (0..30).map(|i| record(i, 0.9)).collect();
        rounds[15] = record(15, 0.1); // transient collapse
        let s = summarize(&rounds);
        let t = s.stabilization_secs.unwrap();
        assert!(
            t > 16.0,
            "stabilisation must restart after the dip, got {t}"
        );
    }

    #[test]
    fn never_stabilises_when_flat_zero() {
        let rounds: Vec<RoundRecord> = (0..10).map(|i| record(i, 0.0)).collect();
        let s = summarize(&rounds);
        assert_eq!(s.stabilization_secs, None);
        assert_eq!(s.stable_continuity, 0.0);
    }

    #[test]
    fn overheads_aggregate_traffic() {
        let mut rounds: Vec<RoundRecord> = (0..6).map(|i| record(i, 1.0)).collect();
        for r in rounds.iter_mut() {
            r.traffic.add(TrafficClass::Data, 10_000);
            r.traffic.add(TrafficClass::Control, 100);
            r.traffic.add(TrafficClass::PrefetchRouting, 50);
            r.traffic.add(TrafficClass::PrefetchData, 150);
        }
        let s = summarize(&rounds);
        assert!((s.control_overhead - 0.01).abs() < 1e-12);
        assert!((s.prefetch_overhead - 0.02).abs() < 1e-12);
        assert!((s.stable_control_overhead - 0.01).abs() < 1e-12);
    }

    #[test]
    fn prefetch_counters_summed() {
        let mut rounds: Vec<RoundRecord> = (0..4).map(|i| record(i, 1.0)).collect();
        for r in rounds.iter_mut() {
            r.prefetch_attempts = 3;
            r.prefetch_successes = 2;
        }
        let s = summarize(&rounds);
        assert_eq!(s.prefetch_attempts, 12);
        assert_eq!(s.prefetch_successes, 8);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_run_panics() {
        let _ = summarize(&[]);
    }

    #[test]
    fn min_over_rounds_is_reported_even_when_collapsed() {
        let mut rounds: Vec<RoundRecord> = (0..10).map(|i| record(i, 0.0)).collect();
        rounds[3] = record(3, 0.2);
        let s = summarize(&rounds);
        assert_eq!(s.stable_continuity, 0.0);
        assert_eq!(s.min_round_continuity, 0.0);
        assert_eq!(s.min_continuity_round, 0, "first occurrence wins");
        let rounds: Vec<RoundRecord> = (0..10)
            .map(|i| record(i, if i == 7 { 0.4 } else { 0.9 }))
            .collect();
        let s = summarize(&rounds);
        assert_eq!(s.min_round_continuity, 0.4);
        assert_eq!(s.min_continuity_round, 7);
    }

    #[test]
    fn debug_output_hides_observability_fields() {
        // The manual Debug impl must look exactly like the pre-obs
        // derived output: fingerprints hash it.
        let rounds: Vec<RoundRecord> = (0..3).map(|i| record(i, 0.5)).collect();
        let mut s = summarize(&rounds);
        let before = format!("{s:?}");
        assert!(!before.contains("min_round_continuity"));
        assert!(!before.contains("dist"));
        s.min_round_continuity = 0.123;
        s.min_continuity_round = 42;
        assert_eq!(format!("{s:?}"), before, "hidden fields leaked into Debug");
        assert!(before.starts_with("RunSummary { stable_continuity: 0.5,"));
        assert!(before.ends_with("stable_fraction: 0.3333333333333333 }"));
    }
}

//! `cs-obs` — observability layer for the ContinuStreaming simulator.
//!
//! Four pillars, armed together and invisible to behavioural
//! fingerprints whether armed or not (by construction: obs consumes no
//! RNG, mutates no protocol state, and its wall-clock readings never
//! enter a `Debug` fingerprint):
//!
//! 1. [`profiler`] — per-phase monotonic-clock spans of the round
//!    loop into fixed-slot log₂ aggregates, allocation-free after
//!    warm-up.
//! 2. [`dist`] — deterministic fixed-bucket histograms over per-node
//!    continuity / runway / startup delay / supplier load, surfacing
//!    p50/p95/p99 (and exact min) for the `--min-p99-continuity`
//!    gate.
//! 3. [`events`] — bounded ring of typed protocol events exported as
//!    JSON-lines, byte-identical across re-runs and thread counts.
//! 4. [`monitor`] — std-`TcpListener` Prometheus-style text endpoint
//!    serving live snapshots published by the runner.
//!
//! The simulator owns one [`ObsState`] behind
//! `SystemSim::enable_obs` — one switch for the three in-core pillars;
//! every tap in the round loop is a single `Option` check when obs is
//! off.

pub mod dist;
pub mod events;
pub mod hist;
pub mod monitor;
pub mod profiler;

pub use dist::{DistSummary, NodeContinuity, Quantiles};
pub use events::{EventKind, EventRing, TraceEvent};
pub use hist::{Log2Hist, UnitHist};
pub use monitor::{render_twin_nodes, serve, MonitorHandle, TwinNodeRow};
pub use profiler::{Lap, Phase, PhaseRow, Profiler};

/// The argument of `SystemSim::enable_obs`. It carries no settings:
/// arming obs arms the profiler, the per-node distributions (measured
/// over the run's stable tail, see [`ObsState::new`]) and the event
/// trace (a ring of 65 536 events) as one unit. The monitor is external
/// — it is driven by a publisher, not armed here.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {}

/// Event-ring capacity (overwrite-oldest once full; the run report
/// counts what was dropped).
const TRACE_RING_EVENTS: usize = 65_536;

/// Everything obs-related a finished run exports. Plain data so
/// scenario outcomes can carry and compare it; `trace_jsonl` and
/// `dist` are deterministic, `phases` is wall-clock and must never be
/// byte-diffed.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRunReport {
    /// Always `Some`: the distributions arm with obs. The `Option` stays
    /// because the benchmark harness (`benchmark/`) reads one.
    pub dist: Option<DistSummary>,
    pub trace_jsonl: String,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub phases: Vec<PhaseRow>,
}

/// Live observability state owned by the simulator.
pub struct ObsState {
    dist_start: u32,
    pub profiler: Profiler,
    pub events: EventRing,
    pub node_cont: NodeContinuity,
    pub runway: Log2Hist,
    pub startup_delay: Log2Hist,
    pub supplier_load: Log2Hist,
    dist_cache: Option<DistSummary>,
}

impl ObsState {
    /// Arm every pillar. The distribution window is rounds
    /// `dist_start..total_rounds` — the simulator passes the summary's
    /// stable tail, so warm-up buffering does not drag per-node
    /// continuity — and a node's continuity enters the histogram only if
    /// it was playing for at least half the window (at least one round),
    /// excluding joiners that barely sampled it.
    pub fn new(dist_start: u32, total_rounds: u32) -> Self {
        let min_rounds = (total_rounds.saturating_sub(dist_start) / 2).max(1);
        Self {
            dist_start,
            profiler: Profiler::new(),
            events: EventRing::new(TRACE_RING_EVENTS),
            node_cont: NodeContinuity::new(min_rounds),
            runway: Log2Hist::new(),
            startup_delay: Log2Hist::new(),
            supplier_load: Log2Hist::new(),
            dist_cache: None,
        }
    }

    /// Whether `round` is inside the distribution measurement window.
    #[inline]
    pub fn dist_active(&self, round: u32) -> bool {
        round >= self.dist_start
    }

    /// Push a protocol event.
    #[inline]
    pub fn emit(&mut self, round: u32, kind: EventKind, node: u64, aux: u64, cause: &'static str) {
        self.events.push(TraceEvent {
            round,
            kind,
            node,
            aux,
            cause,
        });
    }

    /// Finalise and cache the distribution summary. Idempotent: the
    /// first call folds live per-node state into the histograms, later
    /// calls return the cached result (so `take_obs_report` and
    /// `finish` agree).
    pub fn dist_summary(&mut self) -> DistSummary {
        if self.dist_cache.is_none() {
            self.node_cont.finalize_all();
            self.dist_cache = Some(DistSummary {
                continuity: Quantiles::from_unit_lower_tail(self.node_cont.hist()),
                runway: Quantiles::from_log2_upper_tail(&self.runway),
                startup_delay: Quantiles::from_log2_upper_tail(&self.startup_delay),
                supplier_load: Quantiles::from_log2_upper_tail(&self.supplier_load),
                nodes_measured: self.node_cont.hist().count(),
                nodes_excluded_short: self.node_cont.excluded_short(),
                window_start_round: self.dist_start,
                min_rounds: self.node_cont.min_rounds(),
            });
        }
        self.dist_cache.clone().expect("just cached")
    }

    /// Point-in-time distribution summary including
    /// still-accumulating nodes (live monitoring; allocates).
    pub fn partial_dist(&self) -> DistSummary {
        let snap = self.node_cont.snapshot_hist();
        DistSummary {
            continuity: Quantiles::from_unit_lower_tail(&snap),
            runway: Quantiles::from_log2_upper_tail(&self.runway),
            startup_delay: Quantiles::from_log2_upper_tail(&self.startup_delay),
            supplier_load: Quantiles::from_log2_upper_tail(&self.supplier_load),
            nodes_measured: snap.count(),
            nodes_excluded_short: self.node_cont.excluded_short(),
            window_start_round: self.dist_start,
            min_rounds: self.node_cont.min_rounds(),
        }
    }

    /// Export everything a finished run reports.
    pub fn run_report(&mut self) -> ObsRunReport {
        ObsRunReport {
            dist: Some(self.dist_summary()),
            trace_jsonl: self.events.to_jsonl(),
            trace_events: self.events.len() as u64,
            trace_dropped: self.events.dropped(),
            phases: self.profiler.rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_defaults_mirror_stable_tail() {
        // 200 rounds -> stable tail 133..200 (67 rounds), min_rounds =
        // 67/2 = 33.
        let o = ObsState::new(133, 200);
        assert_eq!(o.dist_start, 133);
        assert_eq!(o.node_cont.min_rounds(), 33);
        assert!(!o.dist_active(132));
        assert!(o.dist_active(133));
        // Tiny runs stay sane.
        for rounds in [0, 1] {
            let o = ObsState::new(0, rounds);
            assert_eq!(o.node_cont.min_rounds(), 1);
        }
    }

    #[test]
    fn dist_summary_is_idempotent() {
        let mut o = ObsState::new(6, 10);
        o.node_cont.ensure(2);
        // 10 rounds -> window 4, min_rounds 2: two observations qualify.
        o.node_cont.observe(0, 1, true);
        o.node_cont.observe(0, 1, true);
        let a = o.dist_summary();
        let b = o.dist_summary();
        assert_eq!(a, b);
        assert_eq!(a.nodes_measured, 1);
    }
}

//! `cs-obs` — observability layer for the ContinuStreaming simulator.
//!
//! Four pillars, all opt-in and all invisible to behavioural
//! fingerprints when disabled (and — by construction — when enabled:
//! obs consumes no RNG, mutates no protocol state, and its wall-clock
//! readings never enter a `Debug` fingerprint):
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
//! `SystemSim::enable_obs`; every tap in the round loop is a single
//! `Option` check when obs is off.

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

/// Configuration for [`ObsState`]. `Default` arms all three in-core
/// pillars (the monitor is external — it is driven by a publisher,
/// not armed here).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Arm the per-phase round profiler.
    pub profile: bool,
    /// Arm the per-node distribution metrics (measured over the run's
    /// stable tail, see [`ObsState::new`]).
    pub dist: bool,
    /// Arm the structured event trace (a ring of 65 536 events).
    pub trace: bool,
}

/// Event-ring capacity (overwrite-oldest once full; the run report
/// counts what was dropped).
const TRACE_RING_EVENTS: usize = 65_536;

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            profile: true,
            dist: true,
            trace: true,
        }
    }
}

/// Everything obs-related a finished run exports. Plain data so
/// scenario outcomes can carry and compare it; `trace_jsonl` and
/// `dist` are deterministic, `phases` is wall-clock and must never be
/// byte-diffed.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRunReport {
    pub dist: Option<DistSummary>,
    pub trace_jsonl: String,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub phases: Vec<PhaseRow>,
}

/// Live observability state owned by the simulator.
pub struct ObsState {
    profile_on: bool,
    dist_on: bool,
    trace_on: bool,
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
    /// Build from config. The distribution window is rounds
    /// `dist_start..total_rounds` — the simulator passes the summary's
    /// stable tail, so warm-up buffering does not drag per-node
    /// continuity — and a node's continuity enters the histogram only if
    /// it was playing for at least half the window (at least one round),
    /// excluding joiners that barely sampled it.
    pub fn new(cfg: &ObsConfig, dist_start: u32, total_rounds: u32) -> Self {
        let min_rounds = (total_rounds.saturating_sub(dist_start) / 2).max(1);
        Self {
            profile_on: cfg.profile,
            dist_on: cfg.dist,
            trace_on: cfg.trace,
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

    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile_on
    }

    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace_on
    }

    #[inline]
    pub fn dist_enabled(&self) -> bool {
        self.dist_on
    }

    /// Whether `round` is inside the distribution measurement window.
    #[inline]
    pub fn dist_active(&self, round: u32) -> bool {
        self.dist_on && round >= self.dist_start
    }

    /// Push a protocol event (no-op when tracing is off).
    #[inline]
    pub fn emit(&mut self, round: u32, kind: EventKind, node: u64, aux: u64, cause: &'static str) {
        if self.trace_on {
            self.events.push(TraceEvent {
                round,
                kind,
                node,
                aux,
                cause,
            });
        }
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
        let dist = self.dist_on.then(|| self.dist_summary());
        ObsRunReport {
            dist,
            trace_jsonl: self.events.to_jsonl(),
            trace_events: self.events.len() as u64,
            trace_dropped: self.events.dropped(),
            phases: self.profiler.rows(),
        }
    }

    /// Zero the profiler's timing aggregates (after warm-up, so
    /// exported means cover only the steady window).
    pub fn reset_timings(&mut self) {
        self.profiler.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_defaults_mirror_stable_tail() {
        // 200 rounds -> stable tail 133..200 (67 rounds), min_rounds =
        // 67/2 = 33.
        let o = ObsState::new(&ObsConfig::default(), 133, 200);
        assert_eq!(o.dist_start, 133);
        assert_eq!(o.node_cont.min_rounds(), 33);
        assert!(!o.dist_active(132));
        assert!(o.dist_active(133));
        // Tiny runs stay sane.
        for rounds in [0, 1] {
            let o = ObsState::new(&ObsConfig::default(), 0, rounds);
            assert_eq!(o.node_cont.min_rounds(), 1);
        }
    }

    #[test]
    fn dist_summary_is_idempotent() {
        let mut o = ObsState::new(&ObsConfig::default(), 6, 10);
        o.node_cont.ensure(2);
        // 10 rounds -> window 4, min_rounds 2: two observations qualify.
        o.node_cont.observe(0, 1, true);
        o.node_cont.observe(0, 1, true);
        let a = o.dist_summary();
        let b = o.dist_summary();
        assert_eq!(a, b);
        assert_eq!(a.nodes_measured, 1);
    }

    #[test]
    fn emit_respects_trace_flag() {
        let mut o = ObsState::new(
            &ObsConfig {
                trace: false,
                ..ObsConfig::default()
            },
            6,
            10,
        );
        o.emit(1, EventKind::Leave, 5, 0, "graceful");
        assert!(o.events.is_empty());
    }
}

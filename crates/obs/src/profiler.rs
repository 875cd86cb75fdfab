//! Per-phase round profiler.
//!
//! One [`Lap`] timer walks the round and takes a single
//! `Instant::now()` at each phase boundary; the elapsed nanoseconds
//! land in a fixed-slot [`Log2Hist`] per [`Phase`] (sum/min/max/count
//! plus log₂ buckets), so recording is allocation-free and O(1). The
//! round is one thread, so the phases tile it: one lap each per round.
//! Wall-clock timings are *never* part of a behavioural fingerprint —
//! they exist only here.

use std::time::Instant;

use crate::hist::Log2Hist;

/// The phases of a round, in execution order. The numbering mirrors
/// the `--- N.` markers in `cs_core::system`'s round driver. Ten: steps
/// 6 and 7 are one loop each and keep the exported names of the halves
/// that moved state (`service_apply`, `prefetch_exec`), and none is for
/// deciding which nodes have work — each step finds that out node by
/// node, so the time is inside `Schedule` / `PrefetchExec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Phase 1: churn plan, leaves/joins, fault-plane crash injection.
    Churn,
    /// Phase 2: source segment emission.
    SourceEmit,
    /// Phase 3: overlay maintenance (partner scoring, starvation rewires).
    Maintain,
    /// Phases 4/4b/4c: buffer-map snapshot exchange, frontier push, joiner seeding.
    Exchange,
    /// Phase 5: segment scheduling (plan a node, queue its requests).
    Schedule,
    /// Phase 6: supplier service (queue sort, decisions, deliveries).
    ServiceApply,
    /// Phase 7: pre-fetch (urgent-line checks and DHT retrievals).
    PrefetchExec,
    /// Phase 7b: fault recovery (timeout scan, failover, retries).
    Recovery,
    /// Phase 8: playback advance + continuity accounting.
    Playback,
    /// Phase 9: GC + round-record finalisation.
    Finalize,
}

pub const PHASE_COUNT: usize = 10;

impl Phase {
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Churn,
        Phase::SourceEmit,
        Phase::Maintain,
        Phase::Exchange,
        Phase::Schedule,
        Phase::ServiceApply,
        Phase::PrefetchExec,
        Phase::Recovery,
        Phase::Playback,
        Phase::Finalize,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Churn => "churn",
            Phase::SourceEmit => "source_emit",
            Phase::Maintain => "maintain",
            Phase::Exchange => "exchange",
            Phase::Schedule => "schedule",
            Phase::ServiceApply => "service_apply",
            Phase::PrefetchExec => "prefetch_exec",
            Phase::Recovery => "recovery",
            Phase::Playback => "playback",
            Phase::Finalize => "finalize",
        }
    }
}

/// One row of the exported phase breakdown. Plain data: derives keep
/// it embeddable in scenario outcomes and bench JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub name: &'static str,
    pub count: u64,
    pub mean_ns: f64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p99_ns: u64,
}

/// Fixed-slot SoA phase profiler. All slots pre-allocated at
/// construction; recording never allocates.
pub struct Profiler {
    agg: [Log2Hist; PHASE_COUNT],
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Self {
            agg: std::array::from_fn(|_| Log2Hist::new()),
        }
    }

    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.agg[phase as usize].record(ns);
    }

    /// Zero all timing aggregates (e.g. after warm-up, so exported
    /// means cover only the steady window).
    pub fn reset(&mut self) {
        for h in &mut self.agg {
            h.reset();
        }
    }

    /// Export one row per phase with at least one sample.
    pub fn rows(&self) -> Vec<PhaseRow> {
        let mut out = Vec::new();
        for &p in Phase::ALL.iter() {
            let h = &self.agg[p as usize];
            if h.count() == 0 {
                continue;
            }
            out.push(PhaseRow {
                name: p.name(),
                count: h.count(),
                mean_ns: h.mean(),
                min_ns: h.min(),
                max_ns: h.max(),
                p99_ns: h.quantile(0.99),
            });
        }
        out
    }
}

/// Phase-boundary stopwatch: one `Instant::now()` per boundary, so
/// the profiler's own cost is a single clock read per phase. Inactive
/// laps (obs unarmed) cost one `Option` check.
pub struct Lap(Option<Instant>);

impl Lap {
    pub fn start(enabled: bool) -> Self {
        Self(enabled.then(Instant::now))
    }

    /// Nanoseconds since the previous boundary; restarts the lap.
    /// `None` when the lap is inactive.
    #[inline]
    pub fn lap_ns(&mut self) -> Option<u64> {
        self.0.map(|t| {
            let now = Instant::now();
            self.0 = Some(now);
            now.duration_since(t).as_nanos() as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_records_monotonic_spans() {
        let mut lap = Lap::start(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = lap.lap_ns().expect("enabled lap yields spans");
        assert!(ns >= 1_000_000, "slept 1ms but lap read {ns}ns");
        assert!(Lap::start(false).lap_ns().is_none());
    }

    #[test]
    fn profiler_rows_cover_recorded_phases_only() {
        let mut p = Profiler::new();
        p.record(Phase::Schedule, 100);
        p.record(Phase::Schedule, 300);
        p.record(Phase::Playback, 50);
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        let sched = rows.iter().find(|r| r.name == "schedule").unwrap();
        assert_eq!(sched.count, 2);
        assert_eq!(sched.mean_ns, 200.0);
        assert_eq!(sched.min_ns, 100);
        assert_eq!(sched.max_ns, 300);
        p.reset();
        assert!(p.rows().is_empty());
    }
}

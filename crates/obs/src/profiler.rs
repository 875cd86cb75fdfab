//! Per-phase round profiler.
//!
//! One [`Lap`] timer walks the round and takes a single
//! `Instant::now()` at each phase boundary; the elapsed nanoseconds
//! land in a fixed-slot [`Log2Hist`] per [`Phase`] (sum/min/max/count
//! plus log₂ buckets), so recording is allocation-free and O(1).
//!
//! With `SystemConfig::parallel_threads > 1` the planning halves fan out
//! across worker threads; per-thread sub-spans are accumulated into atomic
//! [`WorkerPhase`] aggregates through a shared `&Profiler`, which is
//! why those three slots are atomics rather than plain counters.
//! Wall-clock timings are *never* part of a behavioural fingerprint —
//! they exist only here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::Log2Hist;

/// Serial phases of a round, in execution order. The numbering
/// mirrors the `--- N.` markers in `cs_core::system`'s round driver.
/// Twelve, and none for deciding which nodes have work: each planner
/// finds that out in its own first step, so the time is inside
/// `Schedule` / `PrefetchPlan`.
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
    /// Phase 5: segment scheduling (serial or fan-out + serial merge).
    Schedule,
    /// Phase 6 (decision half): supplier service planning.
    ServicePlan,
    /// Phase 6 (mutating half): supplier service apply/merge.
    ServiceApply,
    /// Phase 7: pre-fetch planning.
    PrefetchPlan,
    /// Phase 7: pre-fetch DHT execution.
    PrefetchExec,
    /// Phase 7b: fault recovery (timeout scan, failover, retries).
    Recovery,
    /// Phase 8: playback advance + continuity accounting.
    Playback,
    /// Phase 9: GC + round-record finalisation.
    Finalize,
}

pub const PHASE_COUNT: usize = 12;

impl Phase {
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Churn,
        Phase::SourceEmit,
        Phase::Maintain,
        Phase::Exchange,
        Phase::Schedule,
        Phase::ServicePlan,
        Phase::ServiceApply,
        Phase::PrefetchPlan,
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
            Phase::ServicePlan => "service_plan",
            Phase::ServiceApply => "service_apply",
            Phase::PrefetchPlan => "prefetch_plan",
            Phase::PrefetchExec => "prefetch_exec",
            Phase::Recovery => "recovery",
            Phase::Playback => "playback",
            Phase::Finalize => "finalize",
        }
    }
}

/// Per-thread sub-spans inside the fan-out halves (recorded only when a
/// phase runs more than one shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum WorkerPhase {
    Schedule,
    ServicePlan,
    PrefetchPlan,
}

pub const WORKER_PHASE_COUNT: usize = 3;

impl WorkerPhase {
    pub const ALL: [WorkerPhase; WORKER_PHASE_COUNT] = [
        WorkerPhase::Schedule,
        WorkerPhase::ServicePlan,
        WorkerPhase::PrefetchPlan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkerPhase::Schedule => "schedule_worker",
            WorkerPhase::ServicePlan => "service_plan_worker",
            WorkerPhase::PrefetchPlan => "prefetch_plan_worker",
        }
    }
}

/// Atomic aggregate for worker sub-spans: recorded through `&self`
/// from inside scoped worker threads.
#[derive(Default)]
pub struct WorkerAgg {
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    count: AtomicU64,
}

impl WorkerAgg {
    fn record(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
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
    worker: [WorkerAgg; WORKER_PHASE_COUNT],
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
            worker: std::array::from_fn(|_| WorkerAgg::default()),
        }
    }

    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.agg[phase as usize].record(ns);
    }

    /// Record a worker sub-span; callable from worker threads through
    /// a shared reference.
    #[inline]
    pub fn record_worker(&self, phase: WorkerPhase, ns: u64) {
        self.worker[phase as usize].record(ns);
    }

    pub fn phase(&self, phase: Phase) -> &Log2Hist {
        &self.agg[phase as usize]
    }

    /// Zero all timing aggregates (e.g. after warm-up, so exported
    /// means cover only the steady window).
    pub fn reset(&mut self) {
        for h in &mut self.agg {
            h.reset();
        }
        for w in &self.worker {
            w.reset();
        }
    }

    /// Mean ns per recorded lap for one phase.
    pub fn mean_ns(&self, phase: Phase) -> f64 {
        self.agg[phase as usize].mean()
    }

    /// Total mean round cost: sum of per-phase means (phases tile the
    /// round exactly, one lap each per round).
    pub fn mean_round_ns(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.mean_ns(p)).sum()
    }

    /// Export one row per phase with at least one sample, serial
    /// phases first, then worker sub-spans.
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
        for &w in WorkerPhase::ALL.iter() {
            let a = &self.worker[w as usize];
            let count = a.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let sum = a.sum_ns.load(Ordering::Relaxed);
            out.push(PhaseRow {
                name: w.name(),
                count,
                mean_ns: sum as f64 / count as f64,
                min_ns: 0,
                max_ns: a.max_ns.load(Ordering::Relaxed),
                p99_ns: 0,
            });
        }
        out
    }
}

/// Phase-boundary stopwatch: one `Instant::now()` per boundary, so
/// the profiler's own cost is a single clock read per phase. Inactive
/// laps (profiling off) cost one `Option` check.
pub struct Lap(Option<Instant>);

impl Lap {
    pub fn start(enabled: bool) -> Self {
        Self(enabled.then(Instant::now))
    }

    /// Nanoseconds since the previous boundary; restarts the lap.
    /// `None` when profiling is off.
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
        p.record_worker(WorkerPhase::Schedule, 40);
        let rows = p.rows();
        assert_eq!(rows.len(), 3);
        let sched = rows.iter().find(|r| r.name == "schedule").unwrap();
        assert_eq!(sched.count, 2);
        assert_eq!(sched.mean_ns, 200.0);
        assert_eq!(sched.min_ns, 100);
        assert_eq!(sched.max_ns, 300);
        let worker = rows.iter().find(|r| r.name == "schedule_worker").unwrap();
        assert_eq!(worker.count, 1);
        p.reset();
        assert!(p.rows().is_empty());
    }
}

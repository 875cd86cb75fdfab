//! Per-node distribution metrics.
//!
//! The summary's `mean_continuity` averages over rounds before
//! recording — distribution-blind, exactly what a p99 gate cannot be
//! built on. This module accumulates *per-node* samples instead:
//!
//! * **continuity** — fraction of a node's playing rounds (inside the
//!   measurement window) where the play anchor advanced on time;
//! * **runway** — buffered contiguous segments ahead of the anchor;
//! * **startup delay** — rounds from spawn to first playback;
//! * **supplier load** — segments a supplier delivered in one round.
//!
//! Per-node continuity state lives in SoA arrays indexed by arena
//! slot, birth-guarded against slot reuse (same discipline as the
//! simulator's buffer-map snapshots): when a slot's recorded birth
//! changes, the previous occupant is finalised into the histogram
//! first. The fold is commutative counts, so the derived quantiles are
//! independent of finalisation order — deterministic across re-runs
//! and thread counts.

use crate::hist::{Log2Hist, UnitHist};

/// Deterministic quantile summary of one distribution.
///
/// For continuity the convention is lower-tail: `p99` is the level
/// 99% of nodes meet or exceed (so `p99 <= p95 <= p50`). For the
/// `u64` distributions it is the usual upper-tail (`p50 <= p95 <=
/// p99`), log₂-coarse with exact min/max/mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    pub count: u64,
    pub min: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
}

impl Quantiles {
    pub const fn zero() -> Self {
        Self {
            count: 0,
            min: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
            mean: 0.0,
        }
    }

    pub fn from_unit_lower_tail(h: &UnitHist) -> Self {
        Self {
            count: h.count(),
            min: h.min(),
            p50: h.floor_quantile(0.50),
            p95: h.floor_quantile(0.05),
            p99: h.floor_quantile(0.01),
            max: h.max(),
            mean: h.mean(),
        }
    }

    pub fn from_log2_upper_tail(h: &Log2Hist) -> Self {
        // A log₂ quantile is a bucket *upper bound*, which can exceed
        // the exact max (e.g. every sample in the [8,15] bucket with
        // max 12 → p50 "15"); clamping to the exact extremes keeps the
        // summary self-consistent without optimistic rounding.
        let max = h.max() as f64;
        let q = |f: f64| (h.quantile(f) as f64).min(max);
        Self {
            count: h.count(),
            min: h.min() as f64,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max,
            mean: h.mean(),
        }
    }
}

/// The distribution block attached to `RunSummary` when obs is
/// enabled. Excluded from the summary's `Debug` output (and therefore
/// from every behavioural fingerprint) by the summary's manual
/// `Debug` impl.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSummary {
    /// Per-node continuity over the measurement window (lower-tail
    /// quantiles).
    pub continuity: Quantiles,
    /// Per-node per-round runway (segments buffered ahead of the
    /// anchor), windowed.
    pub runway: Quantiles,
    /// Per-node startup delay in rounds (spawn → first playback), all
    /// rounds.
    pub startup_delay: Quantiles,
    /// Per-supplier per-round delivered segments (suppliers that
    /// delivered at least one), windowed.
    pub supplier_load: Quantiles,
    /// Nodes whose continuity sample entered the histogram.
    pub nodes_measured: u64,
    /// Nodes finalised with fewer than `min_rounds` playing rounds
    /// (short-lived joiners excluded from the continuity quantiles).
    pub nodes_excluded_short: u64,
    /// First round of the measurement window.
    pub window_start_round: u32,
    /// Minimum playing rounds inside the window for a node to count.
    pub min_rounds: u32,
}

impl DistSummary {
    /// The four distributions under their export names, in export order.
    pub fn quantiles(&self) -> [(&'static str, &Quantiles); 4] {
        [
            ("continuity", &self.continuity),
            ("runway", &self.runway),
            ("startup_delay", &self.startup_delay),
            ("supplier_load", &self.supplier_load),
        ]
    }
}

/// SoA per-node continuity accumulator, indexed by arena slot.
pub struct NodeContinuity {
    birth: Vec<u64>,
    playing: Vec<u32>,
    continuous: Vec<u32>,
    hist: UnitHist,
    min_rounds: u32,
    excluded_short: u64,
}

impl NodeContinuity {
    pub fn new(min_rounds: u32) -> Self {
        Self {
            birth: Vec::new(),
            playing: Vec::new(),
            continuous: Vec::new(),
            hist: UnitHist::new(),
            min_rounds: min_rounds.max(1),
            excluded_short: 0,
        }
    }

    /// Grow the slot arrays to cover `slots` (amortised; no-op once
    /// the arena is at steady size, so warmed-up rounds stay
    /// alloc-free).
    pub fn ensure(&mut self, slots: usize) {
        if self.birth.len() < slots {
            self.birth.resize(slots, 0);
            self.playing.resize(slots, 0);
            self.continuous.resize(slots, 0);
        }
    }

    /// Record one playing round for the node in `slot` with arena
    /// birth stamp `birth`. If the slot was reused since the last
    /// observation, the previous occupant is finalised first.
    #[inline]
    pub fn observe(&mut self, slot: usize, birth: u64, continuous: bool) {
        if self.birth[slot] != birth {
            self.finalize_slot(slot);
            self.birth[slot] = birth;
        }
        self.playing[slot] += 1;
        if continuous {
            self.continuous[slot] += 1;
        }
    }

    #[inline]
    fn finalize_slot(&mut self, slot: usize) {
        let p = self.playing[slot];
        if p == 0 {
            return;
        }
        if p >= self.min_rounds {
            self.hist.record(self.continuous[slot] as f64 / p as f64);
        } else {
            self.excluded_short += 1;
        }
        self.playing[slot] = 0;
        self.continuous[slot] = 0;
    }

    /// Finalise every live slot into the histogram (end of run).
    pub fn finalize_all(&mut self) {
        for slot in 0..self.playing.len() {
            self.finalize_slot(slot);
        }
    }

    /// Finalised histogram view (after [`Self::finalize_all`]).
    pub fn hist(&self) -> &UnitHist {
        &self.hist
    }

    /// Point-in-time histogram including still-accumulating nodes
    /// (for live monitoring; allocates a temporary, so never called
    /// from the round hot path).
    pub fn snapshot_hist(&self) -> UnitHist {
        let mut h = self.hist.clone();
        for slot in 0..self.playing.len() {
            let p = self.playing[slot];
            if p >= self.min_rounds {
                h.record(self.continuous[slot] as f64 / p as f64);
            }
        }
        h
    }

    pub fn excluded_short(&self) -> u64 {
        self.excluded_short
    }

    pub fn min_rounds(&self) -> u32 {
        self.min_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn birth_guard_finalizes_previous_occupant() {
        let mut nc = NodeContinuity::new(2);
        nc.ensure(4);
        // First occupant of slot 1: 3 playing rounds, 2 continuous.
        nc.observe(1, 10, true);
        nc.observe(1, 10, true);
        nc.observe(1, 10, false);
        // Slot reused by a new node (birth 22): old occupant folds in.
        nc.observe(1, 22, true);
        assert_eq!(nc.hist().count(), 1);
        nc.finalize_all();
        // New occupant had 1 playing round < min_rounds 2 -> excluded.
        assert_eq!(nc.hist().count(), 1);
        assert_eq!(nc.excluded_short(), 1);
        let q = Quantiles::from_unit_lower_tail(nc.hist());
        assert!((q.mean - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_includes_live_slots_without_mutation() {
        let mut nc = NodeContinuity::new(1);
        nc.ensure(2);
        nc.observe(0, 5, true);
        let snap = nc.snapshot_hist();
        assert_eq!(snap.count(), 1);
        assert_eq!(nc.hist().count(), 0, "snapshot must not finalise");
        nc.finalize_all();
        assert_eq!(nc.hist().count(), 1);
    }

    #[test]
    fn quantiles_of_empty_hists_are_zero() {
        let q = Quantiles::from_unit_lower_tail(&UnitHist::new());
        assert_eq!(q, Quantiles::zero());
        let q = Quantiles::from_log2_upper_tail(&Log2Hist::new());
        assert_eq!(q.count, 0);
        assert_eq!(q.p99, 0.0);
    }
}

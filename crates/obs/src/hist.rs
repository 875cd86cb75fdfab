//! Deterministic fixed-bucket histograms.
//!
//! Two shapes cover everything the simulator measures:
//!
//! * [`Log2Hist`] — 65 log₂ buckets over `u64` samples (phase
//!   durations in ns, runway lengths, startup delays, supplier
//!   loads). Bucket `b` holds values whose bit length is `b`, i.e.
//!   `[2^(b-1), 2^b)`; bucket 0 holds the value 0. Exact
//!   count/sum/min/max ride alongside, so means and extremes are
//!   exact while quantiles are log₂-coarse.
//! * [`UnitHist`] — 1024 equal-width buckets over `[0, 1]` (per-node
//!   continuity). The exact minimum is tracked separately so a gate
//!   on the worst node never rounds in the node's favour.
//!
//! Both are fixed-size, allocation-free to record into, and fold
//! commutatively: the final histogram is independent of sample order,
//! which is what makes the derived quantiles deterministic across
//! re-runs and thread counts.

/// Number of buckets in a [`Log2Hist`]: one per possible bit length
/// of a `u64` (0..=64).
pub const LOG2_BUCKETS: usize = 65;

/// Number of equal-width buckets in a [`UnitHist`].
pub const UNIT_BUCKETS: usize = 1024;

/// Log₂-bucket histogram over `u64` samples.
#[derive(Clone)]
pub struct Log2Hist {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Hist {
    pub const fn new() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize; // bit length, 0 for v == 0
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-tail quantile: the smallest bucket upper bound below
    /// which at least `q` of the samples fall. Log₂-coarse by
    /// construction; exact min/max bracket it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Bucket b covers [2^(b-1), 2^b - 1]; report the upper bound.
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
            }
        }
        self.max
    }

    /// Raw bucket counts (index = sample bit length).
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }
}

/// Equal-width histogram over the unit interval `[0, 1]`.
#[derive(Clone)]
pub struct UnitHist {
    buckets: [u64; UNIT_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for UnitHist {
    fn default() -> Self {
        Self::new()
    }
}

impl UnitHist {
    pub const fn new() -> Self {
        Self {
            buckets: [0; UNIT_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: f64) {
        let v = v.clamp(0.0, 1.0);
        let idx = ((v * UNIT_BUCKETS as f64) as usize).min(UNIT_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum recorded sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Lower-tail floor quantile: the lower edge of the bucket holding
    /// the `ceil(frac_below * count)`-th smallest sample. Used for
    /// continuity, where "p99" means the level that 99% of nodes meet
    /// or exceed — so `p99 = floor_quantile(0.01)`. Reporting the
    /// bucket's *lower* edge is conservative: the true quantile is at
    /// or above the reported value, so a gate never passes on
    /// rounding.
    pub fn floor_quantile(&self, frac_below: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((frac_below * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return i as f64 / UNIT_BUCKETS as f64;
            }
        }
        self.max
    }

    /// Fold another histogram into this one (commutative).
    pub fn merge(&mut self, other: &UnitHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_and_quantiles() {
        let mut h = Log2Hist::new();
        for v in [0u64, 1, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // p100 reaches the top bucket's upper bound (1000 has bit length 10 -> 1023).
        assert_eq!(h.quantile(1.0), 1023);
        // p50 (rank 4 of 8, sorted: 0,1,1,2) -> bucket of 2 -> upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // Empty histogram: all zeros, no NaN.
        let e = Log2Hist::new();
        assert_eq!(e.quantile(0.99), 0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.min(), 0);
    }

    #[test]
    fn unit_floor_quantile_is_conservative() {
        let mut h = UnitHist::new();
        // 99 samples at ~1.0, one at 0.25.
        for _ in 0..99 {
            h.record(0.999);
        }
        h.record(0.25);
        // p99 continuity = level 99% of samples meet or exceed. The
        // single low sample sits at rank 1 = ceil(0.01 * 100), so the
        // floor quantile lands in its bucket.
        let p99 = h.floor_quantile(0.01);
        assert!(p99 <= 0.25, "floor quantile must not exceed the sample");
        assert!(p99 >= 0.25 - 1.0 / UNIT_BUCKETS as f64);
        // Median lands in the high bucket.
        assert!(h.floor_quantile(0.5) > 0.99);
        assert_eq!(h.min(), 0.25);
    }

    #[test]
    fn unit_merge_is_commutative() {
        let mut a = UnitHist::new();
        let mut b = UnitHist::new();
        a.record(0.1);
        a.record(0.9);
        b.record(0.5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.floor_quantile(0.5), ba.floor_quantile(0.5));
        assert_eq!(ab.min(), ba.min());
    }

    #[test]
    fn empty_unit_hist_is_zero_not_nan() {
        let h = UnitHist::new();
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.floor_quantile(0.01), 0.0);
    }
}

//! Per-node bandwidth capacities (§5.2).
//!
//! "We randomly arrange inbound rate (from 300 Kbps to 1 Mbps) to each
//! node and let the average inbound rate be 450 Kbps, i.e. I ∈ [10, 33]
//! and I = 15 in average. The arrangement of outbound rate is alike. An
//! exception is that the source node has zero inbound rate and much
//! larger outbound rate, usually its I = 100."
//!
//! A uniform draw over [300, 1000] would average 650, so the paper's
//! distribution is necessarily skewed toward the bottom of the range; we
//! use a truncated-exponential draw calibrated to the stated 450 Kbps
//! mean. The *homogeneous* environments of §5.1 give every node exactly
//! the mean instead.

use rand::Rng;

use cs_sim::SimRng;

use crate::message::SEGMENT_KBITS;

/// The source's outbound capacity in segments per second ("usually its
/// I = 100" — the paper reuses the letter I for the source's outbound).
pub const SOURCE_OUTBOUND_SEGMENTS: f64 = 100.0;

/// The paper's mean per-node rate in Kbps ("let the average inbound
/// rate be 450 Kbps"); the homogeneous environments give every node
/// exactly this, and consumers that need a neutral default rate (e.g.
/// half-pinned scenario node classes) use it by name.
pub const PAPER_MEAN_KBPS: f64 = 450.0;

/// Inbound/outbound capacity of one node, in kilobits per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeBandwidth {
    /// Download capacity in Kbps.
    pub inbound_kbps: f64,
    /// Upload capacity in Kbps.
    pub outbound_kbps: f64,
}

impl NodeBandwidth {
    /// Inbound capacity in segments per second.
    pub fn inbound_segments_per_sec(&self) -> f64 {
        self.inbound_kbps / SEGMENT_KBITS
    }

    /// Outbound capacity in segments per second.
    pub fn outbound_segments_per_sec(&self) -> f64 {
        self.outbound_kbps / SEGMENT_KBITS
    }
}

/// How bandwidth is assigned across nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthProfile {
    /// Every node gets exactly the mean (the paper's "homogeneous"
    /// environments).
    Homogeneous,
    /// Truncated-exponential draw over `[lo, hi]` calibrated to the mean
    /// (the paper's "heterogeneous" environments).
    Heterogeneous,
}

/// Assigns per-node bandwidth according to the §5.2 recipe.
///
/// The heterogeneous law is fixed for the assigner's lifetime, so its
/// constants are solved once, at construction: a draw is one uniform and
/// one `ln`. The fields are private so the constants cannot go stale.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthAssigner {
    /// Lower bound of the range, Kbps (paper: 300).
    lo_kbps: f64,
    /// Upper bound of the range, Kbps (paper: 1000).
    hi_kbps: f64,
    /// Target mean, Kbps (paper: 450).
    mean_kbps: f64,
    /// The assignment profile.
    profile: BandwidthProfile,
    /// The truncated exponential's rate parameter μ (NaN, never read,
    /// under `Homogeneous`).
    mu: f64,
    /// Its cdf at the range's top, `1 − e^(−(hi − lo)/μ)` (NaN under
    /// `Homogeneous`).
    cap: f64,
}

impl Default for BandwidthAssigner {
    fn default() -> Self {
        BandwidthAssigner::paper(BandwidthProfile::Heterogeneous)
    }
}

impl BandwidthAssigner {
    /// An assigner over `[lo, hi]` Kbps with the given mean, its law
    /// solved here.
    ///
    /// # Panics
    /// Under `Heterogeneous`, unless `lo < mean < (lo + hi) / 2`.
    fn new(lo_kbps: f64, hi_kbps: f64, mean_kbps: f64, profile: BandwidthProfile) -> Self {
        let (mu, cap) = match profile {
            BandwidthProfile::Homogeneous => (f64::NAN, f64::NAN),
            BandwidthProfile::Heterogeneous => {
                // X = lo + E, E ~ Exp(μ) truncated to [0, hi − lo], with μ
                // solved so that E[X] = mean: 200 bisection steps on a
                // monotone function, once per assigner.
                let width = hi_kbps - lo_kbps;
                let target = mean_kbps - lo_kbps;
                assert!(
                    target > 0.0 && target < width / 2.0,
                    "heterogeneous mean must lie in (lo, (lo+hi)/2) for the \
                     exponential shape; use Homogeneous otherwise"
                );
                let mu = solve_truncated_exp_mu(target, width);
                (mu, 1.0 - (-width / mu).exp())
            }
        };
        BandwidthAssigner {
            lo_kbps,
            hi_kbps,
            mean_kbps,
            profile,
            mu,
            cap,
        }
    }

    /// The paper's configuration with the given profile.
    pub fn paper(profile: BandwidthProfile) -> Self {
        BandwidthAssigner::new(300.0, 1000.0, PAPER_MEAN_KBPS, profile)
    }

    /// Draw one rate in Kbps.
    pub fn sample_rate(&self, rng: &mut SimRng) -> f64 {
        match self.profile {
            BandwidthProfile::Homogeneous => self.mean_kbps,
            BandwidthProfile::Heterogeneous => {
                // Inverse-cdf sampling of the truncated exponential.
                let u: f64 = rng.gen();
                let e = -self.mu * (1.0 - u * self.cap).ln();
                self.lo_kbps + e.min(self.hi_kbps - self.lo_kbps)
            }
        }
    }

    /// Assign inbound and outbound independently ("the arrangement of
    /// outbound rate is alike").
    pub fn sample_node(&self, rng: &mut SimRng) -> NodeBandwidth {
        NodeBandwidth {
            inbound_kbps: self.sample_rate(rng),
            outbound_kbps: self.sample_rate(rng),
        }
    }

    /// The source's bandwidth: zero inbound, large outbound.
    pub fn source_node(&self) -> NodeBandwidth {
        NodeBandwidth {
            inbound_kbps: 0.0,
            outbound_kbps: SOURCE_OUTBOUND_SEGMENTS * SEGMENT_KBITS,
        }
    }
}

/// Solve for μ such that the mean of Exp(μ) truncated to [0, w] equals
/// `target`: mean(μ) = μ − w/(e^{w/μ} − 1). Monotone in μ; bisection.
/// Its bracket and step count fix μ's bits, and through them every
/// node's bandwidth and every pinned fingerprint.
fn solve_truncated_exp_mu(target: f64, w: f64) -> f64 {
    assert!(
        target > 0.0 && target < w / 2.0,
        "target must be below w/2 (exponential shape)"
    );
    let mean_of = |mu: f64| mu - w / ((w / mu).exp() - 1.0);
    let (mut lo, mut hi) = (1e-6, w * 50.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mean_of(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    #[test]
    fn homogeneous_is_exact() {
        let a = BandwidthAssigner::paper(BandwidthProfile::Homogeneous);
        let mut rng = RngTree::new(1).child("bw");
        for _ in 0..10 {
            let node = a.sample_node(&mut rng);
            assert_eq!(node.inbound_kbps, 450.0);
            assert_eq!(node.outbound_kbps, 450.0);
        }
    }

    #[test]
    fn heterogeneous_mean_is_calibrated() {
        let a = BandwidthAssigner::paper(BandwidthProfile::Heterogeneous);
        let mut rng = RngTree::new(2).child("bw");
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| a.sample_rate(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 450.0).abs() < 10.0,
            "mean {mean} Kbps should be ≈ 450"
        );
    }

    #[test]
    fn heterogeneous_respects_bounds() {
        let a = BandwidthAssigner::paper(BandwidthProfile::Heterogeneous);
        let mut rng = RngTree::new(3).child("bw");
        for _ in 0..5_000 {
            let r = a.sample_rate(&mut rng);
            assert!((300.0..=1000.0).contains(&r), "rate {r} out of range");
        }
    }

    #[test]
    fn paper_segment_rates() {
        // §5.2: 30 Kb segments → I ∈ [10, 33], mean 15.
        let lo = NodeBandwidth {
            inbound_kbps: 300.0,
            outbound_kbps: 300.0,
        };
        let hi = NodeBandwidth {
            inbound_kbps: 1000.0,
            outbound_kbps: 1000.0,
        };
        let mean = NodeBandwidth {
            inbound_kbps: 450.0,
            outbound_kbps: 450.0,
        };
        assert_eq!(lo.inbound_segments_per_sec(), 10.0);
        assert!((hi.inbound_segments_per_sec() - 33.3).abs() < 0.1);
        assert_eq!(mean.inbound_segments_per_sec(), 15.0);
    }

    #[test]
    fn source_shape() {
        let a = BandwidthAssigner::default();
        let src = a.source_node();
        assert_eq!(src.inbound_kbps, 0.0);
        assert_eq!(src.outbound_segments_per_sec(), 100.0);
    }

    #[test]
    fn deterministic() {
        let a = BandwidthAssigner::paper(BandwidthProfile::Heterogeneous);
        let draw = |seed| {
            let mut rng = RngTree::new(seed).child("bw");
            (0..10).map(|_| a.sample_rate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    /// `solve_truncated_exp_mu` as it stood when it ran on every draw,
    /// verbatim, so the oracle below does not move with the solver.
    fn solve_truncated_exp_mu_reference(target: f64, w: f64) -> f64 {
        assert!(
            target > 0.0 && target < w / 2.0,
            "target must be below w/2 (exponential shape)"
        );
        let mean_of = |mu: f64| mu - w / ((w / mu).exp() - 1.0);
        let (mut lo, mut hi) = (1e-6, w * 50.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mean_of(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The per-draw body `sample_rate` had before the law's constants
    /// moved to construction, verbatim: it re-solves μ on every call.
    fn sample_rate_per_draw(a: &BandwidthAssigner, rng: &mut SimRng) -> f64 {
        match a.profile {
            BandwidthProfile::Homogeneous => a.mean_kbps,
            BandwidthProfile::Heterogeneous => {
                // X = lo + E, E ~ Exp(μ) truncated to [0, hi − lo], with μ
                // solved so that E[X] = mean.
                let width = a.hi_kbps - a.lo_kbps;
                let target = a.mean_kbps - a.lo_kbps;
                assert!(
                    target > 0.0 && target < width / 2.0,
                    "heterogeneous mean must lie in (lo, (lo+hi)/2) for the \
                     exponential shape; use Homogeneous otherwise"
                );
                let mu = solve_truncated_exp_mu_reference(target, width);
                // Inverse-cdf sampling of the truncated exponential.
                let u: f64 = rng.gen();
                let cap = 1.0 - (-width / mu).exp();
                let e = -mu * (1.0 - u * cap).ln();
                a.lo_kbps + e.min(width)
            }
        }
    }

    /// `draws` seeded draws from `a` equal the per-draw oracle's bit for
    /// bit, and leave the RNG where the oracle leaves it.
    fn assert_draws_match_per_draw_solve(a: &BandwidthAssigner, seed: u64, draws: usize) {
        let width = a.hi_kbps - a.lo_kbps;
        let mu = solve_truncated_exp_mu_reference(a.mean_kbps - a.lo_kbps, width);
        assert_eq!(a.mu.to_bits(), mu.to_bits(), "{a:?}: μ");
        let mut fast = RngTree::new(seed).child("bw");
        let mut slow = fast.clone();
        for draw in 0..draws {
            let got = a.sample_rate(&mut fast);
            let want = sample_rate_per_draw(a, &mut slow);
            assert_eq!(got.to_bits(), want.to_bits(), "{a:?}: draw {draw}");
        }
        assert_eq!(fast, slow, "{a:?}: RNG streams diverged");
    }

    #[test]
    fn paper_law_solved_once_matches_per_draw_solve_bit_for_bit() {
        assert_draws_match_per_draw_solve(&BandwidthAssigner::default(), 40, 100_000);
    }

    /// Three more laws, 100 002 draws between them: a wide range, a
    /// mean just below the shape's limit, and a μ near the bracket floor.
    #[test]
    fn other_laws_solved_once_match_per_draw_solve_bit_for_bit() {
        for (seed, (lo, hi, mean)) in [
            (100.0, 2000.0, 300.0),
            (0.0, 1.0, 0.49),
            (512.0, 513.0, 512.001),
        ]
        .into_iter()
        .enumerate()
        {
            let a = BandwidthAssigner::new(lo, hi, mean, BandwidthProfile::Heterogeneous);
            assert_draws_match_per_draw_solve(&a, 41 + seed as u64, 33_334);
        }
    }

    #[test]
    #[should_panic(expected = "heterogeneous mean must lie in (lo, (lo+hi)/2)")]
    fn misshapen_heterogeneous_law_is_rejected_at_construction() {
        let _ = BandwidthAssigner::new(300.0, 1000.0, 700.0, BandwidthProfile::Heterogeneous);
    }

    #[test]
    fn solver_hits_target() {
        for (target, w) in [(150.0, 700.0), (100.0, 700.0), (300.0, 700.0)] {
            let mu = solve_truncated_exp_mu(target, w);
            let mean = mu - w / ((w / mu).exp() - 1.0);
            assert!((mean - target).abs() < 1e-6, "target {target}: got {mean}");
        }
    }
}

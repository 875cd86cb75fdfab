//! Deterministic randomness.
//!
//! All stochastic choices in the reproduction — trace generation, neighbour
//! selection, bandwidth assignment, churn sampling, DHT peer renewal — draw
//! from a tree of generators rooted at a single master seed. Each subsystem
//! asks the tree for a labelled child, so adding a new consumer of
//! randomness never shifts the stream any existing consumer sees. This is
//! what makes "same seed ⇒ same figure" hold as the codebase grows.
//!
//! The generator itself is `rand`'s `SmallRng` (xoshiro-family), which is
//! plenty for simulation workloads; the tree derivation uses SplitMix64,
//! the standard seed-expansion function. The two samplers `rand` lacks
//! without `rand_distr` live here too: [`standard_normal`] (the one
//! Box–Muller, behind the trace's log-normal pings and the large-λ
//! Poisson) and [`sample_poisson`] (scenario arrivals).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The concrete RNG used throughout the simulation.
pub type SimRng = SmallRng;

/// SplitMix64: a tiny, well-distributed 64-bit mixer. Used to derive child
/// seeds and as the "common hash function" the paper's backup placement
/// calls for (`hash(id·i) % N`, §4.3).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; used to hash textual labels into the seed
/// derivation so that child streams are identified by *name*, not by the
/// order in which subsystems happen to initialise. Public because it is
/// also the workspace's shared fingerprint hash (`cs-bench`'s drift
/// gates, `cs-scenario`'s spec/round fingerprints) — one implementation,
/// so pinned values stay comparable across crates.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A tree of labelled deterministic RNGs.
///
/// ```
/// use cs_sim::RngTree;
/// use rand::Rng;
///
/// let tree = RngTree::new(42);
/// let mut churn = tree.child("churn");
/// let mut sched = tree.child("scheduler");
/// // Independent streams: consuming one does not affect the other,
/// // and the same labels always give the same streams.
/// let a: u64 = churn.gen();
/// let b: u64 = RngTree::new(42).child("churn").gen();
/// assert_eq!(a, b);
/// let _ = sched.gen::<u64>();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RngTree {
    seed: u64,
}

impl RngTree {
    /// A tree rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        RngTree { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A child generator identified by a textual label.
    pub fn child(&self, label: &str) -> SimRng {
        SimRng::seed_from_u64(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// A child generator identified by a label and an index (e.g. one
    /// stream per node).
    pub fn child_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::seed_from_u64(splitmix64(
            splitmix64(self.seed ^ fnv1a(label.as_bytes())).wrapping_add(index),
        ))
    }
}

/// One standard-normal draw: Box–Muller, cosine branch. Takes two
/// uniforms, `1 − u1` first (in (0, 1], so the log is finite), then `u2`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample a Poisson-distributed count with the given mean λ.
///
/// Knuth's product method for λ ≤ 30, otherwise a normal approximation with
/// continuity correction — the simulator only needs Poisson draws for
/// modest λ (the paper's arrival model uses λτ ≈ 14–15), but parameter
/// sweeps may push it higher.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "Poisson λ must be finite and non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k: u64 = 0;
        let mut p: f64 = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation N(λ, λ).
        let x = lambda + lambda.sqrt() * standard_normal(rng) + 0.5;
        if x < 0.0 {
            0
        } else {
            x as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_known_values() {
        // Reference values from the canonical SplitMix64 implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn children_are_label_independent() {
        let tree = RngTree::new(7);
        let a: u64 = tree.child("alpha").gen();
        // Consuming another label's stream must not perturb "alpha".
        let _: u64 = tree.child("beta").gen();
        let a2: u64 = tree.child("alpha").gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn different_labels_differ() {
        let tree = RngTree::new(7);
        let a: u64 = tree.child("alpha").gen();
        let b: u64 = tree.child("beta").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_children_differ() {
        let tree = RngTree::new(7);
        let a: u64 = tree.child_indexed("node", 0).gen();
        let b: u64 = tree.child_indexed("node", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn standard_normal_is_the_inline_box_muller_draw_for_draw() {
        // The Box–Muller every pinned trace and large-λ Poisson count
        // was drawn with, written out as the reference.
        let inline = |rng: &mut SimRng| {
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut a = RngTree::new(5).child("normal");
        let mut b = RngTree::new(5).child("normal");
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let z = standard_normal(&mut a);
            assert_eq!(z.to_bits(), inline(&mut b).to_bits());
            sum += z;
        }
        // Both streams sit at the same position afterwards.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        assert!((sum / 10_000.0).abs() < 0.05, "mean {}", sum / 10_000.0);
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let mut rng = RngTree::new(2).child("poisson");
        let n = 20_000;
        let lambda = 15.0;
        let sum: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
        let observed = sum as f64 / n as f64;
        assert!(
            (observed - lambda).abs() < 0.15,
            "observed Poisson mean {observed} too far from {lambda}"
        );
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut rng = RngTree::new(3).child("poisson-large");
        let n = 20_000;
        let lambda = 120.0;
        let sum: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
        let observed = sum as f64 / n as f64;
        assert!(
            (observed - lambda).abs() < 1.0,
            "observed Poisson mean {observed} too far from {lambda}"
        );
    }

    #[test]
    fn poisson_zero() {
        let mut rng = RngTree::new(4).child("z");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }
}

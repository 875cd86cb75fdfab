//! Churn driver for the dynamic environments (§5.2).
//!
//! "To create a dynamic network environment, we randomly let 5% old nodes
//! leave and 5% new nodes join per scheduling period." Leaves split into
//! graceful departures (which hand their VoD backups to the
//! counter-clockwise closest node, §4.3) and abrupt failures (which do
//! not); the paper discusses both, so the split is configurable.

use rand::Rng;

use cs_dht::DhtId;
use cs_sim::SimRng;

/// Churn configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of current nodes leaving per scheduling period (paper:
    /// 0.05 in dynamic runs, 0.0 in static runs).
    pub leave_fraction: f64,
    /// Fraction of current nodes joining per scheduling period (paper:
    /// 0.05 in dynamic runs).
    pub join_fraction: f64,
    /// Of the leavers, the fraction departing gracefully (handover of
    /// backups) as opposed to failing abruptly.
    pub graceful_fraction: f64,
}

impl ChurnConfig {
    /// No churn: the paper's static environments.
    pub const STATIC: ChurnConfig = ChurnConfig {
        leave_fraction: 0.0,
        join_fraction: 0.0,
        graceful_fraction: 1.0,
    };

    /// The paper's dynamic environment: 5 % leave + 5 % join per period,
    /// half of the leavers graceful.
    pub const DYNAMIC: ChurnConfig = ChurnConfig {
        leave_fraction: 0.05,
        join_fraction: 0.05,
        graceful_fraction: 0.5,
    };

    /// Validate the fractions.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("leave_fraction", self.leave_fraction),
            ("join_fraction", self.join_fraction),
            ("graceful_fraction", self.graceful_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be within [0, 1], got {v}"));
            }
        }
        Ok(())
    }

    /// True when this config produces no membership changes.
    pub fn is_static(&self) -> bool {
        self.leave_fraction == 0.0 && self.join_fraction == 0.0
    }
}

/// One period's membership changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    /// Nodes leaving gracefully this period (with backup handover).
    pub graceful_leaves: Vec<DhtId>,
    /// Nodes failing abruptly this period (no handover).
    pub failures: Vec<DhtId>,
    /// Number of fresh nodes joining this period.
    pub joins: usize,
}

impl ChurnPlan {
    /// Total leavers.
    pub fn leavers(&self) -> usize {
        self.graceful_leaves.len() + self.failures.len()
    }
}

/// Sample one period of churn over the current membership. The source
/// node (`protect`) never leaves — the paper's stream would simply end
/// otherwise.
pub fn plan_churn(
    config: &ChurnConfig,
    members: &[DhtId],
    protect: DhtId,
    rng: &mut SimRng,
) -> ChurnPlan {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    if config.is_static() || members.is_empty() {
        return ChurnPlan::default();
    }
    let eligible: Vec<DhtId> = members.iter().copied().filter(|&m| m != protect).collect();
    let target_leavers =
        expected_count(members.len() as f64 * config.leave_fraction, rng).min(eligible.len());
    // Uniform sample without replacement (partial Fisher–Yates).
    let mut pool = eligible;
    let mut graceful = Vec::new();
    let mut failures = Vec::new();
    for k in 0..target_leavers {
        let idx = rng.gen_range(k..pool.len());
        pool.swap(k, idx);
        let victim = pool[k];
        if rng.gen_bool(config.graceful_fraction) {
            graceful.push(victim);
        } else {
            failures.push(victim);
        }
    }
    let joins = expected_count(members.len() as f64 * config.join_fraction, rng);
    ChurnPlan {
        graceful_leaves: graceful,
        failures,
        joins,
    }
}

/// Convert a fractional expected count into an integer draw with the
/// right mean: floor plus a Bernoulli on the remainder.
fn expected_count(expected: f64, rng: &mut SimRng) -> usize {
    let base = expected.floor();
    let frac = expected - base;
    base as usize + usize::from(frac > 0.0 && rng.gen_bool(frac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    fn members(n: u64) -> Vec<DhtId> {
        (0..n).collect()
    }

    #[test]
    fn static_config_is_empty_plan() {
        let mut rng = RngTree::new(1).child("churn");
        let plan = plan_churn(&ChurnConfig::STATIC, &members(100), 0, &mut rng);
        assert_eq!(plan, ChurnPlan::default());
        assert!(ChurnConfig::STATIC.is_static());
    }

    #[test]
    fn dynamic_rates_hit_five_percent() {
        let mut rng = RngTree::new(2).child("churn");
        let m = members(1000);
        let rounds = 300;
        let (mut leavers, mut joins) = (0usize, 0usize);
        for _ in 0..rounds {
            let plan = plan_churn(&ChurnConfig::DYNAMIC, &m, 0, &mut rng);
            leavers += plan.leavers();
            joins += plan.joins;
        }
        let leave_rate = leavers as f64 / (rounds as f64 * 1000.0);
        let join_rate = joins as f64 / (rounds as f64 * 1000.0);
        assert!((leave_rate - 0.05).abs() < 0.005, "leave rate {leave_rate}");
        assert!((join_rate - 0.05).abs() < 0.005, "join rate {join_rate}");
    }

    #[test]
    fn source_is_protected() {
        let mut rng = RngTree::new(3).child("churn");
        let m = members(50);
        for _ in 0..200 {
            let plan = plan_churn(&ChurnConfig::DYNAMIC, &m, 7, &mut rng);
            assert!(!plan.graceful_leaves.contains(&7));
            assert!(!plan.failures.contains(&7));
        }
    }

    #[test]
    fn leavers_are_distinct() {
        let mut rng = RngTree::new(4).child("churn");
        let cfg = ChurnConfig {
            leave_fraction: 0.5,
            join_fraction: 0.0,
            graceful_fraction: 0.5,
        };
        let m = members(60);
        for _ in 0..50 {
            let plan = plan_churn(&cfg, &m, 0, &mut rng);
            let mut all: Vec<DhtId> = plan
                .graceful_leaves
                .iter()
                .chain(plan.failures.iter())
                .copied()
                .collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before, "a node left twice in one period");
        }
    }

    #[test]
    fn graceful_split_respected() {
        let mut rng = RngTree::new(5).child("churn");
        let cfg = ChurnConfig {
            leave_fraction: 0.2,
            join_fraction: 0.0,
            graceful_fraction: 1.0,
        };
        let plan = plan_churn(&cfg, &members(200), 0, &mut rng);
        assert!(plan.failures.is_empty());
        assert!(!plan.graceful_leaves.is_empty());
        let cfg0 = ChurnConfig {
            graceful_fraction: 0.0,
            ..cfg
        };
        let plan0 = plan_churn(&cfg0, &members(200), 0, &mut rng);
        assert!(plan0.graceful_leaves.is_empty());
        assert!(!plan0.failures.is_empty());
    }

    #[test]
    fn small_population_fractional_sampling() {
        // 5% of 10 nodes = 0.5: over many rounds about half the rounds
        // should see one leaver.
        let mut rng = RngTree::new(6).child("churn");
        let m = members(10);
        let mut leavers = 0;
        let rounds = 2000;
        for _ in 0..rounds {
            leavers += plan_churn(&ChurnConfig::DYNAMIC, &m, 0, &mut rng).leavers();
        }
        let rate = leavers as f64 / rounds as f64;
        assert!((rate - 0.5).abs() < 0.06, "per-round leaver mean {rate}");
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_fraction_panics() {
        let mut rng = RngTree::new(7).child("churn");
        let cfg = ChurnConfig {
            leave_fraction: 1.5,
            join_fraction: 0.0,
            graceful_fraction: 0.5,
        };
        let _ = plan_churn(&cfg, &members(10), 0, &mut rng);
    }
}

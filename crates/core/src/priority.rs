//! Requesting priority (paper §4.2, equations 1–3).
//!
//! For each fresh segment `i` the Data Scheduler computes:
//!
//! * **urgency** (eq. 1): `t_i = (id_i − id_play)/p − 1/R_i` is the
//!   expected slack before the segment's deadline after accounting for
//!   its fastest transfer (`R_i = max_j R_ij`); `urgency_i = 1/t_i`.
//!   A non-positive `t_i` means the deadline is (effectively) now.
//! * **rarity** (eq. 2): `Π_j p_ij/B` — the probability the segment is
//!   about to be replaced in *all* its suppliers' FIFO buffers. The paper
//!   argues this beats the traditional `1/n_i` because it weighs *where*
//!   in each buffer the copies sit, not just how many there are.
//! * **priority** (eq. 3): `max(urgency, rarity)`.
//!
//! The ablation experiment A1 compares the paper's policy against
//! urgency-only, rarity-only and the traditional rarest-first `1/n_i`;
//! all are implemented here as [`PriorityPolicy`] variants. (The random
//! baseline is a scheduler, not a priority: it shuffles, so it ranks by
//! nothing and no priority is computed for it.)

use crate::SegmentId;

/// Urgency assigned when `t_i ≤ 0` (deadline passed or immediate): must
/// dominate every finite priority.
pub const URGENCY_SATURATION: f64 = 1e9;

/// Everything the §4.2 formulas need to know about one candidate
/// segment, with the per-supplier replacement probabilities `p_ij / B`
/// folded into their product — what the simulator's round loop computes
/// while scanning a candidate's suppliers, so evaluating a priority
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityTerms {
    /// The candidate segment.
    pub id: SegmentId,
    /// The segment currently being played (`id_play`).
    pub play_id: SegmentId,
    /// Playback rate `p`, segments per second.
    pub playback_rate: f64,
    /// `R_i = max_j R_ij`, segments per second.
    pub max_rate: f64,
    /// `Π_j (p_ij / B)` over the candidate's suppliers, folded in
    /// supplier order.
    pub rarity_product: f64,
    /// Number of suppliers advertising the segment (`n_i`).
    pub supplier_count: usize,
}

impl PriorityTerms {
    /// Equation (1): expected deadline slack `t_i` in seconds.
    pub fn deadline_slack(&self) -> f64 {
        assert!(self.playback_rate > 0.0, "playback rate must be positive");
        let lead = self.id.saturating_sub(self.play_id) as f64 / self.playback_rate;
        let transfer = if self.max_rate > 0.0 {
            1.0 / self.max_rate
        } else {
            f64::INFINITY
        };
        lead - transfer
    }

    /// Equation (1): `urgency = 1/t_i`, saturated when `t_i ≤ 0`. Within
    /// the saturated band, closer deadlines still rank higher (graded by
    /// how little lead the segment has), so a supplier under contention
    /// serves the most-overdue request first.
    pub fn urgency(&self) -> f64 {
        let t = self.deadline_slack();
        if t <= 0.0 {
            let lead = self.id.saturating_sub(self.play_id) as f64;
            URGENCY_SATURATION - lead
        } else {
            (1.0 / t).min(URGENCY_SATURATION)
        }
    }

    /// Equation (2): `rarity = Π_j (p_ij / B)`.
    pub fn rarity(&self) -> f64 {
        self.rarity_product
    }

    /// The traditional rarest-first metric `1/n_i` the paper compares
    /// against (CoolStreaming's policy).
    pub fn rarest_first(&self) -> f64 {
        if self.supplier_count == 0 {
            URGENCY_SATURATION // no supplier at all: maximally rare
        } else {
            1.0 / self.supplier_count as f64
        }
    }

    /// Equation (3): `priority = max(urgency, rarity)`.
    pub fn priority(&self) -> f64 {
        self.urgency().max(self.rarity())
    }
}

/// A priority policy: the paper's (eq. 3) and its ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityPolicy {
    /// The paper's `max(urgency, rarity)` (eq. 3).
    UrgencyRarity,
    /// Urgency only (eq. 1).
    UrgencyOnly,
    /// Rarity only (eq. 2).
    RarityOnly,
    /// CoolStreaming's `1/n_i`.
    RarestFirst,
}

impl PriorityPolicy {
    /// Evaluate the policy on one candidate.
    pub fn evaluate_terms(&self, terms: &PriorityTerms) -> f64 {
        match self {
            PriorityPolicy::UrgencyRarity => terms.priority(),
            PriorityPolicy::UrgencyOnly => terms.urgency(),
            PriorityPolicy::RarityOnly => terms.rarity(),
            PriorityPolicy::RarestFirst => terms.rarest_first(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The terms of a candidate whose suppliers hold it at the given
    /// `p_ij / B`, at `p = 10`.
    fn input(id: SegmentId, play: SegmentId, max_rate: f64, probs: &[f64]) -> PriorityTerms {
        PriorityTerms {
            id,
            play_id: play,
            playback_rate: 10.0,
            max_rate,
            rarity_product: probs.iter().product(),
            supplier_count: probs.len(),
        }
    }

    #[test]
    fn slack_matches_equation_one() {
        // id 120, playing 100 at p=10 → 2 s of lead; R=5 → 0.2 s transfer.
        let i = input(120, 100, 5.0, &[0.5]);
        assert!((i.deadline_slack() - 1.8).abs() < 1e-12);
        assert!((i.urgency() - 1.0 / 1.8).abs() < 1e-12);
    }

    #[test]
    fn urgency_grows_as_deadline_nears() {
        let far = input(200, 100, 10.0, &[0.5]);
        let near = input(105, 100, 10.0, &[0.5]);
        assert!(near.urgency() > far.urgency());
    }

    #[test]
    fn urgency_saturates_on_passed_deadline() {
        // id at the play point: zero lead, any transfer makes t ≤ 0.
        let i = input(100, 100, 10.0, &[0.5]);
        assert_eq!(i.urgency(), URGENCY_SATURATION);
        // id behind the play point (deadline already missed).
        let behind = input(90, 100, 10.0, &[0.5]);
        assert_eq!(behind.urgency(), URGENCY_SATURATION);
        // Within the saturated band, smaller lead ranks higher.
        let sooner = input(101, 100, 100.0, &[0.5]);
        let later = input(103, 100, 100.0, &[0.5]);
        assert!(sooner.urgency() > later.urgency());
    }

    #[test]
    fn zero_rate_means_infinite_transfer() {
        let i = input(200, 100, 0.0, &[0.5]);
        // Saturated (graded by lead): still astronomically above any
        // finite urgency.
        assert!(i.urgency() > URGENCY_SATURATION / 2.0);
    }

    #[test]
    fn rarity_is_product_of_probs() {
        let i = input(200, 100, 10.0, &[0.5, 0.8, 0.25]);
        assert!((i.rarity() - 0.1).abs() < 1e-12);
        // A fresh copy in one buffer (p/B ≈ 0) makes the segment safe.
        let safe = input(200, 100, 10.0, &[1.0, 0.01]);
        assert!(safe.rarity() < 0.02);
    }

    #[test]
    fn rarity_beats_count_based_metric() {
        // Two suppliers both about to evict (positions near tail) vs two
        // suppliers with fresh copies: same n_i, very different danger.
        let endangered = input(200, 100, 10.0, &[0.95, 0.9]);
        let safe = input(200, 100, 10.0, &[0.05, 0.1]);
        assert_eq!(endangered.rarest_first(), safe.rarest_first());
        assert!(endangered.rarity() > 50.0 * safe.rarity());
    }

    #[test]
    fn priority_is_max_of_components() {
        // Non-urgent but endangered: rarity wins.
        let rare = input(500, 100, 20.0, &[1.0, 0.99]);
        assert!((rare.priority() - rare.rarity()).abs() < 1e-12);
        // Urgent but plentiful: urgency wins.
        let urgent = input(102, 100, 20.0, &[0.1, 0.1]);
        assert!((urgent.priority() - urgent.urgency()).abs() < 1e-12);
    }

    #[test]
    fn supplierless_segment_is_maximally_rare_under_rarest_first() {
        let i = input(200, 100, 10.0, &[]);
        assert_eq!(i.rarest_first(), URGENCY_SATURATION);
        // Under eq. 2, an empty product is 1.0 — also the maximum rarity.
        assert_eq!(i.rarity(), 1.0);
    }

    #[test]
    fn policies_dispatch() {
        let i = input(120, 100, 5.0, &[0.5, 0.5]);
        assert_eq!(
            PriorityPolicy::UrgencyRarity.evaluate_terms(&i),
            i.priority()
        );
        assert_eq!(PriorityPolicy::UrgencyOnly.evaluate_terms(&i), i.urgency());
        assert_eq!(PriorityPolicy::RarityOnly.evaluate_terms(&i), i.rarity());
        assert_eq!(PriorityPolicy::RarestFirst.evaluate_terms(&i), 0.5);
    }
}

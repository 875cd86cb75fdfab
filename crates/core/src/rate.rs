//! The Rate Controller (§3, Figure 1): "monitors and estimates the
//! receiving rate from each connected neighbor."
//!
//! Estimates feed two consumers:
//!
//! * `R_ij` in the urgency formula (eq. 1) and `R(j)` in Algorithm 1 —
//!   the rate at which neighbour `j` is expected to deliver;
//! * Figure 2's "Recent supply rate" column — the signal for replacing
//!   neighbours that "supplied little data to the local node".
//!
//! The estimator is probe-based (AIMD-flavoured): it only updates on
//! periods in which the node actually *requested* from the neighbour —
//! an idle neighbour keeps its estimate, avoiding the
//! decay-to-zero/never-ask-again spiral. When a neighbour served
//! everything asked of it, the estimate multiplicatively probes upward
//! (the neighbour may have head-room); when it under-delivered, the
//! estimate averages down toward the observed rate.
//!
//! The state is one table: a row per neighbour holding its estimate and
//! the current period's request and delivery counts. A row starts at the
//! prior, so an absent neighbour and an unprobed one read the same rate.

use cs_dht::DhtId;

/// Multiplicative probe factor applied when a supplier fully served a
/// period's requests *and* the period actually exercised the current
/// estimate. Gentle: aggressive probing inflates every estimate to its
/// cap, which concentrates all pulls on one neighbour and collapses
/// goodput under contention.
const PROBE_UP: f64 = 1.15;

/// EWMA weight of the newest observation when a supplier under-delivered.
const DOWN_ALPHA: f64 = 0.5;

/// Hard ceiling on any estimate, segments/s (far above every bandwidth in
/// the paper's setup; guards the multiplicative probe).
const MAX_RATE: f64 = 500.0;

/// Per-neighbour receiving-rate estimator (segments per second).
///
/// Keyed by the neighbour's [`DhtId`]. A node tracks at most `M` (≈ 5)
/// neighbours, so the controller is one flat table of rows with
/// linear probes — no hashing on the round loop's hottest read path
/// (`rate()` is called once per candidate-supplier pair per round).
#[derive(Debug, Clone)]
pub struct RateController {
    /// Estimate used for neighbours never probed, segments/s.
    prior: f64,
    /// One row per neighbour seen since it was last forgotten.
    rows: Vec<RateRow>,
}

/// One neighbour's row: its estimate and this period's counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RateRow {
    key: DhtId,
    /// Current estimate, segments/s; `prior` until the first probe.
    estimate: f64,
    /// Segments requested from the neighbour this period.
    asked: u32,
    /// Segments the neighbour delivered this period.
    got: u32,
}

impl RateController {
    /// A controller whose unprobed-neighbour estimate is `prior`
    /// segments/s (a sensible default is the node's inbound capacity
    /// divided by `M`).
    pub fn new(prior: f64) -> Self {
        Self::with_capacity(prior, 0)
    }

    /// Like [`Self::new`], pre-reserving table capacity for `suppliers`
    /// neighbours. The table is bounded by the connected-neighbour count
    /// (departures are `forget`-ed), so a hint of `M` plus a little slack
    /// means the hot-path records never reallocate — the round loop's
    /// zero-allocation assertion relies on this.
    pub fn with_capacity(prior: f64, suppliers: usize) -> Self {
        assert!(prior > 0.0, "rate prior must be positive");
        RateController {
            prior,
            rows: Vec::with_capacity(suppliers),
        }
    }

    /// The row of `key`, appended at the prior if absent.
    #[inline]
    fn row(&mut self, key: DhtId) -> &mut RateRow {
        let i = match self.rows.iter().position(|r| r.key == key) {
            Some(i) => i,
            None => {
                self.rows.push(RateRow {
                    key,
                    estimate: self.prior,
                    asked: 0,
                    got: 0,
                });
                self.rows.len() - 1
            }
        };
        &mut self.rows[i]
    }

    /// Record one segment requested from `from` during this period.
    pub fn record_request(&mut self, from: DhtId) {
        self.row(from).asked += 1;
    }

    /// Record one segment delivered by `from` during this period.
    pub fn record_delivery(&mut self, from: DhtId) {
        self.row(from).got += 1;
    }

    /// Close the current period of `period_secs` seconds. Only neighbours
    /// that were *requested from* this period have their estimates
    /// updated: fully-served requests probe the estimate upward,
    /// under-served ones pull it down toward the observed rate.
    pub fn end_period(&mut self, period_secs: f64) {
        assert!(period_secs > 0.0);
        for row in &mut self.rows {
            if row.asked > 0 {
                let observed = row.got as f64 / period_secs;
                let current = row.estimate;
                let next = if row.got >= row.asked {
                    if observed >= 0.5 * current {
                        // The estimate was genuinely exercised: probe upward.
                        (current.max(observed) * PROBE_UP).min(MAX_RATE)
                    } else {
                        // Served in full, but we barely asked: no evidence
                        // either way — hold the estimate.
                        current
                    }
                } else {
                    (1.0 - DOWN_ALPHA) * current + DOWN_ALPHA * observed
                };
                row.estimate = next.max(0.01);
            }
            row.asked = 0;
            row.got = 0;
        }
    }

    /// The estimated receiving rate from `id`, segments/s (`R_ij`).
    #[inline]
    pub fn rate(&self, id: DhtId) -> f64 {
        self.rows
            .iter()
            .find(|r| r.key == id)
            .map_or(self.prior, |r| r.estimate)
    }

    /// Forget a departed neighbour.
    pub fn forget(&mut self, id: DhtId) {
        self.rows.retain(|r| r.key != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_neighbor_gets_prior() {
        let rc = RateController::new(3.0);
        assert_eq!(rc.rate(42), 3.0);
    }

    #[test]
    fn idle_neighbors_keep_their_estimate() {
        let mut rc = RateController::new(3.0);
        // Probe once: ask 2, get 2 → estimate rises.
        rc.record_request(1);
        rc.record_request(1);
        rc.record_delivery(1);
        rc.record_delivery(1);
        rc.end_period(1.0);
        let after_probe = rc.rate(1);
        assert!(after_probe > 3.0);
        // Ten idle periods: no decay.
        for _ in 0..10 {
            rc.end_period(1.0);
        }
        assert_eq!(rc.rate(1), after_probe);
    }

    #[test]
    fn fully_served_probes_upward() {
        let mut rc = RateController::new(2.0);
        for _ in 0..16 {
            // Ask at the current estimate so the probe condition (the
            // estimate was genuinely exercised) holds each period.
            let asked = rc.rate(1).ceil() as u32;
            for _ in 0..asked {
                rc.record_request(1);
                rc.record_delivery(1);
            }
            rc.end_period(1.0);
        }
        assert!(
            rc.rate(1) > 10.0,
            "estimate {} should probe well above the prior",
            rc.rate(1)
        );
    }

    #[test]
    fn under_delivery_pulls_estimate_down() {
        let mut rc = RateController::new(20.0);
        for _ in 0..8 {
            for _ in 0..10 {
                rc.record_request(1);
            }
            for _ in 0..3 {
                rc.record_delivery(1);
            }
            rc.end_period(1.0);
        }
        let r = rc.rate(1);
        assert!(
            (2.0..5.0).contains(&r),
            "estimate {r} should approach the observed 3/s"
        );
    }

    #[test]
    fn estimates_stabilise_at_true_capacity() {
        // Supplier truly serves min(asked, 5)/period. The probe must
        // oscillate around ~5, not run away or collapse.
        let mut rc = RateController::new(3.0);
        for _ in 0..40 {
            let asked = rc.rate(1).floor().max(1.0) as u32;
            for _ in 0..asked {
                rc.record_request(1);
            }
            for _ in 0..asked.min(5) {
                rc.record_delivery(1);
            }
            rc.end_period(1.0);
        }
        let r = rc.rate(1);
        assert!((3.0..12.0).contains(&r), "estimate {r} should hover near 5");
    }

    #[test]
    fn estimate_is_capped() {
        let mut rc = RateController::new(400.0);
        for _ in 0..20 {
            rc.record_request(1);
            rc.record_delivery(1);
            rc.end_period(1.0);
        }
        assert!(rc.rate(1) <= MAX_RATE);
    }

    #[test]
    fn period_length_scales_observation() {
        let mut rc = RateController::new(20.0);
        // Ask 10 per half-second period, get 3 → observed 6/s.
        for _ in 0..10 {
            for _ in 0..10 {
                rc.record_request(1);
            }
            for _ in 0..3 {
                rc.record_delivery(1);
            }
            rc.end_period(0.5);
        }
        let r = rc.rate(1);
        assert!((5.0..8.0).contains(&r), "estimate {r} should approach 6/s");
    }

    #[test]
    fn forget_removes_state() {
        let mut rc = RateController::new(3.0);
        rc.record_request(1);
        rc.record_delivery(1);
        rc.end_period(1.0);
        rc.forget(1);
        assert_eq!(rc.rate(1), 3.0, "back to the prior");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prior_panics() {
        let _ = RateController::new(0.0);
    }
}

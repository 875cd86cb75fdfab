//! Pre-fetch timing and the urgent ratio α (paper §4.3).
//!
//! Fetching one missed segment on demand costs a DHT locate plus a
//! reply/request/retrieve exchange (eq. 6–7):
//!
//! ```text
//! t_fetch = t_locate + t_reply + t_request + t_retrieve
//!         ≈ (log₂(n)/2 + 3) · t_hop
//! ```
//!
//! and the urgent line must sit far enough from the buffer head that a
//! segment predicted missed can still arrive before its deadline (eq. 9):
//!
//! ```text
//! α > (p / B) · max(τ, t_fetch)
//! ```
//!
//! The paper sets the initial α to exactly that lower bound and then adapts
//! it at runtime (implemented in `cs-core::urgent`); the success
//! probability of a single pre-fetch against `k` replicas uses the
//! `P_fail = ½` per-replica model of §4.3, giving `1 − ½^k`.

/// Expected time (seconds) to pre-fetch one segment: `(log₂(n)/2 + 3)·t_hop`
/// (paper eq. 7). `n` is the *expected* number of overlay nodes — the paper
/// notes it need not be accurate (e.g. `n = N/2`).
pub fn t_fetch(n: u64, t_hop_secs: f64) -> f64 {
    assert!(n >= 1, "need at least one node");
    assert!(t_hop_secs > 0.0, "hop time must be positive");
    ((n as f64).log2() / 2.0 + 3.0) * t_hop_secs
}

/// The lower bound on the urgent ratio (paper eq. 9):
/// `α > (p/B)·max(τ, t_fetch)`.
pub fn alpha_lower_bound(playback_rate: f64, buffer_size: u64, period: f64, t_fetch: f64) -> f64 {
    assert!(buffer_size > 0, "buffer must hold at least one segment");
    assert!(playback_rate > 0.0 && period > 0.0 && t_fetch >= 0.0);
    (playback_rate / buffer_size as f64) * period.max(t_fetch)
}

/// The adaptation step for α (paper §4.3, cases 1 and 2): `p·t_hop / B`.
pub fn alpha_step(playback_rate: f64, buffer_size: u64, t_hop_secs: f64) -> f64 {
    assert!(buffer_size > 0);
    playback_rate * t_hop_secs / buffer_size as f64
}

/// Probability that a segment can be fetched from at least one of `k`
/// backup replicas, under the paper's `P_fail = ½` per-replica model:
/// `1 − (½)^k`.
pub fn prefetch_success_probability(k: u32) -> f64 {
    1.0 - 0.5f64.powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn paper_tfetch_example() {
        // §5.2: n = 1000, t_hop ≈ 50 ms → t_fetch ≈ 8 × 50 ms = 400 ms.
        // (log₂ 1000 / 2 + 3 ≈ 7.98, the paper rounds to 8.)
        let t = t_fetch(1000, 0.050);
        assert!(close(t, 0.400, 0.002), "t_fetch = {t}");
    }

    #[test]
    fn paper_alpha_example() {
        // §5.2: α = (10/600)·max(1 s, 0.4 s) = 1/60.
        let a = alpha_lower_bound(10.0, 600, 1.0, 0.4);
        assert!(close(a, 1.0 / 60.0, 1e-12), "α = {a}");
    }

    #[test]
    fn tfetch_grows_with_network() {
        assert!(t_fetch(8000, 0.05) > t_fetch(100, 0.05));
    }

    #[test]
    fn alpha_bound_uses_max_of_period_and_tfetch() {
        // Slow fetch dominates when t_fetch > τ.
        let slow = alpha_lower_bound(10.0, 600, 1.0, 2.0);
        assert!(close(slow, 10.0 * 2.0 / 600.0, 1e-12));
        // Period dominates when t_fetch < τ.
        let fast = alpha_lower_bound(10.0, 600, 1.0, 0.1);
        assert!(close(fast, 10.0 / 600.0, 1e-12));
    }

    #[test]
    fn alpha_step_is_small() {
        // §4.3: the step p·t_hop/B must be small relative to α itself so α
        // "changes smoothly" — with paper defaults step/α = 1/20.
        let step = alpha_step(10.0, 600, 0.05);
        let alpha = alpha_lower_bound(10.0, 600, 1.0, 0.4);
        assert!(step < alpha / 10.0, "step {step} vs α {alpha}");
    }

    #[test]
    fn prefetch_success_known_values() {
        assert!(close(prefetch_success_probability(1), 0.5, 1e-12));
        assert!(close(prefetch_success_probability(4), 0.9375, 1e-12));
        assert_eq!(prefetch_success_probability(0), 0.0);
    }

    #[test]
    fn prefetch_success_monotone() {
        let mut prev = -1.0;
        for k in 0..10 {
            let p = prefetch_success_probability(k);
            assert!(p > prev);
            prev = p;
        }
    }
}

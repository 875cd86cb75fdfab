//! Routing-hop bounds of the loose DHT (paper §4.1 and appendix).
//!
//! The appendix proves that greedy clockwise routing in the loosely
//! organised DHT — where the level-`i` peer may be *anywhere* in
//! `[n + 2^(i-1), n + 2^i)` — shrinks the remaining clockwise distance by
//! at least a factor 3/4 per hop, giving the upper bound
//! `log N / log(4/3) ≈ 2.41 · log N` hops. Figure 3 then measures the
//! *average* to be about `log₂(n) / 2`, with query success ≈ 1.0 even in
//! sparse ID spaces. Both reference curves live here.

/// The appendix upper bound on routing hops: `log₂N / log₂(4/3)`.
///
/// `id_bits` is `log₂ N` (the ID-space size is `N = 2^id_bits`).
pub fn routing_hop_upper_bound(id_bits: u32) -> f64 {
    let log_n = id_bits as f64;
    log_n / (4.0f64 / 3.0).log2()
}

/// The paper's empirical average: `log₂(n) / 2` hops for `n` joined nodes
/// (Figure 3, top panel).
pub fn expected_routing_hops(n: u64) -> f64 {
    assert!(n >= 1, "need at least one node");
    (n as f64).log2() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_for_8192_id_space() {
        // N = 8192 = 2^13 → bound ≈ 2.41 × 13 ≈ 31.3 hops.
        let b = routing_hop_upper_bound(13);
        assert!((b - 31.32).abs() < 0.05, "bound = {b}");
    }

    #[test]
    fn expected_hops_examples() {
        // Figure 3: ~5 hops at n = 1000, ~6.5 at n = 8000.
        assert!((expected_routing_hops(1024) - 5.0).abs() < 1e-12);
        assert!((expected_routing_hops(8192) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn expected_hops_well_below_bound() {
        for bits in 7..=20 {
            let n = 1u64 << bits;
            assert!(expected_routing_hops(n) < routing_hop_upper_bound(bits));
        }
    }

    #[test]
    fn bound_grows_linearly_in_bits() {
        let b10 = routing_hop_upper_bound(10);
        let b20 = routing_hop_upper_bound(20);
        assert!((b20 / b10 - 2.0).abs() < 1e-12);
    }
}

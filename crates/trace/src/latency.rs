//! Latency derivation (paper §5.2): "The physical latency between two
//! overlay nodes is computed as the difference between their real-trace
//! ping times from a central node. This estimation of latency may be not
//! accurate but reasonable for our simulation settings."
//!
//! A small floor keeps co-located nodes (identical ping times) from
//! appearing to communicate instantaneously.

/// The minimum pair latency, in milliseconds. Two nodes with identical
/// crawler ping times are still at least a LAN round-trip apart.
pub const LATENCY_FLOOR_MS: f64 = 1.0;

/// The §5.2 latency rule for a pair of crawler ping times (milliseconds).
pub fn derive_latency(ping_a_ms: f64, ping_b_ms: f64) -> f64 {
    (ping_a_ms - ping_b_ms).abs().max(LATENCY_FLOOR_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_is_absolute_difference() {
        assert_eq!(derive_latency(80.0, 30.0), 50.0);
        assert_eq!(derive_latency(30.0, 80.0), 50.0);
    }

    #[test]
    fn floor_applies() {
        assert_eq!(derive_latency(50.0, 50.0), LATENCY_FLOOR_MS);
        assert_eq!(derive_latency(50.0, 50.5), LATENCY_FLOOR_MS);
    }

    #[test]
    fn triangle_inequality_holds_for_derived_metric() {
        // |a−b| ≤ |a−c| + |c−b| always; the floor can only break it by at
        // most the floor itself, which we tolerate in the simulator. Check
        // the raw rule.
        let pings = [12.0f64, 90.0, 33.0, 61.0];
        for &a in &pings {
            for &b in &pings {
                for &c in &pings {
                    assert!((a - b).abs() <= (a - c).abs() + (c - b).abs() + 1e-12);
                }
            }
        }
    }
}

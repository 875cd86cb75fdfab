//! Message size catalogue (§5.4.2–5.4.3).
//!
//! The paper accounts for traffic in bits with explicit sizes:
//!
//! * a buffer map is `20 + B` bits — "we use 600 bits to record the data
//!   availability ... the id of the first segment in the buffer is
//!   indicated by 20 bits" (the source emits at most
//!   `3600·10·24 = 864 000 ∈ (2¹⁹, 2²⁰)` segments per day);
//! * a DHT routing message is 10 bytes (80 bits);
//! * a data segment is 30 Kb, counted as `30 × 1024` bits;
//! * pre-fetching one segment costs about `k·(log₂(n)/2 + 1) + 1` routing
//!   messages plus the payload.

/// Segment size in kilobits (paper: 30). The bandwidth-to-segments/s
/// rates divide by it and the traffic accounting counts it in bits.
pub const SEGMENT_KBITS: f64 = 30.0;

/// Bits per data segment (30 Kb counted as 30 × 1024 bits, as in the
/// §5.4.2 overhead arithmetic).
pub const SEGMENT_BITS: u64 = SEGMENT_KBITS as u64 * 1024;

/// Size catalogue used by the byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Bits per data segment payload.
    pub segment_bits: u64,
    /// Bits used to carry the id of the buffer head in a buffer map.
    pub bufmap_head_bits: u64,
    /// Number of availability bits in a buffer map (= buffer capacity B).
    pub bufmap_window_bits: u64,
    /// Bits per DHT routing message (paper: 10 bytes).
    pub routing_message_bits: u64,
    /// Bits per PING/PONG probe of the join protocol.
    pub ping_bits: u64,
}

impl MessageSizes {
    /// The paper's sizes for a buffer of capacity `b` segments.
    pub const fn for_buffer(b: u64) -> Self {
        MessageSizes {
            segment_bits: SEGMENT_BITS,
            bufmap_head_bits: 20,
            bufmap_window_bits: b,
            routing_message_bits: 80,
            ping_bits: 64,
        }
    }

    /// Total bits of one buffer-map exchange message (`20 + B` = 620 for
    /// the paper's buffer).
    pub fn bufmap_bits(&self) -> u64 {
        self.bufmap_head_bits + self.bufmap_window_bits
    }

    /// Routing messages needed to pre-fetch one segment:
    /// `k·(log₂(n)/2 + 1) + 1` (§5.3: locate k backups, pick one, request).
    pub fn prefetch_routing_messages(&self, k: u32, n: u64) -> f64 {
        assert!(n >= 1);
        k as f64 * ((n as f64).log2() / 2.0 + 1.0) + 1.0
    }

    /// The paper's closed-form control overhead for perfect playback:
    /// `(bufmap · M) / (segment · p)` ≈ `M/495` with the paper's sizes
    /// (§5.4.2).
    pub fn ideal_control_overhead(&self, m: u32, playback_rate: f64) -> f64 {
        (self.bufmap_bits() * m as u64) as f64 / (self.segment_bits as f64 * playback_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's sizes: a 600-segment buffer.
    fn paper() -> MessageSizes {
        MessageSizes::for_buffer(600)
    }

    #[test]
    fn default_bufmap_is_620_bits() {
        assert_eq!(paper().bufmap_bits(), 620);
    }

    #[test]
    fn bufmap_scales_with_buffer() {
        assert_eq!(MessageSizes::for_buffer(300).bufmap_bits(), 320);
    }

    #[test]
    fn head_id_width_covers_a_day_of_segments() {
        // §5.4.2's justification: 3600·10·24 segments/day ∈ (2^19, 2^20).
        let per_day: u64 = 3600 * 10 * 24;
        assert!(per_day > 1 << 19 && per_day < 1 << 20);
        assert_eq!(paper().bufmap_head_bits, 20);
    }

    #[test]
    fn prefetch_routing_message_count() {
        let s = paper();
        // n = 1024: log₂ = 10 → k(10/2 + 1) + 1 = 4·6 + 1 = 25.
        assert_eq!(s.prefetch_routing_messages(4, 1024), 25.0);
    }

    #[test]
    fn ideal_control_overhead_matches_m_over_495() {
        let s = paper();
        for m in [4u32, 5, 6] {
            let oh = s.ideal_control_overhead(m, 10.0);
            let paper = m as f64 / 495.0;
            assert!(
                (oh - paper).abs() / paper < 0.01,
                "M={m}: {oh} vs paper {paper}"
            );
        }
    }

    #[test]
    fn control_overhead_below_two_percent() {
        // Figure 9's headline: all below 0.02 for M ≤ 6.
        let s = paper();
        assert!(s.ideal_control_overhead(6, 10.0) < 0.02);
    }
}

//! # cs-net — the simulated network substrate
//!
//! The paper's methodology (§5.2) models the network at the level that
//! matters for streaming: per-node inbound/outbound bandwidth caps,
//! pairwise latencies derived from trace ping times, and explicit message
//! sizes for the three traffic classes whose ratios define the paper's
//! overhead metrics (§5.3):
//!
//! * **control** — the 620-bit buffer-map exchanges (20-bit head id +
//!   600 availability bits);
//! * **data** — 30 Kb segment transfers;
//! * **pre-fetch** — 10-byte DHT routing messages plus the pre-fetched
//!   segment payloads.
//!
//! This crate provides the bandwidth assignment (random 300 Kbps–1 Mbps
//! with 450 Kbps mean, a zero-inbound high-outbound source), the message
//! size catalogue, and the byte-accounting sinks from which control
//! overhead (Figure 9) and pre-fetch overhead (Figures 10–11) are computed.

pub mod accounting;
pub mod bandwidth;
pub mod link;
pub mod message;

pub use accounting::{OverheadReport, TrafficClass, TrafficCounter};
pub use bandwidth::{
    BandwidthAssigner, BandwidthProfile, NodeBandwidth, PAPER_MEAN_KBPS, SOURCE_OUTBOUND_SEGMENTS,
};
pub use link::{LinkCatalog, LinkSpec};
pub use message::{MessageSizes, SEGMENT_BITS, SEGMENT_KBITS};

//! # cs-overlay — hybrid P2P overlay management (paper §4.1)
//!
//! Every ContinuStreaming node keeps a *Peer Table* with three parts
//! (Figure 2). This crate provides the two gossip-side parts; the
//! simulator's node state holds them next to the node's DHT peers:
//!
//! 1. **Connected Neighbors** ([`ConnectedNeighbors`]) — `M` gossip
//!    partners over TCP, with latency and supply columns and the Rate
//!    Controller's per-neighbour receiving-rate estimate (§3, Figure 1);
//!    weak or failed neighbours are replaced by the lowest-latency
//!    overheard node.
//! 2. **DHT Peers** — `log N` level-constrained peers, implemented in
//!    [`cs_dht`] (arena-backed, not part of this crate).
//! 3. **Overheard Nodes** ([`OverheardList`]) — the `H = 20` most
//!    recently overheard nodes; the renewal source for both other
//!    parts, maintained at zero communication cost.
//!
//! It also implements the RP (rendezvous point) server ([`RpServer`]:
//! ID assignment, the close-ID candidate list, failure reports) and the
//! churn driver used by the paper's dynamic environments (5 % leaves +
//! 5 % joins per scheduling period). The join protocol itself — PING
//! the RP's candidates, notify them, adopt a neighbour view, enter the
//! DHT — runs where the node arena lives, in `cs-core`'s membership
//! phase.

pub mod churn;
pub mod neighbors;
pub mod overheard;
pub mod rp;

pub use churn::{plan_churn, ChurnConfig, ChurnPlan};
pub use neighbors::{ConnectedNeighbors, NeighborEntry};
pub use overheard::{OverheardEntry, OverheardList};
pub use rp::RpServer;

//! # cs-dht — the loosely organised DHT (paper §4.1, §4.3, appendix)
//!
//! ContinuStreaming's structured overlay is deliberately *not* a full
//! Chord/Pastry: node `n`'s level-`i` DHT peer may be **any** node in
//! `[n + 2^(i-1), n + 2^i)` (mod `N`), "therefore node n has much freedom
//! in choosing its DHT peers and thus the DHT is loosely organized". Peer
//! state is refreshed opportunistically from nodes overheard in routing
//! messages, so maintenance is nearly free.
//!
//! This crate implements:
//!
//! * ID-space arithmetic over `N = 2^bits` and the dense id → slot table
//!   both node arenas resolve ids through ([`id`]);
//! * the level-constrained peer table ([`peers`]);
//! * greedy clockwise routing with hop accounting ([`routing`]) — the
//!   appendix bound `log N / log(4/3)` is enforced as a property test;
//! * the backup-placement hash `hash(id·i) % N` and the responsibility
//!   interval `[n, n₁)` ([`placement`]);
//! * a standalone DHT network simulator ([`network`]) used by the Figure 3
//!   experiment (average routing hops ≈ log₂(n)/2, query success ≈ 1.0)
//!   and as the structured-overlay substrate of the full system.

pub mod id;
pub mod network;
pub mod peers;
pub mod placement;
pub mod routing;

pub use id::{DhtId, IdSlotTable, IdSpace};
pub use network::{DhtNetwork, JoinError};
pub use peers::{DhtPeerEntry, DhtPeerTable};
pub use placement::{backup_target, backup_targets, common_hash, ResponsibilityRange};
pub use routing::{
    route, route_into, walk_into, RouteOutcome, RouteScratch, RouteStatus, RouteSummary,
};

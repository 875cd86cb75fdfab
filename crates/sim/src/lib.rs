//! # cs-sim — deterministic simulation substrate
//!
//! This crate is the lowest substrate of the ContinuStreaming reproduction.
//! Every experiment in the paper is a simulation (the authors never deployed
//! the system; PlanetLab was future work), so everything above this crate —
//! the DHT, the overlay, the streaming schedulers, the round loop in
//! `cs-core` — builds on these three pieces:
//!
//! 1. **Bit-reproducible time.** [`SimTime`]/[`SimDuration`] are integer
//!    microseconds, so round boundaries are exact on every platform.
//! 2. **Bit-reproducible randomness.** All draws flow from a single
//!    [`RngTree`], so subsystems cannot perturb each other's streams.
//! 3. **Deterministic fork-join.** [`fork_join`] is the workspace's only
//!    thread fan-out: shard boundaries depend on the input alone and
//!    results merge in shard order, so every parallel step is
//!    positionally identical at any worker count.

pub mod executor;
pub mod rng;
pub mod time;

pub use executor::fork_join;
pub use rng::{splitmix64, RngTree, SimRng};
pub use time::{SimDuration, SimTime};

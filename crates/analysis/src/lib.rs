//! # cs-analysis — the paper's theoretical models
//!
//! Section 5.1 of the ContinuStreaming paper models segment arrival at a
//! node as a Poisson process and derives closed forms for the playback
//! continuity with and without DHT-assisted pre-fetching (equations
//! 10–15), §4.3 gives the pre-fetch timing and the `1 − (½)^k` retrieval
//! model, and the appendix proves the `log N / log(4/3)` routing-hop
//! bound of the loose DHT. This crate implements those formulas; the
//! simulator parameterises the urgent line with them, and the
//! reproduction scorecard (`cs_bench::repro`) computes the bounds of its
//! claims from them, so a simulated value is judged against the theory
//! rather than printed beside it.
//!
//! Everything here is pure `f64` math with no dependencies; numerical care
//! (log-space Poisson terms) keeps the formulas stable for the λτ ranges a
//! parameter sweep can reach.

pub mod continuity;
pub mod dht_bounds;
pub mod poisson;
pub mod prefetch;

pub use continuity::{ContinuityModel, ContinuityPrediction};
pub use dht_bounds::{expected_routing_hops, routing_hop_upper_bound};
pub use poisson::Poisson;
pub use prefetch::{alpha_lower_bound, prefetch_success_probability, t_fetch};

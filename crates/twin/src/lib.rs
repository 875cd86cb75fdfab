//! # cs-twin — the live-network twin, v0
//!
//! The ROADMAP's path off the simulator clock: run the ContinuStreaming
//! protocol as message-exchanging node tasks over a transport, while
//! the deterministic `cs-core` round logic stays the single source of
//! protocol truth. The protocol is round-synchronous — exchange buffer
//! maps, then decide over what arrived — so the exchange is the only
//! seam: the twin is `cs_scenario`'s driver stepping every round with
//! `SystemSim::step_with` and an exchange of its own. Two pieces,
//! std-only (no tokio):
//!
//! * [`transport`] — typed protocol messages ([`WireMsg`] /
//!   [`Envelope`]) behind a [`Transport`] trait with per-link latency,
//!   loss and delay hooks; [`InProcTransport`] is the deterministic
//!   in-process implementation (real sockets are a follow-up with the
//!   same trait).
//! * [`runtime`] — the transport-backed exchange, one serial pass per
//!   round: each node announces its buffer map to itself (loopback) and
//!   its neighbours in ascending-id order, then the transport delivers
//!   in a unique total `(due, round, src, seq)` order up to the round's
//!   deadline and each envelope is folded as it is polled — a loopback
//!   copy becomes its node's view, every copy is checked against its
//!   sender's announcement. Time is virtual: it moves only to delivery
//!   instants and round barriers, never with the wall clock.
//!
//! ## The equivalence contract
//!
//! With a faithful transport (every announcement delivered unmodified
//! inside its round — e.g. [`LinkCatalog::uniform`] latency below the
//! round period, no loss), a twin run's decision log (the structured
//! event trace), fault trace, report and metrics exports are
//! **byte-identical** to `cs_scenario::run_scenario`'s under the same
//! spec. `tests/twin_equivalence.rs` locks this down, including runs
//! with the fault plane armed (crashes and per-path loss/delay
//! replay identically because the fault stream stays core-side), and
//! proves non-vacuity with a corrupting transport that must diverge.
//!
//! ```
//! use cs_core::SystemConfig;
//! use cs_scenario::{run_scenario, ScenarioSpec};
//! use cs_twin::{run_twin, TwinConfig};
//!
//! let spec = ScenarioSpec::null(
//!     "twin-demo",
//!     SystemConfig { nodes: 40, rounds: 10, startup_segments: 20, seed: 3,
//!                    ..SystemConfig::default() },
//! );
//! let sim = run_scenario(&spec);
//! let twin = run_twin(&spec, &TwinConfig::default());
//! assert_eq!(sim.report, twin.outcome.report);
//! assert_eq!(twin.divergences, 0);
//! ```

pub mod runtime;
pub mod transport;

pub use runtime::{
    drive_twin_over, run_twin, run_twin_observed, TwinConfig, TwinOutcome, TwinRoundStats,
};
pub use transport::{Envelope, InProcTransport, MsgBody, Transport, TransportStats, WireMsg};

// Re-exported so twin users name the link profile without a direct
// cs-net dependency.
pub use cs_net::{LinkCatalog, LinkSpec};

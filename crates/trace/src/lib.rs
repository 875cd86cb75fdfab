//! # cs-trace — overlay topology traces
//!
//! The paper evaluates on "30 real-trace unstructured overlay topologies"
//! collected from `dss.clip2.com` between Dec 2000 and Jun 2001 (Gnutella
//! crawls). That site has been dead since 2001 and the traces are not
//! archived, so this crate provides the closest synthetic equivalent:
//!
//! * a record type carrying exactly the fields the paper reads — node ID,
//!   IP, port, ping time (to a central crawler) and advertised speed;
//! * a generator producing topologies from 100 to 10 000 nodes with the
//!   sparse degree profile the paper describes (average degree < 1 to 3.5)
//!   and a ping-time distribution calibrated so the derived pair latency
//!   averages ≈ 50 ms, matching the paper's `t_hop`;
//! * the paper's own preprocessing step: "we add random edges into the
//!   overlay to let every node hold M = 5 connected neighbours";
//! * the latency rule of §5.2: the latency between two overlay nodes is
//!   the difference between their ping times from the central node.
//!
//! The substitution preserves what the simulator depends on: it reads a
//! trace only for each node's ping time (pair latencies) and for an
//! initial sparse neighbour graph, which the augmentation step then
//! tops up to `M` exactly as the paper does with the real crawls.
//! Topologies are generated from the run's seed; there is no trace file
//! format, because no entry point takes a trace from outside.

pub mod augment;
mod edgeset;
pub mod generate;
pub mod latency;
pub mod record;
pub mod topology;

pub use augment::augment_to_min_degree;
pub use generate::{TraceGenConfig, TraceGenerator};
pub use latency::derive_latency;
pub use record::{NodeRecord, SpeedClass};
pub use topology::{Topology, TopologyError};

//! # ContinuStreaming — reproduction of Li, Cao & Chen (IPDPS 2008)
//!
//! A full-system reproduction of **"ContinuStreaming: Achieving High
//! Playback Continuity of Gossip-based Peer-to-Peer Streaming"**: a
//! gossip-based P2P live-streaming system whose missing-segment stragglers
//! are rescued by on-demand retrieval over a loosely organised DHT.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `cs-sim` | deterministic discrete-event kernel |
//! | [`trace`] | `cs-trace` | Clip2-style overlay traces (generated, never loaded) |
//! | [`net`] | `cs-net` | bandwidth, message sizes, traffic accounting |
//! | [`dht`] | `cs-dht` | the loose DHT: peers, routing, placement |
//! | [`overlay`] | `cs-overlay` | neighbour and overheard tables, RP server, churn driver |
//! | [`core`] | `cs-core` | buffers, schedulers, urgent line, Algorithm 2, full-system simulator |
//! | [`scenario`] | `cs-scenario` | declarative workloads, telemetry export, CI gates |
//! | [`obs`] | `cs-obs` | phase profiler, distributions, event trace, monitor endpoint |
//! | [`twin`] | `cs-twin` | live-network twin: the buffer-map exchange of `SystemSim::step_with` moved over a transport (trait, virtual clock, sim-vs-live equivalence) |
//! | [`analysis`] | `cs-analysis` | the paper's closed-form models |
//!
//! ## Quick start
//!
//! ```
//! use continustreaming::prelude::*;
//!
//! let config = SystemConfig {
//!     nodes: 50,
//!     rounds: 15,
//!     startup_segments: 20,
//!     seed: 7,
//!     ..SystemConfig::default()
//! };
//! let report = SystemSim::new(config).run();
//! println!("stable continuity: {:.3}", report.summary.stable_continuity);
//! # assert!(report.summary.stable_continuity > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `cs_bench::repro` (the
//! `repro` binary, `REPRODUCTION.md`) for the paper's claims as a scorecard.
//!
//! ## Performance
//!
//! The round loop keeps node state in a dense arena (index handles, no
//! per-round hashing) and reuses all working memory across rounds; buffer
//! bitmap operations are word-level. The loose DHT uses the same layout
//! (dense slots, peers held by id, every id resolved through a dense
//! id → slot table in one array load), so greedy routing is
//! index-chasing rather than tree walking. The benchmark of record in
//! `benchmark/` measures all of it — four workloads spec-in to
//! report-out, every layer timed from outside:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload static_8k
//! ```
//!
//! A round is one thread: scheduling, supplier service and pre-fetch are
//! each one loop in node order, and the twin's exchange is one serial
//! pass. Threads are spent only across runs (`cs_bench::run_many`,
//! through [`cs_sim::fork_join`]).

pub use cs_analysis as analysis;
pub use cs_core as core;
pub use cs_dht as dht;
pub use cs_net as net;
pub use cs_obs as obs;
pub use cs_overlay as overlay;
pub use cs_scenario as scenario;
pub use cs_sim as sim;
pub use cs_trace as trace;
pub use cs_twin as twin;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use cs_analysis::{ContinuityModel, ContinuityPrediction};
    pub use cs_core::{
        AdaptivePolicy, EventOutcome, FaultPlan, FaultRoundRecord, FaultTrace, PolicyKind,
        PriorityPolicy, RoundRecord, RunReport, RunSummary, SchedulerKind, SeekTarget, SegmentId,
        StreamBuffer, SystemConfig, SystemEvent, SystemSim, Telemetry, TelemetryRound,
    };
    pub use cs_dht::{DhtId, DhtNetwork, IdSpace};
    pub use cs_net::{BandwidthProfile, NodeBandwidth, TrafficClass, TrafficCounter};
    pub use cs_obs::{DistSummary, ObsConfig, ObsRunReport, Quantiles};
    pub use cs_overlay::ChurnConfig;
    pub use cs_scenario::{
        mean_continuity_gate, p99_continuity_gate, parse_scenario, run_scenario,
        run_scenario_observed, ArrivalModel, MetricsLog, NodeClass, Phase, ScenarioEventKind,
        ScenarioSpec, SessionModel, TimedEvent, VcrModel,
    };
    pub use cs_sim::{RngTree, SimDuration, SimTime};
    pub use cs_trace::{Topology, TraceGenConfig, TraceGenerator};
    pub use cs_twin::{run_twin, run_twin_observed, LinkCatalog, TwinConfig, TwinOutcome};
}

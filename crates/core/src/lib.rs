//! # cs-core — the ContinuStreaming system
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`buffer`] — the FIFO segment buffer and its 620-bit wire encoding
//!   (20-bit head id + `B` availability bits, §5.4.2);
//! * [`priority`] — urgency (eq. 1), rarity (eq. 2) and requesting
//!   priority (eq. 3), plus the ablation variants;
//! * [`scheduler`] — Algorithm 1 (greedy earliest-receive supplier
//!   assignment) and the CoolStreaming rarest-first / random baselines;
//! * [`urgent`] — the Urgent Line mechanism with the adaptive urgent
//!   ratio α (eq. 4, 8–9 and the two adaptation cases);
//! * [`retrieval`] — Algorithm 2, on-demand retrieval of predicted-missed
//!   segments from DHT-located backups;
//! * [`backup`] — the VoD Data Backup store with `hash(id·i) % N ∈ [n, n₁)`
//!   responsibility and graceful-leave handover;
//! * [`rate`] — the Rate Controller (per-neighbour receiving-rate
//!   estimates feeding `R_i` in the urgency formula);
//! * [`system`] — the full-system simulator that reproduces the paper's
//!   §5 methodology end to end;
//! * [`metrics`] — playback continuity, control overhead and pre-fetch
//!   overhead (§5.3), per round and per stable phase.
//!
//! ## Quick start
//!
//! ```
//! use cs_core::config::{SchedulerKind, SystemConfig};
//! use cs_core::system::SystemSim;
//!
//! // A small ContinuStreaming network, static environment, 15 seconds.
//! let config = SystemConfig {
//!     nodes: 60,
//!     rounds: 15,
//!     startup_segments: 20, // short player buffering delay for the demo
//!     scheduler: SchedulerKind::ContinuStreaming,
//!     prefetch_enabled: true,
//!     seed: 1,
//!     ..SystemConfig::default()
//! };
//! let report = SystemSim::new(config).run();
//! assert!(report.summary.stable_continuity > 0.0);
//! ```

/// `assert!`-shaped validation step: return `Err(format!(…))` from the
/// enclosing `validate` unless the condition holds. A NaN makes every
/// float comparison false and so fails the step, like `assert!` would.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if $cond {
        } else {
            return Err(format!($($msg)+));
        }
    };
}

pub mod backup;
pub mod buffer;
pub mod config;
pub mod faults;
pub mod metrics;
pub mod policy;
pub mod priority;
pub mod rate;
pub mod retrieval;
pub mod scheduler;
pub mod telemetry;
pub mod urgent;

pub mod system;

pub use backup::VodBackupStore;
pub use buffer::StreamBuffer;
pub use config::{SchedulerKind, SystemConfig};
pub use cs_obs::{DistSummary, ObsConfig, ObsRunReport, ObsState, PhaseRow, Quantiles};
pub use faults::{FaultPlan, FaultRoundRecord, FaultTrace};
pub use metrics::{stable_tail_start, RoundRecord, RunReport, RunSummary};
pub use policy::{AdaptivePolicy, PolicyKind};
pub use priority::{PriorityPolicy, PriorityTerms};
pub use rate::RateController;
pub use retrieval::{RetrievalScratch, RetrievalSummary};
pub use scheduler::{
    Assignment, MaskCandidate, ScheduleContext, SchedulerScratch, SegmentCandidate,
};
pub use system::{EventOutcome, MapStore, SeekTarget, SystemEvent, SystemSim, TwinAnnounce};
pub use telemetry::{StartupSample, Telemetry, TelemetryRound};
pub use urgent::{PrefetchCheck, UrgentLine};

/// Identifier of a media data segment. The source numbers segments from 1
/// (0 is reserved: the backup-placement hash `hash(id·i)` degenerates at
/// id 0, see `cs_dht::placement`).
pub type SegmentId = u64;

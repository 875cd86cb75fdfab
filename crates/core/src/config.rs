//! Full-system configuration with the paper's §5.2 defaults.

use cs_dht::IdSlotTable;
use cs_net::BandwidthProfile;
use cs_overlay::ChurnConfig;

use crate::faults::FaultPlan;
use crate::policy::PolicyKind;
use crate::priority::PriorityPolicy;

/// Which data-scheduling policy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// ContinuStreaming: Algorithm 1 driven by `max(urgency, rarity)`.
    ContinuStreaming,
    /// The CoolStreaming baseline: rarest-first pull.
    CoolStreaming,
    /// Naive gossip: random order, random supplier.
    Random,
    /// Algorithm 1 driven by an alternative priority policy (ablation).
    GreedyWithPolicy(PriorityPolicy),
}

impl SchedulerKind {
    /// Whether the run pre-fetches through the DHT (Algorithm 2, step 7
    /// of a round): the Algorithm 1 schedulers do, the gossip baselines
    /// do not.
    pub fn prefetches(self) -> bool {
        matches!(
            self,
            SchedulerKind::ContinuStreaming | SchedulerKind::GreedyWithPolicy(_)
        )
    }
}

/// Full-system simulation parameters. Defaults are the paper's §5.2
/// values, each noted on its field. The §5.2 values no run varies are
/// constants: `B`, `p`, `τ` and `l` below, the segment size
/// [`cs_net::SEGMENT_KBITS`] and the overheard-list capacity `H`
/// ([`cs_overlay::overheard::DEFAULT_H`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of overlay nodes, excluding nothing — the source is one of
    /// them (paper: 100–10 000).
    pub nodes: usize,
    /// Scheduling periods to simulate (τ-sized rounds; paper tracks 30 s).
    pub rounds: u32,
    /// Connected-neighbour count `M` (paper: 5).
    pub neighbors: usize,
    /// Replicas per segment `k` (paper: 4).
    pub replicas: u32,
    /// Bandwidth distribution across nodes.
    pub bandwidth: BandwidthProfile,
    /// Churn model (static or dynamic environment).
    pub churn: ChurnConfig,
    /// The scheduling policy under test; it also decides whether the
    /// DHT-assisted on-demand retrieval runs
    /// ([`SchedulerKind::prefetches`]).
    pub scheduler: SchedulerKind,
    /// Segments of contiguous data a node buffers before starting
    /// playback.
    pub startup_segments: u64,
    /// Extra head room of the ID space: `N = next_pow2(nodes · this)`.
    ///
    /// The base capacity assumes *linear* join growth
    /// (`nodes · join_fraction · rounds`); a run whose overlay grows
    /// geometrically (join rate persistently above the leave rate, e.g. a
    /// flash crowd) must raise this slack or the RP server's ID space
    /// exhausts mid-run.
    pub id_space_slack: u32,
    /// Expected one-hop latency `t_hop` in seconds used to parameterise
    /// the urgent line (the realised latency comes from the trace).
    pub t_hop_secs: f64,
    /// The continuity policy layer (see [`crate::policy`]). The default,
    /// [`PolicyKind::Legacy`], reproduces the pre-policy behaviour bit
    /// for bit — every pinned fingerprint holds; [`PolicyKind::Adaptive`]
    /// enables deficit-scaled rescue, the occupancy-adaptive exchange
    /// window and the steady-state slack knob.
    pub policy: PolicyKind,
    /// The deterministic fault plane (see [`crate::faults`]). The
    /// default all-zero plan is inert: no `"faults"` RNG draws, no
    /// allocations, bit-identical behaviour — same gating discipline as
    /// the policy layer.
    pub faults: FaultPlan,
    /// Master seed.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            nodes: 1000,
            rounds: 30,
            neighbors: 5,
            replicas: 4,
            bandwidth: BandwidthProfile::Heterogeneous,
            churn: ChurnConfig::STATIC,
            scheduler: SchedulerKind::ContinuStreaming,
            startup_segments: 100,
            id_space_slack: 2,
            t_hop_secs: 0.05,
            policy: PolicyKind::Legacy,
            faults: FaultPlan::default(),
            seed: 20080414, // IPDPS 2008 in Miami started on April 14.
        }
    }
}

impl SystemConfig {
    /// Buffer capacity `B` in segments (paper: 600 = 60 s).
    pub const BUFFER_SEGMENTS: u64 = 600;
    /// Playback rate `p`, segments per second (paper: 10).
    pub const PLAYBACK_RATE: u32 = 10;
    /// Scheduling period `τ` in seconds (paper: 1.0).
    pub const PERIOD_SECS: f64 = 1.0;
    /// Segments consumed per round, `p·τ`.
    pub const DEMAND_PER_ROUND: u64 = (Self::PLAYBACK_RATE as f64 * Self::PERIOD_SECS) as u64;
    /// Pre-fetch cap per period `l` (paper: 5).
    pub const PREFETCH_CAP: usize = 5;

    /// The paper's ContinuStreaming configuration at a given size/seed.
    pub fn continustreaming(nodes: usize, seed: u64) -> Self {
        SystemConfig {
            nodes,
            seed,
            scheduler: SchedulerKind::ContinuStreaming,
            ..Default::default()
        }
    }

    /// The paper's CoolStreaming baseline at a given size/seed.
    pub fn coolstreaming(nodes: usize, seed: u64) -> Self {
        SystemConfig {
            nodes,
            seed,
            scheduler: SchedulerKind::CoolStreaming,
            ..Default::default()
        }
    }

    /// Switch to the paper's dynamic environment (5 % + 5 % churn).
    pub fn with_dynamic_churn(mut self) -> Self {
        self.churn = ChurnConfig::DYNAMIC;
        self
    }

    /// Check every invariant of the configuration, including the policy
    /// knobs, the fault plan and the churn fractions — the one place
    /// that decides whether a config can run. The scenario parser
    /// reports the error; [`crate::SystemSim::new`] panics on it.
    pub fn validate(&self) -> Result<(), String> {
        ensure!(self.nodes >= 2, "need at least a source and one receiver");
        ensure!(self.rounds > 0, "need at least one round");
        // The §5.4.2 buffer map's 20-bit head id names 2^20 segments, so
        // the stream ends there — and the per-round rows are sized from
        // `rounds` at construction.
        ensure!(
            self.rounds as u64 * Self::DEMAND_PER_ROUND <= 1 << 20,
            "rounds = {}: the 20-bit segment id covers at most {} rounds at {} segments per round",
            self.rounds,
            (1u64 << 20) / Self::DEMAND_PER_ROUND,
            Self::DEMAND_PER_ROUND
        );
        ensure!(self.neighbors > 0, "need at least one neighbour");
        ensure!(
            self.neighbors < self.nodes,
            "M = {} must be below the node count {}",
            self.neighbors,
            self.nodes
        );
        // The scheduler carries a node's supplier set as a `u64` mask.
        ensure!(
            self.neighbors <= 64,
            "M = {}: a node has at most 64 neighbours",
            self.neighbors
        );
        // The exchange window is sized from it; it cannot use more than
        // the buffer holds.
        ensure!(
            self.startup_segments <= Self::BUFFER_SEGMENTS,
            "startup_segments = {} exceeds the {}-segment buffer",
            self.startup_segments,
            Self::BUFFER_SEGMENTS
        );
        ensure!(self.id_space_slack >= 1, "ID space must fit all nodes");
        ensure!(
            self.id_capacity() <= IdSlotTable::MAX_IDS,
            "(nodes + expected joins) x id_space_slack asks for {} ids; the ID space holds at most {} (2^28)",
            self.id_capacity(),
            IdSlotTable::MAX_IDS
        );
        // Every stored segment walks its `k` replica positions.
        ensure!(
            (1..=64).contains(&self.replicas),
            "replicas = {}: a segment has between 1 and 64 replicas",
            self.replicas
        );
        if let PolicyKind::Adaptive(p) = &self.policy {
            p.validate()?;
            // A runway the buffer cannot hold is a target no node can
            // ever meet — and the rescue probe depth, which per-node
            // tables are pre-sized from, grows with it without bound.
            ensure!(
                p.target_runway_rounds
                    .checked_mul(Self::DEMAND_PER_ROUND)
                    .is_some_and(|runway| runway <= Self::BUFFER_SEGMENTS),
                "target_runway_rounds = {} asks for more runway than the {}-segment buffer holds at {} segments per round",
                p.target_runway_rounds,
                Self::BUFFER_SEGMENTS,
                Self::DEMAND_PER_ROUND
            );
        }
        self.faults.validate()?;
        self.churn.validate()
    }

    /// Joins the churn model is expected to admit over the whole run.
    pub(crate) fn expected_joins(&self) -> u64 {
        (self.nodes as f64 * self.churn.join_fraction * self.rounds as f64).ceil() as u64
    }

    /// How many ids the run's ID space is sized for: every initial node
    /// and expected joiner, times the slack factor.
    pub(crate) fn id_capacity(&self) -> u64 {
        (self.nodes as u64)
            .saturating_add(self.expected_joins())
            .saturating_mul(self.id_space_slack as u64)
    }
}

// What `validate` checked while these constants were fields, now held at
// compile time: buffers and maps are allocated at `B` bits per node and
// the §5.4.2 buffer map's 20-bit head id names 2^20 segments; the
// pre-fetch miss list is sized from `l`; a round consumes at least one
// segment, and the buffer holds more than one period of playback.
const _: () = {
    assert!(SystemConfig::BUFFER_SEGMENTS > 0 && SystemConfig::BUFFER_SEGMENTS <= 1 << 20);
    assert!(SystemConfig::PREFETCH_CAP as u64 <= SystemConfig::BUFFER_SEGMENTS);
    assert!(SystemConfig::PLAYBACK_RATE > 0 && SystemConfig::PERIOD_SECS > 0.0);
    assert!(cs_net::SEGMENT_KBITS > 0.0);
    assert!(SystemConfig::DEMAND_PER_ROUND >= 1);
    assert!((SystemConfig::PLAYBACK_RATE as u64) < SystemConfig::BUFFER_SEGMENTS);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.neighbors, 5);
        assert_eq!(SystemConfig::BUFFER_SEGMENTS, 600);
        assert_eq!(SystemConfig::PLAYBACK_RATE, 10);
        assert_eq!(cs_net::SEGMENT_KBITS, 30.0);
        assert_eq!(c.replicas, 4);
        assert_eq!(SystemConfig::PREFETCH_CAP, 5);
        assert_eq!(cs_overlay::overheard::DEFAULT_H, 20);
        assert_eq!(SystemConfig::PERIOD_SECS, 1.0);
        assert_eq!(SystemConfig::DEMAND_PER_ROUND, 10);
        c.validate().unwrap();
    }

    #[test]
    fn presets_differ_only_in_policy() {
        let cool = SystemConfig::coolstreaming(500, 9);
        let cont = SystemConfig::continustreaming(500, 9);
        assert_eq!(cool.scheduler, SchedulerKind::CoolStreaming);
        assert!(!cool.scheduler.prefetches());
        assert_eq!(cont.scheduler, SchedulerKind::ContinuStreaming);
        assert!(cont.scheduler.prefetches());
        assert_eq!(cool.nodes, cont.nodes);
        assert_eq!(cool.seed, cont.seed);
    }

    #[test]
    fn dynamic_preset_sets_churn() {
        let c = SystemConfig::continustreaming(100, 1).with_dynamic_churn();
        assert!(!c.churn.is_static());
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "below the node count")]
    fn too_many_neighbors_rejected() {
        let c = SystemConfig {
            nodes: 4,
            neighbors: 4,
            ..Default::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn more_than_64_neighbors_rejected() {
        let with_m = |neighbors| SystemConfig {
            neighbors,
            ..Default::default()
        };
        with_m(64).validate().unwrap();
        let err = with_m(65).validate().unwrap_err();
        assert!(
            err.contains("M = 65") && err.contains("at most 64"),
            "{err}"
        );
    }

    #[test]
    fn replicas_outside_1_to_64_rejected() {
        let with_k = |replicas| SystemConfig {
            replicas,
            ..Default::default()
        };
        with_k(1).validate().unwrap();
        with_k(64).validate().unwrap();
        for k in [0, 65, 4_000_000_000] {
            let err = with_k(k).validate().unwrap_err();
            assert!(
                err.contains(&format!("replicas = {k}")) && err.contains("between 1 and 64"),
                "{err}"
            );
        }
    }

    #[test]
    fn buffer_bounds_rejected() {
        let with = |startup_segments| SystemConfig {
            startup_segments,
            ..Default::default()
        };
        with(600).validate().unwrap();
        for (startup, needle) in [
            (
                1 << 63,
                "startup_segments = 9223372036854775808 exceeds the 600-segment buffer",
            ),
            (601, "startup_segments = 601 exceeds"),
        ] {
            let err = with(startup).validate().unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn oversized_id_space_rejected() {
        let c = SystemConfig {
            id_space_slack: u32::MAX,
            ..Default::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("at most 268435456 (2^28)"), "{err}");
    }

    #[test]
    fn runway_target_must_fit_the_buffer() {
        let with_runway = |rounds| SystemConfig {
            policy: PolicyKind::Adaptive(crate::policy::AdaptivePolicy {
                target_runway_rounds: rounds,
                ..Default::default()
            }),
            ..Default::default()
        };
        // B = 600 at p·τ = 10: sixty rounds is the whole buffer.
        with_runway(60).validate().unwrap();
        for rounds in [61, 1_000_000_000_000, u64::MAX] {
            let err = with_runway(rounds).validate().unwrap_err();
            assert!(
                err.contains("more runway than the 600-segment buffer"),
                "{err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least a source")]
    fn one_node_rejected() {
        let c = SystemConfig {
            nodes: 1,
            ..Default::default()
        };
        c.validate().unwrap();
    }
}

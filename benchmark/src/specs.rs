//! The four workloads and the generator that turns `(workload, scale,
//! --seed)` into `.scn` text.
//!
//! The measured program only ever sees the generated text, through
//! `parse_scenario`. The two shapes that mirror committed scenarios
//! (`scenarios/dynamic_churn_tuned.scn`, `scenarios/lossy_churn.scn`)
//! are written out here, not read from `scenarios/`, so editing those
//! files cannot silently change the benchmark.

use std::fmt::Write as _;

/// One benchmark workload. See `benchmark/README.md` for why each was
/// chosen and which layers it stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8000 nodes, static membership: the paper's largest fig 7/8 point.
    Static8k,
    /// 1000 nodes under 5 % + 5 % churn with a correlated mass
    /// departure; DHT rescue dominates.
    ChurnRescue1k,
    /// 1000 nodes on a lossy, crash-prone network, run through the
    /// live-network twin.
    LossyTwin1k,
    /// 4000 nodes that seek, pause and resume.
    Vcr4k,
}

/// How large a run is. `Smoke` exists for the self-tests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Simulator seeds a `--seed` can select, per workload.
///
/// The simulator is chaotic in its seed: on roughly one seed in three a
/// swarm lands in a different regime. Legacy `static_8k` collapses
/// outright at round ~33 on seeds 4 and 17; the two 1000-node churn
/// workloads lose 3 to 7 points of continuity, and spend up to 40 %
/// longer in DHT rescue, on others. A benchmark fed such seeds measures
/// which regime it drew, not the code. Each pool therefore lists the
/// eight smallest candidates from `20080414, 1, 2, 3, …` on which, at
/// the commit that introduced the benchmark, the workload is healthy
/// *and* typical: the health gate of `run::health_gate` holds and
/// `continuity_mean` is within ±0.5 % of its value at seed 20080414.
/// A later change that makes a pooled seed unhealthy fails that gate,
/// which is the point.
const SEED_POOL_LEN: usize = 8;
const STATIC_8K_SEEDS: [u64; SEED_POOL_LEN] = [20080414, 1, 2, 3, 5, 6, 7, 8];
const CHURN_RESCUE_1K_SEEDS: [u64; SEED_POOL_LEN] = [20080414, 1, 3, 4, 5, 9, 10, 13];
const LOSSY_TWIN_1K_SEEDS: [u64; SEED_POOL_LEN] = [20080414, 3, 4, 9, 11, 13, 18, 20];
const VCR_4K_SEEDS: [u64; SEED_POOL_LEN] = [20080414, 11, 22, 26, 28, 38, 45, 48];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Static8k,
        Workload::ChurnRescue1k,
        Workload::LossyTwin1k,
        Workload::Vcr4k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Static8k => "static_8k",
            Workload::ChurnRescue1k => "churn_rescue_1k",
            Workload::LossyTwin1k => "lossy_twin_1k",
            Workload::Vcr4k => "vcr_4k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through `cs-twin` instead of the plain
    /// simulator loop.
    pub fn is_twin(self) -> bool {
        self == Workload::LossyTwin1k
    }

    /// `(nodes, rounds)` at `scale`.
    pub fn size(self, scale: Scale) -> (usize, u32) {
        match (scale, self) {
            (Scale::Smoke, _) => (200, 30),
            (Scale::Full, Workload::Static8k) => (8000, 100),
            (Scale::Full, Workload::ChurnRescue1k | Workload::LossyTwin1k) => (1000, 200),
            (Scale::Full, Workload::Vcr4k) => (4000, 120),
        }
    }

    fn seed_pool(self) -> &'static [u64; SEED_POOL_LEN] {
        match self {
            Workload::Static8k => &STATIC_8K_SEEDS,
            Workload::ChurnRescue1k => &CHURN_RESCUE_1K_SEEDS,
            Workload::LossyTwin1k => &LOSSY_TWIN_1K_SEEDS,
            Workload::Vcr4k => &VCR_4K_SEEDS,
        }
    }

    /// The simulator seed `--seed` selects. Seed 0, the default, selects
    /// 20080414 on every workload — the seed the repository's committed
    /// scenarios and README numbers use.
    pub fn sim_seed(self, seed: u64) -> u64 {
        self.seed_pool()[(seed % SEED_POOL_LEN as u64) as usize]
    }

    /// The `.scn` text of this workload. Event and phase rounds are
    /// fixed fractions of the run length, so the smoke scale keeps the
    /// shape.
    pub fn spec_text(self, scale: Scale, seed: u64) -> String {
        let (nodes, rounds) = self.size(scale);
        let mut t = String::new();
        let _ = writeln!(t, "name = {}", self.name());
        let _ = writeln!(t, "nodes = {nodes}");
        let _ = writeln!(t, "rounds = {rounds}");
        let _ = writeln!(t, "seed = {}", self.sim_seed(seed));
        let _ = writeln!(t, "scheduler = continustreaming");
        match self {
            Workload::Static8k => {}
            Workload::ChurnRescue1k => {
                // scenarios/dynamic_churn_tuned.scn: the PR-7 knob-sweep
                // winner, policy line verbatim.
                let _ = writeln!(t, "id_space_slack = 8");
                let _ = writeln!(t, "churn = 0.05 0.05 0.5");
                let _ = writeln!(
                    t,
                    "policy = adaptive source_push=8 source_rescue_cap=12 join_sponsors=8 \
                     join_seed=24 join_grace_rounds=20 inbound_slack=0.45 target_runway_rounds=8"
                );
                let _ = writeln!(
                    t,
                    "at {} mass_departure fraction=0.15 correlated",
                    rounds / 2
                );
            }
            Workload::LossyTwin1k => {
                // scenarios/lossy_churn.scn. Arrivals replace the ~0.5 %
                // of nodes that crash each round.
                let _ = writeln!(t, "id_space_slack = 8");
                let _ = writeln!(t, "faults = 0.005 0.01 0.01 0.0 0.0");
                let _ = writeln!(
                    t,
                    "policy = adaptive inbound_slack=0.25 source_rescue_cap=4 source_push=8"
                );
                let _ = writeln!(
                    t,
                    "phase 0..{rounds} arrivals=poisson:{:.1} session=forever",
                    nodes as f64 * 0.005
                );
                let _ = writeln!(t, "at {} loss_burst loss=0.3 rounds=5", rounds / 2);
            }
            Workload::Vcr4k => {
                let _ = writeln!(
                    t,
                    "phase {}..{rounds} seek=0.02:60 pause=0.02 resume=0.1",
                    rounds / 6
                );
                let _ = writeln!(t, "at {} seek_storm fraction=0.3 jump=-80", rounds / 2);
                let _ = writeln!(t, "at {} seek_storm fraction=0.3 jump=0", rounds * 3 / 4);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continustreaming::prelude::*;

    #[test]
    fn every_spec_parses_validates_and_has_the_documented_size() {
        let sizes = [(8000, 100), (1000, 200), (1000, 200), (4000, 120)];
        for (w, (nodes, rounds)) in Workload::ALL.into_iter().zip(sizes) {
            for scale in [Scale::Full, Scale::Smoke] {
                let text = w.spec_text(scale, 0);
                let spec = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                spec.validate().expect("generated specs validate");
                assert_eq!(spec.name, w.name());
                assert_eq!(spec.config.seed, 20080414, "seed 0 is the committed seed");
                let want = if scale == Scale::Full {
                    (nodes, rounds)
                } else {
                    (200, 30)
                };
                assert_eq!((spec.config.nodes, spec.config.rounds), want);
                assert_eq!(spec.config.scheduler, SchedulerKind::ContinuStreaming);
            }
        }
    }

    #[test]
    fn shapes_round_trip_through_the_parser() {
        let full = |w: Workload| parse_scenario(&w.spec_text(Scale::Full, 0)).unwrap();

        let s = full(Workload::Static8k);
        assert!(s.events.is_empty() && s.phases.is_empty());
        assert_eq!(s.config.policy, PolicyKind::Legacy);

        let c = full(Workload::ChurnRescue1k);
        assert_eq!(c.config.churn.leave_fraction, 0.05);
        assert_eq!(c.config.id_space_slack, 8);
        let p = c.config.policy.as_adaptive().expect("adaptive");
        assert_eq!(
            (p.source_push, p.join_seed, p.target_runway_rounds),
            (8, 24, 8)
        );
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.events[0].round, 100);
        assert!(matches!(
            c.events[0].kind,
            ScenarioEventKind::MassDeparture {
                correlated: true,
                ..
            }
        ));

        let l = full(Workload::LossyTwin1k);
        assert_eq!(l.config.faults.crash_rate, 0.005);
        assert_eq!(l.phases[0].arrivals.poisson_rate, 5.0);
        assert!(matches!(
            l.events[0].kind,
            ScenarioEventKind::LossBurst { rounds: 5, .. }
        ));

        let v = full(Workload::Vcr4k);
        assert_eq!((v.phases[0].start, v.phases[0].end), (20, 120));
        assert_eq!(v.phases[0].vcr.seek_max, 60);
        assert_eq!(
            v.events.iter().map(|e| e.round).collect::<Vec<_>>(),
            [60, 90]
        );
    }

    #[test]
    fn the_seed_selects_the_simulator_seed_deterministically() {
        for w in Workload::ALL {
            assert_eq!(w.spec_text(Scale::Full, 3), w.spec_text(Scale::Full, 3));
            assert_ne!(w.spec_text(Scale::Full, 3), w.spec_text(Scale::Full, 4));
            let pool = w.seed_pool();
            let mut sorted = pool.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                pool.len(),
                "{}: duplicate pool seed",
                w.name()
            );
        }
    }
}

//! Behavioural fingerprints of the full-system simulator.
//!
//! A fixed scenario set, each reduced to an FNV-1a hash of its
//! `RunReport` debug serialisation. Used to prove that performance
//! refactors of the round loop cause **no behavioural drift**: the hashes
//! must be identical before and after a change. [`PINS`] holds the
//! expected values; `tests/determinism.rs` and the `fingerprint` binary
//! (CI's release-mode gate) both check against it.
//!
//! `random_static` pins the Random scheduler: its candidates are built in
//! ascending segment order and its draws come from the seeded scheduler
//! stream, so it reproduces like the others.
//!
//! The two [`active_set`] runs are pinned in the same table but checked
//! by the `fingerprint` binary only: at ~4 s each in debug they stay out
//! of [`scenarios`], which the test suite runs several times over. The
//! [`overlay_8k`] run stays out of it for the same reason; the binary
//! and one test (`large_overlay_8k_pins_hold`) check its row.

use cs_core::{PriorityPolicy, RunReport, SchedulerKind, SystemConfig, SystemEvent, SystemSim};
use cs_net::BandwidthProfile;

/// FNV-1a over a textual serialisation; the single hash implementation
/// behind every fingerprint in the drift gates (system reports, round-0
/// states, DHT route batches) and the pinned values in the test tree.
/// Re-exported from `cs-sim` so the workspace has exactly one copy.
pub use cs_sim::rng::fnv1a;

pub fn fingerprint(report: &RunReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Fingerprint of a simulator's state *before the first round*: hashes
/// the per-node debug tuples right after `SystemSim::new`. Pins the init
/// path (trace seeding, overheard lists, DHT construction) separately
/// from the round loop — an init-path refactor that drifts shows up here
/// even if a compensating round-loop change hid it from the run hashes.
pub fn round0_fingerprint(sim: &SystemSim) -> u64 {
    fnv1a(format!("{:?}", sim.debug_states()).as_bytes())
}

/// The pinned drift-gate values: per [`scenarios`] entry its run and
/// round-0 hash, per [`dht::fingerprints`] batch its routes and tables
/// hash, per [`active_set`] run and for [`overlay_8k`] its run and
/// round-0 hash, in that order.
/// The system hashes involve libm, so they are held only on x86_64 Linux.
#[rustfmt::skip]
pub const PINS: &[(&str, u64, u64)] = &[
    ("continustreaming_static", 0xe477cc07219c469e, 0x670ce83d36f0ef91),
    ("continustreaming_dynamic", 0x8025028004085acc, 0xb43fb599fa4cb7ee),
    ("coolstreaming_static", 0xd0f5f39d4b96dca7, 0x88fd280dda0e20b0),
    ("greedy_rarest_first", 0xa2ed438909202a4f, 0x6cda3f0049ea1ab2),
    ("continustreaming_homogeneous", 0x206ebf4109454640, 0x4439246729ef6d76),
    ("continustreaming_scale_200", 0xa5e310fb404f2576, 0x190a129375c87e9b),
    ("coolstreaming_homogeneous_dynamic", 0x203ffbaa2f7af79d, 0xba49ea2819feeebf),
    ("random_static", 0x8396107cedf8114e, 0xd8ecdd42cfcea659),
    ("dht_greedy_600", 0xa3d3f8871b0fae4e, 0x7883805ec6c3da99),
    ("dht_overhear_400", 0xf96cd39fae554ffd, 0x8f45647ab3fc68d4),
    ("dht_overhear_800", 0x11f6772d78683832, 0x08a33e3bd7af7b9d),
    ("active_set_all_playing", 0xa11b25c590738d0e, 0xecf08667d1c01a36),
    ("active_set_steady_paused", 0xb46d069af8a31f9e, 0xecf08667d1c01a36),
    ("overlay_8k", 0x47aba547e8915add, 0xdb1748b72400ddb7),
];

/// The pinned scenario set. Includes a homogeneous-bandwidth case on
/// purpose: with every rate equal, scheduler tie-breaks are exercised
/// constantly, which is exactly where an index-vs-id ordering slip in a
/// refactor would surface.
pub fn scenarios() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (
            "continustreaming_static",
            SystemConfig {
                nodes: 120,
                rounds: 25,
                startup_segments: 30,
                scheduler: SchedulerKind::ContinuStreaming,
                prefetch_enabled: true,
                seed: 11,
                ..SystemConfig::default()
            },
        ),
        (
            "continustreaming_dynamic",
            SystemConfig {
                nodes: 100,
                rounds: 30,
                startup_segments: 30,
                scheduler: SchedulerKind::ContinuStreaming,
                prefetch_enabled: true,
                seed: 7,
                ..SystemConfig::default()
            }
            .with_dynamic_churn(),
        ),
        (
            "coolstreaming_static",
            SystemConfig {
                nodes: 80,
                rounds: 20,
                startup_segments: 30,
                scheduler: SchedulerKind::CoolStreaming,
                prefetch_enabled: false,
                seed: 3,
                ..SystemConfig::default()
            },
        ),
        (
            "greedy_rarest_first",
            SystemConfig {
                nodes: 60,
                rounds: 15,
                startup_segments: 20,
                scheduler: SchedulerKind::GreedyWithPolicy(PriorityPolicy::RarestFirst),
                prefetch_enabled: true,
                seed: 9,
                ..SystemConfig::default()
            },
        ),
        (
            "continustreaming_homogeneous",
            SystemConfig {
                nodes: 64,
                rounds: 20,
                startup_segments: 20,
                bandwidth: BandwidthProfile::Homogeneous,
                scheduler: SchedulerKind::ContinuStreaming,
                prefetch_enabled: true,
                seed: 5,
                ..SystemConfig::default()
            },
        ),
        (
            // The largest of the pinned overlays.
            "continustreaming_scale_200",
            SystemConfig {
                nodes: 200,
                rounds: 25,
                startup_segments: 30,
                scheduler: SchedulerKind::ContinuStreaming,
                prefetch_enabled: true,
                seed: 17,
                ..SystemConfig::default()
            }
            .with_dynamic_churn(),
        ),
        (
            "coolstreaming_homogeneous_dynamic",
            SystemConfig {
                nodes: 70,
                rounds: 20,
                startup_segments: 20,
                bandwidth: BandwidthProfile::Homogeneous,
                scheduler: SchedulerKind::CoolStreaming,
                prefetch_enabled: false,
                seed: 13,
                ..SystemConfig::default()
            }
            .with_dynamic_churn(),
        ),
        (
            "random_static",
            SystemConfig {
                nodes: 80,
                rounds: 20,
                startup_segments: 30,
                scheduler: SchedulerKind::Random,
                prefetch_enabled: false,
                seed: 21,
                ..SystemConfig::default()
            },
        ),
    ]
}

/// A steady-state audience: before round `round`, pause every alive
/// non-source viewer but each `keep_every`-th, in ascending id order
/// (`keep_every` 1 pauses nobody).
#[derive(Debug, Clone, Copy)]
pub struct PausePlan {
    pub round: u32,
    pub keep_every: usize,
}

impl PausePlan {
    /// Pause the audience if `sim`'s next round is the plan's; returns
    /// how many viewers it paused.
    pub fn apply(&self, sim: &mut SystemSim) -> usize {
        if sim.rounds_run() != self.round {
            return 0;
        }
        let source = sim.source_id();
        let viewers = sim.alive_ids().to_vec();
        let mut paused = 0;
        for (i, id) in viewers.into_iter().filter(|&id| id != source).enumerate() {
            if i % self.keep_every != 0 {
                sim.apply_event(SystemEvent::Pause { id });
                paused += 1;
            }
        }
        paused
    }
}

/// The active-set runs, 2000 × 60 on the default config: every viewer
/// playing, and all but every 5th paused before round 30 — the
/// paused-majority shape no [`scenarios`] entry has.
pub fn active_set() -> [(&'static str, SystemConfig, PausePlan); 2] {
    let config = SystemConfig {
        nodes: 2000,
        rounds: 60,
        ..SystemConfig::default()
    };
    let keep = |keep_every| PausePlan {
        round: 30,
        keep_every,
    };
    [
        ("active_set_all_playing", config.clone(), keep(1)),
        ("active_set_steady_paused", config, keep(5)),
    ]
}

/// The large-overlay run: 8,000 nodes for five rounds, far above the
/// [`scenarios`] sizes. Its row was recorded from a round loop that ran
/// every planning step for every node.
pub fn overlay_8k() -> (&'static str, SystemConfig) {
    let config = SystemConfig {
        nodes: 8000,
        rounds: 5,
        startup_segments: 30,
        scheduler: SchedulerKind::ContinuStreaming,
        prefetch_enabled: true,
        seed: 8008,
        ..SystemConfig::default()
    };
    ("overlay_8k", config)
}

/// DHT routing fingerprints: the exact hop sequences and final table
/// states of greedy-lookup batches over fixed networks. Shared between
/// the `fingerprint` drift-gate binary and `tests/dht_routing.rs`, which
/// pins the values recorded from the pre-arena (`BTreeMap`-keyed)
/// implementation.
pub mod dht {
    use std::fmt::Write as _;

    use cs_dht::{route, DhtId, DhtNetwork, IdSpace};
    use cs_sim::RngTree;
    use rand::Rng as _;

    /// Deterministic, exactly-representable pairwise latency (integer
    /// xor/mod arithmetic, no libm — hashes are platform-independent).
    pub fn latency(a: DhtId, b: DhtId) -> f64 {
        30.0 + ((a ^ b) % 41) as f64
    }

    /// A network of `n` random distinct ids in a `2^bits` space.
    pub fn build_net(n: usize, bits: u32, seed: u64) -> DhtNetwork {
        let mut rng = RngTree::new(seed).child("dht-routing-net");
        let space = IdSpace::new(bits);
        let mut used = std::collections::HashSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        DhtNetwork::build(space, &ids, &latency, &mut rng)
    }

    /// Run `count` lookups and serialise every route outcome exactly.
    pub fn route_batch(net: &mut DhtNetwork, seed: u64, count: usize, overhear: bool) -> String {
        let mut rng = RngTree::new(seed).child("dht-routing-lookups");
        let mut out = String::new();
        for i in 0..count {
            let src = net.random_id(&mut rng).expect("non-empty network");
            let key = rng.gen_range(0..net.space().size());
            let o = route(net, src, key, &latency, overhear);
            writeln!(
                out,
                "{i} {src} {key} {:?} {:?} {} {:?}",
                o.path, o.status, o.repaired, o.latency_ms
            )
            .unwrap();
        }
        out
    }

    /// Serialise every node's full level table in ring order: the
    /// complete observable state of the DHT peer layer.
    pub fn table_state(net: &DhtNetwork) -> String {
        let mut out = String::new();
        for id in net.ids() {
            let peers = &net.node(id).expect("live node").peers;
            write!(out, "{id}:").unwrap();
            for level in 1..=net.space().bits() {
                match peers.level(level) {
                    Some(e) => {
                        write!(out, " {}={}/{:?}/{}", level, e.id, e.latency_ms, e.age).unwrap()
                    }
                    None => write!(out, " {level}=-").unwrap(),
                }
            }
            out.push('\n');
        }
        out
    }

    /// The drift-gate summary: `(name, routes_hash, tables_hash)` per
    /// batch, printed by the `fingerprint` binary alongside the
    /// system-level hashes and held to the same [`PINS`](super::PINS)
    /// table.
    pub fn fingerprints() -> Vec<(&'static str, u64, u64)> {
        let mut out = Vec::new();
        for &(name, n, bits, seed) in &[
            ("dht_greedy_600", 600usize, 13u32, 2u64),
            ("dht_overhear_400", 400, 12, 8),
            ("dht_overhear_800", 800, 13, 3),
        ] {
            let overhear = name.contains("overhear");
            let mut net = build_net(n, bits, seed);
            let batch = route_batch(&mut net, seed, 400, overhear);
            out.push((
                name,
                super::fnv1a(batch.as_bytes()),
                super::fnv1a(table_state(&net).as_bytes()),
            ));
        }
        out
    }
}

//! Randomised property tests for the core data structures and the
//! paper's invariants.
//!
//! Originally written with `proptest`; this build environment is offline,
//! so the same properties now run over seeded-RNG case loops (64 cases
//! each, like the old `ProptestConfig::with_cases(64)`). Shrinking is
//! lost, but every failure reports the case seed, which reproduces it
//! exactly.

use continustreaming::analysis::ContinuityModel;
use continustreaming::dht::{route, DhtNetwork, ResponsibilityRange};
use continustreaming::prelude::*;
use rand::Rng as _;

const CASES: u64 = 64;

/// The stream buffer behaves like a set restricted to a sliding window:
/// everything inserted and not yet evicted is present; length matches a
/// reference model.
#[test]
fn buffer_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xB0F).child_indexed("buffer-model", case);
        let capacity = rng.gen_range(1u64..300);
        let n_ids = rng.gen_range(0usize..400);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen_range(1u64..2_000)).collect();

        let mut buf = StreamBuffer::new(capacity);
        let mut reference: std::collections::BTreeSet<u64> = Default::default();
        for &id in &ids {
            buf.insert(id);
            reference.insert(id);
            let head = buf.head();
            reference.retain(|&x| x >= head);
        }
        assert_eq!(buf.len(), reference.len() as u64, "case {case}");
        for &id in &reference {
            assert!(buf.contains(id), "case {case}: missing {id}");
        }
        let listed: Vec<u64> = buf.iter().collect();
        assert_eq!(
            listed,
            reference.iter().copied().collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// Sliding a buffer never lets stale IDs survive and never invents
/// segments.
#[test]
fn buffer_slide_is_monotone() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x51D).child_indexed("buffer-slide", case);
        let capacity = rng.gen_range(1u64..200);
        let fill = rng.gen_range(0u64..200);
        let slide = rng.gen_range(1u64..400);

        let mut buf = StreamBuffer::new(capacity);
        for id in 1..=fill {
            buf.insert(id);
        }
        let before: Vec<u64> = buf.iter().collect();
        buf.slide_to(slide);
        for id in buf.iter() {
            assert!(id >= slide, "case {case}: stale id {id} survived");
            assert!(before.contains(&id), "case {case}: invented id {id}");
        }
    }
}

/// ID-space levels partition the ring: every non-owner ID belongs to
/// exactly one level interval.
#[test]
fn dht_levels_partition() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xD47).child_indexed("levels", case);
        let bits = rng.gen_range(2u32..12);
        let space = IdSpace::new(bits);
        let owner = rng.gen::<u64>() % space.size();
        let p = rng.gen::<u64>() % space.size();
        if p == owner {
            continue;
        }
        let level = space.level_of(owner, p).expect("non-owner has a level");
        let mut containing = 0;
        for l in 1..=bits {
            let (from, to) = space.level_interval(owner, l);
            if space.in_interval(p, from, to) {
                containing += 1;
                assert_eq!(l, level, "case {case}");
            }
        }
        assert_eq!(containing, 1, "case {case}");
    }
}

/// Responsibility ranges over a full partition cover every key exactly
/// once.
#[test]
fn responsibility_partition() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x9E5).child_indexed("responsibility", case);
        let bits = rng.gen_range(3u32..10);
        let space = IdSpace::new(bits);
        let n_ids = rng.gen_range(2usize..12);
        let ids: Vec<u64> = {
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n_ids {
                set.insert(rng.gen_range(0u64..1024) % space.size());
            }
            set.into_iter().collect()
        };
        if ids.len() < 2 {
            continue;
        }
        let key = rng.gen::<u64>() % space.size();
        let mut owners = 0;
        for (i, &id) in ids.iter().enumerate() {
            let succ = ids[(i + 1) % ids.len()];
            if ResponsibilityRange::new(space, id, succ).contains(key) {
                owners += 1;
            }
        }
        assert_eq!(
            owners, 1,
            "case {case}: key {key} must have exactly one owner"
        );
    }
}

/// The §5.1 model is internally consistent for any sane parameters:
/// PC_new ≥ PC_old, both in [0, 1], Δ = difference.
#[test]
fn continuity_model_invariants() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xC01).child_indexed("continuity", case);
        let lambda = rng.gen_range(0.0f64..60.0);
        let p = rng.gen_range(1u32..30);
        let k = rng.gen_range(0u32..8);
        let m = ContinuityModel {
            lambda,
            playback_rate: p as f64,
            period: 1.0,
            replicas: k,
        };
        let pred = m.predict();
        assert!(
            pred.pc_old >= -1e-12 && pred.pc_old <= 1.0 + 1e-12,
            "case {case}: pc_old {}",
            pred.pc_old
        );
        assert!(
            pred.pc_new >= pred.pc_old - 1e-12,
            "case {case}: pc_new {} < pc_old {}",
            pred.pc_new,
            pred.pc_old
        );
        assert!(
            (pred.delta - (pred.pc_new - pred.pc_old)).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Backup targets are deterministic and inside the space.
#[test]
fn placement_targets_valid() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x9AC).child_indexed("placement", case);
        let seg = rng.gen_range(1u64..1_000_000);
        let k = rng.gen_range(1u32..6);
        let space = IdSpace::new(13);
        let a = continustreaming::dht::backup_targets(space, seg, k);
        let b = continustreaming::dht::backup_targets(space, seg, k);
        assert_eq!(a, b, "case {case}");
        for &t in &a {
            assert!(space.contains(t), "case {case}: target {t}");
        }
    }
}

/// Join/leave/rejoin churn never corrupts the DHT arena: after every
/// churn round the level tables still satisfy the level invariant, the
/// id table matches the occupied slots and the ring exactly, freed slots
/// are reused, and lookups still terminate at the true responsible node.
#[test]
fn dht_arena_survives_churn() {
    for case in 0..24u64 {
        let mut rng = RngTree::new(0xA7E).child_indexed("dht-churn", case);
        let bits = rng.gen_range(8u32..12);
        let space = IdSpace::new(bits);
        let n = rng.gen_range(40usize..120);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..space.size()));
        }
        let ids: Vec<DhtId> = set.into_iter().collect();
        let latency = |a: DhtId, b: DhtId| 10.0 + ((a ^ b) % 17) as f64;
        let mut net = DhtNetwork::build(space, &ids, &latency, &mut rng);
        net.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        for round in 0..6 {
            let slots_before = net.slot_count();
            // Leave a random batch (abrupt: dangling entries stay).
            let victims: Vec<DhtId> = net
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .filter(|_| rng.gen_bool(0.2))
                .collect();
            for v in &victims {
                assert!(net.leave(*v), "case {case}: {v} was live");
                assert!(!net.contains(*v), "case {case}: {v} still resolves");
            }
            // Rejoin some of the departed ids plus some fresh ones: slot
            // reuse must cover the whole batch while vacancies last.
            let mut joins = 0usize;
            for &v in victims.iter().take(victims.len() / 2) {
                net.join(v, &latency, &mut rng).unwrap();
                joins += 1;
            }
            while joins < victims.len() {
                let id = rng.gen_range(0..space.size());
                if net.join(id, &latency, &mut rng).is_ok() {
                    joins += 1;
                }
            }
            // As many joins as leaves and the free list was large enough:
            // the arena must not have grown.
            assert_eq!(
                net.slot_count(),
                slots_before,
                "case {case} round {round}: arena grew"
            );
            assert_eq!(
                net.free_count(),
                net.slot_count() - net.len(),
                "case {case} round {round}: free-list accounting"
            );
            net.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
            // Routing over the churned arena still reaches ground truth
            // (and lazily repairs the entries of departed peers).
            for _ in 0..20 {
                let src = net.random_id(&mut rng).unwrap();
                let key = rng.gen_range(0..space.size());
                let out = route(&mut net, src, key, &latency, true);
                for p in &out.path {
                    assert!(net.contains(*p), "case {case}: dead node {p} on path");
                }
                if out.succeeded() {
                    assert_eq!(net.responsible_of(key), Some(out.terminal()));
                }
            }
        }
    }
}

/// Back-to-back rounds reusing the persistent `RoundScratch` leave no
/// *visible* stale state: the per-slot queue counts partition the flat
/// request arena exactly, the queues are contiguous ranges of the index
/// array in ascending slot order that each point only at requests queued
/// at their slot and together permute the arena, and every buffer-map
/// snapshot either carries this round's stamp (alive node, matching
/// birth) or is invisible. Exercised across all three schedulers in the
/// static environment — where buffers mutate every round but membership
/// does not — via the `debug_check_scratch` hook after every round.
#[test]
fn round_scratch_reuse_leaves_no_stale_state() {
    for scheduler in [
        SchedulerKind::ContinuStreaming,
        SchedulerKind::CoolStreaming,
        SchedulerKind::Random,
    ] {
        let config = SystemConfig {
            nodes: 60,
            rounds: 30,
            startup_segments: 30,
            scheduler,
            seed: 0xA110C,
            ..SystemConfig::default()
        };
        let mut sim = SystemSim::new(config);
        for _ in 0..30 {
            assert!(sim.step());
            sim.debug_check_scratch();
        }
    }
}

/// The same invariants hold under dynamic churn, where arena slots are
/// freed and reused and stamped snapshots of departed lifetimes must
/// become invisible rather than alias the slot's next occupant.
#[test]
fn round_scratch_reuse_is_clean_under_churn() {
    for case in 0..6u64 {
        let config = SystemConfig {
            nodes: 50 + 10 * case as usize,
            rounds: 25,
            startup_segments: 30,
            seed: 0xC0FFEE + case,
            ..SystemConfig::default()
        }
        .with_dynamic_churn();
        let mut sim = SystemSim::new(config);
        for _ in 0..25 {
            assert!(sim.step());
            sim.debug_check_scratch();
        }
    }
}

/// Freed arena slots are reused before the slot vector grows, across
/// repeated leave/rejoin waves (no arena leak under sustained churn).
#[test]
fn dht_arena_reuses_free_slots() {
    for case in 0..16u64 {
        let mut rng = RngTree::new(0x5107).child_indexed("dht-slots", case);
        let space = IdSpace::new(10);
        let n = rng.gen_range(30usize..80);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..space.size()));
        }
        let ids: Vec<DhtId> = set.into_iter().collect();
        let latency = |_: DhtId, _: DhtId| 10.0;
        let mut net = DhtNetwork::build(space, &ids, &latency, &mut rng);
        let cap = net.slot_count();
        assert_eq!(cap, n, "build allocates exactly n slots");
        for wave in 0..8 {
            let k = rng.gen_range(1usize..n / 2);
            let victims: Vec<DhtId> = net.ids().take(k).collect();
            for v in &victims {
                net.leave(*v);
            }
            assert_eq!(net.free_count(), k, "case {case} wave {wave}");
            let mut joined = 0;
            while joined < k {
                let id = rng.gen_range(0..space.size());
                if net.join(id, &latency, &mut rng).is_ok() {
                    joined += 1;
                }
            }
            assert_eq!(
                net.slot_count(),
                cap,
                "case {case} wave {wave}: rejoins must reuse freed slots"
            );
            assert_eq!(net.free_count(), 0, "case {case} wave {wave}");
        }
        net.check_invariants().unwrap();
    }
}

/// Every route in a well-built DHT terminates at the true owner within
/// the appendix hop bound. The randomness comes from the seeded RNG tree.
#[test]
fn routing_bound_holds_over_many_networks() {
    for seed in 0..4u64 {
        let tree = RngTree::new(seed);
        let mut rng = tree.child("net");
        let space = IdSpace::new(11); // N = 2048
        let mut used = std::collections::HashSet::new();
        let mut ids = Vec::new();
        while ids.len() < 400 {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        let mut net = DhtNetwork::build(space, &ids, &|_, _| 10.0, &mut rng);
        let bound = continustreaming::analysis::routing_hop_upper_bound(space.bits());
        let mut lrng = tree.child("lookups");
        let mut ok = 0;
        for _ in 0..200 {
            let src = net.random_id(&mut lrng).expect("non-empty");
            let key = lrng.gen_range(0..space.size());
            let out = route(&mut net, src, key, &|_, _| 10.0, false);
            assert!(
                (out.hops() as f64) <= bound,
                "seed {seed}: {} hops exceeds the appendix bound {bound}",
                out.hops()
            );
            ok += u32::from(out.succeeded());
        }
        assert!(ok >= 190, "seed {seed}: success rate too low: {ok}/200");
    }
}

/// Policy-layer invariants over randomised runway targets, demands and
/// base caps: as a node's runway drains from the full target to
/// nothing, the effective rescue cap is monotone non-decreasing in the
/// runway deficit, never below 1 while the deficit is positive, never
/// above the ceiling, and exactly the legacy cap `l` at zero
/// deficit.
#[test]
fn policy_rescue_cap_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xADA9).child_indexed("rescue-cap", case);
        let policy = AdaptivePolicy {
            target_runway_rounds: rng.gen_range(1u64..12),
            ..AdaptivePolicy::default()
        };
        policy.validate().unwrap();
        let demand = rng.gen_range(1u64..30);
        let base_cap = rng.gen_range(1usize..12);
        let mut last_cap = 0usize;
        let mut last_threshold = 0usize;
        let full = policy.rescue_horizon(demand);
        for runway in (0..=full).rev() {
            let deficit = policy.runway_deficit(runway, demand);
            assert_eq!(deficit, full - runway, "case {case}");
            let cap = AdaptivePolicy::rescue_cap(base_cap, deficit);
            let threshold = AdaptivePolicy::suppression_threshold(base_cap, deficit);
            assert!(
                cap >= 1,
                "case {case}: cap {cap} below 1 at deficit {deficit}"
            );
            assert!(
                cap <= AdaptivePolicy::RESCUE_CAP_MAX.max(base_cap),
                "case {case}: cap {cap} above ceiling at deficit {deficit}"
            );
            assert!(
                cap >= base_cap,
                "case {case}: adaptive must never rescue less than legacy \
                 (cap {cap} < base {base_cap} at deficit {deficit})"
            );
            assert!(
                cap >= last_cap,
                "case {case}: cap not monotone at deficit {deficit}"
            );
            assert!(
                threshold >= last_threshold,
                "case {case}: suppression threshold not monotone at deficit {deficit}"
            );
            assert!(
                threshold >= cap,
                "case {case}: threshold {threshold} below cap {cap} — a fetchable \
                 miss count would be suppressed"
            );
            if deficit == 0 {
                assert_eq!(
                    cap,
                    base_cap.max(1),
                    "case {case}: zero deficit must reproduce the legacy cutoff exactly"
                );
            }
            last_cap = cap;
            last_threshold = threshold;
        }
    }
}

/// The occupancy-adaptive window is never narrower than the legacy
/// window, never wider than the policy maximum, and monotone
/// non-increasing in occupancy; healthy occupancy reproduces the legacy
/// width exactly.
#[test]
fn policy_window_never_narrower_than_legacy() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x71D0).child_indexed("window", case);
        let legacy = rng.gen_range(1u64..600);
        let mut last = u64::MAX;
        for step in 0..=20u64 {
            let occ = step as f64 / 20.0;
            let w = AdaptivePolicy::lookahead(legacy, occ);
            assert!(
                w >= legacy,
                "case {case}: window {w} narrower than legacy {legacy} at occ {occ}"
            );
            assert!(w <= AdaptivePolicy::max_lookahead(legacy), "case {case}");
            assert!(
                w <= last,
                "case {case}: window must not widen as occupancy rises"
            );
            last = w;
        }
        assert_eq!(
            AdaptivePolicy::lookahead(legacy, AdaptivePolicy::OCCUPANCY_FLOOR),
            legacy,
            "case {case}: at the floor the window is exactly legacy"
        );
        assert_eq!(
            AdaptivePolicy::lookahead(legacy, 1.0),
            legacy,
            "case {case}"
        );
    }
}

/// Adaptive rounds reusing the persistent `RoundScratch` (and the
/// scheduler scratch inside it) carry no policy state across rounds:
/// the scratch invariants hold after every round, and a fresh simulator
/// over the same config reproduces the run byte for byte — the policy
/// decisions are pure functions of per-round state, so scratch reuse
/// cannot leak them.
#[test]
fn adaptive_policy_state_resets_with_scratch_reuse() {
    let config = SystemConfig {
        nodes: 60,
        rounds: 30,
        startup_segments: 30,
        seed: 0xADA50,
        policy: PolicyKind::adaptive(),
        ..SystemConfig::default()
    }
    .with_dynamic_churn();
    let mut sim = SystemSim::new(config.clone());
    for _ in 0..30 {
        assert!(sim.step());
        sim.debug_check_scratch();
    }
    let a = SystemSim::new(config.clone()).run();
    let b = SystemSim::new(config).run();
    assert_eq!(a.rounds, b.rounds, "adaptive runs must reproduce");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Same-round slot reuse must not leak the previous occupant: an abrupt
/// `Leave` frees the departed node's arena slot and an immediately
/// following `Join` hands that slot to the newcomer (LIFO free list), so
/// the slot's buffer-map snapshot still holds the map of the node that
/// left until the exchange installs the joiner's own. A snapshot records
/// the arena birth stamp of the lifetime it was installed for, not just
/// the slot: `debug_check_scratch` after every round requires each
/// visible snapshot to carry its occupant's birth.
#[test]
fn same_round_slot_reuse_keeps_snapshots_keyed_by_birth() {
    for case in 0..12u64 {
        let config = SystemConfig {
            nodes: 60,
            rounds: 30,
            startup_segments: 30,
            seed: 0x510 + case,
            ..SystemConfig::default()
        };
        let mut sim = SystemSim::new(config);
        let source = sim.source_id();
        let mut reused = 0usize;
        for round in 0..30 {
            if round >= 5 && round % 3 == 2 {
                // Deterministically pick a non-source victim; its slot
                // is freed and the join below reuses it in the same
                // round.
                let victims: Vec<_> = sim
                    .alive_ids()
                    .iter()
                    .copied()
                    .filter(|&id| id != source)
                    .collect();
                let victim = victims[(case as usize + round as usize) % victims.len()];
                let left = sim.apply_event(SystemEvent::Leave {
                    id: victim,
                    graceful: false,
                });
                let joined = sim.apply_event(SystemEvent::Join {
                    ping_ms: None,
                    bandwidth: None,
                });
                if left == EventOutcome::Applied && matches!(joined, EventOutcome::Joined(_)) {
                    reused += 1;
                }
            }
            assert!(sim.step());
            sim.debug_check_scratch();
        }
        assert!(
            reused >= 5,
            "case {case}: the script must actually churn slots (got {reused})"
        );
    }
}

/// "Nothing to do" is the planners' own finding, so the nodes they count
/// as active are the nodes with work: once 80 % of a 300-node audience
/// pauses and the frozen windows fill, only playing viewers still find a
/// candidate — round after round, rewire rounds included (a partner
/// change gives a sated node nothing to pull). The count covers every
/// node that issued a request (`debug_check_scratch`).
#[test]
fn paused_majority_leaves_only_playing_viewers_scheduling() {
    let mut sim = SystemSim::new(SystemConfig {
        nodes: 300,
        rounds: 120,
        ..SystemConfig::default()
    });
    for round in 0..120 {
        if round == 30 {
            let source = sim.source_id();
            let viewers: Vec<_> = sim.alive_ids().to_vec();
            for (i, id) in viewers.into_iter().filter(|&id| id != source).enumerate() {
                if i % 5 != 0 {
                    assert_eq!(
                        sim.apply_event(SystemEvent::Pause { id }),
                        EventOutcome::Applied
                    );
                }
            }
        }
        assert!(sim.step());
        sim.debug_check_scratch();
    }
    let telemetry = sim.telemetry().clone();
    let report = sim.finish();
    for (t, r) in telemetry.rounds.iter().zip(&report.rounds).skip(100) {
        assert_eq!((r.alive, r.playing), (299, 60), "round {}", r.round);
        assert!(
            t.active_sched <= r.playing as u64 && t.active_sched * 2 < r.alive as u64,
            "round {}: {} nodes scheduled, {} play",
            r.round,
            t.active_sched,
            r.playing
        );
        assert!(
            t.active_sched > 0 && r.requests_issued > 0,
            "round {}: the playing viewers keep pulling",
            r.round
        );
    }
}

/// Recovery plane: the deterministic (jitter-free) retry backoff is
/// monotone non-decreasing in the attempt number and never below the
/// base — over the attempts a run can reach and, since the counter is
/// a bare `u32`, over arbitrary ones (the delay saturates, it never
/// wraps back under an earlier attempt's).
#[test]
fn recovery_backoff_is_monotone_and_bounded_below() {
    let base = AdaptivePolicy::BACKOFF_BASE_ROUNDS;
    let mut last = 0u32;
    for attempt in 1..40u32 {
        let d = AdaptivePolicy::backoff_rounds(attempt);
        assert!(d >= base, "attempt {attempt}: delay below base");
        assert!(d >= last, "attempt {attempt}: backoff not monotone");
        last = d;
    }
    for case in 0..CASES {
        let mut rng = RngTree::new(0xFA017).child_indexed("backoff", case);
        let (a, b): (u32, u32) = (rng.gen(), rng.gen());
        let (lo, hi) = (a.min(b), a.max(b));
        let (d_lo, d_hi) = (
            AdaptivePolicy::backoff_rounds(lo),
            AdaptivePolicy::backoff_rounds(hi),
        );
        assert!(d_lo >= base, "case {case}: delay below base");
        assert!(d_lo <= d_hi, "case {case}: backoff not monotone");
    }
}

/// A chaotic-but-small workload arming every steady-state injector and
/// the full recovery plane (incl. origin fallback and frontier push).
fn chaos_config(seed: u64) -> SystemConfig {
    SystemConfig {
        nodes: 120,
        rounds: 40,
        startup_segments: 30,
        seed,
        faults: FaultPlan {
            crash_rate: 0.01,
            data_loss: 0.05,
            control_loss: 0.05,
            delay_prob: 0.02,
            delay_ms: 80.0,
        },
        policy: PolicyKind::Adaptive(AdaptivePolicy {
            source_rescue_cap: 2,
            source_push: 4,
            ..AdaptivePolicy::default()
        }),
        ..SystemConfig::default()
    }
}

/// Same seed ⇒ byte-identical fault trace (records *and* chained
/// digest); a different seed produces a different fault history.
#[test]
fn fault_trace_is_byte_identical_across_runs() {
    let mut a = SystemSim::new(chaos_config(11));
    let mut b = SystemSim::new(chaos_config(11));
    for _ in 0..40 {
        assert!(a.step());
        assert!(b.step());
    }
    assert!(!a.fault_trace().is_empty(), "the armed plane must record");
    assert_eq!(a.fault_trace(), b.fault_trace());
    assert_eq!(a.fault_trace().digest(), b.fault_trace().digest());
    let mut c = SystemSim::new(chaos_config(12));
    for _ in 0..40 {
        assert!(c.step());
    }
    assert_ne!(
        a.fault_trace().digest(),
        c.fault_trace().digest(),
        "different seed must produce a different fault history"
    );
}

/// Causal bounds on the recovery counters, per round and globally: a
/// retry only ever follows a timeout firing, the per-loss retry budget
/// is [`AdaptivePolicy::RETRY_MAX`], and time-to-recover deltas never
/// exceed the round index they were measured at.
#[test]
fn recovery_counters_respect_causal_bounds() {
    let config = chaos_config(5);
    let per_loss = AdaptivePolicy::RETRY_MAX as u64;
    let mut sim = SystemSim::new(config);
    for _ in 0..40 {
        assert!(sim.step());
    }
    let trace = sim.fault_trace();
    assert_eq!(trace.rounds.len(), 40, "one record per stepped round");
    let mut losses = 0u64;
    let mut retries = 0u64;
    for rec in &trace.rounds {
        assert!(
            rec.retries <= rec.timeouts,
            "round {}: {} retries but only {} timeouts",
            rec.round,
            rec.retries,
            rec.timeouts
        );
        assert!(
            rec.recovery_rounds <= rec.recoveries as u64 * rec.round as u64,
            "round {}: time-to-recover exceeds elapsed time",
            rec.round
        );
        losses += (rec.data_losses + rec.control_losses) as u64;
        retries += rec.retries as u64;
    }
    assert!(losses > 0, "the 5% loss rates must inject something");
    assert!(
        retries <= per_loss * losses,
        "{retries} retries exceed the {per_loss}-per-loss budget on {losses} losses"
    );
}

/// Crash containment: a crashed (silently dark) node may linger in
/// neighbour sets only *within* the round it died — by the end of every
/// round the liveness machinery has dropped it, so nothing schedules
/// against or serves from a dark supplier. Crashes must actually occur
/// for the test to mean anything.
#[test]
fn crashed_nodes_never_remain_connected_after_the_round() {
    let mut sim = SystemSim::new(chaos_config(21));
    for round in 0..40 {
        assert!(sim.step());
        assert!(
            sim.debug_neighbors_alive(),
            "round {round}: a dark supplier stayed connected"
        );
    }
    let crashes: u32 = sim.fault_trace().rounds.iter().map(|r| r.crashes).sum();
    assert!(crashes > 0, "no crash was ever injected");
}

/// The round's two rows agree where they overlap, and the values the
/// finalise phase derives hold: `lossy_churn.scn` (crashes, loss,
/// Poisson arrivals) at 200 × 40 with leave/join churn on top, once as
/// committed plus joiner seeding (frontier push and joiner seeds on the
/// source's ledger) and once under Legacy (where Case-3 suppression
/// fires, so its mirror is exercised).
#[test]
fn round_rows_carry_consistent_derived_and_mirrored_values() {
    let text = std::fs::read_to_string("scenarios/lossy_churn.scn").expect("scenario file");
    let mut spec = parse_scenario(&text).expect("scenario parses");
    spec.config.nodes = 200;
    spec.config.rounds = 40;
    spec.config.churn = ChurnConfig {
        leave_fraction: 0.03,
        join_fraction: 0.03,
        graceful_fraction: 0.5,
    };
    let PolicyKind::Adaptive(policy) = &mut spec.config.policy else {
        panic!("lossy_churn.scn runs the adaptive policy");
    };
    assert!(policy.source_push > 0, "frontier push armed");
    policy.join_seed = 4;
    let mut legacy = spec.clone();
    legacy.config.policy = PolicyKind::Legacy;
    let mut suppressed = 0;
    for spec in [spec, legacy] {
        let out = run_scenario(&spec);
        let (records, rows) = (&out.report.rounds, &out.telemetry.rounds);
        assert_eq!(records.len(), 40);
        assert_eq!(rows.len(), 40);
        assert_eq!(out.fault_trace.rounds.len(), 40);
        let mut idle_rounds = 0;
        for ((r, t), f) in records.iter().zip(rows).zip(&out.fault_trace.rounds) {
            let round = r.round;
            assert_eq!(t.round, round);
            assert_eq!(t.playing, r.playing, "round {round}");
            assert_eq!(
                t.suppressed_nodes, r.prefetch_suppressed as u64,
                "round {round}"
            );
            suppressed += r.prefetch_suppressed;
            if r.playing == 0 {
                idle_rounds += 1;
                assert_eq!(t.min_runway, 0, "round {round}");
                assert_eq!(t.mean_runway, 0.0, "round {round}");
                assert_eq!(t.mean_frontier_gap, 0.0, "round {round}");
                assert_eq!(t.window_occupancy, 0.0, "round {round}");
            }
            assert!(r.prefetch_successes <= r.prefetch_attempts, "round {round}");
            assert!(t.supplier_peak_load <= r.gossip_deliveries, "round {round}");
            assert_eq!(f.round, round);
            assert_eq!(t.faults_injected, f.injected() as u64, "round {round}");
            assert_eq!(t.timeouts_detected, f.timeouts as u64, "round {round}");
            assert_eq!(t.retries_issued, f.retries as u64, "round {round}");
            assert_eq!(t.failovers, f.failovers as u64, "round {round}");
            assert_eq!(t.stale_repairs, f.stale_repairs as u64, "round {round}");
            let mttr = if f.recoveries > 0 {
                f.recovery_rounds as f64 / f.recoveries as f64
            } else {
                0.0
            };
            assert_eq!(t.mean_time_to_recover, mttr, "round {round}");
        }
        // Neither branch of the per-playing means may go untested.
        assert!(
            idle_rounds > 0 && idle_rounds < 40,
            "{idle_rounds} idle rounds"
        );
        assert!(records.iter().any(|r| r.joins > 0 && r.leaves > 0));
        assert!(rows.iter().any(|t| t.faults_injected > 0));
    }
    assert!(suppressed > 0, "no Case-3 suppression to mirror");
}

/// The telemetry's DHT routing count is the round's `PrefetchRouting`
/// ledger in messages, on every round of three specs (reduced to
/// 200 × 60) that between them route step 7's lookups, the recovery
/// plane's retries and origin fallbacks, some refused by a spent source.
#[test]
fn routing_message_count_matches_the_routing_ledger() {
    let mut retries = 0;
    for name in ["lossy_churn", "crash_heavy", "dynamic_churn_tuned"] {
        let path = format!("scenarios/{name}.scn");
        let text = std::fs::read_to_string(&path).expect("scenario file");
        let mut spec = parse_scenario(&text).expect("scenario parses");
        spec.config.nodes = 200;
        spec.config.rounds = 60;
        let out = run_scenario(&spec);
        let mut routed = 0;
        for (r, t) in out.report.rounds.iter().zip(&out.telemetry.rounds) {
            assert_eq!(
                t.dht_routing_msgs * 80,
                r.traffic.bits(TrafficClass::PrefetchRouting),
                "{name} round {}",
                r.round
            );
            routed += t.dht_routing_msgs;
            retries += t.retries_issued;
        }
        assert!(routed > 0, "{name} sent no routing message");
    }
    assert!(retries > 0, "no recovery retry routed over the DHT");
}

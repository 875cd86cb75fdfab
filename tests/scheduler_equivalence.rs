//! The schedulers against an oracle, and scratch reuse.
//!
//! The library writes each algorithm once, in mask form; the keyed
//! implementations it replaced live on below as the `reference` oracle,
//! and every mask form must match its reference bit for bit over seeded
//! random workloads — ties and RNG draws included.
//!
//! Scratch reuse: one [`SchedulerScratch`] and one output buffer carried
//! across hundreds of seeded random workloads — the way the simulator
//! carries them across nodes and rounds — must produce
//! **byte-identical** assignments to a fresh scratch and buffer per call,
//! for every policy (through the keyed adapters), including tie-break
//! order and, for `schedule_random_into`, the exact RNG draw sequence.
//! Both sides of those tests run the same function, so they also pin a
//! couple of *independent* facts (budget respected, feasibility
//! respected, RNG stream position after the call).

use continustreaming::core::scheduler::{
    schedule_coolstreaming_into, schedule_coolstreaming_masks_into, schedule_greedy_into,
    schedule_greedy_masks_into, schedule_random_into, schedule_random_masks_into, sort_candidates,
    sort_mask_candidates, Assignment, MaskCandidate, ScheduleContext, SchedulerScratch,
    SegmentCandidate,
};
use continustreaming::prelude::*;
use rand::Rng as _;

type Cand = SegmentCandidate<DhtId>;
type Ctx = ScheduleContext<DhtId>;

/// A seeded random workload: distinct segment ids, random priorities,
/// random supplier subsets of a random supplier pool with random rates
/// (a few of them zero/unknown to exercise the infeasible paths).
fn workload(case: u64) -> (Vec<Cand>, Ctx) {
    let mut rng = RngTree::new(0x5EED).child_indexed("sched-equiv", case);
    let n_suppliers = rng.gen_range(1usize..8);
    let suppliers: Vec<DhtId> = (0..n_suppliers as u64).map(|s| 10 + 7 * s).collect();
    let m = rng.gen_range(0usize..40);
    let mut candidates: Vec<Cand> = (0..m as u64)
        .map(|i| SegmentCandidate {
            id: 100 + i, // distinct ids (the simulator guarantees this)
            priority: rng.gen::<f64>() * 10.0,
            suppliers: suppliers
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.7))
                .collect(),
        })
        .collect();
    // Some candidates share priorities so tie-breaks are exercised.
    if m > 4 {
        let p = candidates[0].priority;
        candidates[2].priority = p;
        candidates[4].priority = p;
    }
    let ctx = ScheduleContext {
        inbound_budget: rng.gen_range(0u32..20),
        period_secs: 1.0,
        supplier_rates: suppliers
            .iter()
            .map(|&s| {
                (
                    s,
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen::<f64>() * 8.0
                    },
                )
            })
            .collect(),
        deadline_cutoff: rng.gen_bool(0.5).then(|| 100 + rng.gen_range(0u64..20)),
    };
    (candidates, ctx)
}

/// What `schedule` produces over a scratch and an output buffer nothing
/// has touched before — the reference a reused scratch is held to.
fn fresh(
    schedule: impl FnOnce(&mut SchedulerScratch, &mut Vec<Assignment<DhtId>>),
) -> Vec<Assignment<DhtId>> {
    let mut out = Vec::new();
    schedule(&mut SchedulerScratch::default(), &mut out);
    out
}

fn assert_assignments_eq(a: &[Assignment<DhtId>], b: &[Assignment<DhtId>], what: &str, case: u64) {
    assert_eq!(a.len(), b.len(), "case {case}: {what} length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.segment, y.segment, "case {case}: {what} segment");
        assert_eq!(x.supplier, y.supplier, "case {case}: {what} supplier");
        assert_eq!(
            x.expected_receive_secs.to_bits(),
            y.expected_receive_secs.to_bits(),
            "case {case}: {what} eta must be bit-identical"
        );
        assert_eq!(
            x.priority.to_bits(),
            y.priority.to_bits(),
            "case {case}: {what} priority must be bit-identical"
        );
    }
}

#[test]
fn greedy_reused_scratch_matches_fresh() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    for case in 0..200 {
        let (mut candidates, ctx) = workload(case);
        sort_candidates(&mut candidates);
        let reference = fresh(|s, o| schedule_greedy_into(&candidates, &ctx, s, o));
        schedule_greedy_into(&candidates, &ctx, &mut scratch, &mut out);
        assert_assignments_eq(&reference, &out, "greedy", case);
        // Independent sanity: budget and feasibility.
        assert!(
            reference.len() <= ctx.inbound_budget as usize,
            "case {case}"
        );
        for a in &reference {
            assert!(
                a.expected_receive_secs < ctx.period_secs,
                "case {case}: eta within the period"
            );
        }
    }
}

/// The keyed schedulers the mask forms replaced, verbatim apart from
/// their working memory living here: the oracle the library's one
/// implementation per algorithm is held to.
mod reference {
    use continustreaming::core::scheduler::{Assignment, ScheduleContext, SegmentCandidate};
    use continustreaming::sim::SimRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// The bound the keyed forms took (`Ord`: their "lower id wins"
    /// tie-breaks compared keys).
    pub trait SupplierKey: Copy + PartialEq + Ord + std::fmt::Debug {}
    impl<T: Copy + PartialEq + Ord + std::fmt::Debug> SupplierKey for T {}

    /// The keyed forms' working memory.
    pub struct Scratch<K> {
        queue: Vec<(K, f64)>,
        order: Vec<u32>,
        feasible: Vec<(K, f64)>,
    }

    impl<K> Default for Scratch<K> {
        fn default() -> Self {
            Scratch {
                queue: Vec::new(),
                order: Vec::new(),
                feasible: Vec::new(),
            }
        }
    }

    fn rate<K: SupplierKey>(ctx: &ScheduleContext<K>, j: K) -> f64 {
        ctx.supplier_rates
            .iter()
            .find(|(k, _)| *k == j)
            .map(|(_, r)| *r)
            .unwrap_or(0.0)
    }

    fn queue_get<K: SupplierKey>(queue: &[(K, f64)], j: K) -> f64 {
        queue
            .iter()
            .find(|(k, _)| *k == j)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    }

    fn queue_set<K: SupplierKey>(queue: &mut Vec<(K, f64)>, j: K, t: f64) {
        match queue.iter_mut().find(|(k, _)| *k == j) {
            Some(slot) => slot.1 = t,
            None => queue.push((j, t)),
        }
    }

    pub fn greedy<K: SupplierKey>(
        candidates: &[SegmentCandidate<K>],
        ctx: &ScheduleContext<K>,
        scratch: &mut Scratch<K>,
        out: &mut Vec<Assignment<K>>,
    ) {
        let budget = (candidates.len() as u32).min(ctx.inbound_budget) as usize;
        scratch.queue.clear();
        out.clear();
        for cand in candidates.iter() {
            if out.len() >= budget {
                break;
            }
            let mut t_min = f64::INFINITY;
            let mut chosen: Option<K> = None;
            for &j in &cand.suppliers {
                let rate = rate(ctx, j);
                if rate <= 0.0 {
                    continue;
                }
                let t_trans = 1.0 / rate;
                let tau_j = queue_get(&scratch.queue, j);
                let eta = t_trans + tau_j;
                if eta < t_min && eta < ctx.period_secs {
                    t_min = eta;
                    chosen = Some(j);
                }
            }
            if let Some(j) = chosen {
                queue_set(&mut scratch.queue, j, t_min);
                out.push(Assignment {
                    segment: cand.id,
                    supplier: j,
                    expected_receive_secs: t_min,
                    priority: cand.priority,
                });
            }
        }
    }

    pub fn coolstreaming<K: SupplierKey>(
        candidates: &[SegmentCandidate<K>],
        ctx: &ScheduleContext<K>,
        scratch: &mut Scratch<K>,
        out: &mut Vec<Assignment<K>>,
    ) {
        scratch.order.clear();
        scratch.order.extend(0..candidates.len() as u32);
        let critical = |c: &SegmentCandidate<K>| ctx.deadline_cutoff.is_some_and(|cut| c.id < cut);
        scratch.order.sort_unstable_by(|&ia, &ib| {
            let (a, b) = (&candidates[ia as usize], &candidates[ib as usize]);
            critical(b).cmp(&critical(a)).then_with(|| {
                if critical(a) && critical(b) {
                    a.id.cmp(&b.id)
                } else {
                    a.suppliers
                        .len()
                        .cmp(&b.suppliers.len())
                        .then(a.id.cmp(&b.id))
                }
            })
        });
        let budget = (candidates.len() as u32).min(ctx.inbound_budget) as usize;
        scratch.queue.clear();
        out.clear();
        for oi in 0..scratch.order.len() {
            let cand = &candidates[scratch.order[oi] as usize];
            if out.len() >= budget {
                break;
            }
            let mut best: Option<(f64, K, f64)> = None; // (rate, key, eta)
            for &j in &cand.suppliers {
                let rate = rate(ctx, j);
                if rate <= 0.0 {
                    continue;
                }
                let eta = 1.0 / rate + queue_get(&scratch.queue, j);
                if eta >= ctx.period_secs {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((r, id, _)) => rate > r || (rate == r && j < id),
                };
                if better {
                    best = Some((rate, j, eta));
                }
            }
            if let Some((_, j, eta)) = best {
                queue_set(&mut scratch.queue, j, eta);
                out.push(Assignment {
                    segment: cand.id,
                    supplier: j,
                    expected_receive_secs: eta,
                    priority: 1.0 / cand.suppliers.len().max(1) as f64,
                });
            }
        }
    }

    pub fn random<K: SupplierKey>(
        candidates: &[SegmentCandidate<K>],
        ctx: &ScheduleContext<K>,
        rng: &mut SimRng,
        scratch: &mut Scratch<K>,
        out: &mut Vec<Assignment<K>>,
    ) {
        scratch.order.clear();
        scratch.order.extend(0..candidates.len() as u32);
        scratch.order.shuffle(rng);
        let budget = (candidates.len() as u32).min(ctx.inbound_budget) as usize;
        scratch.queue.clear();
        out.clear();
        for oi in 0..scratch.order.len() {
            let cand = &candidates[scratch.order[oi] as usize];
            if out.len() >= budget {
                break;
            }
            scratch.feasible.clear();
            for &j in &cand.suppliers {
                let rate = rate(ctx, j);
                if rate <= 0.0 {
                    continue;
                }
                let eta = 1.0 / rate + queue_get(&scratch.queue, j);
                if eta < ctx.period_secs {
                    scratch.feasible.push((j, eta));
                }
            }
            if scratch.feasible.is_empty() {
                continue;
            }
            let (j, eta) = scratch.feasible[rng.gen_range(0..scratch.feasible.len())];
            queue_set(&mut scratch.queue, j, eta);
            out.push(Assignment {
                segment: cand.id,
                supplier: j,
                expected_receive_secs: eta,
                priority: 0.0,
            });
        }
    }
}

/// What a `reference` scheduler produces over fresh working memory.
fn oracle(
    schedule: impl FnOnce(&mut reference::Scratch<DhtId>, &mut Vec<Assignment<DhtId>>),
) -> Vec<Assignment<DhtId>> {
    let mut out = Vec::new();
    schedule(&mut reference::Scratch::default(), &mut out);
    out
}

/// Each mask-form scheduler — what the simulator's round loop runs for
/// every `SchedulerKind` — against its keyed reference: the same
/// workloads with each supplier list folded into a bitmask over the
/// context's (ascending) rate table must yield identical segments,
/// suppliers, eta bits and priorities, through one reused scratch, and
/// for Random leave the two RNG streams in lockstep. Every fourth
/// workload levels the usable rates, so equal etas and equal rates are
/// common and the "lower id wins" tie-breaks decide.
#[test]
fn mask_forms_match_the_keyed_references() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    let mut zero_rate_seen = false;
    let mut budget_bound_seen = [false; 3];
    for case in 0..1000 {
        let (mut candidates, mut ctx) = workload(case);
        if case % 4 == 0 {
            for (_, rate) in ctx.supplier_rates.iter_mut().filter(|(_, r)| *r > 0.0) {
                *rate = 5.0;
            }
        }
        let mut masks: Vec<MaskCandidate> = candidates
            .iter()
            .map(|c| MaskCandidate {
                id: c.id,
                priority: c.priority,
                suppliers: c.suppliers.iter().fold(0, |mask, s| {
                    let k = ctx.supplier_rates.iter().position(|(key, _)| key == s);
                    mask | 1 << k.expect("workload suppliers are all in the rate table")
                }),
            })
            .collect();
        let (budget, m) = (ctx.inbound_budget as usize, candidates.len());
        let bound = |n: usize| n == budget && n < m;

        // The baselines take the candidates in the order they were built.
        let cool = oracle(|s, o| reference::coolstreaming(&candidates, &ctx, s, o));
        schedule_coolstreaming_masks_into(&masks, &ctx, &mut scratch, &mut out);
        assert_assignments_eq(&cool, &out, "coolstreaming mask form", case);
        budget_bound_seen[1] |= bound(cool.len());

        let mut rng_a = RngTree::new(case).child("sched-mask");
        let mut rng_b = RngTree::new(case).child("sched-mask");
        let random = oracle(|s, o| reference::random(&candidates, &ctx, &mut rng_a, s, o));
        schedule_random_masks_into(&masks, &ctx, &mut rng_b, &mut scratch, &mut out);
        assert_assignments_eq(&random, &out, "random mask form", case);
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "case {case}: RNG streams diverged (draw count or order differs)"
        );
        budget_bound_seen[2] |= bound(random.len());

        sort_candidates(&mut candidates);
        sort_mask_candidates(&mut masks);
        assert!(
            candidates
                .iter()
                .map(|c| c.id)
                .eq(masks.iter().map(|c| c.id)),
            "case {case}: the two sorts must agree, ties included"
        );
        let greedy = oracle(|s, o| reference::greedy(&candidates, &ctx, s, o));
        schedule_greedy_masks_into(&masks, &ctx, &mut scratch, &mut out);
        assert_assignments_eq(&greedy, &out, "greedy mask form", case);
        budget_bound_seen[0] |= bound(greedy.len());

        // The workloads must reach the paths most likely to differ.
        zero_rate_seen |= candidates.iter().any(|c| {
            c.suppliers
                .iter()
                .any(|s| ctx.supplier_rates.contains(&(*s, 0.0)))
        });
    }
    assert!(zero_rate_seen, "no workload offered a zero-rate supplier");
    for (name, seen) in ["greedy", "coolstreaming", "random"]
        .iter()
        .zip(budget_bound_seen)
    {
        assert!(seen, "no {name} workload was cut off by its budget");
    }
}

#[test]
fn coolstreaming_reused_scratch_matches_fresh() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    for case in 0..200 {
        let (candidates, ctx) = workload(case);
        let reference = fresh(|s, o| schedule_coolstreaming_into(&candidates, &ctx, s, o));
        schedule_coolstreaming_into(&candidates, &ctx, &mut scratch, &mut out);
        assert_assignments_eq(&reference, &out, "coolstreaming", case);
        assert!(
            reference.len() <= ctx.inbound_budget as usize,
            "case {case}"
        );
    }
}

/// The Random policy must consume the RNG stream identically whatever
/// the scratch held before: same shuffle draws, same per-candidate
/// feasible-pick draws. Two RNGs seeded alike are stepped through a
/// fresh and the reused scratch; the outputs must match *and* the RNG
/// states must remain in lockstep (pinned by comparing their next
/// draws).
#[test]
fn random_reused_scratch_matches_fresh_and_rng_stream() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    for case in 0..200 {
        let (candidates, ctx) = workload(case);
        let mut rng_a = RngTree::new(case).child("sched-random");
        let mut rng_b = RngTree::new(case).child("sched-random");
        let reference = fresh(|s, o| schedule_random_into(&candidates, &ctx, &mut rng_a, s, o));
        schedule_random_into(&candidates, &ctx, &mut rng_b, &mut scratch, &mut out);
        assert_assignments_eq(&reference, &out, "random", case);
        // RNG-draw order: both streams must sit at the same position.
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "case {case}: RNG streams diverged (draw count or order differs)"
        );
    }
}

/// One scratch, many workloads, interleaved policies: reuse must never
/// leak state between calls (the scratch carries capacity only).
#[test]
fn scratch_reuse_across_policies_is_clean() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    for case in 0..120 {
        let (mut candidates, ctx) = workload(case);
        match case % 3 {
            0 => {
                sort_candidates(&mut candidates);
                schedule_greedy_into(&candidates, &ctx, &mut scratch, &mut out);
                let reference = fresh(|s, o| schedule_greedy_into(&candidates, &ctx, s, o));
                assert_assignments_eq(&reference, &out, "greedy reuse", case);
            }
            1 => {
                schedule_coolstreaming_into(&candidates, &ctx, &mut scratch, &mut out);
                let reference = fresh(|s, o| schedule_coolstreaming_into(&candidates, &ctx, s, o));
                assert_assignments_eq(&reference, &out, "coolstreaming reuse", case);
            }
            _ => {
                let mut rng_a = RngTree::new(case).child("reuse");
                let mut rng_b = RngTree::new(case).child("reuse");
                schedule_random_into(&candidates, &ctx, &mut rng_a, &mut scratch, &mut out);
                let reference =
                    fresh(|s, o| schedule_random_into(&candidates, &ctx, &mut rng_b, s, o));
                assert_assignments_eq(&reference, &out, "random reuse", case);
            }
        }
    }
}

/// `out` is cleared by every `_into` call: stale assignments from a
/// previous (larger) schedule never survive into the next result.
#[test]
fn out_buffer_is_cleared_per_call() {
    let mut scratch = SchedulerScratch::default();
    let mut out = Vec::new();
    let (mut big, big_ctx) = workload(7);
    sort_candidates(&mut big);
    schedule_greedy_into(&big, &big_ctx, &mut scratch, &mut out);
    // An empty candidate set must yield an empty result even though the
    // buffer held assignments a moment ago.
    let empty_ctx = ScheduleContext {
        inbound_budget: 5,
        period_secs: 1.0,
        supplier_rates: vec![(10, 3.0)],
        deadline_cutoff: None,
    };
    schedule_greedy_into(&[], &empty_ctx, &mut scratch, &mut out);
    assert!(out.is_empty(), "stale assignments leaked through `out`");
    schedule_coolstreaming_into(&[], &empty_ctx, &mut scratch, &mut out);
    assert!(out.is_empty());
    let mut rng = RngTree::new(1).child("clear");
    schedule_random_into(&[], &empty_ctx, &mut rng, &mut scratch, &mut out);
    assert!(out.is_empty());
}

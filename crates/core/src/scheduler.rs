//! Data-scheduling algorithms: the paper's Algorithm 1 and the baselines
//! it is evaluated against.
//!
//! The underlying assignment problem — pick a supplier for every wanted
//! segment so that the fewest miss their deadlines — contains parallel
//! machine scheduling and is NP-hard (§4.2), so everything here is
//! greedy:
//!
//! * [`schedule_greedy_masks_into`] — **Algorithm 1**: walk candidates in
//!   descending priority; for each, pick the supplier minimising expected
//!   receive time `t_trans + τ(j)` subject to `t_trans + τ(j) < τ`, then
//!   charge the chosen supplier's queue `τ(j) ← t_min`.
//! * [`schedule_coolstreaming_masks_into`] — the CoolStreaming/DONet
//!   baseline: rarest-first order (fewest suppliers first), supplier =
//!   highest bandwidth with enough available time.
//! * [`schedule_random_masks_into`] — naive gossip: random order, random
//!   feasible supplier; the lower bound any smart policy must beat.
//!
//! All schedulers respect the same inbound budget `min(m, I·τ)` and the
//! same per-supplier queue model, so measured differences are purely the
//! policy.
//!
//! Each algorithm is written once, in **mask form**: a [`MaskCandidate`]'s
//! supplier set is a bitmask over the context's supplier table, read
//! through per-supplier lanes `(1/R(j), τ(j))` by table index — what the
//! round loop runs for every scheduler (`M ≤ 64` suppliers fit a word).
//! The keyed `schedule_*_into` over [`SegmentCandidate`]s fold each list
//! into a mask and forward; the frozen benchmark kernels call them.
//!
//! The supplier key `K` defaults to [`DhtId`], the key the simulator
//! schedules against. Keys are copied out of the table, never
//! compared: a supplier tie-break ("lower id wins") goes to the lower
//! table index, so callers keep the table in ascending-key order.
//!
//! ## The `_into` contract (zero-allocation scheduling)
//!
//! Every policy writes into a **caller-owned** output buffer and draws
//! all working memory (the supplier lanes, the ordering buffer, the
//! feasible-supplier list) from a caller-owned [`SchedulerScratch`].
//! The contract:
//!
//! * `out` is cleared, then filled — previous contents never leak;
//! * the scratch carries no information between calls (every buffer is
//!   cleared before use), it only carries *capacity*: a reused scratch
//!   produces the same bytes — and, for Random, the same RNG draw
//!   sequence — as a fresh one (`tests/scheduler_equivalence.rs` pins
//!   this against seeded random workloads);
//! * steady-state calls perform **zero heap allocations** once the scratch
//!   and `out` have grown to the workload's high-water mark.
//!
//! Candidate ids must be distinct (the simulator builds them in ascending
//! segment order, so they are): every internal sort is unstable, relying
//! on the id tie-break to make the comparator a total order.

use std::marker::PhantomData;

use rand::seq::SliceRandom;
use rand::Rng;

use cs_dht::DhtId;
use cs_sim::SimRng;

use crate::buffer::BitIter;
use crate::SegmentId;

/// One candidate segment with its suppliers listed by key: the input of
/// the keyed adapters.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCandidate<K = DhtId> {
    /// The wanted segment.
    pub id: SegmentId,
    /// Scheduling priority, as in [`MaskCandidate`].
    pub priority: f64,
    /// Connected neighbours advertising this segment, each present in the
    /// context's supplier table.
    pub suppliers: Vec<K>,
}

/// One candidate segment in mask form: the supplier set is a bitmask over
/// the supplier table of the [`ScheduleContext`] it is scheduled against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskCandidate {
    /// The wanted segment.
    pub id: SegmentId,
    /// Scheduling priority (larger = sooner). Only Algorithm 1 reads it
    /// (its walk order, forwarded into the assignment); the baselines
    /// order by rarity or at random and ignore it.
    pub priority: f64,
    /// Bit `k` set ⇔ the supplier at `supplier_rates[k]` advertises the
    /// segment.
    pub suppliers: u64,
}

/// Inputs shared by all scheduling policies.
#[derive(Debug, Clone)]
pub struct ScheduleContext<K = DhtId> {
    /// `I·τ` rounded down: how many segments the node can pull this
    /// period. Algorithm 1's loop bound is `min(m, inbound_budget)`.
    pub inbound_budget: u32,
    /// The scheduling period `τ` in seconds.
    pub period_secs: f64,
    /// The supplier table: estimated sending rate `R(j)` of each supplier,
    /// segments/s, one entry per connected neighbour (so at most 64).
    /// Bit `k` of a [`MaskCandidate`] names entry `k`; supplier ties go to
    /// the lower index, so keep the table in ascending-key order.
    pub supplier_rates: Vec<(K, f64)>,
    /// Segments below this id are deadline-critical (DONet schedules
    /// within deadline constraints before applying rarest-first; without
    /// this a freshly joined node pulls the rare frontier forever while
    /// its play point starves). `None` disables the split.
    pub deadline_cutoff: Option<SegmentId>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment<K = DhtId> {
    /// The segment to request.
    pub segment: SegmentId,
    /// The chosen supplier.
    pub supplier: K,
    /// The expected receive time within the period (`t_min`), seconds.
    pub expected_receive_secs: f64,
    /// The candidate's scheduling priority, forwarded so the supplier can
    /// serve the most urgent requests first under contention.
    pub priority: f64,
}

/// Reusable working memory for the `_into` scheduling entry points (see
/// the module docs for the full contract). The simulator keeps one
/// inside its per-round scratch so steady-state scheduling allocates
/// nothing.
///
/// The scratch carries **capacity only** — every buffer is cleared before
/// use, so a scratch can be shared freely across nodes, policies and
/// rounds without any cross-talk.
///
/// Nothing in it depends on the supplier key: `K` remains only because
/// the frozen benchmark kernels name `SchedulerScratch<u64>`.
#[derive(Debug)]
pub struct SchedulerScratch<K = DhtId> {
    /// Per-supplier lanes `(1/R(j), τ(j))`, indexed like the context's
    /// supplier table: the transfer time and Algorithm 1's committed-time
    /// queue.
    lanes: Vec<(f64, f64)>,
    /// Candidate-index ordering buffer (CoolStreaming's rarest-first sort,
    /// Random's shuffle).
    order: Vec<u32>,
    /// Random's feasible suppliers of one candidate, as table indices.
    feasible: Vec<u32>,
    /// The keyed adapters' candidates in mask form (see [`masks_of`]).
    masks: Vec<MaskCandidate>,
    key: PhantomData<K>,
}

// Manual impl: the derive would needlessly demand `K: Default`.
impl<K> Default for SchedulerScratch<K> {
    fn default() -> Self {
        SchedulerScratch {
            lanes: Vec::new(),
            order: Vec::new(),
            feasible: Vec::new(),
            masks: Vec::new(),
            key: PhantomData,
        }
    }
}

/// Reset `lanes` to `(1/R(j), 0)` per entry of `ctx`'s supplier table.
/// An unusable rate (≤ 0 or NaN) becomes an infinite transfer time, which
/// no feasibility test (`eta < τ`) passes.
fn reset_lanes<K>(ctx: &ScheduleContext<K>, lanes: &mut Vec<(f64, f64)>) {
    assert!(
        ctx.supplier_rates.len() <= 64,
        "a supplier mask addresses at most 64 suppliers"
    );
    lanes.clear();
    lanes.extend(ctx.supplier_rates.iter().map(|&(_, rate)| {
        let t_trans = if rate > 0.0 {
            1.0 / rate
        } else {
            f64::INFINITY
        };
        (t_trans, 0.0)
    }));
}

/// Algorithm 1, writing into caller-owned buffers (cleared first; see the
/// module docs for the `_into` contract). Suppliers are tried by
/// ascending bit, so on equal receive times the lower table index wins.
/// `candidates` must already be in scheduling order — descending
/// priority, ties by ascending id ([`sort_mask_candidates`]).
pub fn schedule_greedy_masks_into<K: Copy>(
    candidates: &[MaskCandidate],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    reset_lanes(ctx, &mut scratch.lanes);
    out.clear();
    // The loop bound min(m, I·τ) caps *scheduled segments*: a candidate
    // with no feasible supplier does not consume an inbound slot, the
    // scheduler simply moves on to the next-priority segment.
    for cand in candidates {
        if out.len() >= ctx.inbound_budget as usize {
            break;
        }
        let mut t_min = f64::INFINITY;
        let mut chosen = None;
        for k in BitIter(cand.suppliers) {
            let (t_trans, tau_j) = scratch.lanes[k as usize];
            let eta = t_trans + tau_j;
            if eta < t_min && eta < ctx.period_secs {
                t_min = eta;
                chosen = Some(k as usize);
            }
        }
        if let Some(k) = chosen {
            scratch.lanes[k].1 = t_min;
            out.push(Assignment {
                segment: cand.id,
                supplier: ctx.supplier_rates[k].0,
                expected_receive_secs: t_min,
                priority: cand.priority,
            });
        }
    }
}

/// The CoolStreaming baseline, writing into caller-owned buffers (cleared
/// first; see the module docs for the `_into` contract): deadline-critical
/// candidates first by id, then the rest rarest-first (fewest suppliers,
/// ties by ascending id); supplier = highest-rate one whose queue still
/// fits the period, ties to the lower table index. Candidate priorities
/// are not read.
pub fn schedule_coolstreaming_masks_into<K: Copy>(
    candidates: &[MaskCandidate],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    scratch.order.clear();
    scratch.order.extend(0..candidates.len() as u32);
    // Deadline-critical segments first (earliest deadline first),
    // rarest-first among the rest. Unstable sort: the id makes the key
    // unique over distinct-id candidates, so the result matches a stable
    // sort.
    scratch.order.sort_unstable_by_key(|&i| {
        let c = &candidates[i as usize];
        let critical = ctx.deadline_cutoff.is_some_and(|cut| c.id < cut);
        let count = if critical {
            0
        } else {
            c.suppliers.count_ones()
        };
        (!critical, count, c.id)
    });
    reset_lanes(ctx, &mut scratch.lanes);
    out.clear();
    for &i in &scratch.order {
        if out.len() >= ctx.inbound_budget as usize {
            break;
        }
        let cand = &candidates[i as usize];
        let mut best: Option<(f64, usize, f64)> = None; // (rate, index, eta)
        for k in BitIter(cand.suppliers) {
            let k = k as usize;
            let (t_trans, tau_j) = scratch.lanes[k];
            let eta = t_trans + tau_j;
            if eta >= ctx.period_secs {
                continue;
            }
            let rate = ctx.supplier_rates[k].1;
            if best.is_none_or(|(r, ..)| rate > r) {
                best = Some((rate, k, eta));
            }
        }
        if let Some((_, k, eta)) = best {
            scratch.lanes[k].1 = eta;
            out.push(Assignment {
                segment: cand.id,
                supplier: ctx.supplier_rates[k].0,
                expected_receive_secs: eta,
                // CoolStreaming's wire protocol carries no urgency; the
                // supplier serves rarest-first order by arrival. We use
                // the inverse supplier count so contention resolution
                // stays rarest-first at the supplier too.
                priority: 1.0 / cand.suppliers.count_ones().max(1) as f64,
            });
        }
    }
}

/// Naive gossip, writing into caller-owned buffers (cleared first; see
/// the module docs for the `_into` contract): shuffle the candidates,
/// pick a random feasible supplier for each. Candidate priorities are not
/// read.
///
/// Callers must hand over `candidates` in a deterministic order (the
/// simulator builds them in ascending segment order) — the shuffle
/// permutes an index buffer of that length and the feasible list is built
/// in table order, so the result and the draws consumed are a pure
/// function of the RNG state, and runs reproduce.
pub fn schedule_random_masks_into<K: Copy>(
    candidates: &[MaskCandidate],
    ctx: &ScheduleContext<K>,
    rng: &mut SimRng,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    scratch.order.clear();
    scratch.order.extend(0..candidates.len() as u32);
    scratch.order.shuffle(rng);
    reset_lanes(ctx, &mut scratch.lanes);
    out.clear();
    for &i in &scratch.order {
        if out.len() >= ctx.inbound_budget as usize {
            break;
        }
        let cand = &candidates[i as usize];
        scratch.feasible.clear();
        for k in BitIter(cand.suppliers) {
            let (t_trans, tau_j) = scratch.lanes[k as usize];
            if t_trans + tau_j < ctx.period_secs {
                scratch.feasible.push(k);
            }
        }
        if scratch.feasible.is_empty() {
            continue;
        }
        let k = scratch.feasible[rng.gen_range(0..scratch.feasible.len())] as usize;
        let (t_trans, tau_j) = scratch.lanes[k];
        let eta = t_trans + tau_j;
        scratch.lanes[k].1 = eta;
        out.push(Assignment {
            segment: cand.id,
            supplier: ctx.supplier_rates[k].0,
            expected_receive_secs: eta,
            priority: 0.0,
        });
    }
}

/// The keyed adapters' one conversion: fold each candidate's supplier
/// list into a mask over `ctx`'s table (into the scratch's mask buffer)
/// and hand the masks to `schedule`. Every listed supplier must be in the
/// table.
fn masks_of<K: Copy + PartialEq>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    schedule: impl FnOnce(&[MaskCandidate], &mut SchedulerScratch<K>),
) {
    let mut masks = std::mem::take(&mut scratch.masks);
    masks.clear();
    masks.extend(candidates.iter().map(|c| MaskCandidate {
        id: c.id,
        priority: c.priority,
        suppliers: c.suppliers.iter().fold(0, |mask, j| {
            let k = ctx.supplier_rates.iter().position(|(key, _)| key == j);
            mask | 1 << k.expect("every listed supplier is in the context's table")
        }),
    }));
    schedule(&masks, scratch);
    scratch.masks = masks;
}

/// [`schedule_greedy_masks_into`] over keyed candidates (see
/// [`SegmentCandidate`]); `candidates` must already be in scheduling
/// order ([`sort_candidates`]).
pub fn schedule_greedy_into<K: Copy + PartialEq>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    masks_of(candidates, ctx, scratch, |masks, scratch| {
        schedule_greedy_masks_into(masks, ctx, scratch, out)
    });
}

/// [`schedule_coolstreaming_masks_into`] over keyed candidates.
pub fn schedule_coolstreaming_into<K: Copy + PartialEq>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    masks_of(candidates, ctx, scratch, |masks, scratch| {
        schedule_coolstreaming_masks_into(masks, ctx, scratch, out)
    });
}

/// [`schedule_random_masks_into`] over keyed candidates.
pub fn schedule_random_into<K: Copy + PartialEq>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    rng: &mut SimRng,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    masks_of(candidates, ctx, scratch, |masks, scratch| {
        schedule_random_masks_into(masks, ctx, rng, scratch, out)
    });
}

/// Sort candidates for [`schedule_greedy_into`]: descending priority, ties by
/// ascending segment id (deterministic). Unstable (allocation-free):
/// candidates with distinct ids — which the simulator guarantees — sort
/// exactly as a stable sort would.
pub fn sort_candidates<K>(candidates: &mut [SegmentCandidate<K>]) {
    candidates.sort_unstable_by(|a, b| scheduling_order((a.priority, a.id), (b.priority, b.id)));
}

/// [`sort_candidates`] for the mask form: the same total order.
pub fn sort_mask_candidates(candidates: &mut [MaskCandidate]) {
    candidates.sort_unstable_by(|a, b| scheduling_order((a.priority, a.id), (b.priority, b.id)));
}

/// Algorithm 1's walk order over `(priority, id)`: descending priority,
/// ties by ascending segment id.
#[inline]
fn scheduling_order(a: (f64, SegmentId), b: (f64, SegmentId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    fn ctx(budget: u32, rates: &[(DhtId, f64)]) -> ScheduleContext {
        ScheduleContext {
            inbound_budget: budget,
            period_secs: 1.0,
            supplier_rates: rates.to_vec(),
            deadline_cutoff: None,
        }
    }

    fn cand(id: SegmentId, priority: f64, suppliers: &[DhtId]) -> SegmentCandidate {
        SegmentCandidate {
            id,
            priority,
            suppliers: suppliers.to_vec(),
        }
    }

    /// Run one `_into` scheduler over a fresh scratch and output buffer.
    fn fresh<K>(
        schedule: impl FnOnce(&mut SchedulerScratch<K>, &mut Vec<Assignment<K>>),
    ) -> Vec<Assignment<K>> {
        let mut out = Vec::new();
        schedule(&mut SchedulerScratch::default(), &mut out);
        out
    }

    #[test]
    fn greedy_prefers_fastest_supplier() {
        let c = [cand(1, 1.0, &[10, 20])];
        let ctx = ctx(5, &[(10, 2.0), (20, 8.0)]);
        let a = fresh(|s, o| schedule_greedy_into(&c, &ctx, s, o));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].supplier, 20);
        assert!((a[0].expected_receive_secs - 0.125).abs() < 1e-12);
    }

    #[test]
    fn greedy_spreads_load_when_queues_build() {
        // Two segments, both available from a fast and a slow supplier.
        // First goes to the fast one; the second sees the fast supplier's
        // queue (0.125 + 0.125 = 0.25) still beating the slow one (0.5),
        // so both go to the fast supplier — then a third finally spills.
        let c = [
            cand(1, 3.0, &[10, 20]),
            cand(2, 2.0, &[10, 20]),
            cand(3, 1.0, &[10, 20]),
        ];
        let fast = ctx(5, &[(10, 2.0), (20, 8.0)]);
        let a = fresh(|s, o| schedule_greedy_into(&c, &fast, s, o));
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].supplier, 20);
        assert_eq!(a[1].supplier, 20);
        assert_eq!(a[2].supplier, 20); // 0.375 still < 0.5
                                       // With a slower fast supplier the spill happens.
        let ctx2 = ctx(5, &[(10, 2.0), (20, 3.0)]);
        let a2 = fresh(|s, o| schedule_greedy_into(&c, &ctx2, s, o));
        assert_eq!(a2[0].supplier, 20); // 1/3 < 1/2
        assert_eq!(a2[1].supplier, 10); // 2/3 vs 1/2 → 10
    }

    #[test]
    fn greedy_respects_budget_and_priority_order() {
        let c = [
            cand(5, 9.0, &[10]),
            cand(6, 5.0, &[10]),
            cand(7, 1.0, &[10]),
        ];
        let ctx = ctx(2, &[(10, 100.0)]);
        let a = fresh(|s, o| schedule_greedy_into(&c, &ctx, s, o));
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].segment, 5);
        assert_eq!(a[1].segment, 6, "lowest priority segment dropped");
    }

    #[test]
    fn greedy_skips_when_period_exceeded() {
        // Rate 0.5/s → 2 s per segment > τ = 1 s: infeasible.
        let c = [cand(1, 1.0, &[10])];
        let ctx = ctx(5, &[(10, 0.5)]);
        assert!(fresh(|s, o| schedule_greedy_into(&c, &ctx, s, o)).is_empty());
    }

    #[test]
    fn greedy_queue_saturates_supplier() {
        // One supplier at 3/s: only 2 segments fit in 1 s
        // (1/3, 2/3; the third would be 1.0 ≮ 1.0).
        let c = [
            cand(1, 3.0, &[10]),
            cand(2, 2.0, &[10]),
            cand(3, 1.0, &[10]),
        ];
        let ctx = ctx(5, &[(10, 3.0)]);
        let a = fresh(|s, o| schedule_greedy_into(&c, &ctx, s, o));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn greedy_ignores_unknown_or_zero_rate_suppliers() {
        let c = [cand(1, 1.0, &[10, 99])];
        let ctx = ctx(5, &[(10, 4.0), (99, 0.0)]);
        let a = fresh(|s, o| schedule_greedy_into(&c, &ctx, s, o));
        assert_eq!(a[0].supplier, 10);
    }

    #[test]
    fn coolstreaming_is_rarest_first() {
        // Segment 2 has one supplier, segment 1 has two: 2 gets scheduled
        // first and grabs the shared supplier's queue slot.
        let c = [cand(1, 0.0, &[10, 20]), cand(2, 0.0, &[20])];
        let ctx = ctx(5, &[(10, 1.5), (20, 1.5)]);
        let a = fresh(|s, o| schedule_coolstreaming_into(&c, &ctx, s, o));
        assert_eq!(a[0].segment, 2);
        assert_eq!(a[0].supplier, 20);
        assert_eq!(a[1].segment, 1);
        assert_eq!(a[1].supplier, 10, "20's queue is charged, 10 is free");
    }

    #[test]
    fn coolstreaming_prefers_bandwidth() {
        let c = [cand(1, 0.0, &[10, 20])];
        let ctx = ctx(5, &[(10, 9.0), (20, 2.0)]);
        let a = fresh(|s, o| schedule_coolstreaming_into(&c, &ctx, s, o));
        assert_eq!(a[0].supplier, 10);
    }

    #[test]
    fn random_respects_feasibility() {
        let mut rng = RngTree::new(1).child("sched");
        let c = [
            cand(1, 0.0, &[10, 20]),
            cand(2, 0.0, &[10, 20]),
            cand(3, 0.0, &[10, 20]),
        ];
        // Supplier 20 can't deliver within the period at all.
        let ctx = ctx(5, &[(10, 50.0), (20, 0.9)]);
        for _ in 0..20 {
            let a = fresh(|s, o| schedule_random_into(&c, &ctx, &mut rng, s, o));
            assert_eq!(a.len(), 3);
            assert!(a.iter().all(|x| x.supplier == 10));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let c = [
            cand(1, 0.0, &[10, 20]),
            cand(2, 0.0, &[10, 20]),
            cand(3, 0.0, &[10, 20]),
        ];
        let ctx = ctx(5, &[(10, 50.0), (20, 50.0)]);
        let run = |seed| {
            let mut rng = RngTree::new(seed).child("sched");
            fresh(|s, o| schedule_random_into(&c, &ctx, &mut rng, s, o))
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn sort_candidates_orders_desc_then_id() {
        let mut c = vec![cand(3, 1.0, &[]), cand(1, 5.0, &[]), cand(2, 5.0, &[])];
        sort_candidates(&mut c);
        let ids: Vec<u64> = c.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn empty_inputs() {
        let ctx = ctx(5, &[]);
        assert!(fresh(|s, o| schedule_greedy_into(&[], &ctx, s, o)).is_empty());
        assert!(fresh(|s, o| schedule_coolstreaming_into(&[], &ctx, s, o)).is_empty());
        let mut rng = RngTree::new(1).child("s");
        assert!(fresh(|s, o| schedule_random_into(&[], &ctx, &mut rng, s, o)).is_empty());
    }

    #[test]
    fn generic_key_type_schedules_identically() {
        // The same scenario keyed by DhtId and by a newtype must produce
        // the same assignments (modulo key mapping): the key is never
        // compared, only copied out.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Key(u64);
        let by_id = [
            cand(1, 3.0, &[10, 20]),
            cand(2, 2.0, &[10, 20]),
            cand(3, 1.0, &[20]),
        ];
        let by_key: Vec<SegmentCandidate<Key>> = by_id
            .iter()
            .map(|c| SegmentCandidate {
                id: c.id,
                priority: c.priority,
                suppliers: c.suppliers.iter().map(|&s| Key(s)).collect(),
            })
            .collect();
        let ctx_id = ctx(5, &[(10, 2.0), (20, 3.0)]);
        let ctx_key = ScheduleContext {
            inbound_budget: 5,
            period_secs: 1.0,
            supplier_rates: vec![(Key(10), 2.0), (Key(20), 3.0)],
            deadline_cutoff: None,
        };
        let a = fresh(|s, o| schedule_greedy_into(&by_id, &ctx_id, s, o));
        let b = fresh(|s, o| schedule_greedy_into(&by_key, &ctx_key, s, o));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.segment, y.segment);
            assert_eq!(Key(x.supplier), y.supplier);
            assert_eq!(x.expected_receive_secs, y.expected_receive_secs);
        }
    }
}

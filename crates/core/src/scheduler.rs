//! Data-scheduling algorithms: the paper's Algorithm 1 and the baselines
//! it is evaluated against.
//!
//! The underlying assignment problem — pick a supplier for every wanted
//! segment so that the fewest miss their deadlines — contains parallel
//! machine scheduling and is NP-hard (§4.2), so everything here is
//! greedy:
//!
//! * [`schedule_greedy_into`] — **Algorithm 1**: walk candidates in
//!   descending priority; for each, pick the supplier minimising expected
//!   receive time `t_trans + τ(j)` subject to `t_trans + τ(j) < τ`, then
//!   charge the chosen supplier's queue `τ(j) ← t_min`.
//! * [`schedule_coolstreaming_into`] — the CoolStreaming/DONet baseline:
//!   rarest-first order (fewest suppliers first), supplier = highest
//!   bandwidth with enough available time.
//! * [`schedule_random_into`] — naive gossip: random order, random
//!   feasible supplier; the lower bound any smart policy must beat.
//!
//! All schedulers respect the same inbound budget `min(m, I·τ)` and the
//! same per-supplier queue model, so measured differences are purely the
//! policy.
//!
//! Algorithm 1 also comes in **mask form**,
//! [`schedule_greedy_masks_into`] over [`MaskCandidate`]s: a candidate's
//! supplier set is a bitmask over the context's supplier table instead of
//! a `Vec` of keys, and `τ(j)` / `1/R(j)` are read by supplier index
//! instead of found by key. It is what the simulator's round loop runs
//! (a node has `M ≤ 64` neighbours, so its suppliers fit one word); the
//! keyed [`schedule_greedy_into`] is the same algorithm for stand-alone
//! callers and the oracle the mask form is tested against
//! (`tests/scheduler_equivalence.rs`).
//!
//! Everything is generic over the supplier key `K` (default [`DhtId`]) so
//! the full-system simulator can schedule against its dense node-arena
//! handles without translating to DHT identifiers; stand-alone users and
//! the benches keep using plain ids. With at most `M` (≈ 5) suppliers in
//! play per node, the per-supplier queue and rate tables are flat vectors
//! with linear probes — measurably faster than hashing at these sizes and
//! free of per-call allocation when reused.
//!
//! ## The `_into` contract (zero-allocation scheduling)
//!
//! Every policy writes into a **caller-owned** output buffer and draws
//! all working memory (the supplier queue `τ(j)`, the ordering buffer,
//! the feasible-supplier list) from a caller-owned [`SchedulerScratch`].
//! The contract:
//!
//! * `out` is cleared, then filled — previous contents never leak;
//! * the scratch carries no information between calls (every buffer is
//!   cleared before use), it only carries *capacity*: a reused scratch
//!   produces the same bytes — and, for [`schedule_random_into`], the
//!   same RNG draw sequence — as a fresh one
//!   (`tests/scheduler_equivalence.rs` pins this against seeded random
//!   workloads);
//! * steady-state calls perform **zero heap allocations** once the scratch
//!   and `out` have grown to the workload's high-water mark.
//!
//! Candidate ids must be distinct (the simulator builds them in ascending
//! segment order, so they are): every internal sort is unstable, relying
//! on the id tie-break to make the comparator a total order.

use rand::seq::SliceRandom;
use rand::Rng;

use cs_dht::DhtId;
use cs_sim::SimRng;

use crate::buffer::BitIter;
use crate::SegmentId;

/// Key types a scheduler can address suppliers by.
///
/// `Ord` matters: every tie-break in the algorithms ("lower id wins")
/// uses it, so the key's order must be deterministic and stable across
/// runs. Implemented by `DhtId` and by the simulator's arena handles
/// (which order by the underlying `DhtId` for exactly this reason).
pub trait SupplierKey: Copy + PartialEq + Ord + std::fmt::Debug {}
impl<T: Copy + PartialEq + Ord + std::fmt::Debug> SupplierKey for T {}

/// One candidate segment, with its suppliers and computed priority.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCandidate<K = DhtId> {
    /// The wanted segment.
    pub id: SegmentId,
    /// Scheduling priority (larger = sooner); semantics depend on the
    /// [`crate::priority::PriorityPolicy`] that produced it.
    pub priority: f64,
    /// Connected neighbours advertising this segment, in ascending-key
    /// order (callers must keep this deterministic).
    pub suppliers: Vec<K>,
}

/// One candidate segment in mask form: the supplier set is a bitmask over
/// the supplier table of the [`ScheduleContext`] it is scheduled against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskCandidate {
    /// The wanted segment.
    pub id: SegmentId,
    /// Scheduling priority (larger = sooner), as in [`SegmentCandidate`].
    pub priority: f64,
    /// Bit `k` set ⇔ the supplier at `supplier_rates[k]` advertises the
    /// segment. The table must be in ascending-key order for the "lower
    /// id wins" tie-break to match the keyed form.
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
    /// Estimated sending rate `R(j)` of each supplier, segments/s. A flat
    /// list (one entry per connected neighbour, so ≤ M entries): linear
    /// probes beat hashing at this size and the buffer is reusable.
    pub supplier_rates: Vec<(K, f64)>,
    /// Segments below this id are deadline-critical (DONet schedules
    /// within deadline constraints before applying rarest-first; without
    /// this a freshly joined node pulls the rare frontier forever while
    /// its play point starves). `None` disables the split.
    pub deadline_cutoff: Option<SegmentId>,
}

impl<K: SupplierKey> ScheduleContext<K> {
    fn rate(&self, j: K) -> f64 {
        self.supplier_rates
            .iter()
            .find(|(k, _)| *k == j)
            .map(|(_, r)| *r)
            .unwrap_or(0.0)
    }
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
/// the module docs for the full contract). One instance per planning
/// thread; the simulator keeps one inside its per-round scratch so
/// steady-state scheduling allocates nothing.
///
/// The scratch carries **capacity only** — every buffer is cleared before
/// use, so a scratch can be shared freely across nodes, policies and
/// rounds without any cross-talk.
#[derive(Debug)]
pub struct SchedulerScratch<K = DhtId> {
    /// The per-supplier committed-time queue `τ(j)` of Algorithm 1, as a
    /// flat list (at most one entry per supplier in play).
    queue: Vec<(K, f64)>,
    /// Candidate-index ordering buffer (CoolStreaming's rarest-first sort,
    /// Random's shuffle).
    order: Vec<u32>,
    /// Feasible-supplier buffer for the Random policy's per-candidate
    /// draw.
    feasible: Vec<(K, f64)>,
    /// The mask form's per-supplier lanes `(1/R(j), τ(j))`, indexed like
    /// the context's supplier table.
    lanes: Vec<(f64, f64)>,
}

// Manual impl: the derive would needlessly demand `K: Default`.
impl<K> Default for SchedulerScratch<K> {
    fn default() -> Self {
        SchedulerScratch {
            queue: Vec::new(),
            order: Vec::new(),
            feasible: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

#[inline]
fn queue_get<K: SupplierKey>(queue: &[(K, f64)], j: K) -> f64 {
    queue
        .iter()
        .find(|(k, _)| *k == j)
        .map(|(_, t)| *t)
        .unwrap_or(0.0)
}

#[inline]
fn queue_set<K: SupplierKey>(queue: &mut Vec<(K, f64)>, j: K, t: f64) {
    match queue.iter_mut().find(|(k, _)| *k == j) {
        Some(slot) => slot.1 = t,
        None => queue.push((j, t)),
    }
}

/// Algorithm 1, writing into caller-owned buffers (cleared first; see the
/// module docs for the `_into` contract). `candidates` must already be
/// sorted in **descending priority** (ties broken by ascending id for
/// determinism — use [`sort_candidates`]).
pub fn schedule_greedy_into<K: SupplierKey>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    let budget = (candidates.len() as u32).min(ctx.inbound_budget) as usize;
    scratch.queue.clear();
    out.clear();
    // The loop bound min(m, I·τ) caps *scheduled segments*: a candidate
    // with no feasible supplier does not consume an inbound slot, the
    // scheduler simply moves on to the next-priority segment.
    for cand in candidates.iter() {
        if out.len() >= budget {
            break;
        }
        let mut t_min = f64::INFINITY;
        let mut chosen: Option<K> = None;
        for &j in &cand.suppliers {
            let rate = ctx.rate(j);
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

/// Algorithm 1 in mask form (see the module docs): the same walk, choice
/// and tie-breaks as [`schedule_greedy_into`] — bit-identical assignments
/// — with bit `k` of a candidate's mask standing for
/// `ctx.supplier_rates[k]`. Suppliers are tried by ascending bit, so the
/// table must be in ascending-key order, and must hold at most 64 entries
/// covering every set bit. `candidates` must already be in scheduling
/// order ([`sort_mask_candidates`]).
pub fn schedule_greedy_masks_into<K: SupplierKey>(
    candidates: &[MaskCandidate],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    assert!(
        ctx.supplier_rates.len() <= 64,
        "a supplier mask addresses at most 64 suppliers"
    );
    let budget = (candidates.len() as u32).min(ctx.inbound_budget) as usize;
    // An unusable rate becomes an infinite transfer time, which no
    // `eta < t_min` test passes: the keyed form's `rate <= 0` skip.
    scratch.lanes.clear();
    scratch
        .lanes
        .extend(ctx.supplier_rates.iter().map(|&(_, rate)| {
            let t_trans = if rate > 0.0 {
                1.0 / rate
            } else {
                f64::INFINITY
            };
            (t_trans, 0.0)
        }));
    out.clear();
    for cand in candidates {
        if out.len() >= budget {
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
/// first; see the module docs for the `_into` contract): candidates in
/// rarest-first order (fewest suppliers first, ties by ascending id),
/// supplier = highest-rate neighbour whose queue still fits the period.
pub fn schedule_coolstreaming_into<K: SupplierKey>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    scratch: &mut SchedulerScratch<K>,
    out: &mut Vec<Assignment<K>>,
) {
    scratch.order.clear();
    scratch.order.extend(0..candidates.len() as u32);
    let critical = |c: &SegmentCandidate<K>| ctx.deadline_cutoff.is_some_and(|cut| c.id < cut);
    // Unstable sort: the id tie-break makes the comparator total over
    // distinct-id candidates, so the result matches a stable sort.
    scratch.order.sort_unstable_by(|&ia, &ib| {
        let (a, b) = (&candidates[ia as usize], &candidates[ib as usize]);
        // Deadline-critical segments first (earliest deadline first),
        // rarest-first among the rest.
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
            let rate = ctx.rate(j);
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
                // CoolStreaming's wire protocol carries no urgency; the
                // supplier serves rarest-first order by arrival. We use
                // the inverse supplier count so contention resolution
                // stays rarest-first at the supplier too.
                priority: 1.0 / cand.suppliers.len().max(1) as f64,
            });
        }
    }
}

/// Naive gossip, writing into caller-owned buffers (cleared first; see
/// the module docs for the `_into` contract): shuffle the candidates,
/// pick a random feasible supplier for each.
///
/// Callers must hand over `candidates` in a deterministic order (the
/// simulator builds them in ascending segment order) — the shuffle
/// permutes an index buffer of that length and the feasible list is built
/// in supplier order, so the result and the draws consumed are a pure
/// function of the RNG state, and runs reproduce.
pub fn schedule_random_into<K: SupplierKey>(
    candidates: &[SegmentCandidate<K>],
    ctx: &ScheduleContext<K>,
    rng: &mut SimRng,
    scratch: &mut SchedulerScratch<K>,
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
            let rate = ctx.rate(j);
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
    fn fresh<K: SupplierKey>(
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
        // the same assignments (modulo key mapping) — the simulator
        // relies on this when scheduling over arena handles.
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

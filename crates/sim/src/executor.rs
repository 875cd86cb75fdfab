//! The workspace's one fork-join primitive.
//!
//! Every data-parallel step in the reproduction — the twin's per-node
//! emit/fold, the experiment harness's run sweeps (a simulated round
//! itself is one thread) — has the same shape: cut the work into shards
//! whose *boundaries depend only on the input*, run the shards
//! concurrently, merge in shard order. [`fork_join`] is that shape and
//! the only thread fan-out in the workspace; determinism is the
//! caller's half of the contract (shards must not race on anything the
//! merge reads) and positional merging is this module's.

/// Run `f(shard_index, shard)` for every shard and return once all have
/// finished. The first shard runs on the caller's thread, every further
/// shard on its own scoped thread — so a single shard runs inline with no
/// spawn and no allocation (serial is the one-shard case, not a second
/// code path), and an empty iterator is a no-op.
///
/// Shards carry their own outputs (`&mut` slices, per-shard scratch), so
/// results land where the caller put them regardless of scheduling. A
/// panic in any shard propagates to the caller after every shard joined.
pub fn fork_join<S, F>(shards: impl IntoIterator<Item = S>, f: F)
where
    S: Send,
    F: Fn(usize, S) + Sync,
{
    let mut shards = shards.into_iter();
    let Some(first) = shards.next() else {
        return;
    };
    let Some(second) = shards.next() else {
        return f(0, first);
    };
    let f = &f;
    std::thread::scope(|scope| {
        for (i, shard) in std::iter::once(second).chain(shards).enumerate() {
            scope.spawn(move || f(i + 1, shard));
        }
        f(0, first);
    });
}

/// Apply `f` to every item, fanning the index range out over at most
/// `workers` contiguous shards, and return the results in item order.
/// `f` receives the item's global index. Shard boundaries depend only on
/// `(items.len(), workers)` — never on timing — and the per-shard results
/// are concatenated in shard order, so the output is positionally
/// identical at every worker count.
pub fn fan_out<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    let mut parts: Vec<Vec<R>> = items
        .chunks(chunk)
        .map(|shard| Vec::with_capacity(shard.len()))
        .collect();
    fork_join(
        parts.iter_mut().zip(items.chunks(chunk)),
        |s, (out, shard)| {
            let offset = s * chunk;
            out.extend(shard.iter().enumerate().map(|(i, t)| f(offset + i, t)));
        },
    );
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve(items.len() - out.len());
    out.extend(parts.flatten());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn single_shard_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let mut seen = None;
        fork_join([&mut seen], |i, slot| {
            *slot = Some((i, thread::current().id()));
        });
        assert_eq!(seen, Some((0, caller)));
    }

    #[test]
    fn first_shard_stays_on_the_caller_and_the_rest_fork() {
        let caller = thread::current().id();
        let mut ids = [None; 3];
        fork_join(ids.iter_mut(), |_, slot| {
            *slot = Some(thread::current().id());
        });
        assert_eq!(ids[0], Some(caller));
        assert!(ids[1..]
            .iter()
            .all(|id| id.is_some() && *id != Some(caller)));
    }

    #[test]
    fn empty_shard_iterator_is_a_noop() {
        let calls = AtomicUsize::new(0);
        fork_join(std::iter::empty::<()>(), |_, ()| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn side_effects_are_positionally_identical_at_every_shard_count() {
        let items: Vec<u64> = (0..2000).collect();
        let run = |shards: usize| {
            let chunk = items.len().div_ceil(shards);
            let mut out = vec![0u64; items.len()];
            fork_join(
                out.chunks_mut(chunk).zip(items.chunks(chunk)),
                |s, (out, shard)| {
                    for (i, (o, &x)) in out.iter_mut().zip(shard).enumerate() {
                        *o = x * x + (s * chunk + i) as u64;
                    }
                },
            );
            out
        };
        let one = run(1);
        for shards in [2, 3, 8, 2000] {
            assert_eq!(one, run(shards), "{shards} shards diverged");
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_shard_propagates() {
        fork_join(0..4u32, |_, k| assert_ne!(k, 2, "shard 2 fails"));
    }

    #[test]
    fn all_worker_counts_agree_positionally() {
        let items: Vec<u64> = (0..1013).collect();
        let serial = fan_out(1, &items, |i, &x| (i as u64) * 31 + x * x);
        for workers in [2, 3, 4, 8, 16, 2000] {
            let par = fan_out(workers, &items, |i, &x| (i as u64) * 31 + x * x);
            assert_eq!(serial, par, "{workers} workers diverged");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(fan_out(4, &empty, |_, &x| x).is_empty());
        assert_eq!(fan_out(4, &[9u32], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn indices_are_global() {
        let items = vec![(); 37];
        let idxs = fan_out(5, &items, |i, _| i);
        assert_eq!(idxs, (0..37).collect::<Vec<_>>());
    }
}

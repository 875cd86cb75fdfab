//! The workspace's one fork-join primitive.
//!
//! Its one caller is the experiment harness's run sweep
//! (`cs_bench::run_many`); a simulated round and the twin's exchange each
//! run on one thread. Any data-parallel step must take one shape: cut the
//! work into shards whose *boundaries depend only on the input*, run the
//! shards concurrently, merge in shard order. [`fork_join`] is that shape
//! and the only thread fan-out in the workspace; determinism is the
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
}

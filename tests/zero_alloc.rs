//! Steady-state zero-allocation guarantee for the round loop.
//!
//! The PR-1/PR-2 arena work moved node state and round scratch into
//! persistent buffers; the `_into` scheduler variants, the flat
//! request arena, the sorted-Vec backup store and the scratch-based
//! retrieval path finish the job. This test pins the result with a
//! counting global allocator: once a static run has warmed up (buffers,
//! queues and scratch at their high-water capacities), stepping further
//! rounds — source emission, neighbour maintenance, buffer-map exchange,
//! scheduling, supplier service, pre-fetch checks, playback, GC and the
//! telemetry row every round records — must perform **zero heap
//! allocations**. Not "few": zero, for every measured round and for all
//! three scheduling policies.
//!
//! The same allocator also keeps the live heap in bytes, which gates the
//! per-node footprint: a 2000-node run must stay under a ceiling, so a
//! per-node table that grows back fails here.
//!
//! The counters are global, so the measured sections are serialised with
//! a mutex (the test harness runs tests in this binary concurrently). The
//! file is its own test binary, so the `#[global_allocator]` swap does
//! not affect any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use continustreaming::prelude::*;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated, whether or not counting is on.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`], raised after every grow; a test resets
/// it to the current [`LIVE`] before the section it measures.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Add `size` bytes to [`LIVE`] and raise [`PEAK`] to the new total.
fn grow_live(size: usize) {
    let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Serialises measured sections: the counter is process-global and the
/// harness runs the tests below on separate threads.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Take [`MEASURE_LOCK`], poisoned or not: the mutex guards no data, and
/// a test that failed while holding it must not turn every later test
/// into a `PoisonError` that hides which assertion was the real one.
fn measure_lock() -> MutexGuard<'static, ()> {
    MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        grow_live(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        grow_live(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation as far as the zero-alloc
        // guarantee is concerned.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        grow_live(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are not counted: dropping a value that was allocated
        // during warm-up is fine. They do leave the live heap.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn steady_state_config(scheduler: SchedulerKind, rounds: u32) -> SystemConfig {
    SystemConfig {
        nodes: 300,
        rounds,
        scheduler,
        seed: 20080414,
        // Faults-off invisibility canary: the explicit all-zero fault
        // plan must leave the fault plane a dead branch — every
        // zero-alloc guarantee in this file is measured with it armed
        // this way, so a fault-plane allocation (or draw) on the
        // disabled path fails the suite.
        faults: FaultPlan::default(),
        ..SystemConfig::default()
    }
}

/// The headline guarantee: a warmed-up ContinuStreaming round — schedule
/// (`_into` path), supplier service (flat request arena), urgent-line
/// pre-fetch checks, playback — allocates nothing, round after round.
#[test]
fn steady_state_rounds_allocate_nothing() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(steady_state_config(SchedulerKind::ContinuStreaming, 100));
    // Warm up past startup buffering and past every buffer/queue/scratch
    // high-water mark (the first rounds grow capacities; growth stops
    // once the workload shape repeats).
    for _ in 0..60 {
        assert!(sim.step());
    }
    for round in 60..95 {
        let n = count_allocs(|| assert!(sim.step()));
        assert_eq!(
            n, 0,
            "round {round}: steady-state round loop must not allocate ({n} allocations)"
        );
    }
}

/// Same guarantee for the CoolStreaming baseline (exercises the
/// `schedule_coolstreaming_masks_into` ordering buffer instead of greedy's).
#[test]
fn coolstreaming_steady_state_allocates_nothing() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(steady_state_config(SchedulerKind::CoolStreaming, 100));
    for _ in 0..60 {
        assert!(sim.step());
    }
    for round in 60..80 {
        let n = count_allocs(|| assert!(sim.step()));
        assert_eq!(n, 0, "round {round}: CoolStreaming must not allocate");
    }
}

/// And for the Random scheduler (exercises `schedule_random_masks_into`'s
/// shuffle/feasible buffers plus its RNG draws).
#[test]
fn random_scheduler_steady_state_allocates_nothing() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(steady_state_config(SchedulerKind::Random, 100));
    for _ in 0..60 {
        assert!(sim.step());
    }
    for round in 60..80 {
        let n = count_allocs(|| assert!(sim.step()));
        assert_eq!(n, 0, "round {round}: Random scheduler must not allocate");
    }
}

/// The adaptive policy layer runs inside the same zero-alloc round: the
/// occupancy probe, the rarity bonus, the deficit-scaled cap and the
/// widened-window scratch (pre-sized to the policy's *maximum*
/// lookahead) must all work out of the persistent buffers. Warm-up
/// covers the startup phase, where deficits push the fetch cap — and
/// with it the per-node `missed` buffers — to their high-water marks.
#[test]
fn adaptive_policy_steady_state_allocates_nothing() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(SystemConfig {
        policy: PolicyKind::adaptive(),
        ..steady_state_config(SchedulerKind::ContinuStreaming, 100)
    });
    for _ in 0..60 {
        assert!(sim.step());
    }
    for round in 60..95 {
        let n = count_allocs(|| assert!(sim.step()));
        assert_eq!(
            n, 0,
            "round {round}: a warmed-up Adaptive round must not allocate ({n})"
        );
    }
}

/// The fully armed observability layer preserves the guarantee:
/// profiler spans (fixed per-phase histograms, one `Instant` per
/// boundary), the distribution histograms (fixed-bucket, SoA per-node
/// state grown amortised during warm-up) and the event ring
/// (pre-allocated, overwrite-oldest) all work out of fixed storage
/// once warm. Measurement starts after the distribution window opens,
/// so every measured round records continuity / runway / supplier-load
/// samples through the armed path.
#[test]
fn obs_armed_steady_state_allocates_nothing() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(steady_state_config(SchedulerKind::ContinuStreaming, 100));
    sim.enable_obs(ObsConfig::default());
    for _ in 0..70 {
        assert!(sim.step());
    }
    // With 100 rounds the window opens at 100 - ceil(100/3) = 66: the
    // measured rounds below all run with distribution recording live.
    assert!(
        sim.obs().expect("obs armed").dist_active(70),
        "distribution window must be open before measurement starts"
    );
    for round in 70..95 {
        let n = count_allocs(|| assert!(sim.step()));
        assert_eq!(
            n, 0,
            "round {round}: armed obs layer must not allocate ({n} allocations)"
        );
    }
}

/// Control experiment: the counter itself works — building a simulator
/// obviously allocates.
#[test]
fn counter_detects_allocations() {
    let _guard = measure_lock();
    let n = count_allocs(|| {
        let sim = SystemSim::new(steady_state_config(SchedulerKind::ContinuStreaming, 4));
        assert!(sim.alive() > 0);
    });
    assert!(n > 0, "constructing a simulator must allocate");
}

/// The scenario-driver path — the public `step()` API, recording its
/// telemetry row like every round — is the same zero-alloc round loop.
/// This is the acceptance guarantee for the `cs-scenario` layer: the
/// diagnostics sit in storage sized when the simulator was built.
#[test]
fn public_step_api_allocates_nothing_when_warm() {
    let _guard = measure_lock();
    let mut sim = SystemSim::new(steady_state_config(SchedulerKind::ContinuStreaming, 100));
    for _ in 0..60 {
        assert!(sim.step());
    }
    for round in 60..95 {
        let n = count_allocs(|| {
            sim.step();
        });
        assert_eq!(n, 0, "round {round}: a warm step() must not allocate ({n})");
    }
}

/// Ceiling on the live heap of the 2000-node run below, in bytes.
///
/// The run peaks at 4 263 280 bytes when this test runs alone (x86_64
/// Linux; a sum of allocation sizes, not a timing, so it repeats
/// exactly; with the whole file it reads ~1 kB more). Per node that holds a
/// 60-byte pre-fetch tag set of 15 `u32` tags (8-byte tags were 120, a
/// `HashMap` would be 2 192), a 320-byte overheard list and a 200-byte
/// partner table of five 40-byte rows that carry the Rate Controller's
/// estimate and period counts (a separate 192-byte rate table beside a
/// 120-byte partner table, with its 24-byte header inline in the node,
/// was 136 bytes more) — every peer held by its 8-byte id (with a
/// cached arena slot beside it the partner, overheard and rate tables
/// were 264 bytes larger), 24 bytes per DHT level (an `Option` per
/// level is 32) and a 24-byte telemetry startup sample; the telemetry's
/// 40 round rows add 7 360 (55 360 in all). The round's pull requests
/// sit in one 24-byte-a-request arena that step 6 sorts through 4-byte
/// indices (a 32-byte copy beside 32-byte requests peaked 1 139 368
/// bytes higher). The ceiling sits 10 % above the peak: the tag map
/// coming back (~+4.2 MB) crosses it, and so do the request copy and
/// the cached slot (+528 000); a rate table beside the partner table
/// again (+272 000), the levels' `Option` tag alone (+192 000 over 12
/// levels) and 8-byte tags (+120 000) would not. After an intended
/// change, run this test with `-- --nocapture`, read the printed peak
/// and set the ceiling ~10 % above it.
const LIVE_HEAP_CEILING: usize = 4_760_000;

/// The per-node footprint gate: a 2000-node static Legacy run, stepped
/// 40 rounds, must keep its live heap under [`LIVE_HEAP_CEILING`] after
/// construction and after every round. The counter sees every byte the
/// process holds, so the test measures growth over the heap already
/// live when it took the lock.
#[test]
fn live_heap_stays_under_ceiling() {
    let _guard = measure_lock();
    let base = LIVE.load(Ordering::SeqCst);
    let live = || LIVE.load(Ordering::SeqCst).saturating_sub(base);
    let mut sim = SystemSim::new(SystemConfig {
        nodes: 2000,
        rounds: 40,
        seed: 20080414,
        ..SystemConfig::default()
    });
    let mut peak = live();
    for _ in 0..40 {
        assert!(sim.step());
        peak = peak.max(live());
    }
    eprintln!("live heap peak: {peak} bytes");
    assert!(
        peak <= LIVE_HEAP_CEILING,
        "live heap peaked at {peak} bytes, over the {LIVE_HEAP_CEILING}-byte ceiling"
    );
}

/// Ceiling on the heap high-water mark of `SystemSim::new` for the
/// churn run below, in bytes.
///
/// Construction peaks at 1 094 568 bytes (x86_64 Linux; a sum of
/// allocation sizes, so it repeats exactly). 80 128 of it is the
/// joiner ping pool, drawn as 10 016 bare pings. Built as a whole
/// trace of 10 016 nodes (records, preferential-attachment edges, an
/// edge set and adjacency lists) and then reduced to its pings, the
/// pool peaked the setup at 2 385 704 bytes (with 8-byte pre-fetch
/// tags); the ceiling sits 10 % above the current peak, so a pool that
/// becomes a topology again fails here. After an intended change, run
/// this test with `-- --nocapture`, read the printed peak and set the
/// ceiling ~10 % above it.
const SETUP_PEAK_CEILING: usize = 1_210_000;

/// The setup footprint gate: building a 200-node, 1000-round run under
/// the paper's 5 % + 5 % churn (10 000 expected joins, so a
/// 10 016-entry joiner ping pool) must keep the heap's high-water mark
/// under [`SETUP_PEAK_CEILING`].
#[test]
fn setup_peak_heap_stays_under_ceiling() {
    let _guard = measure_lock();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let sim = SystemSim::new(
        SystemConfig {
            nodes: 200,
            rounds: 1000,
            seed: 20080414,
            ..SystemConfig::default()
        }
        .with_dynamic_churn(),
    );
    let peak = PEAK.load(Ordering::SeqCst) - base;
    drop(sim);
    eprintln!("setup heap peak: {peak} bytes");
    assert!(
        peak <= SETUP_PEAK_CEILING,
        "SystemSim::new peaked at {peak} bytes, over the {SETUP_PEAK_CEILING}-byte ceiling"
    );
}

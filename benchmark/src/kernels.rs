//! Layer kernels: one public hot function of each layer, timed on its
//! own on inputs generated from the seed at the workload's node count.
//!
//! They run once, in the traced run. A kernel that speeds up without
//! its workload's end-to-end metric moving is exactly the case the
//! per-layer metrics exist to expose.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use continustreaming::core::scheduler::{
    schedule_coolstreaming_into, schedule_greedy_into, schedule_random_into, sort_candidates,
};
use continustreaming::core::{
    retrieval::retrieve_one_into, Assignment, RetrievalScratch, ScheduleContext, SchedulerScratch,
    SegmentCandidate, StreamBuffer, TwinAnnounce,
};
use continustreaming::dht::{route_into, DhtId, DhtNetwork, IdSpace, RouteScratch, RouteStatus};
use continustreaming::net::LinkCatalog;
use continustreaming::sim::{RngTree, SimDuration, SimRng, SimTime};
use continustreaming::trace::{TraceGenConfig, TraceGenerator};
use continustreaming::twin::{InProcTransport, MsgBody, Transport, WireMsg};
use rand::Rng;

use crate::spans::Spans;
use crate::specs::Scale;

/// Paper defaults the kernels are sized by (`SystemConfig::default`).
const BUFFER_SEGMENTS: u64 = 600;
const NEIGHBORS: u64 = 5;
const REPLICAS: u32 = 4;

/// Pairwise latency oracle for the DHT kernels: deterministic in the
/// pair, 20–83 ms like the generated traces' ping spread.
fn latency_ms(a: DhtId, b: DhtId) -> f64 {
    20.0 + ((a ^ b) % 64) as f64
}

/// Nanoseconds per operation of `ops` calls of `f`, recorded as one
/// span.
fn per_op_ns(spans: &mut Spans, name: &'static str, ops: u64, mut f: impl FnMut(u64)) -> f64 {
    spans.enter(name);
    let t = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let ns = t.elapsed().as_nanos() as f64;
    spans.exit();
    ns / ops as f64
}

fn distinct_ids(n: usize, space: IdSpace, rng: &mut SimRng) -> Vec<DhtId> {
    let mut used = std::collections::HashSet::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(0..space.size());
        if used.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// A buffer holding roughly `fill` of the window `[1, 600]`.
fn buffer_with_holes(fill: f64, rng: &mut SimRng) -> StreamBuffer {
    let mut buf = StreamBuffer::new(BUFFER_SEGMENTS);
    for id in 1..=BUFFER_SEGMENTS {
        if rng.gen_bool(fill) {
            buf.insert(id);
        }
    }
    buf
}

fn schedule_inputs(rng: &mut SimRng) -> (Vec<SegmentCandidate<u64>>, ScheduleContext<u64>) {
    let suppliers: Vec<u64> = (0..NEIGHBORS).collect();
    let mut candidates: Vec<SegmentCandidate<u64>> = (0..50u64)
        .map(|i| SegmentCandidate {
            id: 100 + i,
            priority: rng.gen::<f64>(),
            suppliers: suppliers
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.6))
                .collect(),
        })
        .collect();
    sort_candidates(&mut candidates);
    let ctx = ScheduleContext {
        inbound_budget: 15,
        period_secs: 1.0,
        supplier_rates: suppliers.iter().map(|&s| (s, 3.0 + s as f64)).collect(),
        deadline_cutoff: Some(105),
    };
    (candidates, ctx)
}

/// Run every kernel once; returns `(metric name, value)` pairs.
pub fn run(nodes: usize, scale: Scale, seed: u64, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    // Smoke keeps every code path and a hundredth of the iterations.
    let ops = |full: u64| match scale {
        Scale::Full => full,
        Scale::Smoke => (full / 100).max(100),
    };
    let tree = RngTree::new(seed);
    let mut out = Vec::new();
    spans.enter("kernels");

    // cs-trace: the overlay trace every SystemSim::new starts from.
    let mut rng = tree.child("trace");
    spans.enter("trace.generate");
    let t = Instant::now();
    let topo = TraceGenerator::new(TraceGenConfig::with_nodes(nodes)).generate(&mut rng);
    out.push(("trace.generate_s", t.elapsed().as_secs_f64()));
    spans.exit();
    out.push(("trace.edges", topo.edge_count() as f64));
    drop(topo);

    // cs-dht: build, greedy lookups with overhearing, join + leave.
    let space = IdSpace::for_capacity(2 * nodes as u64);
    let mut rng = tree.child("dht");
    let ids = distinct_ids(nodes, space, &mut rng);
    spans.enter("dht.build");
    let t = Instant::now();
    let mut net = DhtNetwork::build(space, &ids, &latency_ms, &mut rng);
    out.push(("dht.build_s", t.elapsed().as_secs_f64()));
    spans.exit();

    let lookups = ops(100_000);
    let (mut hops, mut correct) = (0u64, 0u64);
    let mut scratch = RouteScratch::default();
    let mut path = Vec::new();
    let route_ns = per_op_ns(spans, "dht.route", lookups, |_| {
        let src = net.random_id(&mut rng).expect("non-empty network");
        let key = rng.gen_range(0..space.size());
        let s = route_into(
            &mut net,
            src,
            key,
            &latency_ms,
            true,
            &mut scratch,
            &mut path,
        );
        hops += path.len() as u64 - 1;
        correct += u64::from(s.status == RouteStatus::Correct);
    });
    out.push(("dht.route_ns", route_ns));
    out.push(("dht.route_hops_mean", hops as f64 / lookups as f64));
    out.push(("dht.route_success_ratio", correct as f64 / lookups as f64));

    let churn_ns = per_op_ns(spans, "dht.churn", ops(2_000), |_| {
        let victim = net.random_id(&mut rng).expect("non-empty network");
        net.leave(victim);
        loop {
            let id = rng.gen_range(0..space.size());
            if net.join(id, &latency_ms, &mut rng).is_ok() {
                break;
            }
        }
    });
    out.push(("dht.churn_op_us", churn_ns / 1e3));

    // cs-core, Algorithm 2: locate k replicas, pick a supplier. Half
    // the nodes hold any given backup; nobody is saturated.
    let mut rscratch = RetrievalScratch::default();
    let has_backup = |node: DhtId, seg: u64| (node ^ seg) & 1 == 0;
    let rate = |_: DhtId| 5.0;
    let retrieve_ns = per_op_ns(spans, "core.retrieve_one", ops(20_000), |i| {
        let requester = net.random_id(&mut rng).expect("non-empty network");
        let s = retrieve_one_into(
            &mut net,
            requester,
            1 + i,
            &latency_ms,
            &has_backup,
            &rate,
            REPLICAS,
            10.0,
            &mut rscratch,
        );
        black_box(s);
    });
    out.push(("core.retrieve_one_ns", retrieve_ns));
    drop(net);

    // cs-core, the 600-segment buffer: the inner loop of scheduling.
    let mut rng = tree.child("buffer");
    let local = buffer_with_holes(0.5, &mut rng);
    let remote = buffer_with_holes(0.7, &mut rng).to_map();
    let mut acc = 0u64;
    out.push((
        "core.buffer.has_range_ns",
        per_op_ns(spans, "core.buffer.has_range", ops(2_000_000), |i| {
            acc += u64::from(local.has_range(black_box(1 + i % 590), 10));
        }),
    ));
    out.push((
        "core.buffer.fresh_for_ns",
        per_op_ns(spans, "core.buffer.fresh_for", ops(200_000), |i| {
            let lo = 1 + i % 300;
            acc += remote.fresh_for(&local, black_box(lo), lo + 150).count() as u64;
        }),
    ));
    let mut sliding = StreamBuffer::new(BUFFER_SEGMENTS);
    out.push((
        "core.buffer.insert_slide_ns",
        per_op_ns(spans, "core.buffer.insert_slide", ops(2_000_000), |i| {
            acc += u64::from(sliding.insert(black_box(1 + i)));
        }),
    ));
    black_box(acc);

    // cs-core, the three schedulers on a 50-candidate, 5-supplier set.
    let mut rng = tree.child("sched");
    let (cands, ctx) = schedule_inputs(&mut rng);
    let mut sscratch: SchedulerScratch<u64> = SchedulerScratch::default();
    let mut assigned: Vec<Assignment<u64>> = Vec::new();
    let sched_ops = ops(100_000);
    out.push((
        "core.sched.greedy_ns",
        per_op_ns(spans, "core.sched.greedy", sched_ops, |_| {
            schedule_greedy_into(black_box(&cands), &ctx, &mut sscratch, &mut assigned);
            black_box(assigned.len());
        }),
    ));
    out.push((
        "core.sched.coolstreaming_ns",
        per_op_ns(spans, "core.sched.coolstreaming", sched_ops, |_| {
            schedule_coolstreaming_into(black_box(&cands), &ctx, &mut sscratch, &mut assigned);
            black_box(assigned.len());
        }),
    ));
    out.push((
        "core.sched.random_ns",
        per_op_ns(spans, "core.sched.random", sched_ops, |_| {
            schedule_random_into(
                black_box(&cands),
                &ctx,
                &mut rng,
                &mut sscratch,
                &mut assigned,
            );
            black_box(assigned.len());
        }),
    ));

    // cs-net: per-pair link lookup with jitter (the hashed path).
    let links = LinkCatalog::jittered(
        SimDuration::from_millis(50),
        SimDuration::from_millis(30),
        seed,
    );
    let n = nodes as u64;
    let mut micros = 0u64;
    out.push((
        "net.link_latency_ns",
        per_op_ns(spans, "net.link_latency", ops(2_000_000), |i| {
            micros += links
                .spec(black_box(i % n), (i * 7 + 1) % n)
                .latency
                .as_micros();
        }),
    ));
    black_box(micros);

    // cs-twin: send + poll of synthetic announcements, in round-sized
    // batches so the delay queue holds what a 1000-node round does.
    let mut transport =
        InProcTransport::new(LinkCatalog::uniform(SimDuration::from_millis(50)), seed);
    let announce = Arc::new(TwinAnnounce {
        birth: 1,
        epoch: 1,
        head: 1,
        capacity: BUFFER_SEGMENTS,
        words: vec![u64::MAX; BUFFER_SEGMENTS.div_ceil(64) as usize],
        is_empty: false,
    });
    let envelopes = ops(1_000_000);
    let batch = 1000 * (NEIGHBORS + 1);
    let mut delivered = 0u64;
    let envelope_ns = per_op_ns(spans, "twin.envelope", envelopes.div_ceil(batch), |round| {
        let now = SimTime::ZERO + SimDuration::from_millis(1000 * round);
        for k in 0..batch {
            transport.send(
                now,
                WireMsg {
                    src: k % n,
                    dst: (k * 13 + round) % n,
                    round: round as u32,
                    body: MsgBody::Announce(Arc::clone(&announce)),
                },
            );
        }
        let deadline = now + SimDuration::from_millis(1000);
        while let Some(env) = transport.poll(deadline) {
            delivered += 1;
            black_box(env);
        }
    }) / batch as f64;
    assert_eq!(
        delivered,
        envelopes.div_ceil(batch) * batch,
        "a loss-free transport delivers every envelope inside its round"
    );
    out.push(("twin.envelope_ns", envelope_ns));

    spans.exit();
    out
}

//! Drive the loose DHT directly: build a sparse overlay in an 8192-slot
//! ID space, route lookups, watch the hop counts against the paper's
//! appendix bound, place segment backups, and exercise the node arena
//! under churn: peers are held by id, so the entries of departed nodes
//! are repaired lazily, and joiners reuse the freed slots. Asserts its
//! claims, so CI runs it as a smoke test rather than merely compiling it.
//!
//! ```text
//! cargo run --release --example dht_lookup
//! ```

use continustreaming::dht::{backup_targets, route, DhtNetwork};
use continustreaming::prelude::*;
use cs_bench::fingerprint::dht::latency;
use rand::Rng;

fn main() {
    let space = IdSpace::new(13); // N = 8192
    let n = 1200;
    let tree = RngTree::new(2008);
    let mut rng = tree.child("build");

    // Random distinct node IDs, as the RP server would assign.
    let mut used = std::collections::HashSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(0..space.size());
        if used.insert(id) {
            ids.push(id);
        }
    }
    let mut net = DhtNetwork::build(space, &ids, &latency, &mut rng);
    println!(
        "built a loose DHT: {} nodes in an ID space of {} ({} arena slots)",
        net.len(),
        space.size(),
        net.slot_count()
    );
    assert_eq!(net.len(), n);
    assert_eq!(net.slot_count(), n, "build allocates exactly n slots");
    net.check_invariants().expect("fresh network is consistent");

    // Route a few lookups.
    let mut lrng = tree.child("lookups");
    let bound = continustreaming::analysis::routing_hop_upper_bound(space.bits());
    println!("\nlookups (appendix hop bound = {bound:.1}):");
    for _ in 0..8 {
        let src = net.random_id(&mut lrng).expect("non-empty network");
        let key = lrng.gen_range(0..space.size());
        let out = route(&mut net, src, key, &latency, true);
        println!(
            "  {src:>4} → key {key:>4}: {} hops, {:.0} ms, {}",
            out.hops(),
            out.latency_ms,
            if out.succeeded() {
                "correct owner"
            } else {
                "WRONG owner"
            }
        );
        assert!(
            (out.hops() as f64) <= bound,
            "{} hops exceeds the appendix bound {bound}",
            out.hops()
        );
    }

    // Backup placement for a run of consecutive segments.
    println!("\nbackup targets (k = 4) for segments 100..105 — note the dispersion:");
    for seg in 100..105u64 {
        let targets = backup_targets(space, seg, 4);
        let owners: Vec<String> = targets
            .iter()
            .map(|&t| {
                net.responsible_of(t)
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!("  segment {seg}: ring positions {targets:?} → owners {owners:?}");
    }

    // Kill 10% of the nodes and show lazy repair keeping lookups alive.
    let victims: Vec<DhtId> = {
        let all: Vec<DhtId> = net.ids().collect();
        let mut vrng = tree.child("kill");
        all.into_iter().filter(|_| vrng.gen_bool(0.10)).collect()
    };
    for v in &victims {
        net.leave(*v);
    }
    assert_eq!(
        net.free_count(),
        victims.len(),
        "each leave vacates one arena slot"
    );
    let mut ok = 0;
    let trials = 400;
    let mut repaired = 0;
    for _ in 0..trials {
        let src = net.random_id(&mut lrng).expect("non-empty");
        let key = lrng.gen_range(0..space.size());
        let out = route(&mut net, src, key, &latency, true);
        ok += u32::from(out.succeeded());
        repaired += out.repaired;
    }
    println!(
        "\nafter abruptly killing {} nodes: {}/{} lookups still correct ({} dead entries lazily repaired)",
        victims.len(),
        ok,
        trials,
        repaired
    );
    assert!(repaired > 0, "churn should trigger lazy repairs");
    assert!(
        ok as f64 / trials as f64 > 0.85,
        "success under churn too low: {ok}/{trials}"
    );

    // Rejoin as many nodes as left: the free list must absorb every one
    // without growing the arena.
    let slots_before = net.slot_count();
    let mut jrng = tree.child("rejoin");
    let mut joined = 0;
    while joined < victims.len() {
        let id = jrng.gen_range(0..space.size());
        if net.join(id, &latency, &mut jrng).is_ok() {
            joined += 1;
        }
    }
    assert_eq!(
        net.slot_count(),
        slots_before,
        "rejoins must reuse freed slots"
    );
    assert_eq!(net.free_count(), 0);
    net.check_invariants()
        .expect("post-churn network consistent");
    println!(
        "\nrejoined {} nodes into the freed slots: {} live / {} arena slots, invariants hold",
        joined,
        net.len(),
        net.slot_count()
    );
}

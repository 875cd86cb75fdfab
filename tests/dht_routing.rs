//! DHT routing regression suite: pinned greedy-route fingerprints.
//!
//! `cs-dht` names every peer by its `DhtId`; node state sits in a dense
//! slot arena that replaced an id-keyed `BTreeMap`. Every observable
//! routing decision must stay bit-identical to that map's: greedy
//! next-hop selection, id-ordered tie-breaks, lazy repair, overhearing
//! updates along the path, and the RNG streams consumed by
//! `build`/`join`. This suite pins all of it:
//!
//! * **hop sequences** — the exact `(src, key, path, status, repaired,
//!   latency)` tuples of lookup batches over several seeds;
//! * **table states** — every node's full level table (peer id, latency,
//!   age per level) after overhearing-enabled lookup batches;
//! * **churn routes** — paths and repair counts after abrupt failures
//!   and rejoins into reused arena slots (the `dht_churn_*` rows of
//!   `cs_bench::fingerprint::PINS`, which CI's release `fingerprint`
//!   step also gates);
//! * **slot blindness** — the same ids filed in different arena slots
//!   route and fill their tables identically.
//!
//! All pinned values were recorded from the pre-arena (`BTreeMap`-keyed)
//! implementation. The latency oracles below are exact in f64 (integer
//! xor/mod arithmetic, no libm), so the hashes are platform-independent.

use continustreaming::dht::{route, DhtId, DhtNetwork};
use continustreaming::prelude::*;
use cs_bench::fingerprint::dht::{
    build_net, churn, churn_batch, latency, route_batch, table_state, CHURN,
};
use cs_bench::fingerprint::{fnv1a, PINS};
use rand::Rng as _;

/// Pinned hop sequences, overhearing off: pure greedy forwarding with
/// id-ordered tie-breaks over three network seeds.
#[test]
fn pinned_hop_sequences() {
    let pinned: &[(usize, u32, u64, u64)] = &[
        (600, 13, 2, 0xa3d3f8871b0fae4e),
        (1000, 13, 5, 0x3de3a38d21749eda),
        (250, 11, 9, 0x65b25d0dab64c83e),
    ];
    for &(n, bits, seed, pin) in pinned {
        let mut net = build_net(n, bits, seed);
        let batch = route_batch(&mut net, seed, 400, false);
        let hash = fnv1a(batch.as_bytes());
        assert_eq!(
            hash, pin,
            "routing drift (n={n}, bits={bits}, seed={seed}): 0x{hash:016x} != pinned 0x{pin:016x}"
        );
    }
}

/// Pinned hop sequences *and* final table states, overhearing on: every
/// node a message passes files the earlier path nodes, so the fingerprint
/// covers the offer/replace logic along the whole path.
#[test]
fn pinned_overhearing_updates() {
    let pinned: &[(usize, u32, u64, u64, u64)] = &[
        (400, 12, 8, 0x8e1d559dfac71365, 0x50c8fed09ed1f508),
        (800, 13, 3, 0x384a8e0e883ee1a6, 0x20d909241668d6ed),
    ];
    for &(n, bits, seed, pin_routes, pin_tables) in pinned {
        let mut net = build_net(n, bits, seed);
        let batch = route_batch(&mut net, seed, 500, true);
        let routes = fnv1a(batch.as_bytes());
        let tables = fnv1a(table_state(&net).as_bytes());
        assert_eq!(
            routes, pin_routes,
            "overhearing route drift (n={n}, seed={seed}): 0x{routes:016x}"
        );
        assert_eq!(
            tables, pin_tables,
            "overhearing table drift (n={n}, seed={seed}): 0x{tables:016x}"
        );
        net.check_invariants().unwrap();
    }
}

/// Pinned routing under churn: abrupt failures leave dangling table
/// entries that lazy repair must drop in the exact same order; joins must
/// consume the same RNG stream and advertise to the same sample. The
/// pins are the `dht_churn_*` rows of `PINS`.
#[test]
fn pinned_churn_routing() {
    for (name, n, bits, seed) in CHURN {
        let (net, batch) = churn_batch(n, bits, seed);
        let routes = fnv1a(batch.as_bytes());
        let tables = fnv1a(table_state(&net).as_bytes());
        assert!(
            PINS.contains(&(name, routes, tables)),
            "churn drift in `{name}`: routes 0x{routes:016x} tables 0x{tables:016x}"
        );
        net.check_invariants().unwrap();
    }
}

/// Slot numbering is invisible: a network built from an id list and one
/// built from the same list reversed and rotated hold every id in a
/// different arena slot. After the same leaves and joins (departed ids
/// rejoin into whichever slot the free list hands out) both must route
/// the same paths and end with the same tables.
#[test]
fn behaviour_does_not_depend_on_slot_assignment() {
    for (_, n, bits, seed) in CHURN {
        let space = IdSpace::new(bits);
        let mut rng = RngTree::new(seed).child("slot-blind");
        let mut used = std::collections::HashSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        // `build` files `ids[i]` in slot `i`. With `n` even, the id at
        // position `j` moves to `(n - 3 - j) mod n`, never `j`.
        let mut permuted = ids.clone();
        permuted.reverse();
        permuted.rotate_left(2);
        let slot_in_permuted: std::collections::HashMap<DhtId, usize> = permuted
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        assert!(ids
            .iter()
            .enumerate()
            .all(|(i, id)| slot_in_permuted[id] != i));

        let run = |list: &[DhtId]| {
            let mut net = DhtNetwork::build(space, list, &latency, &mut rng.clone());
            let built = table_state(&net);
            churn(&mut net, seed);
            // Departed ids rejoin, each into a slot the free list picks.
            let mut jrng = RngTree::new(seed).child("slot-blind-rejoin");
            let departed: Vec<DhtId> = ids
                .iter()
                .copied()
                .filter(|&id| !net.contains(id))
                .collect();
            for &id in departed.iter().step_by(3) {
                net.join(id, &latency, &mut jrng).unwrap();
            }
            net.check_invariants().unwrap();
            let routes = route_batch(&mut net, seed ^ 0x5107, 400, true);
            (built, routes, table_state(&net))
        };
        let (built_a, routes_a, tables_a) = run(&ids);
        let (built_b, routes_b, tables_b) = run(&permuted);
        assert_eq!(built_a, built_b, "n={n}: built tables differ");
        assert_eq!(routes_a, routes_b, "n={n}: routes differ");
        assert_eq!(tables_a, tables_b, "n={n}: final tables differ");
    }
}

/// Ground-truth cross-checks that hold regardless of representation (they
/// guard the *meaning* of the pins above): every successful route ends at
/// the counter-clockwise closest live node, and every path node is live.
#[test]
fn routes_terminate_at_ground_truth_owner() {
    let mut net = build_net(500, 12, 6);
    let mut rng = RngTree::new(6).child("gt-lookups");
    for _ in 0..300 {
        let src = net.random_id(&mut rng).unwrap();
        let key = rng.gen_range(0..net.space().size());
        let out = route(&mut net, src, key, &latency, true);
        for p in &out.path {
            assert!(net.contains(*p), "dead node {p} on path");
        }
        if out.succeeded() {
            assert_eq!(net.responsible_of(key), Some(out.terminal()));
        }
    }
}

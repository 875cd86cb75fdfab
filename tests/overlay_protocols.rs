//! Integration tests of the §4.1 membership machinery across crates:
//! churn plans feeding the DHT's handover path, and the churn driver's
//! long-run rates. (The join protocol runs inside the simulator's
//! membership phase and is covered by the churn and scenario suites.)

use continustreaming::dht::DhtId;
use continustreaming::overlay::{plan_churn, ChurnConfig};
use continustreaming::prelude::*;

fn latency(a: DhtId, b: DhtId) -> f64 {
    1.0 + ((a ^ b) % 89) as f64
}

/// Churn plans compose with graceful DHT handover: every graceful leaver
/// has a live predecessor to inherit its backups.
#[test]
fn churn_plans_support_handover() {
    let space = IdSpace::new(12);
    let mut rng = RngTree::new(77).child("net");
    let mut used = std::collections::HashSet::new();
    let mut ids: Vec<DhtId> = Vec::new();
    while ids.len() < 200 {
        let id = rand::Rng::gen_range(&mut rng, 0..space.size());
        if used.insert(id) {
            ids.push(id);
        }
    }
    let mut net = continustreaming::dht::DhtNetwork::build(space, &ids, &latency, &mut rng);
    let mut order = ids.clone();
    order.sort_unstable();

    let mut crng = RngTree::new(77).child("churn");
    let source = order[0];
    for _ in 0..10 {
        let members: Vec<DhtId> = net.ids().collect();
        let plan = plan_churn(&ChurnConfig::DYNAMIC, &members, source, &mut crng);
        for &leaver in &plan.graceful_leaves {
            let heir = net.predecessor_of(leaver);
            assert!(heir.is_some(), "a >1-node ring always has a predecessor");
            assert_ne!(heir, Some(leaver));
            net.leave(leaver);
        }
        for &f in &plan.failures {
            net.leave(f);
        }
        assert!(net.contains(source), "the source never leaves");
    }
    net.check_invariants()
        .expect("tables stay level-consistent");
}

/// The churn driver's rates integrate correctly over a long horizon.
#[test]
fn churn_rates_integrate() {
    let members: Vec<DhtId> = (0..500).collect();
    let mut rng = RngTree::new(5).child("churn");
    let mut leavers = 0usize;
    let mut joins = 0usize;
    let rounds = 200;
    for _ in 0..rounds {
        let plan = plan_churn(&ChurnConfig::DYNAMIC, &members, 0, &mut rng);
        leavers += plan.leavers();
        joins += plan.joins;
    }
    let leave_rate = leavers as f64 / (rounds * 500) as f64;
    let join_rate = joins as f64 / (rounds * 500) as f64;
    assert!((leave_rate - 0.05).abs() < 0.01, "leave rate {leave_rate}");
    assert!((join_rate - 0.05).abs() < 0.01, "join rate {join_rate}");
}

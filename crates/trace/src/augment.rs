//! The paper's preprocessing step (§5.2): "Because the average node degree
//! is too small for media streaming, we add random edges into the overlay
//! to let every node hold M = 5 connected neighbors."
//!
//! Augmentation is deterministic given the RNG and guarantees minimum
//! degree `m` whenever that is achievable (`n > m`), while preserving all
//! original edges.

use rand::Rng;

use cs_sim::SimRng;

use crate::edgeset::EdgeSet;
use crate::topology::Topology;

/// Add random edges until every node has degree at least `m`.
///
/// Low-degree nodes are processed in index order; partners are drawn
/// uniformly, preferring other low-degree nodes first so the added edges
/// spread evenly instead of piling onto hubs.
///
/// All queries the partner search needs run against a flat degree array
/// and a flat `EdgeSet` (seeded from the topology in one linear pass),
/// and the new edges land in the topology in a single bulk append — the
/// same draws, the same graph, but none of the per-probe pointer chasing
/// into per-node adjacency allocations that made augmentation visibly
/// superlinear at 32k+ nodes.
///
/// # Panics
/// If `m >= n` (a simple graph cannot give every node degree `m`).
pub fn augment_to_min_degree(topo: &mut Topology, m: usize, rng: &mut SimRng) {
    let n = topo.len();
    if n <= 1 || m == 0 {
        return;
    }
    assert!(
        m < n,
        "cannot reach minimum degree {m} in a simple graph of {n} nodes"
    );

    let mut deg: Vec<u32> = (0..n).map(|v| topo.degree(v) as u32).collect();
    let deficit: usize = deg
        .iter()
        .map(|&d| m.saturating_sub(d as usize))
        .sum::<usize>()
        .div_ceil(2);
    let mut seen = EdgeSet::with_capacity(topo.edge_count() + deficit);
    for v in 0..n {
        for &w in topo.neighbors(v) {
            if v < w {
                seen.insert(v, w);
            }
        }
    }
    let mut new_edges: Vec<(usize, usize)> = Vec::with_capacity(deficit);

    for v in 0..n {
        // Re-check degree each iteration: earlier augmentations may have
        // already lifted v past the threshold.
        let mut guard = 0usize;
        while (deg[v] as usize) < m {
            guard += 1;
            assert!(
                guard < n * 20 + 1000,
                "augmentation failed to find a partner for node {v}; \
                 graph too small for degree {m}?"
            );
            // Prefer partners that are themselves below the threshold.
            let candidate = pick_partner(&deg, &seen, v, m, n, rng);
            let inserted = seen.insert(v, candidate);
            debug_assert!(inserted, "partner search returned an existing edge");
            deg[v] += 1;
            deg[candidate] += 1;
            new_edges.push((v, candidate));
        }
    }
    topo.add_edges_bulk(&new_edges);
}

fn pick_partner(
    deg: &[u32],
    seen: &EdgeSet,
    v: usize,
    m: usize,
    n: usize,
    rng: &mut SimRng,
) -> usize {
    // A bounded number of biased draws, then fall back to uniform draws
    // over all non-neighbours. Biasing keeps added edges between the
    // sparse fringe rather than attaching everything to well-connected
    // nodes — closer to what "random edges until M neighbours" does when
    // applied to a whole trace. The degree test runs first: it is a flat
    // read, and most failed draws fail on it, so the membership probe is
    // rarely reached (the accepted partner is identical either way).
    for _ in 0..16 {
        let c = rng.gen_range(0..n);
        if c != v && (deg[c] as usize) < m && !seen.contains(v, c) {
            return c;
        }
    }
    loop {
        let c = rng.gen_range(0..n);
        if c != v && !seen.contains(v, c) {
            return c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{TraceGenConfig, TraceGenerator};
    use crate::record::NodeRecord;
    use cs_sim::RngTree;
    use std::net::Ipv4Addr;

    fn edgeless(n: u32) -> Topology {
        let recs = (0..n)
            .map(|id| NodeRecord {
                id,
                ip: Ipv4Addr::new(10, 0, 0, id as u8),
                port: 6346,
                ping_ms: 50.0,
                speed_kbps: 1000,
            })
            .collect();
        Topology::new(recs).unwrap()
    }

    #[test]
    fn reaches_min_degree_from_empty() {
        let mut topo = edgeless(50);
        let mut rng = RngTree::new(1).child("augment");
        augment_to_min_degree(&mut topo, 5, &mut rng);
        assert!(topo.min_degree() >= 5);
    }

    #[test]
    fn preserves_existing_edges() {
        let mut topo = edgeless(30);
        topo.add_edge(0, 1).unwrap();
        topo.add_edge(2, 3).unwrap();
        let mut rng = RngTree::new(2).child("augment");
        augment_to_min_degree(&mut topo, 4, &mut rng);
        assert!(topo.has_edge(0, 1));
        assert!(topo.has_edge(2, 3));
        assert!(topo.min_degree() >= 4);
    }

    #[test]
    fn augmented_trace_is_mostly_connected() {
        // The paper streams over the augmented overlay; with min degree 5 a
        // random augmentation connects the graph with overwhelming
        // probability.
        let mut rng = RngTree::new(3).child("gen");
        let mut topo = TraceGenerator::new(TraceGenConfig::with_nodes(800)).generate(&mut rng);
        let mut arng = RngTree::new(3).child("augment");
        augment_to_min_degree(&mut topo, 5, &mut arng);
        assert!(topo.min_degree() >= 5);
        assert_eq!(topo.largest_component(), topo.len());
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut topo = edgeless(40);
            let mut rng = RngTree::new(seed).child("augment");
            augment_to_min_degree(&mut topo, 5, &mut rng);
            topo.edges()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn zero_m_is_noop() {
        let mut topo = edgeless(10);
        let mut rng = RngTree::new(1).child("a");
        augment_to_min_degree(&mut topo, 0, &mut rng);
        assert_eq!(topo.edge_count(), 0);
    }

    #[test]
    fn already_dense_is_noop() {
        let mut topo = edgeless(5);
        for a in 0..5 {
            for b in (a + 1)..5 {
                topo.add_edge(a, b).unwrap();
            }
        }
        let before = topo.edge_count();
        let mut rng = RngTree::new(1).child("a");
        augment_to_min_degree(&mut topo, 4, &mut rng);
        assert_eq!(topo.edge_count(), before);
    }

    #[test]
    #[should_panic(expected = "simple graph")]
    fn impossible_degree_panics() {
        let mut topo = edgeless(4);
        let mut rng = RngTree::new(1).child("a");
        augment_to_min_degree(&mut topo, 4, &mut rng);
    }

    #[test]
    fn tiny_graph_noop() {
        let mut topo = edgeless(1);
        let mut rng = RngTree::new(1).child("a");
        augment_to_min_degree(&mut topo, 5, &mut rng);
        assert_eq!(topo.edge_count(), 0);
    }
}

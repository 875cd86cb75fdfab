//! An overlay topology: node records plus undirected edges.
//!
//! Nodes are indexed densely (`0..n`) for cheap adjacency storage; the
//! trace-assigned `NodeRecord::id` is preserved separately so serialised
//! traces keep their original identifiers.

use std::collections::HashSet;

use crate::record::NodeRecord;

/// Errors constructing or mutating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two records carried the same trace ID.
    DuplicateNodeId(u32),
    /// An edge referenced a node index outside `0..n`.
    NodeOutOfRange(usize),
    /// An edge connected a node to itself.
    SelfLoop(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateNodeId(id) => write!(f, "duplicate node id {id} in trace"),
            TopologyError::NodeOutOfRange(i) => {
                write!(f, "edge references node index {i} out of range")
            }
            TopologyError::SelfLoop(i) => write!(f, "self-loop on node index {i}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected overlay topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    records: Vec<NodeRecord>,
    /// Adjacency lists by dense index; kept sorted for deterministic
    /// iteration and O(log d) membership checks.
    adjacency: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Topology {
    /// A topology over the given records with no edges yet.
    ///
    /// # Errors
    /// [`TopologyError::DuplicateNodeId`] if two records share an ID.
    pub fn new(records: Vec<NodeRecord>) -> Result<Self, TopologyError> {
        let mut seen = HashSet::with_capacity(records.len());
        for r in &records {
            if !seen.insert(r.id) {
                return Err(TopologyError::DuplicateNodeId(r.id));
            }
        }
        let n = records.len();
        Ok(Topology {
            records,
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Average node degree (`2·|E| / n`), the statistic the paper reports
    /// for its traces (less than 1 up to 3.5).
    pub fn average_degree(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count as f64 / self.records.len() as f64
    }

    /// The record at dense index `i`.
    pub fn record(&self, i: usize) -> &NodeRecord {
        &self.records[i]
    }

    /// All records, in dense-index order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// The sorted adjacency list of node `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.adjacency.len() && self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Add the undirected edge `{a, b}`. Returns `true` if the edge was
    /// new, `false` if it already existed.
    ///
    /// # Errors
    /// [`TopologyError::NodeOutOfRange`] or [`TopologyError::SelfLoop`].
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<bool, TopologyError> {
        let n = self.records.len();
        if a >= n {
            return Err(TopologyError::NodeOutOfRange(a));
        }
        if b >= n {
            return Err(TopologyError::NodeOutOfRange(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        match self.adjacency[a].binary_search(&b) {
            Ok(_) => Ok(false),
            Err(pos_a) => {
                self.adjacency[a].insert(pos_a, b);
                let pos_b = self.adjacency[b]
                    .binary_search(&a)
                    .expect_err("asymmetric adjacency: edge present one way only");
                self.adjacency[b].insert(pos_b, a);
                self.edge_count += 1;
                Ok(true)
            }
        }
    }

    /// Append a batch of edges known to be valid (in range, no self
    /// loops) and **new** (not yet present, no duplicates within the
    /// batch) — the bulk path used by trace generation/augmentation,
    /// which already answered the membership questions through a flat
    /// [`crate::edgeset::EdgeSet`]. One pass reserves, one pass pushes,
    /// and each touched adjacency list is sorted once at the end, so
    /// the per-edge random-access cost of repeated `add_edge` calls
    /// (two pointer chases + two sorted inserts) disappears.
    ///
    /// The result is identical to adding the same edges one by one:
    /// adjacency lists stay sorted and deduplicated.
    pub(crate) fn add_edges_bulk(&mut self, edges: &[(usize, usize)]) {
        let n = self.records.len();
        for &(a, b) in edges {
            debug_assert!(a < n && b < n && a != b, "bulk edge ({a}, {b}) invalid");
            debug_assert!(!self.has_edge(a, b), "bulk edge ({a}, {b}) duplicate");
        }
        // Reserve exactly once per touched node.
        let mut extra: Vec<u32> = vec![0; n];
        for &(a, b) in edges {
            extra[a] += 1;
            extra[b] += 1;
        }
        for (v, &cnt) in extra.iter().enumerate() {
            if cnt > 0 {
                self.adjacency[v].reserve(cnt as usize);
            }
        }
        for &(a, b) in edges {
            self.adjacency[a].push(b);
            self.adjacency[b].push(a);
        }
        for (v, &cnt) in extra.iter().enumerate() {
            if cnt > 0 {
                self.adjacency[v].sort_unstable();
                debug_assert!(self.adjacency[v].windows(2).all(|w| w[0] < w[1]));
            }
        }
        self.edge_count += edges.len();
    }

    /// All undirected edges as `(a, b)` with `a < b`, in deterministic
    /// order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (a, nbrs) in self.adjacency.iter().enumerate() {
            for &b in nbrs {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Size of the largest connected component — used by tests to check
    /// that degree augmentation produces a usable streaming overlay.
    pub fn largest_component(&self) -> usize {
        let n = self.records.len();
        let mut seen = vec![false; n];
        let mut best = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut size = 0;
            stack.push(start);
            seen[start] = true;
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in &self.adjacency[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            best = best.max(size);
        }
        best
    }

    /// Minimum degree over all nodes (0 for an empty topology).
    pub fn min_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(id: u32) -> NodeRecord {
        NodeRecord {
            id,
            ip: Ipv4Addr::new(10, 0, (id >> 8) as u8, id as u8),
            port: 6346,
            ping_ms: 50.0,
            speed_kbps: 1000,
        }
    }

    fn topo(n: u32) -> Topology {
        Topology::new((0..n).map(rec).collect()).unwrap()
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = Topology::new(vec![rec(1), rec(1)]).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateNodeId(1));
    }

    #[test]
    fn edges_are_undirected_and_deduplicated() {
        let mut t = topo(4);
        assert!(t.add_edge(0, 1).unwrap());
        assert!(!t.add_edge(1, 0).unwrap(), "reverse edge is the same edge");
        assert_eq!(t.edge_count(), 1);
        assert!(t.has_edge(0, 1));
        assert!(t.has_edge(1, 0));
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(1), &[0]);
    }

    #[test]
    fn self_loop_and_range_errors() {
        let mut t = topo(2);
        assert_eq!(t.add_edge(0, 0).unwrap_err(), TopologyError::SelfLoop(0));
        assert_eq!(
            t.add_edge(0, 5).unwrap_err(),
            TopologyError::NodeOutOfRange(5)
        );
    }

    #[test]
    fn average_degree() {
        let mut t = topo(4);
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        t.add_edge(2, 3).unwrap();
        // 3 edges, 4 nodes → 2·3/4 = 1.5.
        assert_eq!(t.average_degree(), 1.5);
        assert_eq!(t.min_degree(), 1);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut t = topo(5);
        t.add_edge(2, 4).unwrap();
        t.add_edge(2, 0).unwrap();
        t.add_edge(2, 3).unwrap();
        assert_eq!(t.neighbors(2), &[0, 3, 4]);
    }

    #[test]
    fn components() {
        let mut t = topo(6);
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        t.add_edge(3, 4).unwrap();
        assert_eq!(t.largest_component(), 3);
        t.add_edge(2, 3).unwrap();
        assert_eq!(t.largest_component(), 5);
    }

    #[test]
    fn edges_listing_is_canonical() {
        let mut t = topo(4);
        t.add_edge(3, 1).unwrap();
        t.add_edge(0, 2).unwrap();
        assert_eq!(t.edges(), vec![(0, 2), (1, 3)]);
    }
}

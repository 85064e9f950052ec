//! Compressed Sparse Row graph representation.
//!
//! This is the storage format used by Galois, SuiteSparse and GaloisBLAS
//! alike (paper §III): an offsets array of length `n + 1`, a destination
//! array of length `m`, and an optional parallel array of edge weights.

/// Vertex identifier. 32 bits suffice for every graph in the study.
pub type NodeId = u32;

/// A directed graph (or the out-direction of an undirected graph) in CSR.
///
/// Construct via [`crate::builder::GraphBuilder`], the generators in
/// [`crate::gen`], or the loaders in [`crate::io`].
///
/// Row order is a property of the constructor, not of the type: rows from
/// the builder and from the transpose, symmetrize and degree-sort
/// transforms ascend by destination with parallel edges in insertion
/// order, while [`CsrGraph::from_raw`] and
/// [`crate::delta::DeltaGraph::materialize`] keep whatever order they are
/// given (ingest appends). Every transform accepts rows in any order.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    dests: Vec<NodeId>,
    weights: Option<Vec<u32>>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays, keeping each row in the
    /// order given (no order is checked or promised).
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `offsets` must be
    /// non-decreasing, start at 0 and end at `dests.len()`; `weights`, when
    /// present, must parallel `dests`; destinations must be `< n`.
    pub fn from_raw(offsets: Vec<usize>, dests: Vec<NodeId>, weights: Option<Vec<u32>>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets[offsets.len() - 1],
            dests.len(),
            "offsets must end at the edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), dests.len(), "weights must parallel dests");
        }
        let n = (offsets.len() - 1) as NodeId;
        assert!(
            dests.iter().all(|&d| d < n),
            "edge destination out of range"
        );
        CsrGraph {
            offsets,
            dests,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.dests.len()
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The range of edge indices leaving `v` (Galois' `edges(v)`).
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Destination of edge `e` (Galois' `getEdgeDst`).
    #[inline]
    pub fn edge_dst(&self, e: usize) -> NodeId {
        self.dests[e]
    }

    /// Weight of edge `e`.
    ///
    /// Returns `1` for unweighted graphs so unweighted inputs can run
    /// weighted algorithms, as the paper does when generating random
    /// weights is disabled.
    #[inline]
    pub fn edge_weight(&self, e: usize) -> u32 {
        match &self.weights {
            Some(w) => w[e],
            None => 1,
        }
    }

    /// Iterator over the out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.dests[self.edge_range(v)].iter().copied()
    }

    /// Iterator over `(dst, weight)` pairs of the out-edges of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let range = self.edge_range(v);
        let start = range.start;
        self.dests[range]
            .iter()
            .enumerate()
            .map(move |(i, &d)| (d, self.edge_weight(start + i)))
    }

    /// Slice of destination vertices of the out-edges of `v`.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[NodeId] {
        &self.dests[self.edge_range(v)]
    }

    /// Raw offsets array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw destinations array (`m` entries).
    #[inline]
    pub fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    /// Raw weights array when present.
    #[inline]
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Bytes occupied by the CSR arrays, the "CSR size" of Table I.
    pub fn csr_size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.dests.len() * std::mem::size_of::<NodeId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<u32>())
    }

    /// Vertex with the largest out-degree (the bfs/sssp source the paper
    /// uses for non-road graphs). Ties break to the smallest id.
    pub fn max_out_degree_node(&self) -> NodeId {
        let mut best = 0;
        let mut best_deg = 0;
        for v in 0..self.num_nodes() as NodeId {
            let d = self.out_degree(v);
            if d > best_deg {
                best_deg = d;
                best = v;
            }
        }
        best
    }

    /// Drops the weight array, returning an unweighted view of the graph.
    pub fn into_unweighted(mut self) -> Self {
        self.weights = None;
        self
    }

    /// Attaches deterministic pseudo-random weights in `1..=max_weight`
    /// (the paper generates random weights for graphs that have none).
    pub fn with_random_weights(mut self, max_weight: u32, seed: u64) -> Self {
        // SplitMix64 keyed by edge index: cheap, deterministic, no rand dep
        // needed at this layer.
        let mut weights = Vec::with_capacity(self.num_edges());
        for e in 0..self.num_edges() as u64 {
            let mut z = e.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            weights.push((z % u64::from(max_weight)) as u32 + 1);
        }
        self.weights = Some(weights);
        self
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .field("weighted", &self.is_weighted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_raw(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], None)
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.neighbor_slice(2), &[3]);
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weight(0), 1, "unweighted graphs default to 1");
    }

    #[test]
    fn weighted_accessors() {
        let g = CsrGraph::from_raw(vec![0, 1, 2], vec![1, 0], Some(vec![10, 20]));
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(1), 20);
        assert_eq!(
            g.neighbors_weighted(0).collect::<Vec<_>>(),
            vec![(1, 10)]
        );
    }

    #[test]
    fn max_out_degree_node_breaks_ties_low() {
        let g = diamond();
        assert_eq!(g.max_out_degree_node(), 0);
        let g2 = CsrGraph::from_raw(vec![0, 1, 2], vec![1, 0], None);
        assert_eq!(g2.max_out_degree_node(), 0);
    }

    #[test]
    fn random_weights_are_deterministic_and_in_range() {
        let g = diamond().with_random_weights(100, 42);
        let h = diamond().with_random_weights(100, 42);
        assert_eq!(g.weights(), h.weights());
        assert!(g.weights().unwrap().iter().all(|&w| (1..=100).contains(&w)));
        let k = diamond().with_random_weights(100, 43);
        assert_ne!(g.weights(), k.weights(), "different seed, different weights");
    }

    #[test]
    fn csr_size_counts_all_arrays() {
        let g = diamond();
        let unweighted = g.csr_size_bytes();
        let weighted = diamond().with_random_weights(10, 1).csr_size_bytes();
        assert_eq!(weighted - unweighted, 4 * 4);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn rejects_bad_offsets_start() {
        CsrGraph::from_raw(vec![1, 2], vec![0], None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_offsets() {
        CsrGraph::from_raw(vec![0, 2, 1, 3], vec![0, 0, 0], None);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn rejects_out_of_range_destination() {
        CsrGraph::from_raw(vec![0, 1], vec![5], None);
    }

    #[test]
    #[should_panic(expected = "weights must parallel dests")]
    fn rejects_mismatched_weights() {
        CsrGraph::from_raw(vec![0, 1], vec![0], Some(vec![1, 2]));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_raw(vec![0], vec![], None);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn into_unweighted_drops_weights() {
        let g = diamond().with_random_weights(10, 1).into_unweighted();
        assert!(!g.is_weighted());
    }
}

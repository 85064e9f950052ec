//! Incremental construction of [`CsrGraph`]s from edge lists.

use crate::csr::{CsrGraph, NodeId};

/// Builds a [`CsrGraph`] from an edge list.
///
/// Edges may be added in any order; `build` counting-sorts them into CSR.
/// Duplicate edges are kept unless [`GraphBuilder::dedup`] is enabled
/// (keeping the minimum weight per parallel edge, which is what shortest
/// path semantics want).
///
/// Row order: every row of the built graph ascends by destination, and
/// parallel edges stay in insertion order. (Before `build` was a counting
/// sort, an unstable comparison sort left the order of parallel edges
/// unspecified, so weighted parallel edges without dedup are the one
/// input whose bytes may differ from older builds. Only a
/// [`crate::gen::grid_road`] shortcut that repeats a lattice edge could
/// make one; none does in the study suite or the repo benchmark.)
///
/// # Example
///
/// ```
/// let g = graph::GraphBuilder::new(3)
///     .add_weighted_edge(0, 1, 5)
///     .add_weighted_edge(1, 2, 7)
///     .build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weight(0), 5);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, u32)>,
    weighted: bool,
    dedup: bool,
    symmetric: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            weighted: false,
            dedup: false,
            symmetric: false,
            drop_self_loops: false,
        }
    }

    /// Creates a builder pre-sized for `num_edges` insertions.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut b = Self::new(num_nodes);
        b.edges.reserve(num_edges);
        b
    }

    /// Adds an unweighted directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(mut self, src: NodeId, dst: NodeId) -> Self {
        self.push_edge(src, dst, 1);
        self
    }

    /// Adds a weighted directed edge, marking the graph as weighted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_weighted_edge(mut self, src: NodeId, dst: NodeId, w: u32) -> Self {
        self.weighted = true;
        self.push_edge(src, dst, w);
        self
    }

    /// Non-consuming edge insertion for loops over large edge lists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn push_edge(&mut self, src: NodeId, dst: NodeId, w: u32) {
        assert!((src as usize) < self.num_nodes, "src {src} out of range");
        assert!((dst as usize) < self.num_nodes, "dst {dst} out of range");
        self.edges.push((src, dst, w));
    }

    /// Marks the edge list as weighted (for use with [`push_edge`]).
    ///
    /// [`push_edge`]: GraphBuilder::push_edge
    pub fn weighted(mut self, yes: bool) -> Self {
        self.weighted = yes;
        self
    }

    /// Removes duplicate `(src, dst)` pairs at build time, keeping the
    /// minimum weight.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Inserts the reverse of every edge at build time (undirected /
    /// symmetrized graphs such as `friendster` or tc/ktruss inputs).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Drops self loops at build time (tc and ktruss require loop-free
    /// inputs).
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Number of edges inserted so far (before symmetrization/dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Counting-sorts the edge list into CSR and returns the graph.
    ///
    /// Rows ascend by destination. Parallel edges keep their insertion
    /// order, with the reverse edges [`GraphBuilder::symmetric`] adds
    /// after every inserted one, unless [`GraphBuilder::dedup`] collapses
    /// them.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder {
            num_nodes: n,
            edges,
            weighted,
            dedup,
            symmetric,
            drop_self_loops,
        } = self;
        let kept = |&&(s, d, _): &&(NodeId, NodeId, u32)| !drop_self_loops || s != d;

        // Row lengths go into `offsets[s]` and become row starts; the
        // scatter then uses `offsets[s]` as row `s`'s cursor, which leaves
        // it holding the row's end, one shift away from the final array.
        let mut offsets = vec![0usize; n + 1];
        for &(s, d, _) in edges.iter().filter(kept) {
            offsets[s as usize] += 1;
            if symmetric {
                offsets[d as usize] += 1;
            }
        }
        let mut total = 0;
        for o in &mut offsets[..n] {
            let len = *o;
            *o = total;
            total += len;
        }
        let mut dests = vec![0 as NodeId; total];
        let mut weights = weighted.then(|| vec![0u32; total]);
        let mut place = |s: NodeId, d: NodeId, w: u32| {
            let slot = &mut offsets[s as usize];
            dests[*slot] = d;
            if let Some(ws) = &mut weights {
                ws[*slot] = w;
            }
            *slot += 1;
        };
        for &(s, d, w) in edges.iter().filter(kept) {
            place(s, d, w);
        }
        if symmetric {
            for &(s, d, w) in edges.iter().filter(kept) {
                place(d, s, w);
            }
        }
        drop(edges);
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;

        sort_rows(&offsets, &mut dests, weights.as_deref_mut());
        if dedup {
            dedup_rows(&mut offsets, &mut dests, weights.as_mut());
        }
        CsrGraph::from_raw(offsets, dests, weights)
    }
}

/// Sorts every CSR row by destination in place. A row that already
/// ascends is left alone; unweighted rows sort unstably (equal ids are
/// indistinguishable), weighted rows stably, so parallel edges keep
/// their order.
pub(crate) fn sort_rows(offsets: &[usize], dests: &mut [NodeId], mut weights: Option<&mut [u32]>) {
    let mut pairs: Vec<(NodeId, u32)> = Vec::new();
    for row in offsets.windows(2).map(|w| w[0]..w[1]) {
        if dests[row.clone()].is_sorted() {
            continue;
        }
        match weights.as_deref_mut() {
            None => dests[row].sort_unstable(),
            Some(ws) => {
                pairs.clear();
                pairs.extend(
                    dests[row.clone()]
                        .iter()
                        .copied()
                        .zip(ws[row.clone()].iter().copied()),
                );
                pairs.sort_by_key(|&(d, _)| d);
                for (e, &(d, w)) in row.zip(&pairs) {
                    dests[e] = d;
                    ws[e] = w;
                }
            }
        }
    }
}

/// Collapses repeated destinations within each sorted row to one edge
/// of minimum weight, compacting the arrays and rewriting `offsets`.
fn dedup_rows(offsets: &mut [usize], dests: &mut Vec<NodeId>, mut weights: Option<&mut Vec<u32>>) {
    let mut write = 0;
    let mut start = 0;
    for offset in &mut offsets[1..] {
        let (row_start, end) = (write, *offset);
        for e in start..end {
            let d = dests[e];
            if write > row_start && dests[write - 1] == d {
                if let Some(ws) = weights.as_deref_mut() {
                    ws[write - 1] = ws[write - 1].min(ws[e]);
                }
            } else {
                dests[write] = d;
                if let Some(ws) = weights.as_deref_mut() {
                    ws[write] = ws[e];
                }
                write += 1;
            }
        }
        *offset = write;
        start = end;
    }
    dests.truncate(write);
    if let Some(ws) = weights {
        ws.truncate(write);
    }
}

/// Convenience constructor: builds an unweighted directed graph from an
/// iterator of `(src, dst)` pairs.
pub fn from_edges(num_nodes: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> CsrGraph {
    let mut b = GraphBuilder::new(num_nodes);
    for (s, d) in edges {
        b.push_edge(s, d, 1);
    }
    b.build()
}

/// Convenience constructor: builds a weighted directed graph from an
/// iterator of `(src, dst, weight)` triples.
pub fn from_weighted_edges(
    num_nodes: usize,
    edges: impl IntoIterator<Item = (NodeId, NodeId, u32)>,
) -> CsrGraph {
    let mut b = GraphBuilder::new(num_nodes).weighted(true);
    for (s, d, w) in edges {
        b.push_edge(s, d, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr_from_unsorted_edges() {
        let g = from_edges(4, [(2, 3), (0, 2), (0, 1), (1, 3)]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = from_edges(3, [(0, 2), (0, 1), (0, 0)]);
        assert_eq!(g.neighbor_slice(0), &[0, 1, 2]);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let g = GraphBuilder::new(2)
            .add_weighted_edge(0, 1, 9)
            .add_weighted_edge(0, 1, 3)
            .add_weighted_edge(0, 1, 7)
            .dedup(true)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0), 3);
    }

    #[test]
    fn symmetric_adds_reverse_edges() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .symmetric(true)
            .build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn symmetric_dedup_collapses_mutual_edges() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .symmetric(true)
            .dedup(true)
            .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drop_self_loops_removes_them() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 0)
            .add_edge(0, 1)
            .add_edge(1, 1)
            .drop_self_loops(true)
            .build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = from_edges(5, [(0, 1)]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_src() {
        let _ = GraphBuilder::new(2).add_edge(2, 0);
    }

    #[test]
    fn weighted_flag_via_push_edge() {
        let mut b = GraphBuilder::new(2).weighted(true);
        b.push_edge(0, 1, 42);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0), 42);
    }
}

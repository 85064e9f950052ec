//! Graph transformations: transpose, symmetrize, degree-order relabeling
//! and triangular restrictions.
//!
//! These are the preprocessing steps the paper's workloads rely on:
//! pull-style operators need the transpose (`A^T`), tc/ktruss need a
//! symmetrized loop-free graph, and triangle listing (`tc-ls`, `tc-gb-ll`)
//! needs the graph relabeled by degree and restricted to one triangular
//! half so each triangle is counted once.
//!
//! Row order: every transform accepts rows in any order — a graph from
//! [`CsrGraph::from_raw`] or [`crate::delta::DeltaGraph::materialize`]
//! promises none, since ingest appends. [`transpose`], [`symmetrize`] and
//! [`sort_by_degree`] return rows that ascend by destination, parallel
//! edges (which only the first and last keep) in their input order; the
//! triangular restrictions keep each row's input order. None of them sorts
//! the edge list as a whole: transpose is a counting sort, symmetrize
//! merges each row with the same row of the transpose, and the degree
//! relabeling writes each new row directly and sorts it.

use crate::csr::{CsrGraph, NodeId};

/// Returns the transpose of `g` (in-edges become out-edges).
///
/// Weights follow their edges.
pub fn transpose(g: &CsrGraph) -> CsrGraph {
    let n = g.num_nodes();
    let mut offsets = vec![0usize; n + 1];
    for &d in g.dests() {
        offsets[d as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut dests = vec![0 as NodeId; g.num_edges()];
    let mut weights = g.is_weighted().then(|| vec![0u32; g.num_edges()]);
    for v in 0..n as NodeId {
        for e in g.edge_range(v) {
            let d = g.edge_dst(e) as usize;
            let slot = cursor[d];
            cursor[d] += 1;
            dests[slot] = v;
            if let Some(w) = &mut weights {
                w[slot] = g.edge_weight(e);
            }
        }
    }
    CsrGraph::from_raw(offsets, dests, weights)
}

/// Returns the symmetrized, loop-free version of `g`: for every edge
/// `(u, v)` with `u != v`, both directions are present exactly once.
///
/// Parallel edges collapse to the minimum weight. This is the
/// preprocessing tc and ktruss inputs get in the study. Callers that
/// already hold `transpose(g)` should pass it to [`symmetrize_from`].
pub fn symmetrize(g: &CsrGraph) -> CsrGraph {
    symmetrize_from(g, &transpose(g))
}

/// [`symmetrize`] given the transpose `gt` of `g`: row `u` of the result
/// is the merge of `g`'s out-row and `gt`'s in-row of `u`, without `u`
/// itself, each destination once at its minimum weight.
///
/// # Panics
///
/// Panics if `gt` does not have `g`'s vertex count.
pub fn symmetrize_from(g: &CsrGraph, gt: &CsrGraph) -> CsrGraph {
    let n = g.num_nodes();
    assert_eq!(gt.num_nodes(), n, "transpose has a different vertex count");
    let cap = g.num_edges() + gt.num_edges();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut dests = Vec::with_capacity(cap);
    let mut weights = g.is_weighted().then(|| Vec::with_capacity(cap));
    let (mut out_row, mut in_row) = (AscendingRow::default(), AscendingRow::default());
    for u in 0..n as NodeId {
        let (a, aw) = out_row.of(g, u);
        let (b, bw) = in_row.of(gt, u);
        let row_start = dests.len();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let (d, w) = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                i += 1;
                (a[i - 1], aw.map_or(1, |w| w[i - 1]))
            } else {
                j += 1;
                (b[j - 1], bw.map_or(1, |w| w[j - 1]))
            };
            if d == u {
                continue;
            }
            if dests.len() > row_start && dests[dests.len() - 1] == d {
                if let Some(ws) = &mut weights {
                    let last = ws.len() - 1;
                    ws[last] = w.min(ws[last]);
                }
            } else {
                dests.push(d);
                if let Some(ws) = &mut weights {
                    ws.push(w);
                }
            }
        }
        offsets.push(dests.len());
    }
    // No `shrink_to_fit`: the spare tail (one slot per dropped duplicate
    // or self loop) is never written, while shrinking heap-sized arrays
    // in place left holes that raised the peak RSS of a process that
    // prepares graphs repeatedly (seven set-ups of a 500 k-edge graph:
    // 34.8 MiB with the shrink, 18.7 MiB without).
    CsrGraph::from_raw(offsets, dests, weights)
}

/// Buffers for reading one row in ascending destination order: a row
/// that already ascends is borrowed as it is, any other is copied here
/// and sorted (stably when weighted, so parallel edges keep their order).
#[derive(Default)]
struct AscendingRow {
    dests: Vec<NodeId>,
    weights: Vec<u32>,
}

impl AscendingRow {
    fn of<'a>(&'a mut self, g: &'a CsrGraph, v: NodeId) -> (&'a [NodeId], Option<&'a [u32]>) {
        let range = g.edge_range(v);
        let (dests, weights) = (&g.dests()[range.clone()], g.weights().map(|w| &w[range]));
        if dests.is_sorted() {
            return (dests, weights);
        }
        self.dests.clear();
        self.dests.extend_from_slice(dests);
        self.weights.clear();
        if let Some(ws) = weights {
            self.weights.extend_from_slice(ws);
        }
        crate::builder::sort_rows(
            &[0, dests.len()],
            &mut self.dests,
            weights.is_some().then_some(&mut self.weights[..]),
        );
        (&self.dests, weights.map(|_| &self.weights[..]))
    }
}

/// Relabels vertices so ids ascend with out-degree (ties by old id) and
/// returns the relabeled graph together with the permutation
/// (`perm[old] = new`). On the symmetric graphs prepare passes in,
/// out-degree is the total degree.
///
/// Triangle listing sorts by degree so that each edge is oriented from the
/// lower-ranked to the higher-ranked endpoint, bounding the work per edge.
pub fn sort_by_degree(g: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let n = g.num_nodes();
    // Stable counting sort by degree over ascending ids: the order a sort
    // by `(degree, id)` gives, in O(n + max degree). The small count
    // array is allocated after `order`/`perm` and freed before the row
    // arrays, so it never splits the heap between them (placed first, it
    // raised the process's peak RSS by ~0.6 MiB on a 50 k-vertex graph).
    let mut order = vec![0 as NodeId; n];
    let mut perm = vec![0 as NodeId; n];
    let max_degree = (0..n as NodeId).map(|v| g.out_degree(v)).max().unwrap_or(0);
    let mut next = vec![0usize; max_degree + 2];
    for v in 0..n as NodeId {
        next[g.out_degree(v) + 1] += 1;
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    for v in 0..n as NodeId {
        let slot = &mut next[g.out_degree(v)];
        order[*slot] = v;
        perm[v as usize] = *slot as NodeId;
        *slot += 1;
    }
    drop(next);
    // New row `i` is old row `order[i]` with its neighbours relabeled.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut dests = Vec::with_capacity(g.num_edges());
    let mut weights = g.is_weighted().then(|| Vec::with_capacity(g.num_edges()));
    for &old in &order {
        dests.extend(g.neighbors(old).map(|d| perm[d as usize]));
        if let (Some(ws), Some(gw)) = (&mut weights, g.weights()) {
            ws.extend_from_slice(&gw[g.edge_range(old)]);
        }
        offsets.push(dests.len());
    }
    crate::builder::sort_rows(&offsets, &mut dests, weights.as_deref_mut());
    (CsrGraph::from_raw(offsets, dests, weights), perm)
}

/// Keeps only edges `(u, v)` with `u < v` (the strict upper triangle of the
/// adjacency matrix). On a symmetric graph this orients each undirected
/// edge exactly once.
pub fn upper_triangular(g: &CsrGraph) -> CsrGraph {
    triangular(g, |u, v| u < v)
}

/// Keeps only edges `(u, v)` with `u > v` (the strict lower triangle).
pub fn lower_triangular(g: &CsrGraph) -> CsrGraph {
    triangular(g, |u, v| u > v)
}

fn triangular(g: &CsrGraph, keep: impl Fn(NodeId, NodeId) -> bool) -> CsrGraph {
    let n = g.num_nodes();
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n as NodeId {
        offsets[v as usize + 1] = g.neighbors(v).filter(|&d| keep(v, d)).count();
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut dests = Vec::with_capacity(offsets[n]);
    let mut weights = g.is_weighted().then(|| Vec::with_capacity(offsets[n]));
    for v in 0..n as NodeId {
        for e in g.edge_range(v) {
            let d = g.edge_dst(e);
            if keep(v, d) {
                dests.push(d);
                if let Some(w) = &mut weights {
                    w.push(g.edge_weight(e));
                }
            }
        }
    }
    CsrGraph::from_raw(offsets, dests, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};

    #[test]
    fn transpose_reverses_edges() {
        let g = from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let t = transpose(&g);
        assert_eq!(t.neighbors(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(t.neighbors(2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(t.out_degree(0), 0);
    }

    #[test]
    fn transpose_preserves_weights() {
        let g = from_weighted_edges(3, [(0, 1, 10), (2, 1, 20)]);
        let t = transpose(&g);
        let edges: Vec<_> = t.neighbors_weighted(1).collect();
        assert_eq!(edges, vec![(0, 10), (2, 20)]);
    }

    #[test]
    fn transpose_is_involutive() {
        let g = from_weighted_edges(5, [(0, 1, 1), (1, 2, 2), (3, 0, 3), (4, 4, 4)]);
        assert_eq!(transpose(&transpose(&g)), g);
    }

    #[test]
    fn symmetrize_produces_mutual_loop_free_edges() {
        let g = from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)]);
        let s = symmetrize(&g);
        assert_eq!(s.num_edges(), 4); // (0,1),(1,0),(1,2),(2,1)
        assert_eq!(s.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.neighbors(2).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn sort_by_degree_orders_ascending() {
        // vertex 0 has degree 3, vertex 1 degree 1, vertex 2 degree 0
        let g = from_edges(3, [(0, 1), (0, 2), (0, 0), (1, 2)]);
        let (sorted, perm) = sort_by_degree(&g);
        // old 2 (deg 0) -> new 0, old 1 (deg 1) -> new 1, old 0 (deg 3) -> new 2
        assert_eq!(perm, vec![2, 1, 0]);
        assert_eq!(sorted.out_degree(0), 0);
        assert_eq!(sorted.out_degree(1), 1);
        assert_eq!(sorted.out_degree(2), 3);
        assert_eq!(sorted.num_edges(), g.num_edges());
    }

    #[test]
    fn triangular_split_partitions_loop_free_edges() {
        let g = symmetrize(&from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]));
        let u = upper_triangular(&g);
        let l = lower_triangular(&g);
        assert_eq!(u.num_edges() + l.num_edges(), g.num_edges());
        assert_eq!(u.num_edges(), l.num_edges());
        for v in 0..4 {
            assert!(u.neighbors(v).all(|d| d > v));
            assert!(l.neighbors(v).all(|d| d < v));
        }
    }

    #[test]
    fn upper_triangular_keeps_weights() {
        let g = from_weighted_edges(3, [(0, 1, 5), (1, 0, 6)]);
        let u = upper_triangular(&g);
        assert_eq!(u.num_edges(), 1);
        assert_eq!(u.edge_weight(0), 5);
    }
}

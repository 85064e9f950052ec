//! Serial reference implementations used to verify every parallel system.
//!
//! Each function is serial and self-contained: it reads only the graph it
//! is given and shares no code with the systems it checks (no `galois_rt`,
//! `graphblas`, `lagraph` or `lonestar`, and no degree-sorted relabeling
//! from `graph::transform::sort_by_degree`), so a bug in their
//! preprocessing cannot also hide in the checker. The references are also
//! the benchmark's native serial yardstick, so they are work-efficient:
//! tc is the "forward" algorithm and ktruss is support-decrement peeling,
//! both over a private degree orientation.

use graph::{CsrGraph, NodeId};

/// Serial bfs levels, LAGraph convention (source = 1, unreached = 0).
pub fn bfs_levels(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let (levels, _, _) = graph::stats::bfs_levels(g, src);
    levels
        .into_iter()
        .map(|l| if l == u32::MAX { 0 } else { l + 1 })
        .collect()
}

/// Serial Dijkstra distances (`u64::MAX` = unreachable).
pub fn dijkstra(g: &CsrGraph, src: NodeId) -> Vec<u64> {
    let n = g.num_nodes();
    let mut dist = vec![u64::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in g.neighbors_weighted(v) {
            let nd = d + u64::from(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Serial connected components of a symmetric graph, labels normalized to
/// minimum vertex ids.
pub fn components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    for start in 0..n as u32 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        // BFS flood fill; `start` is the minimum id of this component
        // because lower-id members would have been visited first.
        let mut queue = std::collections::VecDeque::new();
        label[start as usize] = start;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = start;
                    queue.push_back(u);
                }
            }
        }
    }
    label
}

/// Each undirected edge of a symmetric loop-free graph, kept once at its
/// lower-ranked endpoint, where vertices rank by `(degree, id)`.
///
/// Edge ids are positions in `dests`; row `v` (`offsets[v]..offsets[v + 1]`)
/// holds the higher-ranked neighbours of `v` in the id order of `g`'s row.
/// The rank bounds every row by O(√m), so hubs never rescan their lists.
struct Oriented {
    offsets: Vec<usize>,
    dests: Vec<NodeId>,
}

impl Oriented {
    fn row(&self, v: NodeId) -> &[NodeId] {
        &self.dests[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

fn ranks_below(g: &CsrGraph, u: NodeId, v: NodeId) -> bool {
    (g.out_degree(u), u) < (g.out_degree(v), v)
}

/// O(V + E) degree orientation of `g`; reads nothing but `g` itself.
fn orient(g: &CsrGraph) -> Oriented {
    let n = g.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut dests = Vec::with_capacity(g.num_edges() / 2);
    for v in 0..n as NodeId {
        let higher = g
            .neighbor_slice(v)
            .iter()
            .filter(|&&u| ranks_below(g, v, u));
        dests.extend(higher);
        offsets.push(dests.len());
    }
    Oriented { offsets, dests }
}

/// Calls `found(vu, vw, uw)` with the three edge ids of every triangle of
/// `o`, once each: at its lowest-ranked vertex `v`, by merging the rows of
/// `v` and of its middle-ranked vertex `u`.
fn each_triangle(o: &Oriented, mut found: impl FnMut(usize, usize, usize)) {
    for v in 0..o.offsets.len() as NodeId - 1 {
        let (vs, vn) = (o.offsets[v as usize], o.row(v));
        for (i, &u) in vn.iter().enumerate() {
            let (us, un) = (o.offsets[u as usize], o.row(u));
            let (mut p, mut q) = (0, 0);
            while p < vn.len() && q < un.len() {
                match vn[p].cmp(&un[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        found(vs + i, vs + p, us + q);
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
}

/// Serial triangle count of a symmetric loop-free graph with sorted rows:
/// the "forward" algorithm, which intersects the two degree-oriented rows
/// of every oriented edge (see `orient`).
pub fn triangles(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    each_triangle(&orient(g), |_, _, _| count += 1);
    count
}

/// Serial k-truss of a symmetric loop-free graph with sorted rows; returns
/// the number of surviving directed edges.
///
/// Support-decrement peeling (Wang & Cheng): each undirected edge's
/// support is counted once over the degree orientation (see `orient`).
/// A scan over the edges peels every edge below `k - 2` through a stack:
/// removing an edge decrements the two other edges of each triangle it
/// still closes, and an edge that falls below `k - 2` is stacked in turn.
pub fn ktruss_edges(g: &CsrGraph, k: u32) -> usize {
    assert!(k >= 3, "k-truss requires k >= 3");
    const REMOVED: u32 = u32::MAX;
    let needed = k - 2;
    let o = orient(g);
    let m = o.dests.len();
    let mut support = vec![0u32; m];
    each_triangle(&o, |vu, vw, uw| {
        support[vu] += 1;
        support[vw] += 1;
        support[uw] += 1;
    });
    let edge_id = |x: NodeId, y: NodeId| {
        let (a, b) = if ranks_below(g, x, y) { (x, y) } else { (y, x) };
        let pos = o
            .row(a)
            .binary_search(&b)
            .expect("edge of a symmetric graph");
        o.offsets[a as usize] + pos
    };
    let mut removed = 0usize;
    let mut stack: Vec<u32> = Vec::new();
    for first in 0..m {
        // `REMOVED` is never below `needed`, so peeled edges are skipped.
        if support[first] >= needed {
            continue;
        }
        stack.push(first as u32);
        while let Some(e) = stack.pop() {
            let e = e as usize;
            let intact = std::mem::replace(&mut support[e], REMOVED);
            removed += 1;
            // On a sparse social graph most edges close no triangle at all.
            if intact == 0 {
                continue;
            }
            let a = (o.offsets.partition_point(|&x| x <= e) - 1) as NodeId;
            let b = o.dests[e];
            let (short, long) = if g.out_degree(a) <= g.out_degree(b) {
                (a, b)
            } else {
                (b, a)
            };
            let long_row = g.neighbor_slice(long);
            for &w in g.neighbor_slice(short) {
                if long_row.binary_search(&w).is_err() {
                    continue;
                }
                let (sw, lw) = (edge_id(short, w), edge_id(long, w));
                if support[sw] == REMOVED || support[lw] == REMOVED {
                    continue;
                }
                for f in [sw, lw] {
                    if support[f] == needed {
                        stack.push(f as u32);
                    }
                    support[f] -= 1;
                }
            }
        }
    }
    2 * (m - removed)
}

/// Serial fixed-iteration pagerank matching the study's formulation.
pub fn pagerank(g: &CsrGraph, iters: u32) -> Vec<f64> {
    const D: f64 = 0.85;
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - D) / n as f64;
    let mut pr = vec![base; n];
    for _ in 0..iters {
        let mut incoming = vec![0.0f64; n];
        for v in 0..n as u32 {
            let deg = g.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = pr[v as usize] / deg as f64;
            for u in g.neighbors(v) {
                incoming[u as usize] += share;
            }
        }
        for v in 0..n {
            pr[v] = base + D * incoming[v];
        }
    }
    pr
}

/// Serial Brandes betweenness centrality from the given sources
/// (unweighted shortest paths; no endpoint counting; no normalization).
pub fn betweenness(g: &CsrGraph, sources: &[NodeId]) -> Vec<f64> {
    let n = g.num_nodes();
    let mut centrality = vec![0.0f64; n];
    for &s in sources {
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        let mut delta = vec![0.0f64; n];
        let mut order: Vec<NodeId> = Vec::new();
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for u in g.neighbors(v) {
                if dist[u as usize] == i64::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
                if dist[u as usize] == dist[v as usize] + 1 {
                    sigma[u as usize] += sigma[v as usize];
                }
            }
        }
        for &v in order.iter().rev() {
            for u in g.neighbors(v) {
                if dist[u as usize] == dist[v as usize] + 1 {
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[u as usize] * (1.0 + delta[u as usize]);
                }
            }
            if v != s {
                centrality[v as usize] += delta[v as usize];
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::{from_edges, from_weighted_edges};
    use graph::transform::symmetrize;

    #[test]
    fn bfs_reference_on_path() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_levels(&g, 0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dijkstra_prefers_cheap_paths() {
        let g = from_weighted_edges(3, [(0, 1, 10), (0, 2, 1), (2, 1, 2)]);
        assert_eq!(dijkstra(&g, 0), vec![0, 3, 1]);
    }

    #[test]
    fn components_label_minima() {
        let g = symmetrize(&from_edges(5, [(3, 4), (0, 1)]));
        assert_eq!(components(&g), vec![0, 0, 2, 3, 3]);
    }

    #[test]
    fn triangle_reference_counts_k4() {
        let g = symmetrize(&from_edges(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        ));
        assert_eq!(triangles(&g), 4);
    }

    #[test]
    fn ktruss_reference_prunes_pendants() {
        let g = symmetrize(&from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]));
        assert_eq!(ktruss_edges(&g, 3), 6);
        assert_eq!(ktruss_edges(&g, 4), 0);
    }

    #[test]
    fn betweenness_of_path_center() {
        // 0 - 1 - 2 undirected: vertex 1 lies on the single 0<->2 path.
        let g = symmetrize(&from_edges(3, [(0, 1), (1, 2)]));
        let all: Vec<u32> = (0..3).collect();
        let bc = betweenness(&g, &all);
        assert_eq!(bc, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn betweenness_counts_fractional_paths() {
        // Diamond 0->1->3, 0->2->3 (directed): two equal shortest paths.
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let bc = betweenness(&g, &[0]);
        assert_eq!(bc, vec![0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn pagerank_reference_is_stochastic_on_cycle() {
        let g = from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        // Geometric convergence at rate d = 0.85 needs ~200 rounds for 1e-6.
        let pr = pagerank(&g, 200);
        assert!(pr.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }
}

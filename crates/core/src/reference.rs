//! Serial reference implementations used to verify every parallel system.

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

/// Serial triangle count of a symmetric loop-free graph.
pub fn triangles(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for v in 0..g.num_nodes() as u32 {
        let vn = g.neighbor_slice(v);
        for (i, &u) in vn.iter().enumerate() {
            if u <= v {
                continue;
            }
            let un = g.neighbor_slice(u);
            let (mut p, mut q) = (i + 1, 0usize);
            while p < vn.len() && q < un.len() {
                if un[q] <= u {
                    q += 1;
                    continue;
                }
                match vn[p].cmp(&un[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
    count
}

/// Serial k-truss peeling of a symmetric loop-free graph; returns the
/// number of surviving directed edges.
pub fn ktruss_edges(g: &CsrGraph, k: u32) -> usize {
    assert!(k >= 3, "k-truss requires k >= 3");
    let needed = (k - 2) as usize;
    let mut alive = vec![true; g.num_edges()];
    let edge_slot = |u: NodeId, v: NodeId| -> Option<usize> {
        g.neighbor_slice(u)
            .binary_search(&v)
            .ok()
            .map(|p| g.edge_range(u).start + p)
    };
    loop {
        let mut removed = false;
        for v in 0..g.num_nodes() as u32 {
            for e in g.edge_range(v) {
                let u = g.edge_dst(e);
                if u <= v || !alive[e] {
                    continue;
                }
                let mut support = 0usize;
                let (mut p, mut q) = (g.edge_range(v).start, g.edge_range(u).start);
                let (pe, qe) = (g.edge_range(v).end, g.edge_range(u).end);
                while p < pe && q < qe {
                    match g.edge_dst(p).cmp(&g.edge_dst(q)) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            if alive[p] && alive[q] {
                                support += 1;
                            }
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if support < needed {
                    alive[e] = false;
                    if let Some(rev) = edge_slot(u, v) {
                        alive[rev] = false;
                    }
                    removed = true;
                }
            }
        }
        if !removed {
            break;
        }
    }
    alive.iter().filter(|&&a| a).count()
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

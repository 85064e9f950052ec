//! Breadth-first search with the graph API (Algorithm 1 of the paper).
//!
//! Round-based and data-driven like the LAGraph version, but each round is
//! **one** fused loop over the frontier: the distance update and the
//! next-frontier insertion happen together, so the vertex data is touched
//! once per round instead of once per API call.

use galois_rt::InsertBag;
use graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel distance for unvisited vertices (Lonestar's `DIST_INFINITY`).
pub const DIST_INFINITY: u32 = u32::MAX;

/// Levels produced by [`bfs`]: `level[src] == 1`, unreached vertices hold
/// `0` (normalized to match the LAGraph output for cross-checking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Per-vertex level (0 = unreached, source = 1).
    pub level: Vec<u32>,
    /// Rounds executed (frontier expansions).
    pub rounds: u32,
}

/// Runs round-based data-driven bfs from `src`.
pub fn bfs(g: &CsrGraph, src: NodeId) -> BfsResult {
    let pm = perfmon::probe();
    let n = g.num_nodes();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(DIST_INFINITY)).collect();
    dist[src as usize].store(1, Ordering::Relaxed);

    let mut curr: Vec<NodeId> = vec![src];
    let mut level = 1u32;
    let mut rounds = 0u32;
    while !curr.is_empty() {
        rounds += 1;
        level += 1;
        let next = InsertBag::new();
        // The single fused loop of Algorithm 1: visit, mark and enqueue.
        galois_rt::do_all(0..curr.len(), |p| {
            let node = curr[p];
            pm.touch_ref(&curr[p]);
            for e in g.edge_range(node) {
                let dst = g.edge_dst(e);
                pm.instr(2);
                pm.touch_ref(&g.dests()[e]);
                pm.touch_ref(&dist[dst as usize]);
                if dist[dst as usize].load(Ordering::Relaxed) == DIST_INFINITY
                    && dist[dst as usize]
                        .compare_exchange(
                            DIST_INFINITY,
                            level,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    next.push(dst);
                }
            }
        });
        let mut next = next;
        next.drain_into(&mut curr);
    }

    let level = dist
        .into_iter()
        .map(|d| {
            let d = d.into_inner();
            if d == DIST_INFINITY {
                0
            } else {
                d
            }
        })
        .collect();
    BfsResult { level, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;

    #[test]
    fn levels_on_a_path() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.level, vec![1, 2, 3, 4]);
        assert_eq!(r.rounds, 4, "one round per frontier, including the last");
    }

    #[test]
    fn unreachable_vertices_are_zero() {
        let g = from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(bfs(&g, 0).level, vec![1, 2, 0, 0]);
    }

    #[test]
    fn each_vertex_visited_once_on_diamond() {
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        assert_eq!(bfs(&g, 0).level, vec![1, 2, 2, 2]);
    }

    #[test]
    fn matches_lagraph_on_random_graphs() {
        for seed in 0..3 {
            let g = graph::gen::rmat(9, 8, graph::gen::RmatParams::default(), seed);
            let src = g.max_out_degree_node();
            let ls = bfs(&g, src);
            let gb = lagraph_bfs_reference(&g, src);
            assert_eq!(ls.level, gb, "seed {seed}");
        }
    }

    /// Serial reference with the same level convention.
    fn lagraph_bfs_reference(g: &CsrGraph, src: NodeId) -> Vec<u32> {
        let (levels, _, _) = graph::stats::bfs_levels(g, src);
        levels
            .into_iter()
            .map(|l| if l == u32::MAX { 0 } else { l + 1 })
            .collect()
    }

    #[test]
    fn large_grid_terminates() {
        let g = graph::gen::grid_road(40, 40, 1);
        let r = bfs(&g, 0);
        assert!(r.level.iter().all(|&l| l != 0), "grid is connected");
        // Diameter-bound rounds (random highway shortcuts may cut a few
        // hops, hence the slack).
        assert!(r.rounds >= 40, "rounds {}", r.rounds);
    }
}

//! Asynchronous delta-stepping SSSP on the OBIM work-list (`sssp-ls`).
//!
//! There is a single priority work-list and **no rounds**: a relaxation
//! that improves a distance immediately schedules the neighbor, and other
//! threads see the new distance at once (Gauss-Seidel). This is the
//! execution model §II-D of the paper says matrix APIs cannot express,
//! worth >100x on high-diameter road networks (Figure 3(d)).
//!
//! Edge tiling (`ls` vs `ls-notile`): the edge list of a high-degree
//! vertex is split into fixed-size tiles pushed as separate work items,
//! so several threads can relax one hub's edges concurrently.

use galois_rt::reduce::atomic_min;
use graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Edges per tile when edge tiling is enabled (Lonestar's default grain).
pub const EDGE_TILE_SIZE: usize = 512;

/// Result of the asynchronous delta-stepping run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    /// Per-vertex distance (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// Work items processed (vertices + tiles + stale pops).
    pub work_items: u64,
}

/// A unit of work: a vertex to relax, or one tile of a hub's edge list.
#[derive(Debug, Clone, Copy)]
struct Item {
    node: NodeId,
    /// Distance of `node` when this item was created (staleness check).
    dist: u64,
    /// Edge sub-range for tiled items; `None` relaxes all edges.
    tile: Option<(u32, u32)>,
}

/// Runs asynchronous delta-stepping from `src` with bucket width `delta`.
///
/// `tiling` enables edge tiling (the paper's `ls`); disabling it gives
/// `ls-notile`.
///
/// # Panics
///
/// Panics if `delta == 0`.
pub fn sssp(g: &CsrGraph, src: NodeId, delta: u64, tiling: bool) -> SsspResult {
    assert!(delta > 0, "delta must be positive");
    let pm = perfmon::probe();
    let n = g.num_nodes();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let work = galois_rt::ReduceSum::new();

    galois_rt::for_each_ordered(
        [Item {
            node: src,
            dist: 0,
            tile: None,
        }],
        |item| item.dist / delta,
        |item, ctx| {
            work.add(1);
            pm.instr(1);
            pm.touch_ref(&dist[item.node as usize]);
            let cur = dist[item.node as usize].load(Ordering::Relaxed);
            if item.dist > cur {
                // Stale: a shorter path was found since this was pushed.
                return;
            }
            let full = g.edge_range(item.node);
            let range = match item.tile {
                Some((s, e)) => s as usize..e as usize,
                None => {
                    if tiling && full.len() > EDGE_TILE_SIZE {
                        // Split the hub's edges into tiles at the same
                        // priority so other threads share the load.
                        let mut s = full.start;
                        while s < full.end {
                            let e = (s + EDGE_TILE_SIZE).min(full.end);
                            ctx.push(
                                Item {
                                    node: item.node,
                                    dist: item.dist,
                                    tile: Some((s as u32, e as u32)),
                                },
                                item.dist / delta,
                            );
                            s = e;
                        }
                        return;
                    }
                    full
                }
            };
            for e in range {
                let u = g.edge_dst(e);
                let w = g.edge_weight(e);
                pm.instr(3);
                pm.touch_ref(&g.dests()[e]);
                pm.touch_ref(&dist[u as usize]);
                let nd = cur.saturating_add(u64::from(w));
                if atomic_min(&dist[u as usize], nd) {
                    ctx.push(
                        Item {
                            node: u,
                            dist: nd,
                            tile: None,
                        },
                        nd / delta,
                    );
                }
            }
        },
    );

    SsspResult {
        dist: dist.into_iter().map(AtomicU64::into_inner).collect(),
        work_items: work.reduce(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_weighted_edges;

    fn dijkstra(g: &CsrGraph, src: NodeId) -> Vec<u64> {
        let n = g.num_nodes();
        let mut dist = vec![u64::MAX; n];
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

    #[test]
    fn weighted_diamond() {
        let g = from_weighted_edges(4, [(0, 1, 1), (0, 2, 4), (1, 2, 1), (2, 3, 1), (1, 3, 9)]);
        let r = sssp(&g, 0, 4, true);
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..3 {
            let g = graph::gen::erdos_renyi(300, 1500, seed).with_random_weights(100, seed);
            for tiling in [false, true] {
                let r = sssp(&g, 0, 32, tiling);
                assert_eq!(r.dist, dijkstra(&g, 0), "seed {seed}, tiling {tiling}");
            }
        }
    }

    #[test]
    fn matches_lagraph_delta_stepping() {
        let g = graph::gen::grid_road(15, 10, 7);
        let ls = sssp(&g, 0, 1 << 13, true);
        let gb =
            lagraph::sssp::sssp_delta_stepping(&g, 0, 1 << 13, graphblas::GaloisRuntime).unwrap();
        assert_eq!(ls.dist, gb.dist);
    }

    #[test]
    fn tiling_splits_hub_edges() {
        // A star with a hub of degree > EDGE_TILE_SIZE.
        let n = EDGE_TILE_SIZE * 2 + 1;
        let edges: Vec<(u32, u32, u32)> =
            (1..n as u32).map(|i| (0, i, i % 97 + 1)).collect();
        let g = from_weighted_edges(n, edges);
        let tiled = sssp(&g, 0, 1024, true);
        let plain = sssp(&g, 0, 1024, false);
        assert_eq!(tiled.dist, plain.dist);
        assert!(
            tiled.work_items > plain.work_items,
            "tiling creates extra (tile) items: {} vs {}",
            tiled.work_items,
            plain.work_items
        );
    }

    #[test]
    fn unreachable_stays_max() {
        let g = from_weighted_edges(3, [(0, 1, 2)]);
        assert_eq!(sssp(&g, 0, 8, true).dist, vec![0, 2, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_zero_delta() {
        let g = from_weighted_edges(2, [(0, 1, 1)]);
        let _ = sssp(&g, 0, 0, true);
    }
}

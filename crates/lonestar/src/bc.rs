//! Betweenness centrality (Brandes) with the graph API.
//!
//! The paper's introduction motivates graph analytics with betweenness
//! centrality; this is the Lonestar-style implementation: per source, a
//! level-synchronous forward sweep counts shortest paths with one fused
//! loop per round (path-count accumulation and next-frontier construction
//! together), and the backward sweep accumulates dependencies level by
//! level — again one fused loop per level, with scalars in registers
//! where the matrix API materializes whole vectors.

use galois_rt::reduce::atomic_add_f64;
use galois_rt::InsertBag;
use graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

const UNSET: u32 = u32::MAX;

/// Brandes betweenness centrality from `sources` over unweighted shortest
/// paths (no normalization, endpoints excluded — matching the serial
/// reference).
pub fn betweenness(g: &CsrGraph, sources: &[NodeId]) -> Vec<f64> {
    let pm = perfmon::probe();
    let n = g.num_nodes();
    let centrality: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();

    for &s in sources {
        let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
        let sigma: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
        level[s as usize].store(0, Ordering::Relaxed);
        sigma[s as usize].store(1f64.to_bits(), Ordering::Relaxed);

        // Forward phase: level-synchronous bfs keeping each frontier for
        // the backward phase.
        let mut frontiers: Vec<Vec<NodeId>> = vec![vec![s]];
        let mut depth = 0u32;
        loop {
            let curr = frontiers.last().expect("at least the source frontier");
            if curr.is_empty() {
                frontiers.pop();
                break;
            }
            let next = InsertBag::new();
            galois_rt::do_all(0..curr.len(), |p| {
                let v = curr[p];
                let sv = f64::from_bits(sigma[v as usize].load(Ordering::Relaxed));
                for e in g.edge_range(v) {
                    let u = g.edge_dst(e) as usize;
                    pm.instr(3);
                    pm.touch_ref(&level[u]);
                    // Discover and count paths in the same fused loop.
                    if level[u].load(Ordering::Relaxed) == UNSET
                        && level[u]
                            .compare_exchange(
                                UNSET,
                                depth + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        next.push(u as NodeId);
                    }
                    if level[u].load(Ordering::Relaxed) == depth + 1 {
                        atomic_add_f64(&sigma[u], sv);
                    }
                }
            });
            let mut next = next;
            let mut frontier = Vec::new();
            next.drain_into(&mut frontier);
            frontiers.push(frontier);
            depth += 1;
        }

        // Backward phase: dependency accumulation, deepest level first.
        let delta: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
        for (d, frontier) in frontiers.iter().enumerate().rev() {
            let d = d as u32;
            galois_rt::do_all(0..frontier.len(), |p| {
                let v = frontier[p];
                let sv = f64::from_bits(sigma[v as usize].load(Ordering::Relaxed));
                let mut acc = 0.0;
                for e in g.edge_range(v) {
                    let u = g.edge_dst(e) as usize;
                    pm.instr(3);
                    pm.touch_ref(&level[u]);
                    if level[u].load(Ordering::Relaxed) == d + 1 {
                        let su = f64::from_bits(sigma[u].load(Ordering::Relaxed));
                        let du = f64::from_bits(delta[u].load(Ordering::Relaxed));
                        acc += sv / su * (1.0 + du);
                    }
                }
                if acc != 0.0 {
                    atomic_add_f64(&delta[v as usize], acc);
                    if v != s {
                        atomic_add_f64(&centrality[v as usize], acc);
                    }
                }
            });
        }
    }

    centrality
        .into_iter()
        .map(|c| f64::from_bits(c.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;
    use graph::transform::symmetrize;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn path_center_dominates() {
        let g = symmetrize(&from_edges(3, [(0, 1), (1, 2)]));
        let all: Vec<u32> = (0..3).collect();
        assert!(close(&betweenness(&g, &all), &[0.0, 2.0, 0.0]));
    }

    #[test]
    fn diamond_splits_dependency() {
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(close(&betweenness(&g, &[0]), &[0.0, 0.5, 0.5, 0.0]));
    }

    #[test]
    fn star_hub_carries_everything() {
        // hub 0 connected to 4 leaves, undirected: 3 other endpoints per
        // source pass through the hub.
        let g = symmetrize(&from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]));
        let all: Vec<u32> = (0..5).collect();
        let bc = betweenness(&g, &all);
        assert!(bc[0] > 10.0, "hub centrality {}", bc[0]);
        assert!(bc[1..].iter().all(|&x| x.abs() < 1e-9));
    }
}

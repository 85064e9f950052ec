//! k-truss with immediately visible edge removals.
//!
//! Like LAGraph, this is round-based: every surviving edge recomputes its
//! support each round. Unlike LAGraph, a removal takes effect the moment
//! it happens — later support computations *in the same round* already see
//! the edge as gone (Gauss-Seidel iteration). The paper measures that
//! LAGraph's end-of-round visibility (Jacobi) costs ~1.6x more rounds.
//! No support matrix is materialized: support is a scalar in the loop.

use graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};

/// Result of the graph-API ktruss computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KtrussResult {
    /// Directed edges remaining (each undirected edge counts twice).
    pub edges_remaining: usize,
    /// Rounds until stabilization.
    pub rounds: u32,
}

/// Computes the k-truss of a **symmetric, loop-free** graph.
///
/// # Panics
///
/// Panics if `k < 3`.
pub fn ktruss(g: &CsrGraph, k: u32) -> KtrussResult {
    assert!(k >= 3, "k-truss requires k >= 3");
    let needed = (k - 2) as usize;
    let pm = perfmon::probe();
    let m = g.num_edges();
    let alive: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(true)).collect();

    // Locates the slot of edge (u, v) via binary search in u's sorted
    // neighbor list.
    let edge_slot = |u: NodeId, v: NodeId| -> Option<usize> {
        let range = g.edge_range(u);
        let nbrs = g.neighbor_slice(u);
        nbrs.binary_search(&v).ok().map(|p| range.start + p)
    };

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let removed = galois_rt::ReduceLogicalOr::new();
        galois_rt::do_all(0..g.num_nodes(), |v| {
            let v = v as NodeId;
            for e in g.edge_range(v) {
                let u = g.edge_dst(e);
                // Process each undirected edge once per round.
                if u <= v {
                    continue;
                }
                pm.touch_ref(&alive[e]);
                if !alive[e].load(Ordering::Relaxed) {
                    continue;
                }
                // Count triangles through currently-alive edges; bail out
                // early once the edge clearly survives.
                let mut support = 0usize;
                let (mut p, mut q) = (g.edge_range(v).start, g.edge_range(u).start);
                let (pe, qe) = (g.edge_range(v).end, g.edge_range(u).end);
                while p < pe && q < qe && support < needed {
                    pm.instr(2);
                    pm.touch_ref(&g.dests()[p]);
                    pm.touch_ref(&g.dests()[q]);
                    let (a, b) = (g.edge_dst(p), g.edge_dst(q));
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            // Triangle v-u-a: all three edges must be alive.
                            if alive[p].load(Ordering::Relaxed)
                                && alive[q].load(Ordering::Relaxed)
                            {
                                support += 1;
                            }
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if support < needed {
                    // Remove both directions immediately (visible to all
                    // threads within this round).
                    alive[e].store(false, Ordering::Relaxed);
                    if let Some(rev) = edge_slot(u, v) {
                        alive[rev].store(false, Ordering::Relaxed);
                    }
                    removed.update(true);
                }
            }
        });
        if !removed.reduce() {
            break;
        }
    }

    let edges_remaining = alive
        .iter()
        .filter(|a| a.load(Ordering::Relaxed))
        .count();
    KtrussResult {
        edges_remaining,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::GraphBuilder;
    use graph::transform::symmetrize;

    fn sym(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.push_edge(s, d, 1);
        }
        symmetrize(&b.build())
    }

    fn k4() -> CsrGraph {
        sym(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
    }

    #[test]
    fn k4_is_a_4_truss_but_not_5() {
        assert_eq!(ktruss(&k4(), 4).edges_remaining, 12);
        assert_eq!(ktruss(&k4(), 5).edges_remaining, 0);
    }

    #[test]
    fn pendant_edge_is_pruned() {
        let g = sym(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        assert_eq!(ktruss(&g, 3).edges_remaining, 6);
    }

    #[test]
    fn matches_lagraph_on_web_graphs() {
        for seed in 0..2 {
            let g = symmetrize(&graph::gen::web_crawl(3, 40, seed));
            for k in [3, 4, 5] {
                let ls = ktruss(&g, k);
                let gb = lagraph::ktruss::ktruss(&g, k, graphblas::GaloisRuntime).unwrap();
                assert_eq!(
                    ls.edges_remaining, gb.edges_remaining,
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn immediate_visibility_converges_in_no_more_rounds() {
        // The Gauss-Seidel version should never need more rounds than the
        // Jacobi (LAGraph) version.
        let g = symmetrize(&graph::gen::community(120, 10, 1).into_unweighted());
        let ls = ktruss(&g, 4);
        let gb = lagraph::ktruss::ktruss(&g, 4, graphblas::GaloisRuntime).unwrap();
        assert_eq!(ls.edges_remaining, gb.edges_remaining);
        assert!(ls.rounds <= gb.rounds, "ls {} vs gb {}", ls.rounds, gb.rounds);
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn rejects_small_k() {
        let _ = ktruss(&k4(), 2);
    }
}

//! k-truss via round-based support pruning.
//!
//! Each round recomputes every surviving edge's support with a masked
//! SpGEMM (`C<C,struct> = C ⊗ Cᵀ` under the `plus_land` semiring) and then
//! drops edges with support `< k − 2` in a separate select pass. Edge
//! removals only become visible at the *end* of a round (Jacobi
//! iteration) — the paper measures that this costs the matrix version
//! ~1.6x more rounds than Lonestar's immediately-visible removals
//! (Gauss-Seidel), on top of materializing the support matrix every
//! round.

use graph::CsrGraph;
use graphblas::binops::PlusLand;
use graphblas::{ops, Descriptor, GrbError, Matrix, Runtime};

/// Result of the matrix-based ktruss computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KtrussResult {
    /// Directed edges remaining in the k-truss (each undirected edge
    /// counts twice).
    pub edges_remaining: usize,
    /// Rounds until the edge set stabilized.
    pub rounds: u32,
}

/// Computes the k-truss of a **symmetric, loop-free** graph.
///
/// # Panics
///
/// Panics if `k < 3` (the smallest meaningful truss).
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn ktruss<R: Runtime>(g: &CsrGraph, k: u32, rt: R) -> Result<KtrussResult, GrbError> {
    assert!(k >= 3, "k-truss requires k >= 3");
    let support_needed = u64::from(k - 2);
    let mut c: Matrix<u64> = Matrix::from_graph(g, |_| 1);

    let desc = Descriptor::new()
        .with_mask_structural(true)
        .with_transpose_b(true);

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        // Pass 1: materialize the support matrix S(i,j) = |N(i) ∩ N(j)|
        // for surviving edges (i,j).
        let support = ops::mxm(Some(&c), PlusLand, &c, &c, &desc, rt)?;
        // Pass 2: keep edges with enough support. The surviving entries
        // hold their supports, which are non-zero, so the next round's
        // `plus_land` semiring treats them as present — no value-reset
        // pass is needed.
        let before = c.nvals();
        c = ops::select_matrix(&support, |_, _, s| s >= support_needed, rt);
        if c.nvals() == before {
            break;
        }
        if c.nvals() == 0 {
            break;
        }
    }

    Ok(KtrussResult {
        edges_remaining: c.nvals(),
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::GraphBuilder;
    use graph::transform::symmetrize;
    use graphblas::{GaloisRuntime, StaticRuntime};

    fn sym(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.push_edge(s, d, 1);
        }
        symmetrize(&b.build())
    }

    /// K4: every edge is in two triangles, so it is a 4-truss.
    fn k4() -> CsrGraph {
        sym(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
    }

    #[test]
    fn k4_is_a_4_truss() {
        let r = ktruss(&k4(), 4, GaloisRuntime).unwrap();
        assert_eq!(r.edges_remaining, 12, "all 6 undirected edges survive");
    }

    #[test]
    fn k4_is_not_a_5_truss() {
        let r = ktruss(&k4(), 5, GaloisRuntime).unwrap();
        assert_eq!(r.edges_remaining, 0);
    }

    #[test]
    fn pendant_edges_are_pruned_at_k3() {
        // triangle 0-1-2 plus pendant edge 2-3
        let g = sym(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let r = ktruss(&g, 3, GaloisRuntime).unwrap();
        assert_eq!(r.edges_remaining, 6, "only the triangle survives");
    }

    #[test]
    fn cascading_removal_takes_multiple_rounds() {
        // Two triangles sharing a vertex plus a tail: 0-1-2, 2-3-4, 4-5.
        let g = sym(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)], 6);
        let r = ktruss(&g, 3, GaloisRuntime).unwrap();
        assert_eq!(r.edges_remaining, 12, "both triangles survive");
        assert!(r.rounds >= 2, "pruning the tail takes a round");
    }

    #[test]
    fn backends_agree() {
        let g = symmetrize(&graph::gen::web_crawl(3, 40, 3));
        let ss = ktruss(&g, 4, StaticRuntime).unwrap();
        let gb = ktruss(&g, 4, GaloisRuntime).unwrap();
        assert_eq!(ss.edges_remaining, gb.edges_remaining);
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn rejects_small_k() {
        let _ = ktruss(&k4(), 2, GaloisRuntime);
    }
}

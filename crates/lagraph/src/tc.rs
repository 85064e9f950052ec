//! Triangle counting: SandiaDot (`tc-gb`, `tc-gb-sort`) and triangle
//! listing on a degree-sorted DAG (`tc-gb-ll`).
//!
//! Both compute `Σ C` where `C<mask> = L ⊗.⊕ Uᵀ` under the `plus_pair`
//! semiring — i.e. for each edge, the size of the endpoints' neighbor
//! intersection. The matrix API must *materialize* `C` (one entry per
//! surviving edge) and then run a second reduction pass to total it; the
//! Lonestar version just bumps a counter inside the intersection loop.
//! That per-edge intermediate is the *materialization* overhead of §V-B.

use graph::transform::{lower_triangular, upper_triangular};
use graph::CsrGraph;
use graphblas::binops::{Plus, PlusPair};
use graphblas::{ops, Descriptor, GrbError, Matrix, Runtime};

/// Result of a matrix-based triangle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcResult {
    /// Number of triangles.
    pub triangles: u64,
    /// Explicit entries materialized in the intermediate matrix `C`
    /// (the quantity Lonestar never allocates).
    pub materialized_nvals: usize,
}

/// SandiaDot triangle counting on a **symmetric, loop-free** graph:
/// `C<L,struct> = L · Uᵀ (plus_pair)`, `Σ C`.
///
/// Run on a degree-relabeled graph this is the paper's `tc-gb-sort`
/// variant; on the raw graph it is `tc-gb`.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn tc_sandia_dot<R: Runtime>(g: &CsrGraph, rt: R) -> Result<TcResult, GrbError> {
    // Materialize the triangular halves — the "additional matrices derived
    // from the original graph" of the paper's memory analysis (§V-A3).
    let lower = upper_lower(g);
    let (l, u) = (&lower.0, &lower.1);
    let desc = Descriptor::new()
        .with_mask_structural(true)
        .with_transpose_b(true);
    let c = ops::mxm(Some(l), PlusPair, l, u, &desc, rt)?;
    let triangles = ops::reduce_matrix(&c, Plus, rt);
    Ok(TcResult {
        triangles,
        materialized_nvals: c.nvals(),
    })
}

/// Triangle listing on a **degree-sorted, symmetric, loop-free** graph
/// (`tc-gb-ll`): orient each edge low→high id, then count
/// `C<D,struct> = D · Dᵀ (plus_pair)`.
///
/// Sorting bounds the oriented out-degrees, which is what lets this
/// variant avoid iterating over high-degree vertices (§V-B, tc).
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn tc_listing<R: Runtime>(sorted: &CsrGraph, rt: R) -> Result<TcResult, GrbError> {
    let d = Matrix::<u64>::from_graph_upper(sorted);
    let desc = Descriptor::new()
        .with_mask_structural(true)
        .with_transpose_b(true);
    let c = ops::mxm(Some(&d), PlusPair, &d, &d, &desc, rt)?;
    let triangles = ops::reduce_matrix(&c, Plus, rt);
    Ok(TcResult {
        triangles,
        materialized_nvals: c.nvals(),
    })
}

fn upper_lower(g: &CsrGraph) -> (Matrix<u64>, Matrix<u64>) {
    let l = lower_triangular(g);
    let u = upper_triangular(g);
    (
        Matrix::from_graph(&l, |_| 1),
        Matrix::from_graph(&u, |_| 1),
    )
}

/// Convenience: the strict upper triangle of a graph as a matrix.
trait UpperExt {
    fn from_graph_upper(g: &CsrGraph) -> Matrix<u64>;
}

impl UpperExt for Matrix<u64> {
    fn from_graph_upper(g: &CsrGraph) -> Matrix<u64> {
        Matrix::from_graph(&upper_triangular(g), |_| 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::GraphBuilder;
    use graph::transform::{sort_by_degree, symmetrize};
    use graphblas::{GaloisRuntime, StaticRuntime};

    fn sym(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.push_edge(s, d, 1);
        }
        symmetrize(&b.build())
    }

    fn naive_triangles(g: &CsrGraph) -> u64 {
        let mut count = 0u64;
        for v in 0..g.num_nodes() as u32 {
            for a in g.neighbors(v) {
                for b in g.neighbors(v) {
                    if a < b && a > v && g.neighbors(a).any(|x| x == b) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn one_triangle() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(tc_sandia_dot(&g, GaloisRuntime).unwrap().triangles, 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = sym(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(tc_sandia_dot(&g, GaloisRuntime).unwrap().triangles, 4);
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        let g = sym(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4); // 4-cycle
        let r = tc_sandia_dot(&g, GaloisRuntime).unwrap();
        assert_eq!(r.triangles, 0);
        assert_eq!(r.materialized_nvals, 0);
    }

    #[test]
    fn listing_matches_sandia_on_web_graph() {
        let g = symmetrize(&graph::gen::web_crawl(3, 50, 7));
        let sandia = tc_sandia_dot(&g, GaloisRuntime).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        let listing = tc_listing(&sorted, GaloisRuntime).unwrap();
        assert_eq!(sandia.triangles, listing.triangles);
        assert_eq!(sandia.triangles, naive_triangles(&g));
    }

    #[test]
    fn sorting_does_not_change_counts() {
        let g = symmetrize(&graph::gen::erdos_renyi(120, 700, 13));
        let raw = tc_sandia_dot(&g, GaloisRuntime).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        let srt = tc_sandia_dot(&sorted, GaloisRuntime).unwrap();
        assert_eq!(raw.triangles, srt.triangles);
    }

    #[test]
    fn backends_agree() {
        let g = symmetrize(&graph::gen::community(150, 12, 2).into_unweighted());
        let ss = tc_sandia_dot(&g, StaticRuntime).unwrap();
        let gb = tc_sandia_dot(&g, GaloisRuntime).unwrap();
        assert_eq!(ss.triangles, gb.triangles);
    }

    #[test]
    fn materialization_tracks_triangle_edges() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 3);
        let r = tc_sandia_dot(&g, GaloisRuntime).unwrap();
        assert!(r.materialized_nvals >= 1, "C holds per-edge counts");
    }
}

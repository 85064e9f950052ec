//! Betweenness centrality (Brandes) with the GraphBLAS API.
//!
//! The LAGraph formulation: the forward sweep is a sequence of masked
//! `vxm` calls whose per-level frontiers (path-count vectors) must all be
//! **materialized and kept** for the backward sweep; the backward sweep
//! then needs four more bulk passes per level (scale, restrict, pull,
//! accumulate). Contrast with `lonestar::bc`, which keeps the same
//! quantities in scalars inside two fused loops per level.

use graph::{CsrGraph, NodeId};
use graphblas::binops::{Div, First, Plus, PlusTimes, Times};
use graphblas::{ops, Descriptor, GrbError, Matrix, Runtime, Vector};

/// Result of the matrix-based betweenness computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// Per-vertex centrality (unnormalized, endpoints excluded).
    pub centrality: Vec<f64>,
    /// Vectors materialized for the backward sweep (one per bfs level per
    /// source) — state the graph API never allocates.
    pub materialized_vectors: usize,
}

/// Brandes betweenness from `sources` over unweighted shortest paths.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn betweenness<R: Runtime>(
    g: &CsrGraph,
    sources: &[NodeId],
    rt: R,
) -> Result<BcResult, GrbError> {
    let n = g.num_nodes();
    let a: Matrix<f64> = Matrix::from_graph(g, |_| 1.0);
    let mut centrality = Vector::new_dense(n, 0.0f64);
    let mut materialized_vectors = 0usize;

    for &s in sources {
        // paths: dense accumulated sigma; 0 marks unvisited (value mask).
        let mut paths: Vector<f64> = Vector::new_dense(n, 0.0);
        paths.set(s, 1.0)?;
        let mut frontier: Vector<f64> = Vector::new(n);
        frontier.set(s, 1.0)?;

        // Forward sweep: keep every level's path-count frontier.
        let mut sigma_levels: Vec<Vector<f64>> = vec![frontier.clone()];
        loop {
            let mut next: Vector<f64> = Vector::new(n);
            ops::vxm(
                &mut next,
                Some(&paths),
                PlusTimes,
                &frontier,
                &a,
                &Descriptor::replace_complement(),
                rt,
            )?;
            if next.nvals() == 0 {
                break;
            }
            // paths += next (union keeps old values, adds new sigmas).
            let mut new_paths: Vector<f64> = Vector::new(n);
            ops::ewise_add(&mut new_paths, Plus, &paths, &next, rt)?;
            paths = new_paths;
            sigma_levels.push(next.clone());
            materialized_vectors += 1;
            frontier = next;
        }

        // Backward sweep.
        let mut delta: Vector<f64> = Vector::new_dense(n, 0.0);
        for d in (1..sigma_levels.len()).rev() {
            // Pass 1: t = 1 + delta (dense apply).
            let mut t: Vector<f64> = Vector::new(n);
            ops::apply(&mut t, &delta, |x| 1.0 + x, rt)?;
            // Pass 2: t = t / paths (dense eWise).
            let mut scaled: Vector<f64> = Vector::new(n);
            ops::ewise_mult(&mut scaled, Div, &t, &paths, rt)?;
            // Pass 3: restrict to the level-d frontier structure.
            let mut w: Vector<f64> = Vector::new(n);
            ops::ewise_mult(&mut w, First, &scaled, &sigma_levels[d], rt)?;
            // Pass 4: pull contributions over out-edges: c = A · w.
            let mut c: Vector<f64> = Vector::new(n);
            ops::mxv(
                &mut c,
                None::<&Vector<f64>>,
                PlusTimes,
                &a,
                &w,
                &Descriptor::new(),
                rt,
            )?;
            // Pass 5: upd = paths .* c restricted to the level-(d-1)
            // frontier.
            let mut sc: Vector<f64> = Vector::new(n);
            ops::ewise_mult(&mut sc, Times, &paths, &c, rt)?;
            let mut upd: Vector<f64> = Vector::new(n);
            ops::ewise_mult(&mut upd, First, &sc, &sigma_levels[d - 1], rt)?;
            // Pass 6: delta += upd.
            let mut new_delta: Vector<f64> = Vector::new(n);
            ops::ewise_add(&mut new_delta, Plus, &delta, &upd, rt)?;
            delta = new_delta;
        }

        // centrality += delta, excluding the source.
        delta.set(s, 0.0)?;
        let mut new_centrality: Vector<f64> = Vector::new(n);
        ops::ewise_add(&mut new_centrality, Plus, &centrality, &delta, rt)?;
        centrality = new_centrality;
    }

    Ok(BcResult {
        centrality: (0..n as u32).map(|i| centrality.get(i).unwrap_or(0.0)).collect(),
        materialized_vectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;
    use graph::transform::symmetrize;
    use graphblas::{GaloisRuntime, StaticRuntime};

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn path_center_dominates() {
        let g = symmetrize(&from_edges(3, [(0, 1), (1, 2)]));
        let all: Vec<u32> = (0..3).collect();
        let r = betweenness(&g, &all, GaloisRuntime).unwrap();
        assert!(close(&r.centrality, &[0.0, 2.0, 0.0]), "{:?}", r.centrality);
    }

    #[test]
    fn diamond_splits_dependency() {
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = betweenness(&g, &[0], GaloisRuntime).unwrap();
        assert!(close(&r.centrality, &[0.0, 0.5, 0.5, 0.0]), "{:?}", r.centrality);
    }

    #[test]
    fn materialization_grows_with_depth() {
        // A longer path needs one kept vector per bfs level.
        let g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let r = betweenness(&g, &[0], GaloisRuntime).unwrap();
        assert_eq!(r.materialized_vectors, 5);
    }

    #[test]
    fn backends_agree() {
        let g = graph::gen::web_crawl(2, 25, 3);
        let sources: Vec<u32> = (0..5).collect();
        let ss = betweenness(&g, &sources, StaticRuntime).unwrap();
        let gb = betweenness(&g, &sources, GaloisRuntime).unwrap();
        assert!(close(&ss.centrality, &gb.centrality));
    }

    #[test]
    fn backends_are_bit_identical() {
        // The backward `c = A·w` folds each row in storage order on every
        // runtime, so the fractional dependencies add up the same way.
        let g = graph::gen::rmat(8, 8, graph::gen::RmatParams::default(), 6);
        let sources = [0, 3, 5];
        let bits = |r: BcResult| r.centrality.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ss = betweenness(&g, &sources, StaticRuntime).unwrap();
        let gb = betweenness(&g, &sources, GaloisRuntime).unwrap();
        assert_eq!(bits(ss), bits(gb));
    }
}

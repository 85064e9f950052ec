//! Single-source shortest paths: bulk-synchronous delta-stepping
//! (`sssp-gb`, LAGraph's delta-stepping variant).
//!
//! Buckets of width Δ are processed in order; within a bucket the
//! implementation iterates `vxm(min_plus)` relaxations until the bucket
//! stops changing. Every inner iteration is **four** separate bulk passes
//! (select actives → relax → filter improvements → fold into dist), and
//! there is a hard barrier between all of them — the paper's
//! *round-based execution* limitation, which costs over 100x against
//! asynchronous Lonestar delta-stepping on high-diameter road networks.

use graph::{CsrGraph, NodeId};
use graphblas::binops::{Min, MinPlus};
use graphblas::{ops, Accum, Descriptor, GrbError, Matrix, Runtime, Vector};

/// Distances produced by [`sssp_delta_stepping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    /// Per-vertex distance (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// Buckets processed.
    pub buckets: u32,
    /// Total inner (bulk-synchronous) rounds across all buckets.
    pub rounds: u32,
}

/// Runs bulk-synchronous delta-stepping from `src` with bucket width
/// `delta` on the weighted out-adjacency of `g`.
///
/// # Panics
///
/// Panics if `delta == 0`.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn sssp_delta_stepping<R: Runtime>(
    g: &CsrGraph,
    src: NodeId,
    delta: u64,
    rt: R,
) -> Result<SsspResult, GrbError> {
    assert!(delta > 0, "delta must be positive");
    let n = g.num_nodes();
    let a: Matrix<u64> = Matrix::from_graph(g, u64::from);

    let mut dist: Vector<u64> = Vector::new(n);
    ops::assign_scalar(&mut dist, None::<&Vector<bool>>, u64::MAX, &Descriptor::new(), rt)?;
    dist.set(src, 0)?;

    let mut bucket = 0u64;
    let mut buckets = 0u32;
    let mut rounds = 0u32;
    loop {
        buckets += 1;
        let lower = bucket.saturating_mul(delta);
        let upper = lower.saturating_add(delta);

        // Pass: gather this bucket's active vertices from dist.
        let mut active: Vector<u64> = Vector::new(n);
        ops::select_vector(&mut active, &dist, |_, d| d >= lower && d < upper, rt);

        while active.nvals() > 0 {
            rounds += 1;
            // Pass 1: relax all out-edges of the active vertices.
            let mut cand: Vector<u64> = Vector::new(n);
            ops::vxm(
                &mut cand,
                None::<&Vector<u64>>,
                MinPlus,
                &active,
                &a,
                &Descriptor::new().with_replace(true),
                rt,
            )?;
            // Pass 2: keep candidates that actually improve dist.
            let mut improved: Vector<u64> = Vector::new(n);
            ops::select_vector(
                &mut improved,
                &cand,
                |i, v| v < dist.get(i).unwrap_or(u64::MAX),
                rt,
            );
            if improved.nvals() == 0 {
                break;
            }
            // Pass 3: fold the improvements into dist (`dist min= improved`,
            // LAGraph's accumulated assign): dist stays dense and the
            // fold touches only the improved entries.
            ops::apply(Accum(&mut dist, Min), &improved, |d| d, rt)?;
            // Pass 4: re-activate improved vertices still in this bucket.
            let mut next_active: Vector<u64> = Vector::new(n);
            ops::select_vector(&mut next_active, &improved, |_, v| v < upper, rt);
            active = next_active;
        }

        // Find the next non-empty bucket among unsettled vertices.
        let mut rest: Vector<u64> = Vector::new(n);
        ops::select_vector(&mut rest, &dist, |_, d| d >= upper && d < u64::MAX, rt);
        if rest.nvals() == 0 {
            break;
        }
        let min_rest = ops::reduce_vector(&rest, Min, rt);
        bucket = min_rest / delta;
    }

    let dist = (0..n as u32)
        .map(|i| dist.get(i).unwrap_or(u64::MAX))
        .collect();
    Ok(SsspResult {
        dist,
        buckets,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_weighted_edges;
    use graphblas::{GaloisRuntime, StaticRuntime};

    #[test]
    fn shortest_paths_on_weighted_diamond() {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 2 -> 3 (1), 1 -> 3 (9)
        let g = from_weighted_edges(4, [(0, 1, 1), (0, 2, 4), (1, 2, 1), (2, 3, 1), (1, 3, 9)]);
        let r = sssp_delta_stepping(&g, 0, 4, GaloisRuntime).unwrap();
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        let g = from_weighted_edges(3, [(0, 1, 5)]);
        let r = sssp_delta_stepping(&g, 0, 8, GaloisRuntime).unwrap();
        assert_eq!(r.dist, vec![0, 5, u64::MAX]);
    }

    #[test]
    fn small_delta_creates_many_buckets() {
        let g = from_weighted_edges(4, [(0, 1, 10), (1, 2, 10), (2, 3, 10)]);
        let small = sssp_delta_stepping(&g, 0, 1, GaloisRuntime).unwrap();
        let large = sssp_delta_stepping(&g, 0, 1000, GaloisRuntime).unwrap();
        assert_eq!(small.dist, large.dist);
        assert!(small.buckets > large.buckets);
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let g = graph::gen::erdos_renyi(150, 600, 9).with_random_weights(50, 9);
        let r = sssp_delta_stepping(&g, 0, 16, GaloisRuntime).unwrap();
        // simple serial Dijkstra reference
        let n = g.num_nodes();
        let mut dist = vec![u64::MAX; n];
        dist[0] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, 0u32)));
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
        assert_eq!(r.dist, dist);
    }

    #[test]
    fn backends_agree() {
        let g = graph::gen::grid_road(12, 9, 4);
        let ss = sssp_delta_stepping(&g, 0, 1 << 13, StaticRuntime).unwrap();
        let gb = sssp_delta_stepping(&g, 0, 1 << 13, GaloisRuntime).unwrap();
        assert_eq!(ss.dist, gb.dist);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_zero_delta() {
        let g = from_weighted_edges(2, [(0, 1, 1)]);
        let _ = sssp_delta_stepping(&g, 0, 0, GaloisRuntime);
    }
}

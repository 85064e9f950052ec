//! Residual PageRank with fused loops: array-of-structs (`pr-ls`) and
//! structure-of-arrays (`pr-ls-soa`).
//!
//! Same mathematics as `lagraph::pagerank` (fixed-iteration power method
//! carried through residuals), but each round is **one** fused loop: the
//! rank update and the residual-by-out-degree scaling happen in a single
//! pass over the vertex data, where the matrix API needs two calls and
//! two traversals of the residual vector (§V-B, pr).
//!
//! The two variants differ only in data layout. Both gather neighbor
//! contributions from a packed double-buffered array; the per-vertex
//! state (`rank`, `residual`, `inv_deg`) lives in **one struct** for
//! `pr-ls` (all three fields on the same cache line) and in **three
//! separate arrays** for `pr-ls-soa` (three lines touched per vertex).
//! That is the locality control the paper notes a matrix API does not
//! expose (Figure 3(a): `ls` beats `ls-soa`).

use galois_rt::substrate::ParSlice;
use graph::CsrGraph;

/// Damping factor used throughout the study.
pub const DAMPING: f64 = 0.85;

/// Per-vertex state of the AoS variant: everything the fused loop writes
/// for a vertex sits on one cache-line stride.
#[derive(Debug, Clone, Copy, Default)]
struct NodeData {
    rank: f64,
    residual: f64,
    inv_deg: f64,
}

fn initial(n: usize) -> f64 {
    (1.0 - DAMPING) / n as f64
}

/// Residual pagerank, array-of-structs layout (`pr-ls`).
///
/// `gt` is the transpose (in-adjacency) of the graph and `out_degree` the
/// original out-degrees; both are preprocessing the study excludes from
/// timing.
///
/// # Panics
///
/// Panics if `out_degree.len() != gt.num_nodes()`.
pub fn pagerank(gt: &CsrGraph, out_degree: &[u32], iters: u32) -> Vec<f64> {
    let pm = perfmon::probe();
    let n = gt.num_nodes();
    assert_eq!(out_degree.len(), n, "out_degree must cover every vertex");
    let init = initial(n);
    let mut data: Vec<NodeData> = (0..n)
        .map(|v| NodeData {
            rank: init,
            residual: init,
            inv_deg: if out_degree[v] > 0 {
                1.0 / f64::from(out_degree[v])
            } else {
                0.0
            },
        })
        .collect();
    // Packed contribution buffers: contrib[v] = residual(v) / deg(v).
    let mut contrib_cur: Vec<f64> = data.iter().map(|d| d.residual * d.inv_deg).collect();
    let mut contrib_next = vec![0.0f64; n];

    for _ in 0..iters {
        {
            let pd = ParSlice::new(&mut data);
            let pn = ParSlice::new(&mut contrib_next);
            let cur: &[f64] = &contrib_cur;
            galois_rt::do_all(0..n, |v| {
                let mut acc = 0.0;
                for e in gt.edge_range(v as u32) {
                    let u = gt.edge_dst(e) as usize;
                    pm.instr(2);
                    pm.touch_ref(&cur[u]);
                    acc += cur[u];
                }
                let new_res = DAMPING * acc;
                // SAFETY: one writer per vertex index.
                unsafe {
                    pm.instr(3);
                    pm.touch(pd.addr_of(v));
                    let node = pd.get_mut(v);
                    // The fused composite operation on one struct: rank
                    // update AND residual scaling, fields co-located.
                    node.rank += new_res;
                    node.residual = new_res;
                    pn.write(v, new_res * node.inv_deg);
                }
            });
        }
        std::mem::swap(&mut contrib_cur, &mut contrib_next);
    }

    data.into_iter().map(|d| d.rank).collect()
}

/// Residual pagerank, structure-of-arrays layout (`pr-ls-soa`): identical
/// fused loop, but `rank`, `residual` and `inv_deg` live in three
/// separate arrays — three cache lines touched per vertex where the AoS
/// variant touches one.
///
/// # Panics
///
/// Panics if `out_degree.len() != gt.num_nodes()`.
pub fn pagerank_soa(gt: &CsrGraph, out_degree: &[u32], iters: u32) -> Vec<f64> {
    let pm = perfmon::probe();
    let n = gt.num_nodes();
    assert_eq!(out_degree.len(), n, "out_degree must cover every vertex");
    let init = initial(n);
    let mut rank = vec![init; n];
    let mut residual = vec![init; n];
    let inv_deg: Vec<f64> = (0..n)
        .map(|v| {
            if out_degree[v] > 0 {
                1.0 / f64::from(out_degree[v])
            } else {
                0.0
            }
        })
        .collect();
    let mut contrib_cur: Vec<f64> = (0..n).map(|v| residual[v] * inv_deg[v]).collect();
    let mut contrib_next = vec![0.0f64; n];

    for _ in 0..iters {
        {
            let pr = ParSlice::new(&mut rank);
            let pres = ParSlice::new(&mut residual);
            let pn = ParSlice::new(&mut contrib_next);
            let cur: &[f64] = &contrib_cur;
            let inv: &[f64] = &inv_deg;
            galois_rt::do_all(0..n, |v| {
                let mut acc = 0.0;
                for e in gt.edge_range(v as u32) {
                    let u = gt.edge_dst(e) as usize;
                    pm.instr(2);
                    pm.touch_ref(&cur[u]);
                    acc += cur[u];
                }
                let new_res = DAMPING * acc;
                // SAFETY: one writer per vertex index.
                unsafe {
                    pm.instr(3);
                    pm.touch(pr.addr_of(v));
                    pm.touch(pres.addr_of(v));
                    pm.touch_ref(&inv[v]);
                    *pr.get_mut(v) += new_res;
                    pres.write(v, new_res);
                    pn.write(v, new_res * inv[v]);
                }
            });
        }
        std::mem::swap(&mut contrib_cur, &mut contrib_next);
    }

    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::transform::transpose;

    fn degrees(g: &CsrGraph) -> Vec<u32> {
        (0..g.num_nodes() as u32).map(|v| g.out_degree(v) as u32).collect()
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn aos_and_soa_agree_exactly() {
        let g = graph::gen::rmat(8, 8, graph::gen::RmatParams::default(), 2);
        let gt = transpose(&g);
        let deg = degrees(&g);
        let a = pagerank(&gt, &deg, 10);
        let b = pagerank_soa(&gt, &deg, 10);
        assert!(close(&a, &b, 1e-15));
    }

    #[test]
    fn matches_lagraph_values() {
        let g = graph::gen::web_crawl(2, 40, 5);
        let gt = transpose(&g);
        let deg = degrees(&g);
        let ls = pagerank(&gt, &deg, 10);
        let gb = lagraph::pagerank::pagerank(&gt, &deg, 10, graphblas::GaloisRuntime).unwrap();
        assert!(close(&ls, &gb, 1e-12), "fused and bulk must agree");
        let gb_res =
            lagraph::pagerank::pagerank_residual(&gt, &deg, 10, graphblas::GaloisRuntime)
                .unwrap();
        assert!(close(&ls, &gb_res, 1e-12));
    }

    #[test]
    fn star_concentrates_rank() {
        let g = graph::builder::from_edges(4, [(1, 0), (2, 0), (3, 0), (0, 1)]);
        let gt = transpose(&g);
        let pr = pagerank(&gt, &degrees(&g), 20);
        assert!(pr[0] > pr[2] && pr[0] > pr[3]);
    }

    #[test]
    fn dangling_vertices_do_not_nan() {
        let g = graph::builder::from_edges(3, [(0, 1), (0, 2)]);
        let gt = transpose(&g);
        let pr = pagerank(&gt, &degrees(&g), 10);
        assert!(pr.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out_degree must cover")]
    fn rejects_mismatched_degrees() {
        let g = graph::builder::from_edges(3, [(0, 1)]);
        let gt = transpose(&g);
        let _ = pagerank(&gt, &[1, 0], 1);
    }
}

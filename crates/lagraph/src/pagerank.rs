//! PageRank: topology-driven (`pr-gb`) and residual-based (`pr-gb-res`).
//!
//! Both run the same power iteration
//! `pr' = (1-d)/n + d · Σ_{u→v} pr(u)/deg(u)` for a fixed number of
//! rounds (the study runs pr for 10 iterations). The residual variant
//! carries the per-round delta in a separate vector; mathematically it
//! produces identical values, but — as the paper's differential analysis
//! shows (§V-B, Table V) — the matrix API must touch the residual vector
//! in **two** separate API calls per round (update the rank, scale by the
//! out-degree), where the graph API fuses both into one loop.
//!
//! Both pull along in-edges over the prepared transpose: like LAGraph's
//! own pagerank they are handed `AT` and the out-degrees as cached graph
//! properties and call `GrB_mxv`, so each product has one writer per row
//! and a fixed in-row fold order — the result is bit-identical across
//! thread counts, runtimes and workspace modes. ([`ppr`] still pushes
//! along out-edges: its iterate starts as a single entry.)

use graph::CsrGraph;
use graphblas::binops::{Plus, PlusTimes, Times};
use graphblas::{ops, Descriptor, GrbError, KernelHint, Matrix, Runtime, Vector};

/// Damping factor used throughout the study.
pub const DAMPING: f64 = 0.85;

/// Builds the dense reciprocal vector of `n` degrees (dangling vertices
/// get an explicit 0 so they contribute nothing).
fn reciprocals(n: usize, degree: impl Fn(u32) -> usize) -> Result<Vector<f64>, GrbError> {
    let mut v = Vector::new_dense(n, 0.0);
    for i in 0..n as u32 {
        let d = degree(i);
        if d > 0 {
            v.set(i, 1.0 / d as f64)?;
        }
    }
    Ok(v)
}

/// The reciprocal-out-degree vector of a forward graph. Shared with the
/// batched multi-seed variant (`crate::batch`) and the incremental one.
pub(crate) fn inv_degree(g: &CsrGraph) -> Result<Vector<f64>, GrbError> {
    reciprocals(g.num_nodes(), |i| g.out_degree(i))
}

/// What both pull formulations derive from their inputs before round 1:
/// the in-adjacency matrix `AT` and the reciprocal out-degrees.
fn pull_operands(
    gt: &CsrGraph,
    out_degree: &[u32],
) -> Result<(Matrix<f64>, Vector<f64>), GrbError> {
    let n = gt.num_nodes();
    assert_eq!(out_degree.len(), n, "out_degree must cover every vertex");
    let at = Matrix::from_graph(gt, |_| 1.0);
    let inv_deg = reciprocals(n, |i| out_degree[i as usize] as usize)?;
    Ok((at, inv_deg))
}

/// The round's product, `incoming = AT · x`, as one `GrB_mxv`.
///
/// The descriptor names the pull kernel instead of leaving it to `auto`:
/// the topology iterate is fully dense and `auto` resolves it to pull
/// anyway, but the residual loses its entry on every row without
/// in-edges after round 1, which tips `auto`'s work estimate to a scatter
/// through `AT`'s own (lazily built) transpose — an atomic f64 fold whose
/// order follows the schedule. Naming the kernel keeps both formulations
/// on the same product and makes their bit-identity structural.
fn pull_product<R: Runtime>(
    incoming: &mut Vector<f64>,
    at: &Matrix<f64>,
    x: &Vector<f64>,
    rt: R,
) -> Result<(), GrbError> {
    ops::mxv(
        incoming,
        None::<&Vector<bool>>,
        PlusTimes,
        at,
        x,
        &Descriptor::new()
            .with_replace(true)
            .with_kernel(KernelHint::Pull),
        rt,
    )
}

/// Topology-driven LAGraph pagerank (`pr-gb` in the paper): `iters`
/// rounds of four bulk passes each (scale, spmv, damp, add-base).
///
/// `gt` is the transpose (in-adjacency) of the graph and `out_degree` the
/// original out-degrees — the inputs `lonestar::pagerank::pagerank`
/// takes, both preprocessing the study excludes from timing.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
///
/// # Panics
///
/// Panics if `out_degree.len() != gt.num_nodes()`.
pub fn pagerank<R: Runtime>(
    gt: &CsrGraph,
    out_degree: &[u32],
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = gt.num_nodes();
    let (at, inv_deg) = pull_operands(gt, out_degree)?;
    // Initialized at (1-d)/n so the fixed-iteration result matches the
    // residual formulation exactly (the paper aligned LAGraph's pr with
    // Lonestar's answer the same way).
    let base = Vector::new_dense(n, (1.0 - DAMPING) / n as f64);
    let mut pr = base.clone();

    // Round temporaries live outside the loop so warm iterations recycle
    // their dense stores instead of reallocating them; every pass below
    // fully overwrites its output.
    let mut contrib: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new(n);
    let mut next: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // Pass 1: contrib = pr .* (1/deg)
        ops::ewise_mult(&mut contrib, Times, &pr, &inv_deg, rt)?;
        // Pass 2: incoming = AT · contrib (pull along in-edges)
        pull_product(&mut incoming, &at, &contrib, rt)?;
        // Pass 3: damp
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // Pass 4: pr = base + damped incoming
        ops::ewise_add(&mut next, Plus, &base, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

/// Personalized PageRank seeded at one vertex: the same four bulk passes
/// per round as [`pagerank`], but the teleport vector is
/// `(1-d) · e_seed` instead of uniform, so rank mass radiates from the
/// seed. After `iters` rounds the iterate is the truncated series
/// `Σ_{t=0..iters} d^t (Mᵀ)^t b` with `b = (1-d)·e_seed` — the quantity
/// the batched multi-seed engine (`crate::batch::batched_ppr`) computes
/// per column.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls (only possible if
/// `seed` is out of range, or under a memory budget / fault plan).
pub fn ppr<R: Runtime>(
    g: &CsrGraph,
    seed: graph::NodeId,
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = g.num_nodes();
    let a: Matrix<f64> = Matrix::from_graph(g, |_| 1.0);
    let inv_deg = inv_degree(g)?;
    // The sparse teleport vector: all restart mass sits on the seed.
    let mut base: Vector<f64> = Vector::new(n);
    base.set(seed, 1.0 - DAMPING)?;
    let mut pr = base.clone();

    // Hoisted round temporaries (see `pagerank`): each pass fully
    // overwrites its output, so warm rounds reuse their stores.
    let mut contrib: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new(n);
    let mut next: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // Pass 1: contrib = pr .* (1/deg)
        ops::ewise_mult(&mut contrib, Times, &pr, &inv_deg, rt)?;
        // Pass 2: incoming = contribᵀ · A (push along out-edges)
        ops::vxm(
            &mut incoming,
            None::<&Vector<bool>>,
            PlusTimes,
            &contrib,
            &a,
            &Descriptor::new().with_replace(true),
            rt,
        )?;
        // Pass 3: damp
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // Pass 4: pr = base + damped incoming
        ops::ewise_add(&mut next, Plus, &base, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

/// Residual-based pagerank (`pr-gb-res`): identical math, carrying the
/// per-round residual explicitly like the Lonestar implementation. Takes
/// the same transpose and out-degrees as [`pagerank`].
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
///
/// # Panics
///
/// Panics if `out_degree.len() != gt.num_nodes()`.
pub fn pagerank_residual<R: Runtime>(
    gt: &CsrGraph,
    out_degree: &[u32],
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = gt.num_nodes();
    let (at, inv_deg) = pull_operands(gt, out_degree)?;
    let mut pr = Vector::new_dense(n, (1.0 - DAMPING) / n as f64);
    let mut residual = pr.clone();

    // Hoisted round temporaries (see `pagerank`): each pass fully
    // overwrites its output, so warm rounds reuse the dense stores.
    let mut scaled: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new(n);
    let mut next_pr: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // API call 1 on the residual: scale by the out-degree reciprocal.
        ops::ewise_mult(&mut scaled, Times, &residual, &inv_deg, rt)?;
        // Propagate: pull along in-edges.
        pull_product(&mut incoming, &at, &scaled, rt)?;
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // API call 2 on the residual: fold the new residual into the rank.
        ops::ewise_add(&mut next_pr, Plus, &pr, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next_pr);
        std::mem::swap(&mut residual, &mut incoming);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;
    use graphblas::{GaloisRuntime, StaticRuntime};

    /// The prepared inputs of the pull formulations: transpose and
    /// out-degrees of `g`.
    fn pull_inputs(g: &CsrGraph) -> (CsrGraph, Vec<u32>) {
        let deg = (0..g.num_nodes() as u32).map(|v| g.out_degree(v) as u32).collect();
        (graph::transform::transpose(g), deg)
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn uniform_cycle_has_uniform_rank() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (gt, deg) = pull_inputs(&g);
        let pr = pagerank(&gt, &deg, 10, GaloisRuntime).unwrap();
        // On a cycle the iterate stays uniform; after t rounds the value is
        // the truncated geometric series (1 - d^(t+1)) / n.
        let expected = (1.0 - DAMPING.powi(11)) / 4.0;
        assert!(close(&pr, &[expected; 4], 1e-12), "{pr:?}");
        // And it converges to 1/n with more rounds.
        let pr200 = pagerank(&gt, &deg, 200, GaloisRuntime).unwrap();
        assert!(close(&pr200, &[0.25; 4], 1e-9), "{pr200:?}");
    }

    #[test]
    fn sink_like_vertex_accumulates_rank() {
        // star into vertex 3
        let g = from_edges(4, [(0, 3), (1, 3), (2, 3), (3, 0)]);
        let (gt, deg) = pull_inputs(&g);
        let pr = pagerank(&gt, &deg, 20, GaloisRuntime).unwrap();
        assert!(pr[3] > pr[0] && pr[3] > pr[1] && pr[3] > pr[2], "{pr:?}");
    }

    #[test]
    fn residual_variant_matches_topology_variant() {
        let g = graph::gen::rmat(7, 8, graph::gen::RmatParams::default(), 3);
        let (gt, deg) = pull_inputs(&g);
        let a = pagerank(&gt, &deg, 10, GaloisRuntime).unwrap();
        let b = pagerank_residual(&gt, &deg, 10, GaloisRuntime).unwrap();
        assert!(close(&a, &b, 1e-12), "residual formulation is exact");
    }

    #[test]
    fn backends_agree() {
        let g = graph::gen::web_crawl(2, 30, 1);
        let (gt, deg) = pull_inputs(&g);
        let ss = pagerank(&gt, &deg, 10, StaticRuntime).unwrap();
        let gb = pagerank(&gt, &deg, 10, GaloisRuntime).unwrap();
        assert_eq!(ss, gb, "one writer per row, fixed in-row fold order");
    }

    #[test]
    fn ppr_mass_decays_along_a_path() {
        // One out-edge per vertex: pr[i] = (1-d) * d^i after >= i rounds.
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let pr = ppr(&g, 0, 10, GaloisRuntime).unwrap();
        let expect: Vec<f64> = (0..4).map(|i| 0.15 * DAMPING.powi(i)).collect();
        assert!(close(&pr, &expect, 1e-12), "{pr:?}");
    }

    #[test]
    fn ppr_seed_zero_rounds_is_the_teleport_vector() {
        let g = from_edges(3, [(0, 1), (1, 2)]);
        let pr = ppr(&g, 1, 0, GaloisRuntime).unwrap();
        assert!(close(&pr, &[0.0, 0.15, 0.0], 1e-15), "{pr:?}");
    }

    #[test]
    fn ppr_backends_agree_bitwise() {
        let g = graph::gen::web_crawl(2, 30, 1);
        let ss = ppr(&g, 5, 10, StaticRuntime).unwrap();
        let gb = ppr(&g, 5, 10, GaloisRuntime).unwrap();
        assert_eq!(ss, gb, "per-lane execution is deterministic");
    }

    #[test]
    fn ranks_sum_to_at_most_one() {
        // (dangling mass leaks, so the sum is <= 1)
        let g = from_edges(5, [(0, 1), (1, 2), (3, 2)]);
        let (gt, deg) = pull_inputs(&g);
        let pr = pagerank(&gt, &deg, 10, GaloisRuntime).unwrap();
        let total: f64 = pr.iter().sum();
        assert!(total <= 1.0 + 1e-9 && total > 0.2, "total {total}");
    }
}

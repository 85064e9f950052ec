//! Connected components via bounded pointer jumping (the FastSV-style
//! `cc-gb` variant).
//!
//! The paper's point for cc (§V-B): a matrix API can only perform a
//! *fixed* number of pointer-jumping steps per round as bulk operations,
//! whereas the graph API can short-circuit each vertex's parent chain
//! arbitrarily far (`cc-ls-sv`) or sample vertices (Afforest, `cc-ls`).
//! This implementation does the canonical bulk loop: min-label hooking
//! over edges (`mxv` with the `min_second` semiring), one bulk
//! pointer-jumping `extract` per round, and a bulk convergence reduction.

use graph::CsrGraph;
use graphblas::binops::{Min, MinSecond, Ne, Plus};
use graphblas::{ops, Accum, Descriptor, GrbError, Matrix, Runtime, Vector};

/// Result of the matrix-based connected-components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// Per-vertex component label (the minimum vertex id in the
    /// component).
    pub component: Vec<u32>,
    /// Number of bulk rounds executed.
    pub rounds: u32,
}

/// Computes weakly-connected components of a **symmetric** graph.
///
/// The caller symmetrizes directed inputs first (the study does this as
/// untimed preprocessing for cc/tc/ktruss).
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn connected_components<R: Runtime>(g: &CsrGraph, rt: R) -> Result<CcResult, GrbError> {
    connected_components_from(g, None, rt)
}

/// [`connected_components`] with an optional warm-start labeling.
///
/// `init[i]` must be a vertex id in `i`'s component with
/// `init[init[i]] == init[i]` and `init[i] <= i` — exactly what a
/// previous converged run's labels satisfy after insert-only updates
/// (each old component stays connected, its minimum stays a root). The
/// hooking loop then converges to the component-wise minimum of the
/// initial labels, which is the new per-component minimum vertex id; on
/// an already-converged labeling it terminates after one verification
/// round. `None` starts from the identity labeling (a full recompute).
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn connected_components_from<R: Runtime>(
    g: &CsrGraph,
    init: Option<&[u32]>,
    rt: R,
) -> Result<CcResult, GrbError> {
    let n = g.num_nodes();
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);

    // parent f = warm labels or identity, dense.
    let mut f: Vector<u32> = Vector::new(n);
    ops::assign_scalar(&mut f, None::<&Vector<bool>>, 0, &Descriptor::new(), rt)?;
    for i in 0..n as u32 {
        let l = match init {
            Some(labels) => labels[i as usize],
            None => i,
        };
        f.set(i, l)?;
    }

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        // Pass 1 (hooking): hooked = min(f, mngp), mngp[i] being the
        // min over in-neighbors j of f[j] — one min-accumulated `mxv`
        // into a copy of f, as LAGraph's FastSV accumulates its hooks.
        let mut hooked = f.clone();
        ops::mxv(
            Accum(&mut hooked, Min),
            None::<&Vector<u32>>,
            MinSecond,
            &a,
            &f,
            &Descriptor::new(),
            rt,
        )?;
        // Pass 2 (one bulk pointer-jumping step): f' = hooked[hooked].
        let indices: Vec<u32> = (0..n as u32)
            .map(|i| {
                hooked.get(i).ok_or(GrbError::IndexOutOfBounds {
                    index: i as usize,
                    bound: n,
                })
            })
            .collect::<Result<_, _>>()?;
        let mut jumped: Vector<u32> = Vector::new(n);
        ops::extract(&mut jumped, &hooked, &indices, rt)?;
        // Pass 3 (convergence): any label changed?
        let mut diff: Vector<u32> = Vector::new(n);
        ops::ewise_add(&mut diff, Ne, &f, &jumped, rt)?;
        let changed = ops::reduce_vector(&diff, Plus, rt);
        f = jumped;
        if changed == 0 {
            break;
        }
    }

    let component = (0..n as u32)
        .map(|i| {
            f.get(i).ok_or(GrbError::IndexOutOfBounds {
                index: i as usize,
                bound: n,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(CcResult { component, rounds })
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

    #[test]
    fn two_components() {
        let g = sym(&[(0, 1), (1, 2), (3, 4)], 5);
        let r = connected_components(&g, GaloisRuntime).unwrap();
        assert_eq!(r.component, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let g = sym(&[(0, 1)], 4);
        let r = connected_components(&g, GaloisRuntime).unwrap();
        assert_eq!(r.component, vec![0, 0, 2, 3]);
    }

    #[test]
    fn long_chain_converges() {
        let n = 200;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = sym(&edges, n as usize);
        let r = connected_components(&g, GaloisRuntime).unwrap();
        assert!(r.component.iter().all(|&c| c == 0));
        assert!(
            r.rounds < 20,
            "pointer jumping must converge in O(log n) rounds, took {}",
            r.rounds
        );
    }

    #[test]
    fn backends_agree_on_random_graph() {
        let g = symmetrize(&graph::gen::erdos_renyi(200, 300, 5));
        let ss = connected_components(&g, StaticRuntime).unwrap();
        let gb = connected_components(&g, GaloisRuntime).unwrap();
        assert_eq!(ss.component, gb.component);
    }

    #[test]
    fn labels_are_component_minima() {
        let g = sym(&[(5, 9), (9, 7), (1, 2)], 10);
        let r = connected_components(&g, GaloisRuntime).unwrap();
        assert_eq!(r.component[5], 5);
        assert_eq!(r.component[9], 5);
        assert_eq!(r.component[7], 5);
        assert_eq!(r.component[1], 1);
        assert_eq!(r.component[2], 1);
    }
}

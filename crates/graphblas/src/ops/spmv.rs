//! Sparse matrix-vector products: `GrB_vxm` (push) and `GrB_mxv` (pull).
//!
//! As §II-C of the paper lays out, `w = uᵀA` with a sparse `u` is one
//! round of a round-based data-driven algorithm executed push-style
//! (SAXPY), while `w = A·u` iterated over rows is the pull-style SDOT
//! form. The push kernel materializes a dense accumulator per call — the
//! *materialization* cost the paper measures.
//!
//! Both entry points now route through [`super::kernels`]: under
//! [`super::kernels::KernelMode::Push`] (or a forced descriptor hint)
//! they run the paper's single-strategy kernels above, while `auto` may
//! substitute a sparse-accumulator scatter or a masked pull over the
//! cached transpose when operand sparsity favors it. The push-dense
//! accumulator is allocated per call, as the paper's is; entry lists
//! come from the workspace pool ([`crate::workspace`]).

use super::kernels;
use super::write::{Output, WriteBack};
use crate::binops::{BinOp, SemiringOps};
use crate::descriptor::Descriptor;
use crate::error::{dim_mismatch, GrbError};
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::ParSlice;
use crate::vector::Vector;
use perfmon::trace::KernelChoice;

/// What one span-free lane execution reports back to the caller that
/// owns the trace span (the [`vxm`] entry point, or the batched
/// multi-frontier advance aggregating k lanes into one span).
pub(crate) struct LaneRun {
    /// Explicit entries of the input vector.
    pub(crate) input_nnz: usize,
    /// Accumulator footprint the executed kernel materialized.
    pub(crate) accumulator_bytes: u64,
    /// The kernel-selection outcome (choice + heuristic inputs).
    pub(crate) selection: kernels::Selection,
}

/// The span-free body of [`vxm`]: dimension checks, kernel selection,
/// the per-call fault/budget gate and the kernel dispatch for exactly
/// one column. Shared verbatim by the serial entry point and each lane
/// of [`super::batch::mxm_frontier`], so a batched column executes the
/// identical code path as a serial call — including the
/// `grb.alloc.accumulator` fault point, which therefore fires (and
/// fails) per lane, never per batch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vxm_lane<T, M, S, R, B>(
    w: &mut Vector<T>,
    accum: Option<B>,
    mask: Option<&Vector<M>>,
    semiring: S,
    u: &Vector<T>,
    a: &Matrix<T>,
    desc: &Descriptor,
    rt: R,
) -> Result<LaneRun, GrbError>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
    B: BinOp<T>,
{
    if u.size() != a.nrows() {
        return Err(dim_mismatch(
            format!("u.size == a.nrows == {}", a.nrows()),
            format!("u.size == {}", u.size()),
        ));
    }
    if w.size() != a.ncols() {
        return Err(dim_mismatch(
            format!("w.size == a.ncols == {}", a.ncols()),
            format!("w.size == {}", w.size()),
        ));
    }
    if let Some(m) = mask {
        if m.size() != w.size() {
            return Err(dim_mismatch(
                format!("mask.size == {}", w.size()),
                format!("mask.size == {}", m.size()),
            ));
        }
    }

    // Materialize the input entries (from the workspace pool) so the
    // parallel loop can index them.
    let entries: Vec<(u32, T)> = kernels::take_entries(u, rt);
    let input_nnz = entries.len();
    let selection = kernels::select(u, a, mask, desc, true)?;
    if substrate::fault::point("grb.alloc.accumulator") {
        return Err(GrbError::ResourceExhausted {
            required: kernels::projected_bytes(
                selection.choice,
                selection.frontier_degree,
                a.ncols() as u64,
                selection.mask_admitted,
                std::mem::size_of::<(u32, T)>() as u64,
                std::mem::size_of::<T>() as u64,
                false,
            ),
            budget: 0,
        });
    }
    let pm = perfmon::probe();
    let wb = WriteBack::masked(desc.replace, accum, mask, desc, pm);
    let mul = |x, av| semiring.mul(x, av);
    let accumulator_bytes = match selection.choice {
        KernelChoice::PushSparse => {
            let (out, bytes) =
                kernels::scatter_sparse(&entries, a, mask, desc, semiring, mul, rt, pm);
            wb.entries(w, &out);
            bytes
        }
        KernelChoice::Pull => {
            let (out, bytes) =
                kernels::pull_gather(u, a.transpose(), mask, desc, semiring, mul, rt, pm);
            wb.entries(w, &out);
            bytes
        }
        _ => {
            // Dense accumulator over the output dimension: the
            // intermediate the paper's fixed push strategy cannot avoid.
            let add = |x, y| semiring.add(x, y);
            let (acc, bytes) =
                kernels::scatter_dense(&entries, a, a.ncols(), mask, desc, add, mul, rt, pm);
            wb.entries(w, &acc.into_entries(pm));
            bytes
        }
    };
    kernels::give_entries(entries, rt);
    Ok(LaneRun {
        input_nnz,
        accumulator_bytes,
        selection,
    })
}

/// `w<mask> = u ⊗.⊕ A` (push-style row scaling, `GrB_vxm`).
///
/// Iterates the explicit entries of `u`; each scales its matrix row into a
/// shared dense accumulator under the semiring's ⊕. The (optionally
/// complemented) mask filters which outputs are kept. With `desc.replace`
/// the previous contents of `w` are discarded, otherwise they merge;
/// `Accum(&mut w, ⊙)` folds the product into `w` instead
/// ([`super::Accum`]).
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] when `u.size != a.nrows`,
/// `w.size != a.ncols`, or the mask size differs from `w`;
/// [`GrbError::ResourceExhausted`] when no kernel's projected
/// accumulator fits the active [`super::mem_budget`] (or an injected
/// `grb.alloc.accumulator` fault fires).
pub fn vxm<T, M, S, R>(
    mut w: impl Output<Elem = T>,
    mask: Option<&Vector<M>>,
    semiring: S,
    u: &Vector<T>,
    a: &Matrix<T>,
    desc: &Descriptor,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let (w, accum) = w.target();
    let span = super::op_start(super::OpKind::Vxm, R::NAME, mask.is_some(), desc);
    let run = vxm_lane(w, accum, mask, semiring, u, a, desc, rt)?;
    if let Some(span) = span {
        span.finish_kernel(
            run.input_nnz,
            w.nvals(),
            run.accumulator_bytes as usize,
            &run.selection,
            run.accumulator_bytes,
        );
    }
    Ok(())
}

/// `w<mask> = A ⊗.⊕ u` (pull-style dot products per row, `GrB_mxv`).
///
/// Parallel over the rows of `A`; row `i` folds `⊕_k A(i,k) ⊗ u(k)`.
/// Efficient when `u` is dense (the FastSV and pagerank usage); with a
/// sparse `u` each matrix entry costs a binary search, faithfully
/// reproducing why pull kernels want dense operands. Without a mask the
/// product replaces `w`; `Accum(&mut w, ⊙)` folds it in instead.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on non-conforming sizes;
/// [`GrbError::ResourceExhausted`] under an exceeded [`super::mem_budget`]
/// or an injected `grb.alloc.accumulator` fault.
pub fn mxv<T, M, S, R>(
    mut w: impl Output<Elem = T>,
    mask: Option<&Vector<M>>,
    semiring: S,
    a: &Matrix<T>,
    u: &Vector<T>,
    desc: &Descriptor,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let (w, accum) = w.target();
    if u.size() != a.ncols() {
        return Err(dim_mismatch(
            format!("u.size == a.ncols == {}", a.ncols()),
            format!("u.size == {}", u.size()),
        ));
    }
    if w.size() != a.nrows() {
        return Err(dim_mismatch(
            format!("w.size == a.nrows == {}", a.nrows()),
            format!("w.size == {}", w.size()),
        ));
    }
    if let Some(m) = mask {
        if m.size() != w.size() {
            return Err(dim_mismatch(
                format!("mask.size == {}", w.size()),
                format!("mask.size == {}", m.size()),
            ));
        }
    }

    let span = super::op_start(
        super::OpKind::Mxv,
        R::NAME,
        mask.is_some(),
        desc,
    );
    let input_nnz = u.nvals();

    let n = a.nrows();
    let selection = kernels::select(u, a, mask, desc, false)?;
    if substrate::fault::point("grb.alloc.accumulator") {
        return Err(GrbError::ResourceExhausted {
            required: kernels::projected_bytes(
                selection.choice,
                selection.frontier_degree,
                n as u64,
                selection.mask_admitted,
                std::mem::size_of::<(u32, T)>() as u64,
                std::mem::size_of::<T>() as u64,
                true,
            ),
            budget: 0,
        });
    }
    let pm = perfmon::probe();
    let wb = WriteBack::masked(desc.replace || mask.is_none(), accum, mask, desc, pm);
    let accumulator_bytes = match selection.choice {
        KernelChoice::PushSparse => {
            // Scatter the entries of `u` through the columns of `A`
            // (rows of the cached transpose) into sparse lanes.
            let entries = kernels::take_entries(u, rt);
            let mul = |x, av| semiring.mul(av, x);
            let (out, bytes) =
                kernels::scatter_sparse(&entries, a.transpose(), mask, desc, semiring, mul, rt, pm);
            kernels::give_entries(entries, rt);
            wb.entries(w, &out);
            bytes
        }
        KernelChoice::PushDense => {
            let entries = kernels::take_entries(u, rt);
            let mul = |x, av| semiring.mul(av, x);
            let add = |x, y| semiring.add(x, y);
            let (acc, bytes) =
                kernels::scatter_dense(&entries, a.transpose(), n, mask, desc, add, mul, rt, pm);
            kernels::give_entries(entries, rt);
            wb.entries(w, &acc.into_entries(pm));
            bytes
        }
        _ => {
            // Paper-faithful pull: dense value + presence buffers over
            // the output dimension are the kernel's materialization.
            let udense = u.dense_parts();
            let bytes =
                (n * (std::mem::size_of::<T>() + std::mem::size_of::<bool>())) as u64;
            let (mut vals, mut present) = wb.dense_scratch(w, n);
            {
                let pv = ParSlice::new(&mut vals);
                let pp = ParSlice::new(&mut present);
                rt.parallel_for_balanced(n, |i| a.row_nvals(i as u32) as u64 + 1, |i| {
                    if let Some(m) = mask {
                        pm.instr(1);
                        let pass =
                            m.mask_at(i as u32, desc.mask_structural, pm) != desc.mask_complement;
                        if !pass {
                            return;
                        }
                    }
                    let mut acc = semiring.add_identity();
                    let mut any = false;
                    for (k, &av) in a.row_pairs(i as u32) {
                        pm.instr(2);
                        pm.touch_ref(&av);
                        let x = match udense {
                            Some((uvals, upresent)) => {
                                pm.touch_ref(&uvals[k as usize]);
                                upresent[k as usize].then(|| uvals[k as usize])
                            }
                            None => u.get(k),
                        };
                        if let Some(x) = x {
                            acc = semiring.add(acc, semiring.mul(av, x));
                            any = true;
                        }
                    }
                    if any {
                        // SAFETY: one writer per row.
                        unsafe {
                            pm.touch(pv.addr_of(i));
                            pv.write(i, acc);
                            pp.write(i, true);
                        }
                    }
                });
            }
            wb.dense(w, vals, present, rt);
            bytes
        }
    };
    if let Some(span) = span {
        span.finish_kernel(
            input_nnz,
            w.nvals(),
            accumulator_bytes as usize,
            &selection,
            accumulator_bytes,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{LorLand, MinPlus, MinSecond, PlusTimes};
    use crate::runtime::{GaloisRuntime, StaticRuntime};

    /// 0 -> 1 -> 2 -> 3 path plus 0 -> 2 shortcut, boolean pattern.
    fn path_matrix() -> Matrix<u32> {
        Matrix::from_tuples(
            4,
            4,
            vec![(0, 1, 1u32), (1, 2, 1), (2, 3, 1), (0, 2, 1)],
            crate::binops::Plus,
        )
        .unwrap()
    }

    #[test]
    fn vxm_expands_frontier() {
        let a = path_matrix();
        let frontier = Vector::from_entries(4, vec![(0, 1u32)]).unwrap();
        let mut next: Vector<u32> = Vector::new(4);
        vxm(
            &mut next,
            None::<&Vector<u32>>,
            LorLand,
            &frontier,
            &a,
            &Descriptor::new().with_replace(true),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(next.entries(), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn vxm_complemented_mask_filters_visited() {
        let a = path_matrix();
        let frontier = Vector::from_entries(4, vec![(0, 1u32)]).unwrap();
        // dist: vertex 1 already visited (non-zero)
        let mut dist: Vector<u32> = Vector::new_dense(4, 0);
        dist.set(1, 1).unwrap();
        let mut next: Vector<u32> = Vector::new(4);
        vxm(
            &mut next,
            Some(&dist),
            LorLand,
            &frontier,
            &a,
            &Descriptor::replace_complement(),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(next.entries(), vec![(2, 1)], "visited vertex 1 filtered");
    }

    #[test]
    fn vxm_min_plus_relaxes_distances() {
        let a = Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, 5u64), (0, 2, 2), (2, 1, 1)],
            crate::binops::Plus,
        )
        .unwrap();
        let dist = Vector::from_entries(3, vec![(0, 0u64), (2, 2)]).unwrap();
        let mut next: Vector<u64> = Vector::new(3);
        vxm(
            &mut next,
            None::<&Vector<u64>>,
            MinPlus,
            &dist,
            &a,
            &Descriptor::new().with_replace(true),
            GaloisRuntime,
        )
        .unwrap();
        // candidate dist(1) = min(0+5, 2+1) = 3; dist(2) = 0+2 = 2
        assert_eq!(next.get(1), Some(3));
        assert_eq!(next.get(2), Some(2));
    }

    #[test]
    fn vxm_merges_without_replace() {
        let a = path_matrix();
        let u = Vector::from_entries(4, vec![(0, 1u32)]).unwrap();
        let mut w = Vector::from_entries(4, vec![(3, 9u32)]).unwrap();
        vxm(
            &mut w,
            None::<&Vector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new(),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(w.entries(), vec![(1, 1), (2, 1), (3, 9)]);
    }

    #[test]
    fn mxv_pulls_from_dense_vector() {
        let a = path_matrix();
        let mut u = Vector::new_dense(4, 1u32);
        u.set(3, 7).unwrap();
        let mut w: Vector<u32> = Vector::new(4);
        mxv(
            &mut w,
            None::<&Vector<u32>>,
            PlusTimes,
            &a,
            &u,
            &Descriptor::new(),
            StaticRuntime,
        )
        .unwrap();
        // row 0 hits cols 1,2 -> 2; row 2 hits col 3 -> 7
        assert_eq!(w.get(0), Some(2));
        assert_eq!(w.get(1), Some(1));
        assert_eq!(w.get(2), Some(7));
        assert_eq!(w.get(3), None, "empty row yields no entry");
    }

    #[test]
    fn mxv_min_second_propagates_labels() {
        // FastSV-style: candidate parent of i = min over neighbors k of u[k].
        let a = path_matrix();
        let u = Vector::from_entries(4, vec![(0, 0u32), (1, 1), (2, 2), (3, 3)]).unwrap();
        let mut w: Vector<u32> = Vector::new(4);
        mxv(
            &mut w,
            None::<&Vector<u32>>,
            MinSecond,
            &a,
            &u,
            &Descriptor::new(),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(w.get(0), Some(1), "min(u[1], u[2]) = 1");
        assert_eq!(w.get(1), Some(2));
    }

    #[test]
    fn mxv_masked_merge_keeps_old_entries() {
        let a = path_matrix();
        let u = Vector::new_dense(4, 1u32);
        let mut w = Vector::from_entries(4, vec![(3, 42u32)]).unwrap();
        let mask = Vector::from_entries(4, vec![(0, 1u32)]).unwrap();
        mxv(
            &mut w,
            Some(&mask),
            PlusTimes,
            &a,
            &u,
            &Descriptor::new(),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(w.get(0), Some(2), "masked row recomputed");
        assert_eq!(w.get(3), Some(42), "unmasked entry kept");
    }

    #[test]
    fn dimension_mismatches_error() {
        let a = path_matrix();
        let u: Vector<u32> = Vector::new(3);
        let mut w: Vector<u32> = Vector::new(4);
        assert!(vxm(
            &mut w,
            None::<&Vector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new(),
            GaloisRuntime
        )
        .is_err());
        let u4: Vector<u32> = Vector::new(4);
        let mut w3: Vector<u32> = Vector::new(3);
        assert!(mxv(
            &mut w3,
            None::<&Vector<u32>>,
            PlusTimes,
            &a,
            &u4,
            &Descriptor::new(),
            GaloisRuntime
        )
        .is_err());
    }

    #[test]
    fn vxm_empty_input_clears_with_replace() {
        let a = path_matrix();
        let u: Vector<u32> = Vector::new(4);
        let mut w = Vector::from_entries(4, vec![(1, 1u32)]).unwrap();
        vxm(
            &mut w,
            None::<&Vector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new().with_replace(true),
            GaloisRuntime,
        )
        .unwrap();
        assert!(w.is_empty());
    }
}

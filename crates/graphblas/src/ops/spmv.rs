//! Sparse matrix-vector products: `GrB_vxm` (push) and `GrB_mxv` (pull).
//!
//! As §II-C of the paper lays out, `w = uᵀA` with a sparse `u` is one
//! round of a round-based data-driven algorithm executed push-style
//! (SAXPY), while `w = A·u` iterated over rows is the pull-style SDOT
//! form. The push kernel materializes a dense accumulator per call — the
//! *materialization* cost the paper measures.
//!
//! `vxm` routes through [`super::kernels`]: a [`super::Policy`] that
//! forces push-dense runs the paper's dense scatter, while the cost model
//! may substitute a sparse-accumulator scatter when the frontier touches
//! few outputs. Both are push kernels; `vxm` never builds a transpose.
//! The dense accumulator and the list of `u`'s entries are allocated per
//! call, as the paper's are. `mxv` has one kernel, the paper's row pull,
//! under every policy; it folds a row with
//! [`super::kernels::pull_row`], which skips the input's presence flags
//! when the input holds every entry.

use super::kernels;
use super::write::{Output, WriteBack};
use crate::binops::SemiringOps;
use crate::descriptor::Descriptor;
use crate::error::{dim_mismatch, GrbError};
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::vector::Vector;
use galois_rt::substrate::ParSlice;
use perfmon::trace::KernelChoice;

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
/// [`GrbError::ResourceExhausted`] when neither push kernel's projected
/// accumulator fits the calling thread's [`super::Policy::budget`] (or
/// an injected `grb.alloc.accumulator` fault fires).
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

    let selection = kernels::select(u, a)?;
    if substrate::fault::point("grb.alloc.accumulator") {
        return Err(GrbError::ResourceExhausted {
            required: kernels::projected_bytes(
                selection.choice,
                selection.frontier_degree,
                a.ncols() as u64,
                std::mem::size_of::<(u32, T)>() as u64,
                std::mem::size_of::<T>() as u64,
            ),
            budget: 0,
        });
    }
    let pm = perfmon::probe();
    let wb = WriteBack::masked(desc.replace, accum, mask, desc, pm);
    let accumulator_bytes = match selection.choice {
        KernelChoice::PushSparse => {
            let (out, bytes) =
                kernels::scatter_sparse(&u.entries(), a, mask, desc, semiring, rt, pm);
            wb.entries(w, &out);
            bytes
        }
        _ => {
            // PushDense, the only other kernel selection names. Dense
            // accumulator over the output dimension: the intermediate
            // the paper's fixed push strategy cannot avoid.
            let (acc, bytes) =
                kernels::scatter_dense(&u.entries(), a, mask, desc, semiring, rt, pm);
            wb.entries(w, &acc.into_entries(pm));
            bytes
        }
    };
    if let Some(span) = span {
        span.finish_kernel(
            u.nvals(),
            w.nvals(),
            accumulator_bytes as usize,
            &selection,
            accumulator_bytes,
        );
    }
    Ok(())
}

/// `w<mask> = A ⊗.⊕ u` (pull-style dot products per row, `GrB_mxv`).
///
/// Parallel over the rows of `A`; row `i` folds `⊕_k A(i,k) ⊗ u(k)` in
/// the row's storage order, so the result does not depend on the runtime
/// or the thread count. This is the only kernel: `mxv` ignores
/// [`super::Policy::kernel`]. Efficient when `u` is dense (the FastSV and
/// pagerank usage); with a sparse `u` each matrix entry costs a binary
/// search, faithfully reproducing why pull kernels want dense operands.
/// A dense `u` with every entry present (`nvals == size`) is read without
/// its per-entry presence flags; one with holes reads a flag before each
/// value. Without a mask the product replaces `w`; `Accum(&mut w, ⊙)`
/// folds it in instead.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on non-conforming sizes;
/// [`GrbError::ResourceExhausted`] when the pull's dense value and
/// presence buffers, `a.nrows() * (size_of::<T>() + 1)` bytes, exceed the
/// calling thread's [`super::Policy::budget`] (there is no smaller
/// kernel to fall back to), or on an injected `grb.alloc.accumulator`
/// fault.
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

    // Dense value + presence buffers over the output dimension are the
    // pull's materialization.
    let n = a.nrows();
    let accumulator_bytes = (n * (std::mem::size_of::<T>() + std::mem::size_of::<bool>())) as u64;
    if let Some(limit) = super::policy().budget {
        if accumulator_bytes > limit {
            return Err(GrbError::ResourceExhausted {
                required: accumulator_bytes,
                budget: limit,
            });
        }
    }
    if substrate::fault::point("grb.alloc.accumulator") {
        return Err(GrbError::ResourceExhausted {
            required: accumulator_bytes,
            budget: 0,
        });
    }
    let pm = perfmon::probe();
    let wb = WriteBack::masked(desc.replace || mask.is_none(), accum, mask, desc, pm);
    let input = kernels::PullInput::of(u);
    let mul = |x, av| semiring.mul(av, x);
    let (mut vals, mut present) = wb.dense_scratch(w, n);
    {
        let pv = ParSlice::new(&mut vals);
        let pp = ParSlice::new(&mut present);
        rt.parallel_for_balanced(n, |i| a.row_nvals(i as u32) as u64 + 1, |i| {
            let row = kernels::pull_row(a, i as u32, mask, desc, input, semiring, mul, pm);
            if let Some(acc) = row {
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
    if let Some(span) = span {
        span.finish_kernel(
            input_nnz,
            w.nvals(),
            accumulator_bytes as usize,
            &kernels::Selection::forced(KernelChoice::Pull),
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

    /// A 5-vertex multigraph in storage order: row 0 repeats column 3 and
    /// does not ascend, row 1 is empty, and column 2's only source is
    /// row 2, whose only entry it is.
    fn multigraph_matrix() -> Matrix<f64> {
        let g = graph::CsrGraph::from_raw(
            vec![0, 5, 5, 6, 9, 11],
            vec![3, 1, 3, 0, 4, 2, 4, 0, 4, 1, 1],
            Some(vec![1, 2, 3, 1, 1, 5, 2, 1, 3, 1, 4]),
        );
        Matrix::from_graph(&g, f64::from)
    }

    /// `mxv` of `u` with `replace`.
    fn pulled<S: SemiringOps<T>, T: Scalar>(
        semiring: S,
        a: &Matrix<T>,
        u: &Vector<T>,
    ) -> Vector<T> {
        let desc = Descriptor::new().with_replace(true);
        let mut w = Vector::new(a.nrows());
        mxv(&mut w, None::<&Vector<bool>>, semiring, a, u, &desc, GaloisRuntime).unwrap();
        w
    }

    fn bits(v: &Vector<f64>) -> Vec<(u32, u64)> {
        v.iter().map(|(i, x)| (i, x.to_bits())).collect()
    }

    /// Values whose sum depends on the order it is taken in.
    const ORDER_SENSITIVE: [f64; 5] = [1e16, 1.0, -1e16, 0.5, 3.0];

    #[test]
    fn full_vector_pull_matches_the_same_entries_held_sparse() {
        let a = multigraph_matrix();
        let mut full = Vector::new_dense(5, 0.0);
        for (i, &x) in ORDER_SENSITIVE.iter().enumerate() {
            full.set(i as u32, x).unwrap();
        }
        assert!(matches!(kernels::PullInput::of(&full), kernels::PullInput::Full(_)));
        let sparse = Vector::from_entries(5, full.entries()).unwrap();
        let mxv_full = pulled(PlusTimes, &a, &full);
        assert_eq!(bits(&mxv_full), bits(&pulled(PlusTimes, &a, &sparse)));
        assert_eq!(mxv_full.get(1), None, "an empty row yields no entry");
        assert_eq!(mxv_full.nvals(), 4);
    }

    #[test]
    fn vector_with_a_hole_still_reads_presence() {
        let a = multigraph_matrix();
        let mut holed = Vector::new_dense(5, 0.0);
        for (i, &x) in ORDER_SENSITIVE.iter().enumerate() {
            holed.set(i as u32, x).unwrap();
        }
        // The removed slot keeps its old value; only its flag says absent.
        holed.remove(2);
        assert!(matches!(kernels::PullInput::of(&holed), kernels::PullInput::Dense(..)));
        let sparse = Vector::from_entries(5, holed.entries()).unwrap();
        let mxv_holed = pulled(PlusTimes, &a, &holed);
        assert_eq!(bits(&mxv_holed), bits(&pulled(PlusTimes, &a, &sparse)));
        assert_eq!(mxv_holed.get(2), None, "row 2 meets only the hole");
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

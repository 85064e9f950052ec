//! Sparse matrix-matrix multiplication (`GrB_mxm`, SpGEMM).
//!
//! SuiteSparse chooses per call among Gustavson SAXPY, hash SAXPY and
//! the dot method (paper §III-A). Every LAGraph port in the study masks
//! its `mxm` (the SandiaDot and listing tc, ktruss), and a mask that
//! bounds the output is where the dot method is the one SuiteSparse
//! picks, so this is the only method implemented: each admitted mask
//! entry is one dot product. Each dot intersects a row of A with a row
//! of Bᵀ through [`graph::intersect::for_each_common`], the intersection
//! the Lonestar tc and ktruss programs use too: disjoint rows are
//! skipped, a row more than eight times longer than its partner is
//! searched rather than walked (as SuiteSparse's `GB_AxB_dot_cij` trims
//! it), and similar rows are merged once a long leading run of one below
//! the other's first entry is searched past. Products are folded in
//! ascending column order on every route, so a float semiring sums as a
//! serial merge would.

use crate::binops::SemiringOps;
use crate::descriptor::Descriptor;
use crate::error::{dim_mismatch, GrbError};
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use galois_rt::substrate::ParSlice;
use graph::intersect;
use std::ops::ControlFlow;

/// `C<mask> = A ⊗.⊕ B` (or `A ⊗.⊕ Bᵀ` with `desc.transpose_b`), by the
/// masked dot method.
///
/// Returns the product as a fresh matrix holding only entries at the
/// mask's value-passing (or, with `desc.mask_structural`, present)
/// positions.
///
/// # Errors
///
/// Returns [`GrbError::MaskRequired`] without a mask or with a
/// complemented one (the output would be unbounded), and
/// [`GrbError::DimensionMismatch`] on non-conforming operands.
pub fn mxm<T, M, S, R>(
    mask: Option<&Matrix<M>>,
    semiring: S,
    a: &Matrix<T>,
    b: &Matrix<T>,
    desc: &Descriptor,
    rt: R,
) -> Result<Matrix<T>, GrbError>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let Some(mask) = mask else {
        return Err(GrbError::MaskRequired("mxm"));
    };
    if desc.mask_complement {
        return Err(GrbError::MaskRequired(
            "mxm with a complemented mask (unbounded output)",
        ));
    }
    let (b_rows_eff, b_cols_eff) = if desc.transpose_b {
        (b.ncols(), b.nrows())
    } else {
        (b.nrows(), b.ncols())
    };
    if a.ncols() != b_rows_eff {
        return Err(dim_mismatch(
            format!("a.ncols == b.nrows == {b_rows_eff}"),
            format!("a.ncols == {}", a.ncols()),
        ));
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b_cols_eff {
        return Err(dim_mismatch(
            format!("mask is {} x {}", a.nrows(), b_cols_eff),
            format!("mask is {} x {}", mask.nrows(), mask.ncols()),
        ));
    }

    let span = super::op_start(super::OpKind::Mxm, R::NAME, true, desc);
    let pm = perfmon::probe();
    let c = if desc.transpose_b {
        dot_masked(mask, semiring, a, b, desc, rt, pm)
    } else {
        dot_masked(mask, semiring, a, &b.transpose(), desc, rt, pm)
    };
    if let Some(span) = span {
        span.finish(a.nvals() + b.nvals(), c.nvals(), 0);
    }
    Ok(c)
}

/// Masked dot-product SpGEMM: computes only the entries the mask allows,
/// with `bt` holding the effective Bᵀ in CSR. Each step of the
/// intersection is charged one instruction.
fn dot_masked<T, M, S, R>(
    mask: &Matrix<M>,
    semiring: S,
    a: &Matrix<T>,
    bt: &Matrix<T>,
    desc: &Descriptor,
    rt: R,
    pm: perfmon::Probe,
) -> Matrix<T>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let nrows = a.nrows();
    let ncols = bt.nrows();
    let mut rows: Vec<Vec<(u32, T)>> = vec![Vec::new(); nrows];
    {
        let pr = ParSlice::new(&mut rows);
        // Dot work per row: one intersection per admitted mask entry,
        // which walks at most both rows, and much less when one row is
        // far shorter than the other. The mask and a-row sizes are only
        // an estimate of that, but it balances well enough: GB's ktruss
        // on a 50 k-vertex preferential-attachment graph, nearly all of
        // it this loop, runs 1.7–1.8× faster on two threads than on one
        // (2 vCPUs).
        rt.parallel_for_balanced(
            nrows,
            |i| (mask.row_nvals(i as u32) + a.row_nvals(i as u32)) as u64 + 1,
            |i| {
            let (mcols, mvals) = mask.row(i as u32);
            if mcols.is_empty() {
                return;
            }
            let (acols, avals) = a.row(i as u32);
            // SAFETY: one writer per row index.
            let out = unsafe { pr.get_mut(i) };
            for (&j, &mv) in mcols.iter().zip(mvals.iter()) {
                pm.instr(1);
                if !(desc.mask_structural || mv.is_nonzero()) {
                    continue;
                }
                let (bcols, bvals) = bt.row(j);
                let mut acc = semiring.add_identity();
                let mut any = false;
                intersect::for_each_common(acols, bcols, pm, 1, |p, q| {
                    acc = semiring.add(acc, semiring.mul(avals[p], bvals[q]));
                    any = true;
                    ControlFlow::Continue(())
                });
                if any {
                    out.push((j, acc));
                }
            }
        });
    }
    Matrix::from_rows(nrows, ncols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{Plus, PlusPair, PlusTimes};
    use crate::runtime::GaloisRuntime;

    fn mat(n: usize, t: Vec<(u32, u32, u64)>) -> Matrix<u64> {
        Matrix::from_tuples(n, n, t, Plus).unwrap()
    }

    /// Undirected triangle 0-1-2 plus pendant edge 2-3.
    fn tri_graph() -> Matrix<u64> {
        mat(
            4,
            vec![
                (0, 1, 1),
                (1, 0, 1),
                (0, 2, 1),
                (2, 0, 1),
                (1, 2, 1),
                (2, 1, 1),
                (2, 3, 1),
                (3, 2, 1),
            ],
        )
    }

    fn dense_product(a: &Matrix<u64>, b: &Matrix<u64>) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        for i in 0..a.nrows() as u32 {
            for j in 0..b.ncols() as u32 {
                let mut acc = 0;
                let mut any = false;
                for k in 0..a.ncols() as u32 {
                    if let (Some(x), Some(y)) = (a.get(i, k), b.get(k, j)) {
                        acc += x * y;
                        any = true;
                    }
                }
                if any {
                    out.push((i, j, acc));
                }
            }
        }
        out
    }

    #[test]
    fn masked_dot_counts_triangles() {
        // SandiaDot: C<L> = L * Uᵀ with plus_pair; sum(C) = triangles.
        let adj = tri_graph();
        let l = crate::ops::select_matrix(&adj, |i, j, _| j < i, GaloisRuntime);
        let u = crate::ops::select_matrix(&adj, |i, j, _| j > i, GaloisRuntime);
        let desc = Descriptor::new()
            .with_transpose_b(true)
            .with_mask_structural(true);
        let c = mxm(Some(&l), PlusPair, &l, &u, &desc, GaloisRuntime).unwrap();
        let total = crate::ops::reduce_matrix(&c, Plus, GaloisRuntime);
        assert_eq!(total, 1, "exactly one triangle");
    }

    #[test]
    fn float_dot_over_a_hub_and_a_leaf_folds_in_ascending_order() {
        // Row 0 of A and of Bᵀ is a hub (every even column below 4000),
        // row 1 a ten-entry leaf: each masked dot pairs a hub with a leaf,
        // 200:1, so it runs on the trim route, hub as `a` once and as `b`
        // once. Of the seven products, the first six are half an ulp of
        // 1.0 each and the last is 1.0: folded in ascending order the
        // halves add up to three ulps before the 1.0 arrives, folded the
        // other way each rounds away. So the sum shows both a dropped
        // term and a different fold order.
        let hub: Vec<u32> = (0..4000).step_by(2).collect();
        let leaf = [3u32, 4, 250, 252, 701, 1200, 1202, 1998, 3998, 3999];
        let hub_val = |col: u32| f64::from(1u32 << (col % 3));
        let leaf_val = |col: u32| {
            let product = if col == 3998 { 1.0 } else { f64::EPSILON / 2.0 };
            product / hub_val(col)
        };
        let mut tuples: Vec<(u32, u32, f64)> = hub.iter().map(|&c| (0, c, hub_val(c))).collect();
        tuples.extend(leaf.iter().map(|&c| (1, c, leaf_val(c))));
        let m = Matrix::from_tuples(2, 4000, tuples, Plus).unwrap();
        let mask = mat(2, vec![(0, 1, 1), (1, 0, 1)]);
        let desc = Descriptor::new()
            .with_transpose_b(true)
            .with_mask_structural(true);
        let c = mxm(Some(&mask), PlusTimes, &m, &m, &desc, GaloisRuntime).unwrap();

        let common: Vec<u32> = leaf.iter().copied().filter(|c| hub.contains(c)).collect();
        let products: Vec<f64> = common.iter().map(|&k| hub_val(k) * leaf_val(k)).collect();
        let ascending = products.iter().fold(0.0f64, |acc, &p| acc + p);
        let descending = products.iter().rev().fold(0.0f64, |acc, &p| acc + p);
        assert_ne!(
            ascending.to_bits(),
            descending.to_bits(),
            "the fold order must show"
        );
        for (i, j) in [(0, 1), (1, 0)] {
            let got = c.get(i, j).expect("hub and leaf share columns");
            assert_eq!(
                got.to_bits(),
                ascending.to_bits(),
                "C({i},{j}) {got} vs {ascending}"
            );
        }
    }

    #[test]
    fn missing_or_complemented_mask_errors() {
        let a = tri_graph();
        let desc = Descriptor::new();
        assert!(matches!(
            mxm(None::<&Matrix<bool>>, PlusTimes, &a, &a, &desc, GaloisRuntime),
            Err(GrbError::MaskRequired(_))
        ));
        let complement = Descriptor::new().with_mask_complement(true);
        assert!(matches!(
            mxm(Some(&a), PlusTimes, &a, &a, &complement, GaloisRuntime),
            Err(GrbError::MaskRequired(_))
        ));
    }

    #[test]
    fn transpose_b_multiplies_by_bt() {
        let a = mat(2, vec![(0, 0, 1), (0, 1, 2)]);
        let b = mat(2, vec![(1, 0, 3), (1, 1, 4)]); // bt = [[0,3],[0,4]]
        let all = mat(2, (0..4).map(|e| (e / 2, e % 2, 1)).collect());
        let desc = Descriptor::new().with_mask_structural(true);
        let c = mxm(Some(&all), PlusTimes, &a, &b, &desc, GaloisRuntime).unwrap();
        assert_eq!(c.to_tuples(), dense_product(&a, &b));
        let desc = desc.with_transpose_b(true);
        let c = mxm(Some(&all), PlusTimes, &a, &b, &desc, GaloisRuntime).unwrap();
        // C = A * Bᵀ: C(0,1) = 1*3 + 2*4 = 11
        assert_eq!(c.get(0, 1), Some(11));
        assert_eq!(c.get(0, 0), None);
        assert_eq!(c.to_tuples(), dense_product(&a, &b.transpose()));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = mat(3, vec![(0, 0, 1)]);
        let b = Matrix::from_tuples(2, 2, vec![(0, 0, 1u64)], Plus).unwrap();
        let desc = Descriptor::new();
        assert!(matches!(
            mxm(Some(&a), PlusTimes, &a, &b, &desc, GaloisRuntime),
            Err(GrbError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            mxm(Some(&b), PlusTimes, &a, &a, &desc, GaloisRuntime),
            Err(GrbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a: Matrix<u64> = Matrix::new(3, 3);
        let b = mat(3, vec![(0, 1, 1)]);
        let all = mat(3, (0..9).map(|e| (e / 3, e % 3, 1)).collect());
        for transpose_b in [false, true] {
            let desc = Descriptor::new()
                .with_mask_structural(true)
                .with_transpose_b(transpose_b);
            let c = mxm(Some(&all), PlusTimes, &a, &b, &desc, GaloisRuntime).unwrap();
            assert_eq!(c.nvals(), 0);
            let c = mxm(Some(&all), PlusTimes, &b, &a, &desc, GaloisRuntime).unwrap();
            assert_eq!(c.nvals(), 0);
        }
    }
}

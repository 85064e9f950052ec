//! Entry selection: `GxB_select` for vectors and matrices.
//!
//! ktruss' per-round pruning ("keep edges whose support ≥ k − 2") and the
//! bucket extraction of bulk-synchronous delta-stepping are select
//! operations; each is a full pass over the operand, another instance of
//! the paper's *lightweight loops* observation.

use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::vector::Vector;
use galois_rt::substrate::ParSlice;

/// `w = { (i, u[i]) : pred(i, u[i]) }` — keeps the entries of `u` that
/// satisfy `pred`.
///
/// Parallelized through the unordered-list representation
/// ([`crate::vector::VectorBuilder`]): threads collect survivors into
/// per-thread lanes, then one sort compacts the result.
pub fn select_vector<T, R>(
    w: &mut Vector<T>,
    u: &Vector<T>,
    pred: impl Fn(u32, T) -> bool + Sync,
    rt: R,
) where
    T: Scalar,
    R: Runtime,
{
    let span = super::op_start_plain(super::OpKind::SelectVector, R::NAME);
    let pm = perfmon::probe();
    let builder = crate::vector::VectorBuilder::new(u.size());
    if let Some((vals, present)) = u.dense_parts() {
        rt.parallel_for(vals.len(), |i| {
            pm.instr(1);
            pm.touch_ref(&vals[i]);
            if present[i] && pred(i as u32, vals[i]) {
                builder.push(i as u32, vals[i]);
            }
        });
    } else {
        let (idx, vals) = u.sparse_parts().expect("vector is sparse or dense");
        rt.parallel_for(idx.len(), |p| {
            pm.instr(1);
            pm.touch_ref(&vals[p]);
            if pred(idx[p], vals[p]) {
                builder.push(idx[p], vals[p]);
            }
        });
    }
    // Input entries are unique, so the dup op is never called.
    *w = builder.finalize(|a, _| a);
    if let Some(span) = span {
        span.finish(u.nvals(), w.nvals(), 0);
    }
}

/// Returns the entries of `a` that satisfy `pred(row, col, value)`, with
/// unchanged dimensions.
pub fn select_matrix<T, R>(
    a: &Matrix<T>,
    pred: impl Fn(u32, u32, T) -> bool + Sync,
    rt: R,
) -> Matrix<T>
where
    T: Scalar,
    R: Runtime,
{
    let span = super::op_start_plain(super::OpKind::SelectMatrix, R::NAME);
    let pm = perfmon::probe();
    let nrows = a.nrows();
    let mut rows: Vec<Vec<(u32, T)>> = vec![Vec::new(); nrows];
    {
        let pr = ParSlice::new(&mut rows);
        rt.parallel_for(nrows, |i| {
            let (cols, vals) = a.row(i as u32);
            let mut kept = Vec::new();
            for (&c, v) in cols.iter().zip(vals.iter()) {
                pm.instr(1);
                pm.touch_ref(v);
                let v = *v;
                if pred(i as u32, c, v) {
                    kept.push((c, v));
                }
            }
            // SAFETY: one writer per row index.
            unsafe { *pr.get_mut(i) = kept };
        });
    }
    let out = Matrix::from_rows(nrows, a.ncols(), rows);
    if let Some(span) = span {
        span.finish(a.nvals(), out.nvals(), 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::Plus;
    use crate::runtime::GaloisRuntime;

    #[test]
    fn vector_select_keeps_matching_entries() {
        let u = Vector::from_entries(10, vec![(1, 5u32), (3, 2), (7, 9)]).unwrap();
        let mut w: Vector<u32> = Vector::new(10);
        select_vector(&mut w, &u, |_, v| v >= 5, GaloisRuntime);
        assert_eq!(w.entries(), vec![(1, 5), (7, 9)]);
    }

    #[test]
    fn vector_select_can_use_indices() {
        let u = Vector::new_dense(6, 1u32);
        let mut w: Vector<u32> = Vector::new(6);
        select_vector(&mut w, &u, |i, _| i % 2 == 0, GaloisRuntime);
        assert_eq!(w.entries(), vec![(0, 1), (2, 1), (4, 1)]);
    }

    #[test]
    fn matrix_select_thresholds_values() {
        let a = Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, 1u32), (0, 2, 5), (1, 0, 3), (2, 2, 7)],
            Plus,
        )
        .unwrap();
        let b = select_matrix(&a, |_, _, v| v >= 3, GaloisRuntime);
        assert_eq!(b.to_tuples(), vec![(0, 2, 5), (1, 0, 3), (2, 2, 7)]);
        assert_eq!(b.nrows(), 3);
    }

    #[test]
    fn matrix_select_offdiagonal() {
        let a = Matrix::from_tuples(2, 2, vec![(0, 0, 1u32), (0, 1, 2), (1, 1, 3)], Plus)
            .unwrap();
        let b = select_matrix(&a, |r, c, _| r != c, GaloisRuntime);
        assert_eq!(b.to_tuples(), vec![(0, 1, 2)]);
    }

    #[test]
    fn select_everything_or_nothing() {
        let u = Vector::from_entries(4, vec![(0, 1u32), (3, 4)]).unwrap();
        let mut all: Vector<u32> = Vector::new(4);
        select_vector(&mut all, &u, |_, _| true, GaloisRuntime);
        assert_eq!(all.entries(), u.entries());
        let mut none: Vector<u32> = Vector::new(4);
        select_vector(&mut none, &u, |_, _| false, GaloisRuntime);
        assert!(none.is_empty());
    }
}

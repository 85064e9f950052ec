//! Reductions to a scalar: `GrB_reduce`.

use crate::binops::MonoidOp;
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::vector::Vector;
use galois_rt::substrate::PerThread;

/// Folds every explicit entry of `u` with `monoid`, returning the
/// identity for an empty vector.
pub fn reduce_vector<T, M, R>(u: &Vector<T>, monoid: M, rt: R) -> T
where
    T: Scalar,
    M: MonoidOp<T>,
    R: Runtime,
{
    let span = crate::ops::op_start_plain(crate::ops::OpKind::ReduceVector, R::NAME);
    let pm = perfmon::probe();
    let out = if let Some((vals, present)) = u.dense_parts() {
        let partials: PerThread<T> = PerThread::new(|| monoid.identity());
        rt.parallel_for(vals.len(), |i| {
            pm.instr(1);
            pm.touch_ref(&vals[i]);
            if present[i] {
                partials.with(|acc| *acc = monoid.apply(*acc, vals[i]));
            }
        });
        partials
            .into_inner()
            .into_iter()
            .fold(monoid.identity(), |a, b| monoid.apply(a, b))
    } else {
        let (_, vals) = u.sparse_parts().expect("sparse");
        let partials: PerThread<T> = PerThread::new(|| monoid.identity());
        rt.parallel_for(vals.len(), |p| {
            pm.instr(1);
            pm.touch_ref(&vals[p]);
            partials.with(|acc| *acc = monoid.apply(*acc, vals[p]));
        });
        partials
            .into_inner()
            .into_iter()
            .fold(monoid.identity(), |a, b| monoid.apply(a, b))
    };
    if let Some(span) = span {
        span.finish(u.nvals(), 1, 0);
    }
    out
}

/// Folds every explicit entry of `a` with `monoid` (used to total the
/// per-edge triangle counts in tc).
pub fn reduce_matrix<T, M, R>(a: &Matrix<T>, monoid: M, rt: R) -> T
where
    T: Scalar,
    M: MonoidOp<T>,
    R: Runtime,
{
    let span = crate::ops::op_start_plain(crate::ops::OpKind::ReduceMatrix, R::NAME);
    let pm = perfmon::probe();
    let partials: PerThread<T> = PerThread::new(|| monoid.identity());
    rt.parallel_for_balanced(a.nrows(), |i| a.row_nvals(i as u32) as u64 + 1, |i| {
        let (_, vals) = a.row(i as u32);
        partials.with(|acc| {
            for v in vals {
                pm.instr(1);
                pm.touch_ref(v);
                *acc = monoid.apply(*acc, *v);
            }
        });
    });
    let out = partials
        .into_inner()
        .into_iter()
        .fold(monoid.identity(), |a, b| monoid.apply(a, b));
    if let Some(span) = span {
        span.finish(a.nvals(), 1, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{Max, Min, Plus};
    use crate::runtime::{GaloisRuntime, StaticRuntime};

    #[test]
    fn sum_of_sparse_vector() {
        let u = Vector::from_entries(100, vec![(3, 5u64), (50, 6), (99, 7)]).unwrap();
        assert_eq!(reduce_vector(&u, Plus, GaloisRuntime), 18);
    }

    #[test]
    fn reduce_dense_vector_skips_absent() {
        let mut u = Vector::new_dense(10, 2u64);
        u.remove(0);
        u.remove(1);
        assert_eq!(reduce_vector(&u, Plus, StaticRuntime), 16);
    }

    #[test]
    fn empty_reduce_is_identity() {
        let u: Vector<u64> = Vector::new(10);
        assert_eq!(reduce_vector(&u, Plus, GaloisRuntime), 0);
        assert_eq!(reduce_vector(&u, Min, GaloisRuntime), u64::MAX);
        assert_eq!(reduce_vector(&u, Max, GaloisRuntime), 0);
    }

    #[test]
    fn min_max_reduce() {
        let u = Vector::from_entries(5, vec![(0, 9u32), (2, 3), (4, 7)]).unwrap();
        assert_eq!(reduce_vector(&u, Min, GaloisRuntime), 3);
        assert_eq!(reduce_vector(&u, Max, GaloisRuntime), 9);
    }

    #[test]
    fn matrix_reduce_sums_all_entries() {
        let m = Matrix::from_tuples(3, 3, vec![(0, 1, 1u64), (1, 2, 2), (2, 0, 3)], Plus)
            .unwrap();
        assert_eq!(reduce_matrix(&m, Plus, GaloisRuntime), 6);
    }

    #[test]
    fn large_parallel_sum_is_exact() {
        let entries: Vec<(u32, u64)> = (0..50_000).map(|i| (i, 1)).collect();
        let u = Vector::from_entries(50_000, entries).unwrap();
        assert_eq!(reduce_vector(&u, Plus, GaloisRuntime), 50_000);
    }
}

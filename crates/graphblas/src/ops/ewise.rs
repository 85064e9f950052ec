//! Element-wise vector operations: `GrB_eWiseAdd` (union of structures)
//! and `GrB_eWiseMult` (intersection).

use super::write::{Output, WriteBack};
use crate::binops::BinOp;
use crate::error::{dim_mismatch, GrbError};
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::vector::Vector;
use galois_rt::substrate::ParSlice;

fn check_sizes<T: Scalar>(
    w: &Vector<T>,
    u: &Vector<T>,
    v: &Vector<T>,
) -> Result<usize, GrbError> {
    let n = w.size();
    if u.size() != n || v.size() != n {
        return Err(dim_mismatch(
            format!("u.size == v.size == {n}"),
            format!("u.size == {}, v.size == {}", u.size(), v.size()),
        ));
    }
    Ok(n)
}

/// `w = u ⊕ v` over the union of structures: where both inputs have an
/// entry `op` combines them, otherwise the single entry is copied.
///
/// A dense operand makes the result dense: dense ∪ dense is one parallel
/// pass, dense ∪ sparse one parallel copy of the dense side plus a
/// parallel fold of the sparse side's entries. Two sparse operands merge
/// into a sparse result. `Accum(&mut w, ⊙)` folds the result into `w`.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on size disagreement.
pub fn ewise_add<T, B, R>(
    mut w: impl Output<Elem = T>,
    op: B,
    u: &Vector<T>,
    v: &Vector<T>,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    B: BinOp<T>,
    R: Runtime,
{
    let (w, accum) = w.target();
    let n = check_sizes(w, u, v)?;
    let span = super::op_start_plain(super::OpKind::EwiseAdd, R::NAME);
    let pm = perfmon::probe();
    let input_nnz = u.nvals() + v.nvals();
    let wb = WriteBack::unmasked(true, accum, pm);
    match (u.dense_parts(), v.dense_parts()) {
        (Some((uv, up)), Some((vv, vp))) => {
            let (mut vals, mut present) = wb.dense_scratch(w, n);
            {
                let pv = ParSlice::new(&mut vals);
                let pp = ParSlice::new(&mut present);
                rt.parallel_for(n, |i| {
                    pm.instr(1);
                    pm.touch_ref(&uv[i]);
                    pm.touch_ref(&vv[i]);
                    let out = match (up[i], vp[i]) {
                        (true, true) => Some(op.apply(uv[i], vv[i])),
                        (true, false) => Some(uv[i]),
                        (false, true) => Some(vv[i]),
                        (false, false) => None,
                    };
                    if let Some(x) = out {
                        // SAFETY: disjoint indices.
                        unsafe {
                            pv.write(i, x);
                            pp.write(i, true);
                        }
                    }
                });
            }
            wb.dense(w, vals, present, rt);
        }
        (Some((dv, dp)), None) | (None, Some((dv, dp))) => {
            let dense_left = u.is_dense_store();
            let (idx, svals) = if dense_left { v } else { u }
                .sparse_parts()
                .expect("vector is sparse or dense");
            let (mut vals, mut present) = wb.dense_scratch(w, n);
            {
                let pv = ParSlice::new(&mut vals);
                let pp = ParSlice::new(&mut present);
                rt.parallel_for(n, |i| {
                    pm.instr(1);
                    pm.touch_ref(&dv[i]);
                    if dp[i] {
                        // SAFETY: disjoint indices.
                        unsafe {
                            pv.write(i, dv[i]);
                            pp.write(i, true);
                        }
                    }
                });
                rt.parallel_for(idx.len(), |p| {
                    pm.instr(1);
                    pm.touch_ref(&svals[p]);
                    let i = idx[p] as usize;
                    let x = match (dp[i], dense_left) {
                        (true, true) => op.apply(dv[i], svals[p]),
                        (true, false) => op.apply(svals[p], dv[i]),
                        (false, _) => svals[p],
                    };
                    // SAFETY: sparse indices are unique, so writes are
                    // disjoint.
                    unsafe {
                        pv.write(i, x);
                        pp.write(i, true);
                    }
                });
            }
            wb.dense(w, vals, present, rt);
        }
        (None, None) => {
            // Two sparse operands: serial two-pointer merge.
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            let mut ui = u.iter().peekable();
            let mut vi = v.iter().peekable();
            loop {
                pm.instr(1);
                match (ui.peek().copied(), vi.peek().copied()) {
                    (Some((i, x)), Some((j, y))) => {
                        let (k, out) = match i.cmp(&j) {
                            std::cmp::Ordering::Less => {
                                ui.next();
                                (i, x)
                            }
                            std::cmp::Ordering::Greater => {
                                vi.next();
                                (j, y)
                            }
                            std::cmp::Ordering::Equal => {
                                ui.next();
                                vi.next();
                                (i, op.apply(x, y))
                            }
                        };
                        idx.push(k);
                        vals.push(out);
                    }
                    (Some((i, x)), None) => {
                        ui.next();
                        idx.push(i);
                        vals.push(x);
                    }
                    (None, Some((j, y))) => {
                        vi.next();
                        idx.push(j);
                        vals.push(y);
                    }
                    (None, None) => break,
                }
                pm.touch_ref(vals.last().expect("just pushed"));
            }
            wb.sparse(w, idx, vals);
        }
    }
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

/// `w = u ⊗ v` over the intersection of structures.
///
/// A dense operand makes the result dense: dense ∩ dense is one parallel
/// pass, dense ∩ sparse one parallel pass over the sparse side's entries.
/// Two sparse operands merge into a sparse result. `Accum(&mut w, ⊙)`
/// folds the result into `w`.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on size disagreement.
pub fn ewise_mult<T, B, R>(
    mut w: impl Output<Elem = T>,
    op: B,
    u: &Vector<T>,
    v: &Vector<T>,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    B: BinOp<T>,
    R: Runtime,
{
    let (w, accum) = w.target();
    let n = check_sizes(w, u, v)?;
    let span = super::op_start_plain(super::OpKind::EwiseMult, R::NAME);
    let pm = perfmon::probe();
    let input_nnz = u.nvals() + v.nvals();
    let wb = WriteBack::unmasked(true, accum, pm);
    match (u.dense_parts(), v.dense_parts()) {
        (Some((uv, up)), Some((vv, vp))) => {
            let (mut vals, mut present) = wb.dense_scratch(w, n);
            {
                let pv = ParSlice::new(&mut vals);
                let pp = ParSlice::new(&mut present);
                rt.parallel_for(n, |i| {
                    pm.instr(1);
                    pm.touch_ref(&uv[i]);
                    pm.touch_ref(&vv[i]);
                    if up[i] && vp[i] {
                        // SAFETY: disjoint indices.
                        unsafe {
                            pv.write(i, op.apply(uv[i], vv[i]));
                            pp.write(i, true);
                        }
                    }
                });
            }
            wb.dense(w, vals, present, rt);
        }
        (Some((dv, dp)), None) | (None, Some((dv, dp))) => {
            let dense_left = u.is_dense_store();
            let (idx, svals) = if dense_left { v } else { u }
                .sparse_parts()
                .expect("vector is sparse or dense");
            let (mut vals, mut present) = wb.dense_scratch(w, n);
            {
                let pv = ParSlice::new(&mut vals);
                let pp = ParSlice::new(&mut present);
                rt.parallel_for(idx.len(), |p| {
                    pm.instr(1);
                    pm.touch_ref(&svals[p]);
                    let i = idx[p] as usize;
                    if dp[i] {
                        let x = if dense_left {
                            op.apply(dv[i], svals[p])
                        } else {
                            op.apply(svals[p], dv[i])
                        };
                        // SAFETY: sparse indices are unique, so writes
                        // are disjoint.
                        unsafe {
                            pv.write(i, x);
                            pp.write(i, true);
                        }
                    }
                });
            }
            wb.dense(w, vals, present, rt);
        }
        (None, None) => {
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            let mut ui = u.iter().peekable();
            let mut vi = v.iter().peekable();
            while let (Some(&(i, x)), Some(&(j, y))) = (ui.peek(), vi.peek()) {
                pm.instr(1);
                match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        ui.next();
                    }
                    std::cmp::Ordering::Greater => {
                        vi.next();
                    }
                    std::cmp::Ordering::Equal => {
                        idx.push(i);
                        vals.push(op.apply(x, y));
                        pm.touch_ref(vals.last().expect("just pushed"));
                        ui.next();
                        vi.next();
                    }
                }
            }
            wb.sparse(w, idx, vals);
        }
    }
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{Min, Plus, Second};
    use crate::runtime::GaloisRuntime;

    #[test]
    fn add_unions_sparse_structures() {
        let u = Vector::from_entries(6, vec![(0, 1u32), (2, 2)]).unwrap();
        let v = Vector::from_entries(6, vec![(2, 10u32), (5, 20)]).unwrap();
        let mut w: Vector<u32> = Vector::new(6);
        ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 1), (2, 12), (5, 20)]);
    }

    #[test]
    fn mult_intersects_sparse_structures() {
        let u = Vector::from_entries(6, vec![(0, 1u32), (2, 2), (5, 3)]).unwrap();
        let v = Vector::from_entries(6, vec![(2, 10u32), (5, 20)]).unwrap();
        let mut w: Vector<u32> = Vector::new(6);
        ewise_mult(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(2, 12), (5, 23)]);
    }

    #[test]
    fn dense_paths_match_sparse_semantics() {
        let mut u = Vector::from_entries(8, vec![(1, 5u64), (3, 7), (6, 2)]).unwrap();
        let mut v = Vector::from_entries(8, vec![(3, 1u64), (6, 9), (7, 4)]).unwrap();
        let mut sparse_add: Vector<u64> = Vector::new(8);
        ewise_add(&mut sparse_add, Min, &u, &v, GaloisRuntime).unwrap();
        let mut sparse_mul: Vector<u64> = Vector::new(8);
        ewise_mult(&mut sparse_mul, Min, &u, &v, GaloisRuntime).unwrap();
        u.to_dense();
        v.to_dense();
        let mut dense_add: Vector<u64> = Vector::new(8);
        ewise_add(&mut dense_add, Min, &u, &v, GaloisRuntime).unwrap();
        let mut dense_mul: Vector<u64> = Vector::new(8);
        ewise_mult(&mut dense_mul, Min, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(sparse_add.entries(), dense_add.entries());
        assert_eq!(sparse_mul.entries(), dense_mul.entries());
    }

    #[test]
    fn dense_with_sparse_operand_gives_a_dense_result() {
        let sparse = Vector::from_entries(8, vec![(1, 5u64), (3, 7), (6, 2)]).unwrap();
        let mut dense = Vector::from_entries(8, vec![(0, 4u64), (3, 1), (6, 9)]).unwrap();
        dense.to_dense();
        // Operand order matters to a non-commutative op: `Second` picks
        // the right input wherever both have an entry.
        for (u, v) in [(&dense, &sparse), (&sparse, &dense)] {
            let mut u_sparse = u.clone();
            u_sparse.to_sparse();
            let mut v_sparse = v.clone();
            v_sparse.to_sparse();
            for rt_static in [false, true] {
                let mut add: Vector<u64> = Vector::new(8);
                let mut mul: Vector<u64> = Vector::new(8);
                let mut add_ref: Vector<u64> = Vector::new(8);
                let mut mul_ref: Vector<u64> = Vector::new(8);
                if rt_static {
                    let rt = crate::runtime::StaticRuntime;
                    ewise_add(&mut add, Second, u, v, rt).unwrap();
                    ewise_mult(&mut mul, Second, u, v, rt).unwrap();
                } else {
                    ewise_add(&mut add, Second, u, v, GaloisRuntime).unwrap();
                    ewise_mult(&mut mul, Second, u, v, GaloisRuntime).unwrap();
                }
                ewise_add(&mut add_ref, Second, &u_sparse, &v_sparse, GaloisRuntime).unwrap();
                ewise_mult(&mut mul_ref, Second, &u_sparse, &v_sparse, GaloisRuntime).unwrap();
                assert!(add.is_dense_store() && mul.is_dense_store());
                assert!(!add_ref.is_dense_store() && !mul_ref.is_dense_store());
                assert_eq!(add.entries(), add_ref.entries());
                assert_eq!(mul.entries(), mul_ref.entries());
                assert_eq!(
                    (add.nvals(), mul.nvals()),
                    (add_ref.nvals(), mul_ref.nvals())
                );
            }
        }
    }

    #[test]
    fn second_op_selects_right_input() {
        let u = Vector::from_entries(3, vec![(0, 1u32)]).unwrap();
        let v = Vector::from_entries(3, vec![(0, 9u32)]).unwrap();
        let mut w: Vector<u32> = Vector::new(3);
        ewise_mult(&mut w, Second, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 9)]);
    }

    #[test]
    fn size_mismatch_errors() {
        let u: Vector<u32> = Vector::new(3);
        let v: Vector<u32> = Vector::new(4);
        let mut w: Vector<u32> = Vector::new(3);
        assert!(ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).is_err());
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let u: Vector<u32> = Vector::new(5);
        let v: Vector<u32> = Vector::new(5);
        let mut w = Vector::from_entries(5, vec![(1, 1u32)]).unwrap();
        ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert!(w.is_empty());
    }
}

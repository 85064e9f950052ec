//! Scalar assignment and apply: `GrB_assign` (with `GrB_ALL`) and
//! `GrB_apply`.

use super::write::{Output, WriteBack};
use crate::binops::BinOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_mismatch, GrbError};
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::ParSlice;
use crate::vector::Vector;

/// `w<mask> = value` over all indices (`GrB_assign` with `GrB_ALL`, as in
/// lines 6 and 11 of Algorithm 2 in the paper).
///
/// Without a mask this densifies `w` with `value` everywhere. With a mask,
/// entries where the (possibly complemented) mask passes are set; the rest
/// are kept, or deleted under `desc.replace`. `Accum(&mut w, ⊙)` folds
/// `value` into the entries the mask admits instead.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] if the mask size differs from
/// `w`.
pub fn assign_scalar<T, M, R>(
    mut w: impl Output<Elem = T>,
    mask: Option<&Vector<M>>,
    value: T,
    desc: &Descriptor,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    M: Scalar,
    R: Runtime,
{
    let (w, accum) = w.target();
    let n = w.size();
    if let Some(m) = mask {
        if m.size() != n {
            return Err(dim_mismatch(
                format!("mask.size == {n}"),
                format!("mask.size == {}", m.size()),
            ));
        }
    }
    let span = super::op_start(
        super::OpKind::AssignScalar,
        R::NAME,
        mask.is_some(),
        desc,
    );
    let input_nnz = mask.map_or(n, Vector::nvals);
    let pm = perfmon::probe();
    if let Some(op) = accum {
        accumulate_scalar(w, op, mask, value, desc, pm);
        if let Some(span) = span {
            span.finish(input_nnz, w.nvals(), 0);
        }
        return Ok(());
    }
    let Some(mask) = mask else {
        // Recycle `w`'s dense store instead of reallocating it.
        let (mut vals, mut present) = super::write::take_or_alloc_dense(w, n);
        vals.fill(value);
        present.fill(true);
        w.set_dense(vals, present);
        if let Some(span) = span {
            span.finish(input_nnz, w.nvals(), 0);
        }
        return Ok(());
    };

    w.to_dense();
    // Sparse mask, no complement, no replace: touch only the mask entries
    // (the cheap path bfs relies on for `dist<frontier> = level`).
    if !desc.mask_complement && !desc.replace {
        if let Some((idx, mvals)) = mask.sparse_parts() {
            let added = galois_rt::ReduceSum::new();
            {
                let (vals, present) = dense_parts_mut(w);
                let pv = ParSlice::new(vals);
                let pp = ParSlice::new(present);
                rt.parallel_for(idx.len(), |p| {
                    pm.instr(2);
                    pm.touch_ref(&idx[p]);
                    let i = idx[p] as usize;
                    if desc.mask_structural || mvals[p].is_nonzero() {
                        // SAFETY: mask indices are unique, so writes are
                        // disjoint.
                        unsafe {
                            pm.touch(pv.addr_of(i));
                            if !pp.read(i) {
                                added.add(1);
                                pp.write(i, true);
                            }
                            pv.write(i, value);
                        }
                    }
                });
            }
            bump_dense_nvals(w, added.reduce() as usize);
            if let Some(span) = span {
                span.finish(input_nnz, w.nvals(), 0);
            }
            return Ok(());
        }
    }

    // General path: one pass over every slot.
    let kept = galois_rt::ReduceSum::new();
    {
        let (vals, present) = dense_parts_mut(w);
        let pv = ParSlice::new(vals);
        let pp = ParSlice::new(present);
        rt.parallel_for(n, |i| {
            pm.instr(2);
            let pass = mask.mask_at(i as u32, desc.mask_structural, pm) != desc.mask_complement;
            // SAFETY: each index is visited by exactly one iteration.
            unsafe {
                pm.touch(pv.addr_of(i));
                if pass {
                    pv.write(i, value);
                    pp.write(i, true);
                    kept.add(1);
                } else if desc.replace {
                    pp.write(i, false);
                } else if pp.read(i) {
                    kept.add(1);
                }
            }
        });
    }
    set_dense_nvals(w, kept.reduce() as usize);
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

/// `w<mask> ⊙= value`: the entries the mask admits, all holding `value`,
/// go through the accumulated write-back.
fn accumulate_scalar<T: Scalar, M: Scalar, B: BinOp<T>>(
    w: &mut Vector<T>,
    op: B,
    mask: Option<&Vector<M>>,
    value: T,
    desc: &Descriptor,
    pm: perfmon::Probe,
) {
    let n = w.size() as u32;
    let admits = |m: &Vector<M>, i: u32| {
        pm.instr(1);
        m.mask_at(i, desc.mask_structural, pm) != desc.mask_complement
    };
    let t: Vec<(u32, T)> = match mask {
        None => (0..n).map(|i| (i, value)).collect(),
        Some(m) => match m.sparse_parts() {
            Some((idx, _)) if !desc.mask_complement => idx
                .iter()
                .filter(|&&i| admits(m, i))
                .map(|&i| (i, value))
                .collect(),
            _ => (0..n)
                .filter(|&i| admits(m, i))
                .map(|i| (i, value))
                .collect(),
        },
    };
    WriteBack::masked(desc.replace, Some(op), mask, desc, pm).entries(w, &t);
}

/// `w = f(u)` element-wise over explicit entries (`GrB_apply`).
///
/// The output takes `u`'s structure; `Accum(&mut w, ⊙)` folds `f(u)`
/// into `w` instead, in `O(nvals(u))` when `w` is dense and `u` sparse.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] if sizes differ.
pub fn apply<T, R>(
    mut w: impl Output<Elem = T>,
    u: &Vector<T>,
    f: impl Fn(T) -> T + Sync,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    R: Runtime,
{
    let (w, accum) = w.target();
    if w.size() != u.size() {
        return Err(dim_mismatch(
            format!("w.size == {}", u.size()),
            format!("w.size == {}", w.size()),
        ));
    }
    let span = super::op_start_plain(super::OpKind::Apply, R::NAME);
    let pm = perfmon::probe();
    let input_nnz = u.nvals();
    let wb = WriteBack::unmasked(true, accum, pm);
    if let Some((uvals, upresent)) = u.dense_parts() {
        let n = u.size();
        let (mut vals, mut present) = wb.dense_scratch(w, n);
        {
            let pv = ParSlice::new(&mut vals);
            let pp = ParSlice::new(&mut present);
            rt.parallel_for(n, |i| {
                pm.instr(1);
                pm.touch_ref(&uvals[i]);
                if upresent[i] {
                    // SAFETY: disjoint indices.
                    unsafe {
                        pv.write(i, f(uvals[i]));
                        pp.write(i, true);
                    }
                }
            });
        }
        wb.dense(w, vals, present, rt);
    } else {
        let (idx, uvals) = u.sparse_parts().expect("vector is sparse or dense");
        let mut vals = vec![T::ZERO; uvals.len()];
        {
            let pv = ParSlice::new(&mut vals);
            rt.parallel_for(uvals.len(), |p| {
                pm.instr(1);
                pm.touch_ref(&uvals[p]);
                // SAFETY: disjoint indices.
                unsafe { pv.write(p, f(uvals[p])) };
            });
        }
        wb.sparse(w, idx.to_vec(), vals);
    }
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

/// In-place `u = f(u)` (`GrB_apply` with output aliasing input, a pattern
/// LAGraph uses heavily for pagerank).
pub fn apply_inplace<T, R>(u: &mut Vector<T>, f: impl Fn(T) -> T + Sync, rt: R)
where
    T: Scalar,
    R: Runtime,
{
    let span = super::op_start_plain(super::OpKind::ApplyInplace, R::NAME);
    let pm = perfmon::probe();
    let input_nnz = u.nvals();
    match u.dense_parts() {
        Some(_) => {
            let (vals, present) = dense_parts_mut(u);
            let pv = ParSlice::new(vals);
            let n = present.len();
            let present: &[bool] = present;
            rt.parallel_for(n, |i| {
                pm.instr(1);
                if present[i] {
                    // SAFETY: disjoint indices.
                    unsafe {
                        pm.touch(pv.addr_of(i));
                        let v = pv.read(i);
                        pv.write(i, f(v));
                    }
                }
            });
        }
        None => {
            let vals = sparse_vals_mut(u);
            let pv = ParSlice::new(vals);
            rt.parallel_for(pv.len(), |p| {
                pm.instr(1);
                // SAFETY: disjoint indices.
                unsafe {
                    pm.touch(pv.addr_of(p));
                    let v = pv.read(p);
                    pv.write(p, f(v));
                }
            });
        }
    }
    if let Some(span) = span {
        span.finish(input_nnz, u.nvals(), 0);
    }
}

pub(crate) fn dense_parts_mut<T: Scalar>(v: &mut Vector<T>) -> (&mut [T], &mut [bool]) {
    match &mut v.store {
        crate::vector::Store::Dense { vals, present, .. } => (vals, present),
        crate::vector::Store::Sparse { .. } => unreachable!("caller densified"),
    }
}

fn sparse_vals_mut<T: Scalar>(v: &mut Vector<T>) -> &mut [T] {
    match &mut v.store {
        crate::vector::Store::Sparse { vals, .. } => vals,
        crate::vector::Store::Dense { .. } => unreachable!("caller checked sparse"),
    }
}

fn bump_dense_nvals<T: Scalar>(v: &mut Vector<T>, added: usize) {
    if let crate::vector::Store::Dense { nvals, .. } = &mut v.store {
        *nvals += added;
    }
}

fn set_dense_nvals<T: Scalar>(v: &mut Vector<T>, count: usize) {
    if let crate::vector::Store::Dense { nvals, .. } = &mut v.store {
        *nvals = count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{GaloisRuntime, StaticRuntime};

    #[test]
    fn unmasked_assign_densifies() {
        let mut w: Vector<u32> = Vector::new(5);
        assign_scalar(&mut w, None::<&Vector<bool>>, 7, &Descriptor::new(), GaloisRuntime)
            .unwrap();
        assert_eq!(w.nvals(), 5);
        assert!(w.iter().all(|(_, v)| v == 7));
    }

    #[test]
    fn sparse_mask_assign_touches_only_mask_entries() {
        let mut w = Vector::new_dense(6, 0u32);
        let mask = Vector::from_entries(6, vec![(1, true), (4, true)]).unwrap();
        assign_scalar(&mut w, Some(&mask), 9, &Descriptor::new(), StaticRuntime).unwrap();
        assert_eq!(w.get(1), Some(9));
        assert_eq!(w.get(4), Some(9));
        assert_eq!(w.get(0), Some(0));
        assert_eq!(w.nvals(), 6);
    }

    #[test]
    fn masked_assign_adds_new_entries() {
        let mut w: Vector<u32> = Vector::new(4);
        let mask = Vector::from_entries(4, vec![(2, 1u32)]).unwrap();
        assign_scalar(&mut w, Some(&mask), 5, &Descriptor::new(), GaloisRuntime).unwrap();
        assert_eq!(w.nvals(), 1);
        assert_eq!(w.get(2), Some(5));
    }

    #[test]
    fn complement_mask_assign() {
        let mut w: Vector<u32> = Vector::new(3);
        let mask = Vector::from_entries(3, vec![(0, 1u32)]).unwrap();
        let desc = Descriptor::new().with_mask_complement(true);
        assign_scalar(&mut w, Some(&mask), 8, &desc, GaloisRuntime).unwrap();
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(1), Some(8));
        assert_eq!(w.get(2), Some(8));
    }

    #[test]
    fn replace_deletes_uncovered_entries() {
        let mut w = Vector::new_dense(3, 1u32);
        let mask = Vector::from_entries(3, vec![(1, 1u32)]).unwrap();
        let desc = Descriptor::new().with_replace(true);
        assign_scalar(&mut w, Some(&mask), 5, &desc, StaticRuntime).unwrap();
        assert_eq!(w.entries(), vec![(1, 5)]);
    }

    #[test]
    fn valued_mask_skips_explicit_zeros() {
        let mut w: Vector<u32> = Vector::new(3);
        let mut mask: Vector<u32> = Vector::new(3);
        mask.set(0, 0).unwrap();
        mask.set(1, 2).unwrap();
        assign_scalar(&mut w, Some(&mask), 5, &Descriptor::new(), GaloisRuntime).unwrap();
        assert_eq!(w.get(0), None, "explicit zero mask entry must not pass");
        assert_eq!(w.get(1), Some(5));
        let desc = Descriptor::new().with_mask_structural(true);
        assign_scalar(&mut w, Some(&mask), 6, &desc, GaloisRuntime).unwrap();
        assert_eq!(w.get(0), Some(6), "structural mask counts presence");
    }

    #[test]
    fn mask_size_mismatch_errors() {
        let mut w: Vector<u32> = Vector::new(3);
        let mask = Vector::from_entries(5, vec![(0, 1u32)]).unwrap();
        assert!(assign_scalar(&mut w, Some(&mask), 1, &Descriptor::new(), GaloisRuntime).is_err());
    }

    #[test]
    fn apply_preserves_structure() {
        let u = Vector::from_entries(6, vec![(1, 2u32), (3, 5)]).unwrap();
        let mut w: Vector<u32> = Vector::new(6);
        apply(&mut w, &u, |x| x * 10, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(1, 20), (3, 50)]);
    }

    #[test]
    fn apply_dense_input() {
        let u = Vector::new_dense(4, 3u32);
        let mut w: Vector<u32> = Vector::new(4);
        apply(&mut w, &u, |x| x + 1, StaticRuntime).unwrap();
        assert_eq!(w.nvals(), 4);
        assert!(w.iter().all(|(_, v)| v == 4));
    }

    #[test]
    fn apply_inplace_both_stores() {
        let mut u = Vector::from_entries(4, vec![(0, 1u32), (2, 3)]).unwrap();
        apply_inplace(&mut u, |x| x * 2, GaloisRuntime);
        assert_eq!(u.entries(), vec![(0, 2), (2, 6)]);
        u.to_dense();
        apply_inplace(&mut u, |x| x + 1, GaloisRuntime);
        assert_eq!(u.entries(), vec![(0, 3), (2, 7)]);
    }

    #[test]
    fn apply_dimension_mismatch() {
        let u: Vector<u32> = Vector::new(3);
        let mut w: Vector<u32> = Vector::new(4);
        assert!(apply(&mut w, &u, |x| x, GaloisRuntime).is_err());
    }
}

//! Indexed extraction (gather): `GrB_extract` with an index array.
//!
//! FastSV's pointer-jumping step `grandparent[i] = parent[parent[i]]` is
//! exactly a gather, and the paper's point (§V-B, cc) is that the matrix
//! API can only run a *fixed* number of such bulk jumps per round.

use crate::error::{dim_mismatch, GrbError};
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::ParSlice;
use crate::vector::Vector;

/// `w[i] = u[indices[i]]` for every `i`; `w` takes the size of `indices`.
/// Missing `u` entries leave `w[i]` implicit.
///
/// # Errors
///
/// Returns [`GrbError::IndexOutOfBounds`] if any index exceeds `u`.
pub fn extract<T, R>(
    w: &mut Vector<T>,
    u: &Vector<T>,
    indices: &[u32],
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    R: Runtime,
{
    if w.size() != indices.len() {
        return Err(dim_mismatch(
            format!("w.size == indices.len() == {}", indices.len()),
            format!("w.size == {}", w.size()),
        ));
    }
    for &ix in indices {
        if ix as usize >= u.size() {
            return Err(GrbError::IndexOutOfBounds {
                index: ix as usize,
                bound: u.size(),
            });
        }
    }
    let span = super::op_start_plain(super::OpKind::Extract, R::NAME);
    let pm = perfmon::probe();
    let input_nnz = u.nvals();
    let n = indices.len();
    // Dense gather target over the output dimension.
    let materialized = n * (std::mem::size_of::<T>() + std::mem::size_of::<bool>());
    let mut vals = vec![T::ZERO; n];
    let mut present = vec![false; n];
    {
        let pv = ParSlice::new(&mut vals);
        let pp = ParSlice::new(&mut present);
        rt.parallel_for(n, |i| {
            pm.instr(2);
            pm.touch_ref(&indices[i]);
            if let Some(x) = u.get(indices[i]) {
                pm.touch_ref(&x);
                // SAFETY: disjoint indices.
                unsafe {
                    pv.write(i, x);
                    pp.write(i, true);
                }
            }
        });
    }
    w.set_dense(vals, present);
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), materialized);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::GaloisRuntime;

    #[test]
    fn gather_follows_indices() {
        let u = Vector::from_entries(4, vec![(0, 10u32), (1, 11), (2, 12), (3, 13)]).unwrap();
        let mut w: Vector<u32> = Vector::new(4);
        extract(&mut w, &u, &[3, 2, 1, 0], GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 13), (1, 12), (2, 11), (3, 10)]);
    }

    #[test]
    fn pointer_jump_squares_parent_chain() {
        // parent = [0, 0, 1, 2]: one jump gives [0, 0, 0, 1]
        let parent = Vector::from_entries(4, vec![(0, 0u32), (1, 0), (2, 1), (3, 2)]).unwrap();
        let idx: Vec<u32> = (0..4).map(|i| parent.get(i).unwrap()).collect();
        let mut gp: Vector<u32> = Vector::new(4);
        extract(&mut gp, &parent, &idx, GaloisRuntime).unwrap();
        assert_eq!(gp.entries(), vec![(0, 0), (1, 0), (2, 0), (3, 1)]);
    }

    #[test]
    fn missing_entries_stay_implicit() {
        let u = Vector::from_entries(4, vec![(1, 5u32)]).unwrap();
        let mut w: Vector<u32> = Vector::new(2);
        extract(&mut w, &u, &[1, 2], GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 5)]);
    }

    #[test]
    fn out_of_bounds_index_errors() {
        let u: Vector<u32> = Vector::new(3);
        let mut w: Vector<u32> = Vector::new(1);
        assert!(extract(&mut w, &u, &[3], GaloisRuntime).is_err());
    }

    #[test]
    fn output_size_must_match_indices() {
        let u: Vector<u32> = Vector::new(3);
        let mut w: Vector<u32> = Vector::new(2);
        assert!(extract(&mut w, &u, &[0], GaloisRuntime).is_err());
    }
}

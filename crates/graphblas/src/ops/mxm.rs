//! Sparse matrix-matrix multiplication (`GrB_mxm`, SpGEMM).
//!
//! Implements the three methods SuiteSparse chooses among (paper §III-A):
//!
//! * **Gustavson SAXPY** — per-thread dense accumulator over the output
//!   row; fast, memory hungry.
//! * **Hash SAXPY** — per-row open-addressing table; memory lean, extra
//!   lookup work.
//! * **SDOT** — per-output-entry dot products; only sensible under a mask
//!   that bounds the output (the SandiaDot tc and ktruss patterns).

use crate::binops::SemiringOps;
use crate::descriptor::{Descriptor, MethodHint};
use crate::error::{dim_mismatch, GrbError};
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::ParSlice;
use galois_rt::substrate::PerThread;

/// `C<mask> = A ⊗.⊕ B` (or `A ⊗.⊕ Bᵀ` with `desc.transpose_b`).
///
/// Returns the product as a fresh matrix. The mask keeps only entries at
/// its (value-passing or structural) positions; `desc.method` pins the
/// SpGEMM method, with [`MethodHint::Auto`] reproducing SuiteSparse's
/// choice (mask → dot, otherwise Gustavson, hash for very sparse rows).
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on non-conforming operands and
/// [`GrbError::MaskRequired`] for an unmasked dot-method request.
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
    if let Some(m) = mask {
        if m.nrows() != a.nrows() || m.ncols() != b_cols_eff {
            return Err(dim_mismatch(
                format!("mask is {} x {}", a.nrows(), b_cols_eff),
                format!("mask is {} x {}", m.nrows(), m.ncols()),
            ));
        }
    }

    let span = super::op_start(super::OpKind::Mxm, R::NAME, mask.is_some(), desc);
    let pm = perfmon::probe();
    let input_nnz = a.nvals() + b.nvals();
    let finish = |span: Option<super::OpTrace>, c: &Matrix<T>, materialized: usize| {
        if let Some(span) = span {
            span.finish(input_nnz, c.nvals(), materialized);
        }
    };

    let method = match desc.method {
        MethodHint::Auto => {
            if mask.is_some() && !desc.mask_complement {
                MethodHint::Dot
            } else if avg_row_nvals(a) < 4.0 {
                MethodHint::Hash
            } else {
                MethodHint::Gustavson
            }
        }
        m => m,
    };

    match method {
        MethodHint::Dot => {
            let Some(mask) = mask else {
                return Err(GrbError::MaskRequired("mxm with the dot method"));
            };
            if desc.mask_complement {
                return Err(GrbError::MaskRequired(
                    "mxm(dot) with a complemented mask (unbounded output)",
                ));
            }
            let bt = if desc.transpose_b { b } else { b.transpose() };
            let c = dot_masked(mask, semiring, a, bt, desc, rt, pm);
            finish(span, &c, 0);
            Ok(c)
        }
        MethodHint::Gustavson | MethodHint::Hash | MethodHint::Auto => {
            let b_eff = if desc.transpose_b {
                // SAXPY needs row access to the effective B: take the
                // (cached) Bᵀ view.
                b.transpose()
            } else {
                b
            };
            let (c, materialized) = if matches!(method, MethodHint::Hash) {
                (saxpy_hash(semiring, a, b_eff, rt, pm), 0)
            } else {
                // Per-thread Gustavson dense accumulator (values + stamps).
                let scratch = b_eff.ncols()
                    * (std::mem::size_of::<T>() + std::mem::size_of::<u32>());
                (saxpy_gustavson(semiring, a, b_eff, rt, pm), scratch)
            };
            let c = match mask {
                Some(m) => filter_by_mask(c, m, desc, rt),
                None => c,
            };
            finish(span, &c, materialized);
            Ok(c)
        }
    }
}

fn avg_row_nvals<T: Scalar>(a: &Matrix<T>) -> f64 {
    if a.nrows() == 0 {
        0.0
    } else {
        a.nvals() as f64 / a.nrows() as f64
    }
}

/// Gustavson scratch: a dense accumulator with generation stamps so it is
/// cleared in O(touched) rather than O(ncols) per row. It is pooled across
/// calls, so the generation counter runs on from call to call.
struct DenseScratch<T> {
    vals: Vec<T>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<u32>,
}

impl<T: Scalar> DenseScratch<T> {
    fn new() -> Self {
        DenseScratch {
            vals: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            touched: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, T::ZERO);
            self.stamp.resize(n, 0);
        }
    }

    /// Bytes retained by the scratch arrays (for pool accounting).
    fn retained_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<T>()
            + (self.stamp.capacity() + self.touched.capacity()) * std::mem::size_of::<u32>()
    }

    /// Opens the next row's generation. At the top of the `u32` range
    /// every stamp is cleared first, so neither a never-stamped slot nor a
    /// stale one can match a re-issued generation.
    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }
}

/// Per-row flop count of the SAXPY methods: every entry `a(i,k)`
/// contributes `nnz(b(k,:))` multiply-adds. The `+ 1` keeps empty rows
/// from collapsing into a single unbounded chunk.
fn saxpy_row_flops<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, i: usize) -> u64 {
    let (acols, _) = a.row(i as u32);
    acols.iter().map(|&k| b.row_nvals(k) as u64).sum::<u64>() + 1
}

/// Assembles the result CSR and returns the row buffers to the pool.
fn finish_rows<T: Scalar, R: Runtime>(
    nrows: usize,
    ncols: usize,
    mut rows: Vec<Vec<(u32, T)>>,
    rt: R,
) -> Matrix<T> {
    let c = Matrix::from_rows_drain(nrows, ncols, &mut rows);
    rt.workspace().give_rows(rows);
    c
}

fn saxpy_gustavson<T, S, R>(
    semiring: S,
    a: &Matrix<T>,
    b: &Matrix<T>,
    rt: R,
    pm: perfmon::Probe,
) -> Matrix<T>
where
    T: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let nrows = a.nrows();
    let ncols = b.ncols();
    let (values, scratch_reused) = match rt
        .workspace()
        .take::<Vec<DenseScratch<T>>>(crate::workspace::Shelf::Scratch)
    {
        Some(values) => (values, true),
        None => (Vec::new(), false),
    };
    let scratch: PerThread<DenseScratch<T>> = PerThread::from_values(values, DenseScratch::new);
    let mut rows: Vec<Vec<(u32, T)>> = rt.workspace().take_rows(nrows);
    {
        let pr = ParSlice::new(&mut rows);
        rt.parallel_for_balanced(
            nrows,
            |i| saxpy_row_flops(a, b, i),
            |i| {
                scratch.with(|s| {
                    s.ensure(ncols);
                    let generation = s.next_generation();
                    s.touched.clear();
                    let (acols, avals) = a.row(i as u32);
                    for (&k, &av) in acols.iter().zip(avals.iter()) {
                        pm.touch_ref(&av);
                        let (bcols, bvals) = b.row(k);
                        for (&j, &bv) in bcols.iter().zip(bvals.iter()) {
                            pm.instr(2);
                            pm.touch_ref(&bv);
                            let prod = semiring.mul(av, bv);
                            let j = j as usize;
                            pm.touch_ref(&s.vals[j]);
                            if s.stamp[j] != generation {
                                s.stamp[j] = generation;
                                s.vals[j] = prod;
                                s.touched.push(j as u32);
                            } else {
                                s.vals[j] = semiring.add(s.vals[j], prod);
                            }
                        }
                    }
                    s.touched.sort_unstable();
                    // SAFETY: one writer per row index.
                    let slot = unsafe { pr.get_mut(i) };
                    slot.extend(s.touched.iter().map(|&j| (j, s.vals[j as usize])));
                });
            },
        );
    }
    let values = scratch.into_inner();
    let bytes: usize = values.iter().map(DenseScratch::retained_bytes).sum();
    if !scratch_reused {
        crate::workspace::note_fresh(bytes);
    }
    rt.workspace()
        .give(crate::workspace::Shelf::Scratch, values, bytes);
    finish_rows(nrows, ncols, rows, rt)
}

/// Open-addressing scratch for the hash SAXPY method.
struct HashScratch<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
}

const HASH_EMPTY: u32 = u32::MAX;

impl<T: Scalar> HashScratch<T> {
    fn new() -> Self {
        HashScratch {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn reset(&mut self, capacity_hint: usize) {
        let cap = (capacity_hint.max(8) * 2).next_power_of_two();
        self.keys.clear();
        self.keys.resize(cap, HASH_EMPTY);
        self.vals.clear();
        self.vals.resize(cap, T::ZERO);
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        // Fibonacci hashing: spreads consecutive column ids.
        let h = (u64::from(key)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    fn upsert(&mut self, key: u32, v: T, add: impl Fn(T, T) -> T, pm: perfmon::Probe) {
        let mask = self.keys.len() - 1;
        let mut pos = self.slot(key) & mask;
        loop {
            pm.instr(1);
            pm.touch_ref(&self.keys[pos]);
            if self.keys[pos] == HASH_EMPTY {
                self.keys[pos] = key;
                self.vals[pos] = v;
                return;
            }
            if self.keys[pos] == key {
                self.vals[pos] = add(self.vals[pos], v);
                return;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Drains the live table entries into `out` (empty on entry) in
    /// ascending key order.
    fn drain_sorted_into(&self, out: &mut Vec<(u32, T)>) {
        out.extend(
            self.keys
                .iter()
                .zip(self.vals.iter())
                .filter(|(&k, _)| k != HASH_EMPTY)
                .map(|(&k, &v)| (k, v)),
        );
        out.sort_unstable_by_key(|e| e.0);
    }

    /// Bytes retained by the table arrays (for pool accounting).
    fn retained_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<T>()
    }
}

fn saxpy_hash<T, S, R>(
    semiring: S,
    a: &Matrix<T>,
    b: &Matrix<T>,
    rt: R,
    pm: perfmon::Probe,
) -> Matrix<T>
where
    T: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let nrows = a.nrows();
    let ncols = b.ncols();
    let (values, scratch_reused) = match rt
        .workspace()
        .take::<Vec<HashScratch<T>>>(crate::workspace::Shelf::Scratch)
    {
        Some(values) => (values, true),
        None => (Vec::new(), false),
    };
    let scratch: PerThread<HashScratch<T>> = PerThread::from_values(values, HashScratch::new);
    let add = |x, y| semiring.add(x, y);
    let mut rows: Vec<Vec<(u32, T)>> = rt.workspace().take_rows(nrows);
    {
        let pr = ParSlice::new(&mut rows);
        rt.parallel_for_balanced(
            nrows,
            |i| saxpy_row_flops(a, b, i),
            |i| {
                let (acols, avals) = a.row(i as u32);
                // Upper bound on the row's intermediate products.
                let mut flops = 0usize;
                for &k in acols {
                    flops += b.row_nvals(k);
                }
                if flops == 0 {
                    return;
                }
                scratch.with(|s| {
                    s.reset(flops);
                    for (&k, &av) in acols.iter().zip(avals.iter()) {
                        pm.touch_ref(&av);
                        let (bcols, bvals) = b.row(k);
                        for (&j, &bv) in bcols.iter().zip(bvals.iter()) {
                            pm.instr(2);
                            pm.touch_ref(&bv);
                            s.upsert(j, semiring.mul(av, bv), add, pm);
                        }
                    }
                    // SAFETY: one writer per row index.
                    s.drain_sorted_into(unsafe { pr.get_mut(i) });
                });
            },
        );
    }
    let values = scratch.into_inner();
    let bytes: usize = values.iter().map(HashScratch::retained_bytes).sum();
    if !scratch_reused {
        crate::workspace::note_fresh(bytes);
    }
    rt.workspace()
        .give(crate::workspace::Shelf::Scratch, values, bytes);
    finish_rows(nrows, ncols, rows, rt)
}

/// Masked dot-product SpGEMM: computes only the entries the mask allows,
/// with `bt` holding the effective Bᵀ in CSR.
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
    let mut rows: Vec<Vec<(u32, T)>> = rt.workspace().take_rows(nrows);
    {
        let pr = ParSlice::new(&mut rows);
        // Dot work per row: one merge-join per admitted mask entry, each
        // bounded by the a-row length — so the mask and a row sizes are
        // the balancing estimate.
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
                // Merge-join the two sorted sparse rows.
                let (mut p, mut q) = (0usize, 0usize);
                let mut acc = semiring.add_identity();
                let mut any = false;
                while p < acols.len() && q < bcols.len() {
                    pm.instr(1);
                    pm.touch_ref(&acols[p]);
                    pm.touch_ref(&bcols[q]);
                    match acols[p].cmp(&bcols[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            acc = semiring.add(acc, semiring.mul(avals[p], bvals[q]));
                            any = true;
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if any {
                    out.push((j, acc));
                }
            }
        });
    }
    finish_rows(nrows, ncols, rows, rt)
}

/// Keeps the entries of `c` the mask allows (the post-hoc mask application
/// of the SAXPY methods).
fn filter_by_mask<T, M, R>(c: Matrix<T>, mask: &Matrix<M>, desc: &Descriptor, rt: R) -> Matrix<T>
where
    T: Scalar,
    M: Scalar,
    R: Runtime,
{
    crate::ops::select_matrix(
        &c,
        |i, j, _| {
            let pass = match mask.get(i, j) {
                Some(mv) => desc.mask_structural || mv.is_nonzero(),
                None => false,
            };
            pass != desc.mask_complement
        },
        rt,
    )
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
    fn gustavson_matches_dense_reference() {
        let a = mat(3, vec![(0, 0, 2), (0, 2, 1), (1, 1, 3), (2, 0, 4)]);
        let b = mat(3, vec![(0, 1, 5), (1, 2, 6), (2, 1, 7)]);
        let desc = Descriptor::new().with_method(MethodHint::Gustavson);
        let c = mxm(None::<&Matrix<bool>>, PlusTimes, &a, &b, &desc, GaloisRuntime).unwrap();
        assert_eq!(c.to_tuples(), dense_product(&a, &b));
    }

    #[test]
    fn hash_matches_gustavson() {
        let a = tri_graph();
        let b = tri_graph();
        let g = mxm(
            None::<&Matrix<bool>>,
            PlusTimes,
            &a,
            &b,
            &Descriptor::new().with_method(MethodHint::Gustavson),
            GaloisRuntime,
        )
        .unwrap();
        let h = mxm(
            None::<&Matrix<bool>>,
            PlusTimes,
            &a,
            &b,
            &Descriptor::new().with_method(MethodHint::Hash),
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(g.to_tuples(), h.to_tuples());
    }

    #[test]
    fn masked_dot_counts_triangles() {
        // SandiaDot: C<L> = L * Uᵀ with plus_pair; sum(C) = triangles.
        let adj = tri_graph();
        let l = crate::ops::select_matrix(&adj, |i, j, _| j < i, GaloisRuntime);
        let u = crate::ops::select_matrix(&adj, |i, j, _| j > i, GaloisRuntime);
        let desc = Descriptor::new()
            .with_method(MethodHint::Dot)
            .with_transpose_b(true)
            .with_mask_structural(true);
        let c = mxm(Some(&l), PlusPair, &l, &u, &desc, GaloisRuntime).unwrap();
        let total = crate::ops::reduce_matrix(&c, Plus, GaloisRuntime);
        assert_eq!(total, 1, "exactly one triangle");
    }

    #[test]
    fn dot_without_mask_errors() {
        let a = tri_graph();
        let desc = Descriptor::new().with_method(MethodHint::Dot);
        assert!(matches!(
            mxm(None::<&Matrix<bool>>, PlusTimes, &a, &a, &desc, GaloisRuntime),
            Err(GrbError::MaskRequired(_))
        ));
    }

    #[test]
    fn transpose_b_multiplies_by_bt() {
        let a = mat(2, vec![(0, 0, 1), (0, 1, 2)]);
        let b = mat(2, vec![(1, 0, 3), (1, 1, 4)]); // bt = [[0,3],[0,4]]
        let desc = Descriptor::new()
            .with_method(MethodHint::Gustavson)
            .with_transpose_b(true);
        let c = mxm(None::<&Matrix<bool>>, PlusTimes, &a, &b, &desc, GaloisRuntime).unwrap();
        // C = A * Bᵀ: C(0,1) = 1*3 + 2*4 = 11
        assert_eq!(c.get(0, 1), Some(11));
        assert_eq!(c.get(0, 0), None);
    }

    #[test]
    fn saxpy_with_mask_filters_output() {
        let a = tri_graph();
        let maskm = mat(4, vec![(0, 1, 1)]);
        let desc = Descriptor::new()
            .with_method(MethodHint::Gustavson)
            .with_mask_structural(true);
        let c = mxm(Some(&maskm), PlusTimes, &a, &a, &desc, GaloisRuntime).unwrap();
        assert!(c.to_tuples().iter().all(|&(i, j, _)| (i, j) == (0, 1)));
        assert_eq!(c.get(0, 1), Some(1), "paths 0->2->1 of length 2");
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = mat(3, vec![(0, 0, 1)]);
        let b = Matrix::from_tuples(2, 2, vec![(0, 0, 1u64)], Plus).unwrap();
        assert!(mxm(
            None::<&Matrix<bool>>,
            PlusTimes,
            &a,
            &b,
            &Descriptor::new(),
            GaloisRuntime
        )
        .is_err());
    }

    #[test]
    fn pooled_gustavson_scratch_survives_generation_wrap() {
        // Recycled scratch at 2^20 below the top of the generation range,
        // and enough rows that some thread runs more than 2^20 of them in
        // this one call. Row i of the product is column i + 1 (mod n), a
        // slot its thread has never stamped, so a wrapped generation that
        // matched unstamped slots would drop it. `u8` keeps the scratch
        // shelf private to this test.
        const HEADROOM: u32 = 1 << 20;
        let n = galois_rt::threads() * HEADROOM as usize + 8;
        let shift: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32, 1u8)).collect();
        let a = Matrix::from_tuples(n, n, shift, Plus).unwrap();
        let identity: Vec<_> = (0..n as u32).map(|i| (i, i, 1u8)).collect();
        let b = Matrix::from_tuples(n, n, identity, Plus).unwrap();
        let desc = Descriptor::new().with_method(MethodHint::Gustavson);
        let product = || mxm(None::<&Matrix<bool>>, PlusTimes, &a, &b, &desc, GaloisRuntime);
        let fresh = product().unwrap();

        let seeded: Vec<DenseScratch<u8>> = (0..galois_rt::max_threads())
            .map(|_| DenseScratch {
                generation: u32::MAX - HEADROOM,
                ..DenseScratch::new()
            })
            .collect();
        crate::workspace::global().give(crate::workspace::Shelf::Scratch, seeded, 0);
        let pooled = product().unwrap();
        assert_eq!(pooled.to_tuples(), fresh.to_tuples());
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a: Matrix<u64> = Matrix::new(3, 3);
        let b = mat(3, vec![(0, 1, 1)]);
        for method in [MethodHint::Gustavson, MethodHint::Hash] {
            let c = mxm(
                None::<&Matrix<bool>>,
                PlusTimes,
                &a,
                &b,
                &Descriptor::new().with_method(method),
                GaloisRuntime,
            )
            .unwrap();
            assert_eq!(c.nvals(), 0);
        }
    }
}

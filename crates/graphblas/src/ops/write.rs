//! The write-back every vector op shares: how a computed result `t`
//! lands in the output `w`.
//!
//! An op's output argument decides it. `&mut w` is the plain write: with
//! `desc.replace` `t` is installed and `w`'s old entries are dropped,
//! otherwise `t`'s entries overwrite `w`'s and the rest are kept.
//! [`Accum`]`(&mut w, ⊙)` is the C API's output accumulator,
//! `w⟨m,replace⟩ = w ⊙ t`: where `w` and `t` both hold an entry the result
//! is `w(i) ⊙ t(i)`, where one does it is copied, and under `replace` the
//! entries of `w` that the mask rejects are deleted first.
//!
//! An accumulated write never changes `w`'s storage. Into a dense `w` it
//! costs one slot update per entry of `t`, so folding a sparse update
//! into a dense vector is `O(nvals(t))`, not a pass over `w`; into a
//! sparse `w` it is one merge of the two entry lists.

use crate::binops::BinOp;
use crate::descriptor::Descriptor;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::vector::{Store, Vector};
use galois_rt::substrate::ParSlice;

/// The output operand of an accumulated write, `w ⊙= t` (the C API's
/// `accum` argument): pass `Accum(&mut w, op)` where an op takes its
/// output vector.
///
/// ```
/// use graphblas::binops::Min;
/// use graphblas::{ops, Accum, GaloisRuntime, Vector};
///
/// let mut dist = Vector::new_dense(4, 9u64);
/// let improved = Vector::from_entries(4, vec![(1, 3u64), (2, 12)])?;
/// // dist = min(dist, improved), touching only improved's two entries.
/// ops::apply(Accum(&mut dist, Min), &improved, |x| x, GaloisRuntime)?;
/// assert_eq!(dist.entries(), vec![(0, 9), (1, 3), (2, 9), (3, 9)]);
/// assert!(dist.is_dense_store());
/// # Ok::<(), graphblas::GrbError>(())
/// ```
#[derive(Debug)]
pub struct Accum<'w, T, B>(pub &'w mut Vector<T>, pub B);

/// The accumulator of a plain (non-accumulating) write. It has no
/// values, so a plain output's accumulator is always `None`.
#[derive(Debug, Clone, Copy)]
pub enum NoAccum {}

impl<T> BinOp<T> for NoAccum {
    fn apply(self, _: T, _: T) -> T {
        match self {}
    }
}

/// What an op may take as its output: `&mut Vector<T>` (a plain write)
/// or [`Accum`] (an accumulated one).
pub trait Output {
    /// The output's scalar type.
    type Elem: Scalar;
    /// The accumulator ([`NoAccum`] for a plain write).
    type Op: BinOp<Self::Elem>;
    /// The output vector and its accumulator, if any.
    fn target(&mut self) -> (&mut Vector<Self::Elem>, Option<Self::Op>);
}

impl<T: Scalar> Output for &mut Vector<T> {
    type Elem = T;
    type Op = NoAccum;

    fn target(&mut self) -> (&mut Vector<T>, Option<NoAccum>) {
        (&mut **self, None)
    }
}

impl<T: Scalar, B: BinOp<T>> Output for Accum<'_, T, B> {
    type Elem = T;
    type Op = B;

    fn target(&mut self) -> (&mut Vector<T>, Option<B>) {
        (&mut *self.0, Some(self.1))
    }
}

/// One op's write-back: replace flag, accumulator, the mask that
/// `replace` applies to `w`'s old entries under an accumulator, and the
/// op's counter probe.
pub(crate) struct WriteBack<'m, M, B> {
    replace: bool,
    accum: Option<B>,
    mask: Option<&'m Vector<M>>,
    structural: bool,
    complement: bool,
    pm: perfmon::Probe,
}

impl<B> WriteBack<'static, bool, B> {
    /// A write without a mask (`ewise_*`, `apply`).
    pub(crate) fn unmasked(replace: bool, accum: Option<B>, pm: perfmon::Probe) -> Self {
        WriteBack {
            replace,
            accum,
            mask: None,
            structural: false,
            complement: false,
            pm,
        }
    }
}

impl<'m, M: Scalar, B> WriteBack<'m, M, B> {
    /// A write under `mask` as `desc` reads it.
    pub(crate) fn masked(
        replace: bool,
        accum: Option<B>,
        mask: Option<&'m Vector<M>>,
        desc: &Descriptor,
        pm: perfmon::Probe,
    ) -> Self {
        WriteBack {
            replace,
            accum,
            mask,
            structural: desc.mask_structural,
            complement: desc.mask_complement,
            pm,
        }
    }

    /// Dense value + presence buffers for a result over `n` outputs.
    /// A plain replacing write recycles `w`'s own dense store (see
    /// [`take_or_alloc_dense`]); any other write still needs `w` and
    /// gets fresh buffers.
    pub(crate) fn dense_scratch<T: Scalar>(
        &self,
        w: &mut Vector<T>,
        n: usize,
    ) -> (Vec<T>, Vec<bool>) {
        if self.replace && self.accum.is_none() {
            take_or_alloc_dense(w, n)
        } else {
            (vec![T::ZERO; n], vec![false; n])
        }
    }

    /// Commits sorted, duplicate-free `(index, value)` entries. A plain
    /// replace installs a fresh store sized by
    /// [`crate::vector::dense_preferred`]; a plain merge writes
    /// entry-by-entry into the existing store.
    pub(crate) fn entries<T: Scalar>(&self, w: &mut Vector<T>, entries: &[(u32, T)])
    where
        B: BinOp<T>,
    {
        if let Some(op) = self.accum {
            self.retain_masked(w);
            accumulate_sorted(w, entries.iter().copied(), op, self.pm);
        } else if self.replace {
            let n = w.size();
            if crate::vector::dense_preferred(entries.len(), n) {
                let (mut vals, mut present) = take_or_alloc_dense(w, n);
                for &(i, v) in entries {
                    vals[i as usize] = v;
                    present[i as usize] = true;
                }
                w.set_dense(vals, present);
            } else {
                let (idx, vals) = entries.iter().copied().unzip();
                w.set_sparse(idx, vals);
            }
        } else {
            for &(i, v) in entries {
                self.pm.instr(1);
                w.set(i, v).expect("kernel indices in range");
            }
        }
    }

    /// Commits a sorted sparse result of a replacing write (`ewise_*`,
    /// `apply` on sparse operands).
    pub(crate) fn sparse<T: Scalar>(&self, w: &mut Vector<T>, idx: Vec<u32>, vals: Vec<T>)
    where
        B: BinOp<T>,
    {
        debug_assert!(self.replace, "sparse results come from replacing writes");
        match self.accum {
            Some(op) => accumulate_sorted(w, idx.into_iter().zip(vals), op, self.pm),
            None => w.set_sparse(idx, vals),
        }
    }

    /// Commits a dense result (`vals[i]` where `present[i]`). A plain
    /// merge keeps `w`'s old entries where the result has none.
    pub(crate) fn dense<T: Scalar, R: Runtime>(
        &self,
        w: &mut Vector<T>,
        mut vals: Vec<T>,
        mut present: Vec<bool>,
        rt: R,
    ) where
        B: BinOp<T>,
    {
        let pm = self.pm;
        let Some(op) = self.accum else {
            if !self.replace {
                for (i, x) in w.iter() {
                    pm.instr(1);
                    if !present[i as usize] {
                        vals[i as usize] = x;
                        present[i as usize] = true;
                    }
                }
            }
            w.set_dense(vals, present);
            return;
        };
        self.retain_masked(w);
        let Store::Dense {
            vals: wv,
            present: wp,
            nvals,
        } = &mut w.store
        else {
            let entries = present
                .iter()
                .zip(vals)
                .enumerate()
                .filter(|(_, (&p, _))| p)
                .map(|(i, (_, v))| (i as u32, v));
            accumulate_sorted(w, entries, op, pm);
            return;
        };
        let added = galois_rt::ReduceSum::new();
        {
            let pv = ParSlice::new(wv);
            let pp = ParSlice::new(wp);
            rt.parallel_for(vals.len(), |i| {
                pm.instr(1);
                pm.touch_ref(&vals[i]);
                if present[i] {
                    // SAFETY: each index is visited by exactly one iteration.
                    unsafe {
                        if pp.read(i) {
                            pv.write(i, op.apply(pv.read(i), vals[i]));
                        } else {
                            pp.write(i, true);
                            pv.write(i, vals[i]);
                            added.add(1);
                        }
                    }
                }
            });
        }
        *nvals += added.reduce() as usize;
    }

    /// Under an accumulator with `replace`, deletes the entries of `w`
    /// the mask rejects (C API: `w⟨m,replace⟩` keeps nothing outside the
    /// mask). A no-op for every other write.
    fn retain_masked<T: Scalar>(&self, w: &mut Vector<T>) {
        let Some(mask) = self.mask.filter(|_| self.replace && self.accum.is_some()) else {
            return;
        };
        let pm = self.pm;
        let keep = |i: u32| mask.mask_at(i, self.structural, pm) != self.complement;
        match &mut w.store {
            Store::Dense { present, nvals, .. } => {
                for (i, p) in present.iter_mut().enumerate() {
                    pm.instr(1);
                    if *p && !keep(i as u32) {
                        *p = false;
                        *nvals -= 1;
                    }
                }
            }
            Store::Sparse { idx, vals } => {
                let mut kept = 0;
                for p in 0..idx.len() {
                    pm.instr(1);
                    if keep(idx[p]) {
                        idx[kept] = idx[p];
                        vals[kept] = vals[p];
                        kept += 1;
                    }
                }
                idx.truncate(kept);
                vals.truncate(kept);
            }
        }
    }
}

/// `w ⊙= t` for `t` given as ascending, duplicate-free entries, keeping
/// `w`'s storage: a dense `w` takes one slot update per entry, a sparse
/// one is merged with the entry list in a single two-pointer pass.
fn accumulate_sorted<T: Scalar, B: BinOp<T>>(
    w: &mut Vector<T>,
    t: impl Iterator<Item = (u32, T)>,
    op: B,
    pm: perfmon::Probe,
) {
    match &mut w.store {
        Store::Dense {
            vals,
            present,
            nvals,
        } => {
            for (i, v) in t {
                pm.instr(1);
                let i = i as usize;
                pm.touch_ref(&vals[i]);
                if present[i] {
                    vals[i] = op.apply(vals[i], v);
                } else {
                    present[i] = true;
                    vals[i] = v;
                    *nvals += 1;
                }
            }
        }
        Store::Sparse { idx, vals } => {
            let mut out_idx = Vec::with_capacity(idx.len());
            let mut out_vals = Vec::with_capacity(vals.len());
            let mut old = idx.iter().copied().zip(vals.iter().copied()).peekable();
            for (i, v) in t {
                while let Some(&(j, x)) = old.peek() {
                    if j >= i {
                        break;
                    }
                    out_idx.push(j);
                    out_vals.push(x);
                    old.next();
                }
                pm.instr(1);
                let v = match old.next_if(|&(j, _)| j == i) {
                    Some((_, x)) => op.apply(x, v),
                    None => v,
                };
                out_idx.push(i);
                out_vals.push(v);
            }
            for (j, x) in old {
                out_idx.push(j);
                out_vals.push(x);
            }
            *idx = out_idx;
            *vals = out_vals;
        }
    }
}

/// Dense value + presence buffers over `n` outputs for a replace-mode
/// store. `w`'s own previous dense store is reclaimed (zero-normalized so
/// results stay bit-identical to fresh buffers); when it has none of the
/// right shape, fresh buffers are allocated.
pub(crate) fn take_or_alloc_dense<T: Scalar>(w: &mut Vector<T>, n: usize) -> (Vec<T>, Vec<bool>) {
    let bytes = n * (std::mem::size_of::<T>() + std::mem::size_of::<bool>());
    if let Some((mut vals, mut present)) = w.take_dense_store() {
        if vals.len() == n {
            crate::workspace::note_reused(bytes);
            vals.fill(T::ZERO);
            present.fill(false);
            return (vals, present);
        }
    }
    crate::workspace::note_fresh(bytes);
    (vec![T::ZERO; n], vec![false; n])
}

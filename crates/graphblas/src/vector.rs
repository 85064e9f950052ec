//! GraphBLAS vectors with sparse and dense storage.
//!
//! Mirrors the paper's GaloisBLAS design (§III-B): vectors switch between
//! a *sparse* representation (sorted index/value arrays — the "ordered
//! map") and a *dense* array with an explicit-presence flag per slot. The
//! best representation is operation-dependent; kernels and algorithms pick
//! explicitly, as the paper's authors did per application and input.

use crate::error::GrbError;
use crate::scalar::Scalar;

/// Switch-to-dense threshold: a vector whose explicit entries exceed this
/// fraction of its size is better stored densely.
pub const DENSE_THRESHOLD: f64 = 0.10;

/// Whether `nvals` explicit entries out of dimension `n` are better held
/// densely — the single sparse↔dense crossover shared by the SpMV result
/// stores and the kernel picker (see [`DENSE_THRESHOLD`]). Centralized so
/// the storage decision and the kernel heuristic can never disagree about
/// where "dense" begins.
#[inline]
pub fn dense_preferred(nvals: usize, n: usize) -> bool {
    n > 0 && nvals as f64 / n as f64 >= DENSE_THRESHOLD
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Store<T> {
    /// Sorted, duplicate-free index/value pairs.
    Sparse { idx: Vec<u32>, vals: Vec<T> },
    /// One slot per index plus presence flags; `nvals` caches the count.
    Dense {
        vals: Vec<T>,
        present: Vec<bool>,
        nvals: usize,
    },
}

/// A GraphBLAS vector of dimension `n` over scalar `T`.
///
/// # Example
///
/// ```
/// let mut v: graphblas::Vector<u32> = graphblas::Vector::new(10);
/// v.set(3, 42).unwrap();
/// assert_eq!(v.nvals(), 1);
/// assert_eq!(v.get(3), Some(42));
/// assert_eq!(v.get(4), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Vector<T> {
    n: usize,
    pub(crate) store: Store<T>,
}

impl<T: Scalar> Vector<T> {
    /// Creates an empty sparse vector of dimension `n`.
    pub fn new(n: usize) -> Self {
        Vector {
            n,
            store: Store::Sparse {
                idx: Vec::new(),
                vals: Vec::new(),
            },
        }
    }

    /// Creates a dense vector with every entry explicit and equal to
    /// `fill` (the `GrB_assign(…, GrB_ALL, …)` idiom of Algorithm 2).
    pub fn new_dense(n: usize, fill: T) -> Self {
        Vector {
            n,
            store: Store::Dense {
                vals: vec![fill; n],
                present: vec![true; n],
                nvals: n,
            },
        }
    }

    /// Builds a vector from `(index, value)` entries.
    ///
    /// # Errors
    ///
    /// Returns [`GrbError::IndexOutOfBounds`] if any index is `>= n` and
    /// [`GrbError::DuplicateIndex`] on repeated indices.
    pub fn from_entries(n: usize, mut entries: Vec<(u32, T)>) -> Result<Self, GrbError> {
        entries.sort_unstable_by_key(|e| e.0);
        for pair in entries.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(GrbError::DuplicateIndex(pair[0].0 as usize));
            }
        }
        if let Some(&(last, _)) = entries.last() {
            if last as usize >= n {
                return Err(GrbError::IndexOutOfBounds {
                    index: last as usize,
                    bound: n,
                });
            }
        }
        let (idx, vals) = entries.into_iter().unzip();
        Ok(Vector {
            n,
            store: Store::Sparse { idx, vals },
        })
    }

    /// Dimension of the vector (`GrB_Vector_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of explicit entries (`GrB_Vector_nvals`).
    pub fn nvals(&self) -> usize {
        match &self.store {
            Store::Sparse { idx, .. } => idx.len(),
            Store::Dense { nvals, .. } => *nvals,
        }
    }

    /// Whether the vector has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.nvals() == 0
    }

    /// Whether the vector currently uses dense storage.
    pub fn is_dense_store(&self) -> bool {
        matches!(self.store, Store::Dense { .. })
    }

    /// Sets entry `i` to `v` (`GrB_Vector_setElement`).
    ///
    /// # Errors
    ///
    /// Returns [`GrbError::IndexOutOfBounds`] if `i >= size()`.
    pub fn set(&mut self, i: u32, v: T) -> Result<(), GrbError> {
        if i as usize >= self.n {
            return Err(GrbError::IndexOutOfBounds {
                index: i as usize,
                bound: self.n,
            });
        }
        match &mut self.store {
            Store::Sparse { idx, vals } => match idx.binary_search(&i) {
                Ok(pos) => vals[pos] = v,
                Err(pos) => {
                    idx.insert(pos, i);
                    vals.insert(pos, v);
                }
            },
            Store::Dense {
                vals,
                present,
                nvals,
            } => {
                if !present[i as usize] {
                    present[i as usize] = true;
                    *nvals += 1;
                }
                vals[i as usize] = v;
            }
        }
        Ok(())
    }

    /// Reads entry `i`, or `None` if it is not explicit
    /// (`GrB_Vector_extractElement`). Out-of-range indices read as `None`.
    pub fn get(&self, i: u32) -> Option<T> {
        if i as usize >= self.n {
            return None;
        }
        match &self.store {
            Store::Sparse { idx, vals } => idx.binary_search(&i).ok().map(|p| vals[p]),
            Store::Dense { vals, present, .. } => {
                present[i as usize].then(|| vals[i as usize])
            }
        }
    }

    /// Removes entry `i` if present (`GrB_Vector_removeElement`).
    pub fn remove(&mut self, i: u32) {
        if i as usize >= self.n {
            return;
        }
        match &mut self.store {
            Store::Sparse { idx, vals } => {
                if let Ok(pos) = idx.binary_search(&i) {
                    idx.remove(pos);
                    vals.remove(pos);
                }
            }
            Store::Dense {
                present, nvals, ..
            } => {
                if present[i as usize] {
                    present[i as usize] = false;
                    *nvals -= 1;
                }
            }
        }
    }

    /// Removes every entry (`GrB_Vector_clear`), keeping the dimension.
    pub fn clear(&mut self) {
        self.store = Store::Sparse {
            idx: Vec::new(),
            vals: Vec::new(),
        };
    }

    /// Converts to dense storage (no-op when already dense).
    pub fn to_dense(&mut self) {
        if let Store::Sparse { idx, vals } = &self.store {
            let mut dvals = vec![T::ZERO; self.n];
            let mut present = vec![false; self.n];
            for (&i, &v) in idx.iter().zip(vals.iter()) {
                dvals[i as usize] = v;
                present[i as usize] = true;
            }
            let nvals = idx.len();
            self.store = Store::Dense {
                vals: dvals,
                present,
                nvals,
            };
        }
    }

    /// Converts to sparse storage (no-op when already sparse).
    pub fn to_sparse(&mut self) {
        if let Store::Dense {
            vals, present, ..
        } = &self.store
        {
            let mut idx = Vec::new();
            let mut svals = Vec::new();
            for (i, (&v, &p)) in vals.iter().zip(present.iter()).enumerate() {
                if p {
                    idx.push(i as u32);
                    svals.push(v);
                }
            }
            self.store = Store::Sparse { idx, vals: svals };
        }
    }

    /// Number of explicit entries holding a non-zero value — what a
    /// *valued* mask admits, as opposed to [`nvals`](Vector::nvals)
    /// (structural presence). `O(nvals)` for sparse storage, `O(n)` for
    /// dense; algorithms like bfs keep a dense distance vector full of
    /// explicit zeros, so the kernel heuristic must count values, not
    /// presence.
    pub fn nonzeros(&self) -> usize {
        match &self.store {
            Store::Sparse { vals, .. } => vals.iter().filter(|v| v.is_nonzero()).count(),
            Store::Dense { vals, present, .. } => vals
                .iter()
                .zip(present.iter())
                .filter(|(v, &p)| p && v.is_nonzero())
                .count(),
        }
    }

    /// Iterates over `(index, value)` of explicit entries in ascending
    /// index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            vector: self,
            pos: 0,
        }
    }

    /// Collects the explicit entries (ascending index order).
    pub fn entries(&self) -> Vec<(u32, T)> {
        self.iter().collect()
    }

    /// Mask evaluation at index `i`: present and (structurally or by
    /// value) true.
    ///
    /// Instrumented through the caller's probe: reading a mask is a real
    /// memory access the paper's counters observe.
    #[inline]
    pub(crate) fn mask_at(&self, i: u32, structural: bool, pm: perfmon::Probe) -> bool {
        match &self.store {
            Store::Dense { vals, .. } => {
                pm.touch(vals.as_ptr() as usize + i as usize * std::mem::size_of::<T>());
            }
            Store::Sparse { idx, .. } => {
                if !idx.is_empty() {
                    let probe = (i as usize) % idx.len();
                    pm.touch_ref(&idx[probe]);
                }
            }
        }
        match self.get(i) {
            Some(v) => structural || v.is_nonzero(),
            None => false,
        }
    }

    /// Direct access to dense storage, if active.
    pub(crate) fn dense_parts(&self) -> Option<(&[T], &[bool])> {
        match &self.store {
            Store::Dense { vals, present, .. } => Some((vals, present)),
            Store::Sparse { .. } => None,
        }
    }

    /// Direct access to sparse storage, if active.
    pub(crate) fn sparse_parts(&self) -> Option<(&[u32], &[T])> {
        match &self.store {
            Store::Sparse { idx, vals } => Some((idx, vals)),
            Store::Dense { .. } => None,
        }
    }

    /// Replaces the contents with already-sorted sparse data (kernel use).
    pub(crate) fn set_sparse(&mut self, idx: Vec<u32>, vals: Vec<T>) {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(idx.len(), vals.len());
        self.store = Store::Sparse { idx, vals };
    }

    /// Replaces the contents with dense data (kernel use).
    pub(crate) fn set_dense(&mut self, vals: Vec<T>, present: Vec<bool>) {
        debug_assert_eq!(vals.len(), self.n);
        let nvals = present.iter().filter(|&&p| p).count();
        self.store = Store::Dense {
            vals,
            present,
            nvals,
        };
    }

    /// Takes the dense buffers out of the vector (leaving it empty
    /// sparse) so an overwrite path can recycle them instead of
    /// allocating — the workspace layer's store reuse. `None` when the
    /// store is sparse. Callers must zero-normalize (`vals` to `T::ZERO`
    /// and `present` to `false` at every slot) before repopulating, so
    /// reused stores stay bit-identical to freshly allocated ones.
    pub(crate) fn take_dense_store(&mut self) -> Option<(Vec<T>, Vec<bool>)> {
        match std::mem::replace(
            &mut self.store,
            Store::Sparse {
                idx: Vec::new(),
                vals: Vec::new(),
            },
        ) {
            Store::Dense { vals, present, .. } => Some((vals, present)),
            sparse => {
                self.store = sparse;
                None
            }
        }
    }

    /// Collects the explicit entries into `out` (cleared first) — the
    /// pooled-buffer counterpart of [`Vector::entries`].
    pub(crate) fn entries_into(&self, out: &mut Vec<(u32, T)>) {
        out.clear();
        out.extend(self.iter());
    }
}

/// Thread-safe unordered build buffer — the paper's third GaloisBLAS
/// vector representation (§III-B: ordered map, **unordered list**, dense
/// array).
///
/// Kernels push `(index, value)` pairs from any pool thread without
/// synchronization (per-thread lanes); [`VectorBuilder::finalize`] sorts
/// and produces an ordinary [`Vector`].
pub struct VectorBuilder<T> {
    n: usize,
    lanes: galois_rt::substrate::PerThread<Vec<(u32, T)>>,
}

impl<T: Scalar> VectorBuilder<T> {
    /// Creates a builder for a vector of dimension `n`.
    pub fn new(n: usize) -> Self {
        VectorBuilder {
            n,
            lanes: galois_rt::substrate::PerThread::new(Vec::new),
        }
    }

    /// Appends an entry to the calling thread's lane (no ordering or
    /// uniqueness requirements).
    #[inline]
    pub fn push(&self, i: u32, v: T) {
        debug_assert!((i as usize) < self.n);
        self.lanes.with(|lane| lane.push((i, v)));
    }

    /// Sorts the collected entries into a sparse [`Vector`], combining
    /// duplicate indices with `dup`.
    pub fn finalize(self, dup: impl Fn(T, T) -> T) -> Vector<T> {
        let mut entries: Vec<(u32, T)> = Vec::new();
        for lane in self.lanes.into_inner() {
            entries.extend(lane);
        }
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = dup(prev.1, next.1);
                true
            } else {
                false
            }
        });
        let (idx, vals) = entries.into_iter().unzip();
        let mut out = Vector::new(self.n);
        out.set_sparse(idx, vals);
        out
    }
}

impl<T> std::fmt::Debug for VectorBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorBuilder").field("n", &self.n).finish()
    }
}

/// Iterator over a vector's explicit entries.
#[derive(Debug)]
pub struct Iter<'a, T> {
    vector: &'a Vector<T>,
    pos: usize,
}

impl<T: Scalar> Iterator for Iter<'_, T> {
    type Item = (u32, T);

    fn next(&mut self) -> Option<(u32, T)> {
        match &self.vector.store {
            Store::Sparse { idx, vals } => {
                let p = self.pos;
                if p < idx.len() {
                    self.pos += 1;
                    Some((idx[p], vals[p]))
                } else {
                    None
                }
            }
            Store::Dense { vals, present, .. } => {
                while self.pos < vals.len() {
                    let p = self.pos;
                    self.pos += 1;
                    if present[p] {
                        return Some((p as u32, vals[p]));
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_set_get_roundtrip() {
        let mut v: Vector<u64> = Vector::new(100);
        v.set(50, 5).unwrap();
        v.set(10, 1).unwrap();
        v.set(50, 6).unwrap(); // overwrite
        assert_eq!(v.nvals(), 2);
        assert_eq!(v.get(50), Some(6));
        assert_eq!(v.get(10), Some(1));
        assert_eq!(v.get(11), None);
        assert_eq!(v.entries(), vec![(10, 1), (50, 6)]);
    }

    #[test]
    fn dense_constructor_fills_everything() {
        let v = Vector::new_dense(5, 7u32);
        assert_eq!(v.nvals(), 5);
        assert!(v.is_dense_store());
        assert!(v.iter().all(|(_, x)| x == 7));
    }

    #[test]
    fn set_out_of_bounds_errors() {
        let mut v: Vector<u32> = Vector::new(3);
        assert!(matches!(
            v.set(3, 1),
            Err(GrbError::IndexOutOfBounds { index: 3, bound: 3 })
        ));
    }

    #[test]
    fn from_entries_validates() {
        assert!(Vector::from_entries(10, vec![(1, 1u32), (1, 2)]).is_err());
        assert!(Vector::from_entries(2, vec![(5, 1u32)]).is_err());
        let v = Vector::from_entries(10, vec![(7, 1u32), (2, 2)]).unwrap();
        assert_eq!(v.entries(), vec![(2, 2), (7, 1)]);
    }

    #[test]
    fn conversions_preserve_entries() {
        let mut v = Vector::from_entries(8, vec![(1, 10u32), (6, 60)]).unwrap();
        v.to_dense();
        assert!(v.is_dense_store());
        assert_eq!(v.entries(), vec![(1, 10), (6, 60)]);
        assert_eq!(v.nvals(), 2);
        v.to_sparse();
        assert!(!v.is_dense_store());
        assert_eq!(v.entries(), vec![(1, 10), (6, 60)]);
    }

    #[test]
    fn dense_preferred_boundary_is_exact() {
        // Exactly DENSE_THRESHOLD (10%) flips to dense; one entry short
        // of it stays sparse.
        assert!(dense_preferred(1, 10));
        assert!(!dense_preferred(1, 11));
        assert!(dense_preferred(10, 100));
        assert!(!dense_preferred(9, 100));
        assert!(!dense_preferred(0, 10));
        assert!(!dense_preferred(0, 0), "empty dimension is never dense");
    }

    #[test]
    fn nonzeros_counts_values_not_presence() {
        let mut v: Vector<u32> = Vector::new(6);
        v.set(0, 0).unwrap(); // explicit zero
        v.set(1, 5).unwrap();
        v.set(2, 0).unwrap(); // explicit zero
        v.set(3, 1).unwrap();
        assert_eq!(v.nvals(), 4);
        assert_eq!(v.nonzeros(), 2);
        v.to_dense();
        assert_eq!(v.nonzeros(), 2, "dense store agrees");
        assert_eq!(Vector::<u64>::new(4).nonzeros(), 0);
    }

    #[test]
    fn remove_updates_counts_in_both_stores() {
        let mut v = Vector::from_entries(10, vec![(3, 1u32), (4, 2)]).unwrap();
        v.remove(3);
        assert_eq!(v.nvals(), 1);
        v.to_dense();
        v.remove(4);
        assert_eq!(v.nvals(), 0);
        v.remove(9); // absent: no-op
        assert_eq!(v.nvals(), 0);
    }

    #[test]
    fn mask_semantics_value_vs_structural() {
        let mut v: Vector<u32> = Vector::new(5);
        v.set(1, 0).unwrap(); // explicit zero
        v.set(2, 9).unwrap();
        let pm = perfmon::probe();
        assert!(!v.mask_at(1, false, pm), "valued mask skips explicit zeros");
        assert!(v.mask_at(1, true, pm), "structural mask counts presence");
        assert!(v.mask_at(2, false, pm));
        assert!(!v.mask_at(3, false, pm));
        assert!(!v.mask_at(3, true, pm));
    }

    #[test]
    fn dense_iter_skips_absent_slots() {
        let mut v = Vector::new_dense(4, 1u32);
        v.remove(2);
        assert_eq!(v.entries(), vec![(0, 1), (1, 1), (3, 1)]);
    }

    #[test]
    fn clear_resets_to_empty_sparse() {
        let mut v = Vector::new_dense(4, 1u32);
        v.clear();
        assert_eq!(v.nvals(), 0);
        assert_eq!(v.size(), 4);
        assert!(!v.is_dense_store());
    }

    #[test]
    fn builder_collects_parallel_pushes_sorted() {
        let builder: VectorBuilder<u64> = VectorBuilder::new(10_000);
        galois_rt::do_all(0..10_000, |i| {
            if i % 3 == 0 {
                builder.push(i as u32, i as u64);
            }
        });
        let v = builder.finalize(|a, _| a);
        assert_eq!(v.nvals(), 3334);
        let entries = v.entries();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(entries.iter().all(|&(i, x)| u64::from(i) == x && i % 3 == 0));
    }

    #[test]
    fn builder_combines_duplicates_with_dup() {
        let builder: VectorBuilder<u32> = VectorBuilder::new(4);
        builder.push(1, 5);
        builder.push(1, 7);
        builder.push(2, 1);
        let v = builder.finalize(|a, b| a + b);
        assert_eq!(v.entries(), vec![(1, 12), (2, 1)]);
    }

    #[test]
    fn empty_builder_finalizes_empty() {
        let builder: VectorBuilder<u32> = VectorBuilder::new(5);
        let v = builder.finalize(|a, _| a);
        assert!(v.is_empty());
        assert_eq!(v.size(), 5);
    }
}

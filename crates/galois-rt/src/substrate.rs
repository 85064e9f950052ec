//! Low-level per-thread storage.
//!
//! [`PerThread`] gives each pool thread its own slot of `T`, analogous to
//! Galois' `PerThreadStorage`. It is the building block for thread-private
//! state that would be too expensive to allocate per task (e.g. the
//! partial sums of a parallel reduce, or the entry lanes each thread
//! fills in a sparse SpMV scatter).

use crate::pool::{current_thread_id, max_threads};
use std::cell::UnsafeCell;

/// One value of `T` per pool thread, cache-line separated.
///
/// # Example
///
/// ```
/// let scratch: galois_rt::substrate::PerThread<Vec<u32>> =
///     galois_rt::substrate::PerThread::new(Vec::new);
/// galois_rt::do_all(0..100, |i| {
///     scratch.with(|v| v.push(i as u32));
/// });
/// let total: usize = scratch.into_inner().iter().map(Vec::len).sum();
/// assert_eq!(total, 100);
/// ```
pub struct PerThread<T> {
    slots: Vec<Slot<T>>,
}

#[repr(align(64))]
struct Slot<T>(UnsafeCell<T>);

// SAFETY: each slot is only accessed by the thread whose id selects it
// (`with`), or under exclusive access (`iter_mut`, `into_inner`).
unsafe impl<T: Send> Sync for PerThread<T> {}
unsafe impl<T: Send> Send for PerThread<T> {}

impl<T> PerThread<T> {
    /// Creates per-thread slots, initialising each with `init()`.
    pub fn new(init: impl Fn() -> T) -> Self {
        PerThread {
            slots: (0..max_threads())
                .map(|_| Slot(UnsafeCell::new(init())))
                .collect(),
        }
    }

    /// Runs `f` with a mutable reference to the calling thread's slot.
    ///
    /// Must not be re-entered on the same thread (enforced only by
    /// discipline; re-entry would alias the mutable borrow).
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let tid = current_thread_id() % self.slots.len();
        // SAFETY: only the current thread accesses its slot, and `with` is
        // not re-entrant per the documented contract.
        f(unsafe { &mut *self.slots[tid].0.get() })
    }

    /// Iterates over every thread's slot (requires exclusive access).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.0.get_mut())
    }

    /// Consumes the storage, yielding every thread's value.
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(|s| s.0.into_inner()).collect()
    }
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self::new(T::default)
    }
}

impl<T> std::fmt::Debug for PerThread<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerThread")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// A shared view of a mutable slice whose elements are accessed by at most
/// one thread each — the building block for operators that write
/// per-vertex data from inside `do_all` without atomics.
pub struct ParSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: callers promise disjoint element access across threads (see the
// per-method contracts).
unsafe impl<T: Send> Send for ParSlice<'_, T> {}
unsafe impl<T: Send> Sync for ParSlice<'_, T> {}

impl<'a, T> ParSlice<'a, T> {
    /// Wraps `slice` for disjoint parallel access.
    pub fn new(slice: &'a mut [T]) -> Self {
        ParSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `v` at `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no other thread accesses element `i` concurrently.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no thread writes element `i` concurrently.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no other thread accesses element `i` concurrently.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// Address of element `i`, for cache-model instrumentation.
    #[inline]
    pub fn addr_of(&self, i: usize) -> usize {
        self.ptr as usize + i * std::mem::size_of::<T>()
    }
}

impl<T> std::fmt::Debug for ParSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSlice").field("len", &self.len).finish()
    }
}

/// A value alone on its cache line.
///
/// The shared state a data-driven loop keeps on its caller's stack (the
/// pending-work count, the bucket lock) is written by every thread on
/// every item. Padded, it cannot share a line with the neighbours the
/// workers only read, such as the loop's captured references, wherever
/// the compiler happens to lay out the frame.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_slice_disjoint_parallel_writes() {
        let mut data = vec![0u64; 2000];
        let ps = ParSlice::new(&mut data);
        crate::do_all(0..2000, |i| unsafe { ps.write(i, i as u64 + 1) });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn slots_accumulate_independently() {
        let counts: PerThread<u64> = PerThread::new(|| 0);
        crate::do_all(0..10_000, |_| counts.with(|c| *c += 1));
        let total: u64 = counts.into_inner().into_iter().sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn iter_mut_sees_all_slots() {
        let mut s: PerThread<u32> = PerThread::new(|| 7);
        assert!(s.iter_mut().all(|v| *v == 7));
        for v in s.iter_mut() {
            *v = 9;
        }
        assert!(s.into_inner().into_iter().all(|v| v == 9));
    }

    #[test]
    fn default_uses_type_default() {
        let s: PerThread<Vec<u8>> = PerThread::default();
        assert!(s.into_inner().into_iter().all(|v| v.is_empty()));
    }
}

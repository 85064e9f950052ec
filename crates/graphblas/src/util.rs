//! Internal parallel-kernel utilities: an atomic generic accumulator and a
//! disjoint-write slice wrapper.

use crate::scalar::Scalar;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const EMPTY: u8 = 0;
const LOCKED: u8 = 1;
const PRESENT: u8 = 2;

/// A dense, lock-free accumulator for SAXPY-style kernels: any thread may
/// fold a value into any slot with the semiring's ⊕.
///
/// Values are stored as their 64-bit encodings ([`Scalar::to_bits64`]);
/// slot initialization is guarded by a tiny per-slot state machine so the
/// first writer does not race the ⊕ CAS loop of later writers.
pub(crate) struct AtomicAccumulator<T> {
    bits: Vec<AtomicU64>,
    state: Vec<AtomicU8>,
    _marker: PhantomData<T>,
}

impl<T: Scalar> AtomicAccumulator<T> {
    /// Creates `n` empty slots.
    pub fn new(n: usize) -> Self {
        AtomicAccumulator {
            bits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            state: (0..n).map(|_| AtomicU8::new(EMPTY)).collect(),
            _marker: PhantomData,
        }
    }

    /// Folds `v` into slot `j` with `add`.
    pub fn accumulate(&self, j: usize, v: T, add: impl Fn(T, T) -> T, pm: perfmon::Probe) {
        pm.touch_ref(&self.bits[j]);
        loop {
            match self.state[j].load(Ordering::Acquire) {
                EMPTY => {
                    if self.state[j]
                        .compare_exchange(EMPTY, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.bits[j].store(v.to_bits64(), Ordering::Relaxed);
                        self.state[j].store(PRESENT, Ordering::Release);
                        return;
                    }
                }
                PRESENT => {
                    let mut cur = self.bits[j].load(Ordering::Relaxed);
                    loop {
                        let new = add(T::from_bits64(cur), v).to_bits64();
                        match self.bits[j].compare_exchange_weak(
                            cur,
                            new,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => return,
                            Err(actual) => cur = actual,
                        }
                    }
                }
                _ => std::hint::spin_loop(),
            }
        }
    }

    /// Whether slot `j` received any value.
    pub fn is_present(&self, j: usize) -> bool {
        self.state[j].load(Ordering::Acquire) == PRESENT
    }

    /// Reads slot `j` (after all writers have finished).
    pub fn get(&self, j: usize) -> Option<T> {
        self.is_present(j)
            .then(|| T::from_bits64(self.bits[j].load(Ordering::Relaxed)))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Drains the present entries in ascending index order.
    ///
    /// This is a full pass over the accumulator — the compaction cost of
    /// materializing the op's result, which the counters must see.
    pub fn into_entries(self, pm: perfmon::Probe) -> Vec<(u32, T)> {
        let mut out = Vec::new();
        for j in 0..self.len() {
            pm.instr(1);
            pm.touch_ref(&self.state[j]);
            if let Some(v) = self.get(j) {
                out.push((j as u32, v));
            }
        }
        out
    }
}

/// A shared view of a mutable slice whose elements are written by at most
/// one thread each (the caller guarantees index-disjointness).
pub(crate) struct ParSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: see the `write`/`get_mut` contracts — callers promise disjoint
// element access across threads.
unsafe impl<T: Send> Send for ParSlice<'_, T> {}
unsafe impl<T: Send> Sync for ParSlice<'_, T> {}

impl<'a, T> ParSlice<'a, T> {
    /// Wraps `slice` for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        ParSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
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

    /// Address of element `i`, for cache-model instrumentation.
    #[inline]
    pub fn addr_of(&self, i: usize) -> usize {
        self.ptr as usize + i * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_single_thread() {
        let pm = perfmon::probe();
        let acc: AtomicAccumulator<u64> = AtomicAccumulator::new(4);
        acc.accumulate(1, 5, |a, b| a + b, pm);
        acc.accumulate(1, 7, |a, b| a + b, pm);
        acc.accumulate(3, 1, |a, b| a + b, pm);
        assert_eq!(acc.get(0), None);
        assert_eq!(acc.get(1), Some(12));
        assert_eq!(acc.into_entries(pm), vec![(1, 12), (3, 1)]);
    }

    #[test]
    fn accumulator_parallel_sums_are_exact() {
        let pm = perfmon::probe();
        let acc: AtomicAccumulator<u64> = AtomicAccumulator::new(16);
        galois_rt::do_all(0..100_000, |i| {
            acc.accumulate(i % 16, 1, |a, b| a + b, pm);
        });
        let total: u64 = acc.into_entries(pm).into_iter().map(|(_, v)| v).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn accumulator_with_min_fold() {
        let pm = perfmon::probe();
        let acc: AtomicAccumulator<u32> = AtomicAccumulator::new(2);
        galois_rt::do_all(0..1000, |i| {
            acc.accumulate(0, i as u32, |a, b| a.min(b), pm);
        });
        assert_eq!(acc.get(0), Some(0));
    }

    #[test]
    fn accumulator_floats() {
        let pm = perfmon::probe();
        let acc: AtomicAccumulator<f64> = AtomicAccumulator::new(1);
        galois_rt::do_all(0..1000, |_| {
            acc.accumulate(0, 0.25, |a, b| a + b, pm);
        });
        assert!((acc.get(0).unwrap() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn par_slice_disjoint_writes() {
        let mut data = vec![0u32; 1000];
        let ps = ParSlice::new(&mut data);
        galois_rt::do_all(0..1000, |i| unsafe {
            ps.write(i, i as u32 * 2);
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}

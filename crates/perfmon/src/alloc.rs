//! Peak-memory tracking allocator (the Table III "MRSS" stand-in).
//!
//! Wraps the system allocator and maintains live and peak byte counts. The
//! reproduce binaries install it as the `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: perfmon::alloc::TrackingAllocator = perfmon::alloc::TrackingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` that forwards to [`System`] while tracking live and
/// peak allocation totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAllocator;

impl TrackingAllocator {
    fn on_alloc(size: usize) {
        TOTAL.fetch_add(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: defers entirely to `System`, adding only counter maintenance.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Bytes currently allocated (only meaningful when the tracking allocator
/// is installed as the global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live total, so a subsequent
/// [`peak_bytes`] isolates one phase of the program.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Monotone sum of every byte ever allocated (never decremented). The
/// delta over an interval, minus the [`live_bytes`] growth over the same
/// interval, is the *transient churn* — bytes allocated and thrown away
/// within it.
pub fn total_bytes() -> usize {
    TOTAL.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::sync::Mutex;

    /// The counters are process-wide and the test harness runs tests on
    /// parallel threads, so every test that moves them holds this lock.
    static COUNTERS: Mutex<()> = Mutex::new(());

    // The test binary does not install the allocator globally, so exercise
    // the bookkeeping hooks directly.
    #[test]
    fn live_and_peak_track_alloc_dealloc() {
        let _serial = COUNTERS.lock();
        let before_live = live_bytes();
        let before_total = total_bytes();
        TrackingAllocator::on_alloc(1000);
        assert_eq!(live_bytes(), before_live + 1000);
        assert!(peak_bytes() >= before_live + 1000);
        TrackingAllocator::on_dealloc(1000);
        assert_eq!(live_bytes(), before_live);
        assert_eq!(
            total_bytes(),
            before_total + 1000,
            "total is monotone: dealloc must not decrement it"
        );
    }

    #[test]
    fn peak_is_monotone_until_reset() {
        let _serial = COUNTERS.lock();
        TrackingAllocator::on_alloc(5000);
        let high = peak_bytes();
        TrackingAllocator::on_dealloc(5000);
        assert!(peak_bytes() >= high);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }

    #[test]
    fn allocator_round_trips_real_memory() {
        let _serial = COUNTERS.lock();
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(256, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            std::ptr::write_bytes(p, 0xAB, 256);
            let p2 = a.realloc(p, layout, 512);
            assert!(!p2.is_null());
            assert_eq!(*p2, 0xAB);
            a.dealloc(p2, Layout::from_size_align(512, 8).unwrap());
        }
    }
}

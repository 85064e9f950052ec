//! Thread-local counter collection with global aggregation.
//!
//! Each OS thread owns a [`Counters`] record and a private
//! [`crate::cache::CacheSim`]. Records register themselves in a global
//! list on first use; [`snapshot`] aggregates across threads and [`reset`]
//! zeroes everything (cache state is invalidated lazily via a generation
//! counter, so reset does not need to stop other threads).

use crate::cache::{CacheSim, HitLevel};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use substrate::sync::Mutex;

/// Aggregated counter values (one row of Table IV / Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Estimated instructions executed by instrumented kernels.
    pub instructions: u64,
    /// Memory accesses that reached the L1 data cache (i.e. all of them).
    pub l1_accesses: u64,
    /// Accesses that missed L1 and reached L2.
    pub l2_accesses: u64,
    /// Accesses that missed L2 and reached the L3 slice.
    pub l3_accesses: u64,
    /// Accesses that missed everywhere: DRAM traffic.
    pub dram_accesses: u64,
}

impl Counters {
    /// Element-wise difference (for before/after measurements).
    #[must_use]
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            instructions: self.instructions - earlier.instructions,
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l3_accesses: self.l3_accesses - earlier.l3_accesses,
            dram_accesses: self.dram_accesses - earlier.dram_accesses,
        }
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;

    fn add(self, rhs: Counters) -> Counters {
        Counters {
            instructions: self.instructions + rhs.instructions,
            l1_accesses: self.l1_accesses + rhs.l1_accesses,
            l2_accesses: self.l2_accesses + rhs.l2_accesses,
            l3_accesses: self.l3_accesses + rhs.l3_accesses,
            dram_accesses: self.dram_accesses + rhs.dram_accesses,
        }
    }
}

/// Per-thread slot: atomics so the aggregator may read them concurrently;
/// only the owning thread writes.
struct ThreadSlot {
    instructions: AtomicU64,
    l1: AtomicU64,
    l2: AtomicU64,
    l3: AtomicU64,
    dram: AtomicU64,
    /// Cache model; only the owning thread dereferences it.
    sim: UnsafeCell<CacheSim>,
    /// Generation at which `sim` was last cleared.
    sim_generation: UnsafeCell<u64>,
}

// SAFETY: the counter fields are atomics; `sim`/`sim_generation` are only
// accessed by the owning thread (the thread_local below hands out the slot
// pointer to exactly one thread).
unsafe impl Sync for ThreadSlot {}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<&'static ThreadSlot>> = Mutex::new(Vec::new());

thread_local! {
    static SLOT: Cell<Option<&'static ThreadSlot>> = const { Cell::new(None) };
}

fn slot() -> &'static ThreadSlot {
    SLOT.with(|s| match s.get() {
        Some(slot) => slot,
        None => {
            // Leaked intentionally: pool threads live for the whole
            // process, so the number of slots is bounded by the thread
            // count.
            let slot: &'static ThreadSlot = Box::leak(Box::new(ThreadSlot {
                instructions: AtomicU64::new(0),
                l1: AtomicU64::new(0),
                l2: AtomicU64::new(0),
                l3: AtomicU64::new(0),
                dram: AtomicU64::new(0),
                sim: UnsafeCell::new(CacheSim::skylake()),
                sim_generation: UnsafeCell::new(0),
            }));
            s.set(Some(slot));
            REGISTRY.lock().push(slot);
            slot
        }
    })
}

/// Turns monitoring on or off globally.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether monitoring is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A copy of the monitoring flag, taken by [`probe`] once per GraphBLAS
/// op or Lonestar program: the only way to reach a hook.
///
/// The hooks test the copied `bool`, never the global flag, so a
/// disabled hook in a kernel's inner loop is a test of a local value and
/// an untaken branch; the recording bodies sit behind `#[cold]` calls.
/// The flag is read when the probe is taken: a probe taken while
/// monitoring is off records nothing, even if [`enable`] turns
/// monitoring on before its hooks run.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    on: bool,
}

/// Reads the monitoring flag once and returns the probe that carries it.
#[inline]
pub fn probe() -> Probe {
    Probe { on: enabled() }
}

impl Probe {
    /// Records `n` estimated instructions (no-op if the probe is off).
    #[inline(always)]
    pub fn instr(self, n: u64) {
        if self.on {
            record_instr(n);
        }
    }

    /// Records one memory access to `addr` (no-op if the probe is off).
    #[inline(always)]
    pub fn touch(self, addr: usize) {
        if self.on {
            record_touch(addr);
        }
    }

    /// Records one memory access at the address of `r`.
    #[inline(always)]
    pub fn touch_ref<T>(self, r: &T) {
        self.touch(r as *const T as usize);
    }
}

#[cold]
#[inline(never)]
fn record_instr(n: u64) {
    slot().instructions.fetch_add(n, Ordering::Relaxed);
}

#[cold]
#[inline(never)]
fn record_touch(addr: usize) {
    let slot = slot();
    let generation = GENERATION.load(Ordering::Relaxed);
    // SAFETY: `sim` and `sim_generation` belong to the current thread.
    let (sim, sim_generation) = unsafe { (&mut *slot.sim.get(), &mut *slot.sim_generation.get()) };
    if *sim_generation != generation {
        sim.clear();
        *sim_generation = generation;
    }
    slot.l1.fetch_add(1, Ordering::Relaxed);
    match sim.access(addr) {
        HitLevel::L1 => {}
        HitLevel::L2 => {
            slot.l2.fetch_add(1, Ordering::Relaxed);
        }
        HitLevel::L3 => {
            slot.l2.fetch_add(1, Ordering::Relaxed);
            slot.l3.fetch_add(1, Ordering::Relaxed);
        }
        HitLevel::Dram => {
            slot.l2.fetch_add(1, Ordering::Relaxed);
            slot.l3.fetch_add(1, Ordering::Relaxed);
            slot.dram.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Aggregates the counters of every thread that ever recorded.
pub fn snapshot() -> Counters {
    let mut total = Counters::default();
    for slot in REGISTRY.lock().iter() {
        total.instructions += slot.instructions.load(Ordering::Relaxed);
        total.l1_accesses += slot.l1.load(Ordering::Relaxed);
        total.l2_accesses += slot.l2.load(Ordering::Relaxed);
        total.l3_accesses += slot.l3.load(Ordering::Relaxed);
        total.dram_accesses += slot.dram.load(Ordering::Relaxed);
    }
    total
}

/// Zeroes all counters and (lazily) invalidates every thread's cache model.
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    for slot in REGISTRY.lock().iter() {
        slot.instructions.store(0, Ordering::Relaxed);
        slot.l1.store(0, Ordering::Relaxed);
        slot.l2.store(0, Ordering::Relaxed);
        slot.l3.store(0, Ordering::Relaxed);
        slot.dram.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Counter tests share global state; serialize them.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_hooks_record_nothing() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(false);
        let pm = probe();
        pm.instr(10);
        pm.touch(0x1234);
        assert_eq!(snapshot(), Counters::default());
    }

    #[test]
    fn probe_reads_the_flag_once() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(false);
        let pm = probe();
        enable(true);
        pm.instr(10);
        pm.touch(0x1234);
        enable(false);
        assert_eq!(snapshot(), Counters::default());
    }

    #[test]
    fn enabled_hooks_record_hierarchy() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(true);
        let pm = probe();
        pm.touch(0x10_000); // cold: miss everywhere
        pm.touch(0x10_000); // hot: L1 hit
        pm.instr(3);
        enable(false);
        let c = snapshot();
        assert_eq!(c.instructions, 3);
        assert_eq!(c.l1_accesses, 2);
        assert_eq!(c.l2_accesses, 1);
        assert_eq!(c.l3_accesses, 1);
        assert_eq!(c.dram_accesses, 1);
    }

    #[test]
    fn reset_clears_cache_state_too() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(true);
        let pm = probe();
        pm.touch(0x20_000);
        reset();
        pm.touch(0x20_000); // must be cold again after reset
        enable(false);
        let c = snapshot();
        assert_eq!(c.l1_accesses, 1);
        assert_eq!(c.dram_accesses, 1);
    }

    #[test]
    fn delta_subtracts() {
        let a = Counters {
            instructions: 10,
            l1_accesses: 20,
            l2_accesses: 5,
            l3_accesses: 2,
            dram_accesses: 1,
        };
        let b = Counters {
            instructions: 4,
            l1_accesses: 10,
            l2_accesses: 1,
            l3_accesses: 1,
            dram_accesses: 0,
        };
        let d = a.delta(&b);
        assert_eq!(d.instructions, 6);
        assert_eq!(d.l1_accesses, 10);
        assert_eq!(d.dram_accesses, 1);
        assert_eq!(a, b + d);
    }

    #[test]
    fn multi_threaded_counts_aggregate() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(true);
        let pm = probe();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100 {
                        pm.instr(1);
                        pm.touch(t * 0x100_0000 + i * 64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        enable(false);
        let c = snapshot();
        assert_eq!(c.instructions, 400);
        assert_eq!(c.l1_accesses, 400);
        assert_eq!(c.dram_accesses, 400, "distinct cold lines all miss");
    }
}

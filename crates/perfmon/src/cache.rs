//! Three-level set-associative LRU cache model.
//!
//! The geometry is the paper's Intel Xeon Gold 5120 (Skylake-SP) on
//! every host: 32 KiB / 8-way L1D, 1 MiB / 16-way L2, and a 1.375 MiB /
//! 11-way L3 slice per core, all with 64-byte lines. The counters build
//! [`CacheSim::skylake`], and [`geometry`] reports that same constant for
//! trace headers; the machine's own caches are never read. The model is
//! per-thread (each thread sees its own slice hierarchy), which is the
//! right granularity for the access-count *ratios* Tables IV and V
//! analyse.
//!
//! The model indexes sets by virtual address, and heap addresses move
//! from run to run, so only the L1 count (one per access) is exact. L2,
//! L3 and DRAM vary between runs of the same binary: over three runs of
//! `table4` at `STUDY_SCALE=0.05` on one thread, most rows moved by under
//! 0.5 %, but sssp road-USA LS L2 by 7.7 % and ktruss rmat22 GB L3 by
//! 13 %. Compare those columns within a run-to-run spread, never exactly.

/// Cache line size in bytes (and the shift used to derive line addresses).
pub const LINE_BYTES: usize = 64;
const LINE_SHIFT: u32 = 6;

/// One level's capacity and associativity, as fed to [`CacheLevel::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelGeometry {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

/// The three-level geometry the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// L1 data cache.
    pub l1: LevelGeometry,
    /// Unified L2.
    pub l2: LevelGeometry,
    /// L3 slice per core.
    pub l3: LevelGeometry,
    /// Which machine the geometry models: `"skylake"`.
    pub source: &'static str,
}

impl CacheGeometry {
    /// The paper machine's per-core geometry (see module docs).
    pub const fn skylake() -> Self {
        CacheGeometry {
            l1: LevelGeometry { bytes: 32 << 10, ways: 8 },
            l2: LevelGeometry { bytes: 1 << 20, ways: 16 },
            // 1.375 MiB 11-way slice: 22528 lines = 2048 sets * 11 ways.
            l3: LevelGeometry { bytes: 22528 * LINE_BYTES, ways: 11 },
            source: "skylake",
        }
    }
}

/// The geometry the counters simulate: [`CacheGeometry::skylake`].
pub fn geometry() -> &'static CacheGeometry {
    static GEOMETRY: CacheGeometry = CacheGeometry::skylake();
    &GEOMETRY
}

/// One set-associative level with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` marks an invalid way.
    tags: Box<[u64]>,
    /// LRU stamps parallel to `tags`.
    stamps: Box<[u64]>,
    clock: u64,
}

impl CacheLevel {
    /// Creates a level with `capacity_bytes` split into `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or `sets` is not a
    /// power of two.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "need at least one way");
        let lines = capacity_bytes / LINE_BYTES;
        assert_eq!(lines % ways, 0, "capacity must divide into ways");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheLevel {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways].into_boxed_slice(),
            stamps: vec![0; sets * ways].into_boxed_slice(),
            clock: 0,
        }
    }

    /// Looks up `line`, inserting it on a miss. Returns `true` on a hit.
    pub fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        // Miss: evict the LRU way.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Invalidates every line.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
    }
}

/// The per-thread L1/L2/L3 hierarchy.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
}

/// Which level served a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the unified L2.
    L2,
    /// Served by the L3 slice.
    L3,
    /// Missed everywhere: a DRAM access.
    Dram,
}

impl CacheSim {
    /// Skylake-SP per-core geometry (see module docs).
    pub fn skylake() -> Self {
        CacheSim::with_geometry(&CacheGeometry::skylake())
    }

    /// A simulator over an explicit [`CacheGeometry`].
    pub fn with_geometry(g: &CacheGeometry) -> Self {
        CacheSim {
            l1: CacheLevel::new(g.l1.bytes, g.l1.ways),
            l2: CacheLevel::new(g.l2.bytes, g.l2.ways),
            l3: CacheLevel::new(g.l3.bytes, g.l3.ways),
        }
    }

    /// Simulates one byte-address access and reports the serving level.
    pub fn access(&mut self, addr: usize) -> HitLevel {
        let line = (addr >> LINE_SHIFT) as u64;
        if self.l1.access(line) {
            HitLevel::L1
        } else if self.l2.access(line) {
            HitLevel::L2
        } else if self.l3.access(line) {
            HitLevel::L3
        } else {
            HitLevel::Dram
        }
    }

    /// Invalidates every level.
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
    }
}

impl Default for CacheSim {
    fn default() -> Self {
        Self::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_everywhere_second_hits_l1() {
        let mut sim = CacheSim::skylake();
        assert_eq!(sim.access(0x1000), HitLevel::Dram);
        assert_eq!(sim.access(0x1000), HitLevel::L1);
        assert_eq!(sim.access(0x1008), HitLevel::L1, "same line");
        assert_eq!(sim.access(0x1040), HitLevel::Dram, "next line");
    }

    #[test]
    fn working_set_larger_than_l1_hits_l2() {
        let mut sim = CacheSim::skylake();
        // 64 KiB working set: fits L2, not L1 (32 KiB).
        let lines = (64 << 10) / LINE_BYTES;
        for i in 0..lines {
            sim.access(i * LINE_BYTES);
        }
        let mut l2_hits = 0;
        for i in 0..lines {
            if sim.access(i * LINE_BYTES) == HitLevel::L2 {
                l2_hits += 1;
            }
        }
        assert!(
            l2_hits > lines / 2,
            "most of a 64 KiB sweep should hit L2, got {l2_hits}/{lines}"
        );
    }

    #[test]
    fn working_set_larger_than_l3_reaches_dram() {
        let mut sim = CacheSim::skylake();
        // 8 MiB working set exceeds the 1.375 MiB L3 slice.
        let lines = (8 << 20) / LINE_BYTES;
        for _round in 0..2 {
            let mut dram = 0;
            for i in 0..lines {
                if sim.access(i * LINE_BYTES) == HitLevel::Dram {
                    dram += 1;
                }
            }
            assert!(dram > lines / 2, "streaming 8 MiB must thrash, got {dram}");
        }
    }

    #[test]
    fn lru_keeps_hot_line_resident() {
        let mut level = CacheLevel::new(8 * LINE_BYTES, 8); // one set, 8 ways
        level.access(0); // hot line
        for i in 1..8 {
            level.access(i);
        }
        level.access(0); // refresh hot line
        level.access(100); // evicts LRU (line 1), not line 0
        assert!(level.access(0), "hot line must survive");
        assert!(!level.access(1), "cold line must be evicted");
    }

    #[test]
    fn clear_invalidates() {
        let mut sim = CacheSim::skylake();
        sim.access(0);
        sim.clear();
        assert_eq!(sim.access(0), HitLevel::Dram);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        CacheLevel::new(3 * LINE_BYTES, 1);
    }

    #[test]
    fn reported_geometry_is_the_simulated_one() {
        assert_eq!(*geometry(), CacheGeometry::skylake());
        assert_eq!(geometry().source, "skylake");
    }
}

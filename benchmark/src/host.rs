//! What the benchmark needs to know about, and fix on, the host.

use std::time::Instant;

/// Thread count every run uses: `min(nproc, 4)`, so the number is one
/// the host really has and does not grow past what the workloads were
/// sized for.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Refuses to start when a `STUDY_*` or `GALOIS_*` variable is set: the
/// crates read ~25 such knobs ambiently, and a benchmark number must
/// describe the default configuration.
///
/// # Errors
///
/// Names every offending variable.
pub fn refuse_ambient_env() -> Result<(), String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STUDY_") || k.starts_with("GALOIS_"))
        .collect();
    if knobs.is_empty() {
        return Ok(());
    }
    knobs.sort();
    Err(format!(
        "refusing to run with ambient knobs set ({}): the benchmark measures the default configuration",
        knobs.join(", ")
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of cpu0's cache at `level`, from sysfs.
fn sysfs_cache_bytes(level: u32) -> Option<usize> {
    let root = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(root).ok()?.flatten().find_map(|entry| {
        let read = |file| std::fs::read_to_string(entry.path().join(file)).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level {
            return None;
        }
        let kib = read("size")?
            .trim()
            .strip_suffix('K')?
            .parse::<usize>()
            .ok()?;
        Some(kib * 1024)
    })
}

/// Cache sizes in bytes — (one L2, the L3) — and where they came from.
/// Read from sysfs as reported; `perfmon`'s geometry is the fallback
/// only, because it swaps in Skylake constants whenever a level is not
/// a power-of-two shape (this host's 260 MiB L3 is not).
pub fn caches() -> (usize, usize, &'static str) {
    match (sysfs_cache_bytes(2), sysfs_cache_bytes(3)) {
        (Some(l2), Some(l3)) => (l2, l3, "sysfs"),
        _ => {
            let g = perfmon::cache::geometry();
            (g.l2.bytes, g.l3.bytes, g.source)
        }
    }
}

/// STREAM triad (`a = b + s·c`) over three arrays of `array_bytes`
/// each, split across [`threads`] plain OS
/// threads (not the galois-rt pool: this is the host's yardstick, not a
/// layer's); returns the best of `passes` in GB/s, counting the three
/// streams the loop names (no write-allocate).
pub fn triad_gbps(array_bytes: usize, passes: usize) -> f64 {
    let len = array_bytes / std::mem::size_of::<f64>();
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let part = len.div_ceil(threads());
    let mut best = f64::INFINITY;
    for pass in 0..passes.max(1) {
        let s = 1.0 + pass as f64;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(part).zip(b.chunks(part)).zip(c.chunks(part)) {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + s * *c;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    (3 * len * std::mem::size_of::<f64>()) as f64 / best / 1e9
}

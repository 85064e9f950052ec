//! An idle pool burns no CPU once its workers have parked.
//!
//! Alone in its binary, so no other test's regions can wake the workers
//! while they are measured. The CPU time is read per worker thread from
//! `/proc/self/task/<tid>/stat`: the measuring thread's own wake-ups and
//! reads would blur the process-wide total in `/proc/self/stat`, while a
//! parked worker's utime + stime do not move at all.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// utime + stime in clock ticks, summed over the pool's worker threads.
fn worker_ticks() -> u64 {
    let mut total = 0;
    let mut workers = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs is mounted") {
        let Ok(stat) = std::fs::read_to_string(task.unwrap().path().join("stat")) else {
            continue;
        };
        // "pid (comm) state ppid ...": comm may hold spaces, so split
        // after its closing parenthesis; utime and stime are fields 14
        // and 15, the 12th and 13th after the comm.
        let (head, tail) = stat.rsplit_once(')').expect("stat has a comm field");
        if !head.contains("(galois-worker") {
            continue;
        }
        let fields: Vec<&str> = tail.split_whitespace().collect();
        let utime: u64 = fields[11].parse().expect("utime");
        let stime: u64 = fields[12].parse().expect("stime");
        total += utime + stime;
        workers += 1;
    }
    assert!(workers > 0, "no galois-worker threads found");
    total
}

#[test]
fn idle_pool_burns_no_cpu_after_the_spin_window() {
    let pool = galois_rt::ThreadPool::new(4);
    let shares = AtomicUsize::new(0);
    pool.region(4, |_| {
        shares.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(shares.into_inner(), 4);
    // Far past the spin window: every worker has parked by now.
    std::thread::sleep(Duration::from_millis(20));
    let before = worker_ticks();
    std::thread::sleep(Duration::from_millis(100));
    let after = worker_ticks();
    assert_eq!(
        after,
        before,
        "idle workers used {} ticks in 100 ms",
        after - before
    );
}

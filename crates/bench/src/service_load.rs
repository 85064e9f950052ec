//! Sustained-throughput client workload for the analytics service.
//!
//! Drives a mix of cheap (frontier) and expensive (materialization)
//! request threads against a running server, recording per-request
//! dispositions and client-side latencies. Used by the `service_bench`
//! CI driver against an external server.

use service::protocol::{RunRequest, Status};
use service::{Client, RetryPolicy};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use study_core::problem::{Problem, System};

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Threads issuing cheap requests (bfs/cc/pr/sssp round-robin).
    pub cheap_threads: usize,
    /// Threads issuing expensive requests (tc/ktruss round-robin).
    pub expensive_threads: usize,
    /// Requests each thread issues.
    pub requests_per_thread: usize,
    /// Per-request deadline in milliseconds (0 = server default).
    pub deadline_ms: u32,
    /// Ask the server to verify every output.
    pub verify: bool,
    /// Retry policy for transiently rejected work.
    pub retry: RetryPolicy,
    /// Base seed for the per-client jitter streams.
    pub seed: u64,
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests issued (after client-side retries collapsed).
    pub requests: u64,
    /// Requests that completed ok (verified when requested).
    pub ok: u64,
    /// Requests the server reported failed.
    pub failed: u64,
    /// Requests that hit their deadline.
    pub timeout: u64,
    /// Requests that exhausted the memory budget.
    pub oom: u64,
    /// Requests shed by admission control (after retries).
    pub rejected: u64,
    /// Served-ok requests that the server did not mark verified.
    pub unverified: u64,
    /// Client-side retries consumed across all threads.
    pub retried: u64,
    /// Transport-level errors (should be zero against a live server).
    pub transport_errors: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Client-observed latency of every completed request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The cheap-thread subset of `latencies_ms`.
    pub cheap_latencies_ms: Vec<f64>,
}

impl LoadReport {
    /// Requests per second over the run wall time.
    pub fn qps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.requests as f64 / s
        } else {
            0.0
        }
    }

    /// Whether every request was served ok (and verified when asked).
    pub fn all_ok(&self) -> bool {
        self.transport_errors == 0
            && self.failed + self.timeout + self.oom + self.rejected + self.unverified == 0
    }
}

/// The `q`-th percentile (0..=100) of a latency sample, or 0 when empty.
pub fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

const CHEAP_MIX: [Problem; 4] = [Problem::Bfs, Problem::Cc, Problem::Pr, Problem::Sssp];
const EXPENSIVE_MIX: [Problem; 2] = [Problem::Tc, Problem::Ktruss];
const SYSTEM_MIX: [System; 3] = [System::SuiteSparse, System::GaloisBlas, System::Lonestar];

struct ThreadTally {
    report: LoadReport,
    cheap: bool,
}

fn run_thread(
    addr: SocketAddr,
    graph: String,
    spec: LoadSpec,
    mix: &[Problem],
    cheap: bool,
    seed: u64,
) -> ThreadTally {
    let mut report = LoadReport::default();
    let mut client = match Client::connect(addr, spec.retry.clone(), seed) {
        Ok(c) => c,
        Err(_) => {
            report.transport_errors = spec.requests_per_thread as u64;
            return ThreadTally { report, cheap };
        }
    };
    for i in 0..spec.requests_per_thread {
        let request = RunRequest {
            graph: graph.clone(),
            system: SYSTEM_MIX[(seed as usize + i) % SYSTEM_MIX.len()],
            problem: mix[i % mix.len()],
            deadline_ms: spec.deadline_ms,
            verify: spec.verify,
        };
        let start = Instant::now();
        match client.run(&request) {
            Ok(r) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                report.requests += 1;
                report.latencies_ms.push(ms);
                match r.status {
                    Status::Ok => {
                        report.ok += 1;
                        if spec.verify && !r.verified {
                            report.unverified += 1;
                        }
                    }
                    Status::Failed => report.failed += 1,
                    Status::Timeout => report.timeout += 1,
                    Status::Oom => report.oom += 1,
                    Status::Rejected => report.rejected += 1,
                }
            }
            Err(_) => report.transport_errors += 1,
        }
    }
    report.retried = client.retries_used();
    ThreadTally { report, cheap }
}

/// Runs the workload and aggregates every thread's tally.
pub fn drive(addr: SocketAddr, graph: &str, spec: &LoadSpec) -> LoadReport {
    let tallies: Mutex<Vec<ThreadTally>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..spec.cheap_threads {
            let spec = spec.clone();
            let graph = graph.to_string();
            let tallies = &tallies;
            scope.spawn(move || {
                let tally =
                    run_thread(addr, graph, spec.clone(), &CHEAP_MIX, true, spec.seed + t as u64);
                tallies.lock().unwrap_or_else(|e| e.into_inner()).push(tally);
            });
        }
        for t in 0..spec.expensive_threads {
            let spec = spec.clone();
            let graph = graph.to_string();
            let tallies = &tallies;
            scope.spawn(move || {
                let tally = run_thread(
                    addr,
                    graph,
                    spec.clone(),
                    &EXPENSIVE_MIX,
                    false,
                    spec.seed + 1000 + t as u64,
                );
                tallies.lock().unwrap_or_else(|e| e.into_inner()).push(tally);
            });
        }
    });
    let wall = started.elapsed();
    let mut total = LoadReport {
        wall,
        ..LoadReport::default()
    };
    for tally in tallies.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let r = tally.report;
        total.requests += r.requests;
        total.ok += r.ok;
        total.failed += r.failed;
        total.timeout += r.timeout;
        total.oom += r.oom;
        total.rejected += r.rejected;
        total.unverified += r.unverified;
        total.retried += r.retried;
        total.transport_errors += r.transport_errors;
        if tally.cheap {
            total.cheap_latencies_ms.extend_from_slice(&r.latencies_ms);
        }
        total.latencies_ms.extend(r.latencies_ms);
    }
    total
}

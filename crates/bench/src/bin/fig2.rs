//! Regenerates **Figure 2**: strong scaling of GaloisBLAS (GB) and
//! Lonestar (LS) for bfs, cc, pr and sssp on the four largest graphs.
//!
//! Prints one series per (problem, graph, system): runtime at each thread
//! count, doubling from 1 up to the `galois-rt` pool size
//! (`GALOIS_MAX_THREADS`, default the host's available parallelism).
//!
//! ```text
//! cargo run -p bench --bin fig2 --release
//! ```

use graphblas::ops::Policy;
use std::sync::Arc;
use study_core::report::{secs, Table};
use study_core::{execute, Job, PreparedGraph, Problem, System, Work};

fn main() {
    let policy = Policy::from_env();
    let scale = bench::scale_from_env();
    let selected = bench::graphs_from_env();
    let four: Vec<_> = graph::StudyGraph::four_largest()
        .into_iter()
        .filter(|g| selected.contains(g))
        .collect();
    let prepared: Vec<Arc<PreparedGraph>> = four
        .into_iter()
        .map(|g| {
            eprintln!("[prepare] {} ...", g.name());
            Arc::new(PreparedGraph::study(g, scale))
        })
        .collect();

    let max_threads = galois_rt::max_threads();
    let mut threads = Vec::new();
    let mut t = 1;
    while t <= max_threads {
        threads.push(t);
        t *= 2;
    }
    if threads.last().copied() != Some(max_threads) {
        threads.push(max_threads);
    }

    println!("Figure 2: strong scaling (seconds per thread count)\n");
    for problem in [Problem::Bfs, Problem::Cc, Problem::Pr, Problem::Sssp] {
        let mut table = Table::new(
            std::iter::once("series".to_string())
                .chain(threads.iter().map(|t| format!("t={t}"))),
        );
        for p in &prepared {
            for system in [System::GaloisBlas, System::Lonestar] {
                let mut cells = vec![format!("{} {} {}", problem, p.name, system)];
                for &t in &threads {
                    galois_rt::set_threads(t);
                    let job = Job {
                        policy,
                        ..Job::new(Work::Cell(system, problem))
                    };
                    let out = execute(&job, p);
                    assert!(out.is_ok(), "{problem} on {system}: {:?}", out.lanes);
                    cells.push(secs(out.solve));
                }
                table.row(cells);
            }
        }
        println!("{problem}:\n{table}");
    }
    galois_rt::set_threads(0);
}

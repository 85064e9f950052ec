//! Regenerates **Table III**: maximum resident set size per system,
//! problem and graph.
//!
//! A tracking global allocator records the high-water mark of live bytes;
//! the peak is reset before each cell, so each reported value is the
//! peak during "graph is resident + the algorithm runs" — the same
//! quantity the paper's end-of-computation MRSS captures (graph loading
//! included).
//!
//! ```text
//! cargo run -p bench --bin table3 --release
//! ```

use graphblas::ops::Policy;
use perfmon::alloc::{peak_bytes, reset_peak, TrackingAllocator};
use study_core::report::{mib, Table};
use study_core::{execute, Job, Problem, System, Work};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    let policy = Policy::from_env();
    let scale = bench::scale_from_env();
    let prepared = bench::prepare_graphs(scale);

    println!("Table III: maximum resident set size (MiB) at the end of computation\n");
    let mut table = Table::new(
        std::iter::once("problem/system".to_string())
            .chain(prepared.iter().map(|p| p.name.clone())),
    );
    for problem in Problem::all() {
        for system in System::all() {
            let mut cells = vec![format!("{problem} {system}")];
            for p in &prepared {
                let job = Job {
                    policy,
                    ..Job::new(Work::Cell(system, problem))
                };
                reset_peak();
                let out = execute(&job, p);
                let peak = peak_bytes();
                assert!(
                    out.is_ok(),
                    "{problem} on {system}: {:?}",
                    out.lanes[0].error
                );
                // Keep the output alive until after the measurement.
                std::hint::black_box(&out);
                cells.push(mib(peak));
            }
            table.row(cells);
        }
    }
    println!("{table}");
    println!(
        "note: peaks include the resident prepared graphs, mirroring the paper's\n\
         process-level MRSS (which includes graph loading)."
    );
}

//! Regenerates **Table II**: execution time in seconds for six problems ×
//! nine graphs × three systems (SS = LAGraph/SuiteSparse-like backend,
//! GB = LAGraph/GaloisBLAS, LS = Lonestar/Galois).
//!
//! Every cell's first run is verified against the serial reference; a
//! failed verification prints `C` (the paper's "correctness bug"
//! marker), a cell that did not finish prints its status, and either
//! makes the binary exit 1 after the table.
//!
//! ```text
//! STUDY_SCALE=0.25 cargo run -p bench --bin table2 --release
//! ```

use study_core::report::{secs, Table};
use study_core::{Problem, System, Work};

fn main() {
    let scale = bench::scale_from_env();
    let repeats = bench::repeats_from_env();
    let prepared = bench::prepare_graphs(scale);

    println!("Table II: execution time in seconds (avg of {repeats} runs)");
    println!("threads: {}\n", galois_rt::threads());

    let mut table = Table::new(
        std::iter::once("problem/system".to_string())
            .chain(prepared.iter().map(|p| p.name.clone())),
    );
    let mut speedup_num = 0.0f64;
    let mut speedup_count = 0u32;
    let mut ss_times = std::collections::HashMap::new();
    let mut bad = false;

    for problem in Problem::all() {
        for system in System::all() {
            let mut cells = vec![format!("{problem} {system}")];
            for p in &prepared {
                let (elapsed, first) =
                    bench::timed_verified(Work::Cell(system, problem), p, repeats);
                let lane = &first.lanes[0];
                let cell = match &lane.error {
                    None => secs(elapsed),
                    Some(e) => {
                        eprintln!("[verify] {system} {problem} {}: {e}", p.name);
                        bad = true;
                        match lane.value {
                            Some(_) => "C".to_string(),
                            None => lane.status.to_string(),
                        }
                    }
                };
                match system {
                    System::SuiteSparse => {
                        ss_times.insert((problem, p.name.clone()), elapsed);
                    }
                    System::Lonestar => {
                        if let Some(ss) = ss_times.get(&(problem, p.name.clone())) {
                            if elapsed.as_secs_f64() > 0.0 {
                                speedup_num += ss.as_secs_f64() / elapsed.as_secs_f64();
                                speedup_count += 1;
                            }
                        }
                    }
                    System::GaloisBlas => {}
                }
                cells.push(cell);
            }
            table.row(cells);
        }
    }
    println!("{table}");
    if speedup_count > 0 {
        println!(
            "mean LS speedup over SS across all cells: {:.2}x (paper: ~5x on 56 cores)",
            speedup_num / f64::from(speedup_count)
        );
    }
    if bad {
        std::process::exit(1);
    }
}

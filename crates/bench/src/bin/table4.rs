//! Regenerates **Table IV**: performance-counter comparison of GaloisBLAS
//! (GB) vs Lonestar (LS) — instruction count and L1/L2/L3/DRAM access
//! counts — for one representative graph per problem, as the paper's
//! CapeScripts runs do.
//!
//! ```text
//! cargo run -p bench --bin table4 --release
//! ```

use graphblas::ops::Policy;
use perfmon::PerfReport;
use std::sync::Arc;
use study_core::report::Table;
use study_core::{execute, Job, PreparedGraph, Problem, System, Work};

/// The (problem, graph) pairs §V-B discusses against Table IV.
fn rows() -> Vec<(Problem, &'static str)> {
    vec![
        (Problem::Bfs, "road-USA"),
        (Problem::Cc, "twitter40"),
        (Problem::Ktruss, "rmat22"),
        (Problem::Pr, "uk07"),
        (Problem::Sssp, "road-USA"),
        (Problem::Tc, "uk07"),
    ]
}

fn main() {
    let policy = Policy::from_env();
    let scale = bench::scale_from_env();
    let prepared = bench::prepare_graphs(scale);
    let find = |name: &str| prepared.iter().find(|p| p.name == name);

    println!("Table IV: GB vs LS hardware-model counters (GB / LS ratio per counter)\n");
    let mut table = Table::new([
        "problem (graph)",
        "instr",
        "L1",
        "L2",
        "L3",
        "DRAM",
    ]);
    for (problem, graph_name) in rows() {
        let Some(p) = find(graph_name) else {
            eprintln!("[skip] {graph_name} not selected");
            continue;
        };
        let gb = measure(System::GaloisBlas, problem, p, policy);
        let ls = measure(System::Lonestar, problem, p, policy);
        println!("{gb}");
        println!("{ls}");
        let r = gb.ratio(&ls);
        table.row([
            format!("{problem} ({graph_name})"),
            format!("{:.2}", r.instructions),
            format!("{:.2}", r.l1),
            format!("{:.2}", r.l2),
            format!("{:.2}", r.l3),
            format!("{:.2}", r.dram),
        ]);
    }
    println!("\n{table}");
    println!("ratios > 1 mean GB executes more of that event than LS, as in the paper.");
}

fn measure(system: System, problem: Problem, p: &Arc<PreparedGraph>, policy: Policy) -> PerfReport {
    let job = Job {
        policy,
        ..Job::new(Work::Cell(system, problem))
    };
    perfmon::reset();
    perfmon::enable(true);
    let out = execute(&job, p);
    perfmon::enable(false);
    assert!(
        out.is_ok(),
        "{problem} on {system}: {:?}",
        out.lanes[0].error
    );
    PerfReport::new(
        format!("{problem} {} {}", p.name, system),
        perfmon::snapshot(),
    )
}

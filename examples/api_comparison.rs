//! The whole study in miniature: run all six problems through all three
//! systems on one graph, verify everything, and print a Table II-style
//! summary.
//!
//! ```text
//! cargo run --example api_comparison --release [-- <graph-name>]
//! ```

use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::study_core::report::{secs, Table};
use graph_api_study::study_core::{execute, Job, PreparedGraph, Problem, System, Work};
use std::sync::Arc;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "rmat22".into());
    let which = StudyGraph::all()
        .into_iter()
        .find(|g| g.name().eq_ignore_ascii_case(&name))
        .unwrap_or(StudyGraph::Rmat22);

    println!("preparing {} (scale 1/8) ...", which.name());
    let p = Arc::new(PreparedGraph::study(which, Scale::custom(1.0 / 8.0)));
    println!(
        "{}: {} vertices, {} edges, source {}\n",
        p.name,
        p.graph.num_nodes(),
        p.graph.num_edges(),
        p.source
    );

    let mut table = Table::new(["problem", "SS (s)", "GB (s)", "LS (s)", "LS speedup"]);
    for problem in Problem::all() {
        let mut times = Vec::new();
        for system in System::all() {
            let job = Job {
                verify: true,
                ..Job::new(Work::Cell(system, problem))
            };
            let out = execute(&job, &p);
            assert!(out.is_ok(), "{system} {problem}: {:?}", out.lanes[0].error);
            times.push(out.solve);
        }
        let speedup = times[0].as_secs_f64() / times[2].as_secs_f64().max(1e-9);
        table.row([
            problem.name().to_string(),
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{table}");
    println!("all 18 runs verified against serial references.");
}

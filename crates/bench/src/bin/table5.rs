//! Regenerates **Table V**: performance counters for the differential
//! variants of §V-B — `pr-gb-res` vs `pr-ls-soa`, `tc-gb-ll` vs `tc-ls`,
//! and `cc-gb` vs `cc-ls-sv`.
//!
//! ```text
//! cargo run -p bench --bin table5 --release
//! ```

use graphblas::ops::Policy;
use perfmon::PerfReport;
use std::sync::Arc;
use study_core::report::Table;
use study_core::{execute, Job, PreparedGraph, Variant, Work};

/// The matched variant pairs the paper's Table V analyses, with the graph
/// each comparison is discussed on.
fn pairs() -> Vec<(&'static str, Variant, Variant, &'static str)> {
    vec![
        ("pr", Variant::PrGbRes, Variant::PrLsSoa, "rmat22"),
        ("tc", Variant::TcGbLl, Variant::TcLs, "uk07"),
        ("cc", Variant::CcGb, Variant::CcLsSv, "road-USA"),
        ("sssp", Variant::SsspGb, Variant::SsspLsNotile, "road-USA"),
    ]
}

fn main() {
    let policy = Policy::from_env();
    let scale = bench::scale_from_env();
    let prepared = bench::prepare_graphs(scale);
    let find = |name: &str| prepared.iter().find(|p| p.name == name);

    println!("Table V: differential-variant counters (matrix variant / graph variant)\n");
    let mut table = Table::new([
        "pair (graph)",
        "instr",
        "L1",
        "L2",
        "L3",
        "DRAM",
    ]);
    for (problem, matrix_variant, graph_variant, graph_name) in pairs() {
        let Some(p) = find(graph_name) else {
            eprintln!("[skip] {graph_name} not selected");
            continue;
        };
        let m = measure(matrix_variant, p, policy);
        let g = measure(graph_variant, p, policy);
        println!("{m}");
        println!("{g}");
        let r = m.ratio(&g);
        table.row([
            format!(
                "{problem}: {} vs {} ({graph_name})",
                matrix_variant.name(),
                graph_variant.name()
            ),
            format!("{:.2}", r.instructions),
            format!("{:.2}", r.l1),
            format!("{:.2}", r.l2),
            format!("{:.2}", r.l3),
            format!("{:.2}", r.dram),
        ]);
    }
    println!("\n{table}");
}

fn measure(variant: Variant, p: &Arc<PreparedGraph>, policy: Policy) -> PerfReport {
    let job = Job {
        policy,
        ..Job::new(Work::Variant(variant))
    };
    perfmon::reset();
    perfmon::enable(true);
    let out = execute(&job, p);
    perfmon::enable(false);
    assert!(
        out.is_ok(),
        "variant {} failed: {:?}",
        variant.name(),
        out.lanes[0].error
    );
    PerfReport::new(format!("{} {}", variant.name(), p.name), perfmon::snapshot())
}

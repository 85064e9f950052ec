//! Regenerates **Figure 3**: speedups of the differential-analysis
//! variants over the baseline `gb` variant, for cc, sssp, pr and tc on
//! all nine graphs. Each variant's first run per graph is verified
//! against the serial reference; a wrong variant prints `WRONG` and the
//! binary exits 1 after the report.
//!
//! ```text
//! cargo run -p bench --bin fig3 --release            # all four panels
//! cargo run -p bench --bin fig3 --release -- pr tc   # selected panels
//! ```

use std::time::Duration;
use study_core::report::{ratio, Table};
use study_core::{Problem, Variant, Work};

fn main() {
    let scale = bench::scale_from_env();
    let repeats = bench::repeats_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panels: Vec<Problem> = if args.is_empty() {
        vec![Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp]
    } else {
        args.iter()
            .filter_map(|a| match a.as_str() {
                "pr" => Some(Problem::Pr),
                "tc" => Some(Problem::Tc),
                "cc" => Some(Problem::Cc),
                "sssp" => Some(Problem::Sssp),
                other => {
                    eprintln!("[skip] unknown panel {other}");
                    None
                }
            })
            .collect()
    };

    let prepared = bench::prepare_graphs(scale);

    println!("Figure 3: variant speedups over the gb baseline (higher is faster)\n");
    let mut bad = false;
    for problem in panels {
        let variants = Variant::panel(problem);
        let mut table = Table::new(
            std::iter::once("graph".to_string())
                .chain(variants.iter().map(|v| v.name().to_string())),
        );
        // Baseline: the gb variant. A panel without one has nothing to
        // normalize against; skip it instead of dying mid-report.
        let Some(baseline) = variants.iter().position(|v| v.name() == "gb") else {
            eprintln!("[fig3] panel {problem} has no gb baseline; skipped");
            continue;
        };
        for p in &prepared {
            let runs: Vec<_> = variants
                .iter()
                .map(|&v| bench::timed_verified(Work::Variant(v), p, repeats))
                .collect();
            let mut cells = vec![p.name.clone()];
            for (variant, (elapsed, first)) in variants.iter().zip(&runs) {
                let lane = &first.lanes[0];
                cells.push(match &lane.error {
                    None => speedup(runs[baseline].0, *elapsed),
                    Some(e) => {
                        eprintln!("[verify] {problem} {} {}: {e}", variant.name(), p.name);
                        bad = true;
                        match lane.value {
                            Some(_) => "WRONG".to_string(),
                            None => lane.status.to_string(),
                        }
                    }
                });
            }
            table.row(cells);
        }
        println!("fig 3 ({problem}):\n{table}");
    }
    if bad {
        std::process::exit(1);
    }
}

fn speedup(base: Duration, t: Duration) -> String {
    if t.as_nanos() == 0 {
        return "inf".to_string();
    }
    ratio(base.as_secs_f64() / t.as_secs_f64())
}

//! Extension experiment: execution-round counts, matrix API vs graph API.
//!
//! §V-B of the paper attributes part of the ktruss gap to LAGraph
//! executing ~1.6x more rounds than Lonestar (Jacobi vs Gauss-Seidel
//! visibility of edge removals) and the sssp gap to bulk-synchronous
//! round counts that grow with graph diameter. This binary prints the
//! raw round/bucket/work counts behind those claims.
//!
//! ```text
//! cargo run -p bench --bin rounds --release
//! ```

use graphblas::GaloisRuntime;
use study_core::report::Table;

fn main() {
    let scale = bench::scale_from_env();
    let prepared = bench::prepare_graphs(scale);

    println!("Execution rounds: matrix (Jacobi / bulk) vs graph (Gauss-Seidel / async)\n");

    let mut kt = Table::new(["graph", "k", "gb rounds", "ls rounds", "gb/ls"]);
    let mut ss = Table::new([
        "graph",
        "gb buckets",
        "gb bulk rounds",
        "ls work items",
        "ls items/vertex",
    ]);

    for p in &prepared {
        // ktruss rounds (skip the giant ones at high scale by bounding on
        // edge count; the road networks and crawls are representative).
        if p.symmetric.num_edges() <= 1_500_000 {
            // A failed run (e.g. a memory budget trip) skips the row
            // rather than killing the whole report.
            match lagraph::ktruss::ktruss(&p.symmetric, p.ktruss_k, GaloisRuntime) {
                Ok(gb) => {
                    let ls = lonestar::ktruss::ktruss(&p.symmetric, p.ktruss_k);
                    assert_eq!(gb.edges_remaining, ls.edges_remaining);
                    kt.row([
                        p.name.clone(),
                        p.ktruss_k.to_string(),
                        gb.rounds.to_string(),
                        ls.rounds.to_string(),
                        format!("{:.2}", f64::from(gb.rounds) / f64::from(ls.rounds)),
                    ]);
                }
                Err(e) => eprintln!("[rounds] ktruss on {} failed: {e}", p.name),
            }
        }

        match lagraph::sssp::sssp_delta_stepping(&p.graph, p.source, p.sssp_delta, GaloisRuntime) {
            Ok(gb) => {
                let ls = lonestar::sssp::sssp(&p.graph, p.source, p.sssp_delta, true);
                assert_eq!(gb.dist, ls.dist);
                ss.row([
                    p.name.clone(),
                    gb.buckets.to_string(),
                    gb.rounds.to_string(),
                    ls.work_items.to_string(),
                    format!("{:.2}", ls.work_items as f64 / p.graph.num_nodes() as f64),
                ]);
            }
            Err(e) => eprintln!("[rounds] sssp on {} failed: {e}", p.name),
        }
    }

    println!("ktruss (paper: gb executes ~1.6x more rounds than ls):\n{kt}");
    println!("sssp (bulk rounds grow with diameter; async has no rounds at all):\n{ss}");
}

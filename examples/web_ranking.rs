//! Web-page ranking: pagerank over a host-structured crawl, comparing the
//! fused-loop graph-API implementation against the multi-pass matrix-API
//! one, and the AoS-vs-SoA layout effect (paper Figure 3(a)).
//!
//! ```text
//! cargo run --example web_ranking --release
//! ```

use graph_api_study::graph::gen::web_crawl;
use graph_api_study::graph::transform::transpose;
use graph_api_study::graphblas::GaloisRuntime;
use graph_api_study::{lagraph, lonestar};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let crawl = web_crawl(40, 250, 11);
    println!(
        "crawl: {} pages, {} links",
        crawl.num_nodes(),
        crawl.num_edges()
    );
    let gt = transpose(&crawl);
    let out_deg: Vec<u32> = (0..crawl.num_nodes() as u32)
        .map(|v| crawl.out_degree(v) as u32)
        .collect();
    let iters = 10;

    let t = Instant::now();
    let ls = lonestar::pagerank::pagerank(&gt, &out_deg, iters);
    let ls_time = t.elapsed();

    let t = Instant::now();
    let ls_soa = lonestar::pagerank::pagerank_soa(&gt, &out_deg, iters);
    let soa_time = t.elapsed();

    let t = Instant::now();
    let gb_res = lagraph::pagerank::pagerank_residual(&gt, &out_deg, iters, GaloisRuntime)?;
    let gbres_time = t.elapsed();

    let t = Instant::now();
    let gb = lagraph::pagerank::pagerank(&gt, &out_deg, iters, GaloisRuntime)?;
    let gb_time = t.elapsed();

    for (name, other) in [("ls-soa", &ls_soa), ("gb-res", &gb_res), ("gb", &gb)] {
        let max_diff = ls
            .iter()
            .zip(other.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-9, "{name} diverged by {max_diff}");
    }

    // Top pages should be the host front pages (high in-degree).
    let mut ranked: Vec<(usize, f64)> = ls.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 5 pages by rank: {:?}", &ranked[..5]);
    println!();
    println!("pr-ls      (fused loop, AoS):      {ls_time:>8.2?}");
    println!("pr-ls-soa  (fused loop, SoA):      {soa_time:>8.2?}");
    println!("pr-gb-res  (matrix API, residual): {gbres_time:>8.2?}");
    println!("pr-gb      (matrix API, topology): {gb_time:>8.2?}");
    println!(
        "\nthe matrix API touches the residual vector in two separate calls per\n\
         round; the graph API fuses rank update and residual scaling into one loop."
    );
    Ok(())
}

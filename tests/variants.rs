//! Integration: every Figure 3 variant is correct and algorithm metadata
//! (rounds, materialization) exhibits the paper's qualitative claims.

use graph_api_study::graph::transform::{sort_by_degree, symmetrize};
use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::graphblas::GaloisRuntime;
use graph_api_study::study_core::runner::run_variant;
use graph_api_study::study_core::{verify, PreparedGraph, Problem, Variant};
use graph_api_study::{lagraph, lonestar};

#[test]
fn every_variant_verifies_on_two_shapes() {
    for which in [StudyGraph::RoadUsa, StudyGraph::Indochina04] {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 128.0));
        for problem in [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp] {
            for &variant in Variant::panel(problem) {
                let out = run_variant(variant, &p);
                verify::verify(&p, problem, &out).unwrap_or_else(|e| {
                    panic!("{} {problem} on {}: {e}", variant.name(), p.name)
                });
            }
        }
    }
}

#[test]
fn ktruss_gauss_seidel_needs_no_more_rounds_than_jacobi() {
    // The paper: LAGraph's Jacobi-style removal executes ~1.6x more
    // rounds than Lonestar's immediately-visible removal.
    let g = symmetrize(&graph_api_study::graph::gen::web_crawl(6, 80, 9));
    let k = 5;
    let ls = lonestar::ktruss::ktruss(&g, k);
    let gb = lagraph::ktruss::ktruss(&g, k, GaloisRuntime).unwrap();
    assert_eq!(ls.edges_remaining, gb.edges_remaining);
    assert!(
        ls.rounds <= gb.rounds,
        "Gauss-Seidel {} rounds vs Jacobi {}",
        ls.rounds,
        gb.rounds
    );
}

#[test]
fn matrix_tc_materializes_graph_tc_does_not() {
    let g = symmetrize(&graph_api_study::graph::gen::community(400, 15, 4).into_unweighted());
    let gb = lagraph::tc::tc_sandia_dot(&g, GaloisRuntime).unwrap();
    assert!(gb.triangles > 0);
    assert!(
        gb.materialized_nvals > 0,
        "SandiaDot must materialize per-edge counts"
    );
    // The graph API returns just the number: no intermediate exists.
    let (sorted, _) = sort_by_degree(&g);
    assert_eq!(lonestar::tc::tc(&sorted), gb.triangles);
}

#[test]
fn bulk_sssp_rounds_grow_with_diameter() {
    // Round-based execution is what costs the matrix API on
    // high-diameter graphs (paper Figure 3(d)).
    let small = graph_api_study::graph::gen::grid_road(20, 10, 1);
    let large = graph_api_study::graph::gen::grid_road(80, 10, 1);
    let a = lagraph::sssp::sssp_delta_stepping(&small, 0, 1 << 13, GaloisRuntime).unwrap();
    let b = lagraph::sssp::sssp_delta_stepping(&large, 0, 1 << 13, GaloisRuntime).unwrap();
    assert!(
        b.rounds > a.rounds,
        "larger diameter must need more bulk rounds ({} vs {})",
        b.rounds,
        a.rounds
    );
}

#[test]
fn betweenness_agrees_across_apis_and_reference() {
    use graph_api_study::study_core::reference;
    let g = graph_api_study::graph::gen::rmat(8, 8, graph_api_study::graph::gen::RmatParams::default(), 6);
    let sources: Vec<u32> = vec![0, 3, g.max_out_degree_node()];
    let expected = reference::betweenness(&g, &sources);
    let ls = lonestar::bc::betweenness(&g, &sources);
    let gb = lagraph::bc::betweenness(&g, &sources, GaloisRuntime).unwrap();
    for v in 0..g.num_nodes() {
        assert!(
            (ls[v] - expected[v]).abs() < 1e-6,
            "ls bc mismatch at {v}: {} vs {}",
            ls[v],
            expected[v]
        );
        assert!(
            (gb.centrality[v] - expected[v]).abs() < 1e-6,
            "gb bc mismatch at {v}: {} vs {}",
            gb.centrality[v],
            expected[v]
        );
    }
    assert!(gb.materialized_vectors > 0, "matrix bc keeps level history");
}

#[test]
fn afforest_beats_sv_on_work() {
    // Afforest's sampling processes far fewer edges; at minimum the
    // results agree, which is what this integration check pins down.
    let g = symmetrize(&graph_api_study::graph::gen::preferential_attachment(
        3000, 5, false, 8,
    ));
    let ls = lonestar::cc::afforest(&g, 2);
    let sv = lonestar::cc::shiloach_vishkin(&g);
    assert_eq!(ls.component, sv.component);
}

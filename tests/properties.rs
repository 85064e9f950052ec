//! Property-based integration tests: on arbitrary random graphs, all
//! three systems and all variants agree with the serial references.
//!
//! Runs on the in-tree harness (`substrate::prop`); set `STUDY_PROP_SEED`
//! to replay a reported failure.

use graph_api_study::graph::builder::GraphBuilder;
use graph_api_study::graph::transform::{sort_by_degree, symmetrize};
use graph_api_study::graph::CsrGraph;
use graph_api_study::graphblas::{GaloisRuntime, StaticRuntime};
use graph_api_study::study_core::reference;
use graph_api_study::substrate::prop::{self, Gen};
use graph_api_study::substrate::{prop_assert, prop_assert_eq};
use graph_api_study::{lagraph, lonestar};

const CASES: u32 = 24;

/// An arbitrary weighted directed graph with up to 60 vertices.
fn arb_graph(g: &mut Gen) -> CsrGraph {
    let n = g.gen_range(2usize..60);
    let edges = g.vec(0..300, |g| {
        (
            g.gen_range(0u32..60),
            g.gen_range(0u32..60),
            g.gen_range(1u32..100),
        )
    });
    let mut b = GraphBuilder::new(n).weighted(true);
    for (s, d, w) in edges {
        b.push_edge(s % n as u32, d % n as u32, w);
    }
    b.dedup(true).build()
}

#[test]
fn bfs_systems_match_reference() {
    prop::check(
        "bfs_systems_match_reference",
        prop::cases(CASES),
        |g| (arb_graph(g), g.gen_range(0u32..60)),
        |(g, src_pick)| {
            let src = src_pick % g.num_nodes() as u32;
            let expected = reference::bfs_levels(g, src);
            prop_assert_eq!(&lonestar::bfs::bfs(g, src).level, &expected);
            prop_assert_eq!(&lagraph::bfs::bfs(g, src, GaloisRuntime).unwrap().level, &expected);
            prop_assert_eq!(&lagraph::bfs::bfs(g, src, StaticRuntime).unwrap().level, &expected);
            Ok(())
        },
    );
}

#[test]
fn sssp_systems_match_dijkstra() {
    prop::check(
        "sssp_systems_match_dijkstra",
        prop::cases(CASES),
        |g| (arb_graph(g), g.gen_range(0u32..60), g.gen_range(1u32..16)),
        |(g, src_pick, delta_pow)| {
            let src = src_pick % g.num_nodes() as u32;
            let delta = 1u64 << delta_pow;
            let expected = reference::dijkstra(g, src);
            prop_assert_eq!(&lonestar::sssp::sssp(g, src, delta, true).dist, &expected);
            prop_assert_eq!(&lonestar::sssp::sssp(g, src, delta, false).dist, &expected);
            prop_assert_eq!(
                &lagraph::sssp::sssp_delta_stepping(g, src, delta, GaloisRuntime).unwrap().dist,
                &expected
            );
            Ok(())
        },
    );
}

#[test]
fn cc_systems_produce_reference_partition() {
    prop::check(
        "cc_systems_produce_reference_partition",
        prop::cases(CASES),
        arb_graph,
        |g| {
            let s = symmetrize(g);
            let expected = reference::components(&s);
            prop_assert_eq!(&lonestar::cc::afforest(&s, 2).component, &expected);
            prop_assert_eq!(&lonestar::cc::shiloach_vishkin(&s).component, &expected);
            prop_assert_eq!(
                &lagraph::cc::connected_components(&s, GaloisRuntime).unwrap().component,
                &expected
            );
            Ok(())
        },
    );
}

#[test]
fn tc_variants_match_reference() {
    prop::check("tc_variants_match_reference", prop::cases(CASES), arb_graph, |g| {
        let s = symmetrize(g);
        let expected = reference::triangles(&s);
        let (sorted, _) = sort_by_degree(&s);
        prop_assert_eq!(lonestar::tc::tc(&sorted), expected);
        prop_assert_eq!(
            lagraph::tc::tc_sandia_dot(&s, GaloisRuntime).unwrap().triangles,
            expected
        );
        prop_assert_eq!(
            lagraph::tc::tc_listing(&sorted, GaloisRuntime).unwrap().triangles,
            expected
        );
        Ok(())
    });
}

#[test]
fn ktruss_systems_match_reference() {
    prop::check(
        "ktruss_systems_match_reference",
        prop::cases(CASES),
        |g| (arb_graph(g), g.gen_range(3u32..6)),
        |(g, k)| {
            let k = *k;
            let s = symmetrize(g);
            let expected = reference::ktruss_edges(&s, k);
            prop_assert_eq!(lonestar::ktruss::ktruss(&s, k).edges_remaining, expected);
            prop_assert_eq!(
                lagraph::ktruss::ktruss(&s, k, GaloisRuntime).unwrap().edges_remaining,
                expected
            );
            Ok(())
        },
    );
}

/// Tentpole invariant of the batched query engine: for every batch width
/// k in {1, 4, 17}, on every study-graph shape, column j of batched
/// msBFS / multi-seed PPR / batched SSSP is **bit-identical** to the
/// serial single-source run from source j — across all three kernel
/// modes and 1/2/8 threads. Each lane executes the serial kernel path
/// (same call sequence, same kernel selection, same accumulation order),
/// so even the f64 ppr ranks must match exactly, not within tolerance.
#[test]
fn batched_columns_are_bit_identical_to_serial() {
    use graph_api_study::galois_rt;
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::graphblas::ops::{self, KernelMode};
    use graph_api_study::study_core::{batch_sources, PreparedGraph};
    use std::collections::HashMap;

    let saved_mode = ops::kernel_mode();
    let saved_threads = galois_rt::threads();
    for which in [
        StudyGraph::Rmat22,
        StudyGraph::RoadUsaW,
        StudyGraph::Indochina04,
    ] {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 256.0));
        for mode in [
            KernelMode::Auto,
            KernelMode::Push,
            KernelMode::Pull,
            KernelMode::Bitmap,
        ] {
            ops::set_kernel_mode(mode);
            // Serial answers per source, computed once per (graph, mode):
            // thread count cannot change them (the determinism suite pins
            // that), so every thread sweep compares against the same bits.
            let mut serial_bfs = HashMap::new();
            let mut serial_ppr = HashMap::new();
            let mut serial_sssp = HashMap::new();
            for k in [1usize, 4, 17] {
                let sources = batch_sources(&p, k);
                for &src in &sources {
                    serial_bfs.entry(src).or_insert_with(|| {
                        lagraph::bfs::bfs(&p.graph, src, GaloisRuntime).unwrap()
                    });
                    serial_ppr.entry(src).or_insert_with(|| {
                        lagraph::pagerank::ppr(&p.graph, src, p.pr_iters, GaloisRuntime)
                            .unwrap()
                    });
                    serial_sssp.entry(src).or_insert_with(|| {
                        lagraph::sssp::sssp_minplus(&p.graph, src, GaloisRuntime).unwrap()
                    });
                }
                for threads in [1usize, 2, 8] {
                    galois_rt::set_threads(threads);
                    let ctx = |j: usize| {
                        format!(
                            "{which:?} k={k} mode={mode:?} threads={threads} column {j}"
                        )
                    };
                    let bfs = lagraph::batch::batched_bfs(&p.graph, &sources, GaloisRuntime);
                    let ppr = lagraph::batch::batched_ppr(
                        &p.graph, &sources, p.pr_iters, GaloisRuntime,
                    );
                    let sssp =
                        lagraph::batch::batched_sssp(&p.graph, &sources, GaloisRuntime);
                    for (j, &src) in sources.iter().enumerate() {
                        assert_eq!(
                            bfs[j].as_ref().unwrap(),
                            &serial_bfs[&src],
                            "msBFS {}",
                            ctx(j)
                        );
                        assert_eq!(
                            ppr[j].as_ref().unwrap(),
                            &serial_ppr[&src],
                            "ppr {}",
                            ctx(j)
                        );
                        assert_eq!(
                            sssp[j].as_ref().unwrap(),
                            &serial_sssp[&src],
                            "sssp {}",
                            ctx(j)
                        );
                    }
                }
            }
        }
    }
    ops::set_kernel_mode(saved_mode);
    galois_rt::set_threads(saved_threads);
}

#[test]
fn pagerank_variants_agree() {
    prop::check("pagerank_variants_agree", prop::cases(CASES), arb_graph, |g| {
        let gt = graph_api_study::graph::transform::transpose(g);
        let deg: Vec<u32> = (0..g.num_nodes() as u32).map(|v| g.out_degree(v) as u32).collect();
        let ls = lonestar::pagerank::pagerank(&gt, &deg, 10);
        let gb = lagraph::pagerank::pagerank(&gt, &deg, 10, GaloisRuntime).unwrap();
        for (a, b) in ls.iter().zip(gb.iter()) {
            prop_assert!((a - b).abs() < 1e-10, "pr mismatch: {} vs {}", a, b);
        }
        Ok(())
    });
}

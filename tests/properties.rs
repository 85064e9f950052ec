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

/// Dense brute-force oracle for the serial references on a symmetric
/// graph: triangles by a triple loop over the adjacency matrix, and the
/// k-truss's directed edge count by recomputing every edge's support
/// until a sweep removes nothing.
fn dense_tc_and_truss(s: &CsrGraph, k: u32) -> (u64, usize) {
    let n = s.num_nodes();
    let mut adj = vec![vec![false; n]; n];
    for v in 0..n as u32 {
        for u in s.neighbors(v) {
            adj[v as usize][u as usize] = true;
        }
    }
    let mut tc = 0u64;
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                tc += u64::from(adj[a][b] && adj[a][c] && adj[b][c]);
            }
        }
    }
    loop {
        let support = |a: usize, b: usize| (0..n).filter(|&c| adj[a][c] && adj[b][c]).count();
        let doomed: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| adj[a][b] && support(a, b) < (k - 2) as usize)
            .collect();
        if doomed.is_empty() {
            break;
        }
        for (a, b) in doomed {
            adj[a][b] = false;
        }
    }
    (tc, adj.iter().flatten().filter(|&&e| e).count())
}

fn check_references_against_oracle(s: &CsrGraph, k: u32) -> Result<(), String> {
    let (tc, truss) = dense_tc_and_truss(s, k);
    prop_assert_eq!(reference::triangles(s), tc);
    prop_assert_eq!(reference::ktruss_edges(s, k), truss);
    Ok(())
}

#[test]
fn references_match_dense_oracle() {
    prop::check(
        "references_match_dense_oracle",
        prop::cases(4 * CASES),
        |g| (arb_graph(g), g.gen_range(3u32..9)),
        |(g, k)| check_references_against_oracle(&symmetrize(g), *k),
    );
}

#[test]
fn references_match_dense_oracle_on_fixed_shapes() {
    use graph_api_study::graph::builder::from_edges;
    let clique = |lo: u32, hi: u32| (lo..hi).flat_map(move |a| (a + 1..hi).map(move |b| (a, b)));
    // A strip of triangles (i, i+1, i+2): at k = 4 only its two ends
    // lack support, so peeling advances one triangle per wave.
    let strip = (0..40u32)
        .flat_map(|i| [(i, i + 1), (i, i + 2)])
        .filter(|&(_, b)| b < 40);
    let shapes: Vec<(&str, CsrGraph)> = vec![
        ("empty", from_edges(0, [])),
        ("isolated vertices", from_edges(7, [])),
        ("star", from_edges(12, (1..12).map(|leaf| (0, leaf)))),
        (
            "two cliques sharing an edge",
            from_edges(8, clique(0, 5).chain(clique(3, 8))),
        ),
        ("triangle strip", from_edges(40, strip)),
    ];
    for (name, g) in &shapes {
        let s = symmetrize(g);
        for k in 3..=8 {
            check_references_against_oracle(&s, k).unwrap_or_else(|e| panic!("{name}, k={k}: {e}"));
        }
    }
    for k in 3..=8u32 {
        // K_k survives its own k-truss; the pendant edge does not.
        let s = symmetrize(&from_edges(k as usize + 1, clique(0, k).chain([(0, k)])));
        check_references_against_oracle(&s, k).unwrap_or_else(|e| panic!("K_{k} + pendant: {e}"));
        assert_eq!(
            reference::ktruss_edges(&s, k),
            (k * (k - 1)) as usize,
            "K_{k} + pendant"
        );
    }
}

/// Batched bfs queries: for every batch width k in {1, 4, 17}, on every
/// study-graph shape, query j of `bfs_each` is **bit-identical** to the
/// serial single-source run from source j — under the cost model and the
/// paper's push-dense kernel, at 1/2/8 threads. Sharing one matrix (and
/// its lazily built transpose) across the queries must not change a
/// query's levels or round count.
#[test]
fn batched_columns_are_bit_identical_to_serial() {
    use graph_api_study::galois_rt;
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::graphblas::ops::{with_policy, Policy};
    use graph_api_study::perfmon::trace::KernelChoice;
    use graph_api_study::study_core::{batch_sources, PreparedGraph};
    use std::collections::HashMap;

    let saved_threads = galois_rt::threads();
    for which in [
        StudyGraph::Rmat22,
        StudyGraph::RoadUsaW,
        StudyGraph::Indochina04,
    ] {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 256.0));
        for kernel in [None, Some(KernelChoice::PushDense)] {
            let policy = Policy {
                kernel,
                budget: None,
            };
            // Serial answers per source, computed once per (graph, kernel):
            // thread count cannot change them (the determinism suite pins
            // that), so every thread sweep compares against the same bits.
            let mut serial_bfs = HashMap::new();
            for k in [1usize, 4, 17] {
                let sources = batch_sources(&p, k);
                for &src in &sources {
                    serial_bfs.entry(src).or_insert_with(|| {
                        with_policy(policy, || lagraph::bfs::bfs(&p.graph, src, GaloisRuntime))
                            .unwrap()
                    });
                }
                for threads in [1usize, 2, 8] {
                    galois_rt::set_threads(threads);
                    let ctx = |j: usize| {
                        format!("{which:?} k={k} kernel={kernel:?} threads={threads} column {j}")
                    };
                    let bfs = with_policy(policy, || {
                        lagraph::bfs::bfs_each(&p.graph, &sources, GaloisRuntime)
                    });
                    for (j, &src) in sources.iter().enumerate() {
                        assert_eq!(
                            bfs[j].as_ref().unwrap(),
                            &serial_bfs[&src],
                            "msBFS {}",
                            ctx(j)
                        );
                    }
                }
            }
        }
    }
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

/// One accumulated-write case: operands, the output's old contents (dense
/// or sparse), and a mask (with explicit zeros) under every descriptor
/// flag the write-back reads.
#[derive(Debug)]
struct AccumCase {
    a: graph_api_study::graphblas::Matrix<u64>,
    u: graph_api_study::graphblas::Vector<u64>,
    v: graph_api_study::graphblas::Vector<u64>,
    w_old: graph_api_study::graphblas::Vector<u64>,
    mask: Option<graph_api_study::graphblas::Vector<u64>>,
    structural: bool,
    complement: bool,
    replace: bool,
    value: u64,
}

const ACCUM_N: usize = 24;

fn arb_accum_vector(g: &mut Gen, lo: u64) -> graph_api_study::graphblas::Vector<u64> {
    let mut m = std::collections::BTreeMap::new();
    for _ in 0..g.gen_range(0..ACCUM_N) {
        m.insert(g.gen_range(0u32..ACCUM_N as u32), g.gen_range(lo..50));
    }
    let mut v = graph_api_study::graphblas::Vector::from_entries(ACCUM_N, m.into_iter().collect())
        .expect("unique, in-range");
    if g.gen_bool(0.5) {
        v.to_dense();
    }
    v
}

fn arb_accum_case(g: &mut Gen) -> AccumCase {
    let tuples = g.vec(0..80, |g| {
        (
            g.gen_range(0u32..ACCUM_N as u32),
            g.gen_range(0u32..ACCUM_N as u32),
            g.gen_range(1u64..50),
        )
    });
    AccumCase {
        a: graph_api_study::graphblas::Matrix::from_tuples(
            ACCUM_N,
            ACCUM_N,
            tuples,
            graph_api_study::graphblas::binops::Plus,
        )
        .expect("in-range tuples"),
        u: arb_accum_vector(g, 1),
        v: arb_accum_vector(g, 1),
        w_old: arb_accum_vector(g, 1),
        mask: g.gen_bool(0.7).then(|| arb_accum_vector(g, 0)),
        structural: g.gen_bool(0.5),
        complement: g.gen_bool(0.5),
        replace: g.gen_bool(0.5),
        value: g.gen_range(1u64..50),
    }
}

/// One op writing its result into `w`, plainly (`None`) or accumulated.
type AccumWrite<'a, B> = dyn Fn(
        &mut graph_api_study::graphblas::Vector<u64>,
        Option<B>,
    ) -> Result<(), graph_api_study::graphblas::GrbError>
    + 'a;

/// Checks every accumulating op of one case under accumulator `op` and
/// runtime `rt`: `Accum(&mut w, op)` must equal the op written into a
/// fresh `t`, then `ewise_add(w_old, op, t)` — with `w_old` first cut to
/// the mask under `replace` — bit for bit, and must keep `w`'s storage.
fn check_accumulated_writes<B, R>(c: &AccumCase, op: B, rt: R) -> Result<(), String>
where
    B: graph_api_study::graphblas::binops::BinOp<u64> + std::fmt::Debug,
    R: graph_api_study::graphblas::Runtime,
{
    use graph_api_study::graphblas::binops::{MinPlus, PlusTimes, Times};
    use graph_api_study::graphblas::ops::{with_policy, Policy};
    use graph_api_study::graphblas::{ops, Accum, Descriptor, Vector};
    use graph_api_study::perfmon::trace::KernelChoice;

    let mask = c.mask.as_ref();
    let admits = |i: u32| match (mask, mask.and_then(|m| m.get(i))) {
        (None, _) => true,
        (Some(_), Some(x)) => (c.structural || x != 0) != c.complement,
        (Some(_), None) => c.complement,
    };
    // Every op writes `t` into a fresh vector and `w` into a copy of
    // `w_old`; only masked ops see the mask and `replace`.
    let check = |what: &str, masked: bool, run: &AccumWrite<'_, B>| -> Result<(), String> {
        let mut t = Vector::new(ACCUM_N);
        run(&mut t, None).map_err(|e| e.to_string())?;
        let cut = masked && c.replace;
        let kept: Vec<(u32, u64)> = c.w_old.iter().filter(|&(i, _)| !cut || admits(i)).collect();
        let kept = Vector::from_entries(ACCUM_N, kept).expect("subset of w_old");
        let mut expected = Vector::new(ACCUM_N);
        ops::ewise_add(&mut expected, op, &kept, &t, rt).expect("conforming sizes");
        let mut w = c.w_old.clone();
        run(&mut w, Some(op)).map_err(|e| e.to_string())?;
        prop_assert_eq!(
            w.entries(),
            expected.entries(),
            "{} under {:?} on {}",
            what,
            op,
            R::NAME
        );
        prop_assert_eq!(
            w.is_dense_store(),
            c.w_old.is_dense_store(),
            "{} changed w's storage",
            what
        );
        Ok(())
    };
    let desc = Descriptor::new()
        .with_replace(c.replace)
        .with_mask_structural(c.structural)
        .with_mask_complement(c.complement);
    for kernel in [
        None,
        Some(KernelChoice::PushSparse),
        Some(KernelChoice::PushDense),
    ] {
        let policy = Policy {
            kernel,
            budget: None,
        };
        check(&format!("vxm {kernel:?}"), true, &|w, accum| {
            with_policy(policy, || match accum {
                Some(op) => ops::vxm(Accum(w, op), mask, MinPlus, &c.u, &c.a, &desc, rt),
                None => ops::vxm(w, mask, MinPlus, &c.u, &c.a, &desc, rt),
            })
        })?;
    }
    check("mxv", true, &|w, accum| match accum {
        Some(op) => ops::mxv(Accum(w, op), mask, PlusTimes, &c.a, &c.u, &desc, rt),
        None => ops::mxv(w, mask, PlusTimes, &c.a, &c.u, &desc, rt),
    })?;
    check("assign_scalar", true, &|w, accum| match accum {
        Some(op) => ops::assign_scalar(Accum(w, op), mask, c.value, &desc, rt),
        None => ops::assign_scalar(w, mask, c.value, &desc, rt),
    })?;
    let f = |x: u64| x * 3 + 1;
    check("apply", false, &|w, accum| match accum {
        Some(op) => ops::apply(Accum(w, op), &c.u, f, rt),
        None => ops::apply(w, &c.u, f, rt),
    })?;
    check("ewise_add", false, &|w, accum| match accum {
        Some(op) => ops::ewise_add(Accum(w, op), Times, &c.u, &c.v, rt),
        None => ops::ewise_add(w, Times, &c.u, &c.v, rt),
    })?;
    check("ewise_mult", false, &|w, accum| match accum {
        Some(op) => ops::ewise_mult(Accum(w, op), Times, &c.u, &c.v, rt),
        None => ops::ewise_mult(w, Times, &c.u, &c.v, rt),
    })
}

/// The output accumulator's contract, for every op that honours it
/// (`vxm` under each forced kernel and the cost model, `mxv`,
/// `assign_scalar`, `apply`, `ewise_add`, `ewise_mult`), dense and
/// sparse outputs, no / valued /
/// structural / complemented masks, `replace` on and off, both runtimes,
/// and a commutative, an idempotent and a non-commutative accumulator.
#[test]
fn accumulated_writes_equal_op_then_ewise_add() {
    use graph_api_study::graphblas::binops::{Min, Plus, Second};
    prop::check(
        "accumulated_writes_equal_op_then_ewise_add",
        prop::cases(CASES),
        arb_accum_case,
        |c| {
            check_accumulated_writes(c, Min, GaloisRuntime)?;
            check_accumulated_writes(c, Plus, StaticRuntime)?;
            check_accumulated_writes(c, Second, GaloisRuntime)?;
            check_accumulated_writes(c, Second, StaticRuntime)
        },
    );
}

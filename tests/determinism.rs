//! Determinism guarantees of the hermetic substrate.
//!
//! Two families of checks:
//!
//! 1. Every synthetic generator is a pure function of its seed — two calls
//!    with the same seed produce bit-identical graphs (offsets, dests and
//!    weights), and different seeds produce different graphs.
//! 2. The study's conclusions depend on comparing systems, so algorithm
//!    *results* must not depend on the thread count: bfs, cc and pagerank
//!    produce identical output on 1, 2 and the default number of threads,
//!    on both the Lonestar and the GaloisBLAS paths. Matrix-API pr is
//!    held to more: bit-identical across threads × runtimes × cold and
//!    warm workspace pools, on the pull kernel a traced run pins.
//! 3. Traces are deterministic: two traced runs at the same seed and
//!    thread count produce identical event streams once the
//!    scheduling-perturbed fields (timings, steals, bucket visits) are
//!    stripped — the invariant every gate on traced counters (the
//!    repo benchmark's exactly-repeating per-layer counts included)
//!    relies on. On more than one thread an asynchronous work-list
//!    loop's iteration count depends on the schedule, so there it
//!    repeats only its kind, and is held to equal output and at least
//!    one iteration per settled vertex instead.
//! 4. The batched query engine degrades exactly to the serial engine: a
//!    width-1 batch emits a trace whose fingerprint equals the serial
//!    run's, and at width 8 msBFS issues strictly fewer matrix-product
//!    spans than eight serial runs while returning bit-identical levels.
//! 5. Streaming ingestion is replayable: absorbing the identical update
//!    stream twice yields fingerprint-identical apply/compact traces and
//!    bit-identical compacted snapshots, and re-grouping the same ops into
//!    different batch partitions never changes the compacted graph or the
//!    answers solved on it.

mod common;

use common::update_stream;
use graph_api_study::galois_rt;
use graph_api_study::graph::gen::{
    community, erdos_renyi, grid_road, preferential_attachment, rmat, web_crawl, RmatParams,
};
use graph_api_study::graph::transform::{sort_by_degree, symmetrize, transpose};
use graph_api_study::graph::{CsrGraph, EdgeBatch};
use graph_api_study::graphblas::{workspace, GaloisRuntime, Runtime, StaticRuntime};
use graph_api_study::{lagraph, lonestar};

type SeededBuild = Box<dyn Fn(u64) -> CsrGraph>;

#[test]
fn every_generator_is_bit_identical_for_equal_seeds() {
    let builds: Vec<(&str, SeededBuild)> = vec![
        ("rmat", Box::new(|s| rmat(9, 8, RmatParams::default(), s))),
        ("grid_road", Box::new(|s| grid_road(20, 15, s))),
        (
            "preferential_attachment",
            Box::new(|s| preferential_attachment(600, 4, true, s)),
        ),
        ("web_crawl", Box::new(|s| web_crawl(12, 40, s))),
        ("community", Box::new(|s| community(400, 20, s))),
        ("erdos_renyi", Box::new(|s| erdos_renyi(300, 2000, s))),
    ];
    for (name, build) in &builds {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = build(seed);
            let b = build(seed);
            assert_eq!(a, b, "{name} must be deterministic for seed {seed}");
        }
        assert_ne!(
            build(1),
            build(2),
            "{name} must actually consume its seed"
        );
    }
}

/// 64-bit FNV-1a over a graph's CSR bytes: offsets (as `u64`), dests,
/// then weights when present, all little-endian.
fn csr_digest(g: &CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &o in g.offsets() {
        eat(&(o as u64).to_le_bytes());
    }
    for &d in g.dests() {
        eat(&d.to_le_bytes());
    }
    for &w in g.weights().unwrap_or(&[]) {
        eat(&w.to_le_bytes());
    }
    h
}

/// The graph each generator makes, and the symmetric and degree-sorted
/// views prepare derives from it, are the same bytes in every version of
/// this crate: the digests below were recorded when the views were still
/// built by comparison sorts. A change that makes set-up faster must leave
/// them alone; a change that means to alter a graph updates them and says
/// why.
#[test]
fn generators_and_prepared_views_match_recorded_digests() {
    // generator seed: digests of the graph, its symmetric view and the
    // degree-sorted symmetric view
    const EXPECTED: &str = "\
rmat 1: 3d5d568bff68c352 88c9f2ae0b0a08c0 f35b79dffe646294
rmat 42: 1299864da80b0b61 a69da7796c888e20 4c4002ba130109d2
grid_road 1: 7531bdc3540ab12d 7531bdc3540ab12d cc12d25b8b5f215f
grid_road 42: e9c5a297de3332c8 e9c5a297de3332c8 39759d5ebb9fa1f3
preferential_attachment 1: 1a15407204d01d3a 54cc4249f84ee8cb d07d3ef2227469c3
preferential_attachment 42: 331923f6674847a5 c197532543d49838 79ef9d3be56a1b36
web_crawl 1: 619217b34031992f f9e02ebc0e7940dc 711c893e7723ef63
web_crawl 42: 6511dfe4fb0350d2 98858b6dd4152567 0a8ab86698b370fa
community 1: 4426e667ca3d6912 4426e667ca3d6912 2454d40af53c3cd3
community 42: 7d2d649027da3264 7d2d649027da3264 71aee16d7fe14838
erdos_renyi 1: 87950114bc644918 05c05d3bf0c66ff7 8d21a5d441946b26
erdos_renyi 42: 6742b450cb266343 236a20de243bee81 b8c70b1e39769392
";
    let builds: Vec<(&str, SeededBuild)> = vec![
        ("rmat", Box::new(|s| rmat(9, 8, RmatParams::default(), s))),
        // 40 x 30 cells: large enough for one random shortcut.
        ("grid_road", Box::new(|s| grid_road(40, 30, s))),
        (
            "preferential_attachment",
            Box::new(|s| preferential_attachment(600, 4, true, s)),
        ),
        ("web_crawl", Box::new(|s| web_crawl(12, 40, s))),
        ("community", Box::new(|s| community(400, 20, s))),
        ("erdos_renyi", Box::new(|s| erdos_renyi(300, 2000, s))),
    ];
    let mut actual = String::new();
    for (name, build) in &builds {
        for seed in [1, 42] {
            let g = build(seed);
            let s = symmetrize(&g);
            let (sorted, _) = sort_by_degree(&s);
            let [g, s, sorted] = [g, s, sorted].map(|v| csr_digest(&v));
            actual += &format!("{name} {seed}: {g:016x} {s:016x} {sorted:016x}\n");
        }
    }
    assert_eq!(actual, EXPECTED, "CSR bytes changed");
}

/// Tests that reconfigure the global pool, record a trace, or run jobs
/// whose spans a concurrent trace would pick up must not interleave.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` once per thread configuration and asserts all results agree.
fn across_thread_counts<T: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn() -> T,
) -> T {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = galois_rt::threads();
    let counts = [1usize, 2, saved.max(2)];
    let mut results = Vec::with_capacity(counts.len());
    for &t in &counts {
        galois_rt::set_threads(t);
        results.push((t, f()));
    }
    galois_rt::set_threads(saved);
    let (_, baseline) = results.remove(0);
    for (t, r) in results {
        assert_eq!(r, baseline, "{what} differs between 1 and {t} threads");
    }
    baseline
}

#[test]
fn algorithm_results_do_not_depend_on_thread_count() {
    let g = rmat(9, 8, RmatParams::default(), 7);
    let s = symmetrize(&g);
    let gt = transpose(&g);
    let deg: Vec<u32> = (0..g.num_nodes() as u32)
        .map(|v| g.out_degree(v) as u32)
        .collect();

    // Lonestar path.
    across_thread_counts("lonestar bfs levels", || lonestar::bfs::bfs(&g, 0).level);
    across_thread_counts("lonestar afforest components", || {
        lonestar::cc::afforest(&s, 2).component
    });
    across_thread_counts("lonestar shiloach-vishkin components", || {
        lonestar::cc::shiloach_vishkin(&s).component
    });
    let pr = across_thread_counts("lonestar pagerank scores", || {
        lonestar::pagerank::pagerank(&gt, &deg, 10)
    });
    assert!(pr.iter().all(|x| x.is_finite()));

    // GaloisBLAS path.
    across_thread_counts("lagraph bfs levels", || {
        lagraph::bfs::bfs(&g, 0, GaloisRuntime).unwrap().level
    });
    across_thread_counts("lagraph components", || {
        lagraph::cc::connected_components(&s, GaloisRuntime)
            .unwrap()
            .component
    });
    across_thread_counts("lagraph pagerank scores", || {
        lagraph::pagerank::pagerank(&gt, &deg, 10, GaloisRuntime).unwrap()
    });
}

/// Both matrix-API pr formulations on one backend: `[pr-gb, pr-gb-res]`.
fn matrix_api_pr<R: Runtime>(gt: &CsrGraph, deg: &[u32], rt: R) -> [Vec<f64>; 2] {
    [
        lagraph::pagerank::pagerank(gt, deg, 10, rt).unwrap(),
        lagraph::pagerank::pagerank_residual(gt, deg, 10, rt).unwrap(),
    ]
}

/// Matrix-API pr pulls over the prepared transpose: one writer per row
/// and a fixed in-row fold order, so both formulations are bit-identical
/// (not merely close) across thread counts, runtimes and a cold or warm
/// workspace pool.
#[test]
fn matrix_api_pagerank_is_bit_identical_across_threads_runtimes_and_pools() {
    let g = rmat(9, 8, RmatParams::default(), 7);
    let gt = transpose(&g);
    let deg: Vec<u32> = (0..g.num_nodes() as u32)
        .map(|v| g.out_degree(v) as u32)
        .collect();

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_threads = galois_rt::threads();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        galois_rt::set_threads(threads);
        for pool in ["cold", "warm"] {
            if pool == "cold" {
                workspace::global().clear();
            }
            let ss = matrix_api_pr(&gt, &deg, StaticRuntime);
            let gb = matrix_api_pr(&gt, &deg, GaloisRuntime);
            runs.push((format!("SS {threads}t {pool}"), ss));
            runs.push((format!("GB {threads}t {pool}"), gb));
        }
    }
    galois_rt::set_threads(saved_threads);
    let (base, expected) = &runs[0];
    for (what, got) in &runs[1..] {
        assert_eq!(got, expected, "[pr-gb, pr-gb-res]: {what} differs from {base}");
    }
}

/// Pins the kernel pr runs: every round's product is an `mxv` resolved to
/// the pull kernel over the `AT` handed in, on both backends — no `vxm`,
/// four API calls per round, and no transpose built inside the solve.
#[test]
fn traced_pagerank_pulls_over_the_prepared_transpose() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::graphblas::workspace::transpose_bytes_built;
    use graph_api_study::perfmon::trace::{KernelChoice, OpKind};
    use graph_api_study::study_core::{traced_run, PreparedGraph, Problem, System};

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    let iters = u64::from(p.pr_iters);
    for system in [System::SuiteSparse, System::GaloisBlas] {
        let built_before = transpose_bytes_built();
        let t = traced_run(system, Problem::Pr, &p).trace;
        assert_eq!(
            transpose_bytes_built(),
            built_before,
            "{system}: pr must not build a transpose inside the solve"
        );
        assert_eq!(t.count_ops(OpKind::Vxm), 0, "{system}: pr issues no vxm");
        assert_eq!(t.count_ops(OpKind::Mxv), iters, "{system}: one mxv per round");
        assert!(
            t.ops()
                .filter(|s| s.kind == OpKind::Mxv)
                .all(|s| s.kernel == KernelChoice::Pull),
            "{system}: every product must resolve to the pull kernel"
        );
        assert_eq!(t.ops().count() as u64, 4 * iters, "{system}: four calls per round");
    }
}

#[test]
fn traces_are_deterministic_across_repeated_runs() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::{Event, LoopKind, Trace};
    use graph_api_study::study_core::{traced_run, PreparedGraph, Problem, ProblemOutput, System};

    // An asynchronous work-list loop re-relaxes as often as the order in
    // which updates land makes it, so on more than one thread only its
    // kind repeats; bulk-synchronous loops and GraphBLAS calls repeat in
    // full at any thread count.
    let is_async = |kind: LoopKind| matches!(kind, LoopKind::ForEach | LoopKind::ForEachOrdered);
    let multi_threaded = galois_rt::threads() > 1;
    let repeatable = |t: &Trace| -> Vec<String> {
        t.fingerprint()
            .into_iter()
            .zip(&t.events)
            .map(|(line, e)| match e {
                Event::Loop(s) if multi_threaded && is_async(s.kind) => {
                    format!("loop {}", s.kind.name())
                }
                _ => line,
            })
            .collect()
    };
    // What does hold for an async loop: every settled vertex was
    // processed at least once.
    let settled = |out: &ProblemOutput| match out {
        ProblemOutput::Levels(l) => l.iter().filter(|&&x| x != 0).count() as u64,
        ProblemOutput::Dists(d) => d.iter().filter(|&&x| x != u64::MAX).count() as u64,
        _ => 0,
    };
    let async_iterations = |t: &Trace| {
        t.loops()
            .filter(|s| is_async(s.kind))
            .map(|s| s.iterations)
            .reduce(|a, b| a + b)
    };

    // Tracing state is process-global, so serialize against the other
    // pool-reconfiguring tests. Graph preparation happens outside the
    // traced region.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    for system in System::all() {
        for problem in [Problem::Bfs, Problem::Cc, Problem::Sssp] {
            let a = traced_run(system, problem, &p);
            let b = traced_run(system, problem, &p);
            assert_eq!(a.output, b.output, "{system} {problem} output");
            assert_eq!(
                repeatable(&a.trace),
                repeatable(&b.trace),
                "{system} {problem}: trace fingerprints differ between runs"
            );
            for run in [&a, &b] {
                if let Some(iterations) = async_iterations(&run.trace) {
                    let settled = settled(&run.output);
                    assert!(
                        iterations >= settled,
                        "{system} {problem}: {iterations} async iterations for {settled} settled vertices"
                    );
                }
            }
            assert_eq!(a.trace.dropped, 0, "{system} {problem} dropped events");
        }
    }
}

/// A width-1 batch is the serial engine, down to the trace: the same
/// call sequence runs through the same kernels, so the fingerprints
/// (which keep every structural span field) must be equal, not merely
/// the outputs.
#[test]
fn width_one_batched_traces_match_serial() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::with_trace;
    use graph_api_study::study_core::PreparedGraph;

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    let src = p.source;

    let (serial, serial_trace) =
        with_trace(|| lagraph::bfs::bfs(&p.graph, src, GaloisRuntime).unwrap());
    let (batched, batched_trace) =
        with_trace(|| lagraph::batch::batched_bfs(&p.graph, &[src], GaloisRuntime));
    assert_eq!(batched[0].as_ref().unwrap(), &serial, "bfs k=1 output");
    assert_eq!(
        batched_trace.fingerprint(),
        serial_trace.fingerprint(),
        "bfs: width-1 batched trace must be fingerprint-identical to serial"
    );
}

/// The point of msBFS: at width 8 the levelized sweep advances all live
/// frontiers through ONE product span per round, so the batch issues
/// strictly fewer vxm/mxm spans than the eight serial runs it replaces —
/// while every column stays bit-identical to the serial run from its
/// source (amortization must never buy speed with accuracy).
#[test]
fn batched_msbfs_amortizes_product_spans_at_width_eight() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::{with_trace, OpKind};
    use graph_api_study::study_core::{batch_sources, PreparedGraph};

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    let sources = batch_sources(&p, 8);
    assert_eq!(sources.len(), 8);

    let mut serial_products = 0u64;
    let mut serial_results = Vec::new();
    for &src in &sources {
        let (r, t) = with_trace(|| lagraph::bfs::bfs(&p.graph, src, GaloisRuntime).unwrap());
        serial_products += t.summary().product_rounds;
        serial_results.push(r);
    }

    let (batched, trace) =
        with_trace(|| lagraph::batch::batched_bfs(&p.graph, &sources, GaloisRuntime));
    let batched_products = trace.summary().product_rounds;

    for (j, r) in batched.iter().enumerate() {
        assert_eq!(
            r.as_ref().unwrap(),
            &serial_results[j],
            "msBFS column {j} must be bit-identical to the serial run"
        );
    }
    assert!(
        batched_products < serial_products,
        "msBFS at k=8 must issue fewer product spans than 8 serial runs \
         (batched {batched_products} vs serial {serial_products})"
    );
    // The amortized rounds surface as mxm spans (>=2 live lanes per
    // round); the tail where one lane is left alive degrades to vxm.
    assert!(
        trace.count_ops(OpKind::Mxm) > 0,
        "k=8 msBFS should aggregate live lanes into mxm spans"
    );
}

/// Streaming replay: absorbing the identical update stream twice yields
/// fingerprint-identical traces (apply and compact spans carry their
/// structural fields into the fingerprint) and bit-identical compacted
/// snapshots.
#[test]
fn ingest_replay_is_fingerprint_identical() {
    use graph_api_study::graph::{DeltaGraph, Scale, StudyGraph};
    use graph_api_study::perfmon::trace::{with_trace, DeltaKind};
    use graph_api_study::study_core::PreparedGraph;

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let updates = update_stream(&p.graph, 3, 12, 21);
    let absorb = || {
        with_trace(|| {
            // Threshold 2: the third batch auto-compacts, the final
            // compact folds what is left.
            let mut delta = DeltaGraph::with_threshold(p.graph.clone(), 2);
            for batch in &updates {
                delta.apply(batch).expect("a generated batch applies");
            }
            delta.compact().expect("no fault plan");
            (delta.snapshot().clone(), delta.compactions())
        })
    };
    let ((snapshot_a, compactions_a), trace_a) = absorb();
    let ((snapshot_b, compactions_b), trace_b) = absorb();
    assert_eq!(snapshot_a, snapshot_b, "compacted snapshot");
    assert_eq!(compactions_a, compactions_b, "compactions");
    assert_eq!(compactions_a, 2, "one auto and one final compaction");
    let kinds: Vec<DeltaKind> = trace_a.deltas().map(|d| d.kind).collect();
    assert_eq!(
        kinds.iter().filter(|&&k| k == DeltaKind::Apply).count(),
        updates.len(),
        "one apply span per batch: {kinds:?}"
    );
    assert_eq!(trace_a.summary().compactions, 2, "{kinds:?}");
    assert_eq!(
        trace_a.fingerprint(),
        trace_b.fingerprint(),
        "streaming trace fingerprints differ between runs"
    );
}

/// Batch-partition invariance: one update stream split into different
/// batch groupings (one 24-op batch vs 24 single-op batches) compacts to
/// the identical snapshot, and every system solves bfs and cc on it to
/// the same answer — layering granularity must never leak into results.
#[test]
fn update_batch_grouping_does_not_change_results() {
    use graph_api_study::graph::{DeltaGraph, Scale, StudyGraph};
    use graph_api_study::study_core::verify::verify;
    use graph_api_study::study_core::{try_run, PreparedGraph, Problem, System};

    // Untraced here, but tracing is process-global: without the lock
    // these jobs' spans land in whichever traced test is running.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let coarse = update_stream(&p.graph, 1, 24, 33);
    let singles: Vec<EdgeBatch> = coarse[0]
        .ops()
        .iter()
        .map(|&op| {
            let mut b = EdgeBatch::new();
            b.push(op);
            b
        })
        .collect();
    assert_eq!(singles.len(), 24);

    let compacted = |batches: &[EdgeBatch]| {
        let mut delta = DeltaGraph::with_threshold(p.graph.clone(), 0);
        for batch in batches {
            delta.apply(batch).expect("a generated batch applies");
        }
        delta.compact().expect("no fault plan");
        PreparedGraph::from_graph(
            p.name.clone(),
            delta.snapshot().clone(),
            p.source,
            p.ktruss_k,
            p.sssp_delta,
        )
    };
    let one = compacted(&coarse);
    let many = compacted(&singles);
    assert_eq!(
        one.graph, many.graph,
        "groupings must compact to the same snapshot"
    );
    assert_ne!(one.graph, p.graph, "the stream changed the graph");

    for system in System::all() {
        for problem in [Problem::Bfs, Problem::Cc] {
            let a = try_run(system, problem, &one)
                .unwrap_or_else(|e| panic!("{system} {problem} coarse: {e}"));
            let b = try_run(system, problem, &many)
                .unwrap_or_else(|e| panic!("{system} {problem} singles: {e}"));
            verify(&one, problem, &a).unwrap_or_else(|e| panic!("{system} {problem}: {e}"));
            assert_eq!(
                a, b,
                "{system} {problem}: answers must be grouping-independent"
            );
        }
    }
}

#[test]
fn generation_is_thread_count_independent() {
    // Generators are serial, but run them under different ambient pool
    // configurations to pin that down.
    let reference = rmat(8, 8, RmatParams::default(), 3);
    let got = across_thread_counts("rmat generation", || {
        rmat(8, 8, RmatParams::default(), 3)
    });
    assert_eq!(got, reference);
}

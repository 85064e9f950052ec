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
//!    held to more: bit-identical across threads × runtimes × workspace
//!    modes, on the pull kernel a traced run pins.
//! 3. Traces are deterministic: two traced runs at the same seed and
//!    thread count produce identical event streams once the
//!    scheduling-perturbed fields (timings, steals, bucket visits) are
//!    stripped — the invariant every gate on traced counters (the
//!    repo benchmark's exactly-repeating per-layer counts included)
//!    relies on.
//! 4. The batched query engine degrades exactly to the serial engine: a
//!    width-1 batch emits a trace whose fingerprint equals the serial
//!    run's, and at width 8 msBFS issues strictly fewer matrix-product
//!    spans than eight serial runs while returning bit-identical levels.
//! 5. Streaming ingestion is replayable: absorbing the identical update
//!    stream twice yields fingerprint-identical traces and bit-identical
//!    compacted snapshots, and re-grouping the same ops into different
//!    batch partitions never changes the compacted graph or the repaired
//!    answers.

use graph_api_study::galois_rt;
use graph_api_study::graph::gen::{
    community, erdos_renyi, grid_road, preferential_attachment, rmat, web_crawl, RmatParams,
};
use graph_api_study::graph::transform::{sort_by_degree, symmetrize, transpose};
use graph_api_study::graph::CsrGraph;
use graph_api_study::graphblas::{
    set_workspace_mode, workspace_mode, GaloisRuntime, Runtime, StaticRuntime, WorkspaceMode,
};
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

/// Restores the process-wide workspace mode on drop, so a failed
/// assertion cannot leave it pinned for the rest of the binary.
struct WorkspacePin(WorkspaceMode);

impl Drop for WorkspacePin {
    fn drop(&mut self) {
        set_workspace_mode(self.0);
    }
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
/// (not merely close) across thread counts, runtimes and workspace modes.
/// `ppr` is not held to this: it scatters along out-edges, its fold order
/// follows the schedule, and its checks stay at the tolerance they state.
#[test]
fn matrix_api_pagerank_is_bit_identical_across_threads_runtimes_and_workspace_modes() {
    let g = rmat(9, 8, RmatParams::default(), 7);
    let gt = transpose(&g);
    let deg: Vec<u32> = (0..g.num_nodes() as u32)
        .map(|v| g.out_degree(v) as u32)
        .collect();

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_threads = galois_rt::threads();
    let _pin = WorkspacePin(workspace_mode());
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        galois_rt::set_threads(threads);
        for mode in [WorkspaceMode::Off, WorkspaceMode::On] {
            set_workspace_mode(mode);
            let ss = matrix_api_pr(&gt, &deg, StaticRuntime);
            let gb = matrix_api_pr(&gt, &deg, GaloisRuntime);
            runs.push((format!("SS {threads}t {mode:?}"), ss));
            runs.push((format!("GB {threads}t {mode:?}"), gb));
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
    use graph_api_study::study_core::{traced_run, PreparedGraph, Problem, System};

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
                a.trace.fingerprint(),
                b.trace.fingerprint(),
                "{system} {problem}: trace fingerprints differ between runs"
            );
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

    let (serial, serial_trace) =
        with_trace(|| lagraph::pagerank::ppr(&p.graph, src, p.pr_iters, GaloisRuntime).unwrap());
    let (batched, batched_trace) = with_trace(|| {
        lagraph::batch::batched_ppr(&p.graph, &[src], p.pr_iters, GaloisRuntime)
    });
    assert_eq!(batched[0].as_ref().unwrap(), &serial, "ppr k=1 output");
    assert_eq!(
        batched_trace.fingerprint(),
        serial_trace.fingerprint(),
        "ppr: width-1 batched trace must be fingerprint-identical to serial"
    );

    let (serial, serial_trace) =
        with_trace(|| lagraph::sssp::sssp_minplus(&p.graph, src, GaloisRuntime).unwrap());
    let (batched, batched_trace) =
        with_trace(|| lagraph::batch::batched_sssp(&p.graph, &[src], GaloisRuntime));
    assert_eq!(batched[0].as_ref().unwrap(), &serial, "sssp k=1 output");
    assert_eq!(
        batched_trace.fingerprint(),
        serial_trace.fingerprint(),
        "sssp: width-1 batched trace must be fingerprint-identical to serial"
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
/// fingerprint-identical traces (delta spans included — apply, compact
/// and repair events carry their structural fields into the
/// fingerprint) and bit-identical compacted snapshots.
#[test]
fn incremental_replay_is_fingerprint_identical() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::with_trace;
    use graph_api_study::study_core::{
        try_run_incremental, update_batches, IncProblem, PreparedGraph, System,
    };

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let updates = update_batches(&p.graph, 3, 12, 21);
    for system in System::all() {
        for problem in IncProblem::all() {
            let (a, trace_a) =
                with_trace(|| try_run_incremental(system, problem, &p, &updates).unwrap());
            let (b, trace_b) =
                with_trace(|| try_run_incremental(system, problem, &p, &updates).unwrap());
            assert_eq!(a.output, b.output, "{system} {problem} output");
            assert_eq!(a.snapshot, b.snapshot, "{system} {problem} compacted snapshot");
            assert_eq!(a.compactions, b.compactions, "{system} {problem} compactions");
            assert_eq!(
                trace_a.fingerprint(),
                trace_b.fingerprint(),
                "{system} {problem}: streaming trace fingerprints differ between runs"
            );
        }
    }
}

/// Batch-partition invariance: one update stream split into different
/// batch groupings (one 24-op batch vs 24 single-op batches) converges
/// to the identical compacted snapshot and the same repaired answers —
/// layering granularity must never leak into results.
#[test]
fn update_batch_grouping_does_not_change_results() {
    use graph_api_study::graph::{EdgeBatch, Scale, StudyGraph};
    use graph_api_study::study_core::{
        try_run_incremental, update_batches, IncProblem, PreparedGraph, ProblemOutput, System,
    };

    // Untraced here, but tracing is process-global: without the lock
    // these jobs' spans land in whichever traced test is running.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let coarse = update_batches(&p.graph, 1, 24, 33);
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

    for system in System::all() {
        for problem in IncProblem::all() {
            let one = try_run_incremental(system, problem, &p, &coarse)
                .unwrap_or_else(|e| panic!("{system} {problem} coarse: {e}"));
            let many = try_run_incremental(system, problem, &p, &singles)
                .unwrap_or_else(|e| panic!("{system} {problem} singles: {e}"));
            assert_eq!(
                one.snapshot, many.snapshot,
                "{system} {problem}: groupings must compact to the same snapshot"
            );
            match (&one.output, &many.output) {
                (ProblemOutput::Ranks(a), ProblemOutput::Ranks(b)) => {
                    // Both converged to residual 1e-12 on the same final
                    // graph; the grouping only changes the warm starts.
                    for (v, (x, y)) in a.iter().zip(b).enumerate() {
                        assert!(
                            (x - y).abs() <= 1e-9,
                            "{system} {problem} vertex {v}: {x} vs {y}"
                        );
                    }
                }
                (a, b) => assert_eq!(
                    a, b,
                    "{system} {problem}: discrete answers must be grouping-independent"
                ),
            }
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

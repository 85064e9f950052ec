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
//!    held to more: bit-identical across threads × runtimes, on the pull
//!    kernel a traced run pins.
//! 3. Traces are deterministic: two traced runs at the same seed and
//!    thread count produce identical event streams once the
//!    scheduling-perturbed fields (timings, steals, bucket visits) are
//!    stripped — the invariant every gate on traced counters (the
//!    repo benchmark's exactly-repeating per-layer counts included)
//!    relies on. Each op's workspace bytes repeat too: kernels retain
//!    nothing between calls, so a second run sees no state the first
//!    one left behind. On more than one thread an asynchronous work-list
//!    loop's iteration count depends on the schedule, so there it
//!    repeats only its kind, and is held to equal output and at least
//!    one iteration per settled vertex instead.
//! 4. A batch of bfs queries is serial runs over one matrix: a width-1
//!    batch emits a trace whose fingerprint equals the serial run's.
//!    Under the cost model every bfs round's `vxm` pushes, and reaches
//!    the levels of the paper's push-dense scatter.
//! 5. Streaming ingestion is replayable: absorbing the identical update
//!    stream twice yields fingerprint-identical apply/compact traces and
//!    bit-identical compacted snapshots, and re-grouping the same ops into
//!    different batch partitions never changes the compacted graph or the
//!    answers solved on it.
//! 6. A trace and a kernel policy belong to one thread (or job): work
//!    beside them sees neither. Matrix-API checks run under both the
//!    cost model and the paper's push-dense scatter.

mod common;

use common::update_stream;
use graph_api_study::galois_rt;
use graph_api_study::graph::gen::{
    community, erdos_renyi, grid_road, preferential_attachment, rmat, web_crawl, RmatParams,
};
use graph_api_study::graph::transform::{sort_by_degree, symmetrize, transpose};
use graph_api_study::graph::{CsrGraph, EdgeBatch};
use graph_api_study::graphblas::ops::{with_policy, Policy};
use graph_api_study::graphblas::{GaloisRuntime, Runtime, StaticRuntime};
use graph_api_study::perfmon::trace::KernelChoice;
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

/// Guards the pool's thread count: tests that change it, or that compare
/// runs which must see the same count, take this lock.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The cost model, and the paper's fixed push-dense `vxm` scatter.
const POLICIES: [Policy; 2] = [
    Policy { kernel: None, budget: None },
    Policy::forcing(KernelChoice::PushDense),
];

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
    for policy in POLICIES {
        with_policy(policy, || {
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
        });
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
/// (not merely close) across thread counts and runtimes.
#[test]
fn matrix_api_pagerank_is_bit_identical_across_threads_and_runtimes() {
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
        runs.push((format!("SS {threads}t"), matrix_api_pr(&gt, &deg, StaticRuntime)));
        runs.push((format!("GB {threads}t"), matrix_api_pr(&gt, &deg, GaloisRuntime)));
    }
    galois_rt::set_threads(saved_threads);
    let (base, expected) = &runs[0];
    for (what, got) in &runs[1..] {
        assert_eq!(got, expected, "[pr-gb, pr-gb-res]: {what} differs from {base}");
    }
}

/// Pins the kernel pr runs: every round's product is an `mxv`, whose one
/// kernel pulls over the `AT` handed in, on both backends — no `vxm`,
/// and four API calls per round.
#[test]
fn traced_pagerank_pulls_over_the_prepared_transpose() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::OpKind;
    use graph_api_study::study_core::{traced_run, PreparedGraph, Problem, System};

    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    let iters = u64::from(p.pr_iters);
    for system in [System::SuiteSparse, System::GaloisBlas] {
        let t = traced_run(system, Problem::Pr, &p).trace;
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

/// The executor's trace option records what `traced_run` records: no
/// trace unless asked for, then the same op count and output.
#[test]
fn executor_trace_matches_traced_run() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::study_core::{
        execute, traced_run, Job, PreparedGraph, Problem, System, Work,
    };

    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let p = std::sync::Arc::new(p);
    let work = Work::Cell(System::GaloisBlas, Problem::Bfs);
    assert!(execute(&Job::new(work.clone()), &p).trace.is_none());
    for policy in POLICIES {
        let job = Job {
            trace: true,
            policy,
            ..Job::new(work.clone())
        };
        let traced = execute(&job, &p);
        let expected = with_policy(policy, || traced_run(System::GaloisBlas, Problem::Bfs, &p));
        let ops = traced.trace.as_ref().map(|t| t.summary().ops);
        assert!(ops > Some(0));
        assert_eq!(ops, Some(expected.trace.summary().ops), "{policy:?}");
        assert_eq!(traced.lanes[0].value.as_ref(), Some(&expected.output));
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
    // Read the thread count under the lock: outside it, a neighbour's
    // `set_threads(1)` can be in force.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    // The fingerprint strips workspace bytes; compare them on their own.
    let workspace_bytes = |t: &Trace| -> Vec<(u64, u64)> {
        t.ops()
            .map(|s| (s.ws_reused_bytes, s.ws_fresh_bytes))
            .collect()
    };
    let async_iterations = |t: &Trace| {
        t.loops()
            .filter(|s| is_async(s.kind))
            .map(|s| s.iterations)
            .reduce(|a, b| a + b)
    };

    // Graph preparation happens outside the traced region.
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    for (system, policy) in System::all()
        .into_iter()
        .flat_map(|s| POLICIES.map(|p| (s, p)))
    {
        for problem in [Problem::Bfs, Problem::Cc, Problem::Sssp, Problem::Tc] {
            let run = || with_policy(policy, || traced_run(system, problem, &p));
            let (a, b) = (run(), run());
            let system = format!("{system} {:?}", policy.kernel);
            assert_eq!(a.output, b.output, "{system} {problem} output");
            assert_eq!(
                repeatable(&a.trace),
                repeatable(&b.trace),
                "{system} {problem}: trace fingerprints differ between runs"
            );
            assert_eq!(
                workspace_bytes(&a.trace),
                workspace_bytes(&b.trace),
                "{system} {problem}: per-op workspace bytes differ between runs"
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

    for policy in POLICIES {
        let (serial, serial_trace) = with_policy(policy, || {
            with_trace(|| lagraph::bfs::bfs(&p.graph, src, GaloisRuntime).unwrap())
        });
        let (batched, batched_trace) = with_policy(policy, || {
            with_trace(|| lagraph::bfs::bfs_each(&p.graph, &[src], GaloisRuntime))
        });
        assert_eq!(batched[0].as_ref().unwrap(), &serial, "bfs k=1 output");
        assert_eq!(
            batched_trace.fingerprint(),
            serial_trace.fingerprint(),
            "bfs {policy:?}: width-1 batched trace must be fingerprint-identical to serial"
        );
    }
}

/// `vxm` is the push product: under the cost model a bfs round scatters,
/// sparse or dense, and never pulls. On these 8 rmat22 queries the cost
/// model once chose pull rounds over a transpose built inside the solve;
/// each must now push every round and reach exactly the levels of the
/// paper's push-dense scatter.
#[test]
fn bfs_vxm_pushes_every_round_and_matches_push_dense() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::{with_trace, OpKind};
    use graph_api_study::study_core::{batch_sources, PreparedGraph};

    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    let [auto, push_dense] = POLICIES;
    let levels = |src| lagraph::bfs::bfs(&p.graph, src, GaloisRuntime).unwrap().level;
    for src in batch_sources(&p, 8) {
        let (got, trace) = with_policy(auto, || with_trace(|| levels(src)));
        let kernels: Vec<KernelChoice> = trace
            .ops()
            .filter(|s| s.kind == OpKind::Vxm)
            .map(|s| s.kernel)
            .collect();
        assert!(!kernels.is_empty(), "source {src}: no vxm");
        assert!(
            kernels
                .iter()
                .all(|k| matches!(k, KernelChoice::PushSparse | KernelChoice::PushDense)),
            "source {src}: {kernels:?}"
        );
        assert_eq!(got, with_policy(push_dense, || levels(src)), "source {src}");
    }
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

    for (system, policy) in System::all()
        .into_iter()
        .flat_map(|s| POLICIES.map(|p| (s, p)))
    {
        for problem in [Problem::Bfs, Problem::Cc] {
            let run = |g| with_policy(policy, || try_run(system, problem, g));
            let system = format!("{system} {:?}", policy.kernel);
            let a = run(&one).unwrap_or_else(|e| panic!("{system} {problem} coarse: {e}"));
            let b = run(&many).unwrap_or_else(|e| panic!("{system} {problem} singles: {e}"));
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

/// A trace holds what its own thread ran and nothing else: 50 or more
/// traced GB bfs runs under one `with_trace`, made while another thread
/// loops untraced SS pr solves, record what a solo run records — each
/// run's own trace and the enclosing one alike, down to every op's
/// workspace bytes, flops and chunks.
#[test]
fn a_neighbours_untraced_work_stays_out_of_a_trace() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::perfmon::trace::{with_trace, Trace};
    use graph_api_study::study_core::{traced_run, try_run, PreparedGraph, Problem, System};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};

    // Chunk counts follow the thread count, which must not change here.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let bfs = || traced_run(System::GaloisBlas, Problem::Bfs, &p).trace;
    let shape = |t: &Trace| {
        let ws = t
            .ops()
            .map(|o| (o.ws_reused_bytes, o.ws_fresh_bytes, o.flops, o.chunks));
        (t.fingerprint(), ws.collect::<Vec<_>>())
    };
    let solo = shape(&bfs());
    let (done, solves) = (AtomicBool::new(false), AtomicU32::new(0));
    let (runs, whole) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Relaxed) {
                try_run(System::SuiteSparse, Problem::Pr, &p).expect("pr solves");
                solves.fetch_add(1, Relaxed);
            }
        });
        while solves.load(Relaxed) == 0 {
            std::thread::yield_now();
        }
        // At least 50 runs, and one whole neighbour solve inside them.
        let start = solves.load(Relaxed);
        let traced = with_trace(|| {
            let mut runs = Vec::new();
            while runs.len() < 50 || solves.load(Relaxed) < start + 2 {
                runs.push(bfs());
            }
            runs
        });
        done.store(true, Relaxed);
        traced
    });
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(shape(run), solo, "run {i}");
    }
    assert_eq!(whole.fingerprint(), vec![solo.0; runs.len()].concat());
}

/// A kernel policy reaches the runs it was given to and no others: two
/// threads solve bfs on the road lattice at once, one forcing the
/// paper's push-dense scatter and one under the cost model, and each
/// trace holds only its own kernel choices. A job's policy also reaches
/// the thread its deadline spawns: nothing fits a zero budget there.
#[test]
fn a_policy_reaches_only_its_own_runs() {
    use graph_api_study::graph::{Scale, StudyGraph};
    use graph_api_study::study_core::cell::CellStatus;
    use graph_api_study::study_core::{execute, traced_run, Job, PreparedGraph};
    use graph_api_study::study_core::{Problem, System, Work};

    let p = PreparedGraph::study(StudyGraph::RoadUsa, Scale::custom(1.0 / 64.0));
    let p = std::sync::Arc::new(p);
    let bfs = |policy| with_policy(policy, || traced_run(System::GaloisBlas, Problem::Bfs, &p));
    let [auto, push] = std::thread::scope(|scope| {
        POLICIES
            .map(|policy| scope.spawn(move || bfs(policy).trace.summary()))
            .map(|run| run.join().unwrap())
    });
    assert!(push.kernel_push_dense > 0, "{push:?}");
    assert_eq!(push.kernel_push_sparse + push.kernel_pull, 0, "{push:?}");
    assert!(auto.kernel_push_sparse > 0, "{auto:?}");

    let starved = Job {
        timeout: Some(std::time::Duration::from_secs(60)),
        policy: Policy {
            kernel: None,
            budget: Some(0),
        },
        ..Job::new(Work::Cell(System::GaloisBlas, Problem::Bfs))
    };
    let out = execute(&starved, &p);
    assert_eq!(out.status, CellStatus::Ok, "the job itself ends");
    assert!(
        out.lanes.iter().all(|l| l.status == CellStatus::Oom),
        "{:?}",
        out.lanes
    );
}

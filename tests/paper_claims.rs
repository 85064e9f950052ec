//! Integration tests that pin the paper's *quantitative* claims as
//! invariants: the matrix API must measurably execute more instructions
//! and memory accesses than the graph API for the workloads §V-B
//! analyzes. They run the paper's fixed SpMV strategies on the one
//! allocation path there is: per-call scratch, with the push-dense
//! accumulator allocated and scanned per call as the paper's is.
//!
//! The perfmon counters are process-global, so these tests serialize on
//! a mutex.

use graph_api_study::galois_rt;
use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::graphblas::ops::{with_policy, Policy};
use graph_api_study::perfmon;
use graph_api_study::perfmon::trace::KernelChoice;
use graph_api_study::study_core::{try_run, PreparedGraph, Problem, System};
use std::sync::Mutex;

/// A failing claim panics while holding this lock. It guards no data,
/// so every test recovers the guard from a poisoned lock instead of
/// failing after it. It serializes the perfmon counters and the pool's
/// thread count, which are process-wide.
static PERF_LOCK: Mutex<()> = Mutex::new(());

/// The paper's fixed SpMV strategy, which the quantitative claims below
/// describe (not the direction-optimizing cost model): `vxm` scatters
/// into a dense accumulator and drains all of it every round, which is
/// the lightweight-loop and materialization cost the ratios quantify.
const PAPER: Policy = Policy::forcing(KernelChoice::PushDense);

/// Pins the pool to one thread for a claim stated at one thread, and
/// restores the previous count on drop, also when the claim fails.
/// Callers must already hold `PERF_LOCK`, which every test here takes
/// before it runs anything on the pool.
struct OneThread {
    prev: usize,
}

impl OneThread {
    fn pin() -> OneThread {
        let prev = galois_rt::threads();
        galois_rt::set_threads(1);
        OneThread { prev }
    }
}

impl Drop for OneThread {
    fn drop(&mut self) {
        galois_rt::set_threads(self.prev);
    }
}

fn counters_for(system: System, problem: Problem, p: &PreparedGraph) -> perfmon::Counters {
    perfmon::reset();
    perfmon::enable(true);
    let out = with_policy(PAPER, || try_run(system, problem, p)).unwrap();
    perfmon::enable(false);
    std::hint::black_box(&out);
    perfmon::snapshot()
}

/// `one_thread` measures both systems at one pool thread (see
/// [`OneThread`]); otherwise they run at the ambient thread count.
fn assert_gb_exceeds_ls(
    problem: Problem,
    which: StudyGraph,
    min_instr_ratio: f64,
    one_thread: bool,
) {
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _threads = one_thread.then(OneThread::pin);
    let p = PreparedGraph::study(which, Scale::custom(1.0 / 32.0));
    let gb = counters_for(System::GaloisBlas, problem, &p);
    let ls = counters_for(System::Lonestar, problem, &p);
    let instr_ratio = gb.instructions as f64 / ls.instructions.max(1) as f64;
    assert!(
        instr_ratio >= min_instr_ratio,
        "{problem} on {which}: GB/LS instruction ratio {instr_ratio:.2} < {min_instr_ratio}"
    );
    assert!(
        gb.l1_accesses > ls.l1_accesses,
        "{problem} on {which}: GB must make more memory accesses ({} vs {})",
        gb.l1_accesses,
        ls.l1_accesses
    );
}

#[test]
fn bfs_lightweight_loops_cost_instructions() {
    // §V-B bfs: three passes per round vs one fused loop.
    assert_gb_exceeds_ls(Problem::Bfs, StudyGraph::RoadUsa, 2.0, false);
}

#[test]
fn cc_bulk_jumping_costs_instructions() {
    // §V-B cc: bounded bulk pointer jumping vs Afforest sampling.
    assert_gb_exceeds_ls(Problem::Cc, StudyGraph::Twitter40, 5.0, false);
}

#[test]
fn sssp_round_based_execution_costs_instructions() {
    // §V-B sssp: bulk-synchronous rounds vs one asynchronous work-list.
    // Stated at one thread: LS's async OBIM re-relaxes more as the
    // schedule changes with the thread count, and at 4 threads the ratio
    // fell to 1.7–1.98, so the claim would depend on the host.
    assert_gb_exceeds_ls(Problem::Sssp, StudyGraph::RoadUsa, 2.0, true);
}

#[test]
fn ktruss_materialization_costs_instructions() {
    assert_gb_exceeds_ls(Problem::Ktruss, StudyGraph::Rmat22, 2.0, false);
}

#[test]
fn tc_materializes_more_memory_traffic_not_instructions() {
    // §V-B tc: gb-ll may execute FEWER instructions than ls (preprocessing
    // removed runtime symmetry breaking) yet MORE memory accesses. For the
    // Table II variants (SandiaDot vs listing) the signature the paper
    // reports is on memory accesses.
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Uk07, Scale::custom(1.0 / 32.0));
    let gb = counters_for(System::GaloisBlas, Problem::Tc, &p);
    let ls = counters_for(System::Lonestar, Problem::Tc, &p);
    assert!(
        gb.l1_accesses > ls.l1_accesses,
        "tc GB must touch more memory: {} vs {}",
        gb.l1_accesses,
        ls.l1_accesses
    );
}

#[test]
fn pr_double_traversal_of_residual_shows_in_memory_accesses() {
    // Table V: gb-res makes roughly twice the L1 accesses of the fused
    // Lonestar loop.
    use graph_api_study::study_core::{execute, Job, Variant, Work};
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 32.0));
    let p = std::sync::Arc::new(p);
    let measure = |variant| {
        perfmon::reset();
        perfmon::enable(true);
        let job = Job {
            policy: PAPER,
            ..Job::new(Work::Variant(variant))
        };
        let out = execute(&job, &p);
        assert!(out.is_ok(), "{:?}", out.lanes[0].error);
        perfmon::enable(false);
        std::hint::black_box(&out);
        perfmon::snapshot()
    };
    let gb_res = measure(Variant::PrGbRes);
    let ls_soa = measure(Variant::PrLsSoa);
    assert!(
        gb_res.l1_accesses as f64 >= 1.3 * ls_soa.l1_accesses as f64,
        "gb-res L1 {} should exceed ls-soa L1 {} by the extra residual pass",
        gb_res.l1_accesses,
        ls_soa.l1_accesses
    );
}

#[test]
fn bc_materializes_and_costs_instructions() {
    // §I's motivating application: the matrix API's backward sweep needs
    // every forward level's path counts kept as vectors plus several bulk
    // passes per level, where the graph API keeps the same quantities in
    // scalars inside two fused loops per level.
    use graph_api_study::graphblas::GaloisRuntime;
    use graph_api_study::{lagraph, lonestar};
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::custom(1.0 / 32.0));
    let sources = [p.source, 0, 1, 2];
    perfmon::reset();
    perfmon::enable(true);
    let gb_run = with_policy(PAPER, || {
        lagraph::bc::betweenness(&p.graph, &sources, GaloisRuntime)
    })
    .unwrap();
    perfmon::enable(false);
    let gb = perfmon::snapshot();
    perfmon::reset();
    perfmon::enable(true);
    let ls_run = lonestar::bc::betweenness(&p.graph, &sources);
    perfmon::enable(false);
    let ls = perfmon::snapshot();
    std::hint::black_box((&gb_run, &ls_run));
    let instr_ratio = gb.instructions as f64 / ls.instructions.max(1) as f64;
    assert!(
        instr_ratio >= 5.0,
        "bc: GB/LS instruction ratio {instr_ratio:.2} < 5.0"
    );
    assert!(
        gb.l1_accesses > ls.l1_accesses,
        "bc: GB must make more memory accesses ({} vs {})",
        gb.l1_accesses,
        ls.l1_accesses
    );
    assert!(
        gb_run.materialized_vectors > 0,
        "matrix bc keeps one path-count vector per level"
    );
}

#[test]
fn traced_bfs_shows_extra_passes_and_materialization() {
    // §V-B bfs through the op-level trace instead of the hardware-model
    // counters: the matrix API issues at least as many passes over the
    // data as the graph API (several GrB calls per round vs one fused
    // loop), and materializes a dense accumulator on every vxm round
    // while the graph API materializes nothing.
    use graph_api_study::perfmon::trace::OpKind;
    use graph_api_study::study_core::traced_run;
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 32.0));
    let gb = with_policy(PAPER, || traced_run(System::GaloisBlas, Problem::Bfs, &p));
    let ls = traced_run(System::Lonestar, Problem::Bfs, &p);

    let gbs = gb.trace.summary();
    let lss = ls.trace.summary();
    assert!(
        gbs.passes >= lss.passes,
        "GB must issue at least as many passes as LS ({} vs {})",
        gbs.passes,
        lss.passes
    );

    // Every GB round is a vxm (or mxv) frontier expansion that
    // materializes a dense accumulator over the output dimension.
    let vxm_rounds = gb.trace.count_ops(OpKind::Vxm) + gb.trace.count_ops(OpKind::Mxv);
    assert!(vxm_rounds > 0, "GB bfs must go through the product kernels");
    let materializing_products = gb
        .trace
        .ops()
        .filter(|s| s.kind.is_product() && s.materialized_bytes > 0)
        .count() as u64;
    assert_eq!(
        materializing_products, vxm_rounds,
        "each GB product round must materialize an accumulator"
    );
    assert!(gbs.materialized_bytes > 0);

    // The graph API makes no GrB calls and materializes nothing: its
    // trace is worklist loops only.
    assert_eq!(lss.ops, 0, "LS bfs must not issue matrix ops");
    assert_eq!(lss.materialized_bytes, 0, "LS bfs materializes nothing");
    assert!(lss.loops > 0, "LS bfs runs worklist loops");
}

#[test]
fn adaptive_kernels_cut_bfs_materialization() {
    // The sparsity-adaptive kernel layer must strictly reduce the summed
    // accumulator materialization of bfs on both backends — sparse
    // frontiers scatter into pair lanes instead of a dense accumulator —
    // while computing the exact same levels as the paper's fixed push
    // strategy.
    use graph_api_study::study_core::traced_run;
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 32.0));
    for system in [System::SuiteSparse, System::GaloisBlas] {
        let push = with_policy(PAPER, || traced_run(system, Problem::Bfs, &p));
        let auto = traced_run(system, Problem::Bfs, &p);
        assert_eq!(
            push.output, auto.output,
            "{system:?}: auto must reproduce the fixed strategy's levels"
        );
        let push_bytes = push.trace.summary().materialized_bytes;
        let auto_bytes = auto.trace.summary().materialized_bytes;
        assert!(
            auto_bytes < push_bytes,
            "{system:?}: auto materialized {auto_bytes} bytes, expected strictly \
             less than push's {push_bytes}"
        );
    }
}

#[test]
fn accumulated_write_costs_its_update_not_its_output() {
    // The fold that ends every sssp round, `dist min= improved`, is an
    // accumulated write of a sparse update into a dense vector. It must
    // cost O(nvals(update)) counted instructions and leave `dist` dense;
    // folding through `ewise_add(dist, improved)` costs a pass over all
    // 2^20 slots instead.
    use graph_api_study::graphblas::binops::{Min, MinPlus, Plus};
    use graph_api_study::graphblas::{
        ops, Accum, Descriptor, GaloisRuntime, Matrix, StaticRuntime, Vector,
    };
    const N: usize = 1 << 20;
    const K: u64 = 16;
    const PER_ENTRY: u64 = 8;
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let update =
        Vector::from_entries(N, (0..K).map(|i| ((i * 65_521) as u32, i)).collect()).unwrap();
    // One edge out of each updated vertex, so the product's own work is
    // O(K) as well.
    let a: Matrix<u64> = Matrix::from_tuples(
        N,
        N,
        update.iter().map(|(i, _)| (i, i + 1, 1)).collect(),
        Plus,
    )
    .unwrap();
    let mut dist = Vector::new_dense(N, u64::MAX);
    let mut instructions = |write: &mut dyn FnMut(&mut Vector<u64>)| {
        perfmon::reset();
        perfmon::enable(true);
        write(&mut dist);
        perfmon::enable(false);
        perfmon::snapshot().instructions
    };
    let apply = instructions(&mut |dist| {
        ops::apply(Accum(dist, Min), &update, |d| d, GaloisRuntime).unwrap();
    });
    let sparse_push = Policy::forcing(KernelChoice::PushSparse);
    let vxm = instructions(&mut |dist| {
        let no_mask = None::<&Vector<bool>>;
        let desc = Descriptor::new();
        with_policy(sparse_push, || {
            ops::vxm(
                Accum(dist, Min),
                no_mask,
                MinPlus,
                &update,
                &a,
                &desc,
                StaticRuntime,
            )
        })
        .unwrap();
    });
    for (op, instr) in [("apply", apply), ("vxm", vxm)] {
        assert!(
            instr <= PER_ENTRY * K,
            "{op}: accumulating {K} entries into a dense 2^20 vector recorded {instr} \
             instructions, more than {PER_ENTRY} per entry"
        );
    }
    assert!(
        dist.is_dense_store(),
        "the accumulated output must stay dense"
    );
    assert_eq!(dist.nvals(), N);
    for (i, d) in update.iter() {
        assert_eq!(dist.get(i), Some(d));
        assert_eq!(dist.get(i + 1), Some(d + 1));
    }
}

#[test]
fn disabled_monitoring_keeps_counters_silent() {
    let _guard = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    perfmon::reset();
    perfmon::enable(false);
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));
    let _ = try_run(System::Lonestar, Problem::Bfs, &p).unwrap();
    let c = perfmon::snapshot();
    assert_eq!(c.instructions, 0);
    assert_eq!(c.l1_accesses, 0);
}

//! Single-layer probes: each times calls into one public function, on
//! the workload's own graph, repeated until a small time budget is
//! spent.

use crate::report::MetricSet;
use crate::spans::Recorder;
use crate::spec::{sys_suffix, Size};
use crate::stats::{self, Summary};
use graph::delta::{DeltaGraph, EdgeBatch};
use graph::{CsrGraph, NodeId};
use graphblas::binops::{Plus, PlusTimes};
use graphblas::{ops, Descriptor, GaloisRuntime, Matrix, Runtime, StaticRuntime, Vector};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use study_core::{PreparedGraph, System};
use substrate::rng::Rng;

/// Seconds each probe may repeat for.
const PROBE_BUDGET_S: f64 = 0.12;

/// Times `f` at least `min_reps` times and until [`PROBE_BUDGET_S`] has
/// passed, under one span; returns per-call seconds.
fn repeat(rec: &Recorder, name: &str, min_reps: usize, mut f: impl FnMut()) -> Summary {
    let (samples, _) = rec.time(name, 0, || {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < min_reps || started.elapsed().as_secs_f64() < PROBE_BUDGET_S {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
        }
        samples
    });
    stats::summary(&samples)
}

/// `count` seeded edges between distinct vertices that `g` does not
/// have, no two alike — so inserting them and deleting them again
/// returns exactly the graph that was there before.
pub fn absent_edges(g: &CsrGraph, rng: &mut Rng, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    let mut picked = BTreeSet::new();
    while picked.len() < count {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !g.neighbors(u).any(|d| d == v) {
            picked.insert((u, v));
        }
    }
    picked.into_iter().collect()
}

/// An insert batch and the delete batch that undoes it.
pub fn insert_and_delete(edges: &[(NodeId, NodeId)]) -> (EdgeBatch, EdgeBatch) {
    let mut insert = EdgeBatch::new();
    let mut delete = EdgeBatch::new();
    for &(u, v) in edges {
        insert = insert.insert_weighted(u, v, 1);
        delete = delete.delete(u, v);
    }
    (insert, delete)
}

/// Ops per ingest batch, here and in the service workload.
pub const INGEST_OPS: usize = 256;

/// `graph.*`: the transforms `PreparedGraph` is built from, one by one,
/// and the delta overlay's apply and compact.
pub fn graph_layer(p: &PreparedGraph, seed: u64, rec: &Recorder, out: &mut MetricSet) {
    let (_, secs) = rec.time("graph.transpose", 0, || {
        black_box(graph::transform::transpose(&p.graph))
    });
    out.set("graph.transpose_s", secs, 1);
    let (sym, secs) = rec.time("graph.symmetrize", 0, || {
        graph::transform::symmetrize(&p.graph)
    });
    out.set("graph.symmetrize_s", secs, 1);
    let (_, secs) = rec.time("graph.sort_by_degree", 0, || {
        black_box(graph::transform::sort_by_degree(&sym))
    });
    out.set("graph.sort_by_degree_s", secs, 1);
    drop(sym);

    let mut rng = Rng::seed_from_u64(seed ^ 0xde17a);
    let (insert, delete) = insert_and_delete(&absent_edges(&p.graph, &mut rng, INGEST_OPS));
    // Threshold 0: compaction only when asked, as the service catalog does.
    let mut delta = DeltaGraph::with_threshold(p.graph.clone(), 0);
    let (mut apply, mut compact) = (Vec::new(), Vec::new());
    for batch in [&insert, &delete, &insert, &delete] {
        let (r, secs) = rec.time("graph.delta_apply", 0, || delta.apply(batch));
        r.expect("a well-formed batch applies");
        apply.push(secs / INGEST_OPS as f64 * 1e6);
        let (r, secs) = rec.time("graph.delta_compact", 0, || delta.compact());
        r.expect("compaction without a fault plan succeeds");
        compact.push(secs * 1e3);
    }
    out.set(
        "graph.delta_apply_us_per_op",
        stats::median(&apply),
        apply.len(),
    );
    out.set(
        "graph.delta_compact_ms",
        stats::median(&compact),
        compact.len(),
    );
}

fn graphblas_on<R: Runtime>(
    rt: R,
    system: System,
    a: &Matrix<f64>,
    source: NodeId,
    rec: &Recorder,
    out: &mut MetricSet,
) {
    let n = a.nrows();
    let sfx = sys_suffix(system);
    let third = (n / 3).max(1) as NodeId;
    let mut frontier: Vec<NodeId> = (0..3).map(|i| (source + i * third) % n as NodeId).collect();
    frontier.sort_unstable();
    frontier.dedup();
    let sparse = Vector::from_entries(n, frontier.into_iter().map(|i| (i, 1.0)).collect())
        .expect("frontier indices are in range and distinct");
    let dense = Vector::new_dense(n, 1.0);
    let other = Vector::new_dense(n, 0.5);
    let replace = Descriptor::new().with_replace(true);
    let no_mask = None::<&Vector<bool>>;
    let mut w: Vector<f64> = Vector::new(n);
    let mut set = |name: &str, scale: f64, s: Summary| {
        out.set(&format!("graphblas.{name}.{sfx}"), s.median * scale, s.n);
    };

    let s = repeat(rec, &format!("graphblas.vxm_sparse.{sfx}"), 5, || {
        ops::vxm(&mut w, no_mask, PlusTimes, &sparse, a, &replace, rt).expect("conforming sizes");
    });
    set("vxm_sparse_us", 1e6, s);
    let dense_vxm = repeat(rec, &format!("graphblas.vxm_dense.{sfx}"), 3, || {
        ops::vxm(&mut w, no_mask, PlusTimes, &dense, a, &replace, rt).expect("conforming sizes");
    });
    set("vxm_dense_ms", 1e3, dense_vxm);
    let s = repeat(rec, &format!("graphblas.mxv_pull.{sfx}"), 3, || {
        ops::mxv(&mut w, no_mask, PlusTimes, a, &dense, &replace, rt).expect("conforming sizes");
    });
    set("mxv_pull_ms", 1e3, s);
    let s = repeat(rec, &format!("graphblas.ewise_add.{sfx}"), 3, || {
        ops::ewise_add(&mut w, Plus, &dense, &other, rt).expect("conforming sizes");
    });
    set("ewise_add_ms", 1e3, s);
    let s = repeat(rec, &format!("graphblas.assign.{sfx}"), 3, || {
        ops::assign_scalar(&mut w, no_mask, 1.0, &Descriptor::new(), rt).expect("conforming sizes");
    });
    set("assign_ms", 1e3, s);
    let s = repeat(rec, &format!("graphblas.reduce.{sfx}"), 3, || {
        black_box(ops::reduce_vector(&dense, Plus, rt));
    });
    set("reduce_ms", 1e3, s);

    // Computed, not measured, traffic of one dense SpMV (a pr
    // iteration's product): column index + f64 value per entry, one row
    // pointer per row, the input vector read once, the output written
    // once. Cache misses on the scattered accumulator are not in it.
    let bytes = a.nvals() * (4 + 8) + (n + 1) * 8 + 2 * n * 8;
    out.set(
        &format!("graphblas.pr_computed_gbps.{sfx}"),
        bytes as f64 / 1e9 / dense_vxm.median,
        dense_vxm.n,
    );
}

/// `graphblas.*` probes on the workload's adjacency matrix, on both
/// runtimes.
pub fn graphblas_layer(p: &PreparedGraph, rec: &Recorder, out: &mut MetricSet) {
    let mut a = None;
    let s = repeat(rec, "graphblas.matrix_from_graph", 3, || {
        a = Some(Matrix::<f64>::from_graph(&p.graph, |_| 1.0));
    });
    out.set("graphblas.matrix_from_graph_s", s.median, s.n);
    let a = a.expect("the probe ran at least once");
    graphblas_on(StaticRuntime, System::SuiteSparse, &a, p.source, rec, out);
    graphblas_on(GaloisRuntime, System::GaloisBlas, &a, p.source, rec, out);
}

/// `galois-rt.*` probes: what one loop launch costs with nothing in it,
/// and how fast the work-list moves items that do nothing.
pub fn galois_layer(rec: &Recorder, out: &mut MetricSet) {
    // Longer than one chunk, so the loop really forks and joins.
    let range = 0..16 * galois_rt::do_all::DEFAULT_CHUNK;
    let s = repeat(rec, "galois-rt.do_all_launch", 200, || {
        galois_rt::do_all(range.clone(), |i| {
            black_box(i);
        });
    });
    out.set("galois-rt.do_all_launch_us", s.median * 1e6, s.n);
    let s = repeat(rec, "galois-rt.do_all_static_launch", 200, || {
        galois_rt::do_all_static(range.clone(), |i| {
            black_box(i);
        });
    });
    out.set("galois-rt.do_all_static_launch_us", s.median * 1e6, s.n);
    let items = 1u32 << 18;
    let s = repeat(rec, "galois-rt.for_each", 3, || {
        galois_rt::for_each(0..items, |item, _ctx| {
            black_box(item);
        });
    });
    out.set(
        "galois-rt.for_each_mitems_per_s",
        f64::from(items) / s.median / 1e6,
        s.n,
    );
}

/// `host.triad_gbps`: the bandwidth `graphblas.pr_computed_gbps` is
/// read against. The three arrays together are four times the detected
/// L3, so at most a quarter of what is streamed can stay resident; four
/// times the L3 *each* costs ten seconds of page faults on this host's
/// 260 MiB L3, which a run cannot afford. The smoke size streams 8 MiB
/// arrays, to stay quick.
pub fn host_layer(size: Size, rec: &Recorder, out: &mut MetricSet) {
    let l3 = crate::host::caches().1;
    let array_bytes = match size {
        Size::Full => 4 * l3 / 3,
        Size::Smoke => 8 << 20,
    };
    let (gbps, secs) = rec.time("host.triad", 0, || crate::host::triad_gbps(array_bytes, 3));
    println!(
        "  host triad: 3 arrays of {:.0} MiB against an L3 of {:.0} MiB: {gbps:.2} GB/s (probe took {secs:.2} s)",
        array_bytes as f64 / 1048576.0,
        l3 as f64 / 1048576.0
    );
    out.set("host.triad_gbps", gbps, 3);
}

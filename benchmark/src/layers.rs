//! Per-layer metrics derived from the untraced samples and the traced
//! pass, and the `cells` section of the trace file.

use crate::cells::{CellTrace, Samples, OP_FAMILIES};
use crate::report::MetricSet;
use crate::spans::Recorder;
use crate::spec::{sys_suffix, MATRIX_SYSTEMS};
use crate::stats;
use std::hint::black_box;
use study_core::json::Json;
use study_core::{reference, PreparedGraph, Problem, System};

const MIB: f64 = 1024.0 * 1024.0;

/// Times the serial reference of `problem` — the native yardstick the
/// `core.native_ratio.*` metrics are read against — and returns the
/// median of three.
fn reference_s(p: &PreparedGraph, problem: Problem, rec: &Recorder) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let name = format!("core.reference.{problem}");
            let ((), secs) = rec.time(&name, 0, || match problem {
                Problem::Bfs => {
                    black_box(reference::bfs_levels(&p.graph, p.source));
                }
                Problem::Sssp => {
                    black_box(reference::dijkstra(&p.graph, p.source));
                }
                Problem::Cc => {
                    black_box(reference::components(&p.symmetric));
                }
                Problem::Pr => {
                    black_box(reference::pagerank(&p.graph, p.pr_iters));
                }
                Problem::Tc => {
                    black_box(reference::triangles(&p.symmetric));
                }
                Problem::Ktruss => {
                    black_box(reference::ktruss_edges(&p.symmetric, p.ktruss_k));
                }
            });
            secs
        })
        .collect();
    stats::median(&samples)
}

/// `core.*`: the reference yardstick, verification, and the solve sums
/// as ratios against the yardstick and as edge throughput.
pub fn core_layer(
    p: &PreparedGraph,
    problems: &[Problem],
    samples: &Samples,
    rec: &Recorder,
    out: &mut MetricSet,
) {
    let n = samples.rounds();
    let reference: f64 = problems
        .iter()
        .map(|&problem| reference_s(p, problem, rec))
        .sum();
    out.set("core.reference_s", reference, 3);
    out.set("core.verify_s", samples.verify_s(problems), n);
    let solve = |system| samples.solve_s(problems, system);
    for system in System::all() {
        let sfx = sys_suffix(system);
        out.set(
            &format!("core.native_ratio.{sfx}"),
            solve(system) / reference,
            n,
        );
        let medges = (p.graph.num_edges() * problems.len()) as f64 / solve(system) / 1e6;
        out.set(&format!("core.medges_per_s.{sfx}"), medges, n);
    }
    out.set(
        "core.gap_ss_over_ls",
        solve(System::SuiteSparse) / solve(System::Lonestar),
        n,
    );
    out.set(
        "core.gap_gb_over_ls",
        solve(System::GaloisBlas) / solve(System::Lonestar),
        n,
    );
}

/// `graphblas.*` (by system), `galois-rt.*` and `perfmon.*` aggregates
/// of the traced pass.
pub fn traced_layer(cells: &[CellTrace], samples: &Samples, out: &mut MetricSet) {
    let of = |system: System| cells.iter().filter(move |c| c.system == system);
    for system in MATRIX_SYSTEMS {
        let sfx = sys_suffix(system);
        let n = of(system).count();
        let sum = |f: &dyn Fn(&CellTrace) -> u64| of(system).map(f).sum::<u64>() as f64;
        let mut set =
            |name: &str, value: f64| out.set(&format!("graphblas.{name}.{sfx}"), value, n);
        set("calls", sum(&|c| c.summary.ops));
        set("product_rounds", sum(&|c| c.summary.product_rounds));
        set(
            "materialized_mb",
            sum(&|c| c.summary.materialized_bytes) / MIB,
        );
        let (reused, fresh) = (
            sum(&|c| c.summary.ws_reused_bytes),
            sum(&|c| c.summary.ws_fresh_bytes),
        );
        set(
            "ws_reused_frac",
            if reused + fresh > 0.0 {
                reused / (reused + fresh)
            } else {
                0.0
            },
        );
        set("kernel_push_sparse", sum(&|c| c.summary.kernel_push_sparse));
        set("kernel_push_dense", sum(&|c| c.summary.kernel_push_dense));
        set("kernel_pull", sum(&|c| c.summary.kernel_pull));
        set("kernel_bitmap", sum(&|c| c.summary.kernel_bitmap));
        for (i, family) in OP_FAMILIES.iter().enumerate() {
            set(&format!("{family}_s"), sum(&|c| c.family_ns[i]) / 1e9);
        }
        let wall: f64 = of(system).map(|c| c.wall_s).sum();
        set(
            "unattributed_frac",
            1.0 - sum(&|c| c.family_ns.iter().sum()) / 1e9 / wall,
        );
    }
    for system in System::all() {
        let sfx = sys_suffix(system);
        let n = of(system).count();
        out.set(
            &format!("galois-rt.loops.{sfx}"),
            of(system).map(|c| c.summary.loops).sum::<u64>() as f64,
            n,
        );
        out.set(
            &format!("galois-rt.loop_s.{sfx}"),
            of(system).map(|c| c.loop_ns).sum::<u64>() as f64 / 1e9,
            n,
        );
    }
    let total = |f: &dyn Fn(&CellTrace) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    out.set(
        "galois-rt.loop_rounds",
        total(&|c| c.summary.loop_rounds),
        cells.len(),
    );
    out.set(
        "galois-rt.steals",
        total(&|c| c.summary.steals),
        cells.len(),
    );
    out.set(
        "galois-rt.bucket_visits",
        total(&|c| c.summary.bucket_visits),
        cells.len(),
    );

    let traced: f64 = cells.iter().map(|c| c.wall_s).sum();
    let untraced: f64 = cells
        .iter()
        .map(|c| stats::median(&samples.solve[&(c.problem, c.system)]))
        .sum();
    out.set(
        "perfmon.trace_overhead_frac",
        traced / untraced - 1.0,
        cells.len(),
    );
    out.set(
        "perfmon.dropped_events",
        total(&|c| c.summary.dropped),
        cells.len(),
    );
}

/// One object per traced cell: the program's `TraceSummary` beside the
/// untraced timing summary, for the trace file.
pub fn cells_json(problems: &[Problem], cells: &[CellTrace], samples: &Samples) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                let s = stats::summary(&samples.solve[&(c.problem, c.system)]);
                let mut o = Json::obj();
                o.push(
                    "cell",
                    u64::from(crate::cells::cell_id(problems, c.problem, c.system)),
                )
                .push("problem", c.problem.name())
                .push("system", c.system.abbrev())
                .push("untraced_samples", s.n)
                .push("untraced_median_s", s.median)
                .push("untraced_min_s", s.min)
                .push("untraced_q1_s", s.q1)
                .push("untraced_q3_s", s.q3)
                .push("traced_wall_s", c.wall_s)
                .push("loop_ns", c.loop_ns);
                for (family, ns) in OP_FAMILIES.iter().zip(c.family_ns) {
                    o.push(&format!("{family}_ns"), ns);
                }
                let t = &c.summary;
                let mut summary = Json::obj();
                summary
                    .push("ops", t.ops)
                    .push("loops", t.loops)
                    .push("passes", t.passes)
                    .push("product_rounds", t.product_rounds)
                    .push("loop_rounds", t.loop_rounds)
                    .push("iterations", t.iterations)
                    .push("steals", t.steals)
                    .push("bucket_visits", t.bucket_visits)
                    .push("materialized_bytes", t.materialized_bytes)
                    .push("accumulator_bytes", t.accumulator_bytes)
                    .push("kernel_push_sparse", t.kernel_push_sparse)
                    .push("kernel_push_dense", t.kernel_push_dense)
                    .push("kernel_pull", t.kernel_pull)
                    .push("kernel_bitmap", t.kernel_bitmap)
                    .push("ws_reused_bytes", t.ws_reused_bytes)
                    .push("ws_fresh_bytes", t.ws_fresh_bytes)
                    .push("flops", t.flops)
                    .push("chunks", t.chunks)
                    .push("dropped", t.dropped);
                o.push("trace_summary", summary);
                o
            })
            .collect(),
    )
}

//! The benchmark's fixed definition: workloads, input sizes, metric
//! names with unit, direction and bound. `BENCHMARK.json` is this
//! module printed (`--print-manifest`); the smoke test holds the two
//! together.

use graph::gen::{self, RmatParams};
use graph::CsrGraph;
use study_core::json::Json;
use study_core::{Problem, System};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Input scale: the measured sizes, or tiny graphs for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` tabulates.
    Full,
    /// Tiny graphs, one sample per cell.
    Smoke,
}

/// A generated input and the experiment parameters that go with it.
#[derive(Debug)]
pub struct Input {
    /// The generated graph.
    pub graph: CsrGraph,
    /// bfs/sssp source.
    pub source: graph::NodeId,
    /// ktruss `k`.
    pub ktruss_k: u32,
}

impl Input {
    /// A non-road input: source = the highest out-degree vertex, k = 7
    /// (§IV of the paper).
    fn hub_sourced(graph: CsrGraph) -> Input {
        let source = graph.max_out_degree_node();
        Input {
            graph,
            source,
            ktruss_k: 7,
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Identifier later issues use.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Problems run as (problem × system) cells on the workload's graph.
    pub problems: &'static [Problem],
    /// Whether the graph is also served through an in-process service.
    pub service: bool,
    /// Makes the input from `--seed`, through `graph::gen` (never
    /// `StudyGraph::build`, whose seeds are baked in).
    pub generate: fn(seed: u64, size: Size) -> Input,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr-skew",
        why: "pr on a skewed RMAT graph whose CSR + transpose is ~9x the private L2s: SpMV kernel choice, tiling and layout show; loop launch and per-call allocation cannot",
        problems: &[Problem::Pr],
        service: false,
        generate: |seed, size| {
            let scale = if size == Size::Full { 18 } else { 10 };
            Input::hub_sourced(gen::rmat(scale, 16, RmatParams::default(), seed))
        },
    },
    Workload {
        name: "rounds-road",
        why: "delta-stepping sssp on a long-diameter road lattice: ~700 tiny-frontier rounds, so per-call O(V) passes, fork-join and barriers dominate; a kernel-only change predicts no change",
        problems: &[Problem::Sssp],
        service: false,
        generate: |seed, size| {
            let (w, h) = if size == Size::Full { (400, 225) } else { (40, 24) };
            // Vertex 0 is a grid corner on every seed, so the round
            // count does not depend on where a random source lands.
            Input { graph: lattice_road(w, h, seed), source: 0, ktruss_k: 4 }
        },
    },
    Workload {
        name: "spgemm-social",
        why: "tc + ktruss on a preferential-attachment graph: masked mxm, select/reduce passes and materialised intermediates do the work; the SpMV kernels are bypassed",
        problems: &[Problem::Tc, Problem::Ktruss],
        service: false,
        generate: |seed, size| {
            let (n, m) = if size == Size::Full { (50_000, 10) } else { (2_000, 6) };
            Input::hub_sourced(gen::preferential_attachment(n, m, true, seed))
        },
    },
    Workload {
        name: "service-mixed",
        why: "two closed-loop clients on a loopback service: verified jobs of every system run through catalog, admission and containment beside tc, ingest and compact; the service's own cost shows only here",
        problems: &[Problem::Bfs, Problem::Sssp, Problem::Cc, Problem::Pr, Problem::Tc],
        service: true,
        generate: |seed, size| {
            let (scale, factor) = if size == Size::Full { (14, 16) } else { (9, 8) };
            let graph = gen::rmat(scale, factor, RmatParams::default(), seed);
            Input::hub_sourced(graph.with_random_weights(1_000_000, seed))
        },
    },
];

/// Problems the service workload's reader client cycles through.
pub const READ_PROBLEMS: [Problem; 4] = [Problem::Bfs, Problem::Sssp, Problem::Cc, Problem::Pr];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `gen::grid_road` without its `n / 1000` random long-range shortcuts.
///
/// Where the shortcuts land decides the graph's eccentricity from the
/// source, and with it the number of bfs levels and delta-stepping
/// rounds: between seeds the product-round count moved by a third
/// (324 to 437 at 640 x 350), more than any bound this benchmark could
/// hold. On the bare lattice the bfs depth is `width + height - 1` on
/// every seed and only the edge weights differ.
fn lattice_road(width: usize, height: usize, seed: u64) -> CsrGraph {
    let g = gen::grid_road(width, height, seed);
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    let (mut dests, mut weights) = (Vec::new(), Vec::new());
    offsets.push(0);
    for v in 0..g.num_nodes() as graph::NodeId {
        for (d, w) in g.neighbors_weighted(v) {
            let gap = d.abs_diff(v) as usize;
            if gap == 1 || gap == width {
                dests.push(d);
                weights.push(w);
            }
        }
        offsets.push(dests.len());
    }
    CsrGraph::from_raw(offsets, dests, Some(weights))
}

/// Lower-case system suffix used in metric names.
pub fn sys_suffix(system: System) -> &'static str {
    match system {
        System::SuiteSparse => "ss",
        System::GaloisBlas => "gb",
        System::Lonestar => "ls",
    }
}

/// The two matrix-API systems.
pub const MATRIX_SYSTEMS: [System; 2] = [System::SuiteSparse, System::GaloisBlas];

/// One metric's fixed definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
        bound: None,
    }
}

/// The end-to-end metrics, every one reported by every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, bound| MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: false,
        bound: Some(bound),
    };
    // Each bound is three times the widest spread (Q3 - Q1 over the
    // median of ten seeds) the metric showed on any workload in two
    // ten-seed sets on the host this was defined on, rounded up to the
    // next 0.05 and capped at the contract's 0.25 (README, "Measured
    // spread"). Two exceptions: `setup_s` has the ceiling, as the
    // contract asks, and `answer_s` has one step more than its 0.15,
    // because that host's noisy hours spread pr-skew's solves 7-13 %.
    vec![
        e2e("setup_s", "s", 0.25),
        e2e("answer_s", "s", 0.2),
        e2e("solve_s_ss", "s", 0.25),
        e2e("solve_s_gb", "s", 0.2),
        e2e("solve_s_ls", "s", 0.25),
        e2e("peak_rss_mb", "MiB", 0.2),
    ]
}

/// Counters of the traced pass that `--check-repeat` expects to repeat
/// exactly (suffixes stripped).
pub const EXACT_COUNTS: [&str; 10] = [
    "graphblas.calls",
    "graphblas.product_rounds",
    "graphblas.materialized_mb",
    "graphblas.kernel_push_sparse",
    "graphblas.kernel_push_dense",
    "graphblas.kernel_pull",
    "graphblas.kernel_bitmap",
    "galois-rt.loops",
    "galois-rt.loop_rounds",
    "galois-rt.steals",
];

/// The per-layer metrics, named `<module>.<metric>[.<ss|gb|ls>]`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = Vec::new();
    let per_system = |m: &mut Vec<MetricDef>, systems: &[System], base: &str, unit, higher| {
        for &s in systems {
            m.push(def(format!("{base}.{}", sys_suffix(s)), unit, higher));
        }
    };
    for name in ["generate", "transpose", "symmetrize", "sort_by_degree"] {
        m.push(def(format!("graph.{name}_s"), "s", false));
    }
    m.push(def("graph.delta_apply_us_per_op", "us", false));
    m.push(def("graph.delta_compact_ms", "ms", false));
    m.push(def("core.prepare_s", "s", false));
    m.push(def("core.reference_s", "s", false));
    m.push(def("core.verify_s", "s", false));
    per_system(&mut m, &System::all(), "core.native_ratio", "ratio", false);
    m.push(def("core.gap_ss_over_ls", "ratio", false));
    m.push(def("core.gap_gb_over_ls", "ratio", false));
    per_system(
        &mut m,
        &System::all(),
        "core.medges_per_s",
        "Medges/s",
        true,
    );
    for (name, unit, higher) in [
        ("calls", "count", false),
        ("product_rounds", "count", false),
        ("materialized_mb", "MiB", false),
        ("ws_reused_frac", "ratio", true),
        ("kernel_push_sparse", "count", false),
        ("kernel_push_dense", "count", false),
        ("kernel_pull", "count", false),
        ("kernel_bitmap", "count", false),
        ("vxm_mxv_s", "s", false),
        ("mxm_s", "s", false),
        ("ewise_s", "s", false),
        ("apply_assign_s", "s", false),
        ("reduce_select_s", "s", false),
        ("unattributed_frac", "ratio", false),
    ] {
        per_system(
            &mut m,
            &MATRIX_SYSTEMS,
            &format!("graphblas.{name}"),
            unit,
            higher,
        );
    }
    m.push(def("graphblas.matrix_from_graph_s", "s", false));
    for (name, unit) in [
        ("vxm_sparse_us", "us"),
        ("vxm_dense_ms", "ms"),
        ("mxv_pull_ms", "ms"),
        ("ewise_add_ms", "ms"),
        ("assign_ms", "ms"),
        ("reduce_ms", "ms"),
    ] {
        per_system(
            &mut m,
            &MATRIX_SYSTEMS,
            &format!("graphblas.{name}"),
            unit,
            false,
        );
    }
    per_system(
        &mut m,
        &MATRIX_SYSTEMS,
        "graphblas.pr_computed_gbps",
        "GB/s",
        true,
    );
    m.push(def("host.triad_gbps", "GB/s", true));
    m.push(def("galois-rt.do_all_launch_us", "us", false));
    m.push(def("galois-rt.do_all_static_launch_us", "us", false));
    m.push(def("galois-rt.for_each_mitems_per_s", "Mitems/s", true));
    per_system(&mut m, &System::all(), "galois-rt.loops", "count", false);
    per_system(&mut m, &System::all(), "galois-rt.loop_s", "s", false);
    for name in ["loop_rounds", "steals", "bucket_visits"] {
        m.push(def(format!("galois-rt.{name}"), "count", false));
    }
    m.push(def("perfmon.trace_overhead_frac", "ratio", false));
    m.push(def("perfmon.dropped_events", "count", false));
    for (name, unit) in [
        ("connect_us", "us"),
        ("ping_rtt_us", "us"),
        ("codec_run_us", "us"),
        ("codec_ingest_us", "us"),
        ("admission_acquire_ns", "ns"),
        ("catalog_ingest_us", "us"),
        ("catalog_compact_ms", "ms"),
        ("read_alone_p50_ms", "ms"),
        ("read_alone_p95_ms", "ms"),
        ("read_p50_ms", "ms"),
        ("read_p95_ms", "ms"),
        ("batch_p50_ms", "ms"),
        ("heavy_p50_ms", "ms"),
        ("write_p50_ms", "ms"),
        ("run_overhead_ms", "ms"),
        ("rejected", "count"),
        ("timeouts", "count"),
        ("contained_failures", "count"),
    ] {
        m.push(def(format!("service.{name}"), unit, false));
    }
    m.push(def("service.qps", "1/s", true));
    m.push(def("service.requests", "count", true));
    m.push(def("service.drained_clean", "count", true));
    m
}

/// `BENCHMARK.json`, as the driver contract lays it out.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| Json::from(s)).collect());
    let better = |d: &MetricDef| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut root = Json::obj();
    root.push(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    root.push("paths", strings(&["benchmark"]));
    root.push("run_seconds", RUN_SECONDS);
    root.push(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.push("name", w.name).push("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    root.push(
        "end_to_end",
        Json::Arr(
            end_to_end()
                .iter()
                .map(|d| {
                    let mut o = Json::obj();
                    o.push("name", d.name.as_str())
                        .push("unit", d.unit)
                        .push("better", better(d))
                        .push("bound", d.bound.expect("end-to-end metrics carry a bound"));
                    o
                })
                .collect(),
        ),
    );
    root.push(
        "per_layer",
        Json::Arr(
            per_layer()
                .iter()
                .map(|d| {
                    let mut o = Json::obj();
                    o.push("name", d.name.as_str())
                        .push("unit", d.unit)
                        .push("better", better(d));
                    o
                })
                .collect(),
        ),
    );
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_stay_inside_the_contract() {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| valid(w.name) && w.why.len() <= 200));
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let mut names: Vec<&str> = e2e
            .iter()
            .chain(&layers)
            .map(|d| d.name.as_str())
            .chain(WORKLOADS.map(|w| w.name))
            .collect();
        assert!(
            names.iter().all(|n| valid(n)),
            "names match [A-Za-z0-9_.-]+"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
    }
}

//! `study` — run one (problem, system, graph) cell from the command line.
//!
//! The single-run front door for users who want to poke at the systems
//! without the full table harness:
//!
//! ```text
//! study <problem> [options]
//!
//! problems:  bfs cc ktruss pr sssp tc
//! options:
//!   --system SS|GB|LS     system to run (default: all three)
//!   --graph NAME|PATH     study graph name (default rmat22) or a file
//!                         (.mtx, .bin or edge list) to load
//!   --scale F             study-graph scale factor (default 0.25)
//!   --threads N           worker threads (default: all)
//!   --perf                print software performance counters
//!   --trace               record op/loop spans, print a summary and dump
//!                         the full trace to results/
//!   --no-verify           skip verification against the serial reference
//! ```
//!
//! Example: `study sssp --graph road-USA --scale 0.5 --system LS --perf`

use std::sync::Arc;
use std::time::{Duration, Instant};
use study_core::cell::{cell_timeout_from_env, run_protected};
use study_core::report::secs;
use study_core::{json, try_run, verify, PreparedGraph, Problem, ProblemOutput, System};

struct Options {
    problem: Problem,
    systems: Vec<System>,
    graph: String,
    scale: f64,
    threads: Option<usize>,
    perf: bool,
    trace: bool,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: study <bfs|cc|ktruss|pr|sssp|tc> [--system SS|GB|LS] [--graph NAME|PATH]\n\
         \x20            [--scale F] [--threads N] [--perf] [--trace] [--no-verify]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let problem = match args.next().as_deref() {
        Some("bfs") => Problem::Bfs,
        Some("cc") => Problem::Cc,
        Some("ktruss") => Problem::Ktruss,
        Some("pr") => Problem::Pr,
        Some("sssp") => Problem::Sssp,
        Some("tc") => Problem::Tc,
        _ => usage(),
    };
    let mut opts = Options {
        problem,
        systems: System::all().to_vec(),
        graph: "rmat22".to_string(),
        scale: 0.25,
        threads: None,
        perf: false,
        trace: false,
        verify: true,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--system" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.systems = vec![match v.to_uppercase().as_str() {
                    "SS" => System::SuiteSparse,
                    "GB" => System::GaloisBlas,
                    "LS" => System::Lonestar,
                    _ => usage(),
                }];
            }
            "--graph" => opts.graph = args.next().unwrap_or_else(|| usage()),
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                opts.threads = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--perf" => opts.perf = true,
            "--trace" => opts.trace = true,
            "--no-verify" => opts.verify = false,
            _ => usage(),
        }
    }
    opts
}

/// Generates the named study graph or loads the file, then prepares it;
/// also returns how long each of the two steps took.
fn load_graph(opts: &Options) -> (PreparedGraph, Duration, Duration) {
    let start = Instant::now();
    // A known study-graph name wins; otherwise treat as a path.
    let (name, g, source, ktruss_k, sssp_delta) = match graph::StudyGraph::all()
        .into_iter()
        .find(|g| g.name().eq_ignore_ascii_case(&opts.graph))
    {
        Some(which) => {
            let g = which.build(graph::Scale::custom(opts.scale));
            let source = which.source(&g);
            (
                which.name().to_string(),
                g,
                source,
                which.ktruss_k(),
                which.sssp_delta(),
            )
        }
        None => {
            let path = std::path::Path::new(&opts.graph);
            let g = graph::io::load(path).unwrap_or_else(|e| {
                eprintln!("cannot load {}: {e}", path.display());
                std::process::exit(1);
            });
            let g = if g.is_weighted() {
                g
            } else {
                g.with_random_weights(1_000_000, 7)
            };
            let source = g.max_out_degree_node();
            (opts.graph.clone(), g, source, 7, 1 << 13)
        }
    };
    let loaded = start.elapsed();
    let start = Instant::now();
    let p = PreparedGraph::from_graph(name, g, source, ktruss_k, sssp_delta);
    (p, loaded, start.elapsed())
}

fn summarize(out: &ProblemOutput) -> String {
    match out {
        ProblemOutput::Levels(l) => {
            let reached = l.iter().filter(|&&x| x != 0).count();
            let depth = l.iter().max().copied().unwrap_or(0);
            format!("{reached} vertices reached, depth {depth}")
        }
        ProblemOutput::Components(c) => {
            let mut labels: Vec<u32> = c.clone();
            labels.sort_unstable();
            labels.dedup();
            format!("{} components", labels.len())
        }
        ProblemOutput::TrussEdges(e) => format!("{} directed edges in the truss", e),
        ProblemOutput::Ranks(r) => {
            let top = r
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, v)| format!("top vertex {i} ({v:.2e})"))
                .unwrap_or_default();
            format!("{} ranks, {top}", r.len())
        }
        ProblemOutput::Dists(d) => {
            let reached = d.iter().filter(|&&x| x != u64::MAX).count();
            format!("{reached} vertices reachable")
        }
        ProblemOutput::Triangles(t) => format!("{t} triangles"),
    }
}

fn main() {
    let opts = parse_args();
    if let Some(t) = opts.threads {
        std::env::set_var("GALOIS_MAX_THREADS", t.to_string());
        galois_rt::set_threads(t);
    }
    eprintln!("[study] preparing {} (scale {}) ...", opts.graph, opts.scale);
    let (p, loaded, prepared) = load_graph(&opts);
    let p = Arc::new(p);
    println!(
        "{}: {} vertices, {} edges, source {} (load/generate {}s, prepare {}s)",
        p.name,
        p.graph.num_nodes(),
        p.graph.num_edges(),
        p.source,
        secs(loaded),
        secs(prepared)
    );
    let mut bad = false;
    for &system in &opts.systems {
        perfmon::reset();
        perfmon::enable(opts.perf);
        // The cell runs behind the `run_protected` isolation boundary,
        // so injected faults, memory-budget exhaustion and hangs report
        // a status instead of aborting the process.
        let problem = opts.problem;
        let do_trace = opts.trace;
        let shared = Arc::clone(&p);
        let outcome = run_protected(
            cell_timeout_from_env(),
            move || -> Result<(Duration, ProblemOutput, _), graphblas::GrbError> {
                let start = Instant::now();
                if do_trace {
                    let (out, trace) =
                        perfmon::trace::with_trace(|| try_run(system, problem, &shared));
                    Ok((start.elapsed(), out?, Some(trace)))
                } else {
                    let out = try_run(system, problem, &shared)?;
                    Ok((start.elapsed(), out, None))
                }
            },
        );
        perfmon::enable(false);
        let Some((elapsed, output, trace)) = outcome.value else {
            println!(
                "{system:>2}  [{}] {}",
                outcome.status,
                outcome.error.unwrap_or_default()
            );
            bad = true;
            continue;
        };
        let status = if opts.verify {
            match verify::verify(&p, opts.problem, &output) {
                Ok(()) => "verified",
                Err(e) => {
                    eprintln!("[study] {system}: VERIFICATION FAILED: {e}");
                    "WRONG"
                }
            }
        } else {
            "unverified"
        };
        println!(
            "{system:>2}  {}s  {}  [{status}]",
            secs(elapsed),
            summarize(&output)
        );
        if opts.perf {
            println!("    {}", perfmon::PerfReport::new("counters", perfmon::snapshot()));
        }
        if let Some(trace) = trace {
            let s = trace.summary();
            println!(
                "    trace: {} ops, {} loops, {} passes, {} product rounds, \
                 {} loop rounds, {} iterations, {} steals, {} bucket visits, \
                 {} materialized bytes{}",
                s.ops,
                s.loops,
                s.passes,
                s.product_rounds,
                s.loop_rounds,
                s.iterations,
                s.steals,
                s.bucket_visits,
                s.materialized_bytes,
                if s.dropped > 0 {
                    format!(" ({} events dropped)", s.dropped)
                } else {
                    String::new()
                },
            );
            let path = trace_dump_path(opts.problem, system, &p.name);
            match dump_trace(&path, &trace) {
                Ok(()) => println!("    trace dumped to {path}"),
                Err(e) => eprintln!("[study] cannot write {path}: {e}"),
            }
        }
    }
    if bad {
        std::process::exit(1);
    }
}

/// `results/trace_<problem>_<system>_<graph>.json`, with non-alphanumeric
/// graph-name characters flattened so file paths stay shell-friendly.
fn trace_dump_path(problem: Problem, system: System, graph: &str) -> String {
    let graph: String = graph
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    format!("results/trace_{problem}_{system}_{graph}.json")
}

fn dump_trace(path: &str, trace: &perfmon::trace::Trace) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(path, json::trace_json(trace).pretty())
}

//! `benchmark --workload <name|all> --seed <u64> [--seconds <s>]
//! [--trace <0|1>] [--size full|smoke] [--check-repeat]`
//!
//! `--trace 0` measures the end-to-end metrics with tracing off,
//! `--trace 1` makes the traced pass for the per-layer metrics; without
//! `--trace` both run, one after the other. The last line printed for a
//! workload is its result as one JSON object.

use benchmark::cells::{self, Tally};
use benchmark::report::{parse_result_line, result_line, MetricSet, ParsedResult};
use benchmark::spans::Recorder;
use benchmark::spec::{self, Size, Workload};
use benchmark::{host, layers, probes, stats, svc};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use study_core::json::Json;
use study_core::{PreparedGraph, System};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    size: Size,
    check_repeat: bool,
}

/// Where the traced pass writes its trace files, relative to the
/// directory the benchmark is run from (the root of a checkout).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark --workload <pr-skew|rounds-road|spgemm-social|service-mixed|all> --seed <u64> \
[--seconds <s>] [--trace <0|1>] [--size full|smoke] [--check-repeat] | --print-manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        size: Size::Full,
        check_repeat: false,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check-repeat" {
            a.check_repeat = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => {
                a.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("full or smoke")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    if a.workload != "all" && spec::workload(&a.workload).is_none() {
        return Err(format!("--workload: unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Timed rounds per cell: at least 3 and as many as fit the budget; the
/// smoke size takes exactly one.
fn rounds(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (3, usize::MAX),
        Size::Smoke => (1, 1),
    }
}

fn print_sizing(p: &PreparedGraph) {
    let (l2, l3, source) = host::caches();
    let threads = host::threads();
    println!(
        "  sizing: {} vertices, {} edges; CSR + transpose {:.1} MiB, symmetric {:.1} MiB | L2 {:.1} MiB x {threads} threads = {:.1} MiB, L3 {:.0} MiB ({source})",
        p.graph.num_nodes(),
        p.graph.num_edges(),
        (p.graph.csr_size_bytes() + p.transpose.csr_size_bytes()) as f64 / 1048576.0,
        p.symmetric.csr_size_bytes() as f64 / 1048576.0,
        l2 as f64 / 1048576.0,
        (l2 * threads) as f64 / 1048576.0,
        l3 as f64 / 1048576.0,
    );
}

fn print_cells(w: &Workload, samples: &cells::Samples) {
    for &problem in w.problems {
        let rows = System::all()
            .map(|system| (system.abbrev(), &samples.solve[&(problem, system)]))
            .into_iter()
            .chain([("verify", &samples.verify[&problem])]);
        for (label, v) in rows {
            let s = stats::summary(v);
            println!(
                "    {:<7} {label:<6} n={} median {:>9.4} s  min {:>9.4}  q1 {:>9.4}  q3 {:>9.4}",
                problem.name(),
                s.n,
                s.median,
                s.min,
                s.q1,
                s.q3
            );
        }
    }
}

/// What one `setup_s` sample leaves behind, ready to measure.
enum Ready {
    Cells(PreparedGraph),
    Service(svc::Live, svc::Clients),
}

fn set_up(w: &Workload, a: &Args, rec: &Recorder) -> Ready {
    let p = cells::setup(w, a.seed, a.size, rec).0;
    if w.service {
        let edge_ops = svc::edge_sets(&p, a.seed);
        let (live, clients) = svc::bring_up(p, edge_ops, a.seed, rec);
        Ready::Service(live, clients)
    } else {
        Ready::Cells(p)
    }
}

fn check_drain(drain: service::DrainReport, tally: &mut Tally) {
    let clean = drain.drained_clean && drain.rejected == 0 && drain.contained_failures == 0;
    tally.record(
        || "service drain".to_string(),
        if clean {
            Ok(())
        } else {
            Err(format!("{drain:?}"))
        },
    );
}

/// Tracing off: set up (several times, for a median), measure for
/// `--seconds`, report the end-to-end metrics.
fn end_to_end_pass(w: &Workload, a: &Args, tally: &mut Tally) -> MetricSet {
    let rec = Recorder::new(false);
    // Three set-ups at least; small inputs, whose set-up time is the
    // noisiest, get up to seven while that costs under three seconds.
    let (min_reps, max_reps) = if a.size == Size::Full { (3, 7) } else { (1, 1) };
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut ready = None;
    while setups.len() < min_reps
        || (setups.len() < max_reps && started.elapsed().as_secs_f64() < 3.0)
    {
        // Only one instance is ever resident, as in a real run.
        match ready.take() {
            Some(Ready::Service(live, clients)) => {
                check_drain(svc::tear_down(live, clients), tally)
            }
            Some(Ready::Cells(p)) => drop(p),
            None => {}
        }
        let (r, secs) = rec.time("setup", 0, || set_up(w, a, &rec));
        setups.push(secs);
        ready = Some(r);
    }

    let mut out = MetricSet::new(spec::end_to_end());
    out.set("setup_s", stats::median(&setups), setups.len());
    match ready.expect("set up at least once") {
        Ready::Cells(p) => {
            print_sizing(&p);
            let samples = cells::sample(&p, w.problems, a.seconds, rounds(a.size), &rec, tally);
            print_cells(w, &samples);
            let n = samples.rounds();
            let mut solve_total = 0.0;
            for system in System::all() {
                let solve = samples.solve_s(w.problems, system);
                solve_total += solve;
                out.set(&format!("solve_s_{}", spec::sys_suffix(system)), solve, n);
            }
            // Every cell's answer is checked against the same reference,
            // so the verify term counts once per system.
            out.set(
                "answer_s",
                solve_total + 3.0 * samples.verify_s(w.problems),
                n,
            );
            out.set("peak_rss_mb", host::peak_rss_mb(), 1);
        }
        Ready::Service(live, mut clients) => {
            let (alone, mixed) = svc::run_phases(&live, &mut clients, a.seconds, &rec, tally);
            check_drain(svc::tear_down(live, clients), tally);
            println!(
                "  phase A (reader, then writer, alone; warm-up) {:.2} s, {} requests; phase B (reader + writer) {:.2} s, {} requests",
                alone.wall_s,
                alone.requests(),
                mixed.wall_s,
                mixed.requests()
            );
            print!("{}", mixed.table());
            println!(
                "  peak RSS {:.1} MiB after phase A (one job at a time; reported), {:.1} MiB after phase B (depends on which jobs overlapped)",
                alone.peak_rss_mb, mixed.peak_rss_mb
            );
            let n = mixed.min_samples();
            for system in System::all() {
                out.set(
                    &format!("solve_s_{}", spec::sys_suffix(system)),
                    mixed.solve_s(system),
                    n,
                );
            }
            out.set("answer_s", mixed.answer_s(), n);
            out.set("peak_rss_mb", alone.peak_rss_mb, 1);
        }
    }
    out
}

/// The traced pass: per-layer metrics, and the trace file.
fn layer_pass(w: &Workload, a: &Args, tally: &mut Tally) -> MetricSet {
    let rec = Recorder::new(true);
    let mut out = MetricSet::new(spec::per_layer());
    let (p, generate_s, prepare_s) = cells::setup(w, a.seed, a.size, &rec);
    out.set("graph.generate_s", generate_s, 1);
    out.set("core.prepare_s", prepare_s, 1);
    print_sizing(&p);
    probes::graph_layer(&p, a.seed, &rec, &mut out);

    // Untraced medians first: the traced pass is read against them.
    let samples = cells::sample(&p, w.problems, a.seconds * 0.4, rounds(a.size), &rec, tally);
    print_cells(w, &samples);
    let traces = cells::traced_pass(&p, w.problems, &samples, &rec, tally);
    layers::core_layer(&p, w.problems, &samples, &rec, &mut out);
    layers::traced_layer(&traces, &samples, &mut out);
    probes::graphblas_layer(&p, &rec, &mut out);
    probes::galois_layer(&rec, &mut out);
    probes::host_layer(a.size, &rec, &mut out);

    if w.service {
        let edge_ops = svc::edge_sets(&p, a.seed);
        let (live, mut clients) = svc::bring_up(p.clone(), edge_ops, a.seed, &rec);
        svc::service_layer(&live, &p, &rec, &mut out);
        let (alone, mixed) = svc::run_phases(&live, &mut clients, a.seconds, &rec, tally);
        let drain = svc::tear_down(live, clients);
        check_drain(drain, tally);
        print!("{}", mixed.table());
        svc::phase_metrics(&alone, &mixed, drain, &mut out);
    } else {
        // The service is not on a cell workload's path.
        out.zero_unset("service.");
    }

    let mut trace = Json::obj();
    trace
        .push("schema", "benchmark/trace/v1")
        .push("workload", w.name)
        .push("seed", a.seed)
        .push("threads", host::threads())
        .push("cells", layers::cells_json(w.problems, &traces, &samples))
        .push("spans", rec.to_json());
    let path = format!("{OUT_DIR}/trace-{}.json", w.name);
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace.pretty())) {
        Ok(()) => println!("  trace written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    out
}

/// Runs one workload in this process; returns how many operations
/// missed.
fn run_workload(w: &Workload, a: &Args) -> u64 {
    println!(
        "== workload {}  seed {}  threads {}  seconds {} ==",
        w.name,
        a.seed,
        host::threads(),
        a.seconds
    );
    let mut tally = Tally::default();
    let end_to_end = (a.trace != Some(true)).then(|| end_to_end_pass(w, a, &mut tally));
    let per_layer = (a.trace != Some(false)).then(|| layer_pass(w, a, &mut tally));
    if let Some(set) = &end_to_end {
        print!("  end-to-end metrics (tracing off):\n{}", set.table());
    }
    if let Some(set) = &per_layer {
        print!(
            "  per-layer metrics (traced pass; n=0 marks a layer off this workload's path):\n{}",
            set.table()
        );
    }
    let sets: Vec<&MetricSet> = end_to_end.iter().chain(&per_layer).collect();
    println!("{}", result_line(tally.attempted, tally.failed, &sets));
    tally.failed
}

/// Runs one workload in a process of its own, as the driver does — so
/// `peak_rss_mb` and the allocator start clean for each — echoing its
/// output and returning its parsed result line.
fn run_child(w: &Workload, a: &Args) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args([
            "--size",
            if a.size == Size::Full {
                "full"
            } else {
                "smoke"
            },
        ]);
    if let Some(trace) = a.trace {
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{} printed no result ({})", w.name, out.status))
}

/// Runs the full set twice and compares: every end-to-end metric must
/// agree within its bound, and the traced counts are listed as
/// repeating exactly or not.
fn check_repeat(workloads: &[&Workload], a: &Args) -> Result<bool, String> {
    let run_set = || {
        workloads
            .iter()
            .map(|w| run_child(w, a))
            .collect::<Result<Vec<_>, _>>()
    };
    let (first, second) = (run_set()?, run_set()?);
    let bounds = spec::end_to_end();
    let mut ok = true;
    println!("== check-repeat: second set against first ==");
    for ((w, x), y) in workloads.iter().zip(&first).zip(&second) {
        let (mut exact, mut moved) = (Vec::new(), Vec::new());
        for ((name, _, v1), (_, _, v2)) in x.metrics.iter().zip(&y.metrics) {
            if let Some(bound) = bounds
                .iter()
                .find(|d| &d.name == name)
                .and_then(|d| d.bound)
            {
                let diff = (v2 - v1).abs() / v1;
                let verdict = if diff <= bound { "within" } else { "OUTSIDE" };
                ok &= diff <= bound;
                println!(
                    "  {:<14} {name:<12} {v1:>12.5} -> {v2:>12.5}  diff {:>6.2}%  bound {:>3.0}%  {verdict}",
                    w.name,
                    diff * 100.0,
                    bound * 100.0
                );
            } else if spec::EXACT_COUNTS.iter().any(|c| name.starts_with(c)) {
                if v1 == v2 {
                    exact.push(name.as_str());
                } else {
                    moved.push(format!("{name} ({v1} -> {v2})"));
                }
            }
        }
        println!(
            "  {:<14} traced counts repeating exactly: {}",
            w.name,
            exact.join(" ")
        );
        println!(
            "  {:<14} traced counts that did not repeat: {}",
            w.name,
            if moved.is_empty() {
                "none".to_string()
            } else {
                moved.join(", ")
            }
        );
        ok &= x.failed + y.failed == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-manifest"] {
        print!("{}", spec::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::refuse_ambient_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    galois_rt::set_threads(host::threads());
    let workloads: Vec<&Workload> = match spec::workload(&a.workload) {
        Some(w) => vec![w],
        None => spec::WORKLOADS.iter().collect(),
    };
    // One workload runs here; several run in a process each, like the
    // driver's runs.
    let ok = match (a.check_repeat, workloads.as_slice()) {
        (false, [w]) => Ok(run_workload(w, &a) == 0),
        (false, all) => all
            .iter()
            .map(|w| run_child(w, &a).map(|r| r.failed == 0))
            // Collected first, so every workload runs even after a miss.
            .collect::<Result<Vec<bool>, String>>()
            .map(|oks| oks.iter().all(|&ok| ok)),
        (true, all) => check_repeat(all, &a),
    };
    let ok = ok.unwrap_or_else(|e| {
        eprintln!("{e}");
        false
    });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Smoke test: tiny graphs, one sample per cell, 3 s of service phases.
//! Holds `BENCHMARK.json`, `spec` and what the binary prints together.

use benchmark::report::parse_result_line;
use benchmark::spec::{self, Size};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

/// A directory of the test's own to run the benchmark from: the traced
/// pass writes `benchmark/out/trace-<workload>.json` under it.
fn run_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("a directory under the target directory");
    dir
}

/// `(name, unit)` of every metric on a result line, in order.
fn metrics_of(line: &str) -> Vec<(String, String)> {
    let parsed = parse_result_line(line).unwrap_or_else(|| panic!("not a result line: {line}"));
    assert!(parsed.metrics.iter().all(|m| m.2.is_finite()));
    parsed.metrics.into_iter().map(|m| (m.0, m.1)).collect()
}

#[test]
fn benchmark_json_is_the_spec_printed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo");
    let on_disk = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        spec::manifest().pretty(),
        "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --print-manifest > BENCHMARK.json"
    );
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let dir = run_dir("every_workload");
    let out = Command::new(BIN)
        .args([
            "--workload",
            "all",
            "--seed",
            "7",
            "--size",
            "smoke",
            "--seconds",
            "3",
        ])
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let declared: Vec<(String, String)> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .map(|d| (d.name, d.unit.to_string()))
        .collect();
    let headers: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("== workload "))
        .map(|l| l.split_whitespace().next().expect("a workload name"))
        .collect();
    assert_eq!(
        headers,
        spec::WORKLOADS.map(|w| w.name),
        "every workload ran, and nothing else"
    );
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .collect();
    assert_eq!(results.len(), spec::WORKLOADS.len());
    for (w, line) in spec::WORKLOADS.iter().zip(results) {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{}: {line}",
            w.name
        );
        assert!(
            line.contains(", \"failed\": 0, \"metrics\": {"),
            "{}: {line}",
            w.name
        );
        assert_eq!(
            metrics_of(line),
            declared,
            "{} emits the declared metrics, in order, and nothing else",
            w.name
        );
        let trace = dir.join(format!("benchmark/out/trace-{}.json", w.name));
        let trace = std::fs::read_to_string(trace).expect("the traced pass wrote its spans");
        assert!(trace.contains("\"self_ns\"") && trace.contains("\"trace_summary\""));
    }
}

#[test]
fn trace_flag_selects_one_metric_set() {
    for (flag, defs) in [("0", spec::end_to_end()), ("1", spec::per_layer())] {
        let out = Command::new(BIN)
            .args([
                "--workload",
                "rounds-road",
                "--seed",
                "3",
                "--size",
                "smoke",
                "--seconds",
                "1",
            ])
            .args(["--trace", flag])
            .current_dir(run_dir("trace_flag"))
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let names: Vec<String> = metrics_of(stdout.lines().last().expect("a result line"))
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(
            names,
            defs.into_iter().map(|d| d.name).collect::<Vec<_>>(),
            "--trace {flag}"
        );
    }
}

#[test]
fn ambient_knobs_are_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "pr-skew", "--seed", "1", "--size", "smoke"])
        .env("STUDY_KERNEL", "pull")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("STUDY_KERNEL"));
}

#[test]
fn the_seed_decides_the_graph() {
    for w in &spec::WORKLOADS {
        let a = (w.generate)(11, Size::Smoke).graph;
        let b = (w.generate)(11, Size::Smoke).graph;
        let c = (w.generate)(12, Size::Smoke).graph;
        let parts = |g: &graph::CsrGraph| {
            (
                g.offsets().to_vec(),
                g.dests().to_vec(),
                g.weights().map(<[u32]>::to_vec),
            )
        };
        assert_eq!(
            parts(&a),
            parts(&b),
            "{}: the same seed reproduces the graph bit for bit",
            w.name
        );
        assert_ne!(
            parts(&a),
            parts(&c),
            "{}: another seed gives another graph",
            w.name
        );
    }
}

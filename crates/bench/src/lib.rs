#![warn(missing_docs)]

//! Shared harness for the reproduce binaries (one binary per table and
//! figure of the paper; see DESIGN.md §4 for the index).
//!
//! Environment knobs:
//!
//! * `STUDY_SCALE` — multiplier on the default study scale (default
//!   `0.25`; `1.0` matches DESIGN.md's ~1/1000-of-paper edge counts,
//!   smaller values keep a full Table II sweep in single-digit minutes on
//!   one core).
//! * `STUDY_REPEATS` — timed repetitions per cell, reporting the average
//!   as the paper does (default `1`; the paper used 3).
//! * `STUDY_GRAPHS` — comma-separated subset of graph names to run.

use std::time::Duration;
use study_core::PreparedGraph;

pub mod service_load;

pub use graph::{Scale, StudyGraph};

/// Parses a `STUDY_SCALE` value: a positive finite multiplier.
///
/// # Errors
///
/// Returns the message the env reader panics with.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.trim().parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => Ok(Scale::custom(f)),
        _ => Err(format!("STUDY_SCALE must be a positive number; got {s:?}")),
    }
}

/// Reads the scale multiplier from `STUDY_SCALE` (default `0.25`).
///
/// # Panics
///
/// Panics when the variable is set to anything [`parse_scale`] rejects.
pub fn scale_from_env() -> Scale {
    match std::env::var("STUDY_SCALE") {
        Ok(v) => parse_scale(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => Scale::custom(0.25),
    }
}

/// Parses a `STUDY_REPEATS` value: a positive repetition count.
///
/// # Errors
///
/// Returns the message the env reader panics with.
pub fn parse_repeats(s: &str) -> Result<u32, String> {
    match s.trim().parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "STUDY_REPEATS must be a positive integer; got {s:?}"
        )),
    }
}

/// Reads the repetition count from `STUDY_REPEATS` (default `1`).
///
/// # Panics
///
/// Panics when the variable is set to anything [`parse_repeats`] rejects.
pub fn repeats_from_env() -> u32 {
    match std::env::var("STUDY_REPEATS") {
        Ok(v) => parse_repeats(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => 1,
    }
}

/// Parses a `STUDY_GRAPHS` value: a comma-separated, case-insensitive
/// list of Table I graph names. The result is in Table I order without
/// duplicates, whatever order the list names them in.
///
/// # Errors
///
/// Returns the message the env reader panics with: on a name that is
/// not a study graph, and on a list that names none (either would
/// otherwise shrink the sweep silently, down to an empty one that
/// "passes").
pub fn parse_graphs(s: &str) -> Result<Vec<StudyGraph>, String> {
    let all = StudyGraph::all();
    let mut picked = Vec::new();
    for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        match all.iter().find(|g| g.name().eq_ignore_ascii_case(name)) {
            Some(&g) => picked.push(g),
            None => {
                let known: Vec<&str> = all.iter().map(StudyGraph::name).collect();
                return Err(format!(
                    "STUDY_GRAPHS must list names from {}; got {name:?}",
                    known.join(", ")
                ));
            }
        }
    }
    if picked.is_empty() {
        return Err(format!(
            "STUDY_GRAPHS must name at least one graph; got {s:?}"
        ));
    }
    Ok(all.into_iter().filter(|g| picked.contains(g)).collect())
}

/// The graphs selected by `STUDY_GRAPHS` (all nine by default).
///
/// # Panics
///
/// Panics when the variable is set to anything [`parse_graphs`] rejects.
pub fn graphs_from_env() -> Vec<StudyGraph> {
    match std::env::var("STUDY_GRAPHS") {
        Ok(v) => parse_graphs(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => StudyGraph::all().to_vec(),
    }
}

/// Catalog names of the graphs [`prepare_graphs`] would prepare,
/// without preparing them (cheap — for pointing clients at a server).
pub fn prepare_graph_names() -> Vec<String> {
    graphs_from_env().iter().map(|g| g.name().to_string()).collect()
}

/// Builds and prepares the selected graphs, echoing progress to stderr.
///
/// With `STUDY_CACHE_DIR` set, generated graphs are cached as binary CSR
/// files keyed by name and scale, so repeated runs skip regeneration.
pub fn prepare_graphs(scale: Scale) -> Vec<PreparedGraph> {
    let cache_dir = std::env::var("STUDY_CACHE_DIR").ok();
    graphs_from_env()
        .into_iter()
        .map(|which| {
            eprintln!("[prepare] {} ...", which.name());
            let graph = match &cache_dir {
                Some(dir) => load_or_generate(dir, which, scale),
                None => which.build(scale),
            };
            let source = which.source(&graph);
            PreparedGraph::from_graph(
                which.name(),
                graph,
                source,
                which.ktruss_k(),
                which.sssp_delta(),
            )
        })
        .collect()
}

fn load_or_generate(dir: &str, which: StudyGraph, scale: Scale) -> graph::CsrGraph {
    let path = std::path::Path::new(dir).join(format!("{}-{:?}.bin", which.name(), scale));
    if let Ok(file) = std::fs::File::open(&path) {
        if let Ok(g) = graph::io::read_binary(file) {
            return g;
        }
        eprintln!("[cache] ignoring unreadable {}", path.display());
    }
    let g = which.build(scale);
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(file) = std::fs::File::create(&path) {
            if graph::io::write_binary(&g, file).is_err() {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    g
}

/// Averages `repeats` timed executions of `f` (discarding outputs after
/// the first, which is returned for verification).
pub fn timed_avg<T>(repeats: u32, mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let (mut total, first) = f();
    for _ in 1..repeats {
        total += f().0;
    }
    (total / repeats, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // These read the live environment; just check they do not panic
        // and produce sane defaults when unset.
        let _ = scale_from_env();
        assert!(repeats_from_env() >= 1);
        assert!(!graphs_from_env().is_empty());
    }

    #[test]
    fn parse_scale_accepts_positive_numbers_only() {
        assert_eq!(parse_scale("0.03").unwrap().factor(), 0.03);
        assert_eq!(parse_scale(" 2 ").unwrap().factor(), 2.0);
        for bad in ["", "fast", "0", "-1", "inf", "NaN", "0.5x"] {
            let e = parse_scale(bad).unwrap_err();
            assert!(
                e.starts_with("STUDY_SCALE must be") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    #[test]
    fn parse_repeats_accepts_positive_integers_only() {
        assert_eq!(parse_repeats("3"), Ok(3));
        for bad in ["", "0", "-2", "1.5", "three"] {
            let e = parse_repeats(bad).unwrap_err();
            assert!(
                e.starts_with("STUDY_REPEATS must be") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    #[test]
    fn parse_graphs_rejects_unknown_names_and_empty_lists() {
        // Table I order, case-insensitive, duplicates collapsed.
        assert_eq!(
            parse_graphs("uk07, RMAT22,rmat22,").unwrap(),
            vec![StudyGraph::Rmat22, StudyGraph::Uk07]
        );
        let e = parse_graphs("rmat22,rmat2").unwrap_err();
        assert!(
            e.starts_with("STUDY_GRAPHS must list") && e.ends_with("got \"rmat2\""),
            "{e}"
        );
        for empty in ["", " ", ",,"] {
            let e = parse_graphs(empty).unwrap_err();
            assert!(e.starts_with("STUDY_GRAPHS must name at least one"), "{e}");
        }
    }

    #[test]
    fn graph_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("study-cache-test-{}", std::process::id()));
        let dir = dir.to_string_lossy().to_string();
        let scale = Scale::custom(1.0 / 256.0);
        let fresh = load_or_generate(&dir, StudyGraph::Rmat22, scale);
        let cached = load_or_generate(&dir, StudyGraph::Rmat22, scale);
        assert_eq!(fresh, cached, "cache must return the generated graph");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timed_avg_averages() {
        let mut calls = 0u32;
        let (avg, out) = timed_avg(4, || {
            calls += 1;
            (Duration::from_millis(10), calls)
        });
        assert_eq!(calls, 4);
        assert_eq!(out, 1, "first output is kept");
        assert_eq!(avg, Duration::from_millis(10));
    }
}

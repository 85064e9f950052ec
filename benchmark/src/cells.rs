//! (problem × system) cells on one prepared graph: set-up, untraced
//! sampling with the correctness gate, and the traced pass.

use crate::spans::Recorder;
use crate::spec::{Size, Workload};
use crate::stats;
use graph::OrderMode;
use perfmon::trace::{OpKind, Trace, TraceSummary};
use std::collections::BTreeMap;
use std::time::Instant;
use study_core::verify::{same_partition, verify};
use study_core::{traced_run, try_run, PreparedGraph, Problem, ProblemOutput, System};

/// Delta-stepping Δ of every workload (§IV of the paper: 2^13).
const SSSP_DELTA: u64 = 1 << 13;

/// Requests or cells attempted, and those that failed, timed out, were
/// rejected or came back wrong or unverified.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that missed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a miss is reported on stderr.
    pub fn record(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {}: {e}", what());
        }
    }
}

/// Id shared by the spans of one cell (0 is "no cell").
pub fn cell_id(problems: &[Problem], problem: Problem, system: System) -> u32 {
    let p = problems
        .iter()
        .position(|&x| x == problem)
        .expect("problem of this workload");
    let s = System::all()
        .iter()
        .position(|&x| x == system)
        .expect("one of three systems");
    (p * 3 + s + 1) as u32
}

/// Generates and prepares `w`'s graph: what `setup_s` times (the
/// service workload adds start + publish on top). Returns the prepared
/// graph with the seconds spent generating and preparing.
pub fn setup(w: &Workload, seed: u64, size: Size, rec: &Recorder) -> (PreparedGraph, f64, f64) {
    let (input, generate_s) = rec.time("graph.generate", 0, || (w.generate)(seed, size));
    let (p, prepare_s) = rec.time("core.prepare", 0, || {
        PreparedGraph::from_graph_ordered(
            w.name,
            input.graph,
            input.source,
            input.ktruss_k,
            SSSP_DELTA,
            OrderMode::Natural,
        )
    });
    (p, generate_s, prepare_s)
}

/// Compares a sample's output with the verified first sample: exact for
/// bfs/sssp/tc/ktruss, same partition for cc, 1e-9 relative for pr.
fn matches_verified(out: &ProblemOutput, verified: &ProblemOutput) -> Result<(), String> {
    let same = match (out, verified) {
        (ProblemOutput::Ranks(a), ProblemOutput::Ranks(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1e-12))
        }
        (ProblemOutput::Components(a), ProblemOutput::Components(b)) => same_partition(a, b),
        (a, b) => a == b,
    };
    if same {
        Ok(())
    } else {
        Err("output differs from the verified first sample".to_string())
    }
}

/// Untraced timings of one workload's cells.
#[derive(Debug, Default)]
pub struct Samples {
    /// `try_run` seconds per cell, warm-up excluded.
    pub solve: BTreeMap<(Problem, System), Vec<f64>>,
    /// `verify::verify` seconds per problem, warm-up excluded.
    pub verify: BTreeMap<Problem, Vec<f64>>,
    /// The first fully verified output of each problem.
    pub verified: BTreeMap<Problem, ProblemOutput>,
}

impl Samples {
    /// Σ over `problems` of the median timed solve on `system`.
    pub fn solve_s(&self, problems: &[Problem], system: System) -> f64 {
        problems
            .iter()
            .map(|&p| stats::median(&self.solve[&(p, system)]))
            .sum()
    }

    /// Σ over `problems` of the median `verify::verify`.
    pub fn verify_s(&self, problems: &[Problem]) -> f64 {
        problems
            .iter()
            .map(|p| stats::median(&self.verify[p]))
            .sum()
    }

    /// Timed rounds taken (every cell has this many samples).
    pub fn rounds(&self) -> usize {
        self.solve.values().map(Vec::len).min().unwrap_or(0)
    }
}

/// Runs every cell once, tracing off. In the warm-up round all three
/// systems' outputs go through `verify::verify` and no time is kept; a
/// timed round fully verifies one system's output per problem,
/// rotating, and compares the other two with the verified first sample.
fn one_round(
    p: &PreparedGraph,
    problems: &[Problem],
    round: usize,
    rec: &Recorder,
    tally: &mut Tally,
    s: &mut Samples,
) {
    let warmup = round == 0;
    for &problem in problems {
        for (si, system) in System::all().into_iter().enumerate() {
            let cell = cell_id(problems, problem, system);
            let (out, secs) = rec.time(&format!("solve.{problem}.{system}"), cell, || {
                try_run(system, problem, p)
            });
            let check = out.map_err(|e| e.to_string()).and_then(|out| {
                if warmup || si == round % 3 {
                    let (ok, vsecs) = rec.time(&format!("core.verify.{problem}"), cell, || {
                        verify(p, problem, &out).map_err(|e| e.message)
                    });
                    if !warmup {
                        s.verify.entry(problem).or_default().push(vsecs);
                    }
                    if ok.is_ok() {
                        s.verified.entry(problem).or_insert(out);
                    }
                    ok
                } else {
                    match s.verified.get(&problem) {
                        Some(v) => matches_verified(&out, v),
                        None => Err("no verified first sample to compare with".to_string()),
                    }
                }
            });
            tally.record(|| format!("{problem} on {system}, round {round}"), check);
            if !warmup {
                s.solve.entry((problem, system)).or_default().push(secs);
            }
        }
    }
}

/// One discarded warm-up round, then timed rounds until `budget_s` has
/// passed (at least `min_rounds`, at most `max_rounds`).
pub fn sample(
    p: &PreparedGraph,
    problems: &[Problem],
    budget_s: f64,
    (min_rounds, max_rounds): (usize, usize),
    rec: &Recorder,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    one_round(p, problems, 0, rec, tally, &mut s);
    let started = Instant::now();
    for round in 1..=max_rounds {
        one_round(p, problems, round, rec, tally, &mut s);
        if round >= min_rounds && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    s
}

/// Self-time families the GraphBLAS op spans are folded into.
pub const OP_FAMILIES: [&str; 5] = ["vxm_mxv", "mxm", "ewise", "apply_assign", "reduce_select"];

fn op_family(kind: OpKind) -> usize {
    match kind {
        OpKind::Vxm | OpKind::Mxv => 0,
        OpKind::Mxm => 1,
        OpKind::EwiseAdd | OpKind::EwiseMult | OpKind::EwiseAddMatrix | OpKind::EwiseMultMatrix => {
            2
        }
        OpKind::Apply
        | OpKind::ApplyInplace
        | OpKind::ApplyMatrix
        | OpKind::AssignScalar
        | OpKind::Extract => 3,
        OpKind::ReduceVector
        | OpKind::ReduceMatrix
        | OpKind::ReduceRows
        | OpKind::SelectVector
        | OpKind::SelectMatrix => 4,
    }
}

/// What one traced cell reported.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The cell's problem.
    pub problem: Problem,
    /// The cell's system.
    pub system: System,
    /// Wall seconds of the traced run.
    pub wall_s: f64,
    /// The program's own aggregate of its spans.
    pub summary: TraceSummary,
    /// Σ `OpSpan.elapsed_ns` per entry of [`OP_FAMILIES`].
    pub family_ns: [u64; 5],
    /// Σ `LoopSpan.elapsed_ns`.
    pub loop_ns: u64,
}

impl CellTrace {
    fn new(problem: Problem, system: System, wall_s: f64, trace: &Trace) -> CellTrace {
        let mut family_ns = [0u64; 5];
        for op in trace.ops() {
            family_ns[op_family(op.kind)] += op.elapsed_ns;
        }
        CellTrace {
            problem,
            system,
            wall_s,
            summary: trace.summary(),
            family_ns,
            loop_ns: trace.loops().map(|l| l.elapsed_ns).sum(),
        }
    }
}

/// The traced pass: one `traced_run` per cell, each output compared
/// with the verified sample of the untraced rounds.
pub fn traced_pass(
    p: &PreparedGraph,
    problems: &[Problem],
    samples: &Samples,
    rec: &Recorder,
    tally: &mut Tally,
) -> Vec<CellTrace> {
    let mut cells = Vec::new();
    for &problem in problems {
        for system in System::all() {
            let cell = cell_id(problems, problem, system);
            let (m, wall_s) = rec.time(&format!("traced.{problem}.{system}"), cell, || {
                traced_run(system, problem, p)
            });
            let check = match samples.verified.get(&problem) {
                Some(v) => matches_verified(&m.output, v),
                None => Err("no verified sample to compare with".to_string()),
            };
            tally.record(|| format!("traced {problem} on {system}"), check);
            cells.push(CellTrace::new(problem, system, wall_s, &m.trace));
        }
    }
    cells
}

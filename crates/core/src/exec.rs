//! The one job executor.
//!
//! Every caller — the `study` CLI, the reproduce binaries, the service,
//! the examples and the tests — describes its work as a [`Job`] and
//! hands it to [`execute`]. One isolation boundary ([`run_protected`])
//! runs fixed stages in a fixed order: the `cell.run` / `cell.hang`
//! fault points → `catch_unwind`, plus the deadline thread when
//! [`Job::timeout`] is set → install [`Job::policy`] on the thread that
//! runs the job → run, under [`perfmon::trace::with_trace`] iff
//! [`Job::trace`] → verify every ok lane iff [`Job::verify`] → the
//! [`JobOutcome`].
//!
//! A job has one *lane* per query: a cell or a variant is one lane, a
//! batch one lane per source. A per-lane [`GrbError`] costs only its
//! lane; a panic or a blown deadline costs the job. A wrong answer is a
//! [`CellStatus::Failed`] lane with `verification failed: …` that keeps
//! its output. The executor reads no environment.

use crate::batch::{self, BatchProblem};
use crate::cell::{outcome_from_result, run_protected, CellOutcome, CellStatus};
use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput, System, Variant};
use crate::runner;
use crate::verify::{verify, VerifyError};
use graph::NodeId;
use graphblas::ops::{with_policy, Policy};
use graphblas::GrbError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a job computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    /// One (system, problem) cell of Table II.
    Cell(System, Problem),
    /// One Figure 3 variant.
    Variant(Variant),
    /// One batched query per source on one system.
    Batch(System, BatchProblem, Vec<NodeId>),
}

impl Work {
    /// The run stage: one result per lane.
    fn solve(&self, p: &PreparedGraph) -> Vec<Result<ProblemOutput, GrbError>> {
        match *self {
            Work::Cell(system, problem) => vec![runner::try_run(system, problem, p)],
            Work::Variant(variant) => vec![runner::try_run_variant(variant, p)],
            Work::Batch(system, problem, ref sources) => batch::solve(system, problem, p, sources),
        }
    }

    /// The verify stage for lane `lane`'s output.
    fn check(
        &self,
        p: &PreparedGraph,
        lane: usize,
        output: &ProblemOutput,
    ) -> Result<(), VerifyError> {
        match *self {
            Work::Cell(_, problem) => verify(p, problem, output),
            Work::Variant(variant) => verify(p, variant.problem(), output),
            Work::Batch(_, problem, ref sources) => {
                batch::verify_batch_query(p, problem, sources[lane], output)
            }
        }
    }
}

/// One unit of work plus the options of the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// What to compute.
    pub work: Work,
    /// Check every ok lane against the serial reference.
    pub verify: bool,
    /// Record the run stage's op/loop spans into [`JobOutcome::trace`].
    pub trace: bool,
    /// Abandon the job after this long (`None`: run inline, no deadline).
    pub timeout: Option<Duration>,
    /// The kernel and budget policy the run stage runs under (a process
    /// edge passes [`Policy::from_env`]).
    pub policy: Policy,
}

impl Job {
    /// `work` with every option off: unverified, untraced, no deadline,
    /// the default policy.
    /// Turn options on with struct update syntax:
    /// `Job { verify: true, ..Job::new(work) }`.
    pub fn new(work: Work) -> Job {
        Job {
            work,
            verify: false,
            trace: false,
            timeout: None,
            policy: Policy::default(),
        }
    }
}

/// How one job ended.
#[derive(Debug)]
pub struct JobOutcome {
    /// How the isolation boundary ended: [`CellStatus::Ok`], or
    /// `Failed` (a panic) / `Timeout`, which cost every lane.
    pub status: CellStatus,
    /// The job-level failure message (`None` iff `status` is ok).
    pub error: Option<String>,
    /// One outcome per query, in query order. A failed job repeats its
    /// status and error in every lane. A lane that failed verification
    /// is `Failed` and still carries its output.
    pub lanes: Vec<CellOutcome<ProblemOutput>>,
    /// Wall-clock time of the run stage (zero if the job failed).
    pub solve: Duration,
    /// Wall-clock time of the verify stage (zero if unverified).
    pub verify: Duration,
    /// The run stage's spans, iff the job asked for a trace and ended ok.
    pub trace: Option<perfmon::trace::Trace>,
}

impl JobOutcome {
    /// Whether the job and every lane ended ok — for a verified job,
    /// whether every answer is right.
    pub fn is_ok(&self) -> bool {
        self.status == CellStatus::Ok && self.lanes.iter().all(CellOutcome::is_ok)
    }
}

/// Executes one job over a prepared graph (see the module docs for the
/// stage order).
///
/// The graph is shared via [`Arc`] because a timed-out job's thread is
/// abandoned and must keep its operands alive on its own.
pub fn execute(job: &Job, p: &Arc<PreparedGraph>) -> JobOutcome {
    let (inner, shared) = (job.clone(), Arc::clone(p));
    let boundary = run_protected(job.timeout, move || {
        Ok(with_policy(inner.policy, || stages(&inner, &shared)))
    });
    let queries = match &job.work {
        Work::Batch(_, _, sources) => sources.len(),
        Work::Cell(..) | Work::Variant(_) => 1,
    };
    boundary.value.unwrap_or_else(|| JobOutcome {
        lanes: (0..queries)
            .map(|_| CellOutcome {
                status: boundary.status,
                error: boundary.error.clone(),
                value: None,
            })
            .collect(),
        status: boundary.status,
        error: boundary.error,
        solve: Duration::ZERO,
        verify: Duration::ZERO,
        trace: None,
    })
}

/// Run, then verify, inside the boundary.
fn stages(job: &Job, p: &PreparedGraph) -> JobOutcome {
    let start = Instant::now();
    let (results, trace) = if job.trace {
        let (results, trace) = perfmon::trace::with_trace(|| job.work.solve(p));
        (results, Some(trace))
    } else {
        (job.work.solve(p), None)
    };
    let solve = start.elapsed();
    let start = Instant::now();
    let lanes = results
        .into_iter()
        .enumerate()
        .map(|(i, result)| {
            let mut lane = outcome_from_result(result);
            if let (true, Some(output)) = (job.verify, &lane.value) {
                if let Err(e) = job.work.check(p, i, output) {
                    lane.status = CellStatus::Failed;
                    lane.error = Some(format!("verification failed: {e}"));
                }
            }
            lane
        })
        .collect();
    JobOutcome {
        status: CellStatus::Ok,
        error: None,
        lanes,
        solve,
        verify: start.elapsed(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Scale, StudyGraph};

    fn study(which: StudyGraph) -> Arc<PreparedGraph> {
        Arc::new(PreparedGraph::study(which, Scale::custom(1.0 / 128.0)))
    }

    /// The single lane's output of an ok job.
    fn output(outcome: JobOutcome) -> ProblemOutput {
        assert!(outcome.is_ok(), "{:?}", outcome.lanes[0].error);
        outcome.lanes.into_iter().next().unwrap().value.unwrap()
    }

    #[test]
    fn baseline_variants_answer_exactly_as_their_cells() {
        let baselines: Vec<Variant> = [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp]
            .into_iter()
            .flat_map(|problem| Variant::panel(problem).iter().copied())
            .filter(|v| v.cell().is_some())
            .collect();
        assert_eq!(baselines.len(), 8, "one ls and one gb baseline per panel");
        for p in [study(StudyGraph::RoadUsa), study(StudyGraph::Indochina04)] {
            for &variant in &baselines {
                let (system, problem) = variant.cell().unwrap();
                assert_eq!(problem, variant.problem());
                let via_variant = output(execute(&Job::new(Work::Variant(variant)), &p));
                let via_cell = output(execute(&Job::new(Work::Cell(system, problem)), &p));
                assert_eq!(via_variant, via_cell, "{} on {}", variant.name(), p.name);
            }
        }
    }

    #[test]
    fn a_wrong_answer_is_one_failed_lane_that_keeps_its_output() {
        // LS tc counts over `sorted`, the reference over `symmetric`:
        // another graph's sorted view makes the count wrong.
        let mut wrong = PreparedGraph::clone(&study(StudyGraph::Indochina04));
        wrong.sorted = study(StudyGraph::Rmat22).sorted.clone();
        let p = Arc::new(wrong);
        let work = Work::Cell(System::Lonestar, Problem::Tc);
        let unverified = output(execute(&Job::new(work.clone()), &p));
        let out = execute(&Job { verify: true, ..Job::new(work) }, &p);
        assert_eq!(out.status, CellStatus::Ok, "the job itself ran fine");
        assert!(out.error.is_none() && !out.is_ok() && out.lanes.len() == 1);
        let lane = &out.lanes[0];
        assert_eq!(lane.status, CellStatus::Failed);
        let msg = lane.error.as_deref().unwrap_or_default();
        assert!(msg.starts_with("verification failed: triangle count"), "{msg}");
        assert_eq!(lane.value.as_ref(), Some(&unverified), "the output is kept");
    }
}

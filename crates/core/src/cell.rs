//! Cell-isolated execution for study sweeps.
//!
//! A study sweep runs hundreds of (problem, system, graph) *cells*;
//! one panicking operator, exhausted memory budget or wedged loop must
//! cost that cell, not the sweep. [`run_protected`] is the isolation
//! boundary: it executes a cell body under `catch_unwind`, optionally
//! bounded by the `STUDY_CELL_TIMEOUT_MS` watchdog, and reduces every
//! way a cell can end to a [`CellStatus`] — the `ok|failed|timeout|oom`
//! axis.
//!
//! Two fault points target this layer: `cell.run` (panics the cell body;
//! `cell.run:nth=K` selects exactly the K-th cell of a sweep as the
//! victim) and `cell.hang` (sleeps the body so a configured timeout
//! trips).

use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput, System};
use crate::runner;
use graphblas::GrbError;
use std::sync::Arc;
use std::time::Duration;

/// How a cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The body completed and returned a value.
    Ok,
    /// The body returned a non-memory error or panicked.
    Failed,
    /// The body outlived the `STUDY_CELL_TIMEOUT_MS` watchdog.
    Timeout,
    /// The body returned [`GrbError::ResourceExhausted`].
    Oom,
}

impl CellStatus {
    /// The status as a lowercase string (`ok|failed|timeout|oom`).
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Timeout => "timeout",
            CellStatus::Oom => "oom",
        }
    }
}

impl CellStatus {
    /// Parses the schema string back into a status — the inverse of
    /// [`CellStatus::name`], used by service clients decoding wire
    /// responses.
    pub fn from_name(name: &str) -> Option<CellStatus> {
        match name {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            "timeout" => Some(CellStatus::Timeout),
            "oom" => Some(CellStatus::Oom),
            _ => None,
        }
    }
}

impl std::fmt::Display for CellStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The recorded end of one protected cell.
#[derive(Debug)]
pub struct CellOutcome<T> {
    /// How the cell ended.
    pub status: CellStatus,
    /// Human-readable failure message (`None` iff the status is ok).
    pub error: Option<String>,
    /// The body's value (`Some` iff the status is ok).
    pub value: Option<T>,
}

impl<T> CellOutcome<T> {
    /// Whether the cell completed normally.
    pub fn is_ok(&self) -> bool {
        self.status == CellStatus::Ok
    }

    /// Maps the carried value, preserving status and error — the shape
    /// a service layer needs to turn a raw cell result into a wire
    /// response without re-deriving the outcome axis.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> CellOutcome<U> {
        CellOutcome {
            status: self.status,
            error: self.error,
            value: self.value.map(f),
        }
    }
}

/// The per-cell watchdog timeout from `STUDY_CELL_TIMEOUT_MS`
/// (milliseconds; unset, empty or `0` disables).
///
/// # Panics
///
/// Panics when the variable is set to a non-integer.
pub fn cell_timeout_from_env() -> Option<Duration> {
    match std::env::var("STUDY_CELL_TIMEOUT_MS") {
        Ok(v) if !v.trim().is_empty() => {
            let ms: u64 = v.trim().parse().unwrap_or_else(|e| {
                panic!("STUDY_CELL_TIMEOUT_MS must be milliseconds, got {v:?}: {e}")
            });
            (ms > 0).then(|| Duration::from_millis(ms))
        }
        _ => None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Maps one fallible result onto the `ok|failed|oom` axis — the
/// per-query reduction of a batched cell, where each query of a
/// [`crate::batch`] sweep carries its own `Result` and must get its own
/// status (one query's oom must not poison its batch siblings).
pub(crate) fn outcome_from_result<T>(result: Result<T, GrbError>) -> CellOutcome<T> {
    match result {
        Ok(value) => CellOutcome {
            status: CellStatus::Ok,
            error: None,
            value: Some(value),
        },
        Err(e) => CellOutcome {
            status: match e {
                GrbError::ResourceExhausted { .. } => CellStatus::Oom,
                _ => CellStatus::Failed,
            },
            error: Some(e.to_string()),
            value: None,
        },
    }
}

fn outcome_of<T>(
    result: Result<Result<T, GrbError>, Box<dyn std::any::Any + Send>>,
) -> CellOutcome<T> {
    match result {
        Ok(inner) => outcome_from_result(inner),
        Err(payload) => CellOutcome {
            status: CellStatus::Failed,
            error: Some(panic_message(payload.as_ref())),
            value: None,
        },
    }
}

/// Runs one cell body under the isolation boundary.
///
/// With no `timeout` the body runs inline — identical timing path to an
/// unprotected call, just inside `catch_unwind`. With a timeout the body
/// runs on its own thread and a wedged cell is *abandoned* after the
/// deadline (there is no safe cancellation; the stray thread keeps its
/// operands alive, which is why the body must be `'static`) and recorded
/// as [`CellStatus::Timeout`].
pub fn run_protected<T: Send + 'static>(
    timeout: Option<Duration>,
    f: impl FnOnce() -> Result<T, GrbError> + Send + 'static,
) -> CellOutcome<T> {
    let body = move || {
        if substrate::fault::point("cell.run") {
            panic!("injected fault: cell.run");
        }
        if substrate::fault::point("cell.hang") {
            std::thread::sleep(Duration::from_secs(2));
        }
        f()
    };
    match timeout {
        None => outcome_of(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))),
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let spawned = std::thread::Builder::new()
                .name("study-cell".to_string())
                .spawn(move || {
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                    let _ = tx.send(result);
                });
            // Thread exhaustion is a resource failure of the host, not a
            // bug in the cell body — report it as a failed outcome so a
            // long-lived caller (the service) keeps serving.
            let handle = match spawned {
                Ok(h) => h,
                Err(e) => {
                    return CellOutcome {
                        status: CellStatus::Failed,
                        error: Some(format!("failed to spawn cell thread: {e}")),
                        value: None,
                    }
                }
            };
            match rx.recv_timeout(limit) {
                Ok(result) => {
                    let _ = handle.join();
                    outcome_of(result)
                }
                Err(_) => CellOutcome {
                    status: CellStatus::Timeout,
                    error: Some(format!("cell exceeded {} ms", limit.as_millis())),
                    value: None,
                },
            }
        }
    }
}

/// Runs one (problem, system) cell over a prepared graph under the
/// isolation boundary, with the timeout from [`cell_timeout_from_env`].
///
/// The graph is shared via [`Arc`] because a timed-out cell's thread is
/// abandoned and must keep its operands alive on its own.
pub fn run_cell(
    system: System,
    problem: Problem,
    p: &Arc<PreparedGraph>,
) -> CellOutcome<ProblemOutput> {
    let p = Arc::clone(p);
    run_protected(cell_timeout_from_env(), move || {
        runner::try_run(system, problem, &p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_body_passes_its_value_through() {
        let out = run_protected(None, || Ok::<_, GrbError>(42));
        assert!(out.is_ok());
        assert_eq!(out.value, Some(42));
        assert_eq!(out.error, None);
    }

    #[test]
    fn grb_error_maps_to_failed_with_message() {
        let out = run_protected(None, || {
            Err::<u32, _>(GrbError::MaskRequired("mxm(dot)"))
        });
        assert_eq!(out.status, CellStatus::Failed);
        assert!(out.error.unwrap().contains("mxm"));
        assert!(out.value.is_none());
    }

    #[test]
    fn resource_exhaustion_maps_to_oom() {
        let out = run_protected(None, || {
            Err::<u32, _>(GrbError::ResourceExhausted {
                required: 800,
                budget: 64,
            })
        });
        assert_eq!(out.status, CellStatus::Oom);
        assert!(out.error.unwrap().contains("800"));
    }

    #[test]
    fn panic_is_captured_with_its_message() {
        let out = run_protected(None, || -> Result<u32, GrbError> {
            panic!("operator exploded")
        });
        assert_eq!(out.status, CellStatus::Failed);
        assert!(out.error.unwrap().contains("operator exploded"));
    }

    #[test]
    fn slow_body_times_out() {
        let out = run_protected(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_millis(500));
            Ok::<_, GrbError>(1)
        });
        assert_eq!(out.status, CellStatus::Timeout);
        assert!(out.error.unwrap().contains("20 ms"));
    }

    #[test]
    fn fast_body_beats_its_timeout() {
        let out = run_protected(Some(Duration::from_secs(30)), || Ok::<_, GrbError>(7));
        assert!(out.is_ok());
        assert_eq!(out.value, Some(7));
    }

    #[test]
    fn panic_under_timeout_is_failed_not_timeout() {
        let out = run_protected(Some(Duration::from_secs(30)), || -> Result<u32, GrbError> {
            panic!("boom")
        });
        assert_eq!(out.status, CellStatus::Failed);
        assert!(out.error.unwrap().contains("boom"));
    }

    #[test]
    fn status_names_match_the_v3_schema() {
        assert_eq!(CellStatus::Ok.name(), "ok");
        assert_eq!(CellStatus::Failed.name(), "failed");
        assert_eq!(CellStatus::Timeout.name(), "timeout");
        assert_eq!(CellStatus::Oom.name(), "oom");
    }

    #[test]
    fn status_names_round_trip_through_from_name() {
        for status in [
            CellStatus::Ok,
            CellStatus::Failed,
            CellStatus::Timeout,
            CellStatus::Oom,
        ] {
            assert_eq!(CellStatus::from_name(status.name()), Some(status));
        }
        assert_eq!(CellStatus::from_name("rejected"), None);
    }

    #[test]
    fn map_preserves_status_and_error() {
        let out = run_protected(None, || Ok::<_, GrbError>(21)).map(|v| v * 2);
        assert!(out.is_ok());
        assert_eq!(out.value, Some(42));
        let failed = run_protected(None, || -> Result<u32, GrbError> {
            panic!("boom")
        })
        .map(|v| v * 2);
        assert_eq!(failed.status, CellStatus::Failed);
        assert!(failed.error.unwrap().contains("boom"));
    }
}

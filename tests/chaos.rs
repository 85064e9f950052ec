//! Chaos suite: the resilience tentpole end to end.
//!
//! Every test here perturbs process-global state (the fault plan, the
//! memory budget), so the whole suite serializes on one lock and
//! restores the environment-derived configuration afterwards — the
//! final `sweep_survives_env_faults` test is the one CI's chaos matrix
//! drives through `STUDY_FAULTS` / `STUDY_MEM_BUDGET` /
//! `STUDY_CELL_TIMEOUT_MS`.

use graph_api_study::galois_rt::ThreadPool;
use graph_api_study::graph::{DeltaGraph, EdgeBatch};
use graph_api_study::graphblas::ops;
use graph_api_study::study_core::cell::{run_cell, CellStatus};
use graph_api_study::study_core::{
    batch_sources, run_batch_cell, run_incremental_cell, update_batches, verify,
    verify_batch_query, verify_incremental, BatchProblem, IncProblem, PreparedGraph, Problem,
    ProblemOutput, System,
};
use graph_api_study::substrate::fault::{self, FaultPlan};
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes the suite and pins down the fault/budget globals for one
/// test body, restoring the `STUDY_FAULTS` / `STUDY_MEM_BUDGET` view
/// afterwards so test order cannot matter.
fn with_chaos_state<T>(plan: Option<&str>, budget: Option<u64>, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::set_plan(plan.map(|spec| FaultPlan::parse(spec).expect("test plan parses")));
    ops::set_mem_budget(budget);
    let out = f();
    fault::set_plan(fault::plan_from_env());
    ops::set_mem_budget(env_budget());
    out
}

/// The budget `STUDY_MEM_BUDGET` configures (mirrors the lazy resolution
/// in `graphblas::ops::mem_budget`).
fn env_budget() -> Option<u64> {
    std::env::var("STUDY_MEM_BUDGET")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .map(|v| v.trim().parse().expect("STUDY_MEM_BUDGET must be bytes"))
}

/// One shared small study graph (preparation dominates the suite's cost).
fn prepared() -> Arc<PreparedGraph> {
    static GRAPH: OnceLock<Arc<PreparedGraph>> = OnceLock::new();
    GRAPH
        .get_or_init(|| {
            Arc::new(PreparedGraph::study(
                graph_api_study::graph::StudyGraph::Rmat22,
                graph_api_study::graph::Scale::custom(1.0 / 128.0),
            ))
        })
        .clone()
}

/// A 100-vertex path graph: its BFS frontier holds one vertex per round,
/// so the sparse-push accumulator projection stays tiny while the dense
/// and pull projections scale with n — the shape that exercises budget
/// degradation without tripping it.
fn path_graph() -> Arc<PreparedGraph> {
    let n = 100u32;
    let g = graph_api_study::graph::builder::from_edges(
        n as usize,
        (0..n - 1).map(|i| (i, i + 1)),
    )
    .with_random_weights(1_000_000, 7);
    Arc::new(PreparedGraph::from_graph("path100".to_string(), g, 0, 3, 1 << 13))
}

/// Runs the full 18-cell sweep (6 problems x 3 systems, one graph)
/// through `run_cell`, returning each cell's outcome projection.
fn sweep(p: &Arc<PreparedGraph>) -> Vec<(CellStatus, Option<String>, Option<ProblemOutput>)> {
    let mut out = Vec::new();
    for problem in Problem::all() {
        for system in System::all() {
            let o = run_cell(system, problem, p);
            out.push((o.status, o.error, o.value));
        }
    }
    out
}

#[test]
fn sweep_continues_past_an_injected_cell_failure() {
    let p = prepared();
    let clean = with_chaos_state(None, None, || sweep(&p));
    assert!(
        clean.iter().all(|(s, _, _)| *s == CellStatus::Ok),
        "fault-free sweep must be all ok: {:?}",
        clean.iter().map(|(s, e, _)| (*s, e.clone())).collect::<Vec<_>>()
    );

    // `cell.run:nth=5` victimizes exactly the fifth cell of the sweep.
    let faulted = with_chaos_state(Some("cell.run:nth=5"), None, || sweep(&p));
    assert_eq!(faulted.len(), clean.len(), "sweep must run to completion");
    for (i, ((fs, fe, fv), (_, _, cv))) in faulted.iter().zip(&clean).enumerate() {
        if i == 4 {
            assert_eq!(*fs, CellStatus::Failed, "victim cell is recorded failed");
            let msg = fe.as_deref().unwrap_or_default();
            assert!(msg.contains("injected fault: cell.run"), "got {msg:?}");
            assert!(fv.is_none());
        } else {
            assert_eq!(*fs, CellStatus::Ok, "cell {i} must be untouched");
            assert_eq!(fv, cv, "cell {i} output must match the fault-free run");
        }
    }
}

#[test]
fn seeded_fault_plan_replays_bit_exact() {
    let p = prepared();
    let plan = "seed=7;grb.alloc.accumulator:p=0.1";
    let run = || {
        with_chaos_state(Some(plan), None, || {
            let statuses: Vec<CellStatus> = sweep(&p).into_iter().map(|(s, _, _)| s).collect();
            (statuses, fault::firing_log())
        })
    };
    let (statuses_a, log_a) = run();
    let (statuses_b, log_b) = run();
    assert!(!log_a.is_empty(), "p=0.1 over a full sweep must fire");
    assert_eq!(log_a, log_b, "same seed must reproduce the firing sequence");
    assert_eq!(statuses_a, statuses_b, "and therefore the same victims");
    assert!(
        statuses_a.contains(&CellStatus::Oom),
        "an accumulator fault surfaces as oom: {statuses_a:?}"
    );
    assert!(
        statuses_a.contains(&CellStatus::Ok),
        "the sweep survives past the victims: {statuses_a:?}"
    );
}

#[test]
fn budget_constrained_bfs_degrades_and_still_verifies() {
    let p = path_graph();
    // 64 bytes: room for the one-vertex sparse-push accumulator every
    // round, none for the dense (400 B) or pull (500 B) alternatives.
    let outcome = with_chaos_state(None, Some(64), || {
        let shared = Arc::clone(&p);
        graph_api_study::perfmon::trace::with_trace(move || {
            run_cell(System::GaloisBlas, Problem::Bfs, &shared)
        })
    });
    let (outcome, trace) = outcome;
    assert_eq!(outcome.status, CellStatus::Ok, "error: {:?}", outcome.error);
    let output = outcome.value.expect("ok cell has a value");
    verify::verify(&p, Problem::Bfs, &output).expect("degraded run still verifies");
    let s = trace.summary();
    assert!(s.kernel_push_sparse > 0, "budget must leave sparse push: {s:?}");
    assert_eq!(s.kernel_push_dense, 0, "dense never fits in 64 B: {s:?}");
    assert_eq!(s.kernel_pull, 0, "pull never fits in 64 B: {s:?}");
    assert_eq!(s.kernel_bitmap, 0, "bitmap never fits in 64 B: {s:?}");

    // A budget nothing fits in is an oom outcome, not an abort.
    let starved = with_chaos_state(None, Some(0), || {
        run_cell(System::GaloisBlas, Problem::Bfs, &p)
    });
    assert_eq!(starved.status, CellStatus::Oom);
    assert!(
        starved.error.as_deref().unwrap_or_default().contains("out of memory"),
        "got {:?}",
        starved.error
    );
}

/// Per-query isolation under an injected allocation fault: one lane of a
/// batched sweep ooms, its batch siblings complete bit-identically to
/// the fault-free run.
#[test]
fn batched_lane_fault_never_poisons_siblings() {
    let p = prepared();
    let sources = batch_sources(&p, 6);
    let clean = with_chaos_state(None, None, || {
        run_batch_cell(System::GaloisBlas, BatchProblem::Bfs, &p, &sources)
    });
    assert!(
        clean.iter().all(|o| o.status == CellStatus::Ok),
        "fault-free batch must be all ok"
    );

    // The accumulator fault point fires once per lane advance, so nth=7
    // victimizes exactly one deterministic lane mid-sweep.
    let faulted = with_chaos_state(Some("grb.alloc.accumulator:nth=7"), None, || {
        run_batch_cell(System::GaloisBlas, BatchProblem::Bfs, &p, &sources)
    });
    assert_eq!(faulted.len(), sources.len());
    let victims: Vec<usize> = (0..sources.len())
        .filter(|&j| faulted[j].status != CellStatus::Ok)
        .collect();
    assert_eq!(victims.len(), 1, "exactly one lane is the victim: {victims:?}");
    let v = victims[0];
    assert_eq!(faulted[v].status, CellStatus::Oom, "allocation fault surfaces as oom");
    assert!(
        faulted[v].error.as_deref().unwrap_or_default().contains("out of memory"),
        "got {:?}",
        faulted[v].error
    );
    for j in 0..sources.len() {
        if j == v {
            continue;
        }
        assert_eq!(faulted[j].status, CellStatus::Ok, "sibling {j} must be untouched");
        assert_eq!(
            faulted[j].value, clean[j].value,
            "sibling {j} must match the fault-free run bit for bit"
        );
    }
}

/// Per-query isolation under a memory budget: a batch mixing a trivial
/// query (isolated source, empty frontier projection) with a hub query
/// (one frontier covering every vertex) degrades asymmetrically — the
/// hub lane ooms on its per-column byte guard, the trivial lane
/// completes and still verifies.
#[test]
fn batched_budget_oom_isolates_per_query() {
    // Vertex 0 is isolated; vertex 1 fans out to everything else.
    let n = 200u32;
    let g = graph_api_study::graph::builder::from_edges(
        n as usize,
        (2..n).map(|i| (1u32, i)),
    )
    .with_random_weights(100, 3);
    let p = Arc::new(PreparedGraph::from_graph("hub200".to_string(), g, 0, 3, 1 << 13));
    let sources = [0u32, 1];

    let outcomes = with_chaos_state(None, Some(64), || {
        run_batch_cell(System::GaloisBlas, BatchProblem::Bfs, &p, &sources)
    });
    assert_eq!(outcomes[0].status, CellStatus::Ok, "error: {:?}", outcomes[0].error);
    verify_batch_query(
        &p,
        BatchProblem::Bfs,
        sources[0],
        outcomes[0].value.as_ref().expect("ok query has a value"),
    )
    .expect("surviving query still verifies");
    assert_eq!(
        outcomes[1].status,
        CellStatus::Oom,
        "hub frontier cannot fit any kernel in 64 B: {:?}",
        outcomes[1].error
    );
    assert!(outcomes[1].value.is_none());
}

/// A crash injected between building the fresh snapshot and swapping it
/// in (`delta.compact.commit`) must leave the pre-compaction state fully
/// readable: the old snapshot, every layer, the merged view and a later
/// retry all keep working.
#[test]
fn compaction_crash_leaves_the_old_snapshot_readable() {
    with_chaos_state(Some("delta.compact.commit:nth=1"), None, || {
        let g = graph_api_study::graph::builder::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let mut d = DeltaGraph::with_threshold(g.clone(), 0);
        d.apply(&EdgeBatch::new().insert(0, 3).delete(1, 2)).unwrap();
        let merged_before: Vec<Vec<(u32, u32)>> = (0..4)
            .map(|v| d.neighbors(v).collect())
            .collect();

        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.compact()));
        let payload = hit.expect_err("first compaction must hit the injected crash");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected fault: delta.compact.commit"), "got {msg:?}");

        // Pre-compaction state is intact and answers queries correctly.
        assert_eq!(d.snapshot(), &g, "old snapshot untouched by the crash");
        assert_eq!(d.layer_count(), 1, "the layer survived");
        assert_eq!(d.compactions(), 0, "no compaction was recorded");
        let merged_after: Vec<Vec<(u32, u32)>> = (0..4)
            .map(|v| d.neighbors(v).collect())
            .collect();
        assert_eq!(merged_after, merged_before, "merged view unchanged");
        assert_eq!(merged_after[0], vec![(1, 1), (3, 1)]);
        assert_eq!(merged_after[1], Vec::new(), "delete still applied");

        // The nth=1 trigger is spent; the retry folds cleanly.
        d.compact().expect("second compaction succeeds");
        assert_eq!(d.layer_count(), 0);
        assert_eq!(d.compactions(), 1);
        assert_eq!(d.snapshot().num_edges(), 3);
    });
}

/// A compaction crash inside an incremental cell costs that cell —
/// recorded `failed` with the injected message — and the next cell of
/// the sweep completes and verifies as if nothing happened.
#[test]
fn compaction_crash_fails_the_cell_not_the_sweep() {
    let p = prepared();
    let updates = update_batches(&p.graph, 2, 12, 11);
    with_chaos_state(Some("delta.compact.commit:nth=1"), None, || {
        // The victim: its final forced compaction is the first commit.
        let victim = run_incremental_cell(System::Lonestar, IncProblem::Bfs, &p, &updates);
        assert_eq!(victim.status, CellStatus::Failed, "crash is contained to the cell");
        let msg = victim.error.as_deref().unwrap_or_default();
        assert!(msg.contains("injected fault: delta.compact.commit"), "got {msg:?}");
        assert!(victim.value.is_none());

        // The trigger is spent; the rest of the sweep is healthy.
        let next = run_incremental_cell(System::Lonestar, IncProblem::Cc, &p, &updates);
        assert!(next.is_ok(), "sibling cell must survive: {:?}", next.error);
        verify_incremental(&p, IncProblem::Cc, &next.value.expect("ok cell has a value"))
            .expect("sibling cell still verifies");
    });
}

/// Seeded probabilistic compaction faults replay bit-exactly: the same
/// plan over the same incremental sweep fires at the same hit indices
/// and fells the same cells.
#[test]
fn seeded_compaction_faults_replay_bit_exact() {
    let p = prepared();
    let updates = update_batches(&p.graph, 3, 16, 13);
    let plan = "seed=3;delta.compact.alloc:p=0.5";
    let run = || {
        with_chaos_state(Some(plan), None, || {
            let mut statuses = Vec::new();
            for problem in IncProblem::all() {
                for system in System::all() {
                    statuses.push(run_incremental_cell(system, problem, &p, &updates).status);
                }
            }
            (statuses, graph_api_study::substrate::fault::firing_log())
        })
    };
    let (statuses_a, log_a) = run();
    let (statuses_b, log_b) = run();
    assert!(!log_a.is_empty(), "p=0.5 over nine compacting cells must fire");
    assert_eq!(log_a, log_b, "same seed must reproduce the firing sequence");
    assert_eq!(statuses_a, statuses_b, "and therefore the same victims");
    assert!(
        statuses_a.contains(&CellStatus::Failed),
        "an alloc fault surfaces as a failed cell: {statuses_a:?}"
    );
    assert!(
        statuses_a.contains(&CellStatus::Ok),
        "the sweep survives past the victims: {statuses_a:?}"
    );
}

#[test]
fn pool_survives_an_injected_worker_panic() {
    with_chaos_state(Some("pool.worker:nth=1"), None, || {
        let pool = ThreadPool::new(2);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(2, |_| {});
        }));
        let payload = hit.expect_err("first region hit must rethrow the injected panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected fault: pool.worker"), "got {msg:?}");

        // The nth=1 trigger is spent; the pool must be fully reusable.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        pool.region(2, |_| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.into_inner(), 2, "both participants run after recovery");
    });
}

// ---------------------------------------------------------------------------
// Service legs: fault containment in the long-lived server
// ---------------------------------------------------------------------------

use graph_api_study::service::protocol::{RunRequest, Status};
use graph_api_study::service::{
    AdmissionConfig, Catalog, Client, RetryPolicy, Service, ServiceConfig, ServiceHandle,
};

/// An in-process server over the shared chaos graph, with explicit
/// (env-independent) limits.
fn start_service(capacity: u32, default_deadline_ms: u32) -> ServiceHandle {
    let catalog = Catalog::new();
    catalog.insert(PreparedGraph::clone(&prepared()));
    Service::start(
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig {
                capacity,
                queue_cap: (capacity * 2).max(4),
            },
            default_deadline_ms,
        },
        catalog,
    )
    .expect("bind an ephemeral port")
}

fn bfs_request() -> RunRequest {
    RunRequest {
        graph: prepared().name.clone(),
        system: System::Lonestar,
        problem: Problem::Bfs,
        deadline_ms: 0,
        verify: true,
    }
}

/// An injected job panic (`svc.job.panic`) costs exactly the victim
/// request: it reports `failed` with the injected message, every sibling
/// request completes ok and verified with the clean run's digest, the
/// process survives, and the drain is clean.
#[test]
fn service_contains_an_injected_job_panic() {
    let clean_digest = with_chaos_state(None, None, || {
        let handle = start_service(4, 0);
        let mut c = Client::connect(handle.addr(), RetryPolicy::none(), 5).unwrap();
        let r = c.run(&bfs_request()).expect("transport");
        assert_eq!(r.status, Status::Ok, "{}", r.error);
        c.shutdown().expect("shutdown");
        assert!(handle.join().drained_clean);
        r.digest
    });

    with_chaos_state(Some("svc.job.panic:nth=2"), None, || {
        let handle = start_service(4, 0);
        let mut c = Client::connect(handle.addr(), RetryPolicy::none(), 5).unwrap();
        let mut statuses = Vec::new();
        for i in 0..4 {
            let r = c.run(&bfs_request()).expect("transport");
            statuses.push(r.status);
            if i == 1 {
                assert_eq!(r.status, Status::Failed, "victim is the second job");
                assert!(
                    r.error.contains("injected fault: svc.job.panic"),
                    "got {:?}",
                    r.error
                );
            } else {
                assert_eq!(r.status, Status::Ok, "sibling {i}: {}", r.error);
                assert!(r.verified, "sibling {i} must verify");
                assert_eq!(r.digest, clean_digest, "sibling {i} output diverged");
            }
        }
        c.shutdown().expect("shutdown after a contained panic");
        let report = handle.join();
        assert!(report.drained_clean, "drain must be clean: {report:?}");
        assert_eq!(report.served, 4);
        assert_eq!(report.contained_failures, 1);
    });
}

/// An injected hang (`svc.job.hang`) under a short server deadline is a
/// client-visible `timeout`, not a wedged server: the next request on
/// the same connection completes normally.
#[test]
fn service_deadline_trips_on_an_injected_hang() {
    with_chaos_state(Some("svc.job.hang:nth=1"), None, || {
        let handle = start_service(4, 250);
        let mut c = Client::connect(handle.addr(), RetryPolicy::none(), 6).unwrap();
        let victim = c.run(&bfs_request()).expect("transport");
        assert_eq!(
            victim.status,
            Status::Timeout,
            "hang under a 250 ms deadline: {}",
            victim.error
        );
        assert!(!victim.retryable, "a deadline trip is deterministic");
        // The trigger is spent; the server still serves.
        let next = c.run(&bfs_request()).expect("transport");
        assert_eq!(next.status, Status::Ok, "{}", next.error);
        assert!(next.verified);
        c.shutdown().expect("shutdown");
        let report = handle.join();
        assert!(report.drained_clean);
        assert_eq!(report.contained_failures, 1);
    });
}

/// Zero admission capacity mid-traffic sheds with retryable rejections
/// while the connection, catalog and process stay healthy; restoring
/// capacity resumes service with no residue.
#[test]
fn service_zero_budget_mid_traffic_sheds_and_recovers() {
    with_chaos_state(None, None, || {
        let handle = start_service(4, 0);
        let mut c = Client::connect(handle.addr(), RetryPolicy::none(), 8).unwrap();
        let r = c.run(&bfs_request()).expect("transport");
        assert_eq!(r.status, Status::Ok, "{}", r.error);

        handle.set_capacity(0);
        for _ in 0..3 {
            let r = c.run(&bfs_request()).expect("transport");
            assert_eq!(r.status, Status::Rejected);
            assert!(r.retryable, "budget-class shed must be retryable");
        }

        handle.set_capacity(4);
        let r = c.run(&bfs_request()).expect("transport");
        assert_eq!(r.status, Status::Ok, "recovery failed: {}", r.error);
        assert!(r.verified);
        c.shutdown().expect("shutdown");
        let report = handle.join();
        assert!(report.drained_clean);
        assert_eq!(report.rejected, 3);
    });
}

/// A seeded `svc.admit` plan over a serial request stream replays
/// bit-exactly: the same firing log, the same per-request status
/// sequence, and the same client retry count on both runs.
#[test]
fn service_seeded_admission_faults_replay_bit_exact() {
    let plan = "seed=11;svc.admit:p=0.4";
    let run = || {
        with_chaos_state(Some(plan), None, || {
            let handle = start_service(4, 0);
            let mut c = Client::connect(
                handle.addr(),
                RetryPolicy {
                    max_retries: 2,
                    base: std::time::Duration::from_millis(1),
                    cap: std::time::Duration::from_millis(4),
                },
                11,
            )
            .unwrap();
            let statuses: Vec<Status> = (0..6)
                .map(|_| c.run(&bfs_request()).expect("transport").status)
                .collect();
            let retries = c.retries_used();
            c.shutdown().expect("shutdown");
            let report = handle.join();
            assert!(report.drained_clean);
            (statuses, retries, fault::firing_log())
        })
    };
    let (statuses_a, retries_a, log_a) = run();
    let (statuses_b, retries_b, log_b) = run();
    assert!(!log_a.is_empty(), "p=0.4 over six admissions must fire");
    assert_eq!(log_a, log_b, "same seed must reproduce the firing sequence");
    assert_eq!(statuses_a, statuses_b, "and therefore the same dispositions");
    assert_eq!(retries_a, retries_b, "and the same retry schedule");
    assert!(
        statuses_a.contains(&Status::Ok),
        "retries ride out transient rejections: {statuses_a:?}"
    );
}

/// The CI chaos matrix entry point: whatever `STUDY_FAULTS`,
/// `STUDY_MEM_BUDGET` and `STUDY_CELL_TIMEOUT_MS` say, a sweep must run
/// to completion with a coherent outcome per cell, and cells that do
/// complete must still verify.
#[test]
fn sweep_survives_env_faults() {
    let p = prepared();
    let outcomes = with_chaos_state(None, None, || {
        // `with_chaos_state` restored nothing yet — install the
        // environment's own plan and budget explicitly.
        fault::set_plan(fault::plan_from_env());
        ops::set_mem_budget(env_budget());
        sweep(&p)
    });
    assert_eq!(outcomes.len(), Problem::all().len() * System::all().len());
    let mut cell = 0usize;
    for problem in Problem::all() {
        for system in System::all() {
            let (status, error, value) = &outcomes[cell];
            cell += 1;
            match status {
                CellStatus::Ok => {
                    assert!(error.is_none(), "{problem}/{system}: ok cell with error");
                    let out = value.as_ref().expect("ok cell has a value");
                    verify::verify(&p, problem, out)
                        .unwrap_or_else(|e| panic!("{problem}/{system}: {e}"));
                }
                CellStatus::Failed | CellStatus::Timeout | CellStatus::Oom => {
                    assert!(
                        error.is_some(),
                        "{problem}/{system}: non-ok cell must record its error"
                    );
                    assert!(value.is_none());
                }
            }
        }
    }
    let fired = fault::firing_log();
    if fault::plan_spec().is_none() && env_budget().is_none() {
        assert!(
            outcomes.iter().all(|(s, _, _)| *s == CellStatus::Ok),
            "no faults, no budget: the sweep must be all ok"
        );
        assert!(fired.is_empty());
    }
}

//! The long-lived analytics server.
//!
//! One listener thread accepts connections; each connection gets a
//! handler thread that reads length-prefixed requests and serves them
//! against the shared [`Catalog`] under the [`Admission`] controller.
//! Every run and batch request becomes one `study_core::exec::Job`
//! (verified iff the request asks, its remaining deadline as the
//! timeout) and goes through `study_core::execute` — `catch_unwind`
//! plus the deadline watchdog around run and verify — so a panicking,
//! OOMing or wedged job costs exactly one response while the process,
//! the catalog and every sibling in-flight job keep serving.
//!
//! One fault point is the service's own: `svc.admit` (transient
//! admission rejection). A job's body crosses the executor's
//! `cell.run` (panic) and `cell.hang` (sleep, so a short deadline
//! trips) once per request, so `nth=K` picks the K-th job.

use crate::admission::{Admission, AdmissionConfig, AdmitError, CostClass};
use crate::catalog::Catalog;
use crate::protocol::{
    self, BatchRequest, BatchResponse, FrameError, IngestRequest, IngestResponse, QueryResult,
    Request, Response, RunRequest, RunResponse, StatsResponse, Status,
};
use graph::delta::EdgeBatch;
use graphblas::ops::Policy;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use study_core::batch::batch_sources;
use study_core::cell::CellStatus;
use study_core::problem::ProblemOutput;
use study_core::{execute, Job, JobOutcome, PreparedGraph, Work};
use substrate::sync::Mutex;

/// Server configuration. [`ServiceConfig::from_env`] reads the
/// `STUDY_SVC_*` knobs; tests construct it explicitly.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`STUDY_SVC_ADDR`; default `127.0.0.1:0` — an
    /// ephemeral loopback port reported by [`ServiceHandle::addr`]).
    pub addr: String,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Default per-request deadline in milliseconds applied when a
    /// request carries `deadline_ms == 0` (`STUDY_SVC_DEADLINE_MS`;
    /// 0 disables).
    pub default_deadline_ms: u32,
}

impl ServiceConfig {
    /// Reads the service knobs from the environment.
    ///
    /// # Panics
    ///
    /// Panics when `STUDY_SVC_DEADLINE_MS` or `STUDY_SVC_MAX_INFLIGHT`
    /// is set to a non-integer.
    pub fn from_env() -> ServiceConfig {
        let addr = std::env::var("STUDY_SVC_ADDR")
            .ok()
            .filter(|a| !a.trim().is_empty())
            .unwrap_or_else(|| "127.0.0.1:0".to_string());
        let default_deadline_ms = match std::env::var("STUDY_SVC_DEADLINE_MS") {
            Ok(v) if !v.trim().is_empty() => v.trim().parse().unwrap_or_else(|e| {
                panic!("STUDY_SVC_DEADLINE_MS must be milliseconds, got {v:?}: {e}")
            }),
            _ => 0,
        };
        ServiceConfig {
            addr,
            admission: AdmissionConfig::from_env(),
            default_deadline_ms,
        }
    }
}

/// End-of-life accounting returned by [`ServiceHandle::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests that reached a handler (any disposition).
    pub served: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Job bodies that ended failed/timeout/oom but were contained.
    pub contained_failures: u64,
    /// Whether the drain completed with zero in-flight jobs (always
    /// true on a clean shutdown; recorded for the CI gate).
    pub drained_clean: bool,
}

struct Shared {
    catalog: Catalog,
    admission: Admission,
    /// The starting thread's policy, stamped on every job.
    policy: Policy,
    default_deadline_ms: u32,
    stop: AtomicBool,
    served: AtomicU64,
    rejected: AtomicU64,
    contained_failures: AtomicU64,
    /// Clones of accepted sockets, so drain can cut blocked reads.
    conns: Mutex<Vec<TcpStream>>,
}

/// Handle to a running server.
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
}

/// Namespace for starting the server.
#[derive(Debug)]
pub struct Service;

impl Service {
    /// Binds the configured address and starts serving the catalog; every
    /// job runs under the calling thread's [`Policy`] at this call.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServiceConfig, catalog: Catalog) -> std::io::Result<ServiceHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            catalog,
            admission: Admission::new(config.admission),
            policy: graphblas::ops::policy(),
            default_deadline_ms: config.default_deadline_ms,
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            contained_failures: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::Builder::new()
            .name("svc-listener".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("failed to spawn listener thread");
        Ok(ServiceHandle {
            addr,
            shared,
            listener: Some(listener_thread),
        })
    }
}

impl ServiceHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Chaos hook: changes the admission capacity mid-traffic.
    pub fn set_capacity(&self, units: u32) {
        self.shared.admission.set_capacity(units);
    }

    /// Current admission capacity in units.
    pub fn capacity(&self) -> u32 {
        self.shared.admission.capacity()
    }

    /// Waits for a client-initiated shutdown to finish and returns the
    /// drain accounting.
    pub fn join(mut self) -> DrainReport {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
        self.report()
    }

    fn report(&self) -> DrainReport {
        DrainReport {
            served: self.shared.served.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            contained_failures: self.shared.contained_failures.load(Ordering::Relaxed),
            drained_clean: self.shared.admission.inflight() == 0,
        }
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::Acquire) {
                    // The self-connect (or a late client) that unblocked
                    // the final accept; refuse and stop listening.
                    drop(stream);
                    break;
                }
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().push(clone);
                }
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("svc-conn".to_string())
                    .spawn(move || handle_connection(stream, conn_shared));
                match handle {
                    Ok(h) => handlers.push(h),
                    Err(_) => { /* spawn failure: connection dropped */ }
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                // Transient accept error: keep serving.
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    // All handlers returned, so no job can still hold a ticket — but a
    // handler that exited between releasing its ticket and returning is
    // already covered; this wait is then immediate.
    shared.admission.wait_drained();
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    loop {
        let payload = match protocol::read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(FrameError::Io(_)) => break,
            Err(FrameError::Proto(e)) => {
                // Framing is broken; report and drop the connection (no
                // resync point exists once a length prefix is bad).
                let _ = send(&mut stream, &Response::Error(format!("protocol error: {e}")));
                break;
            }
        };
        let request = match protocol::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary is intact: report and keep serving.
                if send(&mut stream, &Response::Error(format!("protocol error: {e}"))).is_err() {
                    break;
                }
                continue;
            }
        };
        if matches!(request, Request::Shutdown) {
            shutdown(&mut stream, &shared);
            break;
        }
        shared.served.fetch_add(1, Ordering::Relaxed);
        let response = dispatch(request, &shared);
        if send(&mut stream, &response).is_err() {
            break;
        }
    }
}

fn send(stream: &mut TcpStream, response: &Response) -> Result<(), FrameError> {
    let payload = protocol::encode_response(response);
    protocol::write_frame(stream, &payload)
}

fn shutdown(stream: &mut TcpStream, shared: &Shared) {
    // Refuse new work, let in-flight jobs finish, then acknowledge.
    shared.stop.store(true, Ordering::Release);
    shared.admission.begin_drain();
    shared.admission.wait_drained();
    let _ = send(stream, &Response::ShutdownAck);
    let _ = stream.flush();
    // Cut idle reads so every handler thread exits promptly.
    for conn in shared.conns.lock().drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    // Unblock the accept loop. The listener sees `stop` and exits.
    if let Ok(local) = stream.local_addr() {
        let _ = TcpStream::connect_timeout(&local, Duration::from_secs(1));
    }
}

fn dispatch(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Run(req) => Response::Run(run_job(&req, shared)),
        Request::Batch(req) => Response::Batch(batch_job(&req, shared)),
        Request::Ingest(req) => Response::Ingest(ingest(&req, shared)),
        Request::Compact { graph } => compact(&graph, shared),
        Request::Stats { graph } => stats(&graph, shared),
        Request::Shutdown => unreachable!("handled by the connection loop"),
    }
}

/// Why a request's job never ran: its `(status, retryable, error)`.
type NotRun = (Status, bool, String);

/// The path every run and batch request takes: catalog lookup,
/// admission under the request's deadline, then one [`execute`] with
/// the remaining budget as the job's timeout. Returns the outcome and
/// its wall time in nanoseconds.
fn admit_and_execute(
    graph: &str,
    deadline_ms: u32,
    class: CostClass,
    verify: bool,
    work: impl FnOnce(&PreparedGraph) -> Work,
    shared: &Shared,
) -> Result<(JobOutcome, u64), NotRun> {
    let Some(entry) = shared.catalog.get(graph) else {
        return Err((Status::Failed, false, format!("unknown graph {graph:?}")));
    };
    let deadline = deadline_of(deadline_ms, shared.default_deadline_ms);
    let ticket = match shared.admission.acquire(class, deadline) {
        Ok(t) => t,
        Err(AdmitError::Rejected { reason, retryable }) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err((Status::Rejected, retryable, reason));
        }
        Err(AdmitError::DeadlineExpired) => {
            return Err((Status::Timeout, false, "deadline expired while queued".into()))
        }
    };
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if timeout == Some(Duration::ZERO) {
        return Err((Status::Timeout, false, "deadline expired at admission".into()));
    }
    let p = entry.snapshot();
    let job = Job {
        verify,
        timeout,
        policy: shared.policy,
        ..Job::new(work(&p))
    };
    let started = Instant::now();
    let outcome = execute(&job, &p);
    let wall_ns = started.elapsed().as_nanos() as u64;
    drop(ticket);
    Ok((outcome, wall_ns))
}

fn run_job(req: &RunRequest, shared: &Shared) -> RunResponse {
    let work = |_: &PreparedGraph| Work::Cell(req.system, req.problem);
    let class = CostClass::of_problem(req.problem);
    let (outcome, wall_ns) =
        match admit_and_execute(&req.graph, req.deadline_ms, class, req.verify, work, shared) {
            Ok(done) => done,
            Err((status, retryable, error)) => {
                return RunResponse {
                    status,
                    retryable,
                    verified: false,
                    error,
                    wall_ns: 0,
                    digest: 0,
                }
            }
        };
    let lane = &outcome.lanes[0];
    let response = RunResponse {
        status: Status::from_cell(lane.status),
        retryable: false,
        verified: req.verify && lane.is_ok(),
        error: lane.error.clone().unwrap_or_default(),
        wall_ns,
        digest: lane.value.as_ref().map_or(0, output_digest),
    };
    if !response.status.is_ok() {
        shared.contained_failures.fetch_add(1, Ordering::Relaxed);
    }
    response
}

fn batch_job(req: &BatchRequest, shared: &Shared) -> BatchResponse {
    let mut sources = Vec::new();
    let work = |p: &PreparedGraph| {
        sources = batch_sources(p, usize::from(req.width));
        Work::Batch(req.system, req.problem, sources.clone())
    };
    let class = CostClass::of_batch(req.problem);
    let (outcome, wall_ns) =
        match admit_and_execute(&req.graph, req.deadline_ms, class, req.verify, work, shared) {
            Ok(done) => done,
            Err((status, retryable, error)) => {
                return BatchResponse {
                    status,
                    retryable,
                    error,
                    wall_ns: 0,
                    queries: Vec::new(),
                }
            }
        };
    let queries: Vec<QueryResult> = match outcome.status {
        CellStatus::Ok => sources
            .iter()
            .zip(&outcome.lanes)
            .map(|(&source, lane)| QueryResult {
                source,
                status: Status::from_cell(lane.status),
                verified: req.verify && lane.is_ok(),
                digest: lane.value.as_ref().map_or(0, output_digest),
            })
            .collect(),
        _ => Vec::new(),
    };
    if !outcome.is_ok() {
        shared.contained_failures.fetch_add(1, Ordering::Relaxed);
    }
    BatchResponse {
        status: Status::from_cell(outcome.status),
        retryable: false,
        error: outcome.error.unwrap_or_default(),
        wall_ns,
        queries,
    }
}

fn ingest(req: &IngestRequest, shared: &Shared) -> IngestResponse {
    let failed = |error: String| IngestResponse {
        status: Status::Failed,
        error,
        inserted: 0,
        deleted: 0,
        layers: 0,
        delta_nnz: 0,
        version: 0,
    };
    let Some(entry) = shared.catalog.get(&req.graph) else {
        return failed(format!("unknown graph {:?}", req.graph));
    };
    let mut batch = EdgeBatch::new();
    for op in &req.ops {
        if op.delete {
            batch = batch.delete(op.src, op.dst);
        } else {
            batch = batch.insert_weighted(op.src, op.dst, op.weight);
        }
    }
    match entry.ingest(&batch) {
        Ok(stats) => {
            let entry_stats = entry.stats();
            IngestResponse {
                status: Status::Ok,
                error: String::new(),
                inserted: stats.inserted,
                deleted: stats.deleted,
                layers: entry_stats.layers,
                delta_nnz: entry_stats.delta_nnz,
                version: entry_stats.version,
            }
        }
        Err(e) => failed(e),
    }
}

fn compact(graph: &str, shared: &Shared) -> Response {
    let Some(entry) = shared.catalog.get(graph) else {
        return Response::Error(format!("unknown graph {graph:?}"));
    };
    match entry.compact() {
        Ok(_version) => stats(graph, shared),
        Err(e) => Response::Error(format!("compact failed: {e}")),
    }
}

fn stats(graph: &str, shared: &Shared) -> Response {
    let Some(entry) = shared.catalog.get(graph) else {
        return Response::Error(format!("unknown graph {graph:?}"));
    };
    let s = entry.stats();
    Response::Stats(StatsResponse {
        nodes: s.nodes,
        edges: s.edges,
        layers: s.layers,
        delta_nnz: s.delta_nnz,
        version: s.version,
        compactions: s.compactions,
    })
}

/// FNV-1a digest of an output, for cheap wire-level result comparison
/// (full outputs never cross the wire; verification runs server-side).
pub fn output_digest(output: &ProblemOutput) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    match output {
        ProblemOutput::Levels(v) => {
            eat(b"levels");
            for x in v {
                eat(&x.to_le_bytes());
            }
        }
        ProblemOutput::Components(v) => {
            eat(b"components");
            for x in v {
                eat(&x.to_le_bytes());
            }
        }
        ProblemOutput::TrussEdges(n) => {
            eat(b"truss");
            eat(&(*n as u64).to_le_bytes());
        }
        ProblemOutput::Ranks(v) => {
            eat(b"ranks");
            for x in v {
                eat(&x.to_bits().to_le_bytes());
            }
        }
        ProblemOutput::Dists(v) => {
            eat(b"dists");
            for x in v {
                eat(&x.to_le_bytes());
            }
        }
        ProblemOutput::Triangles(n) => {
            eat(b"triangles");
            eat(&n.to_le_bytes());
        }
    }
    hash
}

/// Resolves a request's deadline: its own `deadline_ms`, else the
/// server default, else none.
fn deadline_of(request_ms: u32, default_ms: u32) -> Option<Instant> {
    let ms = if request_ms > 0 { request_ms } else { default_ms };
    (ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(ms)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_variants_and_values() {
        let a = output_digest(&ProblemOutput::Triangles(7));
        let b = output_digest(&ProblemOutput::Triangles(8));
        let c = output_digest(&ProblemOutput::TrussEdges(7));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, output_digest(&ProblemOutput::Triangles(7)));
    }

    #[test]
    fn deadline_resolution_prefers_the_request() {
        let shared_default = 100u32;
        // Request deadline wins over the default; zero falls back.
        let now = Instant::now();
        let d1 = super::deadline_of(500, shared_default).unwrap();
        assert!(d1 >= now + Duration::from_millis(400));
        let d2 = super::deadline_of(0, shared_default).unwrap();
        assert!(d2 <= now + Duration::from_millis(200));
        assert!(super::deadline_of(0, 0).is_none());
    }
}

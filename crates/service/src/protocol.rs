//! Length-prefixed wire protocol for the analytics service.
//!
//! The protocol is deliberately minimal — a 4-byte little-endian payload
//! length followed by a tag byte and fixed-width fields — so that both
//! ends stay hermetic (no serialization dependency) and the reader can be
//! hardened the way `graph::io::read_binary` is: every length is capped
//! *before* any allocation, truncated or trailing bytes are typed errors,
//! and no input, however adversarial, can panic the decoder or make it
//! allocate unboundedly. The property test in `tests/protocol_fuzz.rs`
//! drives mutated and random frames through [`decode_request`] /
//! [`decode_response`] to hold that line.

use std::io::{Read, Write};
use study_core::batch::BatchProblem;
use study_core::cell::CellStatus;
use study_core::problem::{Problem, System};

/// Hard cap on a frame payload. Requests are tiny (the largest is an
/// ingest batch, capped separately); responses carry digests and counters
/// rather than full outputs, so anything larger is a protocol violation,
/// not data.
pub const MAX_FRAME: usize = 64 * 1024;

/// Hard cap on an encoded string (graph names, error messages).
pub const MAX_STR: usize = 1024;

/// Hard cap on edge operations in one ingest request.
pub const MAX_INGEST_OPS: usize = 4096;

/// Hard cap on per-batch query width.
pub const MAX_BATCH_WIDTH: u16 = 64;

/// Typed decode failure. Every malformed input maps to one of these —
/// never a panic, never an allocation proportional to a fabricated
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before a field was complete.
    Truncated,
    /// A frame or field length exceeded its cap.
    Oversized {
        /// What was oversized ("frame", "string", "ingest ops", ...).
        what: &'static str,
        /// The length the input claimed.
        got: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// Unknown message tag byte.
    BadTag(u8),
    /// A field held a value outside its domain (bad enum index, invalid
    /// UTF-8, zero width, ...).
    BadValue(&'static str),
    /// Decoding consumed the message but bytes remained.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::Oversized { what, got, cap } => {
                write!(f, "{what} length {got} exceeds cap {cap}")
            }
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadValue(what) => write!(f, "invalid value for {what}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// How reading a frame from a stream can fail.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O error (includes a connection closed mid-frame).
    Io(std::io::Error),
    /// The frame violated the protocol (oversized or empty).
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one length-prefixed frame, enforcing [`MAX_FRAME`] *before*
/// allocating the payload buffer.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before the length prefix,
/// [`FrameError::Io`] on short reads or transport errors, and
/// [`FrameError::Proto`] for an empty or oversized frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish a clean close (EOF on the first byte) from a torn frame.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_frame(r);
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(FrameError::Proto(ProtoError::BadValue("empty frame")));
    }
    if len > MAX_FRAME {
        return Err(FrameError::Proto(ProtoError::Oversized {
            what: "frame",
            got: len,
            cap: MAX_FRAME,
        }));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport errors; refuses to send a payload that the peer
/// would reject as oversized.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(FrameError::Proto(ProtoError::Oversized {
            what: "frame",
            got: payload.len(),
            cap: MAX_FRAME,
        }));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Status axis
// ---------------------------------------------------------------------------

/// How the service disposed of a request — the cell outcome axis
/// ([`CellStatus`]) plus [`Status::Rejected`] for work the admission
/// controller shed before it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ran to completion (and verified, if verification was requested).
    Ok,
    /// The job returned an error, panicked, or failed verification.
    Failed,
    /// The job outlived its deadline (queue wait included).
    Timeout,
    /// The job exceeded its memory budget (`STUDY_MEM_BUDGET` at the
    /// server's start).
    Oom,
    /// Admission control shed the request before it ran.
    Rejected,
}

impl Status {
    /// Schema string, aligned with [`CellStatus::name`] plus `rejected`.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Failed => "failed",
            Status::Timeout => "timeout",
            Status::Oom => "oom",
            Status::Rejected => "rejected",
        }
    }

    /// Whether the request completed normally.
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }

    /// Lifts a cell outcome status onto the service axis.
    pub fn from_cell(status: CellStatus) -> Status {
        match status {
            CellStatus::Ok => Status::Ok,
            CellStatus::Failed => Status::Failed,
            CellStatus::Timeout => Status::Timeout,
            CellStatus::Oom => Status::Oom,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Failed => 1,
            Status::Timeout => 2,
            Status::Oom => 3,
            Status::Rejected => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Status, ProtoError> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::Failed,
            2 => Status::Timeout,
            3 => Status::Oom,
            4 => Status::Rejected,
            _ => return Err(ProtoError::BadValue("status")),
        })
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One analytics run request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Catalog name of the snapshot to query.
    pub graph: String,
    /// Which API implementation runs the job.
    pub system: System,
    /// Which of the six study problems to run.
    pub problem: Problem,
    /// Per-request deadline in milliseconds (`0` = server default).
    pub deadline_ms: u32,
    /// Verify the output against the serial reference before replying.
    pub verify: bool,
}

/// One batched multi-source query request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Catalog name of the snapshot to query.
    pub graph: String,
    /// Which API implementation runs the batch.
    pub system: System,
    /// Which batched problem to run.
    pub problem: BatchProblem,
    /// Number of sources (1..=[`MAX_BATCH_WIDTH`]).
    pub width: u16,
    /// Per-request deadline in milliseconds (`0` = server default).
    pub deadline_ms: u32,
    /// Verify each query against its per-source serial reference.
    pub verify: bool,
}

/// One edge mutation in an ingest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOp {
    /// `false` = insert, `true` = delete.
    pub delete: bool,
    /// Source vertex.
    pub src: u32,
    /// Destination vertex.
    pub dst: u32,
    /// Edge weight (ignored for deletes).
    pub weight: u32,
}

/// A streaming edge batch aimed at a cataloged graph's delta overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRequest {
    /// Catalog name of the graph to mutate.
    pub graph: String,
    /// Edge operations, applied in order (capped at [`MAX_INGEST_OPS`]).
    pub ops: Vec<EdgeOp>,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run one analytics job.
    Run(RunRequest),
    /// Run one batched multi-source query.
    Batch(BatchRequest),
    /// Apply an edge batch to a graph's delta overlay.
    Ingest(IngestRequest),
    /// Compact a graph's delta overlay and republish the snapshot.
    Compact {
        /// Catalog name of the graph to compact.
        graph: String,
    },
    /// Read a graph's catalog statistics.
    Stats {
        /// Catalog name of the graph to inspect.
        graph: String,
    },
    /// Drain in-flight jobs and stop the server.
    Shutdown,
}

/// Reply to [`Request::Run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResponse {
    /// How the request ended.
    pub status: Status,
    /// Whether a retry may succeed (budget-class rejections only —
    /// deterministic failures are never marked retryable).
    pub retryable: bool,
    /// Whether the output was verified against the serial reference.
    pub verified: bool,
    /// Failure detail (empty when ok).
    pub error: String,
    /// Job execution wall time (queue wait excluded), nanoseconds.
    pub wall_ns: u64,
    /// FNV-1a digest of the output, for cheap client-side comparison.
    pub digest: u64,
}

/// Per-source outcome inside a [`BatchResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The query's source vertex.
    pub source: u32,
    /// How this lane ended.
    pub status: Status,
    /// Whether this lane verified against its serial reference.
    pub verified: bool,
    /// FNV-1a digest of the lane's output.
    pub digest: u64,
}

/// Reply to [`Request::Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResponse {
    /// Batch-level disposition (a rejection or panic costs every lane).
    pub status: Status,
    /// Whether a retry may succeed.
    pub retryable: bool,
    /// Failure detail (empty when ok).
    pub error: String,
    /// Batch execution wall time, nanoseconds.
    pub wall_ns: u64,
    /// Per-source outcomes (empty unless the batch ran).
    pub queries: Vec<QueryResult>,
}

/// Reply to [`Request::Ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestResponse {
    /// How the ingest ended.
    pub status: Status,
    /// Failure detail (empty when ok).
    pub error: String,
    /// Edges inserted by the batch.
    pub inserted: u64,
    /// Edge occurrences removed by the batch.
    pub deleted: u64,
    /// Delta layers now pending over the snapshot.
    pub layers: u32,
    /// Entries across all pending delta layers.
    pub delta_nnz: u64,
    /// Snapshot version (bumped by compaction, not by ingest).
    pub version: u64,
}

/// Reply to [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// Vertices in the published snapshot (delta growth included).
    pub nodes: u64,
    /// Edges in the merged view (snapshot + pending deltas).
    pub edges: u64,
    /// Delta layers pending over the snapshot.
    pub layers: u32,
    /// Entries across all pending delta layers.
    pub delta_nnz: u64,
    /// Snapshot version (bumped by each compaction).
    pub version: u64,
    /// Compactions since the graph was cataloged.
    pub compactions: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Reply to a run request.
    Run(RunResponse),
    /// Reply to a batch request.
    Batch(BatchResponse),
    /// Reply to an ingest request.
    Ingest(IngestResponse),
    /// Reply to a stats request.
    Stats(StatsResponse),
    /// The server accepted shutdown and finished draining.
    ShutdownAck,
    /// The request itself was unintelligible or named an unknown graph.
    Error(String),
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const TAG_PING: u8 = 0x01;
const TAG_RUN: u8 = 0x02;
const TAG_BATCH: u8 = 0x03;
const TAG_INGEST: u8 = 0x04;
const TAG_COMPACT: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;

const TAG_PONG: u8 = 0x81;
const TAG_RUN_RESULT: u8 = 0x82;
const TAG_BATCH_RESULT: u8 = 0x83;
const TAG_INGEST_RESULT: u8 = 0x84;
const TAG_STATS_RESULT: u8 = 0x85;
const TAG_SHUTDOWN_ACK: u8 = 0x86;
const TAG_ERROR: u8 = 0x87;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_STR);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

fn system_to_u8(s: System) -> u8 {
    match s {
        System::SuiteSparse => 0,
        System::GaloisBlas => 1,
        System::Lonestar => 2,
    }
}

fn system_from_u8(v: u8) -> Result<System, ProtoError> {
    Ok(match v {
        0 => System::SuiteSparse,
        1 => System::GaloisBlas,
        2 => System::Lonestar,
        _ => return Err(ProtoError::BadValue("system")),
    })
}

fn problem_to_u8(p: Problem) -> u8 {
    match p {
        Problem::Bfs => 0,
        Problem::Cc => 1,
        Problem::Ktruss => 2,
        Problem::Pr => 3,
        Problem::Sssp => 4,
        Problem::Tc => 5,
    }
}

fn problem_from_u8(v: u8) -> Result<Problem, ProtoError> {
    Ok(match v {
        0 => Problem::Bfs,
        1 => Problem::Cc,
        2 => Problem::Ktruss,
        3 => Problem::Pr,
        4 => Problem::Sssp,
        5 => Problem::Tc,
        _ => return Err(ProtoError::BadValue("problem")),
    })
}

fn batch_problem_to_u8(p: BatchProblem) -> u8 {
    match p {
        BatchProblem::Bfs => 0,
    }
}

fn batch_problem_from_u8(v: u8) -> Result<BatchProblem, ProtoError> {
    Ok(match v {
        0 => BatchProblem::Bfs,
        _ => return Err(ProtoError::BadValue("batch problem")),
    })
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match req {
        Request::Ping => buf.push(TAG_PING),
        Request::Run(r) => {
            buf.push(TAG_RUN);
            put_str(&mut buf, &r.graph);
            buf.push(system_to_u8(r.system));
            buf.push(problem_to_u8(r.problem));
            buf.extend_from_slice(&r.deadline_ms.to_le_bytes());
            buf.push(u8::from(r.verify));
        }
        Request::Batch(r) => {
            buf.push(TAG_BATCH);
            put_str(&mut buf, &r.graph);
            buf.push(system_to_u8(r.system));
            buf.push(batch_problem_to_u8(r.problem));
            buf.extend_from_slice(&r.width.to_le_bytes());
            buf.extend_from_slice(&r.deadline_ms.to_le_bytes());
            buf.push(u8::from(r.verify));
        }
        Request::Ingest(r) => {
            buf.push(TAG_INGEST);
            put_str(&mut buf, &r.graph);
            let count = r.ops.len().min(MAX_INGEST_OPS);
            buf.extend_from_slice(&(count as u32).to_le_bytes());
            for op in &r.ops[..count] {
                buf.push(u8::from(op.delete));
                buf.extend_from_slice(&op.src.to_le_bytes());
                buf.extend_from_slice(&op.dst.to_le_bytes());
                buf.extend_from_slice(&op.weight.to_le_bytes());
            }
        }
        Request::Compact { graph } => {
            buf.push(TAG_COMPACT);
            put_str(&mut buf, graph);
        }
        Request::Stats { graph } => {
            buf.push(TAG_STATS);
            put_str(&mut buf, graph);
        }
        Request::Shutdown => buf.push(TAG_SHUTDOWN),
    }
    buf
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(48);
    match resp {
        Response::Pong => buf.push(TAG_PONG),
        Response::Run(r) => {
            buf.push(TAG_RUN_RESULT);
            buf.push(r.status.to_u8());
            buf.push(u8::from(r.retryable));
            buf.push(u8::from(r.verified));
            put_str(&mut buf, &r.error);
            buf.extend_from_slice(&r.wall_ns.to_le_bytes());
            buf.extend_from_slice(&r.digest.to_le_bytes());
        }
        Response::Batch(r) => {
            buf.push(TAG_BATCH_RESULT);
            buf.push(r.status.to_u8());
            buf.push(u8::from(r.retryable));
            put_str(&mut buf, &r.error);
            buf.extend_from_slice(&r.wall_ns.to_le_bytes());
            let count = r.queries.len().min(MAX_BATCH_WIDTH as usize);
            buf.extend_from_slice(&(count as u16).to_le_bytes());
            for q in &r.queries[..count] {
                buf.extend_from_slice(&q.source.to_le_bytes());
                buf.push(q.status.to_u8());
                buf.push(u8::from(q.verified));
                buf.extend_from_slice(&q.digest.to_le_bytes());
            }
        }
        Response::Ingest(r) => {
            buf.push(TAG_INGEST_RESULT);
            buf.push(r.status.to_u8());
            put_str(&mut buf, &r.error);
            buf.extend_from_slice(&r.inserted.to_le_bytes());
            buf.extend_from_slice(&r.deleted.to_le_bytes());
            buf.extend_from_slice(&r.layers.to_le_bytes());
            buf.extend_from_slice(&r.delta_nnz.to_le_bytes());
            buf.extend_from_slice(&r.version.to_le_bytes());
        }
        Response::Stats(r) => {
            buf.push(TAG_STATS_RESULT);
            buf.extend_from_slice(&r.nodes.to_le_bytes());
            buf.extend_from_slice(&r.edges.to_le_bytes());
            buf.extend_from_slice(&r.layers.to_le_bytes());
            buf.extend_from_slice(&r.delta_nnz.to_le_bytes());
            buf.extend_from_slice(&r.version.to_le_bytes());
            buf.extend_from_slice(&r.compactions.to_le_bytes());
        }
        Response::ShutdownAck => buf.push(TAG_SHUTDOWN_ACK),
        Response::Error(msg) => {
            buf.push(TAG_ERROR);
            put_str(&mut buf, msg);
        }
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a frame payload. Every accessor returns
/// [`ProtoError::Truncated`] instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::BadValue("bool")),
        }
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        if len > MAX_STR {
            return Err(ProtoError::Oversized {
                what: "string",
                got: len,
                cap: MAX_STR,
            });
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ProtoError::BadValue("utf-8 string"))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(ProtoError::TrailingBytes(left));
        }
        Ok(())
    }
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// A typed [`ProtoError`] for any malformed input; never panics and
/// never allocates more than the payload itself plus its decoded form.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        TAG_PING => Request::Ping,
        TAG_RUN => Request::Run(RunRequest {
            graph: c.str()?,
            system: system_from_u8(c.u8()?)?,
            problem: problem_from_u8(c.u8()?)?,
            deadline_ms: c.u32()?,
            verify: c.bool()?,
        }),
        TAG_BATCH => {
            let graph = c.str()?;
            let system = system_from_u8(c.u8()?)?;
            let problem = batch_problem_from_u8(c.u8()?)?;
            let width = c.u16()?;
            if width == 0 || width > MAX_BATCH_WIDTH {
                return Err(ProtoError::BadValue("batch width"));
            }
            Request::Batch(BatchRequest {
                graph,
                system,
                problem,
                width,
                deadline_ms: c.u32()?,
                verify: c.bool()?,
            })
        }
        TAG_INGEST => {
            let graph = c.str()?;
            let count = c.u32()? as usize;
            if count > MAX_INGEST_OPS {
                return Err(ProtoError::Oversized {
                    what: "ingest ops",
                    got: count,
                    cap: MAX_INGEST_OPS,
                });
            }
            // Grow incrementally: a fabricated count hits Truncated long
            // before it could size an allocation.
            let mut ops = Vec::new();
            for _ in 0..count {
                ops.push(EdgeOp {
                    delete: c.bool()?,
                    src: c.u32()?,
                    dst: c.u32()?,
                    weight: c.u32()?,
                });
            }
            Request::Ingest(IngestRequest { graph, ops })
        }
        TAG_COMPACT => Request::Compact { graph: c.str()? },
        TAG_STATS => Request::Stats { graph: c.str()? },
        TAG_SHUTDOWN => Request::Shutdown,
        tag => return Err(ProtoError::BadTag(tag)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// A typed [`ProtoError`] for any malformed input, with the same
/// no-panic, bounded-allocation guarantees as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        TAG_PONG => Response::Pong,
        TAG_RUN_RESULT => Response::Run(RunResponse {
            status: Status::from_u8(c.u8()?)?,
            retryable: c.bool()?,
            verified: c.bool()?,
            error: c.str()?,
            wall_ns: c.u64()?,
            digest: c.u64()?,
        }),
        TAG_BATCH_RESULT => {
            let status = Status::from_u8(c.u8()?)?;
            let retryable = c.bool()?;
            let error = c.str()?;
            let wall_ns = c.u64()?;
            let count = c.u16()? as usize;
            if count > MAX_BATCH_WIDTH as usize {
                return Err(ProtoError::Oversized {
                    what: "batch queries",
                    got: count,
                    cap: MAX_BATCH_WIDTH as usize,
                });
            }
            let mut queries = Vec::new();
            for _ in 0..count {
                queries.push(QueryResult {
                    source: c.u32()?,
                    status: Status::from_u8(c.u8()?)?,
                    verified: c.bool()?,
                    digest: c.u64()?,
                });
            }
            Response::Batch(BatchResponse {
                status,
                retryable,
                error,
                wall_ns,
                queries,
            })
        }
        TAG_INGEST_RESULT => Response::Ingest(IngestResponse {
            status: Status::from_u8(c.u8()?)?,
            error: c.str()?,
            inserted: c.u64()?,
            deleted: c.u64()?,
            layers: c.u32()?,
            delta_nnz: c.u64()?,
            version: c.u64()?,
        }),
        TAG_STATS_RESULT => Response::Stats(StatsResponse {
            nodes: c.u64()?,
            edges: c.u64()?,
            layers: c.u32()?,
            delta_nnz: c.u64()?,
            version: c.u64()?,
            compactions: c.u64()?,
        }),
        TAG_SHUTDOWN_ACK => Response::ShutdownAck,
        TAG_ERROR => Response::Error(c.str()?),
        tag => return Err(ProtoError::BadTag(tag)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Run(RunRequest {
                graph: "road".into(),
                system: System::Lonestar,
                problem: Problem::Bfs,
                deadline_ms: 5000,
                verify: true,
            }),
            Request::Batch(BatchRequest {
                graph: "kron".into(),
                system: System::SuiteSparse,
                problem: BatchProblem::Bfs,
                width: 8,
                deadline_ms: 0,
                verify: false,
            }),
            Request::Ingest(IngestRequest {
                graph: "urand".into(),
                ops: vec![
                    EdgeOp {
                        delete: false,
                        src: 1,
                        dst: 2,
                        weight: 7,
                    },
                    EdgeOp {
                        delete: true,
                        src: 3,
                        dst: 4,
                        weight: 0,
                    },
                ],
            }),
            Request::Compact {
                graph: "road".into(),
            },
            Request::Stats {
                graph: "road".into(),
            },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Run(RunResponse {
                status: Status::Ok,
                retryable: false,
                verified: true,
                error: String::new(),
                wall_ns: 123_456,
                digest: 0xdead_beef,
            }),
            Response::Batch(BatchResponse {
                status: Status::Ok,
                retryable: false,
                error: String::new(),
                wall_ns: 99,
                queries: vec![QueryResult {
                    source: 17,
                    status: Status::Oom,
                    verified: false,
                    digest: 0,
                }],
            }),
            Response::Ingest(IngestResponse {
                status: Status::Failed,
                error: "unknown graph".into(),
                inserted: 0,
                deleted: 0,
                layers: 0,
                delta_nnz: 0,
                version: 0,
            }),
            Response::Stats(StatsResponse {
                nodes: 10,
                edges: 20,
                layers: 1,
                delta_nnz: 3,
                version: 2,
                compactions: 2,
            }),
            Response::ShutdownAck,
            Response::Error("bad tag".into()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                match decode_request(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(decoded) => panic!("truncation at {cut} decoded as {decoded:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(decode_request(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
        assert_eq!(decode_response(&[0x02]), Err(ProtoError::BadTag(0x02)));
        // msBFS is batch problem 0; every other tag is refused.
        let bytes = encode_request(&Request::Batch(BatchRequest {
            graph: "g".into(),
            system: System::GaloisBlas,
            problem: BatchProblem::Bfs,
            width: 2,
            deadline_ms: 0,
            verify: true,
        }));
        // tag, name length (2 bytes), name, system, then the problem.
        let at = 1 + 2 + 1 + 1;
        assert_eq!(bytes[at], 0);
        for bad in [1u8, 2, 3, u8::MAX] {
            let mut b = bytes.clone();
            b[at] = bad;
            assert_eq!(
                decode_request(&b),
                Err(ProtoError::BadValue("batch problem")),
                "batch problem tag {bad}"
            );
        }
    }

    #[test]
    fn fabricated_ingest_count_cannot_size_an_allocation() {
        // Tag + name + a count of MAX_INGEST_OPS with no op bytes behind
        // it: the decoder must fail with Truncated, not try to reserve.
        let mut bytes = Vec::new();
        bytes.push(0x04);
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(b"gg");
        bytes.extend_from_slice(&(MAX_INGEST_OPS as u32).to_le_bytes());
        assert_eq!(decode_request(&bytes), Err(ProtoError::Truncated));
        // And a count over the cap is Oversized before anything else.
        let pos = bytes.len() - 4;
        bytes[pos..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::Oversized { what: "ingest ops", .. })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_by_the_reader() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
        bytes.push(0);
        let mut r = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Proto(ProtoError::Oversized { what: "frame", .. }))
        ));
    }

    #[test]
    fn empty_and_torn_frames_are_rejected() {
        let mut r = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Proto(_))));
        // Length says 8 bytes, stream holds 3.
        let mut torn = 8u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[1, 2, 3]);
        let mut r = std::io::Cursor::new(torn);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
        // Clean EOF before any length byte is Closed, not an error.
        let mut r = std::io::Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let payload = encode_request(&Request::Stats {
            graph: "road".into(),
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn status_axis_round_trips() {
        for s in [
            Status::Ok,
            Status::Failed,
            Status::Timeout,
            Status::Oom,
            Status::Rejected,
        ] {
            assert_eq!(Status::from_u8(s.to_u8()).unwrap(), s);
        }
        assert!(Status::from_u8(9).is_err());
        assert_eq!(Status::from_cell(CellStatus::Oom), Status::Oom);
        assert!(Status::Ok.is_ok() && !Status::Rejected.is_ok());
    }
}

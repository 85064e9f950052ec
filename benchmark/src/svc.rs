//! The `service-mixed` workload: an in-process service on loopback and
//! exactly two closed-loop client connections.
//!
//! Closed loop because the callers modelled here each wait for a reply
//! before asking again; offered load therefore falls when the service
//! slows, and latency — not backlog — is what a regression moves.
//!
//! Two clocks run on every request. The client's covers the whole round
//! trip; the server's (`wall_ns` of a `Run` or `Batch` reply) covers
//! the job — solve and verify — alone. The bounded end-to-end metrics
//! are fed from the server's: every reply of this server waits ~44 ms
//! for the client's delayed ACK (length and payload go out as two
//! segments on a socket without `TCP_NODELAY`), so the client's clock
//! reads a kernel timer in 4 ms steps and would let a job slow down
//! several-fold unseen. The client's clock feeds the per-layer
//! `service.*` latencies, where the stall stays visible.

use crate::cells::Tally;
use crate::probes::{absent_edges, INGEST_OPS};
use crate::report::MetricSet;
use crate::spans::{self, Recorder};
use crate::spec::{sys_suffix, READ_PROBLEMS};
use crate::stats;
use graph::delta::EdgeBatch;
use service::protocol::{self, EdgeOp, Request, Response, Status};
use service::{
    Admission, AdmissionConfig, BatchRequest, Catalog, Client, CostClass, DrainReport,
    IngestRequest, RetryPolicy, RunRequest, Service, ServiceConfig, ServiceHandle,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use study_core::batch::BatchProblem;
use study_core::{PreparedGraph, Problem, System};
use substrate::rng::Rng;

/// Edge sets the writer cycles through (each inserted, then deleted).
const EDGE_SETS: usize = 8;
/// The reader sends a batched msBFS as every sixth request.
const BATCH_EVERY: usize = 6;
/// Sources per batched msBFS.
const BATCH_WIDTH: u16 = 8;
/// The writer compacts in every eighth iteration, first in the third —
/// so the three iterations it runs alone in phase A include one.
const COMPACT_EVERY: usize = 8;
const FIRST_COMPACT: usize = 2;

/// The explicit configuration the workload runs under — nothing read
/// from the environment.
fn config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig {
            capacity: 4,
            queue_cap: 8,
        },
        default_deadline_ms: 5_000,
    }
}

/// What a request was, for grouping latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The reader's `Run{problem, system}`.
    Read(Problem, System),
    /// The reader's width-8 batched msBFS.
    Batch(System),
    /// The writer's `Run{tc}`.
    Heavy(System),
    /// The writer's 256-op ingest.
    Ingest,
    /// The writer's compact-and-republish.
    Compact,
}

impl Kind {
    fn label(self) -> String {
        match self {
            Kind::Read(p, s) => format!("read.{p}.{}", sys_suffix(s)),
            Kind::Batch(s) => format!("batch.msbfs.{}", sys_suffix(s)),
            Kind::Heavy(s) => format!("heavy.tc.{}", sys_suffix(s)),
            Kind::Ingest => "write.ingest".to_string(),
            Kind::Compact => "write.compact".to_string(),
        }
    }
}

/// Picks the request kinds of one class, for pooling their latencies.
type KindClass = fn(&Kind) -> bool;

/// A started service.
pub struct Live {
    handle: ServiceHandle,
    graph: String,
    /// Ingest batches: set `k` inserted by `edge_ops[k].0`, deleted again
    /// by `edge_ops[k].1`, so the graph's size stays flat.
    edge_ops: Vec<(Vec<EdgeOp>, Vec<EdgeOp>)>,
    next_request: AtomicU32,
}

/// The workload's two client connections.
pub struct Clients {
    reader: Client,
    writer: Client,
    /// Writer iterations sent so far: the insert/delete alternation
    /// carries on from phase A into phase B.
    writer_iteration: usize,
}

/// The writer's ingest batches, from the seed: edges the generated
/// graph lacks, so each delete removes exactly what its insert added.
pub fn edge_sets(p: &PreparedGraph, seed: u64) -> Vec<(Vec<EdgeOp>, Vec<EdgeOp>)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1265);
    (0..EDGE_SETS)
        .map(|_| {
            let edges = absent_edges(&p.graph, &mut rng, INGEST_OPS);
            let op = |delete| {
                edges
                    .iter()
                    .map(|&(src, dst)| EdgeOp {
                        delete,
                        src,
                        dst,
                        weight: 1,
                    })
                    .collect::<Vec<_>>()
            };
            (op(false), op(true))
        })
        .collect()
}

/// Publishes `p` as the one snapshot, starts the server and connects
/// both clients (one ping each): the service's share of `setup_s`.
pub fn bring_up(
    p: PreparedGraph,
    edge_ops: Vec<(Vec<EdgeOp>, Vec<EdgeOp>)>,
    seed: u64,
    rec: &Recorder,
) -> (Live, Clients) {
    let graph = p.name.clone();
    let (catalog, _) = rec.time("service.publish", 0, || {
        let catalog = Catalog::new();
        catalog.insert(p);
        catalog
    });
    let (handle, _) = rec.time("service.start", 0, || {
        Service::start(config(), catalog).expect("loopback bind succeeds")
    });
    let ((reader, writer), _) = rec.time("service.connect", 0, || {
        let connect = |salt| {
            let mut c = Client::connect(handle.addr(), RetryPolicy::none(), seed ^ salt)
                .expect("the server is listening");
            c.ping().expect("a fresh connection answers a ping");
            c
        };
        (connect(1), connect(2))
    });
    let live = Live {
        handle,
        graph,
        edge_ops,
        next_request: AtomicU32::new(1),
    };
    let clients = Clients {
        reader,
        writer,
        writer_iteration: 0,
    };
    (live, clients)
}

/// Shuts the server down over the wire and joins it.
pub fn tear_down(live: Live, mut clients: Clients) -> DrainReport {
    clients
        .reader
        .shutdown()
        .expect("the server acknowledges shutdown");
    live.handle.join()
}

/// What one client saw in one phase.
#[derive(Debug, Default)]
struct ClientLog {
    /// Per request: its kind, the client-observed milliseconds and, for
    /// `Run` and `Batch`, the server-side job milliseconds.
    requests: Vec<(Kind, f64, Option<f64>)>,
    tally: Tally,
    timeouts: u64,
}

fn run_status(r: &service::RunResponse) -> Result<(), String> {
    if r.status.is_ok() && r.verified {
        Ok(())
    } else {
        Err(format!(
            "status {} verified {} {}",
            r.status, r.verified, r.error
        ))
    }
}

/// Sends requests of the kinds `next` yields until `until` has passed
/// (but at least `min_requests`), one at a time.
fn closed_loop(
    live: &Live,
    client: &mut Client,
    until: Instant,
    min_requests: usize,
    rec: &Recorder,
    mut next: impl FnMut(usize) -> (Kind, Request),
) -> ClientLog {
    let mut log = ClientLog::default();
    for i in 0.. {
        if i >= min_requests && Instant::now() >= until {
            break;
        }
        let (kind, request) = next(i);
        let id = live.next_request.fetch_add(1, Ordering::Relaxed);
        let (reply, secs) =
            rec.time(
                &format!("service.request.{}", kind.label()),
                id,
                || match &request {
                    Request::Run(r) => client.run(r).map(Response::Run),
                    Request::Batch(r) => client.batch(r).map(Response::Batch),
                    Request::Ingest(r) => client.ingest(r).map(Response::Ingest),
                    Request::Compact { graph } => client.compact(graph).map(Response::Stats),
                    other => unreachable!("the workload never sends {other:?}"),
                },
            );
        let mut job_ms = None;
        let (status, result) = match reply {
            Err(e) => (None, Err(format!("transport: {e}"))),
            Ok(Response::Run(r)) => {
                job_ms = Some(r.wall_ns as f64 / 1e6);
                (Some(r.status), run_status(&r))
            }
            Ok(Response::Batch(r)) => {
                job_ms = Some(r.wall_ns as f64 / 1e6);
                let all = r.status.is_ok()
                    && r.queries.len() == usize::from(BATCH_WIDTH)
                    && r.queries.iter().all(|q| q.status.is_ok() && q.verified);
                (
                    Some(r.status),
                    if all {
                        Ok(())
                    } else {
                        Err(format!("batch {} {}", r.status, r.error))
                    },
                )
            }
            Ok(Response::Ingest(r)) => {
                let applied = (r.inserted + r.deleted) as usize == INGEST_OPS;
                let ok = r.status.is_ok() && applied;
                (
                    Some(r.status),
                    if ok {
                        Ok(())
                    } else {
                        Err(format!("ingest {} {}", r.status, r.error))
                    },
                )
            }
            Ok(Response::Stats(_)) => (Some(Status::Ok), Ok(())),
            Ok(other) => (None, Err(format!("unexpected reply {other:?}"))),
        };
        log.requests.push((kind, secs * 1e3, job_ms));
        if status == Some(Status::Timeout) {
            log.timeouts += 1;
        }
        log.tally.record(|| kind.label(), result);
    }
    log
}

fn reader_loop(live: &Live, client: &mut Client, until: Instant, rec: &Recorder) -> ClientLog {
    // Three batches — one per system — and the fifteen reads between
    // them, so every kind has a sample.
    let min_requests = 3 * BATCH_EVERY;
    let mut reads = 0usize;
    closed_loop(live, client, until, min_requests, rec, |i| {
        if i % BATCH_EVERY == BATCH_EVERY - 1 {
            let system = System::all()[(i / BATCH_EVERY) % 3];
            let request = BatchRequest {
                graph: live.graph.clone(),
                system,
                problem: BatchProblem::Bfs,
                width: BATCH_WIDTH,
                deadline_ms: 0,
                verify: true,
            };
            return (Kind::Batch(system), Request::Batch(request));
        }
        let problem = READ_PROBLEMS[reads % READ_PROBLEMS.len()];
        let system = System::all()[(reads / READ_PROBLEMS.len()) % 3];
        reads += 1;
        let request = RunRequest {
            graph: live.graph.clone(),
            system,
            problem,
            deadline_ms: 0,
            verify: true,
        };
        (Kind::Read(problem, system), Request::Run(request))
    })
}

/// Iteration `j` of the writer sends tc, then an ingest, then (in every
/// eighth) a compact.
fn writer_loop(
    live: &Live,
    client: &mut Client,
    iteration: &mut usize,
    until: Instant,
    min_requests: usize,
    rec: &Recorder,
) -> ClientLog {
    let mut schedule: Vec<(Kind, Request)> = Vec::new();
    closed_loop(live, client, until, min_requests, rec, |_| {
        if schedule.is_empty() {
            let j = *iteration;
            *iteration += 1;
            if j % COMPACT_EVERY == FIRST_COMPACT {
                schedule.push((
                    Kind::Compact,
                    Request::Compact {
                        graph: live.graph.clone(),
                    },
                ));
            }
            let (insert, delete) = &live.edge_ops[(j / 2) % live.edge_ops.len()];
            let ops = if j.is_multiple_of(2) { insert } else { delete }.clone();
            schedule.push((
                Kind::Ingest,
                Request::Ingest(IngestRequest {
                    graph: live.graph.clone(),
                    ops,
                }),
            ));
            let system = System::all()[j % 3];
            let tc = RunRequest {
                graph: live.graph.clone(),
                system,
                problem: Problem::Tc,
                deadline_ms: 0,
                verify: true,
            };
            schedule.push((Kind::Heavy(system), Request::Run(tc)));
        }
        schedule.pop().expect("just refilled")
    })
}

/// Latencies and counts of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds from the first request to the last reply.
    pub wall_s: f64,
    /// `VmHWM` of the process when the phase ended, in MiB.
    pub peak_rss_mb: f64,
    /// Client-observed milliseconds per request kind.
    pub latencies_ms: BTreeMap<Kind, Vec<f64>>,
    /// Server-side job milliseconds (solve + verify; queue wait and
    /// transport excluded) per `Run` and `Batch` kind, in the order of
    /// `latencies_ms`.
    pub job_ms: BTreeMap<Kind, Vec<f64>>,
    /// Replies with status `timeout`.
    pub timeouts: u64,
}

impl Phase {
    fn absorb(&mut self, log: ClientLog, tally: &mut Tally) {
        for (kind, client_ms, job_ms) in log.requests {
            self.latencies_ms.entry(kind).or_default().push(client_ms);
            if let Some(ms) = job_ms {
                self.job_ms.entry(kind).or_default().push(ms);
            }
        }
        self.timeouts += log.timeouts;
        tally.attempted += log.tally.attempted;
        tally.failed += log.tally.failed;
    }

    /// Requests completed.
    pub fn requests(&self) -> usize {
        self.latencies_ms.values().map(Vec::len).sum()
    }

    /// The client-observed latencies of every kind `class` accepts,
    /// pooled.
    fn pooled_ms(&self, class: KindClass) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .filter(|(k, _)| class(k))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Every client-observed `Run` read latency, pooled.
    pub fn reads_ms(&self) -> Vec<f64> {
        self.pooled_ms(|k| matches!(k, Kind::Read(..)))
    }

    /// What the service put around each read's job — transport,
    /// framing, admission wait, containment: client-observed minus
    /// server-side milliseconds, request by request.
    pub fn read_overheads_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .filter(|(k, _)| matches!(k, Kind::Read(..)))
            .flat_map(|(k, client)| client.iter().zip(&self.job_ms[k]).map(|(c, j)| c - j))
            .collect()
    }

    /// The job time a kind is reported at: the lower quartile of its
    /// server-side samples.
    ///
    /// Not the median: a run gives ~10 samples per kind (the transport
    /// stall throttles both loops), and on two cores a random 20-60 % of
    /// them shared the pool with the other client's job and took up to
    /// twice as long. The median therefore flips between the two modes
    /// from run to run (14-22 % spread over ten seeds); the lower
    /// quartile mostly stays in the uncontended one (1-6 % on the same
    /// runs) and, unlike the minimum, does not follow a single freak
    /// sample.
    fn job_q1_ms(samples: &[f64]) -> f64 {
        stats::summary(samples).q1
    }

    /// Σ over the reader's problems of the server-side time of a
    /// verified `Run` on `system`, in seconds.
    pub fn solve_s(&self, system: System) -> f64 {
        READ_PROBLEMS
            .iter()
            .map(|&p| Self::job_q1_ms(&self.job_ms[&Kind::Read(p, system)]))
            .sum::<f64>()
            / 1e3
    }

    /// Σ over the eighteen job kinds (twelve reads, msBFS batch and tc
    /// on each system) of the server-side time to a verified answer,
    /// in seconds.
    pub fn answer_s(&self) -> f64 {
        self.job_ms
            .values()
            .map(|v| Self::job_q1_ms(v))
            .sum::<f64>()
            / 1e3
    }

    /// Fewest samples behind any of the terms [`Phase::answer_s`] sums.
    pub fn min_samples(&self) -> usize {
        self.job_ms.values().map(Vec::len).min().unwrap_or(0)
    }

    /// One line per request kind: count, then median, minimum and
    /// quartiles of the server-side job time, then the client-observed
    /// median.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (kind, client) in &self.latencies_ms {
            let job = self.job_ms.get(kind).map_or(String::new(), |v| {
                let s = stats::summary(v);
                format!(
                    "job median {:>9.3} ms  min {:>9.3}  q1 {:>9.3}  q3 {:>9.3}  | ",
                    s.median, s.min, s.q1, s.q3
                )
            });
            out.push_str(&format!(
                "    {:<18} n={:<4} {job:<73}client median {:>9.3} ms\n",
                kind.label(),
                client.len(),
                stats::median(client)
            ));
        }
        out
    }
}

/// Phase A (`alone`, also the warm-up: the reader by itself for a fifth
/// of `seconds`, then three iterations of the writer by itself) then
/// phase B (the measured phase: reader and writer together).
///
/// `peak_rss_mb` is read when phase A ends: by then every request kind
/// has run, one job at a time, so the reading repeats. Phase B's own
/// peak depends on which two jobs happened to overlap (73 or 86 MiB run
/// by run at the default size).
pub fn run_phases(
    live: &Live,
    clients: &mut Clients,
    seconds: f64,
    rec: &Recorder,
    tally: &mut Tally,
) -> (Phase, Phase) {
    let Clients {
        reader,
        writer,
        writer_iteration,
    } = clients;

    let mut alone = Phase::default();
    let (_, wall) = rec.time("service.phase_a", 0, || {
        let until = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
        alone.absorb(reader_loop(live, reader, until, rec), tally);
        // tc on each system, three ingests, one compact.
        let log = writer_loop(live, writer, writer_iteration, Instant::now(), 7, rec);
        alone.absorb(log, tally);
    });
    alone.wall_s = wall;
    alone.peak_rss_mb = crate::host::peak_rss_mb();

    let mut mixed = Phase::default();
    let (_, wall) = rec.time("service.phase_b", 0, || {
        let until = Instant::now() + Duration::from_secs_f64(seconds * 0.8);
        let parent = spans::current();
        let (r, w) = std::thread::scope(|scope| {
            let r = scope.spawn(|| {
                spans::adopt(parent);
                reader_loop(live, reader, until, rec)
            });
            let w = scope.spawn(|| {
                spans::adopt(parent);
                // At least tc on each system, whatever `seconds` is.
                writer_loop(live, writer, writer_iteration, until, 6, rec)
            });
            (
                r.join().expect("reader thread"),
                w.join().expect("writer thread"),
            )
        });
        mixed.absorb(r, tally);
        mixed.absorb(w, tally);
    });
    mixed.wall_s = wall;
    mixed.peak_rss_mb = crate::host::peak_rss_mb();
    (alone, mixed)
}

/// `service.*` probes that need no traffic mix: transport, codec,
/// admission and catalog, each alone.
pub fn service_layer(live: &Live, p: &PreparedGraph, rec: &Recorder, out: &mut MetricSet) {
    let per_call_us = |rec: &Recorder, name: &str, reps: usize, f: &mut dyn FnMut()| {
        let (_, secs) = rec.time(name, 0, || (0..reps).for_each(|_| f()));
        secs / reps as f64 * 1e6
    };
    let addr = live.handle.addr();
    let us = per_call_us(rec, "service.connect", 50, &mut || {
        black_box(Client::connect(addr, RetryPolicy::none(), 0).expect("the server is listening"));
    });
    out.set("service.connect_us", us, 50);
    let mut client =
        Client::connect(addr, RetryPolicy::none(), 0).expect("the server is listening");
    let us = per_call_us(rec, "service.ping", 40, &mut || {
        client.ping().expect("pong")
    });
    out.set("service.ping_rtt_us", us, 40);

    let run = Request::Run(RunRequest {
        graph: live.graph.clone(),
        system: System::GaloisBlas,
        problem: Problem::Bfs,
        deadline_ms: 0,
        verify: true,
    });
    let run_reply = Response::Run(service::RunResponse {
        status: Status::Ok,
        retryable: false,
        verified: true,
        error: String::new(),
        wall_ns: 1,
        digest: 1,
    });
    let us = per_call_us(rec, "service.codec_run", 20_000, &mut || {
        let req = protocol::decode_request(&protocol::encode_request(&run)).expect("round trip");
        let rep =
            protocol::decode_response(&protocol::encode_response(&run_reply)).expect("round trip");
        black_box((req, rep));
    });
    out.set("service.codec_run_us", us, 20_000);
    let ingest = Request::Ingest(IngestRequest {
        graph: live.graph.clone(),
        ops: live.edge_ops[0].0.clone(),
    });
    let us = per_call_us(rec, "service.codec_ingest", 2_000, &mut || {
        black_box(
            protocol::decode_request(&protocol::encode_request(&ingest)).expect("round trip"),
        );
    });
    out.set("service.codec_ingest_us", us, 2_000);

    let admission = Admission::new(config().admission);
    let us = per_call_us(rec, "service.admission_acquire", 200_000, &mut || {
        black_box(
            admission
                .acquire(CostClass::Cheap, None)
                .expect("uncontended"),
        );
    });
    out.set("service.admission_acquire_ns", us * 1e3, 200_000);

    let catalog = Catalog::new();
    catalog.insert(p.clone());
    let entry = catalog.get(&p.name).expect("just inserted");
    let batches: Vec<(EdgeBatch, EdgeBatch)> = live
        .edge_ops
        .iter()
        .map(|(insert, _)| {
            let edges: Vec<_> = insert.iter().map(|op| (op.src, op.dst)).collect();
            crate::probes::insert_and_delete(&edges)
        })
        .collect();
    let (mut ingest_us, mut compact_ms) = (Vec::new(), Vec::new());
    for (insert, delete) in &batches {
        for batch in [insert, delete] {
            let (r, secs) = rec.time("service.catalog_ingest", 0, || entry.ingest(batch));
            r.expect("a well-formed batch applies");
            ingest_us.push(secs * 1e6);
        }
        if compact_ms.len() < 3 {
            let (r, secs) = rec.time("service.catalog_compact", 0, || entry.compact());
            r.expect("compaction without a fault plan succeeds");
            compact_ms.push(secs * 1e3);
        }
    }
    out.set(
        "service.catalog_ingest_us",
        stats::median(&ingest_us),
        ingest_us.len(),
    );
    out.set(
        "service.catalog_compact_ms",
        stats::median(&compact_ms),
        compact_ms.len(),
    );
}

/// `service.*` metrics of the two phases and the drain: what the
/// clients observed, transport stall and admission wait included.
pub fn phase_metrics(alone: &Phase, mixed: &Phase, drain: DrainReport, out: &mut MetricSet) {
    let reads_a = alone.reads_ms();
    let reads_b = mixed.reads_ms();
    out.set(
        "service.read_alone_p50_ms",
        stats::median(&reads_a),
        reads_a.len(),
    );
    out.set(
        "service.read_alone_p95_ms",
        stats::percentile(&reads_a, 95.0),
        reads_a.len(),
    );
    out.set(
        "service.read_p50_ms",
        stats::median(&reads_b),
        reads_b.len(),
    );
    out.set(
        "service.read_p95_ms",
        stats::percentile(&reads_b, 95.0),
        reads_b.len(),
    );
    let classes: [(&str, KindClass); 3] = [
        ("batch_p50_ms", |k| matches!(k, Kind::Batch(_))),
        ("heavy_p50_ms", |k| matches!(k, Kind::Heavy(_))),
        ("write_p50_ms", |k| matches!(k, Kind::Ingest)),
    ];
    for (name, class) in classes {
        let v = mixed.pooled_ms(class);
        out.set(&format!("service.{name}"), stats::median(&v), v.len());
    }
    out.set(
        "service.run_overhead_ms",
        stats::median(&mixed.read_overheads_ms()),
        reads_b.len(),
    );
    out.set(
        "service.qps",
        mixed.requests() as f64 / mixed.wall_s,
        mixed.requests(),
    );
    let requests = alone.requests() + mixed.requests();
    out.set("service.requests", requests as f64, requests);
    out.set("service.rejected", drain.rejected as f64, requests);
    out.set(
        "service.timeouts",
        (alone.timeouts + mixed.timeouts) as f64,
        requests,
    );
    out.set(
        "service.contained_failures",
        drain.contained_failures as f64,
        requests,
    );
    out.set(
        "service.drained_clean",
        f64::from(u8::from(drain.drained_clean)),
        1,
    );
}

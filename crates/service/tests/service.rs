//! End-to-end tests of the analytics service: a real server on an
//! ephemeral loopback port, real clients over the wire protocol, real
//! jobs on the shared galois-rt pool.

use graph::{Scale, StudyGraph};
use service::protocol::{BatchRequest, EdgeOp, IngestRequest, Request, RunRequest, Status};
use service::{
    AdmissionConfig, Catalog, Client, RetryPolicy, Service, ServiceConfig, ServiceHandle,
};
use std::time::Duration;
use study_core::batch::BatchProblem;
use study_core::prepared::PreparedGraph;
use study_core::problem::{Problem, System};

const GRAPH: &str = "road-USA-W";

fn tiny_catalog() -> Catalog {
    let catalog = Catalog::new();
    catalog.insert(PreparedGraph::study(StudyGraph::RoadUsaW, Scale::tiny()));
    catalog
}

fn start(capacity: u32) -> ServiceHandle {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig {
            capacity,
            queue_cap: (capacity * 2).max(4),
        },
        default_deadline_ms: 0,
    };
    Service::start(config, tiny_catalog()).expect("bind an ephemeral port")
}

fn client(handle: &ServiceHandle) -> Client {
    Client::connect(handle.addr(), RetryPolicy::none(), 42).expect("connect")
}

fn run_request(system: System, problem: Problem) -> RunRequest {
    RunRequest {
        graph: GRAPH.to_string(),
        system,
        problem,
        deadline_ms: 0,
        verify: true,
    }
}

#[test]
fn every_system_and_problem_serves_verified_over_the_wire() {
    let handle = start(8);
    let mut c = client(&handle);
    c.ping().expect("ping");
    for system in [System::SuiteSparse, System::GaloisBlas, System::Lonestar] {
        for problem in [
            Problem::Bfs,
            Problem::Cc,
            Problem::Ktruss,
            Problem::Pr,
            Problem::Sssp,
            Problem::Tc,
        ] {
            let r = c.run(&run_request(system, problem)).expect("transport");
            assert_eq!(
                r.status,
                Status::Ok,
                "{system:?}/{problem:?} failed: {}",
                r.error
            );
            assert!(r.verified, "{system:?}/{problem:?} was not verified");
            assert_ne!(r.digest, 0);
        }
    }
    // Systems agree on the digest for a deterministic problem.
    let a = c.run(&run_request(System::SuiteSparse, Problem::Bfs)).unwrap();
    let b = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
    assert_eq!(a.digest, b.digest, "BFS digests diverge across systems");

    c.shutdown().expect("shutdown");
    let report = handle.join();
    assert!(report.drained_clean);
    assert_eq!(report.contained_failures, 0);
    assert!(report.served >= 20);
}

#[test]
fn batched_queries_serve_and_verify_per_lane() {
    let handle = start(8);
    let mut c = client(&handle);
    let r = c
        .batch(&BatchRequest {
            graph: GRAPH.to_string(),
            system: System::GaloisBlas,
            problem: BatchProblem::Bfs,
            width: 4,
            deadline_ms: 0,
            verify: true,
        })
        .expect("transport");
    assert_eq!(r.status, Status::Ok, "{}", r.error);
    assert_eq!(r.queries.len(), 4);
    for q in &r.queries {
        assert_eq!(q.status, Status::Ok, "lane {} failed", q.source);
        assert!(q.verified, "lane {} unverified", q.source);
    }
    c.shutdown().expect("shutdown");
    assert!(handle.join().drained_clean);
}

#[test]
fn ingest_compact_stats_flow_republishes_the_snapshot() {
    let handle = start(4);
    let mut c = client(&handle);
    let before = c.stats(GRAPH).expect("stats");
    assert_eq!((before.layers, before.version), (0, 0));

    let r = c
        .ingest(&IngestRequest {
            graph: GRAPH.to_string(),
            ops: vec![
                EdgeOp {
                    delete: false,
                    src: 0,
                    dst: 5,
                    weight: 3,
                },
                EdgeOp {
                    delete: false,
                    src: 5,
                    dst: 0,
                    weight: 3,
                },
            ],
        })
        .expect("transport");
    assert_eq!(r.status, Status::Ok, "{}", r.error);
    assert_eq!(r.inserted, 2);
    assert_eq!(r.layers, 1);

    let mid = c.stats(GRAPH).expect("stats");
    assert_eq!(mid.layers, 1);
    assert!(mid.edges > before.edges);
    assert_eq!(mid.version, 0, "ingest must not republish");

    let after = c.compact(GRAPH).expect("compact");
    assert_eq!((after.layers, after.version, after.compactions), (0, 1, 1));
    assert_eq!(after.edges, mid.edges);

    // Queries still verify against the republished snapshot.
    let run = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
    assert_eq!(run.status, Status::Ok, "{}", run.error);
    assert!(run.verified);

    c.shutdown().expect("shutdown");
    assert!(handle.join().drained_clean);
}

#[test]
fn cheap_work_completes_alongside_concurrent_expensive_jobs() {
    let handle = start(4);
    let addr = handle.addr();
    // Two expensive jobs saturate the expensive share of the capacity.
    let expensive: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, RetryPolicy::none(), 100 + i).unwrap();
                c.run(&run_request(System::Lonestar, Problem::Ktruss))
                    .expect("transport")
            })
        })
        .collect();
    // Meanwhile cheap bfs traffic keeps flowing on its reserved unit.
    let mut c = client(&handle);
    let mut cheap_ok = 0;
    for _ in 0..6 {
        let r = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
        assert_ne!(
            r.status,
            Status::Rejected,
            "cheap work shed while expensive ran: {}",
            r.error
        );
        if r.status == Status::Ok {
            cheap_ok += 1;
        }
    }
    assert_eq!(cheap_ok, 6);
    for t in expensive {
        let r = t.join().expect("expensive thread");
        assert_eq!(r.status, Status::Ok, "{}", r.error);
    }
    c.shutdown().expect("shutdown");
    let report = handle.join();
    assert!(report.drained_clean);
    assert_eq!(report.contained_failures, 0);
}

#[test]
fn zero_capacity_sheds_with_retryable_rejection_and_recovers() {
    let handle = start(4);
    let mut c = client(&handle);
    handle.set_capacity(0);
    let r = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
    assert_eq!(r.status, Status::Rejected);
    assert!(r.retryable, "budget-class rejection must be retryable");
    assert!(!r.error.is_empty());

    handle.set_capacity(4);
    let r = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
    assert_eq!(r.status, Status::Ok, "{}", r.error);

    // With retries enabled, a client rides out a zero-capacity window
    // that another thread closes while the client is backing off. The
    // restorer fires at 5 ms; the retry schedule's final attempt lands
    // no earlier than ~15 ms even with minimal jitter.
    handle.set_capacity(0);
    let addr = handle.addr();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            handle.set_capacity(4);
        });
        let mut retrying = Client::connect(
            addr,
            RetryPolicy {
                max_retries: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(20),
            },
            7,
        )
        .unwrap();
        let r = retrying.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
        assert_eq!(r.status, Status::Ok, "{}", r.error);
    });

    c.shutdown().expect("shutdown");
    let report = handle.join();
    assert!(report.drained_clean);
    assert!(report.rejected >= 1);
}

#[test]
fn unknown_graph_is_a_failed_response_not_a_dead_connection() {
    let handle = start(4);
    let mut c = client(&handle);
    let r = c
        .run(&RunRequest {
            graph: "no-such-graph".to_string(),
            system: System::Lonestar,
            problem: Problem::Bfs,
            deadline_ms: 0,
            verify: false,
        })
        .expect("transport");
    assert_eq!(r.status, Status::Failed);
    assert!(r.error.contains("unknown graph"));
    // Connection still serves.
    c.ping().expect("ping after failed request");
    let r = c.run(&run_request(System::Lonestar, Problem::Bfs)).unwrap();
    assert_eq!(r.status, Status::Ok);
    c.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn malformed_frames_get_protocol_errors_and_the_server_survives() {
    use std::io::Write;
    let handle = start(4);
    // A raw socket speaking garbage: bad decode keeps the connection,
    // bad framing reports then drops it — the server never dies.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    // Valid frame, unknown tag: typed error response, connection lives.
    let payload = [0x7fu8];
    raw.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&payload).unwrap();
    let reply = service::protocol::read_frame(&mut raw).expect("error reply");
    match service::protocol::decode_response(&reply) {
        Ok(service::protocol::Response::Error(msg)) => {
            assert!(msg.contains("protocol error"), "{msg}");
        }
        other => panic!("expected protocol error response, got {other:?}"),
    }
    // Same connection still serves a valid request.
    let ping = service::protocol::encode_request(&Request::Ping);
    service::protocol::write_frame(&mut raw, &ping).unwrap();
    let reply = service::protocol::read_frame(&mut raw).expect("pong");
    assert!(matches!(
        service::protocol::decode_response(&reply),
        Ok(service::protocol::Response::Pong)
    ));
    drop(raw);

    // A fresh healthy client confirms the server survived.
    let mut c = client(&handle);
    c.ping().expect("server alive after garbage");
    c.shutdown().expect("shutdown");
    assert!(handle.join().drained_clean);
}

#[test]
fn deadline_on_the_wire_times_out_a_queued_request() {
    let handle = start(1);
    let addr = handle.addr();
    // Occupy the single unit with an expensive job.
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, RetryPolicy::none(), 1).unwrap();
        c.run(&run_request(System::Lonestar, Problem::Ktruss))
            .expect("transport")
    });
    // Give the blocker time to admit, then race a 1ms-deadline request.
    std::thread::sleep(Duration::from_millis(50));
    let mut c = client(&handle);
    let r = c
        .run(&RunRequest {
            deadline_ms: 1,
            ..run_request(System::Lonestar, Problem::Bfs)
        })
        .expect("transport");
    // Either it queued past its deadline (timeout) or it slipped in after
    // the blocker finished (ok) — never a hang, never a rejection.
    assert!(
        matches!(r.status, Status::Timeout | Status::Ok),
        "unexpected status {:?}: {}",
        r.status,
        r.error
    );
    let b = blocker.join().unwrap();
    assert_eq!(b.status, Status::Ok, "{}", b.error);
    c.shutdown().expect("shutdown");
    assert!(handle.join().drained_clean);
}

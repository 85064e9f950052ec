//! Property tests hardening the wire protocol (the service-layer analog
//! of `graph::io::read_binary`'s torture tests): whatever bytes arrive —
//! valid frames with mutated bytes, truncations, random garbage — the
//! decoders return a typed [`ProtoError`] or a valid message, never
//! panic, and never allocate past the payload-derived bound.

use service::protocol::{
    self, BatchRequest, BatchResponse, EdgeOp, IngestRequest, IngestResponse, ProtoError,
    QueryResult, Request, Response, RunRequest, RunResponse, StatsResponse, Status, MAX_FRAME,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use study_core::batch::BatchProblem;
use study_core::problem::{Problem, System};
use substrate::prop::{self, Gen};
use substrate::prop_assert;

const CASES: u32 = 256;

fn arb_string(g: &mut Gen, max: usize) -> String {
    let len = g.gen_range(0usize..max);
    (0..len)
        .map(|_| *g.choose(&['a', 'b', 'g', 'r', '-', '0', 'é']))
        .collect()
}

fn arb_system(g: &mut Gen) -> System {
    *g.choose(&[System::SuiteSparse, System::GaloisBlas, System::Lonestar])
}

fn arb_status(g: &mut Gen) -> Status {
    *g.choose(&[
        Status::Ok,
        Status::Failed,
        Status::Timeout,
        Status::Oom,
        Status::Rejected,
    ])
}

fn arb_request(g: &mut Gen) -> Request {
    match g.gen_range(0usize..7) {
        0 => Request::Ping,
        1 => Request::Run(RunRequest {
            graph: arb_string(g, 24),
            system: arb_system(g),
            problem: *g.choose(&[
                Problem::Bfs,
                Problem::Cc,
                Problem::Ktruss,
                Problem::Pr,
                Problem::Sssp,
                Problem::Tc,
            ]),
            deadline_ms: g.gen_range(0u32..100_000),
            verify: g.gen_bool(0.5),
        }),
        2 => Request::Batch(BatchRequest {
            graph: arb_string(g, 24),
            system: arb_system(g),
            problem: BatchProblem::Bfs,
            width: g.gen_range(1u16..=protocol::MAX_BATCH_WIDTH),
            deadline_ms: g.gen_range(0u32..100_000),
            verify: g.gen_bool(0.5),
        }),
        3 => Request::Ingest(IngestRequest {
            graph: arb_string(g, 24),
            ops: g.vec(0..32, |g| EdgeOp {
                delete: g.gen_bool(0.3),
                src: g.gen_range(0u32..1000),
                dst: g.gen_range(0u32..1000),
                weight: g.gen_range(0u32..100),
            }),
        }),
        4 => Request::Compact {
            graph: arb_string(g, 24),
        },
        5 => Request::Stats {
            graph: arb_string(g, 24),
        },
        _ => Request::Shutdown,
    }
}

fn arb_response(g: &mut Gen) -> Response {
    match g.gen_range(0usize..7) {
        0 => Response::Pong,
        1 => Response::Run(RunResponse {
            status: arb_status(g),
            retryable: g.gen_bool(0.5),
            verified: g.gen_bool(0.5),
            error: arb_string(g, 64),
            wall_ns: g.gen_range(0u64..u64::MAX / 2),
            digest: g.gen_range(0u64..u64::MAX / 2),
        }),
        2 => Response::Batch(BatchResponse {
            status: arb_status(g),
            retryable: g.gen_bool(0.5),
            error: arb_string(g, 64),
            wall_ns: g.gen_range(0u64..u64::MAX / 2),
            queries: g.vec(0..8, |g| QueryResult {
                source: g.gen_range(0u32..1000),
                status: arb_status(g),
                verified: g.gen_bool(0.5),
                digest: g.gen_range(0u64..u64::MAX / 2),
            }),
        }),
        3 => Response::Ingest(IngestResponse {
            status: arb_status(g),
            error: arb_string(g, 64),
            inserted: g.gen_range(0u64..10_000),
            deleted: g.gen_range(0u64..10_000),
            layers: g.gen_range(0u32..100),
            delta_nnz: g.gen_range(0u64..10_000),
            version: g.gen_range(0u64..100),
        }),
        4 => Response::Stats(StatsResponse {
            nodes: g.gen_range(0u64..1_000_000),
            edges: g.gen_range(0u64..1_000_000),
            layers: g.gen_range(0u32..100),
            delta_nnz: g.gen_range(0u64..10_000),
            version: g.gen_range(0u64..100),
            compactions: g.gen_range(0u64..100),
        }),
        5 => Response::ShutdownAck,
        _ => Response::Error(arb_string(g, 64)),
    }
}

/// Decodes under `catch_unwind`; a panic fails the property.
fn decode_both_never_panics(payload: &[u8]) -> Result<(), String> {
    let bytes = payload.to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = protocol::decode_request(&bytes);
        let _ = protocol::decode_response(&bytes);
    }));
    outcome.map_err(|_| format!("decoder panicked on {} bytes", payload.len()))
}

#[test]
fn requests_round_trip_for_arbitrary_inputs() {
    prop::check(
        "requests_round_trip_for_arbitrary_inputs",
        prop::cases(CASES),
        arb_request,
        |req| {
            let bytes = protocol::encode_request(req);
            prop_assert!(bytes.len() <= MAX_FRAME, "encoded request fits a frame");
            let decoded = protocol::decode_request(&bytes)
                .map_err(|e| format!("decode failed: {e}"))?;
            prop_assert!(&decoded == req, "round trip changed the request");
            Ok(())
        },
    );
}

#[test]
fn responses_round_trip_for_arbitrary_inputs() {
    prop::check(
        "responses_round_trip_for_arbitrary_inputs",
        prop::cases(CASES),
        arb_response,
        |resp| {
            let bytes = protocol::encode_response(resp);
            prop_assert!(bytes.len() <= MAX_FRAME, "encoded response fits a frame");
            let decoded = protocol::decode_response(&bytes)
                .map_err(|e| format!("decode failed: {e}"))?;
            prop_assert!(&decoded == resp, "round trip changed the response");
            Ok(())
        },
    );
}

#[test]
fn mutated_valid_frames_never_panic_the_decoders() {
    prop::check(
        "mutated_valid_frames_never_panic_the_decoders",
        prop::cases(CASES),
        |g| {
            // Start from a valid encoding, then corrupt arbitrary bytes.
            let mut bytes = if g.gen_bool(0.5) {
                protocol::encode_request(&arb_request(g))
            } else {
                protocol::encode_response(&arb_response(g))
            };
            let flips = g.gen_range(1usize..8);
            for _ in 0..flips {
                if bytes.is_empty() {
                    break;
                }
                let max = bytes.len();
                let at = g.gen_range(0usize..max);
                bytes[at] = g.gen_range(0u32..256) as u8;
            }
            // Optionally truncate the tail as well.
            if g.gen_bool(0.3) && !bytes.is_empty() {
                let max = bytes.len();
                bytes.truncate(g.gen_range(0usize..max));
            }
            bytes
        },
        |bytes| {
            decode_both_never_panics(bytes)?;
            Ok(())
        },
    );
}

#[test]
fn random_garbage_never_panics_the_decoders() {
    prop::check(
        "random_garbage_never_panics_the_decoders",
        prop::cases(CASES),
        |g| g.vec(0..256, |g| g.gen_range(0u32..256) as u8),
        |bytes| {
            decode_both_never_panics(bytes)?;
            Ok(())
        },
    );
}

#[test]
fn fabricated_lengths_are_rejected_before_allocation() {
    prop::check(
        "fabricated_lengths_are_rejected_before_allocation",
        prop::cases(CASES),
        |g| {
            // A plausible prefix followed by a huge claimed count/length.
            let mut bytes = Vec::new();
            let tag = *g.choose(&[0x02u8, 0x03, 0x04, 0x82, 0x83, 0x87]);
            bytes.push(tag);
            // A string length claiming far more than the payload holds.
            let claimed = g.gen_range(2000u32..u16::MAX as u32) as u16;
            bytes.extend_from_slice(&claimed.to_le_bytes());
            bytes.extend_from_slice(b"xy");
            bytes
        },
        |bytes| {
            // The decoder must fail with a typed error — and since the
            // claimed length exceeds both caps and the payload, it must
            // be Oversized or Truncated, never an attempted allocation.
            fn classify(result: Result<impl std::fmt::Debug, ProtoError>) -> Result<(), String> {
                match result {
                    Ok(m) => Err(format!("fabricated length decoded as {m:?}")),
                    Err(
                        ProtoError::Oversized { .. }
                        | ProtoError::Truncated
                        | ProtoError::BadTag(_)
                        | ProtoError::BadValue(_),
                    ) => Ok(()),
                    Err(e) => Err(format!("unexpected error class: {e}")),
                }
            }
            classify(protocol::decode_request(bytes))?;
            classify(protocol::decode_response(bytes))?;
            Ok(())
        },
    );
}

#[test]
fn torn_streams_surface_io_errors_not_panics() {
    prop::check(
        "torn_streams_surface_io_errors_not_panics",
        prop::cases(CASES),
        |g| {
            let payload = protocol::encode_request(&arb_request(g));
            let mut wire = Vec::new();
            protocol::write_frame(&mut wire, &payload).expect("encode");
            // Cut the wire at an arbitrary point.
            let max = wire.len();
            wire.truncate(g.gen_range(0usize..max));
            wire
        },
        |wire| {
            let mut r = std::io::Cursor::new(wire.clone());
            let outcome = catch_unwind(AssertUnwindSafe(|| protocol::read_frame(&mut r)));
            let result = outcome.map_err(|_| "read_frame panicked".to_string())?;
            match result {
                // Complete frame survived the cut (cut landed at the end).
                Ok(_) => Ok(()),
                Err(protocol::FrameError::Closed) | Err(protocol::FrameError::Io(_)) => Ok(()),
                Err(protocol::FrameError::Proto(e)) => {
                    Err(format!("valid prefix misread as protocol error: {e}"))
                }
            }
        },
    );
}

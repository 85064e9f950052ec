//! `service_bench` — CI harness for the long-lived analytics service.
//!
//! Two subcommands:
//!
//! * `serve` — prepare the study graphs, start the server with the
//!   `STUDY_SVC_*` knobs and print `LISTENING <addr>` on stdout; exits
//!   `0` only after a client-initiated shutdown with a clean drain.
//! * `drive <addr>` — run the mixed sustained-throughput workload
//!   against a running server, print the disposition summary, and (with
//!   `--shutdown`) drain the server at the end. Exits nonzero on any
//!   transport error, or — unless `--allow-contained` (the fault legs
//!   of CI's service matrix) — on any non-ok served request.
//!
//! ```text
//! STUDY_SCALE=0.05 cargo run -p bench --bin service_bench --release -- serve
//! cargo run -p bench --bin service_bench --release -- drive 127.0.0.1:PORT --shutdown
//! ```

use bench::service_load::{self, LoadSpec};
use graphblas::ops::{with_policy, Policy};
use service::{Catalog, Client, RetryPolicy, Service, ServiceConfig};
use std::net::SocketAddr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(),
        Some("drive") => drive(&args[1..]),
        _ => {
            eprintln!("usage: service_bench serve | service_bench drive ADDR [options]");
            2
        }
    };
    std::process::exit(code);
}

fn serve() -> i32 {
    let policy = Policy::from_env();
    let scale = bench::scale_from_env();
    let catalog = Catalog::new();
    for p in bench::prepare_graphs(scale) {
        eprintln!("[serve] cataloged {} ({} nodes)", p.name, p.graph.num_nodes());
        catalog.insert(std::sync::Arc::unwrap_or_clone(p));
    }
    // The service stamps the policy it starts under on every job.
    let handle = match with_policy(policy, || {
        Service::start(ServiceConfig::from_env(), catalog)
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("[serve] bind failed: {e}");
            return 1;
        }
    };
    // The driver greps this line for the ephemeral port.
    println!("LISTENING {}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let report = handle.join();
    eprintln!(
        "[serve] drained: served={} rejected={} contained={} clean={}",
        report.served, report.rejected, report.contained_failures, report.drained_clean
    );
    i32::from(!report.drained_clean)
}

fn drive(args: &[String]) -> i32 {
    let Some(addr_arg) = args.first() else {
        eprintln!("usage: service_bench drive ADDR [--graph NAME] [--cheap N] [--expensive N] [--requests N] [--allow-contained] [--shutdown]");
        return 2;
    };
    let addr: SocketAddr = match addr_arg.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[drive] bad address {addr_arg:?}: {e}");
            return 2;
        }
    };
    let mut graph = None;
    let mut cheap = 4usize;
    let mut expensive = 2usize;
    let mut requests = 8usize;
    let mut allow_contained = false;
    let mut shutdown = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--graph", Some(v)) => graph = Some(v.clone()),
            ("--cheap", Some(v)) => cheap = v.parse().unwrap_or(cheap),
            ("--expensive", Some(v)) => expensive = v.parse().unwrap_or(expensive),
            ("--requests", Some(v)) => requests = v.parse().unwrap_or(requests),
            ("--allow-contained", rest) => {
                allow_contained = true;
                if let Some(r) = rest {
                    // Not a value flag; re-handle the lookahead token.
                    match r.as_str() {
                        "--shutdown" => shutdown = true,
                        "--allow-contained" => {}
                        other => {
                            eprintln!("[drive] unknown option {other:?}");
                            return 2;
                        }
                    }
                }
            }
            ("--shutdown", rest) => {
                shutdown = true;
                if let Some(r) = rest {
                    match r.as_str() {
                        "--allow-contained" => allow_contained = true,
                        "--shutdown" => {}
                        other => {
                            eprintln!("[drive] unknown option {other:?}");
                            return 2;
                        }
                    }
                }
            }
            (other, _) => {
                eprintln!("[drive] unknown option {other:?}");
                return 2;
            }
        }
    }

    // Default to the first cataloged graph reported by a stats probe of
    // the default graph list; fall back to asking for the bench default.
    let graph = graph.unwrap_or_else(|| {
        bench::prepare_graph_names()
            .first()
            .cloned()
            .unwrap_or_else(|| "rmat22".to_string())
    });

    let spec = LoadSpec {
        cheap_threads: cheap,
        expensive_threads: expensive,
        requests_per_thread: requests,
        deadline_ms: 0,
        verify: true,
        retry: RetryPolicy::from_env(),
        seed: 42,
    };
    eprintln!(
        "[drive] {addr} graph={graph} cheap={cheap} expensive={expensive} requests/thread={requests}"
    );
    let report = service_load::drive(addr, &graph, &spec);
    println!(
        "drive: requests={} ok={} failed={} timeout={} oom={} rejected={} unverified={} retried={} transport_errors={} qps={:.1} p50_ms={:.2} p99_ms={:.2} cheap_p99_ms={:.2}",
        report.requests,
        report.ok,
        report.failed,
        report.timeout,
        report.oom,
        report.rejected,
        report.unverified,
        report.retried,
        report.transport_errors,
        report.qps(),
        service_load::percentile_ms(&report.latencies_ms, 50.0),
        service_load::percentile_ms(&report.latencies_ms, 99.0),
        service_load::percentile_ms(&report.cheap_latencies_ms, 99.0),
    );

    if shutdown {
        match Client::connect(addr, RetryPolicy::none(), 0) {
            Ok(mut c) => {
                if let Err(e) = c.shutdown() {
                    eprintln!("[drive] shutdown failed: {e}");
                    return 1;
                }
                eprintln!("[drive] server acknowledged shutdown");
            }
            Err(e) => {
                eprintln!("[drive] cannot connect for shutdown: {e}");
                return 1;
            }
        }
    }

    if report.transport_errors > 0 {
        eprintln!("[drive] {} transport errors", report.transport_errors);
        return 1;
    }
    if !allow_contained && !report.all_ok() {
        eprintln!("[drive] non-ok served requests under a clean config");
        return 1;
    }
    if allow_contained && report.ok == 0 {
        eprintln!("[drive] no request survived — containment failed");
        return 1;
    }
    0
}

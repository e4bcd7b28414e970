//! `net_bench` — load generator for the `dls-service` chunk server,
//! written as `BENCH_6.json`.
//!
//! ```text
//! cargo run --release -p bench --bin net_bench [-- OUT.json [N]]
//! ```
//!
//! Self-hosts a server on a loopback port and drives an SS job (chunk
//! size 1 — the protocol-stress worst case, one lease per iteration)
//! through two families of scenarios:
//!
//! * **Thread-per-client** {1, 8} clients × fetch batch {1, 8}: the
//!   strict request/response shape, one OS thread per client. These
//!   measure per-fetch latency percentiles.
//! * **Multiplexed** {64, 256, 1024} clients at batch 8: a few driver
//!   threads own many connections each and pipeline `ReportDone` +
//!   `FetchChunk` as one write per connection per round — the shape
//!   the event-loop server coalesces best (many requests per readiness
//!   cycle, answered under one job-table lock). These measure
//!   throughput at connection counts a thread-per-connection server
//!   could not reach on this hardware.
//!
//! Each scenario schedules every chunk of its own job; clients skip
//! the kernel entirely, so the measurement isolates *scheduling* cost.
//! Reported per scenario: wall time, chunks/second, p50/p95/p99 fetch
//! latency.
//!
//! The batching claim the service is judged by: with 8 concurrent
//! clients, batch 8 must reach at least 4x the chunk throughput of
//! batch 1. Latency and high-concurrency throughput figures ride along
//! in the artefact; set `NET_BENCH_STRICT=1` to also enforce the p99
//! budget at 8 clients (530us) and the 1024-client throughput floor.
//!
//! The server's own counters ride along through the standard
//! [`service_report`] pipeline, embedded in the JSON artefact.
//!
//! The journaled-versus-in-memory comparison lives in the repo
//! benchmark (`hdls-bench --workload svc_journal`), whose runs are long
//! enough to resolve it.

use dls_service::protocol::{frame, LeaseId, Request, Response};
use dls_service::{Client, FetchReply, Server, ServiceConfig};
use hdls::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

struct Outcome {
    label: String,
    clients: u32,
    batch: u32,
    chunks: u64,
    elapsed_s: f64,
    /// Untimed connection-establishment cost (multiplexed scenarios).
    setup_s: f64,
    chunks_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e3
}

#[allow(clippy::too_many_arguments)]
fn outcome(
    label: String,
    clients: u32,
    batch: u32,
    chunks: u64,
    elapsed_s: f64,
    setup_s: f64,
    mut lat: Vec<u64>,
) -> Outcome {
    lat.sort_unstable();
    Outcome {
        label,
        clients,
        batch,
        chunks,
        elapsed_s,
        setup_s,
        chunks_per_s: chunks as f64 / elapsed_s,
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
    }
}

/// Thread-per-client driver: strict request/response, one fetch
/// latency sample per round trip.
fn run_scenario(server: &Server, clients: u32, batch: u32, n: u64) -> Outcome {
    let addr = server.addr();
    let job =
        Client::connect(addr).expect("connect").create_job(n, Kind::SS, &[]).expect("create job");

    let start = Instant::now();
    let per_client: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect client");
                    let mut chunks = 0u64;
                    let mut latencies = Vec::new();
                    loop {
                        let t0 = Instant::now();
                        let reply = client.fetch(job, w, batch).expect("fetch");
                        latencies.push(t0.elapsed().as_nanos() as u64);
                        match reply {
                            FetchReply::Done => return (chunks, latencies),
                            FetchReply::Pending => std::thread::yield_now(),
                            FetchReply::Chunks(granted) => {
                                // No kernel: settle the whole batch and
                                // go straight back for more.
                                let leases: Vec<_> = granted.iter().map(|c| c.lease).collect();
                                client.report_done(job, &leases).expect("report");
                                chunks += granted.len() as u64;
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let chunks: u64 = per_client.iter().map(|(c, _)| c).sum();
    assert_eq!(chunks, n, "SS grants one chunk per iteration, all settled");
    let lat: Vec<u64> = per_client.into_iter().flat_map(|(_, l)| l).collect();
    outcome(format!("{clients}c_b{batch}"), clients, batch, chunks, elapsed_s, 0.0, lat)
}

/// One multiplexed connection: raw socket, pipelined
/// `ReportDone`+`FetchChunk` written as a single buffer per round.
struct MuxConn {
    stream: TcpStream,
    worker: u32,
    pending: Vec<LeaseId>,
    /// Server epoch adopted from the last grant, echoed in reports.
    epoch: u32,
    awaiting_ack: bool,
    chunks: u64,
    done: bool,
    t0: Instant,
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read reply length");
    let len = u32::from_le_bytes(len) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read reply payload");
    Response::decode(&payload).expect("decode reply")
}

/// Multiplexed driver: `DRIVERS` threads own `clients / DRIVERS`
/// connections each. Per round, every live connection gets one write
/// (report of the previous grant + next fetch), then replies are
/// drained in order — so the server sees bursts of concurrent
/// requests and its per-cycle fetch batching is actually exercised.
///
/// Connection establishment happens *before* the clock starts: a
/// 1024-connect storm overflows the listener's SYN backlog and the
/// dropped SYNs retransmit on multi-second timers — a one-off setup
/// cost that would otherwise be billed to the steady-state throughput
/// figure. Setup time is reported separately.
fn run_mux_scenario(server: &Server, clients: u32, batch: u32, n: u64) -> Outcome {
    const DRIVERS: u32 = 4;
    let addr = server.addr();
    let job =
        Client::connect(addr).expect("connect").create_job(n, Kind::SS, &[]).expect("create job");

    // Untimed setup: connect single-threaded, yielding so the server
    // (sharing this core) can keep draining its accept queue.
    let setup = Instant::now();
    let mut pools: Vec<Vec<MuxConn>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    for w in 0..clients {
        let stream = TcpStream::connect(addr).expect("connect mux");
        stream.set_nodelay(true).expect("nodelay");
        pools[(w % DRIVERS) as usize].push(MuxConn {
            stream,
            worker: w,
            pending: Vec::new(),
            epoch: 0,
            awaiting_ack: false,
            chunks: 0,
            done: false,
            t0: Instant::now(),
        });
        if w % 32 == 31 {
            std::thread::yield_now();
        }
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let per_driver: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pools
            .into_iter()
            .map(|mut conns| {
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut buf = Vec::new();
                    while conns.iter().any(|c| !c.done) {
                        let mut all_empty = true;
                        // Write phase: one buffer per connection.
                        for c in conns.iter_mut().filter(|c| !c.done) {
                            buf.clear();
                            if !c.pending.is_empty() {
                                let report = Request::ReportDone {
                                    job,
                                    leases: std::mem::take(&mut c.pending),
                                    epoch: c.epoch,
                                };
                                buf.extend_from_slice(&frame(&report.encode()));
                                c.awaiting_ack = true;
                            }
                            let fetch = Request::FetchChunk { job, worker: c.worker, batch };
                            buf.extend_from_slice(&frame(&fetch.encode()));
                            c.t0 = Instant::now();
                            c.stream.write_all(&buf).expect("mux write");
                        }
                        // Read phase: strictly one reply per request.
                        for c in conns.iter_mut().filter(|c| !c.done) {
                            if c.awaiting_ack {
                                c.awaiting_ack = false;
                                match read_reply(&mut c.stream) {
                                    Response::Ack => {}
                                    other => panic!("report answered {other:?}"),
                                }
                            }
                            match read_reply(&mut c.stream) {
                                Response::Chunks { chunks: granted, epoch } => {
                                    c.epoch = epoch;
                                    latencies.push(c.t0.elapsed().as_nanos() as u64);
                                    if !granted.is_empty() {
                                        all_empty = false;
                                        c.chunks += granted.len() as u64;
                                        c.pending = granted.iter().map(|g| g.lease).collect();
                                    }
                                }
                                Response::Error {
                                    code: dls_service::ErrorCode::JobFinished,
                                    ..
                                } => {
                                    c.done = true;
                                }
                                other => panic!("fetch answered {other:?}"),
                            }
                        }
                        if all_empty {
                            // Everything scheduled, leases unsettled
                            // elsewhere: back off instead of spinning.
                            std::thread::yield_now();
                        }
                    }
                    (conns.iter().map(|c| c.chunks).sum::<u64>(), latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let chunks: u64 = per_driver.iter().map(|(c, _)| c).sum();
    assert_eq!(chunks, n, "every chunk scheduled exactly once across {clients} connections");
    let lat: Vec<u64> = per_driver.into_iter().flat_map(|(_, l)| l).collect();
    outcome(format!("{clients}c_b{batch}_mux"), clients, batch, chunks, elapsed_s, setup_s, lat)
}

fn main() {
    let mut positional = std::env::args().skip(1);
    let out = positional.next().unwrap_or_else(|| "BENCH_6.json".into());
    let n: u64 = positional.next().map(|v| v.parse().expect("N")).unwrap_or(20_000);
    let strict = std::env::var("NET_BENCH_STRICT").map(|v| v == "1").unwrap_or(false);

    let cfg = ServiceConfig { max_connections: 2048, event_loops: 1, ..Default::default() };
    let server = Server::start(cfg, "127.0.0.1:0").expect("bind server");

    let mut outcomes: Vec<Outcome> = Vec::new();
    for (clients, batch) in [(1, 1), (8, 1), (1, 8), (8, 8)] {
        outcomes.push(run_scenario(&server, clients, batch, n));
        let o = outcomes.last().expect("outcome");
        eprintln!(
            "{:>12}: {:>9.0} chunks/s  p50 {:>7.1}us  p95 {:>7.1}us  p99 {:>7.1}us",
            o.label, o.chunks_per_s, o.p50_us, o.p95_us, o.p99_us
        );
    }
    for clients in [64u32, 256, 1024] {
        // Give every connection enough rounds to matter, whatever N is.
        let n_mux = n.max(u64::from(clients) * 8 * 8);
        outcomes.push(run_mux_scenario(&server, clients, 8, n_mux));
        let o = outcomes.last().expect("outcome");
        eprintln!(
            "{:>12}: {:>9.0} chunks/s  p50 {:>7.1}us  p95 {:>7.1}us  p99 {:>7.1}us",
            o.label, o.chunks_per_s, o.p50_us, o.p95_us, o.p99_us
        );
    }

    // Server-side view of the whole campaign, via the standard report
    // pipeline (one job per scenario).
    let report = service_report("net_bench SS campaign", &server.snapshot());
    server.shutdown();

    let mut json = String::from("{\n  \"bench\": \"net-service-load\",\n");
    json.push_str("  \"spec\": \"SS\",\n");
    json.push_str(&format!("  \"chunks_per_scenario\": {n},\n"));
    json.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"clients\": {}, \"batch\": {}, \"chunks\": {}, \
             \"elapsed_s\": {:.6}, \"setup_s\": {:.6}, \"chunks_per_s\": {:.1}, \
             \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}}}{}\n",
            o.label,
            o.clients,
            o.batch,
            o.chunks,
            o.elapsed_s,
            o.setup_s,
            o.chunks_per_s,
            o.p50_us,
            o.p95_us,
            o.p99_us,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    let b1 = &outcomes[1]; // 8 clients, batch 1
    let b8 = &outcomes[3]; // 8 clients, batch 8
    let hi = outcomes.last().expect("1024-client scenario"); // 1024 clients, mux
    let speedup = b8.chunks_per_s / b1.chunks_per_s;
    json.push_str(&format!("  ],\n  \"batching_speedup_8c\": {speedup:.3},\n"));
    json.push_str(&format!("  \"high_concurrency_chunks_per_s\": {:.1},\n", hi.chunks_per_s));
    json.push_str(&format!("  \"service_report\": {}}}\n", report.to_json().trim_end()));
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
    eprintln!("wrote {out}");

    // The acceptance threshold: batching must actually amortise round
    // trips under concurrency, not just in the single-client case.
    assert!(
        speedup >= 4.0,
        "batch=8 under 8 clients reached only {speedup:.2}x the chunk throughput of batch=1 \
         (threshold 4x)"
    );
    if strict {
        assert!(
            b8.p99_us <= 530.0,
            "p99 fetch latency at 8 clients is {:.1}us (budget 530us)",
            b8.p99_us
        );
        assert!(
            hi.chunks_per_s > 1.0e6,
            "1024-client throughput {:.0} chunks/s (floor 1M)",
            hi.chunks_per_s
        );
    }
}

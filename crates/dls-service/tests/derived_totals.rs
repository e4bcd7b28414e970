//! `Stats` totals are sums of rows, and a connection's row goes when it
//! closes: the bytes it carried must reach the totals all the same, even
//! when its last read and its hang-up land in one event-loop cycle, or
//! when it hangs up while the transmit cap holds its requests back. And
//! a `Stats` reply, which grows with the job table, has no frame bound:
//! the client reads one larger than any request may be.

use dls_service::protocol::{frame, Request, Response, MAX_FRAME};
use dls_service::{Client, Server, ServiceConfig};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Connections that each pipeline one read's worth of requests.
const CONNS: usize = 20;

/// Bytes each connection sends: one full receive chunk of the server.
const PER_CONN: usize = 4096;

#[test]
fn bytes_of_connections_that_close_in_their_last_read_cycle_are_counted() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let heartbeat = frame(&Request::Heartbeat { worker: 3 }.encode());
    let stats = frame(&Request::Stats.encode());
    let mut wire = heartbeat.repeat(409);
    wire.extend_from_slice(&stats);
    assert_eq!(wire.len(), PER_CONN, "409 heartbeats and one Stats fill 4,096 bytes");

    // Each client writes its requests and hangs up at once, so the
    // server reads the bytes and the EOF together. The sockets stay
    // open until the server is down: a closed socket would answer the
    // replies with a reset.
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut s = TcpStream::connect(srv.addr()).expect("connect");
            s.write_all(&wire).expect("pipeline the requests");
            s.shutdown(Shutdown::Both).expect("hang up");
            s
        })
        .collect();
    await_retired(&srv, CONNS as u64);

    let snap = srv.shutdown();
    drop(streams);
    assert!(snap.conns.is_empty(), "closed connections keep no row");
    assert_eq!(snap.totals.bytes_in, (CONNS * PER_CONN) as u64, "bytes of closed connections");
    assert!(snap.totals.bytes_out > 0, "the replies were queued");
}

/// Wait until the server has retired every connection it admitted.
fn await_retired(srv: &Server, admitted: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let totals = srv.snapshot().totals;
        if totals.conns_total == admitted && totals.conns_active == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "the server never retired the connections");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_client_that_hangs_up_while_its_replies_are_held_back_is_retired() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let one = frame(&Request::Stats.encode());
    let burst = one.repeat(10_000);
    let mut stream = TcpStream::connect(srv.addr()).expect("connect");
    stream.set_write_timeout(Some(Duration::from_millis(500))).expect("write timeout");
    // Pipeline without reading until the server stops reading, then
    // hang up with requests and replies still buffered on both sides.
    let mut written = 0;
    'bursts: loop {
        let mut off = 0;
        while off < burst.len() {
            match stream.write(&burst[off..]) {
                Ok(k) => (off, written) = (off + k, written + k),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    break 'bursts;
                }
                Err(e) => panic!("write after {written} bytes: {e}"),
            }
        }
    }
    drop(stream);
    await_retired(&srv, 1);

    let snap = srv.shutdown();
    let served = snap.totals.bytes_in;
    assert!(served > 0 && served <= written as u64, "{served} of {written} bytes served");
    assert_eq!(served % one.len() as u64, 0, "only whole frames are counted");
    assert!(snap.totals.bytes_out > served, "every Stats reply outweighs its request");
}

#[test]
fn a_stats_reply_larger_than_a_request_frame_round_trips() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(srv.addr()).expect("connect");
    // Empty loops are born done, so `max_jobs` admits any number.
    let mut created = 0u64;
    let snap = loop {
        for _ in 0..500 {
            c.create_job(0, dls::Kind::SS, &[]).expect("create an empty job");
            created += 1;
        }
        let snap = c.stats().expect("stats");
        if Response::Snapshot(snap.clone()).encode().len() > MAX_FRAME as usize {
            break snap;
        }
    };
    assert_eq!(snap.jobs.len() as u64, created, "every job row arrived");
    assert_eq!(snap.totals.jobs_created, created);
    assert_eq!(snap.totals.jobs_active, 0, "empty loops are done");
    drop(c);
    srv.shutdown();
}

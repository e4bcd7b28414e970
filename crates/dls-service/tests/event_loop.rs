//! Event-loop-specific behaviour: CAS admission under a connection
//! storm, non-blocking `Busy` rejection with sockets that never read,
//! exactly-once over a thousand multiplexed connections, and batching
//! as a round-trip count.

use dls_service::protocol::{frame, LeaseId, Request, Response};
use dls_service::{Client, ClientError, ErrorCode, FetchReply, Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_drained(srv: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while srv.snapshot().totals.conns_active > 0 {
        assert!(Instant::now() < deadline, "connections leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admission is a single compare-and-swap: a storm of concurrent
/// connects can never push the admitted count past `max_connections`.
/// The old accept path checked the counter and incremented it later —
/// two racing accepts could both pass the check and overshoot the cap.
#[test]
fn admission_cap_never_exceeded_under_connection_storm() {
    const CAP: u32 = 8;
    const THREADS: usize = 12;
    const ROUNDS: usize = 25;
    let cfg = ServiceConfig { max_connections: CAP, event_loops: 3, ..Default::default() };
    let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    let served = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (served, busy) = (Arc::clone(&served), Arc::clone(&busy));
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let Ok(mut c) = Client::connect(addr) else { continue };
                    c.set_read_deadline(Some(Duration::from_secs(5))).expect("deadline");
                    match c.heartbeat(0) {
                        Ok(()) => served.fetch_add(1, Ordering::Relaxed),
                        Err(ClientError::Server { code: ErrorCode::Busy, .. }) => {
                            busy.fetch_add(1, Ordering::Relaxed)
                        }
                        // A rejected socket may also be closed before
                        // the Busy frame is read — equally a rejection.
                        Err(ClientError::Io(_)) => busy.fetch_add(1, Ordering::Relaxed),
                        Err(e) => panic!("unexpected failure: {e}"),
                    };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread");
    }

    assert!(served.load(Ordering::Relaxed) > 0, "some connections must be served");
    wait_drained(&srv);
    let peak = srv.peak_connections();
    assert!(peak > 0, "storm must admit at least one connection");
    assert!(peak <= u64::from(CAP), "CAS admission overshot the cap: peak {peak} > {CAP}");
    let snap = srv.shutdown();
    // Rejected connections are never admitted, so they appear in
    // neither the active count nor the total.
    assert_eq!(snap.totals.conns_total, served.load(Ordering::Relaxed));
}

/// `Busy` rejection is one best-effort non-blocking write and a close:
/// a pile of rejected sockets whose owners never read can no longer
/// wedge the accept path (the old path used a blocking `write_all`).
#[test]
fn busy_rejection_never_blocks_the_accept_path() {
    let cfg = ServiceConfig { max_connections: 1, event_loops: 1, ..Default::default() };
    let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");

    let mut admitted = Client::connect(srv.addr()).expect("connect");
    admitted.set_read_deadline(Some(Duration::from_secs(5))).expect("deadline");
    admitted.heartbeat(0).expect("admitted client is served");

    // Pile up connections that are rejected but never read their Busy
    // frame — connected-but-unread sockets.
    let hoard: Vec<TcpStream> =
        (0..32).map(|_| TcpStream::connect(srv.addr()).expect("connect")).collect();

    // The admitted connection must stay responsive while the hoard
    // exists: the rejection writes cannot stall the loop shard.
    let start = Instant::now();
    for _ in 0..10 {
        admitted.heartbeat(0).expect("server responsive during rejection hoard");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "accept-path rejection stalled the event loop"
    );

    // Each hoarded socket was answered Busy (or closed before the
    // frame could be read) — never left hanging open and unanswered.
    for mut s in hoard {
        use std::io::Read;
        s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = [0u8; 64];
        match s.read(&mut buf) {
            Ok(_) => {} // Busy frame bytes or EOF
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("rejected socket left hanging: {e}"),
        }
    }

    drop(admitted);
    wait_drained(&srv);
    assert_eq!(srv.peak_connections(), 1, "the cap-1 server admitted exactly one");
    let snap = srv.shutdown();
    assert_eq!(snap.totals.conns_total, 1, "rejected sockets are never admitted");
    assert_eq!(snap.totals.conns_active, 0);
}

/// Lift the soft open-file limit to the hard one: the next test holds
/// both ends of 1,024 connections in this process, past the usual
/// soft default of 1,024 descriptors.
fn raise_fd_limit() {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: both calls take a pointer to a live, correctly laid out
    // `struct rlimit` (two `rlim_t` = u64 on 64-bit Linux).
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 {
            lim.cur = lim.max;
            setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

/// One of many connections owned by a driver thread: a raw socket on
/// which the `ReportDone` of the previous grant and the next
/// `FetchChunk` travel as one write per round.
struct MuxConn {
    stream: TcpStream,
    worker: u32,
    pending: Vec<LeaseId>,
    /// Server epoch adopted from the last grant, echoed in reports.
    epoch: u32,
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    Response::decode(&payload).expect("decode reply")
}

/// One driver thread: write to every connection before reading any
/// reply, round after round, until the job is finished for all of
/// them. Returns what was granted.
fn drive(job: u64, batch: u32, mut conns: Vec<MuxConn>) -> Vec<dls::Chunk> {
    let mut granted = Vec::new();
    while !conns.is_empty() {
        for c in &mut conns {
            let mut buf = Vec::new();
            if !c.pending.is_empty() {
                let (leases, epoch) = (c.pending.clone(), c.epoch);
                buf.extend_from_slice(&frame(&Request::ReportDone { job, leases, epoch }.encode()));
            }
            let fetch = Request::FetchChunk { job, worker: c.worker, batch };
            buf.extend_from_slice(&frame(&fetch.encode()));
            c.stream.write_all(&buf).expect("mux write");
        }
        conns.retain_mut(|c| {
            if !std::mem::take(&mut c.pending).is_empty() {
                let ack = read_reply(&mut c.stream);
                assert!(matches!(ack, Response::Ack), "report answered {ack:?}");
            }
            match read_reply(&mut c.stream) {
                Response::Chunks { chunks, epoch } => {
                    c.epoch = epoch;
                    for g in &chunks {
                        c.pending.push(g.lease);
                        granted.push(dls::Chunk { start: g.lo, len: g.hi - g.lo, step: 0 });
                    }
                    true
                }
                Response::Error { code: ErrorCode::JobFinished, .. } => false,
                other => panic!("fetch answered {other:?}"),
            }
        });
    }
    granted
}

/// 1,024 connections open at once on one event loop, four driver
/// threads each sending a burst before reading — so a readiness cycle
/// serves many concurrent requests under one job-table lock — drain
/// one SS job: every iteration is granted and settled exactly once.
#[test]
fn a_thousand_multiplexed_connections_drain_one_job_exactly_once() {
    const CONNS: u32 = 1024;
    const DRIVERS: u32 = 4;
    const BATCH: u32 = 8;
    const N: u64 = CONNS as u64 * BATCH as u64 * 4;
    raise_fd_limit();
    let cfg = ServiceConfig { max_connections: 2 * CONNS, event_loops: 1, ..Default::default() };
    let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
    let addr = srv.addr();
    let job =
        Client::connect(addr).expect("connect").create_job(N, dls::Kind::SS, &[]).expect("create");

    let mut pools: Vec<Vec<MuxConn>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    for worker in 0..CONNS {
        // Pace the storm to the accept loop: a full SYN backlog puts
        // the dropped connects on one-second retransmit timers.
        while srv.peak_connections() + 64 < u64::from(worker) {
            std::thread::yield_now();
        }
        let stream = TcpStream::connect(addr).expect("connect mux");
        stream.set_nodelay(true).expect("nodelay");
        let conn = MuxConn { stream, worker, pending: Vec::new(), epoch: 0 };
        pools[(worker % DRIVERS) as usize].push(conn);
    }
    // Every connection is admitted before the first request goes out.
    let deadline = Instant::now() + Duration::from_secs(10);
    while srv.peak_connections() < u64::from(CONNS) {
        assert!(Instant::now() < deadline, "not all {CONNS} connections were admitted");
        std::thread::yield_now();
    }

    let granted: Vec<dls::Chunk> = std::thread::scope(|scope| {
        let drivers: Vec<_> =
            pools.into_iter().map(|conns| scope.spawn(move || drive(job, BATCH, conns))).collect();
        drivers.into_iter().flat_map(|d| d.join().expect("driver panicked")).collect()
    });

    dls::verify::check_exactly_once(&granted, N).expect("every iteration granted exactly once");
    let snap = srv.shutdown();
    let row = &snap.jobs[0];
    assert!(row.done && row.completed == N, "job not settled: {row:?}");
    assert_eq!((row.leases_granted, row.leases_completed, row.leases_reclaimed), (N, N, 0));
}

/// The `FetchChunk` round trips that granted something while 8
/// blocking clients settled one SS job of `n` iterations at `batch`,
/// read from the job's `Stats` row. (Empty polls at the tail, when
/// everything is scheduled but not yet settled, are timing.)
fn granting_round_trips(n: u64, batch: u32) -> u64 {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = srv.addr();
    let job =
        Client::connect(addr).expect("connect").create_job(n, dls::Kind::SS, &[]).expect("create");
    std::thread::scope(|scope| {
        for worker in 0..8 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect client");
                loop {
                    match client.fetch(job, worker, batch).expect("fetch") {
                        FetchReply::Done => break,
                        FetchReply::Pending => std::thread::yield_now(),
                        FetchReply::Chunks(granted) => {
                            let leases: Vec<_> = granted.iter().map(|c| c.lease).collect();
                            client.report_done(job, &leases).expect("report");
                        }
                    }
                }
            });
        }
    });
    let snap = srv.shutdown();
    let row = &snap.jobs[0];
    assert_eq!(row.completed, n, "job not settled: {row:?}");
    row.fetches - row.empty_polls
}

/// What batching buys, as a count instead of a wall-clock ratio: at
/// batch 8 the same job costs an eighth of the fetch round trips (plus
/// at most one short final grant per client).
#[test]
fn batch_8_settles_a_job_in_an_eighth_of_the_fetch_round_trips() {
    const N: u64 = 4_096;
    let (b1, b8) = (granting_round_trips(N, 1), granting_round_trips(N, 8));
    assert_eq!(b1, N, "SS at batch 1 is one round trip per iteration");
    assert!(b8 <= b1 / 8 + 8, "batch 8 needed {b8} round trips against {b1} at batch 1");
}

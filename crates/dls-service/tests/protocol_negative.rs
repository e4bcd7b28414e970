//! Negative-path protocol tests, mostly over **raw sockets**: every
//! malformed or out-of-contract request must come back as a typed
//! [`Response::Error`] frame (or a clean close) — never a panic, a
//! hang, or a leaked connection thread.

use dls_service::protocol::{frame, Request, Response, MAX_FRAME, VERSION};
use dls_service::{Client, ClientError, ErrorCode, FetchReply, Server, ServiceConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server() -> Server {
    Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind")
}

fn raw(srv: &Server) -> TcpStream {
    let s = TcpStream::connect(srv.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    s
}

/// Read exactly one length-prefixed response frame and decode it.
fn read_response(s: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("read length prefix");
    let len = u32::from_le_bytes(len) as usize;
    assert!(len <= MAX_FRAME as usize, "response frame within bounds");
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).expect("read payload");
    Response::decode(&payload).expect("decode response")
}

/// EOF (clean close by the server) — not a hang, not garbage.
fn expect_eof(s: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("expected EOF, got more data"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF, got {e}"),
    }
}

fn error_code(resp: Response) -> ErrorCode {
    match resp {
        Response::Error { code, .. } => code,
        other => panic!("expected error frame, got {other:?}"),
    }
}

/// Wait until every connection thread has unwound (active count 0).
fn wait_drained(srv: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while srv.snapshot().totals.conns_active > 0 {
        assert!(Instant::now() < deadline, "connection threads leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn truncated_frame_then_eof_is_harmless() {
    let srv = server();
    {
        let mut s = raw(&srv);
        // Claim 100 bytes, deliver 10, vanish.
        s.write_all(&100u32.to_le_bytes()).expect("write prefix");
        s.write_all(&[0u8; 10]).expect("write partial payload");
    } // dropped: EOF mid-frame
    wait_drained(&srv);
    // The server is unharmed: a well-formed client still gets service.
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(10, dls::Kind::SS, &[]).expect("create job");
    assert!(matches!(c.fetch(job, 0, 1), Ok(FetchReply::Chunks(_))));
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn unknown_version_byte_is_typed_then_closed() {
    let srv = server();
    let mut s = raw(&srv);
    // A syntactically valid frame whose version byte is from the future.
    s.write_all(&frame(&[99, 5])).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::BadVersion);
    // A foreign version poisons framing assumptions: server closes.
    expect_eof(&mut s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn oversized_length_prefix_is_typed_then_closed() {
    let srv = server();
    let mut s = raw(&srv);
    s.write_all(&(MAX_FRAME + 1).to_le_bytes()).expect("write prefix");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::FrameTooLarge);
    expect_eof(&mut s); // stream cannot be resynchronised
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn zero_length_prefix_is_typed_then_closed() {
    let srv = server();
    let mut s = raw(&srv);
    s.write_all(&0u32.to_le_bytes()).expect("write prefix");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::FrameTooLarge);
    expect_eof(&mut s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn garbage_tag_is_bad_message_and_connection_survives() {
    let srv = server();
    let mut s = raw(&srv);
    s.write_all(&frame(&[VERSION, 200, 1, 2, 3])).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::BadMessage);
    // Unlike a version mismatch, a bad tag inside our own framing is
    // recoverable: the same connection keeps working.
    s.write_all(&frame(&Request::Stats.encode())).expect("write");
    assert!(matches!(read_response(&mut s), Response::Snapshot(_)));
    drop(s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn truncated_body_is_bad_message() {
    let srv = server();
    let mut s = raw(&srv);
    // FetchChunk's body wants 16 bytes; give it 2.
    let mut payload = Request::FetchChunk { job: 1, worker: 0, batch: 1 }.encode();
    payload.truncate(4);
    s.write_all(&frame(&payload)).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::BadMessage);
    drop(s);
    wait_drained(&srv);
    srv.shutdown();
}

/// `max_batch` beyond what one `Chunks` frame can name is bounded by
/// the frame: the largest batch served is the largest the reply can
/// carry — its 24-byte rows under `MAX_FRAME` — and one more is the
/// typed refusal, not 70 000 leases behind a count that wrapped.
#[test]
fn a_batch_is_bounded_by_what_a_chunks_frame_can_carry() {
    let greedy = ServiceConfig { max_batch: 70_000, worker_quota: 70_000, ..Default::default() };
    let fit = (MAX_FRAME - 8) / 24;
    let srv = Server::start(greedy, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100_000, dls::Kind::SS, &[]).expect("create job");
    for over in [fit + 1, 70_000] {
        match c.fetch(job, 0, over) {
            Err(ClientError::Server { code: ErrorCode::BatchTooLarge, detail }) => {
                assert!(detail.contains(&format!("1..={fit}")), "states the bound: {detail}");
            }
            other => panic!("batch {over} was not refused (served: {})", other.is_ok()),
        }
    }
    let Ok(FetchReply::Chunks(chunks)) = c.fetch(job, 0, fit) else {
        panic!("the largest batch a frame can carry is served")
    };
    assert_eq!(chunks.len(), fit as usize, "every lease granted is named in the reply");
    assert!(chunks.windows(2).all(|w| w[0].lease + 1 == w[1].lease && w[0].hi == w[1].lo));
    assert_eq!(srv.snapshot().jobs[0].leases_granted, u64::from(fit));
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn oversized_batch_is_typed_and_connection_survives() {
    let srv = server();
    let max = ServiceConfig::default().max_batch;
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(1_000, dls::Kind::SS, &[]).expect("create job");
    match c.fetch(job, 0, max + 1) {
        Err(ClientError::Server { code: ErrorCode::BatchTooLarge, .. }) => {}
        other => panic!("expected BatchTooLarge, got {other:?}"),
    }
    // Same connection, legal batch: served.
    assert!(matches!(c.fetch(job, 0, max), Ok(FetchReply::Chunks(_))));
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn fetch_on_unknown_job_is_typed() {
    let srv = server();
    let mut s = raw(&srv);
    let req = Request::FetchChunk { job: 0xDEAD_BEEF, worker: 0, batch: 1 };
    s.write_all(&frame(&req.encode())).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::UnknownJob);
    drop(s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn fetch_on_finished_job_is_typed() {
    let srv = server();
    let mut c = Client::connect(srv.addr()).expect("connect");
    // n = 0: born finished.
    let job = c.create_job(0, dls::Kind::GSS, &[]).expect("create job");
    // At the raw level this is a typed JobFinished error frame (the
    // Client sugar maps it to FetchReply::Done).
    let mut s = raw(&srv);
    let req = Request::FetchChunk { job, worker: 0, batch: 1 };
    s.write_all(&frame(&req.encode())).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::JobFinished);
    assert!(matches!(c.fetch(job, 0, 1), Ok(FetchReply::Done)));
    drop((c, s));
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn bad_technique_byte_is_typed() {
    let srv = server();
    let mut s = raw(&srv);
    // CreateJob with an undefined technique discriminant (250).
    let mut payload = vec![VERSION, 1];
    payload.extend_from_slice(&100u64.to_le_bytes());
    payload.push(250);
    payload.extend_from_slice(&0u32.to_le_bytes()); // no weights
    s.write_all(&frame(&payload)).expect("write");
    let code = error_code(read_response(&mut s));
    assert!(
        matches!(code, ErrorCode::BadTechnique | ErrorCode::BadMessage),
        "undefined technique rejected, got {code:?}"
    );
    drop(s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn first_unassigned_kind_byte_is_typed() {
    // v3 assigns bytes 0..=15 (pure 0–9, AF 10, AWF-B..E 11–14, AUTO
    // 15). Byte 16 is the *first* unassigned value — the exact
    // boundary a field-widening bug would get wrong.
    let srv = server();
    let mut s = raw(&srv);
    let mut payload = vec![VERSION, 1];
    payload.extend_from_slice(&100u64.to_le_bytes());
    payload.push(16);
    payload.extend_from_slice(&0u32.to_le_bytes()); // no weights
    s.write_all(&frame(&payload)).expect("write");
    let code = error_code(read_response(&mut s));
    assert!(
        matches!(code, ErrorCode::BadTechnique | ErrorCode::BadMessage),
        "kind byte 16 rejected, got {code:?}"
    );
    // The connection survives and valid adaptive bytes work.
    s.write_all(&frame(
        &Request::CreateJob { n: 10, kind: dls::SchedKind::Af, weights: vec![] }.encode(),
    ))
    .expect("write");
    assert!(matches!(read_response(&mut s), Response::JobCreated { .. }));
    drop(s);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn malformed_weights_are_typed() {
    // Weights are the one CreateJob field the wire cannot constrain:
    // NaN, infinities and negatives are rejected before a job exists.
    let srv = server();
    let mut c = Client::connect(srv.addr()).expect("connect");
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        match c.create_job(100, dls::Kind::WF, &[1.0, bad]) {
            Err(ClientError::Server { code: ErrorCode::BadTechnique, .. }) => {}
            other => panic!("weight {bad}: expected BadTechnique, got {other:?}"),
        }
    }
    assert_eq!(srv.snapshot().totals.jobs_created, 0);
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn out_of_range_worker_on_weighted_job_is_typed() {
    let srv = server();
    let mut c = Client::connect(srv.addr()).expect("connect");
    // Two weights define exactly two worker slots: 0 and 1.
    let job = c.create_job(1_000, dls::Kind::WF, &[1.5, 0.5]).expect("create job");
    // Worker 2 used to be served anyway at a silent default weight of
    // 1.0 — it must now be a typed rejection, at the raw level too.
    let mut s = raw(&srv);
    let req = Request::FetchChunk { job, worker: 2, batch: 1 };
    s.write_all(&frame(&req.encode())).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::BadWorker);
    match c.fetch(job, u32::MAX, 1) {
        Err(ClientError::Server { code: ErrorCode::BadWorker, .. }) => {}
        other => panic!("expected BadWorker, got {other:?}"),
    }
    // In-range workers on the same connections stay served, and an
    // unweighted job accepts any worker id.
    assert!(matches!(c.fetch(job, 1, 1), Ok(FetchReply::Chunks(_))));
    let unweighted = c.create_job(100, dls::Kind::SS, &[]).expect("create job");
    assert!(matches!(c.fetch(unweighted, 7_777, 1), Ok(FetchReply::Chunks(_))));
    drop((c, s));
    wait_drained(&srv);
    srv.shutdown();
}

fn journaled_server(tag: &str) -> (Server, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("dls-protoneg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let srv = Server::start_with_journal(
        ServiceConfig::default(),
        "127.0.0.1:0",
        durability::JournalOptions::new(&dir),
        4096,
    )
    .expect("bind journaled");
    (srv, dir)
}

#[test]
fn resume_unknown_job_is_typed() {
    let (srv, dir) = journaled_server("resume-unknown");
    let mut c = Client::connect(srv.addr()).expect("connect");
    match c.resume_job(0xDEAD_BEEF) {
        Err(ClientError::Server { code: ErrorCode::UnknownJob, .. }) => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_epoch_report_is_typed_and_settles_nothing() {
    let (srv, dir) = journaled_server("stale-epoch");
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100, dls::Kind::SS, &[]).expect("create job");
    let FetchReply::Chunks(held) = c.fetch(job, 0, 1).expect("fetch") else { panic!("chunks") };
    assert_eq!(c.epoch(), 1, "first incarnation");

    // A report carrying a dead incarnation's epoch: typed rejection.
    let mut s = raw(&srv);
    let req = Request::ReportDone { job, leases: vec![held[0].lease], epoch: 0 };
    s.write_all(&frame(&req.encode())).expect("write");
    assert_eq!(error_code(read_response(&mut s)), ErrorCode::StaleEpoch);

    // Nothing settled: the same lease still settles under the real
    // epoch, exactly once.
    c.report_done(job, &[held[0].lease]).expect("current-epoch report");
    let snap = c.stats().expect("stats");
    assert_eq!(snap.jobs[0].leases_completed, 1, "settled once, by the live epoch");
    drop((c, s));
    wait_drained(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_on_journal_disabled_server_is_typed_not_a_hang() {
    let srv = server();
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100, dls::Kind::SS, &[]).expect("create job");
    match c.resume_job(job) {
        Err(ClientError::Server { code: ErrorCode::NoJournal, .. }) => {}
        other => panic!("expected NoJournal, got {other:?}"),
    }
    // The connection survives the refusal.
    assert!(matches!(c.fetch(job, 0, 1), Ok(FetchReply::Chunks(_))));
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
}

#[test]
fn resume_on_journaled_server_reports_progress() {
    let (srv, dir) = journaled_server("resume-ok");
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100, dls::Kind::SS, &[]).expect("create job");
    let FetchReply::Chunks(held) = c.fetch(job, 0, 2).expect("fetch") else { panic!("chunks") };
    c.report_done(job, &[held[0].lease]).expect("report");
    let p = c.resume_job(job).expect("resume");
    assert_eq!(p.epoch, 1);
    assert_eq!(p.n, 100);
    assert_eq!(p.completed, held[0].hi - held[0].lo);
    assert!(p.scheduled >= p.completed);
    assert!(!p.done);
    drop(c);
    wait_drained(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abusive_connections_leak_no_threads() {
    let srv = server();
    for round in 0..20 {
        let mut s = raw(&srv);
        match round % 4 {
            0 => s.write_all(&7u32.to_le_bytes()).expect("write"), // truncated
            1 => s.write_all(&frame(&[42, 0])).expect("write"),    // bad version
            2 => s.write_all(&(MAX_FRAME * 2).to_le_bytes()).expect("write"), // huge
            _ => {}                                                // connect-and-vanish
        }
        drop(s);
    }
    // A served request on a *later* connection proves every earlier one
    // was accepted (the accept queue is ordered), so the totals below
    // cannot race the accept loop.
    let mut c = Client::connect(srv.addr()).expect("connect");
    c.stats().expect("stats");
    drop(c);
    wait_drained(&srv);
    let snap = srv.shutdown();
    assert_eq!(snap.totals.conns_active, 0);
    assert!(snap.totals.conns_total >= 21);
}

//! Journal-before-ack on the unhappy path: when the cycle's journal
//! commit fails (ENOSPC, EIO, a segment that cannot rotate) the server
//! must fail-stop — drain, and close the connection with that cycle's
//! replies unwritten — never acknowledge a record it could not persist.

use dls_service::{Client, ClientError, FetchReply, Server, ServiceConfig};
use durability::JournalOptions;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-commitfail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journaled server whose every commit rotates the segment: once the
/// journal directory is gone, the next commit that carries a record
/// fails creating `wal-….log`.
fn rotating(dir: &Path) -> Server {
    let mut opts = JournalOptions::new(dir);
    opts.segment_bytes = 1;
    Server::start_with_journal(ServiceConfig::default(), "127.0.0.1:0", opts, 0)
        .expect("bind journaled")
}

fn assert_fail_stop<T: std::fmt::Debug>(reply: Result<T, ClientError>, srv: Server) {
    assert!(
        matches!(reply, Err(ClientError::Io(_))),
        "a reply of the failed cycle reached the socket: {reply:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !srv.shutdown_requested() {
        assert!(Instant::now() < deadline, "a failed commit must drain the server");
        std::thread::sleep(Duration::from_millis(5));
    }
    srv.shutdown();
}

#[test]
fn a_job_whose_creation_was_not_journaled_is_not_announced() {
    let dir = tmpdir("create");
    let srv = rotating(&dir);
    let mut c = Client::connect(srv.addr()).expect("connect");
    std::fs::remove_dir_all(&dir).expect("pull the journal directory away");
    let reply = c.create_job(100, dls::Kind::SS, &[]);
    assert_fail_stop(reply, srv);
}

#[test]
fn a_settlement_that_was_not_journaled_is_not_acked() {
    let dir = tmpdir("settle");
    let srv = rotating(&dir);
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100, dls::Kind::SS, &[]).expect("create while the journal works");
    let FetchReply::Chunks(chunks) = c.fetch(job, 0, 4).expect("fetch") else {
        panic!("a fresh job grants chunks");
    };
    let leases: Vec<_> = chunks.iter().map(|c| c.lease).collect();
    std::fs::remove_dir_all(&dir).expect("pull the journal directory away");
    let reply = c.report_done(job, &leases);
    assert_fail_stop(reply, srv);
}

#[test]
fn a_settlement_whose_snapshot_rotation_failed_is_not_acked() {
    // Default 8 MiB segments: the cycle's commit appends to the open
    // segment and succeeds; only the snapshot taken after every record
    // has to create a file, and that is what fails.
    let dir = tmpdir("snapshot");
    let srv = Server::start_with_journal(
        ServiceConfig::default(),
        "127.0.0.1:0",
        JournalOptions::new(&dir),
        1,
    )
    .expect("bind journaled");
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(100, dls::Kind::SS, &[]).expect("create while the journal works");
    let FetchReply::Chunks(chunks) = c.fetch(job, 0, 4).expect("fetch") else {
        panic!("a fresh job grants chunks");
    };
    let leases: Vec<_> = chunks.iter().map(|c| c.lease).collect();
    std::fs::remove_dir_all(&dir).expect("pull the journal directory away");
    let reply = c.report_done(job, &leases);
    assert_fail_stop(reply, srv);
}

//! The `ReportDone` paths the server's in-order fast path must not
//! break, over real sockets: leases settled in reverse order, a lease
//! granted over one connection settled over another, and a stale id in
//! the middle of a report — then the granting connection hangs up and
//! exactly its still-unsettled leases come back, once.

use dls_service::{
    Client, ClientError, ErrorCode, FetchReply, GrantedChunk, JobSnapshot, Server, ServiceConfig,
};
use durability::JournalOptions;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SS: one iteration per chunk, so a lease is an iteration.
const N: u64 = 200;

fn start(journal: Option<&Path>) -> Server {
    let cfg = ServiceConfig::default();
    match journal {
        // A snapshot every 4 records: the ledger is imaged while its
        // live ids have holes in them.
        Some(dir) => Server::start_with_journal(cfg, "127.0.0.1:0", JournalOptions::new(dir), 4),
        None => Server::start(cfg, "127.0.0.1:0"),
    }
    .expect("bind")
}

fn job_row(c: &mut Client, job: u64) -> JobSnapshot {
    c.stats().expect("stats").jobs.into_iter().find(|j| j.job == job).expect("job row")
}

/// Marks iterations executed; a second mark is the double execution
/// exactly-once forbids.
struct Bitmap(Vec<bool>);

impl Bitmap {
    fn mark(&mut self, chunks: &[GrantedChunk]) {
        for i in chunks.iter().flat_map(|c| c.lo..c.hi) {
            assert!(!std::mem::replace(&mut self.0[i as usize], true), "iteration {i} ran twice");
        }
    }
}

fn ids(chunks: &[GrantedChunk]) -> Vec<u64> {
    chunks.iter().map(|c| c.lease).collect()
}

fn report_paths(journal: Option<&Path>) {
    let srv = start(journal);
    let mut a = Client::connect(srv.addr()).expect("connect a");
    let mut b = Client::connect(srv.addr()).expect("connect b");
    let job = a.create_job(N, dls::Kind::SS, &[]).expect("create");
    let mut done = Bitmap(vec![false; N as usize]);

    let FetchReply::Chunks(held) = a.fetch(job, 0, 12).expect("fetch") else { panic!("chunks") };
    assert_eq!(held.len(), 12);

    // Reverse order: every unlisting but the last misses the front.
    let mut reversed = ids(&held[0..4]);
    reversed.reverse();
    a.report_done(job, &reversed).expect("reverse-order report");
    done.mark(&held[0..4]);

    // Granted over A, settled over B (which has to learn the epoch A's
    // grants carried before it may report against it).
    if journal.is_some() {
        b.resume_job(job).expect("resume");
    }
    b.report_done(job, &ids(&held[4..6])).expect("cross-connection report");
    done.mark(&held[4..6]);

    // A stale id in the middle: the prefix settles, the suffix is not
    // looked at, and the failure is typed.
    let stale = held[0].lease;
    let mixed = [held[6].lease, held[7].lease, stale, held[8].lease, held[9].lease];
    match a.report_done(job, &mixed) {
        Err(ClientError::Server { code: ErrorCode::StaleLease, detail }) => {
            assert!(detail.contains(&format!("lease {stale} ")), "names the stale lease: {detail}");
        }
        other => panic!("expected StaleLease, got {other:?}"),
    }
    done.mark(&held[6..8]);
    let row = job_row(&mut b, job);
    assert_eq!((row.completed, row.leases_completed, row.leases_reclaimed), (8, 8, 0));

    // A hangs up holding leases 8..12: exactly those are reclaimed, once.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    while job_row(&mut b, job).reclaims < 4 {
        assert!(Instant::now() < deadline, "the disconnect never reclaimed A's leases");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = b.stats().expect("stats");
    assert_eq!((stats.totals.reclaims, stats.totals.conns_active), (4, 1));
    let row = job_row(&mut b, job);
    assert_eq!((row.reclaims, row.leases_reclaimed, row.completed), (4, 4, 8));

    // Journaled: the settled prefix and the reclaims must be what a
    // restart recovers, not only what this incarnation remembers.
    let (srv, mut b) = match journal {
        Some(_) => {
            drop(b);
            srv.shutdown();
            let srv = start(journal);
            let mut b = Client::connect(srv.addr()).expect("reconnect");
            let resumed = b.resume_job(job).expect("resume");
            assert_eq!((resumed.completed, resumed.done), (8, false));
            (srv, b)
        }
        None => (srv, b),
    };

    // B drains the rest — reclaimed ranges first — settling in order.
    loop {
        match b.fetch(job, 1, 16).expect("fetch") {
            FetchReply::Done => break,
            FetchReply::Pending => panic!("nobody else holds leases"),
            FetchReply::Chunks(chunks) => {
                done.mark(&chunks);
                b.report_done(job, &ids(&chunks)).expect("report");
            }
        }
    }
    assert!(done.0.iter().all(|&ran| ran), "an iteration never ran");
    let row = job_row(&mut b, job);
    assert!(row.done);
    assert_eq!((row.completed, row.leases_completed, row.leases_reclaimed), (N, N, 4));
    assert_eq!(row.leases_granted, N + 4, "each reclaimed range was granted exactly once more");
    drop(b);
    srv.shutdown();
}

#[test]
fn out_of_order_cross_connection_and_stale_reports_in_memory() {
    report_paths(None);
}

#[test]
fn out_of_order_cross_connection_and_stale_reports_journaled() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dls-report-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    report_paths(Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

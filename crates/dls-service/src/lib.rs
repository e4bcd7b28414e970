//! # dls-service — scheduling as a network service
//!
//! The paper's inter-node level is a *remotely accessed global work
//! queue*: two counters `(step, scheduled)` that any node may advance
//! to claim the next chunk (the distributed chunk-calculation approach
//! of Eleliemy & Ciorba). Everything else about the queue is a pure
//! local function of those counters. That makes the inter-node level
//! trivially serviceable: this crate lifts it out of the RMA window
//! and behind a TCP socket, so *processes on different machines* can
//! self-schedule from one queue.
//!
//! * [`protocol`] — the versioned, length-prefixed binary wire format:
//!   `CreateJob`, `FetchChunk` (batched), `ReportDone` (batched),
//!   `Heartbeat`, `Stats`, `Shutdown`, plus typed error frames.
//! * [`server`] — the multi-tenant server: a sharded job table whose
//!   per-job state is the paper's two counters driven by the `dls`
//!   calculators, wrapped in per-chunk leases
//!   ([`resilience::LeaseTable`]) reclaimed exactly once when a client
//!   disconnects, request batching, and explicit backpressure limits
//!   (connections, batch size, per-worker lease quotas, frame size).
//!   Connections are multiplexed over a sharded `epoll` readiness loop
//!   (no thread per connection); admission to `max_connections` is a
//!   single compare-and-swap, and each readiness cycle answers all of
//!   its buffered requests — reports and fetches alike — under one
//!   held job-table lock.
//! * [`client`] — a blocking client plus the [`client::drive_job`] /
//!   [`client::drive_job_batched`] worker loops.
//!
//! With a journal directory ([`server::Server::start_with_journal`],
//! `dls-serverd --journal-dir`) the server is **restart-survivable**:
//! every exactly-once-relevant transition is written to a `durability`
//! write-ahead journal and group-committed *before* the cycle's
//! response bytes flush (journal-before-ack), so `kill -9` → restart
//! on the same directory replays snapshot + journal, re-arms unsettled
//! leases, bumps the server epoch, and lets workers reconnect and
//! resume the same job ids (`ResumeJob`). Grants carry the epoch and
//! reports echo it, so a lease from a previous incarnation settles as
//! the typed `StaleEpoch` error instead of corrupting the resumed
//! ledger. See `DESIGN.md` §10 and `tests/restart_smoke.rs`.
//!
//! Two binaries make the service a real multi-process system:
//! `dls-serverd` (the daemon; drains on a `Shutdown` frame or SIGTERM
//! and exits 0 with a final stats snapshot) and `net-worker` (fetches,
//! executes a synthetic workload, reports, and prints its reported
//! checksum — the building block of the exactly-once smoke test).
//!
//! The `hier` crate's `run_live_net` backend uses the same client to
//! realise the paper's full two-level hierarchy with a real network at
//! the top level: one node-agent connection per node fetches
//! inter-node chunks over TCP while the node's ranks keep
//! self-scheduling sub-chunks out of the `mpisim` shared window.

// `deny`, not `forbid`: the one unsafe module (`poller::sys`, the raw
// epoll bindings) opts back in explicitly; everything else stays safe.
#![deny(unsafe_code)]
// Unsafe blocks nested inside `unsafe fn` still need their own `unsafe`
// marker and SAFETY comment — an `unsafe fn` signature is a proof
// obligation for the caller, not a blanket licence for the body.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
mod event_loop;
mod machine;
mod poller;
pub mod protocol;
mod ring;
pub mod server;
pub(crate) mod sync;

pub use client::{
    drive_job, drive_job_batched, drive_job_tracked, Client, ClientError, FetchReply, JobProgress,
};
pub use protocol::{
    ConnSnapshot, ErrorCode, GrantedChunk, JobId, JobSnapshot, JournalTotals, LeaseId, Request,
    Response, ServiceTotals, StatsSnapshot, VERSION,
};
pub use server::{Server, ServiceConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use dls::Kind;

    fn server() -> Server {
        Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind")
    }

    #[test]
    fn create_fetch_report_complete() {
        let srv = server();
        let mut c = Client::connect(srv.addr()).unwrap();
        let job = c.create_job(100, Kind::GSS, &[]).unwrap();
        let mut total = 0u64;
        loop {
            match c.fetch(job, 0, 4).unwrap() {
                FetchReply::Chunks(chunks) => {
                    let leases: Vec<_> = chunks.iter().map(|g| g.lease).collect();
                    total += chunks.iter().map(|g| g.hi - g.lo).sum::<u64>();
                    c.report_done(job, &leases).unwrap();
                }
                FetchReply::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
                FetchReply::Done => break,
            }
        }
        assert_eq!(total, 100);
        let snap = c.stats().unwrap();
        let j = &snap.jobs[0];
        assert!(j.done);
        assert_eq!(j.completed, 100);
        assert_eq!(j.leases_granted, j.leases_completed);
        assert_eq!(j.leases_reclaimed, 0);
        srv.shutdown();
    }

    #[test]
    fn gss_chunks_decrease_like_the_calculator() {
        let srv = server();
        let mut c = Client::connect(srv.addr()).unwrap();
        let job = c.create_job(1000, Kind::GSS, &[]).unwrap();
        let FetchReply::Chunks(first) = c.fetch(job, 0, 3).unwrap() else { panic!("chunks") };
        assert_eq!(first.len(), 3);
        // GSS: strictly decreasing chunk sizes, contiguous from 0.
        assert_eq!(first[0].lo, 0);
        assert_eq!(first[0].hi, first[1].lo);
        assert!(first[0].hi - first[0].lo > first[1].hi - first[1].lo);
        srv.shutdown();
    }

    #[test]
    fn disconnect_reclaims_unsettled_leases_exactly_once() {
        let srv = server();
        let mut owner = Client::connect(srv.addr()).unwrap();
        let job = owner.create_job(50, Kind::SS, &[]).unwrap();
        let FetchReply::Chunks(held) = owner.fetch(job, 7, 5).unwrap() else { panic!("chunks") };
        assert_eq!(held.len(), 5);
        drop(owner); // connection closes with 5 unsettled leases

        // A survivor finishes the job, including the reclaimed ranges.
        let mut survivor = Client::connect(srv.addr()).unwrap();
        let mut seen = std::collections::HashSet::new();
        loop {
            match survivor.fetch(job, 1, 8).unwrap() {
                FetchReply::Chunks(chunks) => {
                    for g in &chunks {
                        for i in g.lo..g.hi {
                            assert!(seen.insert(i), "iteration {i} granted twice");
                        }
                    }
                    let leases: Vec<_> = chunks.iter().map(|g| g.lease).collect();
                    survivor.report_done(job, &leases).unwrap();
                }
                FetchReply::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
                FetchReply::Done => break,
            }
        }
        assert_eq!(seen.len(), 50);
        let snap = survivor.stats().unwrap();
        let j = &snap.jobs[0];
        assert_eq!(j.leases_reclaimed, 5, "exactly the five held leases");
        assert_eq!(j.leases_granted, j.leases_completed + j.leases_reclaimed);
        assert_eq!(j.completed, 50);
        assert!(j.done);
        srv.shutdown();
    }

    #[test]
    fn quota_backpressure_is_typed() {
        let cfg = ServiceConfig { worker_quota: 3, ..Default::default() };
        let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
        let mut c = Client::connect(srv.addr()).unwrap();
        let job = c.create_job(1000, Kind::SS, &[]).unwrap();
        // Quota clamps the grant, then refuses outright.
        let FetchReply::Chunks(held) = c.fetch(job, 0, 8).unwrap() else { panic!("chunks") };
        assert_eq!(held.len(), 3, "grant clamped to the quota");
        let err = c.fetch(job, 0, 1).unwrap_err();
        assert!(matches!(err, ClientError::Server { code: ErrorCode::QuotaExceeded, .. }));
        // Settling a lease frees quota.
        c.report_done(job, &[held[0].lease]).unwrap();
        assert!(matches!(c.fetch(job, 0, 1).unwrap(), FetchReply::Chunks(_)));
        srv.shutdown();
    }

    #[test]
    fn connection_limit_answers_busy() {
        let cfg = ServiceConfig { max_connections: 1, ..Default::default() };
        let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
        let _hold = Client::connect(srv.addr()).unwrap();
        // Give the accept loop time to register the first connection.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut second = Client::connect(srv.addr()).unwrap();
        let err = second.heartbeat(0).unwrap_err();
        assert!(
            matches!(err, ClientError::Server { code: ErrorCode::Busy, .. })
                || matches!(err, ClientError::Io(_)),
            "expected Busy or a closed socket, got {err}"
        );
        srv.shutdown();
    }

    #[test]
    fn weighted_fetches_respect_worker_weights() {
        let srv = server();
        let mut c = Client::connect(srv.addr()).unwrap();
        // WF with one worker 3x the other: worker 0's chunks are bigger.
        let job = c.create_job(600, Kind::WF, &[1.5, 0.5]).unwrap();
        let FetchReply::Chunks(fast) = c.fetch(job, 0, 1).unwrap() else { panic!("chunks") };
        let FetchReply::Chunks(slow) = c.fetch(job, 1, 1).unwrap() else { panic!("chunks") };
        assert!(
            fast[0].hi - fast[0].lo > slow[0].hi - slow[0].lo,
            "weighted grant must favour the faster worker"
        );
        srv.shutdown();
    }

    #[test]
    fn shutdown_preserves_progress_counters() {
        let srv = server();
        let mut c = Client::connect(srv.addr()).unwrap();
        let job = c.create_job(100, Kind::GSS, &[]).unwrap();
        let FetchReply::Chunks(chunks) = c.fetch(job, 0, 2).unwrap() else { panic!("chunks") };
        c.report_done(job, &[chunks[0].lease]).unwrap();
        let reported = chunks[0].hi - chunks[0].lo;
        c.shutdown_server().unwrap();
        // Once draining, new grants are refused with a typed error
        // (or the connection is already torn down — also a drain).
        match c.fetch(job, 0, 1) {
            Err(ClientError::Server { code: ErrorCode::ShuttingDown, .. })
            | Err(ClientError::Io(_)) => {}
            other => panic!("fetch during drain must be refused, got {other:?}"),
        }
        let snap = srv.shutdown();
        assert!(snap.shutting_down);
        let j = &snap.jobs[0];
        assert_eq!(j.completed, reported, "progress survives the drain");
        assert!(j.scheduled >= reported);
    }

    #[test]
    fn zero_iteration_job_is_born_done() {
        let srv = server();
        let mut c = Client::connect(srv.addr()).unwrap();
        let job = c.create_job(0, Kind::GSS, &[]).unwrap();
        assert_eq!(c.fetch(job, 0, 1).unwrap(), FetchReply::Done);
        srv.shutdown();
    }

    #[test]
    fn max_jobs_caps_unfinished_jobs_not_jobs_ever_created() {
        let cfg = ServiceConfig { max_jobs: 2, ..Default::default() };
        let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
        let mut c = Client::connect(srv.addr()).unwrap();
        let first = c.create_job(4, Kind::SS, &[]).unwrap();
        c.create_job(4, Kind::SS, &[]).unwrap();
        let full = c.create_job(4, Kind::SS, &[]).unwrap_err();
        assert!(matches!(full, ClientError::Server { code: ErrorCode::TooManyJobs, .. }));
        // An empty loop is born finished and needs no slot.
        c.create_job(0, Kind::SS, &[]).unwrap();

        drive_job_batched(&mut c, first, 0, 4, &mut |i| i).unwrap();
        c.create_job(4, Kind::SS, &[]).expect("the finished job's slot is free again");
        let full = c.create_job(4, Kind::SS, &[]).unwrap_err();
        assert!(matches!(full, ClientError::Server { code: ErrorCode::TooManyJobs, .. }));
        let totals = c.stats().unwrap().totals;
        assert_eq!((totals.jobs_created, totals.jobs_active), (4, 2));
        srv.shutdown();
    }

    #[test]
    fn a_lease_settled_over_another_connection_is_not_reclaimed() {
        let srv = server();
        let mut owner = Client::connect(srv.addr()).unwrap();
        let mut other = Client::connect(srv.addr()).unwrap();
        let job = owner.create_job(10, Kind::SS, &[]).unwrap();
        let FetchReply::Chunks(held) = owner.fetch(job, 0, 2).unwrap() else { panic!("chunks") };
        // The protocol lets any connection settle any lease; the server
        // must take it off the *granting* connection's list.
        other.report_done(job, &[held[0].lease]).unwrap();
        drop(owner);
        let reclaimed = |c: &mut Client| c.stats().unwrap().jobs[0].leases_reclaimed;
        while reclaimed(&mut other) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let j = &other.stats().unwrap().jobs[0];
        assert_eq!((j.leases_granted, j.leases_completed, j.leases_reclaimed), (2, 1, 1));
        srv.shutdown();
    }
}

//! Server state is bounded by live work, not lifetime work: a finished
//! job costs a snapshot its counters, however many chunks it granted.

use dls_service::{drive_job_batched, Client, JobSnapshot, Server, ServiceConfig};
use durability::JournalOptions;
use std::path::{Path, PathBuf};

const CHUNKS: u64 = 100_000;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-bounded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled(dir: &Path) -> Server {
    // 32 records between snapshots: the big job crosses ~100 of them.
    Server::start_with_journal(
        ServiceConfig::default(),
        "127.0.0.1:0",
        JournalOptions::new(dir),
        32,
    )
    .expect("bind journaled")
}

fn job_stats(client: &mut Client, job: u64) -> JobSnapshot {
    let stats = client.stats().expect("stats");
    stats.jobs.into_iter().find(|j| j.job == job).expect("job is in the Stats reply")
}

fn newest_snapshot_len(dir: &Path) -> u64 {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "img"))
        .collect();
    snaps.sort();
    std::fs::metadata(snaps.last().expect("a snapshot was installed")).expect("stat").len()
}

#[test]
fn a_finished_jobs_snapshot_is_its_counters() {
    let dir = tmpdir("snapshot");
    let srv = journaled(&dir);
    let mut c = Client::connect(srv.addr()).expect("connect");
    // SS: one iteration per chunk, so one lease per iteration.
    let big = c.create_job(CHUNKS, dls::Kind::SS, &[]).expect("create");
    let (_, iterations, chunks) =
        drive_job_batched(&mut c, big, 0, 64, &mut |i| i).expect("drain the big job");
    assert_eq!((iterations, chunks), (CHUNKS, CHUNKS));
    // Enough records behind the big job's `JobFinished` that the newest
    // snapshot was taken with the job done.
    let tail = c.create_job(40, dls::Kind::SS, &[]).expect("create");
    drive_job_batched(&mut c, tail, 0, 1, &mut |i| i).expect("drain the tail job");

    let before = job_stats(&mut c, big);
    assert!(before.done);
    assert_eq!((before.leases_granted, before.leases_completed), (CHUNKS, CHUNKS));
    assert!(c.stats().expect("stats").journal.snapshots >= 3);
    drop(c);
    srv.shutdown();
    let len = newest_snapshot_len(&dir);
    assert!(len < 4096, "snapshot of two finished jobs is {len} bytes");

    // The totals are in the image, not recounted from rows: they come
    // back from snapshot + replay.
    let srv = journaled(&dir);
    let mut c = Client::connect(srv.addr()).expect("reconnect");
    let after = job_stats(&mut c, big);
    assert!(after.done);
    assert_eq!(after.completed, CHUNKS);
    assert_eq!(
        (after.leases_granted, after.leases_completed, after.leases_reclaimed),
        (CHUNKS, CHUNKS, 0)
    );
    drop(c);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! The ROADMAP-mandated durability smoke: `kill -9` the **server**
//! mid-campaign, restart it on the same `--journal-dir`, and the
//! worker fleet — which never exits — reconnects through the
//! `--addr-file` indirection, resumes the same job id under the bumped
//! epoch, and finishes with the serial checksum. Exactly-once is
//! verified by a per-iteration bitmap built from every worker's
//! acked `RANGES` (plus `AMBIG` resolution for reports whose ack the
//! SIGKILL swallowed mid-round-trip).

#![cfg(unix)]

use dls_service::{Client, StatsSnapshot};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use workloads::synthetic::Synthetic;
use workloads::Workload;

const SEED: u64 = 11;
const N: u64 = 20_000;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-restart-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Spawn the daemon with a journal; return it, its bound address, and
/// its buffered stdout (for the final STATS line).
fn spawn_journaled_server(
    journal_dir: &Path,
    addr_file: &Path,
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dls-serverd"))
        .args(["--addr", "127.0.0.1:0"])
        .args(["--journal-dir", journal_dir.to_str().expect("utf8 dir")])
        .args(["--addr-file", addr_file.to_str().expect("utf8 addr file")])
        .args(["--snapshot-every", "256"]) // exercise snapshots mid-campaign
        .stdout(Stdio::piped())
        // Inherited: a restart that fails to recover says why.
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn dls-serverd");
    let mut stdout = BufReader::new(child.stdout.take().expect("server stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read LISTEN line");
    let addr = line
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected LISTEN line, got {line:?}"))
        .trim()
        .to_string();
    (child, addr, stdout)
}

fn spawn_worker(addr_file: &Path, job: u64, worker: u32) -> Child {
    Command::new(env!("CARGO_BIN_EXE_net-worker"))
        .arg(format!("@{}", addr_file.display()))
        .args(["--job", &job.to_string()])
        .args(["--n", &N.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--worker", &worker.to_string()])
        .args(["--batch", "4"])
        .args(["--pace-us", "150"]) // slow enough for the kill to land mid-campaign
        .args(["--retry-secs", "30"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn net-worker")
}

/// Parse `PREFIX worker=W lo-hi,lo-hi,...` lines from worker stdout.
fn parse_ranges(text: &str, prefix: &str) -> Vec<(u64, u64)> {
    let Some(line) = text.lines().find(|l| l.starts_with(prefix)) else {
        return Vec::new();
    };
    let Some(list) = line.split_whitespace().nth(2) else {
        return Vec::new(); // empty range list
    };
    list.split(',')
        .filter(|tok| !tok.is_empty())
        .map(|tok| {
            let (lo, hi) = tok.split_once('-').expect("lo-hi");
            (lo.parse().expect("lo"), hi.parse().expect("hi"))
        })
        .collect()
}

fn serial_checksum(n: u64) -> u64 {
    let w = Synthetic::uniform(n, 1, 100, SEED);
    (0..n).fold(0u64, |acc, i| acc.wrapping_add(w.execute(i)))
}

fn wait_capped(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "{what} did not exit in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkill_server_midcampaign_restart_finishes_exactly_once() {
    let journal_dir = tmpdir("journal");
    let addr_dir = tmpdir("addr");
    let addr_file = addr_dir.join("server.addr");

    let (mut server, addr, _out) = spawn_journaled_server(&journal_dir, &addr_file);
    let mut setup = Client::connect(&addr).expect("connect");
    let job = setup.create_job(N, dls::Kind::SS, &[]).expect("create job");

    let workers: Vec<Child> = (0..4).map(|w| spawn_worker(&addr_file, job, w)).collect();

    // Wait until the campaign is demonstrably underway, then SIGKILL.
    let deadline = Instant::now() + Duration::from_secs(30);
    let completed_at_kill = loop {
        let snap: StatsSnapshot = setup.stats().expect("stats");
        let completed = snap.jobs.first().map_or(0, |j| j.completed);
        if completed >= 1_000 {
            break completed;
        }
        assert!(Instant::now() < deadline, "campaign never got underway");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(completed_at_kill < N, "kill must land mid-campaign, not after");
    drop(setup);
    let kill =
        Command::new("kill").args(["-9", &server.id().to_string()]).status().expect("run kill");
    assert!(kill.success());
    let status = wait_capped(&mut server, "killed dls-serverd");
    assert!(!status.success(), "SIGKILL is not a graceful exit");

    // Restart on the same journal; the addr file is atomically
    // republished with the fresh port and the fleet finds it.
    let (mut server2, addr2, out2) = spawn_journaled_server(&journal_dir, &addr_file);
    assert_ne!(addr, addr2, "ephemeral restart binds a fresh port");

    // The fleet never exited; it reconnects, resumes, finishes.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let mut ambiguous: Vec<(u64, u64)> = Vec::new();
    for (w, child) in workers.into_iter().enumerate() {
        let out = child.wait_with_output().expect("worker output");
        assert!(out.status.success(), "worker {w} failed: {:?}", out.status);
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        acked.extend(parse_ranges(&text, "RANGES "));
        ambiguous.extend(parse_ranges(&text, "AMBIG "));
    }

    // Exactly-once bitmap. Acked ranges must be disjoint outright.
    let mut counts = vec![0u8; N as usize];
    for &(lo, hi) in &acked {
        for i in lo..hi {
            assert!(counts[i as usize] == 0, "iteration {i} acked twice");
            counts[i as usize] = 1;
        }
    }
    // An ambiguous range (report round trip severed by the SIGKILL) is
    // resolved against the acked union: if its iterations were acked
    // by anyone, the lease was re-armed and redone — the ambiguous
    // copy never settled. If they were acked by no one, the settle
    // *was* journaled before the crash and counts exactly once.
    let workload = Synthetic::uniform(N, 1, 100, SEED);
    let mut total: u64 = acked
        .iter()
        .flat_map(|&(lo, hi)| lo..hi)
        .fold(0u64, |s, i| s.wrapping_add(workload.execute(i)));
    for &(lo, hi) in &ambiguous {
        let covered = (lo..hi).filter(|&i| counts[i as usize] != 0).count() as u64;
        if covered == 0 {
            for i in lo..hi {
                counts[i as usize] = 1;
                total = total.wrapping_add(workload.execute(i));
            }
        } else {
            assert_eq!(covered, hi - lo, "ambiguous range {lo}-{hi} partially covered");
        }
    }
    assert!(counts.iter().all(|&c| c == 1), "zero lost iterations");
    assert_eq!(total, serial_checksum(N), "checksum identical to serial");

    // Server-side ledger agrees, under the bumped epoch.
    let mut check = Client::connect(&addr2).expect("connect restarted");
    let progress = check.resume_job(job).expect("resume");
    assert!(progress.done, "job finished");
    assert_eq!(progress.completed, N);
    assert_eq!(progress.epoch, 2, "second incarnation");
    let snap = check.stats().expect("stats");
    assert!(snap.journal.enabled);
    assert_eq!(snap.journal.epoch, 2);
    let j = &snap.jobs[0];
    assert!(j.done);
    assert_eq!(j.completed, N);

    // Graceful drain of the restarted server: journal flushed, STATS
    // reports the journal counters.
    check.shutdown_server().expect("shutdown frame");
    drop(check);
    assert!(wait_capped(&mut server2, "restarted dls-serverd").success());
    let mut stats = String::new();
    for line in out2.lines() {
        let line = line.expect("server stdout");
        if let Some(json) = line.strip_prefix("STATS ") {
            stats = json.to_string();
        }
    }
    assert!(stats.contains("\"journal\":{\"enabled\":true"), "journal block in STATS: {stats}");
    assert!(stats.contains("\"journal_records\":"), "record counter in STATS");
    assert!(stats.contains("\"journal_bytes\":"), "byte counter in STATS");
    assert!(stats.contains("\"fsyncs\":"), "fsync counter in STATS");
    assert!(stats.contains("\"snapshots\":"), "snapshot counter in STATS");

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&addr_dir);
}

/// Restarting a *gracefully drained* server must also resume cleanly —
/// the journal's `Drained` record is informational, not a tombstone —
/// and a job created in epoch 1 is fetchable in epoch 2.
#[test]
fn graceful_restart_resumes_jobs() {
    let journal_dir = tmpdir("graceful");
    let addr_dir = tmpdir("graceful-addr");
    let addr_file = addr_dir.join("server.addr");

    let (mut server, addr, _out) = spawn_journaled_server(&journal_dir, &addr_file);
    let mut c = Client::connect(&addr).expect("connect");
    let job = c.create_job(500, dls::Kind::GSS, &[]).expect("create job");
    c.shutdown_server().expect("shutdown frame");
    drop(c);
    assert!(wait_capped(&mut server, "dls-serverd").success());

    let (mut server2, addr2, _out2) = spawn_journaled_server(&journal_dir, &addr_file);
    let mut c2 = Client::connect(&addr2).expect("connect restarted");
    let progress = c2.resume_job(job).expect("resume after graceful drain");
    assert_eq!(progress.epoch, 2);
    assert_eq!(progress.n, 500);
    assert!(!progress.done);
    // The job is live: drive it to completion in the new epoch.
    let (_, iters, _) =
        dls_service::drive_job(&mut c2, job, 0, 4, &mut |i| i, &mut |_| true).expect("drive");
    assert_eq!(iters, 500);
    c2.shutdown_server().expect("shutdown frame");
    drop(c2);
    assert!(wait_capped(&mut server2, "restarted dls-serverd").success());

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&addr_dir);
}

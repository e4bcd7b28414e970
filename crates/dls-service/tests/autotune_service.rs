//! AUTO jobs on the live service: the tuner switches techniques
//! mid-job at batch boundaries, every iteration still settles exactly
//! once, and a SIGKILL'd server replays its journaled decision history
//! bit-identically — resuming under the *same* active technique the
//! dead incarnation had switched to, never re-deriving decisions from
//! post-crash timings.

#![cfg(unix)]

use dls::SchedKind;
use dls_service::{Client, FetchReply, Server, ServiceConfig};
use durability::Journal;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-autotune-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Assert a decision list is dense by `seq` and chains `from`/`to`.
fn assert_decision_chain(decisions: &[dls::Decision], origin: SchedKind) {
    let mut prev = origin;
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.seq, i as u32, "decision seqs are dense");
        assert_eq!(d.from, prev, "decision {i} chains from the previous technique");
        assert_ne!(d.from, d.to, "a switch goes somewhere else");
        prev = d.to;
    }
}

/// The tuner's assumed per-fetch overhead, pinned far above any real
/// loopback round trip so the overhead rule fires deterministically at
/// every eligible window — the ladder walk under test must not depend
/// on wall-clock latency.
const PINNED_OVERHEAD_NS: u64 = 1_000_000_000;

/// An in-process campaign against an AUTO job with the overhead signal
/// pinned high: the tuner climbs the ladder (SS -> GSS -> FAC2 -> AF)
/// while the job runs — and the client must still see every iteration
/// exactly once across all the re-basings.
#[test]
fn auto_job_switches_midjob_and_stays_exactly_once() {
    let cfg = ServiceConfig { tuner_overhead_ns: Some(PINNED_OVERHEAD_NS), ..Default::default() };
    let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(srv.addr()).expect("connect");
    const N: u64 = 4_000;
    let job = c.create_job(N, SchedKind::Auto, &[]).expect("create AUTO job");

    let mut counts = vec![0u32; N as usize];
    loop {
        match c.fetch(job, 0, 2).expect("fetch") {
            FetchReply::Done => break,
            FetchReply::Pending => std::thread::sleep(Duration::from_millis(1)),
            FetchReply::Chunks(chunks) => {
                for g in &chunks {
                    for i in g.lo..g.hi {
                        counts[i as usize] += 1;
                    }
                }
                let leases: Vec<_> = chunks.iter().map(|g| g.lease).collect();
                c.report_done(job, &leases).expect("report");
            }
        }
    }
    assert!(counts.iter().all(|&k| k == 1), "every iteration granted exactly once");

    let snap = c.stats().expect("stats");
    let row = &snap.jobs[0];
    assert!(row.done);
    assert_eq!(row.completed, N);
    assert_eq!(row.mode, Some(SchedKind::Auto), "creation mode is preserved");
    assert!(
        row.decisions.len() >= 2,
        "pinned overhead pressure must walk at least two rungs, got {:?}",
        row.decisions
    );
    assert_decision_chain(&row.decisions, SchedKind::Fixed(dls::Kind::SS));
    assert_eq!(
        row.kind,
        Some(row.decisions.last().expect("non-empty").to),
        "active technique is the last decision's target"
    );
    // The STATS JSON carries the timeline too.
    let json = snap.to_json();
    assert!(json.contains("\"mode\":\"AUTO\""), "mode in STATS json: {json}");
    assert!(json.contains("\"decisions\":[{\"seq\":0"), "decision timeline in STATS json");
    drop(c);
    srv.shutdown();
}

/// A fixed-kind job must never grow a decision history.
#[test]
fn fixed_jobs_never_switch() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(srv.addr()).expect("connect");
    let job = c.create_job(500, dls::Kind::GSS, &[]).expect("create");
    let (_, iters, _) =
        dls_service::drive_job(&mut c, job, 0, 4, &mut |i| i, &mut |_| true).expect("drive");
    assert_eq!(iters, 500);
    let snap = c.stats().expect("stats");
    assert_eq!(snap.jobs[0].kind, Some(SchedKind::Fixed(dls::Kind::GSS)));
    assert!(snap.jobs[0].decisions.is_empty());
    drop(c);
    srv.shutdown();
}

fn spawn_journaled_server(
    journal_dir: &Path,
    addr_file: &Path,
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dls-serverd"))
        .args(["--addr", "127.0.0.1:0"])
        .args(["--journal-dir", journal_dir.to_str().expect("utf8 dir")])
        .args(["--addr-file", addr_file.to_str().expect("utf8 addr file")])
        .args(["--snapshot-every", "256"])
        .args(["--tuner-overhead-ns", &PINNED_OVERHEAD_NS.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
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

/// SIGKILL an AUTO campaign after the tuner has taken decisions; the
/// restart must (a) replay the journal to the same bytes every time,
/// (b) resume with the last journaled decision's technique in force,
/// and (c) finish the loop with zero lost and zero doubled iterations.
#[test]
fn sigkill_auto_job_replays_decisions_bit_identically() {
    let journal_dir = tmpdir("journal");
    let addr_dir = tmpdir("addr");
    let addr_file = addr_dir.join("server.addr");
    const N: u64 = 30_000;

    let (mut server, addr, _out) = spawn_journaled_server(&journal_dir, &addr_file);
    let mut c = Client::connect(&addr).expect("connect");
    let job = c.create_job(N, SchedKind::Auto, &[]).expect("create AUTO job");

    // Drive until at least two decisions are journaled (the pinned
    // overhead signal fires at every eligible window), settling every
    // chunk before the next fetch so the kill lands with nothing in
    // flight.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let pre_kill = loop {
        match c.fetch(job, 0, 2).expect("fetch") {
            FetchReply::Done => panic!("job must not finish before the kill"),
            FetchReply::Pending => std::thread::sleep(Duration::from_millis(1)),
            FetchReply::Chunks(chunks) => {
                acked.extend(chunks.iter().map(|g| (g.lo, g.hi)));
                let leases: Vec<_> = chunks.iter().map(|g| g.lease).collect();
                c.report_done(job, &leases).expect("report");
            }
        }
        let snap = c.stats().expect("stats");
        let row = &snap.jobs[0];
        if row.decisions.len() >= 2 && row.completed < N {
            break row.decisions.clone();
        }
        assert!(Instant::now() < deadline, "tuner never took two decisions");
    };
    assert_decision_chain(&pre_kill, SchedKind::Fixed(dls::Kind::SS));
    drop(c);

    let kill =
        Command::new("kill").args(["-9", &server.id().to_string()]).status().expect("run kill");
    assert!(kill.success());
    let _ = server.wait();

    // Replay the crash-truncated journal twice from scratch: the
    // decision history (and everything else) must be bit-identical.
    let first = Journal::replay_dir(&journal_dir).expect("replay once");
    let second = Journal::replay_dir(&journal_dir).expect("replay twice");
    assert_eq!(first.serialize(), second.serialize(), "replay is deterministic");
    assert_eq!(first.digest(), second.digest());
    let img = &first.jobs[&job];
    assert_eq!(
        img.decisions, pre_kill,
        "journal replays exactly the decisions the live server reported"
    );
    let expected_active = img.active_kind();
    assert_eq!(expected_active, pre_kill.last().expect("two decisions").to);

    // Restart: the recovered job resumes under that same technique.
    let (mut server2, addr2, _out2) = spawn_journaled_server(&journal_dir, &addr_file);
    let mut c2 = Client::connect(&addr2).expect("connect restarted");
    let progress = c2.resume_job(job).expect("resume");
    assert_eq!(progress.epoch, 2);
    assert_eq!(progress.decisions, pre_kill, "decision history survives the restart");
    assert_eq!(progress.kind, expected_active, "active technique replayed, not re-derived");
    assert!(!progress.done);

    // Finish the loop in epoch 2 and prove exactly-once end to end:
    // pre-kill acked ranges plus post-restart acked ranges tile [0, N)
    // with multiplicity one (journal-before-ack made the pre-kill acks
    // durable; unsettled grants were re-armed for re-execution).
    loop {
        match c2.fetch(job, 0, 4).expect("fetch") {
            FetchReply::Done => break,
            FetchReply::Pending => std::thread::sleep(Duration::from_millis(1)),
            FetchReply::Chunks(chunks) => {
                acked.extend(chunks.iter().map(|g| (g.lo, g.hi)));
                let leases: Vec<_> = chunks.iter().map(|g| g.lease).collect();
                c2.report_done(job, &leases).expect("report");
            }
        }
    }
    let mut counts = vec![0u32; N as usize];
    for &(lo, hi) in &acked {
        for i in lo..hi {
            counts[i as usize] += 1;
        }
    }
    assert!(counts.iter().all(|&k| k == 1), "exactly-once across switch + SIGKILL + re-basing");
    let end = c2.resume_job(job).expect("final resume");
    assert!(end.done);
    assert!(
        end.decisions.len() >= pre_kill.len(),
        "epoch-2 tuner continues the sequence, never rewrites it"
    );
    assert_eq!(&end.decisions[..pre_kill.len()], &pre_kill[..], "history is append-only");
    assert_decision_chain(&end.decisions, SchedKind::Fixed(dls::Kind::SS));

    c2.shutdown_server().expect("shutdown frame");
    drop(c2);
    let _ = server2.wait();
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&addr_dir);
}

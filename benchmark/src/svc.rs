//! The `svc_*` workloads: a fresh `dls-serverd` per repetition, driven
//! over loopback TCP by one busy-polling thread.
//!
//! The driver owns `C` non-blocking connections and keeps a fixed
//! number of `FetchChunk` requests in flight on each (a sliding window,
//! not lock-step rounds). It never sleeps or blocks, so client wake-ups
//! never enter the numbers; kernels are skipped (every grant is settled
//! at once), so the service path measures scheduling alone. Every
//! granted range is marked in a bitmap over `[0, n)`, which proves
//! exactly-once as the job drains.

use crate::metrics::{percentile_us, Rep, Samples};
use crate::proc;
use crate::trace::Tracer;
use dls_service::protocol::{frame, ErrorCode, Request, Response, StatsSnapshot};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shape of one service workload.
pub struct SvcSpec {
    pub name: &'static str,
    /// SS iterations, so also chunks and leases, of the one job.
    pub n: u64,
    pub batch: u32,
    /// `FetchChunk` requests kept in flight per connection.
    pub window: usize,
    pub journal: bool,
}

pub const SVC_B1: SvcSpec =
    SvcSpec { name: "svc_b1", n: 120_000, batch: 1, window: 1, journal: false };
pub const SVC_B64: SvcSpec =
    SvcSpec { name: "svc_b64", n: 3_000_000, batch: 64, window: 2, journal: false };
pub const SVC_JOURNAL: SvcSpec =
    SvcSpec { name: "svc_journal", n: 600_000, batch: 8, window: 2, journal: true };

/// No reply for this long means the daemon is gone or wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a service repetition runs.
#[derive(Clone, Copy)]
struct Placement {
    server: u32,
    driver: u32,
}

/// A running `dls-serverd`. Dropping it is SIGKILL + reap, so no
/// failure path leaves a daemon behind.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawn with one event loop (one server thread + one driver thread
    /// is the whole machine at `C = 2`) and wait for the `LISTEN` line.
    /// The daemon inherits the CPU this thread is on when it spawns it,
    /// `on.server`; the thread then moves to `on.driver`.
    fn spawn(bin: &Path, journal_dir: Option<&Path>, on: Placement) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--event-loops", "1"]);
        if let Some(dir) = journal_dir {
            cmd.arg("--journal-dir").arg(dir);
            cmd.args(["--sync", "every:512", "--snapshot-every", "65536"]);
        }
        proc::pin_thread(&[on.server]);
        let child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn();
        proc::pin_thread(&[on.driver]);
        let mut child = child.map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let listening = stdout.read_line(&mut line).map_err(|e| e.to_string()).and_then(|_| {
            line.trim()
                .strip_prefix("LISTEN ")
                .and_then(|a| a.parse::<SocketAddr>().ok())
                .ok_or(format!("expected a LISTEN line from dls-serverd, got {line:?}"))
        });
        match listening {
            Ok(addr) => Ok(Daemon { child, stdout, addr }),
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                Err(e)
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// After a `Shutdown` frame: drain the final `STATS` line and
    /// require a clean exit.
    fn wait_clean_exit(mut self) -> Result<(), String> {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).ok();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() && rest.contains("STATS ") {
            Ok(())
        } else {
            Err(format!("dls-serverd did not drain cleanly ({status})"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A reply the connection is still owed, in wire order.
enum Expect {
    Ack { leases: u64 },
    Fetch { req: u64, t0: Instant, enc0: Option<Instant>, sent: Option<Instant> },
}

/// One non-blocking connection with explicit in and out buffers.
struct Conn {
    stream: TcpStream,
    worker: u32,
    out: Vec<u8>,
    out_off: usize,
    inbuf: Vec<u8>,
    in_off: usize,
    expect: VecDeque<Expect>,
    /// When the read that delivered the buffered bytes returned
    /// (traced runs only).
    read_at: Option<Instant>,
    finished: bool,
}

impl Conn {
    fn connect(addr: SocketAddr, worker: u32) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Conn::adopt(stream, worker)
    }

    fn adopt(stream: TcpStream, worker: u32) -> Result<Conn, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            worker,
            out: Vec::new(),
            out_off: 0,
            inbuf: Vec::new(),
            in_off: 0,
            expect: VecDeque::new(),
            read_at: None,
            finished: false,
        })
    }

    /// Write as much of the out buffer as the socket takes. Returns
    /// whether any byte moved.
    fn flush(&mut self) -> Result<bool, String> {
        let mut moved = false;
        while self.out_off < self.out.len() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => return Err("socket closed while writing".into()),
                Ok(k) => {
                    self.out_off += k;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.out_off == self.out.len() {
            self.out.clear();
            self.out_off = 0;
        }
        Ok(moved)
    }

    /// Pull whatever the socket has. Returns whether any byte arrived.
    fn fill(&mut self, scratch: &mut [u8], stamp: bool) -> Result<bool, String> {
        if self.in_off == self.inbuf.len() {
            self.inbuf.clear();
            self.in_off = 0;
        }
        match self.stream.read(scratch) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(k) => {
                self.inbuf.extend_from_slice(&scratch[..k]);
                if stamp {
                    self.read_at = Some(Instant::now());
                }
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(false)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The payload of the next complete frame, if one is buffered.
    fn next_payload(&mut self) -> Option<std::ops::Range<usize>> {
        let have = self.inbuf.len() - self.in_off;
        if have < 4 {
            return None;
        }
        let len_bytes: [u8; 4] = self.inbuf[self.in_off..self.in_off + 4].try_into().ok()?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if have < 4 + len {
            return None;
        }
        let start = self.in_off + 4;
        self.in_off = start + len;
        Some(start..start + len)
    }

    /// Lock-step request/reply for the few control frames (`CreateJob`,
    /// `Stats`, `Shutdown`), busy-polling like everything else.
    fn call(&mut self, req: &Request, scratch: &mut [u8]) -> Result<Response, String> {
        self.out.extend_from_slice(&frame(&req.encode()));
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            self.flush()?;
            self.fill(scratch, false)?;
            if let Some(range) = self.next_payload() {
                return Response::decode(&self.inbuf[range]).map_err(|e| format!("decode: {e}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no reply to {req:?} within {REPLY_TIMEOUT:?}"));
            }
            std::hint::spin_loop();
        }
    }
}

/// What one drained job looked like from the driver.
#[derive(Default)]
struct Drained {
    wall_s: f64,
    granted: u64,
    settled: u64,
    iterations: u64,
    requests: u64,
    failed: u64,
    sweeps: u64,
    idle_sweeps: u64,
    latencies_ns: Vec<u32>,
    problems: Vec<String>,
}

impl Drained {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Drain job `job` of `n` iterations through `conns`, timing every
/// `FetchChunk` from the first byte written to the reply decoded.
fn drive(
    conns: &mut [Conn],
    job: u64,
    n: u64,
    spec: &SvcSpec,
    mut tracer: Option<&mut Tracer>,
) -> Result<Drained, String> {
    let traced = tracer.is_some();
    let mut d = Drained::default();
    let mut bitmap = vec![0u64; n.div_ceil(64) as usize];
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next_req = 0u64;
    let mut epoch = 0u32;

    // Queue one FetchChunk (after `report`, when there is one) and
    // start its clock at the first write attempt.
    let mut send_fetch = |c: &mut Conn, report: Option<Vec<u64>>, d: &mut Drained, epoch: u32| {
        let enc0 = traced.then(Instant::now);
        if let Some(leases) = report {
            c.expect.push_back(Expect::Ack { leases: leases.len() as u64 });
            c.out.extend_from_slice(&frame(&Request::ReportDone { job, leases, epoch }.encode()));
            d.requests += 1;
        }
        let fetch = Request::FetchChunk { job, worker: c.worker, batch: spec.batch };
        c.out.extend_from_slice(&frame(&fetch.encode()));
        d.requests += 1;
        let t0 = Instant::now();
        let flushed = c.flush();
        let sent = traced.then(Instant::now);
        c.expect.push_back(Expect::Fetch { req: next_req, t0, enc0, sent });
        next_req += 1;
        flushed.map(|_| ())
    };

    let start = Instant::now();
    for c in conns.iter_mut() {
        for _ in 0..spec.window {
            send_fetch(c, None, &mut d, epoch)?;
        }
    }
    let mut last_progress = Instant::now();
    loop {
        let mut moved = false;
        let mut open = false;
        for c in conns.iter_mut() {
            moved |= c.flush()?;
            moved |= c.fill(&mut scratch, traced)?;
            while let Some(range) = c.next_payload() {
                let dec0 = traced.then(Instant::now);
                let reply = Response::decode(&c.inbuf[range]);
                let t1 = Instant::now();
                let reply = reply.map_err(|e| format!("undecodable reply: {e}"))?;
                let Some(expected) = c.expect.pop_front() else {
                    return Err(format!("unsolicited reply {reply:?}"));
                };
                match (expected, reply) {
                    (Expect::Ack { leases }, Response::Ack) => d.settled += leases,
                    (Expect::Ack { .. }, other) => d.fail(format!("report answered {other:?}")),
                    (Expect::Fetch { req, t0, enc0, sent }, reply) => {
                        let ns = t1.duration_since(t0).as_nanos().min(u128::from(u32::MAX));
                        d.latencies_ns.push(ns as u32);
                        if let (Some(tr), Some(enc0), Some(sent), Some(dec0)) =
                            (tracer.as_deref_mut(), enc0, sent, dec0)
                        {
                            let lane = c.worker;
                            let root = tr.span("svc.request", enc0, t1, None, req, lane);
                            tr.span("protocol.encode", enc0, t0, Some(root), req, lane);
                            tr.span("socket.write", t0, sent, Some(root), req, lane);
                            let arrived = c.read_at.unwrap_or(dec0).clamp(sent, dec0);
                            tr.span("socket.wait", sent, arrived, Some(root), req, lane);
                            tr.span("protocol.decode", dec0, t1, Some(root), req, lane);
                        }
                        match reply {
                            Response::Chunks { chunks, epoch: e } => {
                                epoch = e;
                                let mut leases = Vec::with_capacity(chunks.len());
                                for g in &chunks {
                                    if g.lo >= g.hi || g.hi > n {
                                        d.fail(format!(
                                            "grant [{}, {}) outside [0, {n})",
                                            g.lo, g.hi
                                        ));
                                        continue;
                                    }
                                    for i in g.lo..g.hi {
                                        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
                                        if bitmap[word] & bit != 0 {
                                            d.fail(format!("iteration {i} granted twice"));
                                        }
                                        bitmap[word] |= bit;
                                    }
                                    d.iterations += g.hi - g.lo;
                                    d.granted += 1;
                                    leases.push(g.lease);
                                }
                                // An empty grant means leases are still
                                // unsettled elsewhere: ask again.
                                let report = (!leases.is_empty()).then_some(leases);
                                send_fetch(c, report, &mut d, epoch)?;
                            }
                            Response::Error { code: ErrorCode::JobFinished, .. } => {
                                c.finished = true;
                            }
                            other => {
                                d.fail(format!("fetch answered {other:?}"));
                                c.finished = true;
                            }
                        }
                    }
                }
            }
            open |= !c.finished || !c.expect.is_empty();
        }
        if !open {
            break;
        }
        d.sweeps += 1;
        if moved {
            last_progress = Instant::now();
        } else {
            d.idle_sweeps += 1;
            // Checked on idle sweeps only, and rarely: the clock read
            // must not become part of the polling cost.
            if d.idle_sweeps % 65_536 == 0 && last_progress.elapsed() > REPLY_TIMEOUT {
                return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
            }
        }
    }
    d.wall_s = start.elapsed().as_secs_f64();

    if d.iterations != n || bitmap.iter().map(|w| u64::from(w.count_ones())).sum::<u64>() != n {
        d.fail(format!("granted {} of {n} iterations", d.iterations));
    }
    if d.settled != d.granted {
        d.fail(format!("settled {} of {} granted leases", d.settled, d.granted));
    }
    Ok(d)
}

/// Cross-check the server's own account of the job against the
/// driver's. Returns the number of checks made.
fn check_stats(snap: &StatsSnapshot, job: u64, n: u64, d: &mut Drained) -> u64 {
    let Some(j) = snap.jobs.iter().find(|j| j.job == job) else {
        d.fail(format!("job {job} missing from Stats"));
        return 1;
    };
    let checks = [
        (j.done, "done"),
        (j.completed == n, "completed == n"),
        (j.leases_reclaimed == 0, "leases_reclaimed == 0"),
        (j.leases_granted == d.granted, "leases_granted == driver's count"),
        (j.leases_completed == d.settled, "leases_completed == driver's count"),
    ];
    for (ok, what) in checks {
        if !ok {
            d.fail(format!("Stats check failed: {what} ({j:?})"));
        }
    }
    checks.len() as u64
}

fn stats_of(conn: &mut Conn, scratch: &mut [u8]) -> Result<StatsSnapshot, String> {
    match conn.call(&Request::Stats, scratch)? {
        Response::Snapshot(s) => Ok(s),
        other => Err(format!("Stats answered {other:?}")),
    }
}

fn journal_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    proc::out_dir().join(format!("journal-{}-{k}", std::process::id()))
}

/// One repetition of a service workload on a job of `n` iterations:
/// the daemon on the first of `cpus`, the driver thread on the last.
pub fn run_rep(
    serverd: &Path,
    spec: &SvcSpec,
    n: u64,
    conns: u32,
    cpus: &[u32],
    tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let dir = spec.journal.then(journal_dir);
    let result = run_rep_in(serverd, spec, n, conns, cpus, tracer, dir.as_deref());
    // The driver thread goes back to every CPU of the benchmark.
    proc::pin_thread(cpus);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    result
}

fn run_rep_in(
    serverd: &Path,
    spec: &SvcSpec,
    n: u64,
    n_conns: u32,
    cpus: &[u32],
    tracer: Option<&mut Tracer>,
    dir: Option<&Path>,
) -> Result<Rep, String> {
    let on = Placement { server: cpus[0], driver: cpus[cpus.len() - 1] };
    let mut scratch = vec![0u8; 256 * 1024];
    let mut v = Samples::default();

    // ---- set-up: spawn + LISTEN + connect + CreateJob ----
    let setup = Instant::now();
    let daemon = Daemon::spawn(serverd, dir, on)?;
    let mut conns =
        (0..n_conns).map(|w| Conn::connect(daemon.addr, w)).collect::<Result<Vec<_>, _>>()?;
    let create = Request::CreateJob { n, kind: dls::Kind::SS.into(), weights: Vec::new() };
    let job = match conns[0].call(&create, &mut scratch)? {
        Response::JobCreated { job } => job,
        other => return Err(format!("CreateJob answered {other:?}")),
    };
    v.push("setup_s", setup.elapsed().as_secs_f64());

    // ---- timed section: drain the job ----
    let pid = daemon.pid();
    let cpu = |name: &str| proc::named_thread_cpu(pid, name).unwrap_or_default();
    let (loop0, flusher0) = (cpu("dls-loop-0"), cpu("wal-flusher"));
    let driver0 = proc::thread_self_cpu().unwrap_or_default();
    let mut d = drive(&mut conns, job, n, spec, tracer)?;
    let driver = proc::thread_self_cpu().unwrap_or_default().since(driver0);
    let loop_cpu = cpu("dls-loop-0").since(loop0);
    let flusher = cpu("wal-flusher").since(flusher0);

    let snap = stats_of(&mut conns[0], &mut scratch)?;
    let mut checks = check_stats(&snap, job, n, &mut d);
    let chunks = d.granted.max(1) as f64;
    v.push("wall_s", d.wall_s);
    v.push("chunks_per_s", d.settled.min(d.granted) as f64 / d.wall_s);
    v.push("peak_rss_mb", proc::peak_rss_mb(&pid.to_string()).unwrap_or(0.0));
    d.latencies_ns.sort_unstable();
    v.push("fetch_p50_us", percentile_us(&d.latencies_ns, 0.50));
    v.push("fetch_p99_us", percentile_us(&d.latencies_ns, 0.99));
    v.add_count("fetch_p50_us", d.latencies_ns.len() as u64);
    v.add_count("fetch_p99_us", d.latencies_ns.len() as u64);
    v.push("server.cpu_user_us_per_chunk", loop_cpu.user_s() * 1e6 / chunks);
    v.push("server.cpu_sys_us_per_chunk", loop_cpu.sys_s() * 1e6 / chunks);
    v.push("server.busy_share", loop_cpu.total_s() / d.wall_s);
    let row = snap.jobs.iter().find(|j| j.job == job);
    v.push("server.fetch_requests", row.map_or(0.0, |j| j.fetches as f64));
    v.push("server.leases_granted", row.map_or(0.0, |j| j.leases_granted as f64));
    v.push("server.leases_reclaimed", row.map_or(0.0, |j| j.leases_reclaimed as f64));
    v.push("driver.cpu_us_per_chunk", driver.total_s() * 1e6 / chunks);
    v.push("driver.idle_poll_share", d.idle_sweeps as f64 / d.sweeps.max(1) as f64);
    if spec.journal {
        v.push("durability.bytes_per_chunk", snap.journal.journal_bytes as f64 / chunks);
        v.push("durability.snapshots", snap.journal.snapshots as f64);
        v.push("durability.fsyncs", snap.journal.fsyncs as f64);
        v.push("durability.flusher_cpu_us_per_chunk", flusher.total_s() * 1e6 / chunks);
    }

    // ---- svc_journal: SIGKILL, restart on the same directory ----
    let mut daemon = daemon;
    if let Some(dir) = dir {
        drop(conns);
        let killed = Instant::now();
        drop(daemon);
        daemon = Daemon::spawn(serverd, Some(dir), on)?;
        v.push("recover_s", killed.elapsed().as_secs_f64());
        conns = vec![Conn::connect(daemon.addr, 0)?];
        let recovered = stats_of(&mut conns[0], &mut scratch)?;
        let ok = recovered.jobs.iter().any(|j| j.job == job && j.done && j.completed == n);
        if !ok {
            d.fail(format!("recovered server lost job {job}: {:?}", recovered.jobs));
        }
        checks += 1;
    }

    // ---- teardown: graceful drain, exit code 0 ----
    match conns[0].call(&Request::Shutdown, &mut scratch)? {
        Response::Ack => {}
        other => d.fail(format!("Shutdown answered {other:?}")),
    }
    drop(conns);
    if let Err(e) = daemon.wait_clean_exit() {
        d.fail(e);
    }
    checks += 2;

    Ok(Rep {
        values: v,
        attempted: d.requests + d.granted + checks,
        failed: d.failed,
        problems: d.problems,
    })
}

/// Round-trip times of a `FetchChunk`-sized frame against a bare
/// loopback echo thread, driven by the same busy-polling connection:
/// what the socket layer alone costs, with no server behind it. The
/// echo side busy-polls too, like a server that is never idle; a
/// blocking echo is bimodal here (4 or 25 us) by where the scheduler
/// happens to wake it.
pub fn echo_rtt_us(round_trips: usize) -> Result<(f64, f64, usize), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let payload = frame(&Request::FetchChunk { job: 1, worker: 0, batch: 1 }.encode());
    let len = payload.len();
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            let (peer, _) = listener.accept().map_err(|e| e.to_string())?;
            let mut peer = Conn::adopt(peer, 0)?;
            let mut scratch = vec![0u8; 4096];
            // Ends with the driver's hang-up, which `fill` reports.
            while peer.fill(&mut scratch, false).is_ok() {
                let echoed = peer.inbuf.split_off(peer.in_off);
                peer.out.extend_from_slice(&echoed);
                peer.flush()?;
            }
            Ok(())
        });
        let mut conn = Conn::connect(addr, 0)?;
        let mut scratch = vec![0u8; 4096];
        let mut rtts = Vec::with_capacity(round_trips);
        for _ in 0..round_trips {
            conn.out.extend_from_slice(&payload);
            let t0 = Instant::now();
            while conn.inbuf.len() - conn.in_off < len {
                conn.flush()?;
                conn.fill(&mut scratch, false)?;
                if t0.elapsed() > REPLY_TIMEOUT {
                    return Err("echo thread stopped answering".to_string());
                }
            }
            conn.in_off += len;
            rtts.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        drop(conn);
        echo.join().map_err(|_| "echo thread panicked".to_string())??;
        rtts.sort_unstable();
        Ok((percentile_us(&rtts, 0.50), percentile_us(&rtts, 0.99), rtts.len()))
    })
}

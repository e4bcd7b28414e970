//! Blocking client for the chunk-scheduling service.
//!
//! One [`Client`] owns one TCP connection and speaks strict
//! request/response: every call writes one frame and blocks for one
//! reply frame. Leases granted on a connection are reclaimed by the
//! server if the connection dies, so a process that holds a `Client`
//! per worker gets crash recovery for free.

use crate::protocol::{
    frame, ErrorCode, GrantedChunk, JobId, LeaseId, Request, Response, StatsSnapshot,
};
use dls::switchable::{Decision, SchedKind};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-call).
    Io(io::Error),
    /// The reply frame did not parse.
    Protocol(crate::protocol::DecodeError),
    /// The server answered a typed error.
    Server {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The server answered with a response of the wrong shape.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, detail } => write!(f, "server error {code}: {detail}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response, wanted {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// What a fetch round trip produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FetchReply {
    /// Work: execute, then settle each lease with
    /// [`Client::report_done`].
    Chunks(Vec<GrantedChunk>),
    /// No work *right now* (all scheduled, some leases unsettled — a
    /// reclaim may still produce chunks): back off briefly and retry.
    Pending,
    /// The job finished every iteration; stop fetching.
    Done,
}

/// What [`Client::resume_job`] learned about a job that survived a
/// server restart.
#[derive(Clone, Debug, PartialEq)]
pub struct JobProgress {
    /// Server epoch now in force.
    pub epoch: u32,
    /// Total iterations.
    pub n: u64,
    /// Iterations handed out so far.
    pub scheduled: u64,
    /// Iterations settled exactly once.
    pub completed: u64,
    /// True when every iteration settled.
    pub done: bool,
    /// Technique actively sizing chunks after recovery (for AUTO jobs:
    /// the last journaled decision's target, replayed not re-derived).
    pub kind: SchedKind,
    /// Tuner decision history, dense by `seq`.
    pub decisions: Vec<Decision>,
}

/// One blocking connection to a server.
pub struct Client {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Per-reply wait budget; `None` blocks indefinitely.
    read_deadline: Option<Duration>,
    /// Server epoch observed on the latest `Chunks`/`JobEpoch` reply;
    /// echoed in every `ReportDone` so a journaled server can fence
    /// reports that belong to a dead incarnation (0 until observed —
    /// also what a volatile server runs at).
    epoch: u32,
}

impl Client {
    /// Connect.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, read_buf: Vec::new(), read_deadline: None, epoch: 0 })
    }

    /// The server epoch this client last observed.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bound how long each call waits for its reply. A stalled server
    /// (connection open, nothing arriving) then fails the call with
    /// [`io::ErrorKind::TimedOut`] — *distinct* from
    /// [`io::ErrorKind::UnexpectedEof`], which still means the server
    /// closed the connection. `None` restores indefinite blocking.
    ///
    /// The socket is switched to a short poll tick so a reply arriving
    /// before the deadline is picked up promptly; transient
    /// `WouldBlock`/`TimedOut` ticks are retried, never surfaced.
    pub fn set_read_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        let tick =
            deadline.map(|d| (d / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)));
        self.stream.set_read_timeout(tick)?;
        self.read_deadline = deadline;
        Ok(())
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        self.stream.write_all(&frame(&req.encode()))?;
        // Read exactly one frame.
        let mut len_buf = [0u8; 4];
        self.read_exact_buffered(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        self.read_exact_buffered(&mut payload)?;
        Response::decode(&payload).map_err(ClientError::Protocol)
    }

    fn read_exact_buffered(&mut self, out: &mut [u8]) -> Result<()> {
        // Strict request/response leaves nothing buffered between
        // calls, but keep a buffer anyway so short reads are handled.
        let start = Instant::now();
        while self.read_buf.len() < out.len() {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Real EOF: the peer closed. Nothing below may be
                    // conflated with this — a timeout tick is not a
                    // dead server.
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                Ok(k) => self.read_buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    match self.read_deadline {
                        Some(d) if start.elapsed() >= d => {
                            return Err(ClientError::Io(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("no reply within {d:?} (connection still open)"),
                            )));
                        }
                        Some(_) => continue, // tick expired, budget left
                        // No deadline configured (an externally imposed
                        // socket timeout): surface the timeout as-is.
                        None => return Err(ClientError::Io(e)),
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        out.copy_from_slice(&self.read_buf[..out.len()]);
        self.read_buf.drain(..out.len());
        Ok(())
    }

    fn expect_ack(resp: Response) -> Result<()> {
        match resp {
            Response::Ack => Ok(()),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::Unexpected("Ack")),
        }
    }

    /// Register a job of `n` iterations scheduled by `kind` (any
    /// [`dls::Kind`] converts, so `create_job(n, Kind::SS, &[])` and
    /// `create_job(n, SchedKind::Auto, &[])` both work); `weights` may
    /// be empty for unit weights.
    pub fn create_job(
        &mut self,
        n: u64,
        kind: impl Into<SchedKind>,
        weights: &[f64],
    ) -> Result<JobId> {
        let kind = kind.into();
        match self.call(&Request::CreateJob { n, kind, weights: weights.to_vec() })? {
            Response::JobCreated { job } => Ok(job),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::Unexpected("JobCreated")),
        }
    }

    /// Ask for up to `batch` chunks. `JobFinished` maps to
    /// [`FetchReply::Done`]; an empty grant maps to
    /// [`FetchReply::Pending`].
    pub fn fetch(&mut self, job: JobId, worker: u32, batch: u32) -> Result<FetchReply> {
        match self.call(&Request::FetchChunk { job, worker, batch })? {
            Response::Chunks { chunks, epoch } => {
                self.epoch = epoch;
                if chunks.is_empty() {
                    Ok(FetchReply::Pending)
                } else {
                    Ok(FetchReply::Chunks(chunks))
                }
            }
            Response::Error { code: ErrorCode::JobFinished, .. } => Ok(FetchReply::Done),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::Unexpected("Chunks")),
        }
    }

    /// Settle executed leases (batched acknowledgement). Echoes the
    /// last observed server epoch; a journaled server that restarted
    /// since the leases were granted answers
    /// [`ErrorCode::StaleEpoch`] instead of double-counting them.
    pub fn report_done(&mut self, job: JobId, leases: &[LeaseId]) -> Result<()> {
        let epoch = self.epoch;
        Self::expect_ack(self.call(&Request::ReportDone { job, leases: leases.to_vec(), epoch })?)
    }

    /// Ask a journaled server whether `job` survived its restart, and
    /// at what progress. Adopts the server's epoch on success, so
    /// subsequent fetches/reports are fenced correctly. Typed errors:
    /// [`ErrorCode::NoJournal`] from a volatile server,
    /// [`ErrorCode::UnknownJob`] when the job is not in the recovered
    /// state.
    pub fn resume_job(&mut self, job: JobId) -> Result<JobProgress> {
        match self.call(&Request::ResumeJob { job })? {
            Response::JobEpoch {
                job: _,
                epoch,
                n,
                scheduled,
                completed,
                done,
                kind,
                decisions,
            } => {
                self.epoch = epoch;
                Ok(JobProgress { epoch, n, scheduled, completed, done, kind, decisions })
            }
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::Unexpected("JobEpoch")),
        }
    }

    /// Liveness ping.
    pub fn heartbeat(&mut self, worker: u32) -> Result<()> {
        Self::expect_ack(self.call(&Request::Heartbeat { worker })?)
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::Snapshot(s) => Ok(s),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::Unexpected("Snapshot")),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<()> {
        Self::expect_ack(self.call(&Request::Shutdown)?)
    }
}

/// The worker loop behind the three `drive_job*` functions: fetch a
/// batch, execute its chunks, settle their leases, repeat until the
/// job is done. `per_chunk` settles each chunk in its own `ReportDone`
/// round trip, right after `on_chunk` saw it; otherwise the whole batch
/// is settled in one. Returns the totals over *acknowledged* reports.
/// `on_report` is handed the chunks of each report the server may have
/// applied: with `true` once it was acknowledged, with `false` when it
/// failed with an `Io` error (applied or lost — the reply never came).
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    job: JobId,
    worker: u32,
    batch: u32,
    per_chunk: bool,
    execute: &mut dyn FnMut(u64) -> u64,
    on_chunk: &mut dyn FnMut(u64) -> bool,
    on_report: &mut dyn FnMut(&[GrantedChunk], bool),
) -> Result<(u64, u64, u64)> {
    let (mut checksum, mut iterations, mut chunks) = (0u64, 0u64, 0u64);
    let mut executed_chunks = 0u64;
    let mut leases: Vec<LeaseId> = Vec::new();
    loop {
        let granted = match client.fetch(job, worker, batch)? {
            FetchReply::Done => return Ok((checksum, iterations, chunks)),
            FetchReply::Pending => {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            FetchReply::Chunks(granted) => granted,
        };
        let settle_together = if per_chunk { 1 } else { granted.len().max(1) };
        for group in granted.chunks(settle_together) {
            let mut sum = 0u64;
            for c in group {
                for i in c.lo..c.hi {
                    sum = sum.wrapping_add(execute(i));
                }
                executed_chunks += 1;
                if !on_chunk(executed_chunks) {
                    // Abandon mid-chunk: executed but never reported —
                    // the server must reclaim it.
                    return Ok((checksum, iterations, chunks));
                }
            }
            leases.clear();
            leases.extend(group.iter().map(|c| c.lease));
            match client.report_done(job, &leases) {
                Ok(()) => on_report(group, true),
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        on_report(group, false);
                    }
                    return Err(e);
                }
            }
            checksum = checksum.wrapping_add(sum);
            iterations += group.iter().map(|c| c.hi - c.lo).sum::<u64>();
            chunks += group.len() as u64;
        }
    }
}

/// Run a whole job from this process: fetch batches, execute each
/// granted iteration through `execute`, report, repeat until the job
/// is done. Returns `(checksum_of_reported_work, iterations_reported,
/// chunks_reported)`.
///
/// The checksum only covers chunks whose `ReportDone` was
/// acknowledged, so the sum over all workers of a job — including ones
/// that crashed mid-chunk — equals the serial checksum exactly when
/// the server's lease recovery re-issued lost work exactly once.
///
/// `on_chunk` is called after each chunk is executed but *before* it
/// is reported — fault-injection hooks (the `net-worker` binary's
/// crash trigger) return `false` to abandon the run mid-chunk.
pub fn drive_job(
    client: &mut Client,
    job: JobId,
    worker: u32,
    batch: u32,
    execute: &mut dyn FnMut(u64) -> u64,
    on_chunk: &mut dyn FnMut(u64) -> bool,
) -> Result<(u64, u64, u64)> {
    drive(client, job, worker, batch, true, execute, on_chunk, &mut |_, _| {})
}

/// [`drive_job`] that additionally records every *acknowledged* range
/// into `acked` — the restart smoke test unions these across workers
/// and restarts to prove each iteration was settled exactly once.
///
/// A report whose reply never arrives (socket error mid-round-trip)
/// is pushed to `ambiguous` instead: the server may have settled and
/// journaled it before dying — or not. The caller resolves each
/// ambiguous range against the union of acked ranges after the fact
/// (re-issued and re-acked elsewhere ⇒ it was lost; acked nowhere ⇒
/// it was settled pre-crash). A *typed* server error is unambiguous
/// (the reply proves the round trip completed) and records nothing.
///
/// Unlike [`drive_job`], partial progress survives an `Err` return:
/// everything acked before the failure is already in `acked`.
#[allow(clippy::too_many_arguments)]
pub fn drive_job_tracked(
    client: &mut Client,
    job: JobId,
    worker: u32,
    batch: u32,
    execute: &mut dyn FnMut(u64) -> u64,
    on_chunk: &mut dyn FnMut(u64) -> bool,
    acked: &mut Vec<(u64, u64)>,
    ambiguous: &mut Vec<(u64, u64)>,
) -> Result<()> {
    let mut record = |group: &[GrantedChunk], acknowledged: bool| {
        let ranges = group.iter().map(|c| (c.lo, c.hi));
        if acknowledged {
            acked.extend(ranges)
        } else {
            ambiguous.extend(ranges)
        }
    };
    drive(client, job, worker, batch, true, execute, on_chunk, &mut record).map(|_| ())
}

/// [`drive_job`] with whole-batch reporting: execute every chunk of
/// the batch, then settle all leases in one `ReportDone` round trip —
/// the load-generator shape where batching pays on both legs.
pub fn drive_job_batched(
    client: &mut Client,
    job: JobId,
    worker: u32,
    batch: u32,
    execute: &mut dyn FnMut(u64) -> u64,
) -> Result<(u64, u64, u64)> {
    drive(client, job, worker, batch, false, execute, &mut |_| true, &mut |_, _| {})
}

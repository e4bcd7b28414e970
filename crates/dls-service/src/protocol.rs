//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+---------+-----+------------------+
//! | len: u32 LE    | version | tag | body (len-2 B)   |
//! +----------------+---------+-----+------------------+
//! ```
//!
//! `len` counts the payload (version byte + tag byte + body) and must
//! be in `1..=max_frame`; a zero or oversized length is a framing
//! violation the server answers with [`ErrorCode::FrameTooLarge`]
//! before closing the connection (the stream cannot be resynchronised).
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern.
//!
//! Requests and responses share the frame format and the version byte
//! ([`VERSION`]); they are distinguished by tag ranges (requests
//! `1..=7`, responses `128..`). A server must answer every
//! *well-framed* request with exactly one response frame — malformed
//! bodies get a typed [`Response::Error`], never silence and never a
//! closed socket without one.
//!
//! Version 2 adds restart survival: grants carry the server *epoch*
//! (bumped by every journaled restart, 0 on a journal-less server),
//! reports echo it back so a grant from a dead incarnation is answered
//! with [`ErrorCode::StaleEpoch`] instead of being silently
//! double-counted, and [`Request::ResumeJob`] lets a reconnecting
//! worker rebind to a recovered job.
//!
//! Version 3 widens the technique byte from the ten pure [`dls::Kind`]s
//! to the full [`SchedKind`] space (adaptive `AF`/`AWF-*` and the
//! `AUTO` meta-mode, bytes 10–15; pure kinds keep their v2 bytes), and
//! adds the tuner decision history: [`Response::JobEpoch`] and each
//! STATS job row carry the active technique plus the ordered list of
//! [`Decision`]s an AUTO job has taken.

use dls::switchable::{Decision, SchedKind, SwitchReason};

/// Protocol version carried in every frame. Bump on any wire change.
pub const VERSION: u8 = 3;

/// Default upper bound on one frame's payload. Large enough for a
/// `Stats` snapshot of hundreds of jobs, small enough that a malicious
/// length prefix cannot make the server allocate unbounded memory.
pub const MAX_FRAME: u32 = 256 * 1024;

// Request tags.
const T_CREATE_JOB: u8 = 1;
const T_FETCH_CHUNK: u8 = 2;
const T_REPORT_DONE: u8 = 3;
const T_HEARTBEAT: u8 = 4;
const T_STATS: u8 = 5;
const T_SHUTDOWN: u8 = 6;
const T_RESUME_JOB: u8 = 7;

// Response tags.
const T_JOB_CREATED: u8 = 128;
const T_CHUNKS: u8 = 129;
const T_ACK: u8 = 130;
const T_SNAPSHOT: u8 = 131;
const T_ERROR: u8 = 132;
const T_JOB_EPOCH: u8 = 133;

/// Identifier of a job on one server.
pub type JobId = u64;

/// Identifier of a lease within one job (dense, 0-based — the same id
/// space as [`resilience::LeaseId`]).
pub type LeaseId = u64;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a loop of `n` iterations scheduled by `kind` at the
    /// inter-node level. `weights` are optional per-worker relative
    /// speeds for weighted techniques (empty = unit weights).
    CreateJob {
        /// Total loop iterations.
        n: u64,
        /// DLS technique driving the global queue (pure, adaptive, or
        /// the AUTO meta-mode).
        kind: SchedKind,
        /// Per-worker weights (indexed by worker id), empty for unit.
        weights: Vec<f64>,
    },
    /// Ask for up to `batch` chunks of `job` on behalf of `worker`.
    FetchChunk {
        /// Target job.
        job: JobId,
        /// Requesting worker id (used by weighted techniques and the
        /// lease ledger).
        worker: u32,
        /// Maximum number of chunks to grant in this round trip.
        batch: u32,
    },
    /// Report the listed leases as executed (batched acknowledgement).
    ReportDone {
        /// Target job.
        job: JobId,
        /// Leases whose ranges were fully executed.
        leases: Vec<LeaseId>,
        /// Server epoch the leases were granted under (echoed from
        /// [`Response::Chunks`]; 0 against a journal-less server). A
        /// mismatch is answered with [`ErrorCode::StaleEpoch`].
        epoch: u32,
    },
    /// Liveness ping; keeps idle connections warm.
    Heartbeat {
        /// Worker id of the pinger.
        worker: u32,
    },
    /// Ask for a [`StatsSnapshot`].
    Stats,
    /// Begin graceful shutdown: the server answers `Ack`, drains
    /// in-flight requests, and stops.
    Shutdown,
    /// Rebind to a job after a server restart: answered with
    /// [`Response::JobEpoch`] (the recovered job's counters and the
    /// new epoch), [`ErrorCode::UnknownJob`], or
    /// [`ErrorCode::NoJournal`] on a server that cannot have
    /// recovered anything.
    ResumeJob {
        /// Job id from before the restart.
        job: JobId,
    },
}

/// One granted chunk: the range plus the lease that must be settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantedChunk {
    /// Lease to pass back in `ReportDone`.
    pub lease: LeaseId,
    /// First iteration of the range.
    pub lo: u64,
    /// One past the last iteration.
    pub hi: u64,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `CreateJob` succeeded.
    JobCreated {
        /// The new job's id.
        job: JobId,
    },
    /// `FetchChunk` reply. An empty list means *no work right now but
    /// the job is not finished* (chunks may reappear via lease
    /// reclamation) — poll again. A finished job answers
    /// [`ErrorCode::JobFinished`] instead.
    Chunks {
        /// Granted chunks, at most the requested batch.
        chunks: Vec<GrantedChunk>,
        /// Server epoch of the grants — echo it in `ReportDone`.
        epoch: u32,
    },
    /// Generic success without payload.
    Ack,
    /// `Stats` reply.
    Snapshot(StatsSnapshot),
    /// Typed failure.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// `ResumeJob` reply: where the recovered job stands.
    JobEpoch {
        /// Job id.
        job: JobId,
        /// Current server epoch; use it for subsequent reports.
        epoch: u32,
        /// Loop size.
        n: u64,
        /// Iterations handed out so far (watermark survives restart).
        scheduled: u64,
        /// Iterations settled exactly once.
        completed: u64,
        /// True when nothing is left to fetch.
        done: bool,
        /// Technique currently sizing chunks (for AUTO jobs this is
        /// the tuner's latest pick, not `AUTO` itself).
        kind: SchedKind,
        /// Tuner decision history in dense `seq` order (empty for
        /// fixed-technique jobs).
        decisions: Vec<Decision>,
    },
}

/// Machine-readable failure causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame's version byte is not [`VERSION`].
    BadVersion = 1,
    /// Unknown tag or malformed body.
    BadMessage = 2,
    /// Frame length prefix of 0 or above the server's `max_frame`.
    FrameTooLarge = 3,
    /// `FetchChunk.batch` exceeds the server's `max_batch`.
    BatchTooLarge = 4,
    /// The worker already holds its quota of unsettled leases.
    QuotaExceeded = 5,
    /// The job id was never created.
    UnknownJob = 6,
    /// Every iteration of the job has been executed and acknowledged.
    JobFinished = 7,
    /// Connection limit reached; try again later.
    Busy = 8,
    /// The server is draining; no new work is granted.
    ShuttingDown = 9,
    /// `CreateJob` named a technique the service cannot drive.
    BadTechnique = 10,
    /// The server's job-table quota is exhausted.
    TooManyJobs = 11,
    /// `ReportDone` named a lease that is unknown or already settled.
    StaleLease = 12,
    /// `FetchChunk.worker` is outside a weighted job's worker range
    /// (the job defines exactly `weights.len()` worker slots).
    BadWorker = 13,
    /// `ReportDone.epoch` names a previous server incarnation: the
    /// lease was granted before a restart and has already been
    /// re-armed for re-execution — the report must be discarded, not
    /// credited.
    StaleEpoch = 14,
    /// `ResumeJob` against a server running without a journal: no
    /// state can have survived a restart.
    NoJournal = 15,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadVersion,
            2 => ErrorCode::BadMessage,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::BatchTooLarge,
            5 => ErrorCode::QuotaExceeded,
            6 => ErrorCode::UnknownJob,
            7 => ErrorCode::JobFinished,
            8 => ErrorCode::Busy,
            9 => ErrorCode::ShuttingDown,
            10 => ErrorCode::BadTechnique,
            11 => ErrorCode::TooManyJobs,
            12 => ErrorCode::StaleLease,
            13 => ErrorCode::BadWorker,
            14 => ErrorCode::StaleEpoch,
            15 => ErrorCode::NoJournal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Version byte differs from [`VERSION`].
    Version(u8),
    /// Tag byte names no known message.
    Tag(u8),
    /// The body ended before the message was complete, or carried an
    /// out-of-range field (described by the `&str`).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Version(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::Tag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Technique kinds and tuner decisions on the wire.
//
// The technique byte is [`SchedKind::to_byte`] — the canonical map
// shared with the durability journal (pure kinds 0–9 exactly as in
// protocol v2, adaptive 10–14, AUTO 15). A [`Decision`] travels as 27
// bytes: seq u32, step u64, scheduled u64, from u8, to u8, reason u8.

fn write_decision(w: &mut Writer<'_>, d: &Decision) {
    w.u32(d.seq);
    w.u64(d.step);
    w.u64(d.scheduled);
    w.u8(d.from.to_byte());
    w.u8(d.to.to_byte());
    w.u8(d.reason.to_byte());
}

fn read_decision(r: &mut Reader<'_>) -> Result<Decision, DecodeError> {
    let seq = r.u32()?;
    let step = r.u64()?;
    let scheduled = r.u64()?;
    let from = SchedKind::from_byte(r.u8()?).ok_or(DecodeError::Malformed("decision from-kind"))?;
    let to = SchedKind::from_byte(r.u8()?).ok_or(DecodeError::Malformed("decision to-kind"))?;
    let reason =
        SwitchReason::from_byte(r.u8()?).ok_or(DecodeError::Malformed("decision reason"))?;
    Ok(Decision { seq, step, scheduled, from, to, reason })
}

/// The rows a `u16` count can announce: the last `u16::MAX` of `rows`.
/// `State::snapshot` sorts jobs and connections by id, so a `Stats`
/// reply over more rows than that carries the most recent ones.
fn newest<T>(rows: &[T]) -> &[T] {
    &rows[rows.len().saturating_sub(usize::from(u16::MAX))..]
}

fn write_decisions(w: &mut Writer<'_>, decisions: &[Decision]) {
    w.u16(decisions.len() as u16);
    for d in decisions {
        write_decision(w, d);
    }
}

fn read_decisions(r: &mut Reader<'_>) -> Result<Vec<Decision>, DecodeError> {
    let count = r.u16()? as usize;
    let mut decisions = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        decisions.push(read_decision(r)?);
    }
    Ok(decisions)
}

/// `u8::MAX` is the wire sentinel for an absent kind (defaulted
/// snapshot rows); everything else must name a real [`SchedKind`].
fn read_opt_kind(r: &mut Reader<'_>) -> Result<Option<SchedKind>, DecodeError> {
    let b = r.u8()?;
    if b == u8::MAX {
        return Ok(None);
    }
    SchedKind::from_byte(b).map(Some).ok_or(DecodeError::Malformed("unknown technique"))
}

// ---------------------------------------------------------------------------
// Stats snapshot.

/// Server-wide counters at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceTotals {
    /// `FetchChunk` requests served (including empty grants).
    pub fetches: u64,
    /// Chunks granted across all fetches (batching multiplies this
    /// relative to `fetches`).
    pub chunks_granted: u64,
    /// Leases reclaimed from disconnected clients.
    pub reclaims: u64,
    /// Fetches answered with an empty grant (queue empty, job alive).
    pub empty_polls: u64,
    /// Jobs ever created.
    pub jobs_created: u64,
    /// Jobs not yet finished.
    pub jobs_active: u64,
    /// Currently open connections.
    pub conns_active: u64,
    /// Connections ever accepted.
    pub conns_total: u64,
    /// Bytes read from all clients.
    pub bytes_in: u64,
    /// Bytes written to all clients.
    pub bytes_out: u64,
}

/// One job's counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobSnapshot {
    /// Job id.
    pub job: JobId,
    /// Loop size.
    pub n: u64,
    /// Scheduling steps taken (the paper's first global counter).
    pub step: u64,
    /// Iterations handed out (the second global counter).
    pub scheduled: u64,
    /// Iterations executed and acknowledged.
    pub completed: u64,
    /// Every iteration acknowledged.
    pub done: bool,
    /// `FetchChunk` requests against this job.
    pub fetches: u64,
    /// Chunks granted.
    pub chunks_granted: u64,
    /// Leases reclaimed from dead clients.
    pub reclaims: u64,
    /// Empty-grant fetches.
    pub empty_polls: u64,
    /// Ledger: leases ever granted.
    pub leases_granted: u64,
    /// Ledger: leases completed by their owner.
    pub leases_completed: u64,
    /// Ledger: leases reclaimed after owner death.
    pub leases_reclaimed: u64,
    /// Technique currently sizing chunks (`None` only in defaulted
    /// snapshots — the server always fills it).
    pub kind: Option<SchedKind>,
    /// Mode the job was created with (differs from `kind` for AUTO
    /// jobs once the tuner has switched).
    pub mode: Option<SchedKind>,
    /// Tuner decision history, dense by `seq` (empty for fixed jobs).
    pub decisions: Vec<Decision>,
}

/// One open connection's counters. A connection's row goes when it
/// closes; what it did stays in the lifetime sums of [`ServiceTotals`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnSnapshot {
    /// Connection id (accept order).
    pub conn: u64,
    /// Last worker id seen on this connection (`u32::MAX` if none).
    pub worker: u32,
    /// Bytes read from this client.
    pub bytes_in: u64,
    /// Bytes written to this client.
    pub bytes_out: u64,
    /// Requests served.
    pub requests: u64,
    /// `FetchChunk` requests served.
    pub fetches: u64,
    /// Chunks granted to this connection.
    pub chunks: u64,
    /// Iterations this connection acknowledged as executed.
    pub iterations: u64,
    /// Whether the connection is still open.
    pub open: bool,
}

/// Write-ahead-journal counters (all zero on a journal-less server,
/// with `enabled` false).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalTotals {
    /// True when the server runs with `--journal-dir`.
    pub enabled: bool,
    /// Current server epoch (0 without a journal, >= 1 with one).
    pub epoch: u32,
    /// Records committed this incarnation.
    pub journal_records: u64,
    /// Journal bytes written this incarnation.
    pub journal_bytes: u64,
    /// Fsyncs issued this incarnation.
    pub fsyncs: u64,
    /// Snapshots installed this incarnation.
    pub snapshots: u64,
    /// Live segment files.
    pub segments: u64,
}

/// Everything the server knows about itself, exported via the `Stats`
/// request, the drain path of a graceful shutdown, and (re-shaped) the
/// `hdls::export::service_report` ActivityReport bridge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Nanoseconds since the server started.
    pub uptime_ns: u64,
    /// True once a shutdown (frame or signal) has begun.
    pub shutting_down: bool,
    /// Server-wide counters.
    pub totals: ServiceTotals,
    /// Durability counters.
    pub journal: JournalTotals,
    /// Per-job rows, ordered by job id.
    pub jobs: Vec<JobSnapshot>,
    /// Per-connection rows, ordered by connection id.
    pub conns: Vec<ConnSnapshot>,
}

impl StatsSnapshot {
    /// Compact JSON rendering (the artefact `dls-serverd` prints on
    /// graceful exit).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let t = &self.totals;
        s.push_str(&format!(
            "{{\"uptime_ns\":{},\"shutting_down\":{},\"totals\":{{\"fetches\":{},\
             \"chunks_granted\":{},\"reclaims\":{},\"empty_polls\":{},\"jobs_created\":{},\
             \"jobs_active\":{},\"conns_active\":{},\"conns_total\":{},\"bytes_in\":{},\
             \"bytes_out\":{}}},",
            self.uptime_ns,
            self.shutting_down,
            t.fetches,
            t.chunks_granted,
            t.reclaims,
            t.empty_polls,
            t.jobs_created,
            t.jobs_active,
            t.conns_active,
            t.conns_total,
            t.bytes_in,
            t.bytes_out,
        ));
        let jn = &self.journal;
        s.push_str(&format!(
            "\"journal\":{{\"enabled\":{},\"epoch\":{},\"journal_records\":{},\
             \"journal_bytes\":{},\"fsyncs\":{},\"snapshots\":{},\"segments\":{}}},\"jobs\":[",
            jn.enabled,
            jn.epoch,
            jn.journal_records,
            jn.journal_bytes,
            jn.fsyncs,
            jn.snapshots,
            jn.segments,
        ));
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"job\":{},\"n\":{},\"step\":{},\"scheduled\":{},\"completed\":{},\
                 \"done\":{},\"fetches\":{},\"chunks_granted\":{},\"reclaims\":{},\
                 \"empty_polls\":{},\"leases_granted\":{},\"leases_completed\":{},\
                 \"leases_reclaimed\":{},\"kind\":\"{}\",\"mode\":\"{}\",\"switches\":{},\
                 \"decisions\":[",
                j.job,
                j.n,
                j.step,
                j.scheduled,
                j.completed,
                j.done,
                j.fetches,
                j.chunks_granted,
                j.reclaims,
                j.empty_polls,
                j.leases_granted,
                j.leases_completed,
                j.leases_reclaimed,
                j.kind.map_or("?", |k| k.name()),
                j.mode.map_or("?", |k| k.name()),
                j.decisions.len(),
            ));
            for (k, d) in j.decisions.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"seq\":{},\"step\":{},\"scheduled\":{},\"from\":\"{}\",\
                     \"to\":\"{}\",\"reason\":\"{}\"}}",
                    d.seq,
                    d.step,
                    d.scheduled,
                    d.from.name(),
                    d.to.name(),
                    d.reason.name(),
                ));
            }
            s.push_str("]}");
        }
        s.push_str("],\"conns\":[");
        for (i, c) in self.conns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"conn\":{},\"worker\":{},\"bytes_in\":{},\"bytes_out\":{},\"requests\":{},\
                 \"fetches\":{},\"chunks\":{},\"iterations\":{},\"open\":{}}}",
                c.conn,
                c.worker,
                c.bytes_in,
                c.bytes_out,
                c.requests,
                c.fetches,
                c.chunks,
                c.iterations,
                c.open,
            ));
        }
        s.push_str("]}");
        s
    }
}

// ---------------------------------------------------------------------------
// Encoding.

/// Appends one payload (version + tag + body) to a buffer it borrows:
/// a fresh `Vec` for `encode()`, a connection's write buffer for the
/// server's replies.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut Vec<u8>, tag: u8) -> Self {
        buf.reserve(32);
        buf.push(VERSION);
        buf.push(tag);
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(DecodeError::Malformed("body shorter than declared"));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

impl Request {
    /// Serialise to one frame payload (version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::CreateJob { n, kind, weights } => {
                let mut w = Writer::new(&mut buf, T_CREATE_JOB);
                w.u64(*n);
                w.u8(kind.to_byte());
                w.u16(weights.len() as u16);
                for &wt in weights {
                    w.f64(wt);
                }
            }
            Request::FetchChunk { job, worker, batch } => {
                let mut w = Writer::new(&mut buf, T_FETCH_CHUNK);
                w.u64(*job);
                w.u32(*worker);
                w.u32(*batch);
            }
            Request::ReportDone { job, leases, epoch } => {
                buf.reserve(16 + 8 * leases.len());
                let mut w = Writer::new(&mut buf, T_REPORT_DONE);
                w.u64(*job);
                w.u32(*epoch);
                w.u16(leases.len() as u16);
                for &l in leases {
                    w.u64(l);
                }
            }
            Request::Heartbeat { worker } => Writer::new(&mut buf, T_HEARTBEAT).u32(*worker),
            Request::Stats => {
                Writer::new(&mut buf, T_STATS);
            }
            Request::Shutdown => {
                Writer::new(&mut buf, T_SHUTDOWN);
            }
            Request::ResumeJob { job } => Writer::new(&mut buf, T_RESUME_JOB).u64(*job),
        }
        buf
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(payload);
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::Version(version));
        }
        let tag = r.u8()?;
        let req = match tag {
            T_CREATE_JOB => {
                let n = r.u64()?;
                let kind = SchedKind::from_byte(r.u8()?)
                    .ok_or(DecodeError::Malformed("unknown technique"))?;
                let count = r.u16()? as usize;
                let mut weights = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    weights.push(r.f64()?);
                }
                Request::CreateJob { n, kind, weights }
            }
            T_FETCH_CHUNK => {
                Request::FetchChunk { job: r.u64()?, worker: r.u32()?, batch: r.u32()? }
            }
            T_REPORT_DONE => {
                let job = r.u64()?;
                let epoch = r.u32()?;
                let count = r.u16()? as usize;
                let mut leases = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    leases.push(r.u64()?);
                }
                Request::ReportDone { job, leases, epoch }
            }
            T_HEARTBEAT => Request::Heartbeat { worker: r.u32()? },
            T_STATS => Request::Stats,
            T_SHUTDOWN => Request::Shutdown,
            T_RESUME_JOB => Request::ResumeJob { job: r.u64()? },
            other => return Err(DecodeError::Tag(other)),
        };
        r.done()?;
        Ok(req)
    }
}

/// Encoded size of one `Chunks` row: lease, lo, hi.
const CHUNK_ROW: usize = 24;
/// Encoded size of a `Chunks` payload ahead of its rows: version, tag,
/// epoch, row count.
const CHUNKS_HEADER: usize = 2 + 4 + 2;

/// The most rows one `Chunks` frame can carry under `max_frame`: what
/// its `u16` count can announce and what fits in the payload. A server
/// must not grant more leases per fetch than it can name in the reply.
pub(crate) fn max_chunks_per_frame(max_frame: u32) -> u32 {
    let fit = (max_frame as usize).saturating_sub(CHUNKS_HEADER) / CHUNK_ROW;
    fit.min(usize::from(u16::MAX)) as u32
}

/// Append one complete frame to `out`: the length prefix is patched in
/// after `payload` has written the payload behind it, so a reply is
/// encoded once, where it is sent from.
pub(crate) fn framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Write a [`Response::Chunks`] payload of `[lease, lo, hi]` rows — for
/// the server, straight from the rows it granted.
pub(crate) fn write_chunks(
    buf: &mut Vec<u8>,
    epoch: u32,
    rows: impl ExactSizeIterator<Item = [u64; 3]>,
) {
    buf.reserve(CHUNKS_HEADER + CHUNK_ROW * rows.len());
    let mut w = Writer::new(buf, T_CHUNKS);
    w.u32(epoch);
    w.u16(rows.len() as u16);
    for row in rows {
        for v in row {
            w.u64(v);
        }
    }
}

impl Response {
    /// Serialise to one frame payload (version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append this response to `out` as one complete frame.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        framed(out, |buf| self.encode_into(buf));
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::JobCreated { job } => Writer::new(buf, T_JOB_CREATED).u64(*job),
            Response::Chunks { chunks, epoch } => {
                write_chunks(buf, *epoch, chunks.iter().map(|c| [c.lease, c.lo, c.hi]));
            }
            Response::Ack => {
                Writer::new(buf, T_ACK);
            }
            Response::Snapshot(s) => {
                let mut w = Writer::new(buf, T_SNAPSHOT);
                w.u64(s.uptime_ns);
                w.u8(u8::from(s.shutting_down));
                let t = &s.totals;
                for v in [
                    t.fetches,
                    t.chunks_granted,
                    t.reclaims,
                    t.empty_polls,
                    t.jobs_created,
                    t.jobs_active,
                    t.conns_active,
                    t.conns_total,
                    t.bytes_in,
                    t.bytes_out,
                ] {
                    w.u64(v);
                }
                let jn = &s.journal;
                w.u8(u8::from(jn.enabled));
                w.u32(jn.epoch);
                for v in
                    [jn.journal_records, jn.journal_bytes, jn.fsyncs, jn.snapshots, jn.segments]
                {
                    w.u64(v);
                }
                let jobs = newest(&s.jobs);
                w.u16(jobs.len() as u16);
                for j in jobs {
                    for v in [
                        j.job,
                        j.n,
                        j.step,
                        j.scheduled,
                        j.completed,
                        j.fetches,
                        j.chunks_granted,
                        j.reclaims,
                        j.empty_polls,
                        j.leases_granted,
                        j.leases_completed,
                        j.leases_reclaimed,
                    ] {
                        w.u64(v);
                    }
                    w.u8(u8::from(j.done));
                    w.u8(j.kind.map_or(u8::MAX, SchedKind::to_byte));
                    w.u8(j.mode.map_or(u8::MAX, SchedKind::to_byte));
                    write_decisions(&mut w, &j.decisions);
                }
                let conns = newest(&s.conns);
                w.u16(conns.len() as u16);
                for c in conns {
                    w.u64(c.conn);
                    w.u32(c.worker);
                    for v in
                        [c.bytes_in, c.bytes_out, c.requests, c.fetches, c.chunks, c.iterations]
                    {
                        w.u64(v);
                    }
                    w.u8(u8::from(c.open));
                }
            }
            Response::Error { code, detail } => {
                let mut w = Writer::new(buf, T_ERROR);
                w.u8(*code as u8);
                let bytes = detail.as_bytes();
                let len = bytes.len().min(u16::MAX as usize);
                w.u16(len as u16);
                w.bytes(&bytes[..len]);
            }
            Response::JobEpoch { job, epoch, n, scheduled, completed, done, kind, decisions } => {
                let mut w = Writer::new(buf, T_JOB_EPOCH);
                w.u64(*job);
                w.u32(*epoch);
                w.u64(*n);
                w.u64(*scheduled);
                w.u64(*completed);
                w.u8(u8::from(*done));
                w.u8(kind.to_byte());
                write_decisions(&mut w, decisions);
            }
        }
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(payload);
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::Version(version));
        }
        let tag = r.u8()?;
        let resp = match tag {
            T_JOB_CREATED => Response::JobCreated { job: r.u64()? },
            T_CHUNKS => {
                let epoch = r.u32()?;
                let count = r.u16()? as usize;
                let mut chunks = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    chunks.push(GrantedChunk { lease: r.u64()?, lo: r.u64()?, hi: r.u64()? });
                }
                Response::Chunks { chunks, epoch }
            }
            T_ACK => Response::Ack,
            T_SNAPSHOT => {
                let uptime_ns = r.u64()?;
                let shutting_down = r.u8()? != 0;
                let totals = ServiceTotals {
                    fetches: r.u64()?,
                    chunks_granted: r.u64()?,
                    reclaims: r.u64()?,
                    empty_polls: r.u64()?,
                    jobs_created: r.u64()?,
                    jobs_active: r.u64()?,
                    conns_active: r.u64()?,
                    conns_total: r.u64()?,
                    bytes_in: r.u64()?,
                    bytes_out: r.u64()?,
                };
                let journal = JournalTotals {
                    enabled: r.u8()? != 0,
                    epoch: r.u32()?,
                    journal_records: r.u64()?,
                    journal_bytes: r.u64()?,
                    fsyncs: r.u64()?,
                    snapshots: r.u64()?,
                    segments: r.u64()?,
                };
                let n_jobs = r.u16()? as usize;
                let mut jobs = Vec::with_capacity(n_jobs.min(4096));
                for _ in 0..n_jobs {
                    jobs.push(JobSnapshot {
                        job: r.u64()?,
                        n: r.u64()?,
                        step: r.u64()?,
                        scheduled: r.u64()?,
                        completed: r.u64()?,
                        fetches: r.u64()?,
                        chunks_granted: r.u64()?,
                        reclaims: r.u64()?,
                        empty_polls: r.u64()?,
                        leases_granted: r.u64()?,
                        leases_completed: r.u64()?,
                        leases_reclaimed: r.u64()?,
                        done: r.u8()? != 0,
                        kind: read_opt_kind(&mut r)?,
                        mode: read_opt_kind(&mut r)?,
                        decisions: read_decisions(&mut r)?,
                    });
                }
                let n_conns = r.u16()? as usize;
                let mut conns = Vec::with_capacity(n_conns.min(4096));
                for _ in 0..n_conns {
                    conns.push(ConnSnapshot {
                        conn: r.u64()?,
                        worker: r.u32()?,
                        bytes_in: r.u64()?,
                        bytes_out: r.u64()?,
                        requests: r.u64()?,
                        fetches: r.u64()?,
                        chunks: r.u64()?,
                        iterations: r.u64()?,
                        open: r.u8()? != 0,
                    });
                }
                Response::Snapshot(StatsSnapshot {
                    uptime_ns,
                    shutting_down,
                    totals,
                    journal,
                    jobs,
                    conns,
                })
            }
            T_ERROR => {
                let code =
                    ErrorCode::from_u8(r.u8()?).ok_or(DecodeError::Malformed("error code"))?;
                let len = r.u16()? as usize;
                let detail = String::from_utf8_lossy(r.take(len)?).into_owned();
                Response::Error { code, detail }
            }
            T_JOB_EPOCH => Response::JobEpoch {
                job: r.u64()?,
                epoch: r.u32()?,
                n: r.u64()?,
                scheduled: r.u64()?,
                completed: r.u64()?,
                done: r.u8()? != 0,
                kind: SchedKind::from_byte(r.u8()?)
                    .ok_or(DecodeError::Malformed("unknown technique"))?,
                decisions: read_decisions(&mut r)?,
            },
            other => return Err(DecodeError::Tag(other)),
        };
        r.done()?;
        Ok(resp)
    }
}

/// Prepend the length prefix to a payload, producing the full frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls::Kind;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_resp(resp: Response) {
        let mut framed = vec![0xAA]; // a reply already queued ahead of it
        resp.frame_into(&mut framed);
        assert_eq!(framed[1..], frame(&resp.encode()), "framing in place is encode + frame");
        assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    fn decision(seq: u32) -> Decision {
        Decision {
            seq,
            step: 10 + u64::from(seq),
            scheduled: 100 * u64::from(seq),
            from: SchedKind::Fixed(Kind::SS),
            to: SchedKind::Af,
            reason: SwitchReason::Imbalance,
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::CreateJob { n: 1 << 40, kind: Kind::GSS.into(), weights: vec![] });
        roundtrip_req(Request::CreateJob { n: 7, kind: Kind::WF.into(), weights: vec![0.5, 1.5] });
        roundtrip_req(Request::CreateJob { n: 9, kind: SchedKind::Auto, weights: vec![] });
        roundtrip_req(Request::FetchChunk { job: 3, worker: 9, batch: 64 });
        roundtrip_req(Request::ReportDone { job: 3, leases: vec![0, 1, 99], epoch: 7 });
        roundtrip_req(Request::Heartbeat { worker: 2 });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::ResumeJob { job: 11 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::JobCreated { job: 17 });
        roundtrip_resp(Response::Chunks {
            chunks: vec![
                GrantedChunk { lease: 0, lo: 0, hi: 128 },
                GrantedChunk { lease: 1, lo: 128, hi: 130 },
            ],
            epoch: 3,
        });
        roundtrip_resp(Response::Chunks { chunks: vec![], epoch: 0 });
        roundtrip_resp(Response::Ack);
        roundtrip_resp(Response::Error { code: ErrorCode::UnknownJob, detail: "job 9".into() });
        roundtrip_resp(Response::Error { code: ErrorCode::StaleEpoch, detail: "epoch 1".into() });
        roundtrip_resp(Response::Error { code: ErrorCode::NoJournal, detail: String::new() });
        roundtrip_resp(Response::JobEpoch {
            job: 4,
            epoch: 2,
            n: 4096,
            scheduled: 100,
            completed: 96,
            done: false,
            kind: SchedKind::Fixed(Kind::GSS),
            decisions: vec![decision(0), decision(1)],
        });
        let snap = StatsSnapshot {
            uptime_ns: 123,
            shutting_down: true,
            totals: ServiceTotals { fetches: 5, chunks_granted: 9, ..Default::default() },
            journal: JournalTotals {
                enabled: true,
                epoch: 2,
                journal_records: 40,
                journal_bytes: 2048,
                fsyncs: 7,
                snapshots: 1,
                segments: 2,
            },
            jobs: vec![JobSnapshot {
                job: 1,
                n: 100,
                done: true,
                kind: Some(SchedKind::Af),
                mode: Some(SchedKind::Auto),
                decisions: vec![decision(0)],
                ..Default::default()
            }],
            conns: vec![ConnSnapshot { conn: 0, worker: 3, open: true, ..Default::default() }],
        };
        roundtrip_resp(Response::Snapshot(snap));
    }

    /// The server's reply path writes `Chunks` straight from its grant
    /// rows; the bytes are the ones the `Response` would have produced,
    /// and the row bound is exactly where the frame stops fitting.
    #[test]
    fn chunks_framed_from_rows_are_the_response_bytes_up_to_the_frame_bound() {
        let fit = max_chunks_per_frame(MAX_FRAME) as u64;
        assert_eq!(fit, 10_922);
        for rows in [0, 1, 64, fit, fit + 1] {
            let chunks: Vec<GrantedChunk> =
                (0..rows).map(|i| GrantedChunk { lease: i, lo: 7 * i, hi: 7 * i + 7 }).collect();
            let mut direct = Vec::new();
            framed(&mut direct, |b| {
                write_chunks(b, 3, chunks.iter().map(|c| [c.lease, c.lo, c.hi]))
            });
            assert_eq!(direct, frame(&Response::Chunks { chunks, epoch: 3 }.encode()));
            assert_eq!(direct.len() - 4 <= MAX_FRAME as usize, rows <= fit, "{rows} rows");
        }
        assert_eq!(max_chunks_per_frame(u32::MAX), u32::from(u16::MAX), "the count is a u16");
        assert_eq!(max_chunks_per_frame(7), 0);
    }

    #[test]
    fn snapshot_over_u16_max_rows_keeps_the_newest() {
        let row = |conn| ConnSnapshot { conn, ..Default::default() };
        let snap = StatsSnapshot { conns: (0..70_000).map(row).collect(), ..Default::default() };
        let Ok(Response::Snapshot(back)) = Response::decode(&Response::Snapshot(snap).encode())
        else {
            panic!("the count written must match the rows written");
        };
        assert_eq!(back.conns.len(), usize::from(u16::MAX));
        assert_eq!(back.conns.first(), Some(&row(70_000 - u64::from(u16::MAX))));
        assert_eq!(back.conns.last(), Some(&row(69_999)));
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in SchedKind::CONCRETE.into_iter().chain([SchedKind::Auto]) {
            roundtrip_req(Request::CreateJob { n: 10, kind, weights: vec![] });
        }
    }

    #[test]
    fn unknown_kind_byte_is_typed() {
        // Byte 16 is the first unassigned technique byte; 249 probes
        // deep into the unassigned range without colliding with the
        // Option sentinel (255).
        for bad in [16u8, 42, 249] {
            let mut p =
                Request::CreateJob { n: 10, kind: SchedKind::Auto, weights: vec![] }.encode();
            p[10] = bad; // version + tag + n(u64) = offset 10 is the kind byte
            assert_eq!(
                Request::decode(&p),
                Err(DecodeError::Malformed("unknown technique")),
                "kind byte {bad} must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_decision_bytes_are_typed() {
        let resp = Response::JobEpoch {
            job: 1,
            epoch: 1,
            n: 64,
            scheduled: 8,
            completed: 0,
            done: false,
            kind: SchedKind::Af,
            decisions: vec![decision(0)],
        };
        let good = resp.encode();
        // The decision's three trailing bytes: from, to, reason.
        for back in 1..=3 {
            let mut p = good.clone();
            let idx = p.len() - back;
            p[idx] = 200;
            assert!(
                matches!(Response::decode(&p), Err(DecodeError::Malformed(_))),
                "corrupting decision byte -{back} must be typed"
            );
        }
        // Truncating mid-decision is typed, not a panic.
        let mut p = good;
        p.truncate(p.len() - 5);
        assert!(matches!(Response::decode(&p), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut p = Request::Stats.encode();
        p[0] = 9;
        assert_eq!(Request::decode(&p), Err(DecodeError::Version(9)));
    }

    #[test]
    fn unknown_tag_is_typed() {
        let p = vec![VERSION, 77];
        assert_eq!(Request::decode(&p), Err(DecodeError::Tag(77)));
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut p = Request::FetchChunk { job: 1, worker: 2, batch: 3 }.encode();
        p.truncate(p.len() - 2);
        assert!(matches!(Request::decode(&p), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut p = Request::Stats.encode();
        p.push(0);
        assert_eq!(Request::decode(&p), Err(DecodeError::Malformed("trailing bytes")));
    }

    #[test]
    fn frame_prepends_length() {
        let f = frame(&[1, 2, 3]);
        assert_eq!(f, vec![3, 0, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn snapshot_json_is_wellformed_enough() {
        let s = StatsSnapshot::default().to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"totals\""));
        assert!(s.contains("\"jobs\":[]"));
        assert!(s.contains("\"journal\":{\"enabled\":false"));
        assert!(s.contains("\"journal_records\":0"));
        assert!(s.contains("\"fsyncs\":0"));
        assert!(s.contains("\"snapshots\":0"));
    }
}

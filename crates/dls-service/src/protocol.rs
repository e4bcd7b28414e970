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
//! be in `1..=MAX_FRAME`; a zero or oversized length is a framing
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

use crate::{json, json_fields};
use dls::switchable::{Decision, SchedKind};
use durability::codec::{self, Malformed, Reader, Writer};

/// Protocol version carried in every frame. Bump on any wire change.
pub const VERSION: u8 = 3;

/// Default upper bound on one frame's payload. Large enough for a
/// `Stats` snapshot of hundreds of jobs, small enough that a malicious
/// length prefix cannot make the server allocate unbounded memory.
pub const MAX_FRAME: u32 = 256 * 1024;

/// Most weights a `CreateJob` and most leases a `ReportDone` carry: 8
/// bytes an item behind `ReportDone`'s 16-byte header, within a default
/// [`MAX_FRAME`], so a server with the default frame bound reads them.
/// [`crate::Client`] refuses more.
pub const MAX_ITEMS: usize = (MAX_FRAME as usize - 16) / 8;
const _: () = assert!(MAX_ITEMS <= u16::MAX as usize, "a request counts its items in a u16");

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
    /// Frame length prefix of 0 or above [`MAX_FRAME`].
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

impl From<Malformed> for DecodeError {
    fn from(m: Malformed) -> Self {
        DecodeError::Malformed(m.0)
    }
}

// ---------------------------------------------------------------------------
// Wire forms.
//
// Every field goes through `durability::codec`, the byte codec the
// journal and the snapshot image use too: the technique byte is
// [`SchedKind::to_byte`] (pure kinds 0–9 exactly as in protocol v2,
// adaptive 10–14, AUTO 15) and a [`Decision`] is the codec's 23-byte
// form.

/// A value with one wire form: a STATS field or row, or a tuner
/// decision list.
trait Wire: Sized {
    fn put(&self, w: &mut Writer<'_>);
    fn get(r: &mut Reader<'_>) -> codec::Result<Self>;
}

macro_rules! wire_as_codec {
    ($($ty:ty => $method:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer<'_>) {
                w.$method(*self);
            }
            fn get(r: &mut Reader<'_>) -> codec::Result<Self> {
                r.$method()
            }
        }
    )+};
}
wire_as_codec!(u32 => u32, u64 => u64, bool => bool, Decision => decision);

/// `u8::MAX` is the wire sentinel for an absent kind (defaulted
/// snapshot rows); everything else must name a real [`SchedKind`].
impl Wire for Option<SchedKind> {
    fn put(&self, w: &mut Writer<'_>) {
        w.u8(self.map_or(u8::MAX, SchedKind::to_byte));
    }
    fn get(r: &mut Reader<'_>) -> codec::Result<Self> {
        match r.rest().first() {
            Some(&u8::MAX) => r.u8().map(|_| None),
            _ => r.kind().map(Some),
        }
    }
}

/// The rows a `u16` count can announce: the last `u16::MAX` of `rows`.
/// `State::snapshot` sorts jobs and connections by id, so a `Stats`
/// reply over more rows than that carries the most recent ones.
fn newest<T>(rows: &[T]) -> &[T] {
    &rows[rows.len().saturating_sub(usize::from(u16::MAX))..]
}

/// A list: a `u16` count, then the [`newest`] rows.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer<'_>) {
        let rows = newest(self);
        w.u16(rows.len() as u16);
        rows.iter().for_each(|row| row.put(w));
    }
    fn get(r: &mut Reader<'_>) -> codec::Result<Self> {
        let count = r.u16()?;
        r.items(count.into(), 1, T::get)
    }
}

/// A STATS struct's wire layout: its fields in wire order, the one list
/// both the encoder and the decoder walk. The decoder builds the struct
/// from it, so a field missing from the list does not compile. `+ json`
/// also writes the struct's JSON members from it, for the structs whose
/// JSON keys come in wire order.
macro_rules! layout {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer<'_>) {
                $(self.$field.put(w);)+
            }
            fn get(r: &mut Reader<'_>) -> codec::Result<Self> {
                Ok($ty { $($field: Wire::get(r)?),+ })
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? } + json) => {
        layout!($ty { $($field),+ });
        impl $ty {
            /// The fields as the members of a JSON object, in wire order.
            pub fn json_fields(&self, o: &mut json::Object<'_>) {
                json_fields!(o, self; $($field),+);
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Stats snapshot.

/// Server-wide counters at one instant, each derived from the job and
/// connection rows.
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
    /// Bytes of the frames received from all clients.
    pub bytes_in: u64,
    /// Bytes of the replies queued for all clients.
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
    /// Bytes of the frames received from this client.
    pub bytes_in: u64,
    /// Bytes of the replies queued for this client.
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

layout! { StatsSnapshot { uptime_ns, shutting_down, totals, journal, jobs, conns } }
layout! { ServiceTotals {
    fetches, chunks_granted, reclaims, empty_polls, jobs_created, jobs_active, conns_active,
    conns_total, bytes_in, bytes_out,
} + json }
layout! { JournalTotals {
    enabled, epoch, journal_records, journal_bytes, fsyncs, snapshots, segments,
} + json }
// `done` follows `completed` in the JSON, so the JSON list is its own.
layout! { JobSnapshot {
    job, n, step, scheduled, completed, fetches, chunks_granted, reclaims, empty_polls,
    leases_granted, leases_completed, leases_reclaimed, done, kind, mode, decisions,
} }
layout! { ConnSnapshot {
    conn, worker, bytes_in, bytes_out, requests, fetches, chunks, iterations, open,
} + json }

impl StatsSnapshot {
    /// Compact JSON rendering (the artefact `dls-serverd` prints on
    /// graceful exit).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            json_fields!(o, self; uptime_ns, shutting_down);
            o.object("totals", |o| self.totals.json_fields(o));
            o.object("journal", |o| self.journal.json_fields(o));
            o.rows("jobs", &self.jobs, |o, j| {
                json_fields!(o, j; job, n, step, scheduled, completed, done, fetches,
                    chunks_granted, reclaims, empty_polls, leases_granted, leases_completed,
                    leases_reclaimed);
                o.field("kind", j.kind.map_or("?", |k| k.name()));
                o.field("mode", j.mode.map_or("?", |k| k.name()));
                o.field("switches", j.decisions.len());
                o.rows("decisions", &j.decisions, decision_fields);
            });
            o.rows("conns", &self.conns, |o, c| c.json_fields(o));
        })
    }
}

/// One tuner [`Decision`] as the members of a JSON object: the rows of
/// STATS' and `hdls::export::ActivityReport`'s `decisions`.
pub fn decision_fields(o: &mut json::Object<'_>, d: &Decision) {
    json_fields!(o, d; seq, step, scheduled);
    o.field("from", d.from.name()).field("to", d.to.name()).field("reason", d.reason.name());
}

// ---------------------------------------------------------------------------
// Encoding.

/// Start a payload on the end of `buf` — a fresh `Vec` for `encode()`,
/// a connection's write buffer for the server's replies: the version
/// byte, then `tag`.
fn payload(buf: &mut Vec<u8>, tag: u8) -> Writer<'_> {
    buf.reserve(32);
    let mut w = Writer::new(buf);
    w.u8(VERSION).u8(tag);
    w
}

/// A payload's cursor past its version byte, and its tag.
fn open(payload: &[u8]) -> Result<(Reader<'_>, u8), DecodeError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::Version(version));
    }
    let tag = r.u8()?;
    Ok((r, tag))
}

impl Request {
    /// Serialise to one frame payload (version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::CreateJob { n, kind, weights } => {
                let w = &mut payload(&mut buf, T_CREATE_JOB);
                w.u64(*n).kind(*kind).u16(count(weights.len()));
                for &wt in weights {
                    w.f64(wt);
                }
            }
            Request::FetchChunk { job, worker, batch } => {
                payload(&mut buf, T_FETCH_CHUNK).u64(*job).u32(*worker).u32(*batch);
            }
            Request::ReportDone { job, leases, epoch } => {
                buf.reserve(16 + 8 * leases.len());
                let w = &mut payload(&mut buf, T_REPORT_DONE);
                w.u64(*job).u32(*epoch).u16(count(leases.len()));
                for &l in leases {
                    w.u64(l);
                }
            }
            Request::Heartbeat { worker } => {
                payload(&mut buf, T_HEARTBEAT).u32(*worker);
            }
            Request::Stats => {
                payload(&mut buf, T_STATS);
            }
            Request::Shutdown => {
                payload(&mut buf, T_SHUTDOWN);
            }
            Request::ResumeJob { job } => {
                payload(&mut buf, T_RESUME_JOB).u64(*job);
            }
        }
        buf
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let (mut r, tag) = open(payload)?;
        let req = match tag {
            // The count-prefixed bodies are read out of line, by a
            // cursor of their own, so this one stays in registers for
            // the hot `FetchChunk`.
            T_CREATE_JOB => return decode_create_job(r.rest()),
            T_FETCH_CHUNK => {
                Request::FetchChunk { job: r.u64()?, worker: r.u32()?, batch: r.u32()? }
            }
            T_REPORT_DONE => return decode_report_done(r.rest()),
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

/// A request's item count as its `u16`.
fn count(len: usize) -> u16 {
    u16::try_from(len).expect("a request counts at most u16::MAX items")
}

#[cold]
#[inline(never)]
fn decode_create_job(body: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(body);
    let (n, kind, count) = (r.u64()?, r.kind()?, r.u16()?);
    let weights = r.items(count.into(), 8, Reader::f64)?;
    r.done()?;
    Ok(Request::CreateJob { n, kind, weights })
}

#[cold]
#[inline(never)]
fn decode_report_done(body: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(body);
    let (job, epoch, count) = (r.u64()?, r.u32()?, r.u16()?);
    let leases = r.items(count.into(), 8, Reader::u64)?;
    r.done()?;
    Ok(Request::ReportDone { job, leases, epoch })
}

/// Encoded size of one `Chunks` row: lease, lo, hi.
const CHUNK_ROW: usize = 24;
/// Encoded size of a `Chunks` payload ahead of its rows: version, tag,
/// epoch, row count.
const CHUNKS_HEADER: usize = 2 + 4 + 2;

/// The most rows one `Chunks` frame can carry under [`MAX_FRAME`]. A
/// server must not grant more leases per fetch than it can name in the
/// reply.
pub(crate) const MAX_CHUNKS_PER_FRAME: u32 =
    ((MAX_FRAME as usize - CHUNKS_HEADER) / CHUNK_ROW) as u32;
const _: () = assert!(MAX_CHUNKS_PER_FRAME <= u16::MAX as u32, "a reply counts its rows in a u16");

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
    let w = &mut payload(buf, T_CHUNKS);
    w.u32(epoch).u16(rows.len() as u16);
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
            Response::JobCreated { job } => {
                payload(buf, T_JOB_CREATED).u64(*job);
            }
            Response::Chunks { chunks, epoch } => {
                write_chunks(buf, *epoch, chunks.iter().map(|c| [c.lease, c.lo, c.hi]));
            }
            Response::Ack => {
                payload(buf, T_ACK);
            }
            Response::Snapshot(s) => s.put(&mut payload(buf, T_SNAPSHOT)),
            Response::Error { code, detail } => {
                let detail = &detail.as_bytes()[..detail.len().min(usize::from(u16::MAX))];
                payload(buf, T_ERROR).u8(*code as u8).u16(detail.len() as u16).bytes(detail);
            }
            Response::JobEpoch { job, epoch, n, scheduled, completed, done, kind, decisions } => {
                let w = &mut payload(buf, T_JOB_EPOCH);
                w.u64(*job).u32(*epoch).u64(*n).u64(*scheduled).u64(*completed);
                w.bool(*done).kind(*kind);
                decisions.put(w);
            }
        }
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let (mut r, tag) = open(payload)?;
        let resp = match tag {
            T_JOB_CREATED => Response::JobCreated { job: r.u64()? },
            T_CHUNKS => {
                let (epoch, count) = (r.u32()?, r.u16()?);
                let chunks = r.items(count.into(), CHUNK_ROW, |r| {
                    Ok(GrantedChunk { lease: r.u64()?, lo: r.u64()?, hi: r.u64()? })
                })?;
                Response::Chunks { chunks, epoch }
            }
            T_ACK => Response::Ack,
            T_SNAPSHOT => Response::Snapshot(Wire::get(&mut r)?),
            T_ERROR => {
                let code =
                    ErrorCode::from_u8(r.u8()?).ok_or(DecodeError::Malformed("error code"))?;
                let len = r.u16()?;
                let detail = String::from_utf8_lossy(r.take(len.into())?).into_owned();
                Response::Error { code, detail }
            }
            T_JOB_EPOCH => Response::JobEpoch {
                job: r.u64()?,
                epoch: r.u32()?,
                n: r.u64()?,
                scheduled: r.u64()?,
                completed: r.u64()?,
                done: r.bool()?,
                kind: r.kind()?,
                decisions: Wire::get(&mut r)?,
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
    use dls::switchable::SwitchReason;
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
        let fit = u64::from(MAX_CHUNKS_PER_FRAME);
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

    #[test]
    fn populated_snapshot_json_writes_every_key_once() {
        let snap = StatsSnapshot {
            uptime_ns: 1_001,
            shutting_down: true,
            totals: ServiceTotals {
                fetches: 1_002,
                chunks_granted: 1_003,
                reclaims: 1_004,
                empty_polls: 1_005,
                jobs_created: 1_006,
                jobs_active: 1_007,
                conns_active: 1_008,
                conns_total: 1_009,
                bytes_in: 1_010,
                bytes_out: 1_011,
            },
            journal: JournalTotals {
                enabled: true,
                epoch: 1_012,
                journal_records: 1_013,
                journal_bytes: 1_014,
                fsyncs: 1_015,
                snapshots: 1_016,
                segments: 1_017,
            },
            jobs: vec![JobSnapshot {
                job: 1_018,
                n: 1_019,
                step: 1_020,
                scheduled: 1_021,
                completed: 1_022,
                done: false,
                fetches: 1_023,
                chunks_granted: 1_024,
                reclaims: 1_025,
                empty_polls: 1_026,
                leases_granted: 1_027,
                leases_completed: 1_028,
                leases_reclaimed: 1_029,
                kind: Some(SchedKind::Af),
                mode: Some(SchedKind::Auto),
                decisions: vec![decision(0), decision(1)],
            }],
            conns: vec![
                ConnSnapshot {
                    conn: 1_030,
                    worker: 1_031,
                    bytes_in: 1_032,
                    bytes_out: 1_033,
                    requests: 1_034,
                    fetches: 1_035,
                    chunks: 1_036,
                    iterations: 1_037,
                    open: true,
                },
                ConnSnapshot { conn: 1_038, worker: u32::MAX, open: false, ..Default::default() },
            ],
        };
        let json = snap.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"uptime_ns":1001,"shutting_down":true,"#,
                r#""totals":{"fetches":1002,"chunks_granted":1003,"reclaims":1004,"#,
                r#""empty_polls":1005,"jobs_created":1006,"jobs_active":1007,"conns_active":1008,"#,
                r#""conns_total":1009,"bytes_in":1010,"bytes_out":1011},"#,
                r#""journal":{"enabled":true,"epoch":1012,"journal_records":1013,"#,
                r#""journal_bytes":1014,"fsyncs":1015,"snapshots":1016,"segments":1017},"#,
                r#""jobs":[{"job":1018,"n":1019,"step":1020,"scheduled":1021,"completed":1022,"#,
                r#""done":false,"fetches":1023,"chunks_granted":1024,"reclaims":1025,"#,
                r#""empty_polls":1026,"leases_granted":1027,"leases_completed":1028,"#,
                r#""leases_reclaimed":1029,"kind":"AF","mode":"AUTO","switches":2,"decisions":["#,
                r#"{"seq":0,"step":10,"scheduled":0,"from":"SS","to":"AF","reason":"imbalance"},"#,
                r#"{"seq":1,"step":11,"scheduled":100,"from":"SS","to":"AF","reason":"imbalance"}]}],"#,
                r#""conns":[{"conn":1030,"worker":1031,"bytes_in":1032,"bytes_out":1033,"#,
                r#""requests":1034,"fetches":1035,"chunks":1036,"iterations":1037,"open":true},"#,
                r#"{"conn":1038,"worker":4294967295,"bytes_in":0,"bytes_out":0,"requests":0,"#,
                r#""fetches":0,"chunks":0,"iterations":0,"open":false}]}"#,
            )
        );
        // Every key once with its value: the distinct counters show up once each.
        for v in 1_001..=1_038 {
            assert_eq!(
                json.matches(&format!(":{v},")).count() + json.matches(&format!(":{v}}}")).count(),
                1
            );
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

//! The chunk-scheduling server: a sharded, multi-tenant job table
//! behind a sharded event loop.
//!
//! Each job's scheduling state is exactly the paper's global work
//! queue — the two counters `(step, scheduled)` — driven by the `dls`
//! chunk calculators. Three service-grade layers wrap it:
//!
//! * **Leases** ([`resilience::LeaseTable`]): every granted chunk is a
//!   revocable lease. A client that disconnects (crash, kill, network
//!   partition) has its unsettled leases reclaimed *exactly once*; the
//!   ranges re-enter the job through a reclaim pool served ahead of
//!   fresh counter advances, so the job still completes every
//!   iteration exactly once.
//! * **Batching**: one `FetchChunk` round trip can grant up to
//!   `max_batch` chunks and one `ReportDone` can settle as many — the
//!   network analogue of chunk granularity (amortise one RTT over k
//!   chunks).
//! * **Backpressure**: hard limits on concurrent connections, frame
//!   size, batch size, job count, and unsettled leases per worker.
//!   Every limit answers with a typed error frame instead of silence.
//!
//! Connections are served by [`crate::event_loop`]: a fixed set of
//! readiness-loop shards multiplexing every socket over `epoll` — no
//! thread per connection, admission decided by a single compare-and-
//! swap, and each shard answering a whole readiness cycle's requests —
//! reports and fetches alike, through [`State::handle`] — under one
//! held job-table lock for as long as they name jobs of one shard,
//! each reply framed in place in its connection's write buffer. What
//! a lease costs on that path is its ledger row: the two reverse
//! indices beside it (connection -> leases, worker -> quota count) are
//! kept once per request, not once per lease.
//!
//! Shutdown (a `Shutdown` frame or [`Server::shutdown`], which the
//! `dls-serverd` binary also wires to SIGTERM) drains in-flight
//! requests: loop shards finish answering what is buffered, close
//! connections as they go quiet, answer late fetches with
//! [`ErrorCode::ShuttingDown`], and exit; the final [`StatsSnapshot`]
//! preserves every job's progress counters.

use crate::event_loop::LoopShard;
use crate::protocol::{
    framed, max_chunks_per_frame, write_chunks, ConnSnapshot, ErrorCode, JobSnapshot,
    JournalTotals, Request, Response, ServiceTotals, StatsSnapshot,
};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use autotune::{ChunkSample, Tuner};
use dls::switchable::{Decision, SchedKind};
use durability::{
    GrantEntry, ImageWriter, JobCore, Journal, JournalOptions, JournalRecord, RecoveredState,
};
use resilience::LeaseId;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tunable limits and backpressure knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Concurrent connections; further accepts answer
    /// [`ErrorCode::Busy`] and close.
    pub max_connections: u32,
    /// Largest `FetchChunk.batch` honoured — bounded besides by what
    /// one `Chunks` frame can carry under `max_frame`.
    pub max_batch: u32,
    /// Largest unsettled-lease count per `(job, worker)` — a worker
    /// must report before it can hoard more chunks.
    pub worker_quota: u32,
    /// Unfinished jobs the table will hold at once.
    pub max_jobs: u32,
    /// Largest accepted frame payload.
    pub max_frame: u32,
    /// Job-table shards (reduces cross-job lock contention).
    pub shards: u32,
    /// Event-loop shards: threads multiplexing the connections. Each
    /// owns a share of the accept socket.
    pub event_loops: u32,
    /// Readiness-poll tick; bounds drain latency and how often batched
    /// counters are committed.
    pub poll_interval: Duration,
    /// Override the AUTO tuner's assumed per-fetch overhead `h` in
    /// nanoseconds (`None` uses the `autotune` default). Raising it
    /// biases the tuner toward coarser techniques — and pins its
    /// decisions for tests that must not depend on live round-trip
    /// latency.
    pub tuner_overhead_ns: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_connections: 128,
            max_batch: 64,
            worker_quota: 256,
            max_jobs: 1024,
            max_frame: crate::protocol::MAX_FRAME,
            shards: 8,
            event_loops: 2,
            poll_interval: Duration::from_millis(20),
            tuner_overhead_ns: None,
        }
    }
}

/// One job as a live server holds it: the shared kernel — counters,
/// ledger, reclaim pool, technique switches; every exactly-once
/// transition is a [`JobCore`] call — plus what only a server with
/// sockets has.
pub(crate) struct Job {
    core: JobCore,
    /// Online technique selector; `Some` iff the job's mode is `AUTO`.
    tuner: Option<Tuner>,
    /// Connection -> the unsettled leases granted over it, in grant
    /// order — the one record of which socket holds what (the ledger's
    /// `owner` names a worker, and a worker may reconnect). A deque:
    /// clients settle in grant order, so the common unlisting is a
    /// `pop_front`.
    conn_leases: HashMap<u64, VecDeque<LeaseId>>,
    /// Unsettled leases per worker (quota enforcement).
    outstanding: HashMap<u32, u32>,
    // Counters.
    fetches: u64,
    chunks_granted: u64,
    reclaims: u64,
    empty_polls: u64,
}

impl Job {
    /// Wrap a kernel: fresh from `CreateJob`, or replayed and re-armed
    /// — then the connection indices rightly start empty (every
    /// pre-crash client is gone) and the tuner continues the journaled
    /// decision sequence.
    fn new(core: JobCore, tuner_overhead_ns: Option<u64>) -> Job {
        let p = core.spec().n_workers;
        let tuner = (core.mode == SchedKind::Auto).then(|| {
            let mut cfg = autotune::TunerConfig::new(p);
            if let Some(h) = tuner_overhead_ns {
                cfg.overhead_ns = h;
            }
            let mut tuner = Tuner::new(p, cfg);
            tuner.resume_at(core.decisions.len() as u32);
            tuner
        });
        Job {
            core,
            tuner,
            conn_leases: HashMap::new(),
            outstanding: HashMap::new(),
            fetches: 0,
            chunks_granted: 0,
            reclaims: 0,
            empty_polls: 0,
        }
    }

    /// Serve up to `batch` chunks and index them under `conn`.
    fn fetch(&mut self, worker: u32, batch: u32, conn: u64, now_ns: u64) -> Vec<GrantEntry> {
        let grants = self.core.fetch(worker, batch, now_ns);
        self.fetches += 1;
        if grants.is_empty() {
            self.empty_polls += 1;
            return grants;
        }
        self.conn_leases.entry(conn).or_default().extend(grants.iter().map(|g| g.lease));
        *self.outstanding.entry(worker).or_insert(0) += grants.len() as u32;
        self.chunks_granted += grants.len() as u64;
        grants
    }

    /// Settle `leases`, reported over `conn`, in order, stopping at the
    /// first stale one. Returns how many settled and the iterations
    /// they credited; the tuner's decisions on the way go to `switched`.
    /// The ledger and the tuner move per lease, the two reverse indices
    /// per request: one lookup of `conn`'s list, one quota update per
    /// run of same-owner leases.
    fn report(
        &mut self,
        leases: &[LeaseId],
        conn: u64,
        now_ns: u64,
        switched: &mut Vec<Decision>,
    ) -> (usize, u64) {
        let Job { core, tuner, conn_leases, outstanding, .. } = self;
        let mut own = conn_leases.get_mut(&conn);
        let mut out_of_order = Vec::new();
        let (mut settled, mut credited) = (0, 0);
        let mut run = (0, 0);
        for &lease in leases {
            let Ok(s) = core.settle(lease, now_ns) else { break };
            settled += 1;
            credited += s.len;
            // Grant-to-settle latency is the monitor's whole signal: the
            // kernel fed it to the adaptive scheduler's rate estimate, the
            // tuner's streaming statistics take it here. Batch boundaries
            // are counted in settles, so the tuner re-evaluates per lease;
            // a decision re-bases the live scheduler (the two global
            // counters carry over — exactly-once is untouched).
            if let Some(t) = tuner.as_mut() {
                t.observe(ChunkSample { worker: s.worker, len: s.len, latency_ns: s.latency_ns });
                let tick = (!core.done).then(|| t.on_settle(core.active(), core.counters()));
                if let Some(decision) = tick.flatten() {
                    core.switch(decision);
                    switched.push(decision);
                }
            }
            if s.worker != run.0 {
                release(outstanding, run);
                run = (s.worker, 0);
            }
            run.1 += 1;
            // Clients settle in grant order, so the lease heads the list
            // of the connection it was granted over.
            match own.as_deref_mut() {
                Some(list) if list.front() == Some(&lease) => drop(list.pop_front()),
                _ => out_of_order.push(lease),
            }
        }
        release(outstanding, run);
        // Settled out of grant order, or over another connection than
        // the granting one (the protocol allows both): only these pay a
        // search, and only the latter a search of the other lists.
        for lease in out_of_order {
            if !conn_leases.get_mut(&conn).is_some_and(|list| unlist(list, lease)) {
                conn_leases.values_mut().any(|list| unlist(list, lease));
            }
        }
        (settled, credited)
    }

    /// Reclaim every unsettled lease held by `conn` (it disconnected).
    /// Returns the reclaimed lease ids (in grant order) so the caller
    /// can journal them.
    fn reclaim_conn(&mut self, conn: u64) -> Vec<LeaseId> {
        let Some(list) = self.conn_leases.remove(&conn) else { return Vec::new() };
        let mut reclaimed = Vec::new();
        for lease in list {
            // Only unsettled leases remain in the reverse index, so the
            // ledger transition must succeed; a failure here would mean
            // a double settlement and is a server bug worth surfacing.
            match self.core.reclaim(lease) {
                Ok(l) => {
                    release(&mut self.outstanding, (l.owner, 1));
                    reclaimed.push(lease);
                }
                Err(e) => debug_assert!(false, "disconnect reclaim hit settled lease: {e}"),
            }
        }
        self.reclaims += reclaimed.len() as u64;
        reclaimed
    }

    fn snapshot(&self, job: u64) -> JobSnapshot {
        let (granted, completed, reclaimed) = self.core.leases.counts();
        JobSnapshot {
            job,
            n: self.core.n,
            step: self.core.step,
            scheduled: self.core.scheduled,
            completed: self.core.completed,
            done: self.core.done,
            fetches: self.fetches,
            chunks_granted: self.chunks_granted,
            reclaims: self.reclaims,
            empty_polls: self.empty_polls,
            leases_granted: granted,
            leases_completed: completed,
            leases_reclaimed: reclaimed,
            kind: Some(self.core.active()),
            mode: Some(self.core.mode),
            decisions: self.core.decisions.clone(),
        }
    }
}

/// Drop `k` no-longer-active leases from `worker`'s quota count.
fn release(outstanding: &mut HashMap<u32, u32>, (worker, k): (u32, u32)) {
    if k > 0 {
        if let Some(o) = outstanding.get_mut(&worker) {
            *o = o.saturating_sub(k);
        }
    }
}

/// Remove `lease` from `list` wherever it sits.
fn unlist(list: &mut VecDeque<LeaseId>, lease: LeaseId) -> bool {
    list.iter().position(|&l| l == lease).map(|at| list.remove(at)).is_some()
}

/// What the server keeps beside one connection.
pub(crate) struct Peer {
    pub(crate) id: u64,
    pub(crate) stat: ConnSnapshot,
    /// Jobs this connection was granted leases from: where a disconnect
    /// has anything to reclaim.
    jobs: Vec<u64>,
}

impl Peer {
    pub(crate) fn new(id: u64) -> Peer {
        let stat = ConnSnapshot { conn: id, worker: u32::MAX, open: true, ..Default::default() };
        Peer { id, stat, jobs: Vec::new() }
    }
}

/// The job-table shard lock a serve pass holds from one request to the
/// next: consecutive requests against jobs of one shard — a worker's
/// `ReportDone` + `FetchChunk` pair, a burst of fetches — lock once.
pub(crate) type Held<'a> = Option<(usize, MutexGuard<'a, HashMap<u64, Job>>)>;

/// Additions to the server-wide counters, gathered over one serve pass
/// and applied with one atomic add per counter ([`State::commit`]).
#[derive(Default)]
pub(crate) struct CycleTally {
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    fetches: u64,
    chunks_granted: u64,
    empty_polls: u64,
}

/// Shared server state.
pub(crate) struct State {
    pub(crate) cfg: ServiceConfig,
    epoch: Instant,
    shards: Vec<Mutex<HashMap<u64, Job>>>,
    /// Jobs ever created — the next job id. Monotone.
    next_job: AtomicU64,
    /// Jobs not yet done: what `max_jobs` admits against.
    jobs_live: AtomicU64,
    pub(crate) next_conn: AtomicU64,
    // Ordering discipline for the counters below: every writer uses an
    // RMW (`fetch_add`/`fetch_sub`/`fetch_max`/`fetch_update`), and an
    // RMW always reads the *latest* value in the atomic's modification
    // order regardless of its `Ordering` — so `Relaxed` updates never
    // lose a count (verified exhaustively by the `conc-check`
    // admission model). `Relaxed` is about visibility to *other*
    // memory, which none of these counters guard. The two sites with a
    // hard cross-thread invariant — the `conns_active` admission CAS
    // and the `jobs_live` cap CAS — use `SeqCst` anyway so the cap
    // check is also ordered against the `shutdown` flag.
    pub(crate) conns_active: AtomicU64,
    pub(crate) conns_total: AtomicU64,
    /// High-water mark of concurrently admitted connections — observes
    /// that CAS admission never overshoots `max_connections`.
    pub(crate) conns_peak: AtomicU64,
    fetches: AtomicU64,
    chunks_granted: AtomicU64,
    reclaims: AtomicU64,
    empty_polls: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    shutdown_cv: (Mutex<bool>, Condvar),
    pub(crate) conn_stats: Mutex<HashMap<u64, ConnSnapshot>>,
    /// Write-ahead journal (None = volatile server). Lock ordering:
    /// the journal lock is only ever taken *after* a job-table shard
    /// lock, or with no shard lock held — never the other way around.
    /// `Journal::append` does no I/O, so the under-shard-lock appends
    /// on the grant/settle paths cost a buffered encode, nothing more.
    journal: Option<Mutex<Journal>>,
    /// Epoch fencing every lease this incarnation grants (0 = no
    /// journal; monotone across restarts otherwise).
    journal_epoch: u32,
    /// Take a snapshot once this many records accumulate since the
    /// last one (0 = never snapshot).
    snapshot_every: u64,
    /// `JournalStats::records` at the last snapshot.
    last_snap_records: AtomicU64,
}

impl State {
    fn new(mut cfg: ServiceConfig) -> State {
        let shards = cfg.shards.max(1);
        // A fetch may grant no more leases than one `Chunks` frame can
        // name; beyond that the limit answers `BatchTooLarge`.
        cfg.max_batch = cfg.max_batch.min(max_chunks_per_frame(cfg.max_frame));
        State {
            cfg,
            epoch: Instant::now(),
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            next_job: AtomicU64::new(0),
            jobs_live: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            conns_total: AtomicU64::new(0),
            conns_peak: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            chunks_granted: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_cv: (Mutex::new(false), Condvar::new()),
            conn_stats: Mutex::new(HashMap::new()),
            journal: None,
            journal_epoch: 0,
            snapshot_every: 0,
            last_snap_records: AtomicU64::new(0),
        }
    }

    /// Seed a fresh `State` from a recovered journal image: rebuild
    /// every job (re-armed leases land in the reclaim pools) and adopt
    /// the bumped epoch.
    fn adopt_recovered(&mut self, journal: Journal, rec: RecoveredState, snapshot_every: u64) {
        self.journal_epoch = rec.epoch;
        self.snapshot_every = snapshot_every;
        self.last_snap_records = AtomicU64::new(journal.stats().records);
        self.journal = Some(Mutex::new(journal));
        self.next_job = AtomicU64::new(rec.jobs_created);
        let live = rec.jobs.values().filter(|core| !core.done).count();
        self.jobs_live = AtomicU64::new(live as u64);
        for (id, core) in rec.jobs {
            let shard = self.shard_index(id);
            if let Ok(mut jobs) = self.shards[shard].lock() {
                jobs.insert(id, Job::new(core, self.cfg.tuner_overhead_ns));
            }
        }
    }
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Index of the job-table shard holding `job`.
    fn shard_index(&self, job: u64) -> usize {
        (job % self.shards.len() as u64) as usize
    }

    /// The shard holding `job`, locked: by `held` already, or now — after
    /// releasing whatever `held` had, because holding two shard locks at
    /// once would risk lock-order inversion across loop shards.
    fn jobs_held<'a, 'h>(
        &'a self,
        held: &'h mut Held<'a>,
        job: u64,
    ) -> Result<&'h mut HashMap<u64, Job>, Refusal> {
        let idx = self.shard_index(job);
        if held.as_ref().map(|(i, _)| *i) != Some(idx) {
            drop(held.take());
            *held = self.shards[idx].lock().ok().map(|g| (idx, g));
        }
        held.as_mut()
            .map(|(_, jobs)| &mut **jobs)
            .ok_or_else(|| Refusal(ErrorCode::UnknownJob, "shard poisoned".into()))
    }

    /// Apply one serve pass's counter deltas.
    pub(crate) fn commit(&self, tally: &CycleTally) {
        // Relaxed throughout: stat counters with RMW-only writers —
        // per-counter totals stay exact under any interleaving, and
        // nothing orders against them.
        for (counter, delta) in [
            (&self.bytes_in, tally.bytes_in),
            (&self.bytes_out, tally.bytes_out),
            (&self.fetches, tally.fetches),
            (&self.chunks_granted, tally.chunks_granted),
            (&self.empty_polls, tally.empty_polls),
        ] {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Buffer one journal record (no-op on a volatile server). Called
    /// on the grant/settle/reclaim paths while the affected job's
    /// shard lock is held, which is what orders the records: no I/O
    /// happens here, only an encode into the journal's buffer.
    fn journal_append(&self, rec: &JournalRecord) {
        if let Some(journal) = &self.journal {
            if let Ok(mut j) = journal.lock() {
                j.append(rec);
            }
        }
    }

    /// Group-commit the journal: one buffered write + fsync (per
    /// policy) per event-loop cycle, called by every loop shard after
    /// its serve pass and *before* its flush pass — a `ReportDone` ack
    /// never reaches a socket before its `Settled` record is durable.
    /// Also the snapshot trigger: when enough records have accumulated,
    /// seal the segment, serialize live state, and install.
    ///
    /// Returns `false` when the commit or the snapshot's rotation
    /// failed or the journal lock is poisoned, and from then on for
    /// every loop shard (the failure is sticky in [`Journal::commit`]):
    /// their records shared the failed write, and a later commit of an
    /// empty buffer would report a success it cannot vouch for. A failed
    /// snapshot *install* is not fatal: every segment is still on disk.
    #[must_use = "a failed commit must suppress the cycle's replies"]
    pub(crate) fn journal_commit(&self) -> bool {
        let Some(journal) = &self.journal else { return true };
        let boundary = {
            // A server that cannot persist must stop granting: drain
            // now rather than hand out leases it would forget after a
            // crash.
            let Ok(mut j) = journal.lock() else {
                // Whoever panicked under the lock may have left a
                // record half-appended.
                self.request_shutdown();
                return false;
            };
            let first = !j.is_failed();
            if let Err(e) = j.commit() {
                if first {
                    eprintln!("dls-service: journal commit failed, draining: {e}");
                }
                drop(j);
                self.request_shutdown();
                return false;
            }
            let records = j.stats().records;
            let due = self.snapshot_every > 0
                && records.saturating_sub(self.last_snap_records.load(Ordering::Relaxed))
                    >= self.snapshot_every;
            if !due {
                return true;
            }
            // Claim the snapshot while still holding the journal lock
            // so concurrent loop shards don't both start one.
            self.last_snap_records.store(records, Ordering::Relaxed);
            match j.begin_snapshot() {
                Ok(b) => b,
                // The rotation commits the cycle's records first, and its
                // failure is as sticky as a commit's.
                Err(e) => {
                    eprintln!("dls-service: snapshot rotation failed, draining: {e}");
                    drop(j);
                    self.request_shutdown();
                    return false;
                }
            }
            // Journal lock released here: serializing live state takes
            // shard locks, and shard -> journal is the locking order.
        };
        let body = self.serialize_live();
        if let Ok(mut j) = journal.lock() {
            if let Err(e) = j.install_snapshot(boundary, &body) {
                eprintln!("dls-service: snapshot install failed: {e}");
            }
        }
        true
    }

    /// The snapshot body, written straight from the live kernels in
    /// job-id order — one shard lock at a time, never nested with the
    /// journal lock. The image may run *ahead* of the committed journal
    /// — replay idempotence makes the overlap harmless.
    fn serialize_live(&self) -> Vec<u8> {
        let jobs_created = self.next_job.load(Ordering::SeqCst);
        let mut ids = Vec::new();
        for shard in &self.shards {
            if let Ok(shard) = shard.lock() {
                ids.extend(shard.keys().copied());
            }
        }
        ids.sort_unstable();
        let mut image = ImageWriter::new(self.journal_epoch, false, jobs_created);
        for id in ids {
            if let Ok(shard) = self.shards[self.shard_index(id)].lock() {
                if let Some(job) = shard.get(&id) {
                    image.job(id, &job.core);
                }
            }
        }
        image.finish()
    }

    /// Drain the journal: flush + force-fsync everything buffered and
    /// stamp the clean-exit `Drained` record. Called once from
    /// `Server::shutdown` after the loop shards have joined.
    fn journal_drain(&self) {
        if let Some(journal) = &self.journal {
            if let Ok(mut j) = journal.lock() {
                j.append(&JournalRecord::Drained { epoch: self.journal_epoch });
                if let Err(e) = j.sync() {
                    eprintln!("dls-service: journal drain sync failed: {e}");
                }
            }
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cv) = &self.shutdown_cv;
        if let Ok(mut flagged) = lock.lock() {
            *flagged = true;
            cv.notify_all();
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut jobs = Vec::new();
        let mut jobs_active = 0;
        for shard in &self.shards {
            if let Ok(shard) = shard.lock() {
                for (&id, job) in shard.iter() {
                    if !job.core.done {
                        jobs_active += 1;
                    }
                    jobs.push(job.snapshot(id));
                }
            }
        }
        jobs.sort_by_key(|j| j.job);
        let mut conns: Vec<ConnSnapshot> =
            self.conn_stats.lock().map(|m| m.values().cloned().collect()).unwrap_or_default();
        conns.sort_by_key(|c| c.conn);
        StatsSnapshot {
            uptime_ns: self.now_ns(),
            shutting_down: self.shutdown.load(Ordering::SeqCst),
            // Relaxed loads: each counter is exact on its own (all
            // writers are RMWs), but the snapshot as a whole is
            // advisory — the values are not required to be mutually
            // consistent at a single instant.
            totals: ServiceTotals {
                fetches: self.fetches.load(Ordering::Relaxed),
                chunks_granted: self.chunks_granted.load(Ordering::Relaxed),
                reclaims: self.reclaims.load(Ordering::Relaxed),
                empty_polls: self.empty_polls.load(Ordering::Relaxed),
                jobs_created: self.next_job.load(Ordering::Relaxed),
                jobs_active,
                conns_active: self.conns_active.load(Ordering::Relaxed),
                conns_total: self.conns_total.load(Ordering::Relaxed),
                bytes_in: self.bytes_in.load(Ordering::Relaxed),
                bytes_out: self.bytes_out.load(Ordering::Relaxed),
            },
            journal: match &self.journal {
                Some(journal) => {
                    let s = journal.lock().map(|j| j.stats()).unwrap_or_default();
                    JournalTotals {
                        enabled: true,
                        epoch: self.journal_epoch,
                        journal_records: s.records,
                        journal_bytes: s.bytes,
                        fsyncs: s.fsyncs,
                        snapshots: s.snapshots,
                        segments: s.segments,
                    }
                }
                None => JournalTotals::default(),
            },
            jobs,
            conns,
        }
    }

    // ---- request handlers -------------------------------------------------

    /// Answer `req` from `peer`: one framed reply appended to `out`.
    /// Every job-table access goes through `held`, so a serve pass that
    /// hands the same `held` to each request locks a shard once for as
    /// long as consecutive requests stay on it.
    pub(crate) fn handle<'a>(
        &'a self,
        req: Request,
        peer: &mut Peer,
        held: &mut Held<'a>,
        tally: &mut CycleTally,
        out: &mut Vec<u8>,
    ) {
        let resp = match req {
            Request::CreateJob { n, kind, weights } => self.create_job(held, n, kind, weights),
            Request::FetchChunk { job, worker, batch } => {
                peer.stat.worker = worker;
                peer.stat.fetches += 1;
                match self.fetch(held, job, worker, batch, peer, out) {
                    Ok(granted) => {
                        peer.stat.chunks += granted;
                        tally.fetches += 1;
                        tally.chunks_granted += granted;
                        tally.empty_polls += u64::from(granted == 0);
                        return;
                    }
                    Err(refusal) => Err(refusal),
                }
            }
            Request::ReportDone { job, leases, epoch } => {
                self.report(held, job, leases, epoch, peer)
            }
            Request::ResumeJob { job } => self.resume_job(held, job),
            Request::Heartbeat { worker } => {
                peer.stat.worker = worker;
                Ok(Response::Ack)
            }
            Request::Stats => {
                *held = None; // the snapshot takes every shard lock in turn
                Ok(Response::Snapshot(self.snapshot()))
            }
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Response::Ack)
            }
        };
        resp.unwrap_or_else(|Refusal(code, detail)| Response::Error { code, detail })
            .frame_into(out);
    }

    /// Answer a reconnecting worker: does `job` still exist, what
    /// epoch is in force, and how far along is it. Only meaningful on
    /// a journaled server — a volatile one forgot everything, and a
    /// typed error beats letting the client poll a job that will never
    /// reappear.
    fn resume_job<'a>(&'a self, held: &mut Held<'a>, job: u64) -> Result<Response, Refusal> {
        if self.journal.is_none() {
            return Err(Refusal(
                ErrorCode::NoJournal,
                "server runs without a journal; jobs do not survive restarts".into(),
            ));
        }
        let Some(j) = self.jobs_held(held, job)?.get(&job) else {
            return Err(Refusal(
                ErrorCode::UnknownJob,
                format!("job {job} is not in the recovered state"),
            ));
        };
        Ok(Response::JobEpoch {
            job,
            epoch: self.journal_epoch,
            n: j.core.n,
            scheduled: j.core.scheduled,
            completed: j.core.completed,
            done: j.core.done,
            kind: j.core.active(),
            decisions: j.core.decisions.clone(),
        })
    }

    fn create_job<'a>(
        &'a self,
        held: &mut Held<'a>,
        n: u64,
        kind: SchedKind,
        weights: Vec<f64>,
    ) -> Result<Response, Refusal> {
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(Refusal(
                ErrorCode::BadTechnique,
                "weights must be finite and non-negative".into(),
            ));
        }
        // Admission to the job table is a single CAS. The previous
        // load-then-add pair had a lost-update window: two creates
        // racing on separate event-loop shards could both pass the
        // check and overshoot `max_jobs` (the same check-then-act shape
        // as the old connection-admission bug; pinned by the
        // `conc-check` admission model and the cap model below).
        // The cap is on unfinished jobs: the slot is given back where
        // `report` sees the job complete, and an empty loop, born
        // finished, takes none.
        let cap = u64::from(self.cfg.max_jobs);
        if n > 0
            && self
                .jobs_live
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                    (live < cap).then_some(live + 1)
                })
                .is_err()
        {
            return Err(Refusal(
                ErrorCode::TooManyJobs,
                format!("job table limit {} reached", self.cfg.max_jobs),
            ));
        }
        let job = self.next_job.fetch_add(1, Ordering::SeqCst);
        if let Ok(jobs) = self.jobs_held(held, job) {
            let core = JobCore::new(n, kind, weights.clone());
            jobs.insert(job, Job::new(core, self.cfg.tuner_overhead_ns));
            // Under the shard lock so the JobCreated record is ordered
            // before any Granted record a racing fetch could append.
            self.journal_append(&JournalRecord::JobCreated { job, n, kind, weights });
        }
        Ok(Response::JobCreated { job })
    }

    /// Grant up to `batch` chunks of `job` to `worker` over `peer`. On
    /// success the framed `Chunks` reply is appended to `out`, written
    /// straight from the grants, and the grant count is returned.
    fn fetch<'a>(
        &'a self,
        held: &mut Held<'a>,
        job: u64,
        worker: u32,
        batch: u32,
        peer: &mut Peer,
        out: &mut Vec<u8>,
    ) -> Result<u64, Refusal> {
        if batch == 0 || batch > self.cfg.max_batch {
            return Err(Refusal(
                ErrorCode::BatchTooLarge,
                format!("batch {batch} outside 1..={}", self.cfg.max_batch),
            ));
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Refusal(ErrorCode::ShuttingDown, "server draining; no new grants".into()));
        }
        let Some(j) = self.jobs_held(held, job)?.get_mut(&job) else {
            return Err(Refusal(ErrorCode::UnknownJob, format!("job {job} was never created")));
        };
        if j.core.done {
            return Err(Refusal(
                ErrorCode::JobFinished,
                format!("job {job} completed all {} iterations", j.core.n),
            ));
        }
        // A weighted job defines exactly `weights.len()` worker slots;
        // an out-of-range id used to be granted chunks at a silent
        // default weight of 1.0 — reject it with a typed error instead.
        let slots = j.core.weights.len();
        if slots != 0 && (worker as usize) >= slots {
            return Err(Refusal(
                ErrorCode::BadWorker,
                format!("worker {worker} outside weighted job's 0..{slots} range"),
            ));
        }
        let held_by_worker = j.outstanding.get(&worker).copied().unwrap_or(0);
        if held_by_worker >= self.cfg.worker_quota {
            return Err(Refusal(
                ErrorCode::QuotaExceeded,
                format!(
                    "worker {worker} holds {held_by_worker} unsettled leases (quota {})",
                    self.cfg.worker_quota
                ),
            ));
        }
        let batch = batch.min(self.cfg.worker_quota - held_by_worker);
        let grants = j.fetch(worker, batch, peer.id, self.now_ns());
        let granted = grants.len() as u64;
        let rows = grants.iter().map(|g| [g.lease, g.lo, g.hi]);
        framed(out, |buf| write_chunks(buf, self.journal_epoch, rows));
        if granted > 0 {
            if !peer.jobs.contains(&job) {
                peer.jobs.push(job);
            }
            if self.journal.is_some() {
                // One record per burst: post-burst watermarks plus every
                // lease, appended while the held shard lock pins the
                // counters. No I/O until the cycle's journal_commit.
                let (step, scheduled) = (j.core.step, j.core.scheduled);
                self.journal_append(&JournalRecord::Granted { job, step, scheduled, grants });
            }
        }
        Ok(granted)
    }

    /// Settle `leases`, reported over `peer`, in order, stopping at the
    /// first stale one.
    fn report<'a>(
        &'a self,
        held: &mut Held<'a>,
        job: u64,
        mut leases: Vec<LeaseId>,
        epoch: u32,
        peer: &mut Peer,
    ) -> Result<Response, Refusal> {
        // Epoch fence: a report against a lease granted by a previous
        // incarnation must not settle anything — the recovery path
        // already re-armed those leases, and crediting them here would
        // double-count the range.
        if epoch != self.journal_epoch {
            return Err(Refusal(
                ErrorCode::StaleEpoch,
                format!("report from epoch {epoch}, server is at {}", self.journal_epoch),
            ));
        }
        let Some(j) = self.jobs_held(held, job)?.get_mut(&job) else {
            return Err(Refusal(ErrorCode::UnknownJob, format!("job {job} was never created")));
        };
        let was_done = j.core.done;
        let mut switched = Vec::new();
        let (settled, credited) = j.report(&leases, peer.id, self.now_ns(), &mut switched);
        let resp = match leases.get(settled) {
            Some(lease) => Err(Refusal(
                ErrorCode::StaleLease,
                format!("lease {lease} is unknown or already settled"),
            )),
            None => {
                peer.stat.iterations += credited;
                Ok(Response::Ack)
            }
        };
        // Journal whatever prefix actually settled — on a partial
        // failure the in-memory ledger has already transitioned those
        // leases, and the journal must agree or replay re-arms them
        // into double execution.
        if settled > 0 && self.journal.is_some() {
            leases.truncate(settled);
            self.journal_append(&JournalRecord::Settled { job, leases });
        }
        // Decisions after the settles that triggered them: replay then
        // restores the exact same (counters, active technique) pair the
        // live server had when it switched.
        for decision in switched {
            self.journal_append(&JournalRecord::TechniqueSwitched { job, decision });
        }
        if !was_done && j.core.done {
            self.journal_append(&JournalRecord::JobFinished { job });
            // Relaxed for the same reason as `conns_active` in
            // `disconnect`: a slot seen late can only under-admit.
            self.jobs_live.fetch_sub(1, Ordering::Relaxed);
        }
        resp
    }

    /// A connection died or closed: reclaim its unsettled leases in
    /// every job it was granted any from, exactly once each.
    pub(crate) fn disconnect(&self, peer: &Peer) {
        let mut reclaimed = 0;
        let mut held = None;
        for &id in &peer.jobs {
            let Ok(jobs) = self.jobs_held(&mut held, id) else { continue };
            let leases = jobs.get_mut(&id).map(|job| job.reclaim_conn(peer.id)).unwrap_or_default();
            if !leases.is_empty() {
                reclaimed += leases.len() as u64;
                self.journal_append(&JournalRecord::Reclaimed { job: id, leases });
            }
        }
        if reclaimed > 0 {
            self.reclaims.fetch_add(reclaimed, Ordering::Relaxed);
        }
        // Relaxed is sound for the cap invariant: the admission CAS
        // and this decrement are RMWs on the same atomic, and RMWs see
        // the latest value in modification order whatever their
        // `Ordering`. A slot freed here may become visible to a racing
        // admission a moment "late", which can only under-admit, never
        // overshoot.
        self.conns_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A request the server will not serve: becomes the typed error frame.
struct Refusal(ErrorCode, String);

/// A running chunk-scheduling server.
///
/// Dropping a `Server` without calling [`Server::shutdown`] leaves the
/// loop shards running until process exit (threads are daemonised by
/// the OS); tests and the daemon binary always shut down explicitly.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the loop shards. Volatile: jobs die with the process.
    pub fn start<A: ToSocketAddrs>(cfg: ServiceConfig, addr: A) -> std::io::Result<Server> {
        Server::launch(State::new(cfg), addr)
    }

    /// Like [`Server::start`], but durable: open (or recover) the
    /// write-ahead journal in `jopts.dir`, replay snapshot + segments
    /// into the job table, re-arm every lease the dead incarnation
    /// left active, and fence the new epoch before accepting traffic.
    /// `snapshot_every` is the record count between snapshots (0 =
    /// never snapshot).
    pub fn start_with_journal<A: ToSocketAddrs>(
        cfg: ServiceConfig,
        addr: A,
        jopts: JournalOptions,
        snapshot_every: u64,
    ) -> std::io::Result<Server> {
        let (journal, mut rec) =
            Journal::open(jopts).map_err(|e| std::io::Error::other(e.to_string()))?;
        let re_armed = rec.re_arm();
        if re_armed > 0 {
            eprintln!(
                "dls-service: recovery re-armed {re_armed} unsettled lease(s) into reclaim pools"
            );
        }
        let mut state = State::new(cfg);
        state.adopt_recovered(journal, rec, snapshot_every);
        Server::launch(state, addr)
    }

    fn launch<A: ToSocketAddrs>(state: State, addr: A) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let event_loops = state.cfg.event_loops.max(1);
        let state = Arc::new(state);
        let mut loops = Vec::with_capacity(event_loops as usize);
        for i in 0..event_loops {
            // Clones share one file description: every shard polls the
            // same accept queue and the kernel hands each pending
            // connection to exactly one winner.
            let mut shard = LoopShard::new(listener.try_clone()?, Arc::clone(&state))?;
            let handle = std::thread::Builder::new()
                .name(format!("dls-loop-{i}"))
                .spawn(move || shard.run())?;
            loops.push(handle);
        }
        Ok(Server { state, addr, loops })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.state.snapshot()
    }

    /// High-water mark of concurrently admitted connections. Admission
    /// is a single compare-and-swap, so this can never exceed
    /// [`ServiceConfig::max_connections`] — tests assert exactly that.
    pub fn peak_connections(&self) -> u64 {
        self.state.conns_peak.load(Ordering::SeqCst)
    }

    /// True once a `Shutdown` frame (or [`Server::shutdown`]) started
    /// the drain.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Block until some client sends a `Shutdown` frame (the daemon's
    /// main loop; SIGTERM handling wraps this with a timeout poll).
    pub fn wait_for_shutdown_request(&self, timeout: Duration) -> bool {
        let (lock, cv) = &self.state.shutdown_cv;
        let Ok(guard) = lock.lock() else { return true };
        let (guard, _) = match cv.wait_timeout_while(guard, timeout, |flagged| !*flagged) {
            Ok(r) => r,
            Err(_) => return true,
        };
        *guard
    }

    /// Graceful shutdown: stop accepting, answer what is buffered,
    /// close connections as they go quiet, join every loop shard, and
    /// return the final snapshot (per-job progress counters preserved).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.state.request_shutdown();
        // Loop shards notice the flag at their next poll tick; no
        // wake-up connection is needed (epoll_wait carries a timeout).
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        // Loop shards are gone: nothing appends anymore. Stamp the
        // clean-exit record and force the final fsync.
        self.state.journal_drain();
        self.state.snapshot()
    }
}

#[cfg(all(test, not(conc_check)))]
mod tests {
    use super::*;

    /// A panic under the journal lock must not turn every later cycle
    /// into an ack with nothing written: the poisoned lock fail-stops
    /// like a failed commit.
    #[test]
    fn a_poisoned_journal_lock_fails_the_commit_and_drains() {
        let dir = std::env::temp_dir().join(format!("dls-poisoned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, rec) = Journal::open(JournalOptions::new(&dir)).expect("open journal");
        let mut state = State::new(ServiceConfig::default());
        state.adopt_recovered(journal, rec, 0);
        assert!(state.journal_commit(), "a healthy journal commits");

        let state = Arc::new(state);
        let poisoner = Arc::clone(&state);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.journal.as_ref().expect("journaled").lock();
            panic!("poison the journal lock");
        })
        .join();
        assert!(panicked.is_err());

        assert!(!state.journal_commit(), "a poisoned journal acknowledged a cycle");
        assert!(state.shutdown.load(Ordering::SeqCst), "and must drain the server");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// Interleaving models that drive the *real* `State` — not a
// re-implementation — through the conc-check explorer. Compiled only by
// the dedicated checking build:
// `RUSTFLAGS="--cfg conc_check" cargo test -p dls-service --features conc-check`.
#[cfg(all(test, conc_check))]
mod conc_models {
    use super::*;
    use conc_check::{check, Outcome};

    /// A `State` with no sockets and no loop shards: exactly what
    /// `Server::start` builds, minus the listener.
    fn tiny_state(cfg: ServiceConfig) -> Arc<State> {
        Arc::new(State::new(cfg))
    }

    fn assert_pass(name: &str, outcome: &Outcome) {
        match outcome {
            Outcome::Pass(stats) => {
                assert!(stats.complete, "{name}: hit the schedule cap");
                // If the facade silently resolved to `std::sync` the
                // explorer would see no visible ops and declare victory
                // after one schedule — catch that misconfiguration.
                assert!(
                    stats.schedules > 1,
                    "{name}: only {} schedule(s) explored — facade not engaged?",
                    stats.schedules
                );
            }
            Outcome::Fail(cx) => panic!("{name}: counterexample against the real State:\n{cx}"),
        }
    }

    /// One request through `State::handle` as a serve pass of its own:
    /// the shard guard it takes is released before it returns.
    fn call(state: &State, peer: &mut Peer, req: Request) -> Response {
        let mut out = Vec::new();
        state.handle(req, peer, &mut None, &mut CycleTally::default(), &mut out);
        Response::decode(&out[4..]).expect("the server's own reply decodes")
    }

    fn create(state: &State, n: u64) -> Response {
        let req = Request::CreateJob { n, kind: dls::Kind::SS.into(), weights: vec![] };
        call(state, &mut Peer::new(u64::MAX), req)
    }

    fn fetch(state: &State, peer: &mut Peer, worker: u32, batch: u32) -> Vec<(u64, u64, u64)> {
        match call(state, peer, Request::FetchChunk { job: 0, worker, batch }) {
            Response::Chunks { chunks, .. } => {
                chunks.into_iter().map(|g| (g.lease, g.lo, g.hi)).collect()
            }
            other => panic!("fetch failed: {other:?}"),
        }
    }

    /// Two creates racing for one job slot: the `fetch_update` CAS in
    /// `create_job` must admit exactly one on *every* schedule. (The
    /// pre-fix load-then-add pair fails this model.)
    #[test]
    fn create_job_cap_is_exact_under_every_schedule() {
        let outcome = check(move || {
            let state = tiny_state(ServiceConfig { max_jobs: 1, shards: 1, ..Default::default() });
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let st = Arc::clone(&state);
                    conc_check::thread::spawn(move || {
                        matches!(create(&st, 4), Response::JobCreated { .. })
                    })
                })
                .collect();
            let created =
                handles.into_iter().map(|h| h.join()).filter(|r| matches!(r, Ok(true))).count();
            assert_eq!(created, 1, "cap 1, two racing creates: exactly one may win");
        });
        assert_pass("create_job cap", &outcome);
    }

    /// Two workers fetching from one real job, each in a serve pass of
    /// its own: grants must be disjoint on every schedule, whichever
    /// worker's fetch commits first.
    #[test]
    fn standalone_fetches_never_overlap() {
        let outcome = check(move || {
            let state = tiny_state(ServiceConfig { shards: 1, ..Default::default() });
            assert!(matches!(create(&state, 6), Response::JobCreated { job: 0 }));
            let handles: Vec<_> = (0..2)
                .map(|worker| {
                    let st = Arc::clone(&state);
                    conc_check::thread::spawn(move || {
                        fetch(&st, &mut Peer::new(u64::from(worker)), worker, 2)
                    })
                })
                .collect();
            let mut ranges: Vec<(u64, u64)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .map(|(_, lo, hi)| (lo, hi))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "overlapping grants from racing fetches: {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
        });
        assert_pass("standalone fetch", &outcome);
    }

    /// A lease granted over connection A, reported over connection B
    /// while A's loop shard retires A: the ledger's single settlement
    /// credits it or re-pools it — never both, never neither — and the
    /// reverse indices end empty either way.
    #[test]
    fn report_racing_disconnect_settles_the_lease_once() {
        let outcome = check(move || {
            let state = tiny_state(ServiceConfig { shards: 1, ..Default::default() });
            assert!(matches!(create(&state, 8), Response::JobCreated { job: 0 }));
            state.conns_active.fetch_add(1, Ordering::SeqCst);
            let mut a = Peer::new(0);
            let [(lease, lo, hi)] = fetch(&state, &mut a, 3, 1)[..] else { panic!("one chunk") };

            let st = Arc::clone(&state);
            let reporter = conc_check::thread::spawn(move || {
                let req = Request::ReportDone { job: 0, leases: vec![lease], epoch: 0 };
                call(&st, &mut Peer::new(1), req)
            });
            let st = Arc::clone(&state);
            let retirer = conc_check::thread::spawn(move || st.disconnect(&a));
            let reply = reporter.join().expect("reporter panicked");
            retirer.join().expect("retirer panicked");

            let jobs = state.shards[0].lock().expect("shard lock");
            let job = &jobs[&0];
            let pooled: Vec<_> = job.core.reclaim_pool.iter().copied().collect();
            match reply {
                Response::Ack => {
                    assert_eq!(job.core.leases.counts(), (1, 1, 0), "credited");
                    assert_eq!((job.core.completed, pooled), (hi - lo, vec![]));
                }
                Response::Error { code: ErrorCode::StaleLease, .. } => {
                    assert_eq!(job.core.leases.counts(), (1, 0, 1), "re-pooled");
                    assert_eq!((job.core.completed, pooled), (0, vec![(lo, hi)]));
                }
                other => panic!("report answered {other:?}"),
            }
            assert_eq!(job.outstanding.get(&3), Some(&0), "quota released exactly once");
            assert!(job.conn_leases.is_empty(), "no list outlives its connection");
            assert_eq!(state.conns_active.load(Ordering::SeqCst), 0);
        });
        assert_pass("report vs disconnect", &outcome);
    }
}

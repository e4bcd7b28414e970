//! Bounded concurrency models of the real `dls-service` server paths.
//!
//! Each model builds fresh shared state from the instrumented
//! primitives ([`crate::sync`]), spawns a handful of model threads
//! exercising one protocol of the server, and asserts the protocol's
//! invariant; the explorer then drives it through every schedule. Each
//! model has a `Clean` variant (mirroring what the server actually
//! does, expected to pass exhaustively) and seeded-broken variants
//! (plausible-looking bug patterns — including the check-then-act
//! admission bug the service actually shipped once) that must produce
//! counterexamples.
//!
//! The job models lock the *real* job kernel ([`durability::JobCore`],
//! wrapped with a connection index as [`ConnJob`]) exactly as the
//! server's shard mutex does, so a violation indicts the
//! synchronization pattern, not a toy re-implementation. A seeded job
//! bug is a kernel call the model driver bypasses, never a flag inside
//! the kernel.

use crate::history::Recorder;
use crate::linearize::assert_linearizable;
use crate::linearize::SeqSpec;
use crate::spec::{ConnJob, JobOp, JobRes, JobSpec};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use crate::thread;
use dls::Kind;
use resilience::LeaseId;

/// Which implementation of a protocol a model runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The pattern the server actually uses; must pass exhaustively.
    Clean,
    /// Admission by `load` + compare + `fetch_add` instead of one CAS —
    /// the lost-window bug the service shipped before the CAS fix.
    CheckThenActAdmission,
    /// Peak tracking by `load`/compare/`store` instead of `fetch_max` —
    /// loses concurrent updates.
    LoadStorePeak,
    /// Drain protocol with every ordering demoted to `Relaxed` — the
    /// announcement no longer happens-before the flag read.
    RelaxedShutdown,
    /// Disconnect reclaim that re-pools ranges without consulting the
    /// lease ledger — double-grants ranges settled by a racing report.
    ReclaimWithoutLedger,
}

// ---------------------------------------------------------------------------
// Model: connection admission (event_loop.rs accept path)
// ---------------------------------------------------------------------------

/// The accept-path admission protocol: `workers` racing accepts against
/// a cap of `max_conns`, exactly as `event_loop.rs` runs it —
/// admission by a single `fetch_update` CAS on `conns_active`, peak
/// tracking by `fetch_max` on `conns_peak`.
///
/// Invariants checked on every schedule:
/// * at most `max_conns` connections are ever inside concurrently;
/// * after all threads finish, `conns_peak` equals the highest
///   occupancy any admitted connection observed.
pub fn admission_model(
    variant: Variant,
    workers: usize,
    max_conns: u64,
) -> impl Fn() + Send + Sync {
    move || {
        let active = Arc::new(AtomicU64::new(0).named("conns_active"));
        let peak = Arc::new(AtomicU64::new(0).named("conns_peak"));
        // Ground truth for the cap invariant, always SeqCst.
        let in_flight = Arc::new(AtomicU64::new(0).named("in_flight"));

        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let active = Arc::clone(&active);
                let peak = Arc::clone(&peak);
                let in_flight = Arc::clone(&in_flight);
                thread::spawn(move || {
                    let admitted = match variant {
                        Variant::CheckThenActAdmission => {
                            // Seeded bug: the window between the load and
                            // the add admits over the cap.
                            if active.load(Ordering::SeqCst) < max_conns {
                                Some(active.fetch_add(1, Ordering::SeqCst))
                            } else {
                                None
                            }
                        }
                        _ => active
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                                (c < max_conns).then_some(c + 1)
                            })
                            .ok(),
                    };
                    let prev = admitted?;
                    let occupancy = prev + 1;
                    match variant {
                        Variant::LoadStorePeak => {
                            // Seeded bug: racing read-compare-write loses
                            // one of two concurrent maxima.
                            if occupancy > peak.load(Ordering::Relaxed) {
                                peak.store(occupancy, Ordering::Relaxed);
                            }
                        }
                        // Relaxed is enough for the real pattern: an RMW
                        // always reads the latest value in modification
                        // order, so no concurrent max is ever lost.
                        _ => {
                            peak.fetch_max(occupancy, Ordering::Relaxed);
                        }
                    }
                    let inside = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(
                        inside <= max_conns,
                        "admission cap breached: {inside} connections inside, cap {max_conns}"
                    );
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    active.fetch_sub(1, Ordering::SeqCst);
                    Some(occupancy)
                })
            })
            .collect();

        let mut expected_peak = 0;
        for h in handles {
            if let Ok(Some(occupancy)) = h.join() {
                expected_peak = expected_peak.max(occupancy);
            }
        }
        if expected_peak > 0 {
            let got = peak.load(Ordering::SeqCst);
            assert!(
                got == expected_peak,
                "conns_peak lost an update: recorded {got}, observed high-water {expected_peak}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shared job (server.rs Job under one shard lock)
// ---------------------------------------------------------------------------

/// What a model's shard mutex guards: the job, and the drivers' own
/// record of every range they were granted, by (dense) lease id. The
/// ledger forgets a lease's range at settlement, so this is what the
/// seeded no-ledger disconnect re-pools from.
struct Shard {
    job: ConnJob,
    granted: Vec<(u64, u64)>,
}

type SharedJob = Arc<Mutex<Shard>>;
type JobRecorder = Recorder<JobOp, JobRes>;

fn shared_job(spec: &JobSpec) -> SharedJob {
    Arc::new(Mutex::new(Shard { job: spec.init(), granted: Vec::new() }).named("shard"))
}

fn recorded_fetch(
    job: &SharedJob,
    rec: &JobRecorder,
    worker: u32,
    batch: u32,
    conn: u64,
) -> Vec<(LeaseId, u64, u64)> {
    let token = rec.invoke(JobOp::Fetch { worker, conn, batch });
    let granted: Vec<(LeaseId, u64, u64)> = {
        let mut shard = job.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let grants = shard.job.fetch(worker, conn, batch);
        shard.granted.extend(grants.iter().map(|g| (g.lo, g.hi)));
        grants.iter().map(|g| (g.lease, g.lo, g.hi)).collect()
    };
    rec.complete(token, JobRes::Granted(granted.iter().map(|&(_, lo, hi)| (lo, hi)).collect()));
    granted
}

fn recorded_report(job: &SharedJob, rec: &JobRecorder, lease: LeaseId, lo: u64, hi: u64) {
    let token = rec.invoke(JobOp::Report { lo, hi });
    let credited = {
        let mut shard = job.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.job.report(lease)
    };
    rec.complete(token, JobRes::Reported(credited));
}

fn recorded_disconnect(job: &SharedJob, rec: &JobRecorder, conn: u64, variant: Variant) {
    let token = rec.invoke(JobOp::Disconnect { conn });
    let reclaimed = {
        let mut shard = job.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Shard { job, granted } = &mut *shard;
        match variant {
            Variant::ReclaimWithoutLedger => {
                // Seeded bug: trust the reverse index alone and re-pool
                // every listed range without the kernel's ledger
                // transition — a range settled by a racing report is
                // served again.
                let leases = job.conn_leases.remove(&conn).unwrap_or_default();
                for &lease in &leases {
                    job.core.reclaim_pool.push_back(granted[lease as usize]);
                }
                leases.len() as u64
            }
            _ => job.disconnect(conn),
        }
    };
    rec.complete(token, JobRes::Reclaimed(reclaimed));
}

// ---------------------------------------------------------------------------
// Model: burst fetch/report under one shard lock
// ---------------------------------------------------------------------------

/// `workers` connections concurrently fetching `batch` chunks from one
/// job and reporting every grant — the hot fetch/report path under a
/// single shard lock. The recorded history must linearize against the
/// sequential calculator spec, and every granted range must be
/// exactly-once: pairwise disjoint with total coverage matching the
/// counters.
pub fn burst_fetch_report_model(
    kind: Kind,
    n: u64,
    workers: u32,
    batch: u32,
) -> impl Fn() + Send + Sync {
    move || {
        let spec = JobSpec::new(n, kind);
        let job = shared_job(&spec);
        let rec: JobRecorder = Recorder::new();

        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let job = Arc::clone(&job);
                let rec = rec.clone();
                thread::spawn(move || {
                    let conn = u64::from(w) + 1;
                    let granted = recorded_fetch(&job, &rec, w, batch, conn);
                    for (lease, lo, hi) in granted {
                        recorded_report(&job, &rec, lease, lo, hi);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }

        let history = rec.take();
        // Exactly-once: no iteration appears in two grants (no reclaims
        // happen in this model).
        let mut ranges: Vec<(u64, u64)> = history
            .iter()
            .filter_map(|s| match &s.res {
                Some(JobRes::Granted(rs)) => Some(rs.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "iteration granted twice: ranges {:?} and {:?} overlap",
                pair[0],
                pair[1]
            );
        }
        assert_linearizable(&spec, &history);
    }
}

// ---------------------------------------------------------------------------
// Model: lease reclaim on disconnect vs concurrent fetch/report
// ---------------------------------------------------------------------------

/// The resilience race: connection 1 fetches a chunk and reports it
/// while the server's disconnect path concurrently reclaims that
/// connection, and connection 2 keeps fetching — reclaimed ranges are
/// served from the pool before fresh counter advances. Exactly-once
/// grant/reclaim per range is checked by linearizing the recorded
/// history against the sequential spec: a range both settled and
/// re-pooled (the no-ledger variant) has no sequential explanation.
pub fn reclaim_model(variant: Variant, kind: Kind, n: u64) -> impl Fn() + Send + Sync {
    move || {
        let spec = JobSpec::new(n, kind);
        let job = shared_job(&spec);
        let rec: JobRecorder = Recorder::new();

        // Connection 1: fetch one chunk, report it.
        let w1 = {
            let job = Arc::clone(&job);
            let rec = rec.clone();
            thread::spawn(move || {
                for (lease, lo, hi) in recorded_fetch(&job, &rec, 0, 1, 1) {
                    recorded_report(&job, &rec, lease, lo, hi);
                }
            })
        };
        // The server's reaper: connection 1 disconnected.
        let reaper = {
            let job = Arc::clone(&job);
            let rec = rec.clone();
            thread::spawn(move || {
                recorded_disconnect(&job, &rec, 1, variant);
            })
        };
        // Connection 2: drain whatever remains (pool first).
        let w2 = {
            let job = Arc::clone(&job);
            let rec = rec.clone();
            thread::spawn(move || {
                for (lease, lo, hi) in recorded_fetch(&job, &rec, 1, 2, 2) {
                    recorded_report(&job, &rec, lease, lo, hi);
                }
            })
        };
        w1.join().expect("worker 1");
        reaper.join().expect("reaper");
        w2.join().expect("worker 2");

        let history = rec.take();
        // Exactly-once settlement: credited iterations can never exceed
        // the loop size, whatever the schedule.
        let credited: u64 = history
            .iter()
            .filter_map(|s| match &s.res {
                Some(JobRes::Reported(Some(len))) => Some(*len),
                _ => None,
            })
            .sum();
        assert!(credited <= n, "double settlement: {credited} iterations credited of {n}");
        assert_linearizable(&spec, &history);
    }
}

// ---------------------------------------------------------------------------
// Model: drain flag vs in-flight ops
// ---------------------------------------------------------------------------

/// The shutdown handshake: the controller raises the drain flag, then
/// publishes "accepting closed"; an in-flight op that observes the
/// announcement must also observe the flag. The server gets the
/// happens-before edge from `SeqCst` on the flag plus the
/// mutex/condvar handshake; the `RelaxedShutdown` variant demotes
/// everything to `Relaxed`, severing the edge — the announcement can be
/// visible while the flag read is stale.
pub fn drain_model(variant: Variant) -> impl Fn() + Send + Sync {
    move || {
        let draining = Arc::new(AtomicBool::new(false).named("shutdown"));
        let closed = Arc::new(AtomicBool::new(false).named("accepting_closed"));

        let (flag_store, announce_store, announce_load, flag_load) = match variant {
            Variant::RelaxedShutdown => {
                (Ordering::Relaxed, Ordering::Relaxed, Ordering::Relaxed, Ordering::Relaxed)
            }
            // The real pattern: SeqCst flag, release/acquire handshake
            // (the mutex inside `request_shutdown` provides the same
            // edge in the server).
            _ => (Ordering::SeqCst, Ordering::Release, Ordering::Acquire, Ordering::Relaxed),
        };

        let controller = {
            let draining = Arc::clone(&draining);
            let closed = Arc::clone(&closed);
            thread::spawn(move || {
                draining.store(true, flag_store);
                closed.store(true, announce_store);
            })
        };
        let worker = {
            let draining = Arc::clone(&draining);
            let closed = Arc::clone(&closed);
            thread::spawn(move || {
                if closed.load(announce_load) {
                    assert!(
                        draining.load(flag_load),
                        "accepting closed is visible but the drain flag reads stale false"
                    );
                }
            })
        };
        controller.join().expect("controller");
        worker.join().expect("worker");
    }
}

//! The live executors' global work queue: one seam, three realisations.
//!
//! The inter-node level is two counters `(step, scheduled)` plus a
//! technique, and every chunk boundary is a pure function of them — so
//! *how* a refiller reaches the counters must not change the chunk
//! sequence. [`GlobalQueue::fetch`] is the one place in `hier::live`
//! that knows how the next inter-level chunk is obtained.

use crate::config::GlobalQueueMode;
use crate::layout::{GSCHED, GSTEP};
use crate::protocol::Fetched;
use dls::{LoopSpec, SchedState, Technique};
use dls_service::{Client, FetchReply, JobId};
use mpisim::{Comm, LockKind, RankWinStats, RmaLog, RmaOp, Window};
use std::sync::Mutex;

/// One rank's handle on the global work queue. The RMA realisations sit
/// on a two-slot window exposed by world rank 0.
pub(super) enum GlobalQueue<'a> {
    /// The PDP'19 distributed chunk calculation: one `MPI_Fetch_and_op`
    /// on the step counter; the bounds follow locally from the step.
    /// The steps one rank draws only increase, so `cursor` keeps the
    /// schedule state of its last draw and the next one advances the
    /// calculator from there instead of replaying from step 0. (A
    /// `Mutex` only because an MPI+OpenMP team shares `&GlobalQueue`
    /// between its threads; it is never contended.)
    Atomic { win: Window, inter: Technique, spec: LoopSpec, cursor: Mutex<SchedState> },
    /// Both counters advanced under one `MPI_Win_lock(EXCLUSIVE)` epoch.
    Locked { win: Window, inter: Technique, spec: LoopSpec },
    /// The counters live in a `dls-service` job reached through the
    /// node's agent connection; `node` is the worker id there.
    Service { agent: &'a Mutex<Client>, job: JobId, node: u32 },
}

impl GlobalQueue<'_> {
    /// Collectively allocate the global window on `world` and wrap it
    /// in the RMA realisation `mode` names.
    pub(super) fn open_rma(
        world: &Comm,
        mode: GlobalQueueMode,
        inter: Technique,
        spec: LoopSpec,
        log: Option<&RmaLog>,
    ) -> mpisim::Result<Self> {
        let mut win = Window::allocate(world, if world.rank() == 0 { 2 } else { 0 })?;
        if let Some(log) = log {
            win.record_to(log);
        }
        Ok(match mode {
            GlobalQueueMode::SingleAtomic => {
                GlobalQueue::Atomic { win, inter, spec, cursor: Mutex::new(SchedState::START) }
            }
            GlobalQueueMode::LockedCounters => GlobalQueue::Locked { win, inter, spec },
        })
    }

    fn window(&self) -> Option<&Window> {
        match self {
            GlobalQueue::Atomic { win, .. } | GlobalQueue::Locked { win, .. } => Some(win),
            GlobalQueue::Service { .. } => None,
        }
    }

    /// Tell the RMA log the ranks just met at a world barrier.
    pub(super) fn note_barrier(&self) {
        if let Some(win) = self.window() {
            win.note_barrier();
        }
    }

    /// Bare `fetch_and_op` calls must sit in a passive-target access
    /// epoch: the atomic realisation holds one `lock_all` for the run.
    pub(super) fn begin(&self) {
        if let GlobalQueue::Atomic { win, .. } = self {
            win.lock_all();
        }
    }

    /// Close what [`GlobalQueue::begin`] opened.
    pub(super) fn end(&self) -> mpisim::Result<()> {
        match self {
            GlobalQueue::Atomic { win, .. } => win.unlock_all(),
            GlobalQueue::Locked { .. } | GlobalQueue::Service { .. } => Ok(()),
        }
    }

    /// This rank's counters on the global window (zero over TCP).
    pub(super) fn rank_stats(&self) -> RankWinStats {
        self.window().map(Window::rank_stats).unwrap_or_default()
    }

    /// Obtain the next inter-level chunk. RMA failures surface as
    /// `Err`; network failures panic (see [`super::run_live_net`]).
    pub(super) fn fetch(&self) -> mpisim::Result<Fetched> {
        match self {
            GlobalQueue::Atomic { win, inter, spec, cursor } => {
                // The flush completes the operation at the target before
                // the caller's deposit proceeds.
                let step = win.fetch_and_op(0, GSTEP, 1, RmaOp::Sum)? as u64;
                win.flush(0)?;
                let mut cursor = cursor.lock().expect("a fetch panicked mid-step");
                Ok(match dls::single_counter::assignment_from(inter, spec, &mut cursor, step) {
                    Some((start, len)) => Fetched::Chunk(start, start + len),
                    None => Fetched::Done,
                })
            }
            GlobalQueue::Locked { win, inter, spec } => {
                win.lock(LockKind::Exclusive, 0)?;
                let mut state = SchedState {
                    step: win.get(0, GSTEP)? as u64,
                    scheduled: win.get(0, GSCHED)? as u64,
                };
                let fetched = if let Some(chunk) = state.next_chunk(spec, inter) {
                    win.put(0, GSTEP, state.step as i64)?;
                    win.put(0, GSCHED, state.scheduled as i64)?;
                    Fetched::Chunk(chunk.start, chunk.end())
                } else {
                    Fetched::Done
                };
                win.unlock(LockKind::Exclusive, 0)?;
                Ok(fetched)
            }
            GlobalQueue::Service { agent, job, node } => {
                let mut agent = agent.lock().expect("node agent poisoned");
                Ok(match agent.fetch(*job, *node, 1).expect("fetch chunk") {
                    FetchReply::Chunks(chunks) => {
                        let c = chunks[0];
                        // Settle the lease as soon as the chunk is
                        // safely ours: in-process ranks cannot die
                        // independently of the agent connection.
                        agent.report_done(*job, &[c.lease]).expect("report lease");
                        Fetched::Chunk(c.lo, c.hi)
                    }
                    FetchReply::Pending => Fetched::Pending,
                    FetchReply::Done => Fetched::Done,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls::Kind;
    use dls_service::{Server, ServiceConfig};
    use std::time::{Duration, Instant};

    #[test]
    fn service_fetch_is_pending_while_a_peer_holds_every_lease() {
        let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
        let mut holder = Client::connect(srv.addr()).expect("connect");
        let job = holder.create_job(40, Kind::STATIC, &[1.0, 1.0]).expect("create job");
        let FetchReply::Chunks(held) = holder.fetch(job, 1, 2).expect("fetch") else {
            panic!("the fresh job must grant chunks")
        };
        assert_eq!(held.len(), 2, "STATIC over two nodes is two chunks");

        let agent = Mutex::new(Client::connect(srv.addr()).expect("agent"));
        let queue = GlobalQueue::Service { agent: &agent, job, node: 0 };
        // Everything is scheduled, nothing settled: the ranges may come
        // back, so the job is neither done nor able to grant.
        assert_eq!(queue.fetch().expect("fetch"), Fetched::Pending);

        // The holder's disconnect returns its leases to the server's pool.
        drop(holder);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut chunks = Vec::new();
        loop {
            match queue.fetch().expect("fetch") {
                Fetched::Chunk(lo, hi) => chunks.push((lo, hi)),
                Fetched::Pending => {
                    assert!(Instant::now() < deadline, "reclaim never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Fetched::Done => break,
            }
        }
        chunks.sort_unstable();
        assert_eq!(chunks, [(0, 20), (20, 40)]);
        srv.shutdown();
    }
}

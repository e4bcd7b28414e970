//! Real-thread MPI+MPI executor: the paper's proposed approach on the
//! `mpisim` runtime.
//!
//! * The **global work queue** is the two counters `[step, scheduled]`
//!   — the distributed chunk-calculation state — behind
//!   [`GlobalQueue::fetch`]: an RMA window exposed by world rank 0, or
//!   (for [`super::run_live_net`]) a `dls-service` job.
//! * Each node's **local work queue** is an `MPI_Win_allocate_shared`
//!   window on the node communicator holding
//!   `[refilling, global_done, lo, hi, step, taken]`, updated under
//!   `MPI_Win_lock(EXCLUSIVE)` + `MPI_Win_sync`.
//! * A worker that drains the local queue and sees no refill in flight
//!   sets the `refilling` flag and fetches the next chunk itself — the
//!   fastest worker takes the responsibility; nobody blocks.

use super::global_queue::{Fetched, GlobalQueue};
use super::run::{assemble, Ledger};
use super::{LiveConfig, LiveResult};
use crate::layout::{GLOBAL_DONE, HI, LO, REFILLING, STEP, TAKEN};
use crate::queue::SubChunk;
use cluster_sim::trace::SegmentKind;
use dls_service::{Client, JobId};
use mpisim::{LockKind, RankWinStats, RmaLog, Topology, Universe, Window};
use std::sync::Mutex;
use std::time::Instant;
use workloads::Workload;

/// Start of the AWF measurement history, right after the queue's own
/// slots: per local rank, two slots — cumulative iterations and
/// cumulative time in ns.
const HIST_BASE: usize = TAKEN + 1;

/// Start of the lease area: per local rank, four slots —
/// `[lo, hi, epoch, heartbeat]`. An odd epoch means the range
/// `[lo, hi)` is granted but not completed; the owner bumps it even on
/// completion (settled at its next queue poll), a reclaimer bumps it
/// even when re-depositing a dead owner's range. The heartbeat ticks on
/// every queue poll — piggybacked liveness, no extra messages.
fn lease_base(wpn: u32) -> usize {
    HIST_BASE + 2 * wpn as usize
}

const LEASE_LO: usize = 0;
const LEASE_HI: usize = 1;
const LEASE_EPOCH: usize = 2;
const HEARTBEAT: usize = 3;

fn lease_slot(wpn: u32, local: u32, field: usize) -> usize {
    lease_base(wpn) + 4 * local as usize + field
}

/// Which local rank currently holds the refill role (valid while
/// `REFILLING == 1`); lets survivors detect a refiller that died
/// between claiming the role and depositing.
fn refiller_slot(wpn: u32) -> usize {
    lease_base(wpn) + 4 * wpn as usize
}

fn local_slots(wpn: u32) -> usize {
    refiller_slot(wpn) + 1
}

/// Acquire the node-window lock. Fault-free runs use the blocking FIFO
/// path untouched; under an active fault plan the acquisition is a
/// bounded-poll loop so a lock abandoned by a dead holder is detected
/// (after `detect_polls` failed attempts) and revoked via
/// [`Window::repair_lock`]. Returns the dead holder's local rank when
/// *this* call performed a repair.
fn lock_queue(
    win: &Window,
    node_comm: &mpisim::Comm,
    plan_active: bool,
    detect_polls: u32,
) -> mpisim::Result<Option<u32>> {
    if !plan_active {
        win.lock(LockKind::Exclusive, 0)?;
        return Ok(None);
    }
    let mut repaired = None;
    let mut polls = 0u32;
    loop {
        if win.try_lock_exclusive(0)? {
            return Ok(repaired);
        }
        polls += 1;
        if polls >= detect_polls {
            polls = 0;
            if let Some(h) = win.exclusive_holder(0)? {
                if node_comm.is_failed(h) && win.repair_lock(0)? {
                    repaired = Some(h);
                }
            }
            std::thread::yield_now();
        }
        std::hint::spin_loop();
    }
}

/// Run the MPI+MPI approach with real threads.
///
/// Allocation or RMA failures from any rank surface as `Err`.
pub fn run_live_mpi_mpi(
    cfg: &LiveConfig,
    workload: &(dyn Workload + Sync),
) -> mpisim::Result<LiveResult> {
    run_ranks(cfg, workload, None)
}

/// The MPI+MPI rank loop. The global queue is the RMA window
/// `cfg.global_mode` names, or the `service` job (one agent connection
/// per node) when the caller brings one.
pub(super) fn run_ranks(
    cfg: &LiveConfig,
    workload: &(dyn Workload + Sync),
    service: Option<(&[Mutex<Client>], JobId)>,
) -> mpisim::Result<LiveResult> {
    let topology = Topology::new(cfg.nodes, cfg.workers_per_node);
    let n = workload.n_iters();
    assert!(n <= i64::MAX as u64, "loop too large for i64 window slots");
    let inter_spec = dls::LoopSpec::new(n, cfg.nodes);
    let wpn = cfg.workers_per_node;
    let spec = cfg.spec;
    let awf = cfg.awf;
    let weights = cfg.weights.clone();
    let global_mode = cfg.global_mode;
    let do_trace = cfg.trace;
    let rma_log = cfg.record_rma.then(RmaLog::new);
    let log_for_ranks = rma_log.clone();
    let faults = cfg.faults.clone();
    let epoch = Instant::now();

    let outcomes = Universe::run(topology, move |p| -> mpisim::Result<Ledger> {
        let world = p.world();
        let me = world.rank();
        let my_node = p.node_id();
        let queue = match service {
            Some((agents, job)) => {
                GlobalQueue::Service { agent: &agents[my_node as usize], job, node: my_node }
            }
            None => GlobalQueue::open_rma(
                world,
                global_mode,
                spec.inter,
                inter_spec,
                log_for_ranks.as_ref(),
            )?,
        };
        let node_comm = world.split_shared()?;
        let mut local_win = Window::allocate_shared(
            &node_comm,
            if node_comm.rank() == 0 { local_slots(wpn) } else { 0 },
        )?;
        if let Some(log) = &log_for_ranks {
            local_win.record_to(log);
        }
        world.barrier();
        queue.note_barrier();
        local_win.note_barrier();
        queue.begin();

        let plan_active = faults.is_active();
        let detect_polls = faults.recovery.detect_polls;
        let my_local = node_comm.rank();
        let world_of = |local: u32| my_node * wpn + local;
        let straggle = faults.straggle_factor(me, u64::MAX);
        // Mirror of my own LEASE_EPOCH slot — single-writer while alive.
        let mut my_epoch: i64 = 0;
        let mut fetches_done: u32 = 0;
        let timed = do_trace || awf.is_some() || straggle > 1.0;
        let mut out = Ledger::new(me, Some(my_node), epoch, do_trace, timed);

        loop {
            // ---- probe the local queue under the window lock ----
            if let Some(h) = lock_queue(&local_win, &node_comm, plan_active, detect_polls)? {
                out.lock_repaired(world_of(h));
            }
            local_win.sync();
            if plan_active {
                // Settle my previous grant (the sub-chunk it covered is
                // done — this poll is the completion acknowledgement)
                // and tick the piggybacked heartbeat.
                if my_epoch % 2 == 1 {
                    my_epoch += 1;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                }
                let hb_slot = lease_slot(wpn, my_local, HEARTBEAT);
                let hb = local_win.get(0, hb_slot)?;
                local_win.put(0, hb_slot, hb + 1)?;
                if faults
                    .crash_holding_lock_after(me)
                    .is_some_and(|k| out.sub_chunks() >= u64::from(k))
                {
                    // Die inside the critical section: mark the failure
                    // and leave without unlocking — survivors must
                    // detect the abandoned grant and repair the lock.
                    node_comm.mark_failed();
                    local_win.sync();
                    out.crashed(true);
                    break;
                }
            }
            let lo = local_win.get(0, LO)? as u64;
            let hi = local_win.get(0, HI)? as u64;
            let step = local_win.get(0, STEP)? as u64;
            let taken = local_win.get(0, TAKEN)? as u64;
            let len = hi - lo;

            if taken < len {
                let local = node_comm.rank();
                // Weight: learned from the shared history under AWF,
                // configured statically otherwise. AWF replaces the
                // intra technique with WF over the learned weights.
                let (technique, weight) = if awf.is_some() {
                    let mut hist: Vec<(u64, u64)> = Vec::with_capacity(wpn as usize);
                    for r in 0..wpn as usize {
                        let iters = local_win.get(0, HIST_BASE + 2 * r)? as u64;
                        let time = local_win.get(0, HIST_BASE + 2 * r + 1)? as u64;
                        hist.push((iters, time));
                    }
                    let w = crate::adaptive::weights_from_hist(&hist)[local as usize];
                    (dls::Technique::wf(), w)
                } else {
                    (spec.intra, weights.get(me as usize).copied().unwrap_or(1.0))
                };
                let ctx = dls::technique::WorkerCtx { worker: local, weight };
                let size = crate::queue::sub_chunk_size_for(&technique, len, wpn, step, taken, ctx);
                local_win.put(0, STEP, (step + 1) as i64)?;
                local_win.put(0, TAKEN, (taken + size) as i64)?;
                let sub = SubChunk { start: lo + taken, end: lo + taken + size };
                if plan_active {
                    // Record the grant as a lease *in the same critical
                    // section as the take*: if this rank dies before the
                    // next poll settles it, the odd epoch plus the dead
                    // flag tell survivors exactly which range was lost.
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_LO), sub.start as i64)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_HI), sub.end as i64)?;
                    my_epoch += 1; // odd: active
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                    if faults
                        .crash_after_sub_chunks(me)
                        .is_some_and(|k| out.sub_chunks() + 1 >= u64::from(k))
                    {
                        // Die after taking, before executing: the queue
                        // counters already account the range to this
                        // rank, so only the lease can get it back.
                        node_comm.mark_failed();
                        local_win.sync();
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        out.crashed(false);
                        break;
                    }
                }
                local_win.sync();
                local_win.unlock(LockKind::Exclusive, 0)?;
                let started = out.cut(SegmentKind::Sched);
                out.execute(workload, sub);
                if straggle > 1.0 {
                    // Injected straggler: stretch the kernel time to
                    // `straggle`× by busy-waiting out the difference.
                    let target = started + ((out.now() - started) as f64 * straggle) as u64;
                    while out.now() < target {
                        std::hint::spin_loop();
                    }
                }
                let finished = out.cut(SegmentKind::Compute);
                if awf.is_some() {
                    // Charge the measured kernel time to the shared
                    // history (AWF-C style: per chunk completion).
                    let elapsed = (finished - started).min(i64::MAX as u64) as i64;
                    lock_queue(&local_win, &node_comm, plan_active, detect_polls)?;
                    // Unified-model visibility: sync before reading
                    // counters peers put under their own epochs (the
                    // rma-check MissingSync rule flags the read-modify-
                    // write below as stale without it).
                    local_win.sync();
                    let i_slot = HIST_BASE + 2 * local as usize;
                    let it = local_win.get(0, i_slot)?;
                    let tm = local_win.get(0, i_slot + 1)?;
                    local_win.put(0, i_slot, it + sub.len() as i64)?;
                    // Ensure a nonzero time so rates stay finite.
                    local_win.put(0, i_slot + 1, tm + elapsed.max(1))?;
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.cut(SegmentKind::Sched);
                }
                continue;
            }

            let global_done = local_win.get(0, GLOBAL_DONE)? != 0;
            let refilling = local_win.get(0, REFILLING)? != 0;
            if plan_active {
                // Queue drained: scan peer leases for a range stranded
                // by a dead owner before exiting, backing off, or
                // refilling. The queue holds one range, so reclaim one
                // lease per poll; the next poll picks up any others.
                let mut reclaimed = false;
                for r in (0..wpn).filter(|&r| r != my_local && node_comm.is_failed(r)) {
                    let e = local_win.get(0, lease_slot(wpn, r, LEASE_EPOCH))?;
                    if e % 2 == 1 {
                        let rlo = local_win.get(0, lease_slot(wpn, r, LEASE_LO))?;
                        let rhi = local_win.get(0, lease_slot(wpn, r, LEASE_HI))?;
                        local_win.put(0, LO, rlo)?;
                        local_win.put(0, HI, rhi)?;
                        local_win.put(0, STEP, 0)?;
                        local_win.put(0, TAKEN, 0)?;
                        local_win.put(0, lease_slot(wpn, r, LEASE_EPOCH), e + 1)?;
                        local_win.note_reclaim();
                        out.reclaims += 1;
                        out.deposits += 1;
                        let at = out.now();
                        out.recovery.push(resilience::RecoveryEvent::LeaseExpired {
                            owner: world_of(r),
                            lo: rlo as u64,
                            hi: rhi as u64,
                            at_ns: at,
                        });
                        out.recovery.push(resilience::RecoveryEvent::Reclaim {
                            by: me,
                            owner: world_of(r),
                            lo: rlo as u64,
                            hi: rhi as u64,
                            at_ns: at,
                        });
                        reclaimed = true;
                        break;
                    }
                }
                if reclaimed {
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.cut(SegmentKind::Sched);
                    continue;
                }
                if refilling {
                    // Refill in flight: if the rank that claimed the
                    // role died before depositing, fail the role over
                    // (its fetched chunk, if any, sits in its lease and
                    // was reclaimed by the scan above).
                    let rr = local_win.get(0, refiller_slot(wpn))? as u32;
                    if node_comm.is_failed(rr) {
                        local_win.put(0, REFILLING, 0)?;
                        local_win.sync();
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        out.recovery.push(resilience::RecoveryEvent::RefillFailover {
                            node: my_node,
                            from: world_of(rr),
                            at_ns: out.now(),
                        });
                        out.cut(SegmentKind::Sched);
                        continue;
                    }
                }
            }
            if global_done {
                local_win.unlock(LockKind::Exclusive, 0)?;
                out.cut(SegmentKind::Sched);
                break;
            }
            if refilling {
                // A peer is refilling: back off briefly and re-probe.
                local_win.unlock(LockKind::Exclusive, 0)?;
                std::thread::yield_now();
                // A queue-empty observation while a peer refills is peer
                // waiting, not scheduling work of our own.
                out.cut(SegmentKind::Sync);
                continue;
            }
            // This worker becomes the refiller.
            local_win.put(0, REFILLING, 1)?;
            if plan_active {
                local_win.put(0, refiller_slot(wpn), i64::from(my_local))?;
            }
            local_win.sync();
            local_win.unlock(LockKind::Exclusive, 0)?;

            // ---- fetch a chunk from the global queue ----
            out.global_accesses += 1;
            let fetched = queue.fetch()?;

            if let (true, Fetched::Chunk(clo, chi)) = (plan_active, fetched) {
                fetches_done += 1;
                if faults.crash_as_refiller_after(me).is_some_and(|g| fetches_done >= g) {
                    // Die as the refiller: the global step is already
                    // consumed, so the fetched chunk exists only in this
                    // rank's lease. Publish it and stop — REFILLING
                    // stays set until a survivor fails the role over.
                    lock_queue(&local_win, &node_comm, plan_active, detect_polls)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_LO), clo as i64)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_HI), chi as i64)?;
                    my_epoch += 1; // odd: active
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                    node_comm.mark_failed();
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.crashed(false);
                    break;
                }
            }

            // ---- deposit, mark the node done, or hand the role back ----
            if let Some(h) = lock_queue(&local_win, &node_comm, plan_active, detect_polls)? {
                out.lock_repaired(world_of(h));
            }
            match fetched {
                Fetched::Chunk(clo, chi) => {
                    out.global_fetches += 1;
                    out.deposits += 1;
                    local_win.put(0, LO, clo as i64)?;
                    local_win.put(0, HI, chi as i64)?;
                    local_win.put(0, STEP, 0)?;
                    local_win.put(0, TAKEN, 0)?;
                }
                Fetched::Done => {
                    local_win.put(0, GLOBAL_DONE, 1)?;
                }
                // Another node's unsettled lease may still come back as
                // work: leave the queue as it is and only release the
                // refill role.
                Fetched::Pending => {}
            }
            local_win.put(0, REFILLING, 0)?;
            local_win.sync();
            local_win.unlock(LockKind::Exclusive, 0)?;
            if fetched == Fetched::Pending {
                // Waiting on a peer node, like a refill in flight.
                std::thread::yield_now();
                out.cut(SegmentKind::Sync);
            } else {
                // The whole refill transaction (global fetch + deposit)
                // is scheduling overhead.
                out.cut(SegmentKind::Sched);
            }
        }

        queue.end()?;
        out.finish();
        world.barrier();
        queue.note_barrier();
        local_win.note_barrier();
        if node_comm.rank() == 0 {
            out.lock_stats = Some(local_win.lock_stats(0)?);
        }
        let lw = local_win.rank_stats();
        let gw = queue.rank_stats();
        out.win_stats = RankWinStats {
            lock_acquisitions: lw.lock_acquisitions + gw.lock_acquisitions,
            failed_polls: lw.failed_polls + gw.failed_polls,
            lock_wait_ns: lw.lock_wait_ns + gw.lock_wait_ns,
            lock_held_ns: lw.lock_held_ns + gw.lock_held_ns,
            rma_atomic_ops: lw.rma_atomic_ops + gw.rma_atomic_ops,
            puts: lw.puts + gw.puts,
            gets: lw.gets + gw.gets,
            reclaims: lw.reclaims + gw.reclaims,
        };
        Ok(out)
    });

    let outcomes = outcomes.into_iter().collect::<mpisim::Result<Vec<_>>>()?;
    let rma = rma_log.map(|l| l.records()).unwrap_or_default();
    Ok(assemble(cfg, outcomes, rma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, GlobalQueueMode, HierSpec};
    use crate::live::{assert_exact, serial_checksum};
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> (LiveResult, u64) {
        let w = Synthetic::uniform(n, 1, 100, 3);
        let cfg = LiveConfig::new(nodes, wpn, spec, Approach::MpiMpi);
        let serial = serial_checksum(&w);
        (run_live_mpi_mpi(&cfg, &w).expect("live run"), serial)
    }

    #[test]
    fn all_paper_combinations_execute_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
                let (r, serial) = run(HierSpec::new(inter, intra), 2, 3, 600);
                assert_exact(&r, serial, 600);
            }
        }
    }

    #[test]
    fn single_node() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 4, 300);
        assert_exact(&r, serial, 300);
    }

    #[test]
    fn single_worker_per_node() {
        let (r, serial) = run(HierSpec::new(Kind::FAC2, Kind::GSS), 3, 1, 300);
        assert_exact(&r, serial, 300);
    }

    #[test]
    fn tiny_loop_fewer_iterations_than_workers() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 5);
        assert_exact(&r, serial, 5);
    }

    #[test]
    fn lock_stats_populated() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 2, 4, 500);
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_and_window_counters_recorded() {
        let w = Synthetic::uniform(600, 1, 100, 3);
        let mut cfg = LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.trace = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert!(!r.trace.segments().is_empty());
        let totals = r.trace.totals();
        assert!(totals.compute > 0, "compute segments must be recorded");
        assert!(totals.sched > 0, "sched segments must be recorded");
        for w in 0..6 {
            assert!(r.trace.worker_totals(w).total() > 0, "worker {w} has an empty timeline");
        }
        // Every rank locks the local window at least once per sub-chunk
        // and issues a global atomic per refill attempt (successful
        // fetches plus the exhaustion probe that comes back empty).
        for ws in &r.stats.workers {
            assert!(ws.lock_time_ns > 0, "time-in-lock must accumulate");
            assert!(ws.rma_ops >= ws.global_fetches);
        }
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_disabled_by_default() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 2, 100);
        assert!(r.trace.segments().is_empty());
    }

    #[test]
    fn untraced_run_still_times_its_lock_epochs() {
        // The rank loop reads no clock without a trace; the window's own
        // grant/release stamps must keep `lock_time_ns` alive.
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 2, 2, 400);
        assert!(r.trace.segments().is_empty());
        for ws in &r.stats.workers {
            assert!(ws.lock_time_ns > 0, "time-in-lock must accumulate untraced");
        }
    }

    #[test]
    fn time_in_lock_fits_inside_the_run() {
        // The atomic global queue holds one `lock_all` from the first
        // fetch to the last; that access epoch is not time in lock, or a
        // worker would report `nodes` x the run on top of its own epochs.
        let w = workloads::Spin(Synthetic::constant(40, 500_000));
        let cfg = LiveConfig::new(2, 1, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        assert_eq!(cfg.global_mode, GlobalQueueMode::SingleAtomic);
        let started = Instant::now();
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        let wall_ns = started.elapsed().as_nanos() as u64;
        assert!(r.trace.segments().is_empty());
        for node in &r.stats.nodes {
            // Every local epoch is in the window's exactly-timed prefix,
            // so the bound below is arithmetic, not an estimate.
            assert!(node.lock_acquisitions <= 64, "{} epochs", node.lock_acquisitions);
        }
        for ws in &r.stats.workers {
            assert!(ws.lock_time_ns > 0, "local epochs are still timed");
            assert!(
                ws.lock_time_ns <= wall_ns,
                "{} ns in lock during a {wall_ns} ns run",
                ws.lock_time_ns
            );
        }
    }

    #[test]
    fn unblocked_run_reports_no_lock_polls() {
        // One rank has nobody to wait for: not one failed poll, on
        // either window.
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 1, 400);
        assert_exact(&r, serial, 400);
        assert_eq!(r.stats.workers[0].lock_polls, 0);
        assert_eq!((r.stats.nodes[0].lock_polls, r.stats.nodes[0].lock_contended), (0, 0));
    }

    #[test]
    fn every_worker_participates_on_balanced_load() {
        let w = Synthetic::constant(2000, 20_000); // ~20us per iteration
        let cfg = LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert_eq!(r.stats.total_iterations, 2000);
    }

    #[test]
    fn rma_log_disabled_by_default_and_recorded_on_request() {
        let w = Synthetic::uniform(300, 1, 100, 3);
        let cfg = LiveConfig::new(2, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert!(r.rma.is_empty());

        let mut cfg = cfg;
        cfg.record_rma = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        // Every rank attaches both windows and the protocol locks,
        // syncs, gets and puts throughout — the log must see them all.
        assert!(r.rma.len() > 50, "only {} records", r.rma.len());
        let wins: std::collections::HashSet<u64> = r.rma.iter().map(|rec| rec.win).collect();
        assert_eq!(wins.len(), 3, "global + one shared window per node");
    }
}

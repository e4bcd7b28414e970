//! Real-thread MPI+MPI executor: the paper's proposed approach on the
//! `mpisim` runtime.
//!
//! * The **global work queue** is the two counters `[step, scheduled]`
//!   — the distributed chunk-calculation state — behind
//!   [`GlobalQueue::fetch`]: an RMA window exposed by world rank 0, or
//!   (for [`super::run_live_net`]) a `dls-service` job.
//! * Each node's **local work queue** is an `MPI_Win_allocate_shared`
//!   window on the node communicator. Lock-free
//!   ([`NodeQueueMode::Counter`]) it is the packed word beside
//!   `[lo, hi)`, read with `MPI_Fetch_and_op` and advanced with
//!   `MPI_Compare_and_swap` inside a run-long `MPI_Win_lock_all`
//!   ([`counter_loop`]). Locked it is
//!   `[refilling, global_done, lo, hi, step, taken]`, updated under
//!   `MPI_Win_lock(EXCLUSIVE)` + `MPI_Win_sync`, with AWF's history and
//!   the fault plan's leases beside it.
//! * A worker that drains the local queue and sees no refill in flight
//!   claims the refill and fetches the next chunk itself — the fastest
//!   worker takes the responsibility; nobody blocks. It deposits the
//!   chunk and takes its first sub-chunk under one grant. Each take,
//!   empty probe and deposit is a [`crate::protocol`] call.

use super::global_queue::GlobalQueue;
use super::run::{assemble, Ledger};
use super::window_queue::{CounterQueue, WindowQueue};
use super::{LiveResult, RunConfig};
use crate::config::NodeQueueMode;
use crate::layout::TAKEN;
use crate::protocol::{self, counter, Empty, Fetched, Flags, NodeQueue};
use cluster_sim::trace::SegmentKind;
use dls::technique::WorkerCtx;
use dls_service::{Client, JobId};
use mpisim::{LockKind, RankWinStats, RmaLog, Topology, Universe, Window};
use std::sync::Mutex;
use std::time::Instant;
use workloads::Workload;

/// Start of the AWF measurement history, right after the queue's own
/// slots: per local rank, two slots — cumulative iterations and
/// cumulative time in ns.
const HIST_BASE: usize = TAKEN + 1;

const LEASE_LO: usize = 0;
const LEASE_HI: usize = 1;
const LEASE_EPOCH: usize = 2;

/// The lease area follows the history: per local rank, three slots —
/// `[lo, hi, epoch]`. An odd epoch means the range `[lo, hi)` is
/// granted but not completed; the owner bumps it even on completion
/// (settled at its next queue poll), a reclaimer bumps it even when
/// re-depositing a dead owner's range. Liveness is not kept here: a
/// rank is dead when the node communicator marks it failed, and a lock
/// holder is presumed dead after `detect_polls` failed tries.
fn lease_slot(wpn: u32, local: u32, field: usize) -> usize {
    HIST_BASE + 2 * wpn as usize + 3 * local as usize + field
}

/// The last slot, after every lease: which local rank holds the refill
/// role (valid while `REFILLING == 1`); lets survivors detect a
/// refiller that died between claiming the role and depositing.
fn refiller_slot(wpn: u32) -> usize {
    lease_slot(wpn, wpn, 0)
}

/// Run the MPI+MPI approach with real threads.
///
/// Allocation or RMA failures from any rank surface as `Err`.
pub fn run_live_mpi_mpi(
    cfg: &RunConfig,
    workload: &(dyn Workload + Sync),
) -> mpisim::Result<LiveResult> {
    run_ranks(cfg, workload, None)
}

/// The MPI+MPI rank loop. The global queue is the RMA window
/// `cfg.global_mode` names, or the `service` job (one agent connection
/// per node) when the caller brings one.
pub(super) fn run_ranks(
    cfg: &RunConfig,
    workload: &(dyn Workload + Sync),
    service: Option<(&[Mutex<Client>], JobId)>,
) -> mpisim::Result<LiveResult> {
    let topology = Topology::new(cfg.topology.nodes, cfg.topology.workers_per_node);
    let n = workload.n_iters();
    assert!(n <= i64::MAX as u64, "loop too large for i64 window slots");
    let inter_spec = dls::LoopSpec::new(n, cfg.topology.nodes);
    let (wpn, spec, awf, faults) = (cfg.topology.workers_per_node, cfg.spec, cfg.awf, &cfg.faults);
    let lock_free = cfg.node_queue(n) == NodeQueueMode::Counter;
    let rma_log = cfg.record_rma.then(RmaLog::new);
    let log = rma_log.as_ref();
    let epoch = Instant::now();

    let outcomes = Universe::run(topology, |p| -> mpisim::Result<Ledger> {
        let world = p.world();
        let me = world.rank();
        let my_node = p.node_id();
        let queue = match service {
            Some((agents, job)) => {
                GlobalQueue::Service { agent: &agents[my_node as usize], job, node: my_node }
            }
            None => GlobalQueue::open_rma(world, cfg.global_mode, spec.inter, inter_spec, log)?,
        };
        let node_comm = world.split_shared()?;
        let mut local_win = Window::allocate_shared(
            &node_comm,
            if node_comm.rank() == 0 { refiller_slot(wpn) + 1 } else { 0 },
        )?;
        if let Some(log) = log {
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
        // Take the node-window lock. Fault-free runs use the blocking
        // FIFO path untouched; under an active fault plan it is a
        // bounded-poll loop, so a lock abandoned by a dead holder is
        // detected (after `detect_polls` failed attempts), revoked via
        // `Window::repair_lock` and the repair recorded in `out`.
        let lock = |out: &mut Ledger| -> mpisim::Result<()> {
            if !plan_active {
                return local_win.lock(LockKind::Exclusive, 0);
            }
            let mut polls = 0u32;
            loop {
                if local_win.try_lock_exclusive(0)? {
                    return Ok(());
                }
                polls += 1;
                if polls >= detect_polls {
                    polls = 0;
                    if let Some(h) = local_win.exclusive_holder(0)? {
                        if node_comm.is_failed(h) && local_win.repair_lock(0)? {
                            out.lock_repaired(world_of(h));
                        }
                    }
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
        };
        let my_weight = cfg.weights.get(me as usize).copied().unwrap_or(1.0);
        let straggle = faults.straggle_factor(me, u64::MAX);
        // Mirror of my own LEASE_EPOCH slot — single-writer while alive.
        let mut my_epoch: i64 = 0;
        let timed = cfg.trace || awf.is_some() || straggle > 1.0;
        let mut out = Ledger::new(me, Some(my_node), epoch, cfg.trace, timed);

        if lock_free {
            local_win.lock_all();
            counter_loop(
                &CounterQueue::new(&local_win),
                &queue,
                &spec.intra,
                wpn,
                workload,
                &mut out,
            )?;
            local_win.unlock_all()?;
        } else {
            // The refiller's fetch, deposited under its next grant, and
            // the flags as its claim left them.
            let mut holding: Option<Fetched> = None;
            let mut flags = Flags::default();
            'poll: loop {
                lock(&mut out)?;
                local_win.sync();
                let mut q = WindowQueue::new(&local_win);
                if let Some(fetched) = holding.take() {
                    // ---- deposit, mark the node done, or hand the role back ----
                    if let Fetched::Chunk(..) = fetched {
                        out.global_fetches += 1;
                        out.deposits += 1;
                    }
                    let was = flags;
                    protocol::deposit(&mut q, &mut flags, fetched)?;
                    q.write_flags(was, flags)?;
                    if !matches!(fetched, Fetched::Chunk(..)) {
                        local_win.sync();
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        if fetched == Fetched::Pending {
                            // Another node's unsettled lease may still come
                            // back as work: wait on that peer node, like a
                            // refill in flight.
                            std::thread::yield_now();
                            out.cut(SegmentKind::Sync);
                            continue;
                        }
                        // The whole refill (global fetch + deposit) is
                        // scheduling overhead. Fault-free, the queue is
                        // drained: nobody else deposits while this rank
                        // refills. Under a fault plan a survivor may have
                        // re-deposited a dead peer's lease, or one may
                        // still be due: the next probe scans for it.
                        out.cut(SegmentKind::Sched);
                        if plan_active {
                            continue;
                        }
                        break;
                    }
                    // A chunk: take its first sub-chunk under this grant.
                } else if plan_active {
                    // Settle my previous grant (the sub-chunk it covered is
                    // done — this poll is the completion acknowledgement).
                    if my_epoch % 2 == 1 {
                        my_epoch += 1;
                        local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                    }
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
                // Weight: learned from the shared history under AWF (read
                // only when there is a range to weigh), configured
                // statically otherwise. AWF replaces the intra technique
                // with WF over the learned weights.
                let (technique, weight) = match awf {
                    Some(_) if q.front()?.is_some() => {
                        let slot = |i: usize| local_win.get(0, HIST_BASE + i).map(|v| v as u64);
                        let hist = (0..wpn as usize)
                            .map(|r| Ok((slot(2 * r)?, slot(2 * r + 1)? as f64)))
                            .collect::<mpisim::Result<Vec<_>>>()?;
                        let w = dls::weighted::rate_weights(hist)[my_local as usize];
                        (dls::Technique::wf(), w)
                    }
                    _ => (spec.intra, my_weight),
                };
                let ctx = WorkerCtx { worker: my_local, weight };

                if let Some(sub) = protocol::take(&mut q, &technique, wpn, ctx)? {
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
                    let polled = out.opened();
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
                    if let Some(variant) = awf {
                        // Charge the measured kernel time to the shared
                        // history at every chunk completion; -D/-E also
                        // charge the scheduling segment that preceded it.
                        let from = if variant.includes_overhead() { polled } else { started };
                        let elapsed = (finished - from).min(i64::MAX as u64) as i64;
                        lock(&mut out)?;
                        // Unified-model visibility: sync before reading
                        // counters peers put under their own epochs, or the
                        // read-modify-write below may start from a stale
                        // value. Pinned by the unit test
                        // `awf_history_update_is_a_synced_read_modify_write`.
                        local_win.sync();
                        let i_slot = HIST_BASE + 2 * my_local as usize;
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

                flags = q.flags()?;
                if plan_active {
                    // Queue drained: scan peer leases for a range stranded
                    // by a dead owner before exiting, backing off, or
                    // refilling. The queue holds one range, so reclaim one
                    // lease per poll; the next poll picks up any others.
                    for r in (0..wpn).filter(|&r| r != my_local && node_comm.is_failed(r)) {
                        let e = local_win.get(0, lease_slot(wpn, r, LEASE_EPOCH))?;
                        if e % 2 == 1 {
                            let rlo = local_win.get(0, lease_slot(wpn, r, LEASE_LO))? as u64;
                            let rhi = local_win.get(0, lease_slot(wpn, r, LEASE_HI))? as u64;
                            q.push(rlo, rhi)?;
                            local_win.put(0, lease_slot(wpn, r, LEASE_EPOCH), e + 1)?;
                            local_win.note_reclaim();
                            out.reclaimed(world_of(r), rlo, rhi);
                            local_win.sync();
                            local_win.unlock(LockKind::Exclusive, 0)?;
                            out.cut(SegmentKind::Sched);
                            continue 'poll;
                        }
                    }
                    if flags.refilling {
                        // Refill in flight: if the rank that claimed the
                        // role died before depositing, fail the role over
                        // (its fetched chunk, if any, sits in its lease and
                        // was reclaimed by the scan above).
                        let rr = local_win.get(0, refiller_slot(wpn))? as u32;
                        if node_comm.is_failed(rr) {
                            q.write_flags(flags, Flags { refilling: false, ..flags })?;
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
                let was = flags;
                let probe = protocol::empty_probe(&mut flags, true);
                q.write_flags(was, flags)?;
                match probe {
                    Empty::Retire => {
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        out.cut(SegmentKind::Sched);
                        break;
                    }
                    Empty::PeerRefilling => {
                        // A peer is refilling: back off briefly and re-probe.
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        std::thread::yield_now();
                        // A queue-empty observation while a peer refills is
                        // peer waiting, not scheduling work of our own.
                        out.cut(SegmentKind::Sync);
                        continue;
                    }
                    // This worker becomes the refiller.
                    Empty::Refill => {}
                }
                if plan_active {
                    local_win.put(0, refiller_slot(wpn), i64::from(my_local))?;
                }
                local_win.sync();
                local_win.unlock(LockKind::Exclusive, 0)?;

                // ---- fetch a chunk from the global queue ----
                out.global_accesses += 1;
                let fetched = queue.fetch()?;

                if let (true, Fetched::Chunk(clo, chi)) = (plan_active, fetched) {
                    if faults
                        .crash_as_refiller_after(me)
                        .is_some_and(|g| out.global_fetches + 1 >= u64::from(g))
                    {
                        // Die as the refiller: the global step is already
                        // consumed, so the fetched chunk exists only in this
                        // rank's lease. Publish it and stop — REFILLING
                        // stays set until a survivor fails the role over.
                        lock(&mut out)?;
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
                holding = Some(fetched);
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

/// One rank's loop over the lock-free node queue
/// ([`protocol::counter`]): a take is one compare-and-swap, preceded by a
/// read of the word when the rank expects none (its first take, and
/// after a yield or a publish) and by reads of the bounds when its
/// cursor has not certified the word's generation. The rank whose claim
/// seals a drained deposit refills it from the global queue. A CAS a
/// peer beat returns the word it found, which the retry takes against;
/// the window counts it as a failed poll.
fn counter_loop(
    q: &CounterQueue<'_>,
    queue: &GlobalQueue<'_>,
    intra: &dls::Technique,
    wpn: u32,
    workload: &(dyn Workload + Sync),
    out: &mut Ledger,
) -> mpisim::Result<()> {
    let mut cursor = counter::Cursor::default();
    loop {
        let word = match cursor.expected() {
            Some(word) => word,
            None => q.word()?,
        };
        match counter::probe(word) {
            None => {}
            Some(Empty::PeerRefilling) => {
                cursor.forget();
                std::thread::yield_now();
                out.cut(SegmentKind::Sync);
                continue;
            }
            // Retire: the node is done.
            Some(_) => {
                out.cut(SegmentKind::Sched);
                return Ok(());
            }
        }
        let bounds = match cursor.bounds(word) {
            Some(bounds) => bounds,
            None => q.bounds()?,
        };
        let (sub, next) = counter::take(word, bounds.0, bounds.1, intra, wpn, &mut cursor);
        if let Err(seen) = q.commit(word, next)? {
            cursor.failed(seen);
            continue;
        }
        cursor.committed(next, bounds);
        if let Some(sub) = sub {
            out.cut(SegmentKind::Sched);
            out.execute(workload, sub);
            out.cut(SegmentKind::Compute);
            continue;
        }
        // This rank's claim sealed the drained deposit: it refills.
        out.global_accesses += 1;
        let fetched = queue.fetch()?;
        if let Fetched::Chunk(..) = fetched {
            out.global_fetches += 1;
            out.deposits += 1;
        }
        let publish = counter::deposit(next, fetched);
        q.publish(publish)?;
        cursor.published(publish);
        if fetched == Fetched::Pending {
            std::thread::yield_now();
            out.cut(SegmentKind::Sync);
        } else {
            out.cut(SegmentKind::Sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, GlobalQueueMode, HierSpec};
    use crate::live::{assert_exact, serial_checksum};
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    const MODES: [NodeQueueMode; 2] = [NodeQueueMode::Counter, NodeQueueMode::Locked];

    fn run_in(
        mode: NodeQueueMode,
        spec: HierSpec,
        nodes: u32,
        wpn: u32,
        n: u64,
    ) -> (LiveResult, u64) {
        let w = Synthetic::uniform(n, 1, 100, 3);
        let mut cfg = RunConfig::new(nodes, wpn, spec, Approach::MpiMpi);
        cfg.node_mode = mode;
        let serial = serial_checksum(&w);
        (run_live_mpi_mpi(&cfg, &w).expect("live run"), serial)
    }

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> (LiveResult, u64) {
        run_in(NodeQueueMode::Counter, spec, nodes, wpn, n)
    }

    #[test]
    fn all_paper_combinations_execute_exactly_once() {
        for mode in MODES {
            for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
                for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
                    let (r, serial) = run_in(mode, HierSpec::new(inter, intra), 2, 3, 600);
                    assert_exact(&r, serial, 600);
                }
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
        let (r, _) = run_in(NodeQueueMode::Locked, HierSpec::new(Kind::GSS, Kind::SS), 2, 4, 500);
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_and_window_counters_recorded() {
        let w = Synthetic::uniform(600, 1, 100, 3);
        let mut cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.trace = true;
        cfg.node_mode = NodeQueueMode::Locked;
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
        let (r, _) = run_in(NodeQueueMode::Locked, HierSpec::new(Kind::GSS, Kind::SS), 2, 2, 400);
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
        let mut cfg = RunConfig::new(2, 1, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.node_mode = NodeQueueMode::Locked;
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
        // One rank has nobody to wait for: not one failed poll or lost
        // compare-and-swap, on either window.
        for mode in MODES {
            let (r, serial) = run_in(mode, HierSpec::new(Kind::GSS, Kind::SS), 1, 1, 400);
            assert_exact(&r, serial, 400);
            assert_eq!(r.stats.workers[0].lock_polls, 0);
            assert_eq!((r.stats.nodes[0].lock_polls, r.stats.nodes[0].lock_contended), (0, 0));
        }
    }

    #[test]
    fn every_worker_participates_on_balanced_load() {
        let w = Synthetic::constant(2000, 20_000); // ~20us per iteration
        let cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert_eq!(r.stats.total_iterations, 2000);
    }

    #[test]
    fn rma_log_disabled_by_default_and_recorded_on_request() {
        let w = Synthetic::uniform(300, 1, 100, 3);
        let cfg = RunConfig::new(2, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
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

    #[test]
    fn awf_history_update_is_a_synced_read_modify_write() {
        // Every epoch that charges a rank's AWF history is one synced
        // read-modify-write of that rank's two slots: the leading `sync`
        // makes peers' earlier puts visible before the gets.
        use mpisim::RmaEvent::{self, Attach, Get, Lock, Put, Sync, Unlock};
        let w = Synthetic::uniform(600, 1, 100, 3);
        let wpn = 3;
        let mut cfg = RunConfig::new(2, wpn, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.node_mode = NodeQueueMode::Locked;
        cfg.awf = Some(dls::adaptive::AwfVariant::C);
        cfg.record_rma = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        let node_wins: std::collections::BTreeSet<u64> = r
            .rma
            .iter()
            .filter(|rec| matches!(rec.event, Attach { shared: true, .. }))
            .map(|rec| rec.win)
            .collect();
        assert_eq!(node_wins.len(), 2);
        let history = HIST_BASE..HIST_BASE + 2 * wpn as usize;
        let puts_history = |e: &RmaEvent| matches!(e, Put { disp, .. } if history.contains(disp));
        let ex = LockKind::Exclusive;
        let mut charges = 0;
        for win in &node_wins {
            for rank in 0..wpn {
                let i = HIST_BASE + 2 * rank as usize;
                let want = [
                    Lock { kind: ex, target: 0 },
                    Sync,
                    Get { target: 0, disp: i },
                    Get { target: 0, disp: i + 1 },
                    Put { target: 0, disp: i },
                    Put { target: 0, disp: i + 1 },
                    Sync,
                    Unlock { kind: ex, target: 0 },
                ];
                let mut epoch = Vec::new();
                for rec in r.rma.iter().filter(|rec| rec.win == *win && rec.rank == rank) {
                    if matches!(rec.event, Lock { .. }) {
                        epoch.clear();
                    }
                    epoch.push(rec.event);
                    if matches!(rec.event, Unlock { .. }) && epoch.iter().any(puts_history) {
                        assert_eq!(epoch, want, "win {win} rank {rank}");
                        charges += 1;
                    }
                }
            }
        }
        assert!(charges > 0, "no epoch charged the AWF history");
    }
}

//! The isolated layer pass: each layer timed from outside through its
//! public functions, one micro-bench per per-layer metric.
//!
//! Every value is the median of `BATCHES` batches, each calibrated to
//! last at least `BATCH`; all batch values are kept. Inputs are derived
//! from the seed, and results pass through `black_box` so the measured
//! call cannot be folded away.

use crate::metrics::Samples;
use crate::{proc, svc};
use autotune::{ChunkSample, Tuner};
use cluster_sim::EventQueue;
use dls::single_counter::{assignment, assignment_fast};
use dls::switchable::{SchedKind, SwitchableScheduler};
use dls::technique::WorkerCtx;
use dls::{Kind, LoopSpec, SchedState, Technique};
use dls_service::protocol::{frame, GrantedChunk, Request, Response};
use durability::{GrantEntry, Journal, JournalOptions, JournalRecord, SyncPolicy};
use hdls::prelude::{CostTable, HierSchedule, Mandelbrot, Psia, Workload};
use mpisim::{LockKind, RmaOp, Topology, Universe, Window};
use resilience::LeaseTable;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(20);
/// Samples of the one-shot measurements that cost tenths of a second.
const SLOW_SAMPLES: usize = 3;

/// Measure `run(iters)`, which performs `iters` operations and returns
/// the time they took, and record ns per operation under `name`.
fn bench(out: &mut Samples, name: &str, mut run: impl FnMut(u64) -> Duration) {
    let mut iters = 1u64;
    let per_batch = loop {
        let took = run(iters);
        if took >= BATCH / 4 {
            let scale = BATCH.as_secs_f64() / took.as_secs_f64();
            break ((iters as f64 * scale).ceil() as u64).max(1);
        }
        iters *= 4;
    };
    for _ in 0..BATCHES {
        let took = run(per_batch);
        out.push(name, took.as_nanos() as f64 / per_batch as f64);
    }
}

/// `bench` for an operation that needs no untimed work between calls.
fn bench_op<T>(out: &mut Samples, name: &str, mut op: impl FnMut() -> T) {
    bench(out, name, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        start.elapsed()
    });
}

fn scratch_dir(label: &str) -> PathBuf {
    proc::out_dir().join(format!("layers-{}-{label}", std::process::id()))
}

fn dls_layers(out: &mut Samples, seed_mix: u64) -> Result<(), String> {
    // ---- one SwitchableScheduler::next_size step ----
    // 4096 workers over ~4M iterations gives every technique thousands
    // of steps per schedule, so re-creating an exhausted scheduler
    // (untimed) is rare.
    let spec = LoopSpec::new(4_000_000 + seed_mix % 40_000, 4096);
    let kinds = [
        ("STATIC", SchedKind::Fixed(Kind::STATIC)),
        ("SS", SchedKind::Fixed(Kind::SS)),
        ("GSS", SchedKind::Fixed(Kind::GSS)),
        ("TSS", SchedKind::Fixed(Kind::TSS)),
        ("FAC2", SchedKind::Fixed(Kind::FAC2)),
        ("AF", SchedKind::Af),
    ];
    for (label, kind) in kinds {
        let mut template = SwitchableScheduler::new(spec, kind);
        if kind == SchedKind::Af {
            // AF sizes from measured rates; without any it hands out
            // warm-up chunks and never reaches its formula.
            for w in 0..spec.n_workers {
                template.record(w, 64, 64_000 + u64::from(w % 7) * 1_000, 500);
            }
        }
        let mut sched = template.clone();
        bench(out, &format!("dls.next_size_ns.{label}"), |iters| {
            let mut timed = Duration::ZERO;
            let mut done = 0;
            while done < iters {
                let start = Instant::now();
                while done < iters && black_box(sched.next_size(WorkerCtx::default())) != 0 {
                    done += 1;
                }
                timed += start.elapsed();
                if done < iters {
                    sched = template.clone();
                }
            }
            timed
        });
    }

    // ---- seek to step 10 000 ----
    // 2^40 iterations over 4096 workers: every technique's schedule is
    // longer than 10 000 steps.
    const STEP: u64 = 10_000;
    let seek_spec = LoopSpec::new((1 << 40) + seed_mix % (1 << 30), 4096);
    let mut at_step = None;
    for kind in [Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
        let technique = Technique::from_kind(kind);
        let slow = assignment(&technique, &seek_spec, STEP);
        let fast = assignment_fast(&technique, &seek_spec, STEP);
        if slow.is_none() || fast.is_some_and(|f| Some(f) != slow) {
            return Err(format!("{kind}: seek to step {STEP} gave {slow:?} / {fast:?}"));
        }
        if kind == Kind::GSS {
            at_step = slow;
        }
        bench_op(out, &format!("dls.seek_ns.{kind}"), || {
            assignment(black_box(&technique), &seek_spec, black_box(STEP))
        });
        // What a caller of the closed forms pays: the fast path, and
        // the replay it falls back to where no closed form exists.
        bench_op(out, &format!("dls.seek_fast_ns.{kind}"), || {
            assignment_fast(black_box(&technique), &seek_spec, black_box(STEP))
                .or_else(|| assignment(&technique, &seek_spec, STEP))
        });
    }
    let (start, _) = at_step.ok_or("GSS seek missing")?;
    let origin = SchedState { step: STEP, scheduled: start };
    bench_op(out, "dls.restore_ns", || {
        SwitchableScheduler::restore(seek_spec, SchedKind::Fixed(Kind::GSS), black_box(origin), 0)
    });
    Ok(())
}

fn resilience_layers(out: &mut Samples) {
    const LEASES: u64 = 1_000_000;
    let mut table = LeaseTable::new();
    let mut next = 0u64;
    bench_op(out, "resilience.grant_settle_ns", || {
        if table.len() >= LEASES {
            table = LeaseTable::new();
        }
        let id = table.grant((next % 4) as u32, next, next + 1, next);
        next += 1;
        table.complete(id)
    });
    drop(table);

    // RSS grown by a 1M-lease table. Memory the allocator kept from an
    // earlier sample can only inflate the growth, so the smallest of
    // the samples is the table's own footprint.
    let mut buf = Vec::new();
    let mut bytes_per_lease = f64::INFINITY;
    for _ in 0..SLOW_SAMPLES {
        let before = proc::self_rss_mb();
        let mut table = LeaseTable::new();
        for i in 0..LEASES {
            table.grant((i % 4) as u32, i, i + 1, i);
        }
        let grown_mb = proc::self_rss_mb() - before;
        bytes_per_lease = bytes_per_lease.min(grown_mb * 1024.0 * 1024.0 / LEASES as f64);
        buf.clear();
        let start = Instant::now();
        table.serialize_into(&mut buf);
        let took = start.elapsed();
        black_box(&buf);
        out.push("resilience.serialize_ns_per_lease", took.as_nanos() as f64 / LEASES as f64);
    }
    out.push("resilience.bytes_per_lease", bytes_per_lease);
    out.add_count("resilience.bytes_per_lease", SLOW_SAMPLES as u64);
}

fn protocol_layers(out: &mut Samples, seed_mix: u64) {
    let job = 1 + seed_mix % 1000;
    let fetch = Request::FetchChunk { job, worker: 1, batch: 64 };
    let fetch_payload = fetch.encode();
    bench_op(out, "protocol.encode_fetch_ns", || frame(&black_box(&fetch).encode()));
    bench_op(out, "protocol.decode_fetch_ns", || Request::decode(black_box(&fetch_payload)));
    for (label, k) in [("b1", 1u64), ("b64", 64)] {
        let base = seed_mix % 1_000_000;
        let chunks: Vec<GrantedChunk> = (0..k)
            .map(|i| GrantedChunk { lease: base + i, lo: base + i, hi: base + i + 1 })
            .collect();
        let reply = Response::Chunks { chunks, epoch: 1 };
        let reply_payload = reply.encode();
        let report = Request::ReportDone { job, leases: (base..base + k).collect(), epoch: 1 };
        bench_op(out, &format!("protocol.encode_chunks_ns.{label}"), || black_box(&reply).encode());
        bench_op(out, &format!("protocol.decode_chunks_ns.{label}"), || {
            Response::decode(black_box(&reply_payload))
        });
        bench_op(out, &format!("protocol.encode_report_ns.{label}"), || {
            frame(&black_box(&report).encode())
        });
    }
}

/// A `Granted` record of eight leases: what `svc_journal` (batch 8)
/// appends per fetch.
fn granted_record(first_lease: u64) -> JournalRecord {
    let grants = (first_lease..first_lease + 8)
        .map(|l| GrantEntry { lease: l, worker: 0, lo: l, hi: l + 1, from_pool: false })
        .collect();
    JournalRecord::Granted { job: 1, step: first_lease + 8, scheduled: first_lease + 8, grants }
}

fn durability_layers(out: &mut Samples, seed_mix: u64) -> Result<(), String> {
    let record = granted_record(seed_mix % 1_000_000);
    let mut buf = Vec::new();
    bench_op(out, "durability.record_encode_ns", || {
        buf.clear();
        black_box(&record).encode_into(&mut buf);
        buf.len()
    });

    // ---- append + commit per record, 16 records per commit ----
    let policies = [
        ("never", SyncPolicy::Never),
        ("every512", SyncPolicy::EveryN(512)),
        ("always", SyncPolicy::Always),
    ];
    for (label, sync) in policies {
        let dir = scratch_dir(label);
        let mut opts = JournalOptions::new(&dir);
        opts.sync = sync;
        let (mut journal, _) = Journal::open(opts).map_err(|e| format!("journal open: {e:?}"))?;
        let mut io_error = None;
        bench(out, &format!("durability.append_commit_ns.{label}"), |records| {
            let start = Instant::now();
            for i in 0..records {
                journal.append(&record);
                if i % 16 == 15 || i + 1 == records {
                    if let Err(e) = journal.commit() {
                        io_error = Some(e);
                    }
                }
            }
            start.elapsed()
        });
        drop(journal);
        std::fs::remove_dir_all(&dir).ok();
        if let Some(e) = io_error {
            return Err(format!("journal commit ({label}): {e}"));
        }
    }

    // ---- replay of a generated 1M-record SS journal ----
    const LEASES: u64 = 500_000;
    let dir = scratch_dir("replay");
    let mut opts = JournalOptions::new(&dir);
    opts.sync = SyncPolicy::Never;
    let (mut journal, _) = Journal::open(opts).map_err(|e| format!("journal open: {e:?}"))?;
    journal.append(&JournalRecord::JobCreated {
        job: 1,
        n: LEASES,
        kind: Kind::SS.into(),
        weights: Vec::new(),
    });
    for lease in 0..LEASES {
        let grant = GrantEntry { lease, worker: 0, lo: lease, hi: lease + 1, from_pool: false };
        journal.append(&JournalRecord::Granted {
            job: 1,
            step: lease + 1,
            scheduled: lease + 1,
            grants: vec![grant],
        });
        journal.append(&JournalRecord::Settled { job: 1, leases: vec![lease] });
        if lease % 512 == 511 {
            journal.commit().map_err(|e| format!("journal commit: {e}"))?;
        }
    }
    journal.sync().map_err(|e| format!("journal sync: {e}"))?;
    drop(journal);
    let mut replayed = Ok(());
    for _ in 0..SLOW_SAMPLES {
        let start = Instant::now();
        let state = Journal::replay_dir(&dir);
        let took = start.elapsed();
        match state {
            Ok(s) if s.jobs.get(&1).is_some_and(|j| j.completed == LEASES) => {
                // ServerStart + JobCreated + one Granted and one Settled per lease.
                out.push(
                    "durability.replay_records_per_s",
                    (2 + 2 * LEASES) as f64 / took.as_secs_f64(),
                );
            }
            Ok(_) => replayed = Err("replay lost settled leases".to_string()),
            Err(e) => replayed = Err(format!("replay: {e:?}")),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    replayed
}

fn mpisim_layers(out: &mut Samples) -> Result<(), String> {
    let per_rank = Universe::run(Topology::new(1, 1), |p| -> mpisim::Result<Samples> {
        let mut out = Samples::default();
        let win = Window::allocate(p.world(), 8)?;
        let mut failed = None;
        let mut check = |r: mpisim::Result<()>| {
            if let Err(e) = r {
                failed = Some(e);
            }
        };
        bench_op(&mut out, "mpisim.win_lock_unlock_ns", || {
            check(win.lock(LockKind::Exclusive, 0));
            check(win.unlock(LockKind::Exclusive, 0));
        });
        win.lock_all();
        bench_op(&mut out, "mpisim.faa_flush_ns", || {
            let old = win.fetch_and_op(0, 0, 1, RmaOp::Sum);
            check(win.flush(0));
            old
        });
        win.unlock_all()?;
        win.lock(LockKind::Exclusive, 0)?;
        let mut v = 0i64;
        bench_op(&mut out, "mpisim.put_get_ns", || {
            v += 1;
            check(win.put(0, 1, v));
            win.get(0, 1)
        });
        win.unlock(LockKind::Exclusive, 0)?;
        failed.map_or(Ok(out), Err)
    });
    for rank in per_rank {
        out.merge(&rank.map_err(|e| format!("mpisim: {e}"))?);
    }
    Ok(())
}

fn sim_layers(out: &mut Samples, seed_mix: u64) {
    // ---- EventQueue push + pop at a steady depth of 1024 ----
    let mut queue = EventQueue::new();
    let mut lcg = seed_mix | 1;
    let mut step = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        lcg >> 44
    };
    for i in 0..1024u32 {
        queue.push(step(), i);
    }
    bench_op(out, "cluster-sim.push_pop_ns", || {
        let (at, event) = queue.pop().expect("queue holds 1024 events");
        queue.push(at + step(), event);
        at
    });

    // ---- cost table + one simulate of Mandelbrot-quick, GSS+SS 16x16 ----
    let quick = Mandelbrot::quick();
    let mut table = None;
    for _ in 0..SLOW_SAMPLES {
        let start = Instant::now();
        table = Some(CostTable::build(&quick));
        out.push("hier-sim.costtable_build_s", start.elapsed().as_secs_f64());
    }
    let table = table.expect("SLOW_SAMPLES > 0");
    let schedule = HierSchedule::builder()
        .inter(Kind::GSS)
        .intra(Kind::SS)
        .nodes(16)
        .workers_per_node(16)
        .build();
    for _ in 0..SLOW_SAMPLES {
        let start = Instant::now();
        let r = schedule.simulate(&table);
        let took = start.elapsed().as_secs_f64();
        let sub_chunks: u64 = r.stats.workers.iter().map(|w| w.sub_chunks).sum();
        out.push("hier-sim.subchunks_per_s", sub_chunks as f64 / took);
    }
}

fn workload_layers(out: &mut Samples, seed_mix: u64) {
    // A 1-in-32 strided sample of the paper-scale image: the tile
    // shuffle spreads the expensive pixels over the iteration space.
    let paper = Mandelbrot::paper();
    let n = paper.n_iters();
    for _ in 0..SLOW_SAMPLES {
        let start = Instant::now();
        let mut sum = 0u64;
        let mut i = seed_mix % 32;
        let mut count = 0u64;
        while i < n {
            sum = sum.wrapping_add(paper.execute(i));
            i += 32;
            count += 1;
        }
        black_box(sum);
        out.push(
            "workloads.mandelbrot_ns_per_iter",
            start.elapsed().as_nanos() as f64 / count as f64,
        );
    }
    let psia = Psia::single_object();
    let mut i = seed_mix % psia.n_iters();
    bench_op(out, "workloads.psia_ns_per_iter", || {
        i = (i + 1) % psia.n_iters();
        psia.execute(i)
    });
}

fn autotune_layers(out: &mut Samples, seed_mix: u64) {
    let mut tuner = Tuner::with_defaults(16);
    let mut i = seed_mix % 1000;
    bench_op(out, "autotune.observe_settle_ns", || {
        i += 1;
        tuner.observe(ChunkSample {
            worker: (i % 16) as u32,
            len: 8,
            latency_ns: 50_000 + (i % 7) * 1_000,
        });
        tuner.on_settle(SchedKind::Fixed(Kind::GSS), SchedState { step: i, scheduled: 8 * i })
    });
}

/// Run every isolated layer micro-bench.
pub fn run(seed_mix: u64) -> Result<Samples, String> {
    let mut out = Samples::default();
    dls_layers(&mut out, seed_mix)?;
    resilience_layers(&mut out);
    protocol_layers(&mut out, seed_mix);
    durability_layers(&mut out, seed_mix)?;
    mpisim_layers(&mut out)?;
    sim_layers(&mut out, seed_mix);
    workload_layers(&mut out, seed_mix);
    autotune_layers(&mut out, seed_mix);
    let (p50, p99, samples) = svc::echo_rtt_us(20_000)?;
    out.push("net.echo_rtt_p50_us", p50);
    out.push("net.echo_rtt_p99_us", p99);
    out.add_count("net.echo_rtt_p50_us", samples as u64);
    out.add_count("net.echo_rtt_p99_us", samples as u64);
    Ok(out)
}

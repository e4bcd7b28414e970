//! Fork-join teams and the per-thread context.

use crate::region::RegionRegistry;
use crate::schedule::next_dispatch;
use dls::openmp::{static_blocks, OmpSchedule};
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Barrier, Mutex, PoisonError};

/// A team size — `#pragma omp parallel num_threads(n)`.
#[derive(Clone, Copy, Debug)]
pub struct Team {
    threads: u32,
}

/// Shared state of one parallel region.
struct TeamShared {
    barrier: Barrier,
    regions: RegionRegistry,
    critical: Mutex<()>,
}

/// Per-thread handle inside [`Team::parallel`].
pub struct TeamCtx<'a> {
    shared: &'a TeamShared,
    tid: u32,
    threads: u32,
    /// Worksharing-construct sequence number (per thread; all threads
    /// must encounter constructs in the same order, as OpenMP requires).
    seq: Cell<u64>,
}

impl Team {
    /// A team of `threads` threads (at least 1).
    pub fn new(threads: u32) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Number of threads the team forks.
    pub fn num_threads(&self) -> u32 {
        self.threads
    }

    /// `#pragma omp parallel`: fork the team, run `f` on every thread,
    /// join, and return each thread's result in thread order.
    pub fn parallel<R: Send>(&self, f: impl Fn(&TeamCtx) -> R + Sync) -> Vec<R> {
        let shared = TeamShared {
            barrier: Barrier::new(self.threads as usize),
            regions: RegionRegistry::default(),
            critical: Mutex::new(()),
        };
        let f = &f;
        let shared = &shared;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|tid| {
                    scope.spawn(move || {
                        let ctx = TeamCtx { shared, tid, threads: self.threads, seq: Cell::new(0) };
                        f(&ctx)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("team thread")).collect()
        })
    }
}

impl TeamCtx<'_> {
    /// `omp_get_thread_num()`.
    pub fn thread_num(&self) -> u32 {
        self.tid
    }

    /// `omp_get_num_threads()`.
    pub fn num_threads(&self) -> u32 {
        self.threads
    }

    /// `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// `#pragma omp master`: run `f` on thread 0 only (no implied
    /// barrier, as in OpenMP).
    pub fn master<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        (self.tid == 0).then(f)
    }

    /// `#pragma omp critical`: run `f` under the team-wide mutex.
    pub fn critical<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.shared.critical.lock().unwrap_or_else(PoisonError::into_inner);
        f()
    }

    /// `#pragma omp for schedule(...)`: distribute `range` over the
    /// team, call `body(i)` for each owned iteration, and cross the
    /// implicit end-of-region barrier.
    pub fn for_each(&self, range: Range<u64>, schedule: OmpSchedule, mut body: impl FnMut(u64)) {
        self.for_each_nowait(range, schedule, &mut body);
        self.barrier();
    }

    /// `#pragma omp for schedule(...) nowait`: as [`TeamCtx::for_each`]
    /// but without the end-of-region barrier — the construct whose
    /// implications the paper discusses at length. Returns the number
    /// of iterations this thread executed.
    pub fn for_each_nowait(
        &self,
        range: Range<u64>,
        schedule: OmpSchedule,
        mut body: impl FnMut(u64),
    ) -> u64 {
        let mut executed = 0u64;
        self.for_each_dispatch_nowait(range, schedule, |r| {
            for i in r {
                body(i);
                executed += 1;
            }
        });
        executed
    }

    /// Dispatch-level worksharing with the implicit barrier: `body`
    /// receives each dispatch unit (the runtime's internal chunk) this
    /// thread claims — useful for per-chunk instrumentation.
    pub fn for_each_dispatch(
        &self,
        range: Range<u64>,
        schedule: OmpSchedule,
        mut body: impl FnMut(Range<u64>),
    ) {
        self.for_each_dispatch_nowait(range, schedule, &mut body);
        self.barrier();
    }

    /// Dispatch-level worksharing without the end barrier.
    pub fn for_each_dispatch_nowait(
        &self,
        range: Range<u64>,
        schedule: OmpSchedule,
        mut body: impl FnMut(Range<u64>),
    ) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        match schedule {
            OmpSchedule::Static { chunk } => {
                static_blocks(range, chunk, self.tid, self.threads).for_each(body);
            }
            OmpSchedule::Dynamic { .. } | OmpSchedule::Guided { .. } => {
                let region = self.shared.regions.get(seq);
                while let Some((lo, hi)) =
                    region.claim(len, |remaining| next_dispatch(schedule, remaining, self.threads))
                {
                    body(range.start + lo..range.start + hi);
                }
            }
        }
    }

    /// `#pragma omp single`: the first thread to arrive executes `f`;
    /// everyone crosses the implicit end barrier. Returns `Some` on the
    /// executing thread.
    pub fn single<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let region = self.shared.regions.get(seq);
        let winner = region.claim(1, |_| 1).is_some();
        let out = winner.then(f);
        self.barrier();
        if self.tid == 0 {
            self.shared.regions.retire(seq);
        }
        out
    }

    /// `#pragma omp sections`: each closure in `sections` executes
    /// exactly once, distributed over the team; implicit end barrier.
    pub fn sections(&self, sections: &[&(dyn Fn() + Sync)]) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let region = self.shared.regions.get(seq);
        while let Some((lo, _)) = region.claim(sections.len() as u64, |_| 1) {
            sections[lo as usize]();
        }
        self.barrier();
        if self.tid == 0 {
            self.shared.regions.retire(seq);
        }
    }

    /// `reduction(op)`: combine every thread's `value` with `op`;
    /// every thread returns the combined result. Implies barriers.
    pub fn reduce<T: Clone + Send + Sync + 'static>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let slot = self.shared.regions.values::<T>(seq);
        slot.lock().unwrap_or_else(PoisonError::into_inner).push(value);
        self.barrier();
        let folded = {
            let v = slot.lock().unwrap_or_else(PoisonError::into_inner);
            let mut it = v.iter().cloned();
            let first = it.next().expect("at least one contribution");
            it.fold(first, &op)
        };
        // Second barrier so the master retires the region only after
        // every thread has read the folded value.
        self.barrier();
        if self.tid == 0 {
            self.shared.regions.retire(seq);
        }
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_forks_n_threads() {
        let out = Team::new(4).parallel(|ctx| (ctx.thread_num(), ctx.num_threads()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn for_each_covers_range_every_schedule() {
        for schedule in [
            OmpSchedule::static_block(),
            OmpSchedule::Static { chunk: Some(3) },
            OmpSchedule::dynamic1(),
            OmpSchedule::Dynamic { chunk: 7 },
            OmpSchedule::guided1(),
            OmpSchedule::Guided { chunk: 4 },
        ] {
            let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
            Team::new(4).parallel(|ctx| {
                ctx.for_each(0..500, schedule, |i| {
                    hits[i as usize].fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "{schedule:?}: every iteration exactly once"
            );
        }
    }

    #[test]
    fn static_blocks_are_contiguous_per_thread() {
        let owner: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(u64::MAX)).collect();
        Team::new(4).parallel(|ctx| {
            ctx.for_each(0..100, OmpSchedule::static_block(), |i| {
                owner[i as usize].store(u64::from(ctx.thread_num()), Ordering::SeqCst);
            });
        });
        // ceil(100/4) = 25 contiguous iterations per thread.
        for (i, o) in owner.iter().enumerate() {
            assert_eq!(o.load(Ordering::SeqCst), (i / 25) as u64);
        }
    }

    #[test]
    fn consecutive_worksharing_regions_are_independent() {
        let count = AtomicU64::new(0);
        Team::new(3).parallel(|ctx| {
            for _ in 0..5 {
                ctx.for_each(0..30, OmpSchedule::dynamic1(), |_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn nowait_returns_executed_count() {
        let out = Team::new(4).parallel(|ctx| {
            let n = ctx.for_each_nowait(0..97, OmpSchedule::Dynamic { chunk: 5 }, |_| {});
            ctx.barrier();
            n
        });
        assert_eq!(out.iter().sum::<u64>(), 97);
    }

    #[test]
    fn master_runs_on_thread_zero_only() {
        let out = Team::new(4).parallel(|ctx| ctx.master(|| ctx.thread_num()));
        assert_eq!(out, vec![Some(0), None, None, None]);
    }

    #[test]
    fn critical_is_mutually_exclusive() {
        let counter = Mutex::new(0u64);
        Team::new(8).parallel(|ctx| {
            for _ in 0..100 {
                ctx.critical(|| {
                    let mut c = counter.lock().unwrap();
                    let v = *c;
                    // A non-atomic RMW: only safe under the critical lock.
                    std::hint::black_box(&v);
                    *c = v + 1;
                });
            }
        });
        assert_eq!(*counter.lock().unwrap(), 800);
    }

    #[test]
    fn reduce_combines_all_contributions() {
        let out =
            Team::new(5).parallel(|ctx| ctx.reduce(u64::from(ctx.thread_num()) + 1, |a, b| a + b));
        assert_eq!(out, vec![15; 5]);
    }

    #[test]
    fn reduce_then_for_each_sequence() {
        let sum = AtomicU64::new(0);
        Team::new(3).parallel(|ctx| {
            let total = ctx.reduce(1u64, |a, b| a + b);
            ctx.for_each(0..total, OmpSchedule::guided1(), |_| {
                sum.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(sum.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn single_executes_once() {
        let count = AtomicU64::new(0);
        let winners = Team::new(6).parallel(|ctx| {
            for _ in 0..10 {
                ctx.single(|| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(winners.len(), 6);
    }

    #[test]
    fn sections_each_run_once() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let c = AtomicU64::new(0);
        let fa = || {
            a.fetch_add(1, Ordering::SeqCst);
        };
        let fb = || {
            b.fetch_add(1, Ordering::SeqCst);
        };
        let fc = || {
            c.fetch_add(1, Ordering::SeqCst);
        };
        Team::new(2).parallel(|ctx| {
            ctx.sections(&[&fa, &fb, &fc]);
        });
        assert_eq!(
            [a.load(Ordering::SeqCst), b.load(Ordering::SeqCst), c.load(Ordering::SeqCst)],
            [1, 1, 1]
        );
    }

    #[test]
    fn empty_range_is_fine() {
        Team::new(4).parallel(|ctx| {
            ctx.for_each(10..10, OmpSchedule::dynamic1(), |_| panic!("no iterations"));
        });
    }

    #[test]
    fn single_thread_team() {
        let hits = AtomicU64::new(0);
        Team::new(1).parallel(|ctx| {
            ctx.for_each(0..10, OmpSchedule::guided1(), |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }
}

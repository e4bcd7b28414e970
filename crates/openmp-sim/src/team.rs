//! Fork-join teams and the per-thread context.

use crate::region::RegionRegistry;
use crate::schedule::next_dispatch;
use dls::openmp::{static_blocks, OmpSchedule};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Barrier;

/// A team size — `#pragma omp parallel num_threads(n)`.
#[derive(Clone, Copy, Debug)]
pub struct Team {
    threads: u32,
}

/// Shared state of one parallel region.
struct TeamShared {
    barrier: Barrier,
    regions: RegionRegistry,
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

    /// `#pragma omp parallel`: fork the team, run `f` on every thread,
    /// join, and return each thread's result in thread order.
    pub fn parallel<R: Send>(&self, f: impl Fn(&TeamCtx) -> R + Sync) -> Vec<R> {
        let shared = TeamShared {
            barrier: Barrier::new(self.threads as usize),
            regions: RegionRegistry::default(),
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

    /// `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// `#pragma omp master`: run `f` on thread 0 only (no implied
    /// barrier, as in OpenMP).
    pub fn master<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        (self.tid == 0).then(f)
    }

    /// `#pragma omp for schedule(...)`: distribute `range` over the
    /// team, call `body(i)` for each owned iteration, and cross the
    /// implicit end-of-region barrier.
    pub fn for_each(&self, range: Range<u64>, schedule: OmpSchedule, mut body: impl FnMut(u64)) {
        self.for_each_dispatch(range, schedule, |r| r.for_each(&mut body));
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
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let len = range.end.saturating_sub(range.start);
        match schedule {
            _ if len == 0 => {}
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
        self.barrier();
        // Every thread looked the region up before the barrier, so none
        // can re-create it: retire it, or a team that opens one construct
        // per chunk keeps one region per chunk. Static schedules never
        // create one.
        if self.tid == 0 && !matches!(schedule, OmpSchedule::Static { .. }) {
            self.shared.regions.retire(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_forks_n_threads() {
        let out = Team::new(4).parallel(|ctx| ctx.thread_num());
        assert_eq!(out, vec![0, 1, 2, 3]);
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
    fn worksharing_regions_are_retired_at_their_barrier() {
        for schedule in
            [OmpSchedule::dynamic1(), OmpSchedule::guided1(), OmpSchedule::static_block()]
        {
            let live = Team::new(4).parallel(|ctx| {
                for _ in 0..1000 {
                    ctx.for_each_dispatch(0..100, schedule, |_| {});
                }
                // Thread 0 retired every region it crossed a barrier of.
                ctx.master(|| ctx.shared.regions.regions.lock().unwrap().len())
            });
            assert_eq!(live[0], Some(0), "{schedule:?}");
        }
    }

    #[test]
    fn master_runs_on_thread_zero_only() {
        let out = Team::new(4).parallel(|ctx| ctx.master(|| ctx.thread_num()));
        assert_eq!(out, vec![Some(0), None, None, None]);
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

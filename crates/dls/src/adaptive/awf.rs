//! AWF: adaptive weighted factoring (Banicescu, Velusamy & Devaprasad,
//! 2003) and its -B/-C/-D/-E refinements.
//!
//! All variants are weighted factoring where the weights are *learned*
//! from measured execution:
//!
//! * **AWF**: weights updated once per *time step* (we treat each batch
//!   as a time step, equivalent to -B for a single loop).
//! * **AWF-B**: weights updated at **b**atch boundaries, from cumulative
//!   compute time per iteration.
//! * **AWF-C**: weights updated at every **c**hunk completion.
//! * **AWF-D**: like -B, but the recorded time also includes the
//!   scheduling **d**elay (overhead) of obtaining the chunk.
//! * **AWF-E**: like -C, including the scheduling overhead.

use crate::chunk::{Chunk, LoopSpec, SchedState};
use crate::weighted::rate_weights;

/// Which AWF refinement to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AwfVariant {
    /// Batch-boundary updates, compute time only.
    B,
    /// Chunk-boundary updates, compute time only.
    C,
    /// Batch-boundary updates, compute + scheduling time.
    D,
    /// Chunk-boundary updates, compute + scheduling time.
    E,
}

impl AwfVariant {
    /// All variants.
    pub const ALL: [AwfVariant; 4] = [AwfVariant::B, AwfVariant::C, AwfVariant::D, AwfVariant::E];

    /// Display name, e.g. `"AWF-B"`.
    pub fn name(&self) -> &'static str {
        match self {
            AwfVariant::B => "AWF-B",
            AwfVariant::C => "AWF-C",
            AwfVariant::D => "AWF-D",
            AwfVariant::E => "AWF-E",
        }
    }

    fn updates_per_chunk(&self) -> bool {
        matches!(self, AwfVariant::C | AwfVariant::E)
    }

    /// Whether the variant charges a chunk's scheduling time to its
    /// worker along with the compute time (-D and -E). The one rule for
    /// this scheduler and for `hier`'s intra-node AWF, simulated and live.
    pub fn includes_overhead(&self) -> bool {
        matches!(self, AwfVariant::D | AwfVariant::E)
    }
}

/// A worker's completion report for one chunk.
#[derive(Clone, Copy, Debug)]
pub struct WorkerReport {
    /// Reporting worker id.
    pub worker: u32,
    /// The chunk that was completed.
    pub chunk: Chunk,
    /// Time spent executing the chunk's iterations.
    pub compute_time: f64,
    /// Time spent obtaining the chunk (scheduling overhead).
    pub sched_time: f64,
}

#[derive(Clone, Copy, Debug, Default)]
struct WorkerHist {
    iters: u64,
    time: f64,
}

/// Stateful AWF scheduler. Drive it with [`AwfScheduler::next_chunk`] and
/// [`AwfScheduler::record`].
#[derive(Clone, Debug)]
pub struct AwfScheduler {
    spec: LoopSpec,
    variant: AwfVariant,
    state: SchedState,
    weights: Vec<f64>,
    hist: Vec<WorkerHist>,
    chunks_in_batch: u64,
    pending_updates: bool,
}

impl AwfScheduler {
    /// New scheduler for a loop over `spec.n_workers` workers, all
    /// initially weighted equally.
    pub fn new(spec: LoopSpec, variant: AwfVariant) -> Self {
        let p = spec.p() as usize;
        Self {
            spec,
            variant,
            state: SchedState::START,
            weights: vec![1.0; p],
            hist: vec![WorkerHist::default(); p],
            chunks_in_batch: 0,
            pending_updates: false,
        }
    }

    /// Current (mean-normalised) weight of each worker.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Scheduling state (step / scheduled counters).
    pub fn state(&self) -> SchedState {
        self.state
    }

    /// Obtain the next chunk for `worker`, or `None` when the loop is
    /// exhausted.
    pub fn next_chunk(&mut self, worker: u32) -> Option<Chunk> {
        if self.state.exhausted(&self.spec) {
            return None;
        }
        let p = self.spec.p();
        // Batch boundary: refresh weights for -B/-D (for -C/-E they are
        // refreshed on every record()).
        if self.chunks_in_batch >= p {
            self.chunks_in_batch = 0;
            if !self.variant.updates_per_chunk() && self.pending_updates {
                self.refresh_weights();
                self.pending_updates = false;
            }
        }
        let base = crate::nonadaptive::Factoring2::chunk_at_step(&self.spec, self.state.step);
        let w = self.weights.get(worker as usize).copied().unwrap_or(1.0);
        let size = ((base as f64 * w).ceil() as u64).max(1);
        self.chunks_in_batch += 1;
        self.state.take(&self.spec, size)
    }

    /// Record a completed chunk; may update weights depending on variant.
    pub fn record(&mut self, report: WorkerReport) {
        let idx = report.worker as usize;
        if idx >= self.hist.len() {
            return;
        }
        let time = if self.variant.includes_overhead() {
            report.compute_time + report.sched_time
        } else {
            report.compute_time
        };
        self.hist[idx].iters += report.chunk.len;
        self.hist[idx].time += time.max(0.0);
        if self.variant.updates_per_chunk() {
            self.refresh_weights();
        } else {
            self.pending_updates = true;
        }
    }

    /// Recompute weights from the measured iteration rates
    /// ([`rate_weights`]).
    fn refresh_weights(&mut self) {
        self.weights = rate_weights(self.hist.iter().map(|h| (h.iters, h.time)));
    }

    /// True when every iteration has been assigned.
    pub fn exhausted(&self) -> bool {
        self.state.exhausted(&self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_exactly_once;

    fn run_round_robin(variant: AwfVariant, n: u64, p: u32, slow_worker: u32) -> Vec<f64> {
        let spec = LoopSpec::new(n, p);
        let mut s = AwfScheduler::new(spec, variant);
        let mut all = Vec::new();
        let mut w = 0u32;
        while let Some(chunk) = s.next_chunk(w) {
            // slow_worker takes 4x time per iteration.
            let t = chunk.len as f64 * if w == slow_worker { 4.0 } else { 1.0 };
            s.record(WorkerReport { worker: w, chunk, compute_time: t, sched_time: 0.1 });
            all.push(chunk);
            w = (w + 1) % p;
        }
        check_exactly_once(&all, n).unwrap();
        s.weights().to_vec()
    }

    #[test]
    fn only_d_and_e_charge_scheduling_time() {
        let charged: Vec<AwfVariant> =
            AwfVariant::ALL.into_iter().filter(AwfVariant::includes_overhead).collect();
        assert_eq!(charged, [AwfVariant::D, AwfVariant::E]);
    }

    #[test]
    fn covers_loop_all_variants() {
        for v in AwfVariant::ALL {
            let w = run_round_robin(v, 5000, 4, 2);
            assert_eq!(w.len(), 4);
        }
    }

    #[test]
    fn slow_worker_gets_lower_weight() {
        for v in AwfVariant::ALL {
            let w = run_round_robin(v, 5000, 4, 2);
            for i in [0usize, 1, 3] {
                assert!(
                    w[2] < w[i],
                    "{}: slow worker weight {} not below worker {i} weight {}",
                    v.name(),
                    w[2],
                    w[i]
                );
            }
        }
    }

    #[test]
    fn weights_stay_normalised() {
        let w = run_round_robin(AwfVariant::C, 10_000, 8, 0);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn initial_weights_equal() {
        let s = AwfScheduler::new(LoopSpec::new(100, 4), AwfVariant::B);
        assert_eq!(s.weights(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn first_chunk_matches_fac2() {
        let spec = LoopSpec::new(1024, 4);
        let mut s = AwfScheduler::new(spec, AwfVariant::B);
        let c = s.next_chunk(0).unwrap();
        assert_eq!(c.len, 128);
    }

    #[test]
    fn record_out_of_range_worker_is_ignored() {
        let spec = LoopSpec::new(100, 2);
        let mut s = AwfScheduler::new(spec, AwfVariant::C);
        let c = s.next_chunk(0).unwrap();
        s.record(WorkerReport { worker: 99, chunk: c, compute_time: 1.0, sched_time: 0.0 });
        assert_eq!(s.weights(), &[1.0, 1.0]);
    }

    #[test]
    fn variant_names() {
        assert_eq!(AwfVariant::B.name(), "AWF-B");
        assert_eq!(AwfVariant::E.name(), "AWF-E");
    }

    #[test]
    fn exhausted_after_full_schedule() {
        let spec = LoopSpec::new(10, 2);
        let mut s = AwfScheduler::new(spec, AwfVariant::B);
        while s.next_chunk(0).is_some() {}
        assert!(s.exhausted());
        assert!(s.next_chunk(1).is_none());
    }
}

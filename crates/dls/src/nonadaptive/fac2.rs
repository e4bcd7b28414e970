//! FAC2: the practical factoring variant — every batch assigns **half of
//! the remaining iterations**, split into `P` equal chunks. Its first
//! chunk is half of GSS's first chunk, which balances front-loaded
//! workloads better than GSS.

use super::fac::{half_remainder_chunk, remainder_at_batch};
use crate::chunk::{LoopSpec, SchedState};
use crate::technique::{ChunkCalculator, WorkerCtx};

/// Practical factoring: `chunk_j = ceil(R_j / (2P))` for every chunk of
/// batch `j`; `R_j` is reconstructed exactly from the scheduling step.
///
/// ```
/// use dls::{sequence::schedule_all, LoopSpec, Technique};
///
/// let sizes: Vec<u64> = schedule_all(&LoopSpec::new(1024, 4), &Technique::fac2())
///     .iter().map(|c| c.len).collect();
/// assert_eq!(&sizes[..8], &[128, 128, 128, 128, 64, 64, 64, 64]);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Factoring2;

impl Factoring2 {
    /// Chunk size at scheduling step `step` (pure replay).
    pub fn chunk_at_step(spec: &LoopSpec, step: u64) -> u64 {
        Self::batch_at_step(spec, step).1
    }

    /// `(R, chunk)` of the batch holding `step`: the iterations left at
    /// its start and the size of each of its `P` chunks. `O(batches)`,
    /// which is `O(log n)`.
    pub(crate) fn batch_at_step(spec: &LoopSpec, step: u64) -> (u64, u64) {
        let p = spec.p();
        let r = remainder_at_batch(spec.n_iters, p, step, |r| half_remainder_chunk(r, p));
        (r, half_remainder_chunk(r, p))
    }
}

impl ChunkCalculator for Factoring2 {
    #[inline]
    fn chunk_size(&self, spec: &LoopSpec, state: SchedState, _ctx: WorkerCtx) -> u64 {
        Self::chunk_at_step(spec, state.step)
    }

    fn name(&self) -> &'static str {
        "FAC2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonadaptive::Guided;
    use crate::sequence::ChunkSequence;
    use crate::technique::Technique;
    use crate::verify::{assert_partition, is_nonincreasing};

    #[test]
    fn first_chunk_is_half_of_gss_first_chunk() {
        let spec = LoopSpec::new(1000, 4);
        let fac2_first = Factoring2::chunk_at_step(&spec, 0);
        let gss_first =
            Guided::default().chunk_size(&spec, SchedState::START, WorkerCtx::default());
        assert_eq!(fac2_first, 125);
        assert_eq!(gss_first, 250);
        assert_eq!(fac2_first * 2, gss_first);
    }

    #[test]
    fn batches_halve() {
        let spec = LoopSpec::new(1024, 4);
        let sizes: Vec<u64> =
            ChunkSequence::new(&spec, &Technique::fac2()).map(|c| c.len).collect();
        // 1024: batch0 = 128 x4 (512 left), batch1 = 64 x4, batch2 = 32 x4, ...
        assert_eq!(&sizes[..4], &[128, 128, 128, 128]);
        assert_eq!(&sizes[4..8], &[64, 64, 64, 64]);
        assert_eq!(&sizes[8..12], &[32, 32, 32, 32]);
    }

    #[test]
    fn covers_loop() {
        for (n, p) in [(1000, 4), (999, 7), (1, 16), (65536, 16), (12345, 3)] {
            let spec = LoopSpec::new(n, p);
            let chunks: Vec<_> = ChunkSequence::new(&spec, &Technique::fac2()).collect();
            assert_partition(&chunks, n);
            assert!(is_nonincreasing(&chunks), "n={n} p={p}");
        }
    }

    #[test]
    fn replay_matches_sequence_steps() {
        let spec = LoopSpec::new(7777, 5);
        let chunks: Vec<_> = ChunkSequence::new(&spec, &Technique::fac2()).collect();
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len, Factoring2::chunk_at_step(&spec, c.step));
        }
    }

    #[test]
    fn terminates_with_ones() {
        let spec = LoopSpec::new(100, 4);
        let chunks: Vec<_> = ChunkSequence::new(&spec, &Technique::fac2()).collect();
        assert_eq!(chunks.last().unwrap().len, 1);
    }
}

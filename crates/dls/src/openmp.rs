//! OpenMP `schedule` clause semantics and the paper's Table 1 mapping
//! between DLS techniques and OpenMP scheduling options.
//!
//! The intra-node baseline of the paper executes chunks with the Intel
//! OpenMP runtime, which supports `static`, `dynamic`, and `guided`. This
//! module is the one place that knows that mapping: the `openmp-sim`
//! worksharing runtime sizes its dispatches with
//! [`OmpSchedule::chunk_size`] and [`static_blocks`], and the MPI+OpenMP
//! executors of the `hier` crate ask [`omp_equivalent`] which clause (if
//! any) an intra-node technique is.

use crate::chunk::{LoopSpec, SchedState};
use crate::nonadaptive::{FixedSizeChunking, Guided, SelfScheduling, StaticChunking};
use crate::technique::{ChunkCalculator, Kind, Technique, WorkerCtx};
use std::fmt;
use std::ops::Range;

/// An OpenMP `schedule(kind[, chunk])` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OmpSchedule {
    /// `schedule(static)` (block) or `schedule(static, k)` (block-cyclic;
    /// we model the `k = None` block form the paper uses).
    Static {
        /// Optional chunk granularity.
        chunk: Option<u64>,
    },
    /// `schedule(dynamic, k)`; `k` defaults to 1.
    Dynamic {
        /// Chunk granularity (defaults to 1).
        chunk: u64,
    },
    /// `schedule(guided, k)`; `k` defaults to 1 and acts as the minimum
    /// chunk size.
    Guided {
        /// Minimum chunk size (defaults to 1).
        chunk: u64,
    },
}

impl OmpSchedule {
    /// `schedule(static)`.
    pub fn static_block() -> Self {
        OmpSchedule::Static { chunk: None }
    }

    /// `schedule(dynamic, 1)`.
    pub fn dynamic1() -> Self {
        OmpSchedule::Dynamic { chunk: 1 }
    }

    /// `schedule(guided, 1)`.
    pub fn guided1() -> Self {
        OmpSchedule::Guided { chunk: 1 }
    }

    /// The equivalent DLS technique (the inverse of Table 1).
    pub fn to_technique(self) -> Technique {
        match self {
            OmpSchedule::Static { chunk: None } => Technique::Static(StaticChunking),
            OmpSchedule::Static { chunk: Some(k) } => {
                // Block-cyclic static behaves like fixed-size chunking for
                // coverage purposes.
                Technique::Fsc(FixedSizeChunking::with_chunk(k))
            }
            OmpSchedule::Dynamic { chunk: 1 } => Technique::Ss(SelfScheduling),
            OmpSchedule::Dynamic { chunk: k } => Technique::Fsc(FixedSizeChunking::with_chunk(k)),
            OmpSchedule::Guided { chunk: k } => Technique::Gss(Guided::with_min_chunk(k)),
        }
    }

    /// Chunk size this clause dispatches at the given state. Every
    /// clause is step-free (the size depends on `state.scheduled` at
    /// most), which is what lets a worksharing runtime keep a bare
    /// cursor as its whole scheduling state.
    pub fn chunk_size(&self, spec: &LoopSpec, state: SchedState) -> u64 {
        self.to_technique().chunk_size(spec, state, WorkerCtx::default())
    }
}

impl fmt::Display for OmpSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpSchedule::Static { chunk: None } => write!(f, "schedule(static)"),
            OmpSchedule::Static { chunk: Some(k) } => write!(f, "schedule(static,{k})"),
            OmpSchedule::Dynamic { chunk } => write!(f, "schedule(dynamic,{chunk})"),
            OmpSchedule::Guided { chunk } => write!(f, "schedule(guided,{chunk})"),
        }
    }
}

/// A row of the paper's Table 1: a DLS technique and the OpenMP
/// `schedule` clause that implements it, if any.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// DLS technique.
    pub technique: Kind,
    /// Equivalent OpenMP schedule clause, `None` when the OpenMP standard
    /// offers no equivalent (TSS, FAC2, ...).
    pub omp: Option<OmpSchedule>,
}

/// The paper's Table 1: mapping between the DLS techniques and the OpenMP
/// `schedule` clause options. Techniques without an OpenMP equivalent are
/// included with `omp = None`, which is exactly the limitation the
/// MPI+MPI approach removes.
pub fn table1() -> Vec<Table1Row> {
    Kind::PAPER
        .into_iter()
        .map(|technique| Table1Row {
            technique,
            omp: omp_equivalent(&Technique::from_kind(technique)),
        })
        .collect()
}

/// The OpenMP clause implementing a DLS technique, if the (Intel) OpenMP
/// runtime the paper uses supports one — the inverse of
/// [`OmpSchedule::to_technique`], parameters included: `GSS:k` is
/// `guided,k` and `FSC:k` is `dynamic,k`. FSC without an explicit chunk
/// sizes itself from loop statistics no clause can carry, so it has no
/// equivalent, like TSS, FAC2 and the rest.
pub fn omp_equivalent(technique: &Technique) -> Option<OmpSchedule> {
    match *technique {
        Technique::Static(_) => Some(OmpSchedule::static_block()),
        Technique::Ss(_) => Some(OmpSchedule::dynamic1()),
        Technique::Fsc(FixedSizeChunking { explicit: Some(chunk), .. }) => {
            Some(OmpSchedule::Dynamic { chunk })
        }
        Technique::Gss(Guided { min_chunk }) => Some(OmpSchedule::Guided { chunk: min_chunk }),
        _ => None,
    }
}

/// The blocks `schedule(static[, chunk])` assigns to thread `tid` of a
/// team of `threads` over `range`: blocks of `chunk` iterations
/// (`ceil(len / threads)` when `None`, so one block per thread) handed
/// out round-robin by thread id, in ascending order.
pub fn static_blocks(
    range: Range<u64>,
    chunk: Option<u64>,
    tid: u32,
    threads: u32,
) -> impl Iterator<Item = Range<u64>> {
    let len = range.end.saturating_sub(range.start);
    let spec = LoopSpec::new(len, threads);
    let block = OmpSchedule::Static { chunk }.chunk_size(&spec, SchedState::START);
    let stride = block.saturating_mul(spec.p());
    // A first block past `u64::MAX` is past `len` too.
    let first = u64::from(tid).checked_mul(block);
    std::iter::successors(first, move |base| base.checked_add(stride))
        .take_while(move |&base| base < len)
        .map(move |base| range.start + base..range.start + base.saturating_add(block).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::schedule_all;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].omp, Some(OmpSchedule::Static { chunk: None }));
        assert_eq!(t[1].omp, Some(OmpSchedule::Dynamic { chunk: 1 }));
        assert_eq!(t[2].omp, Some(OmpSchedule::Guided { chunk: 1 }));
        assert!(t[3].omp.is_none()); // TSS
        assert!(t[4].omp.is_none()); // FAC2
    }

    #[test]
    fn clauses_chunk_like_their_technique() {
        let spec = LoopSpec::new(1000, 4);
        // guided,1 == GSS
        let via_clause: Vec<_> = schedule_all(&spec, &OmpSchedule::guided1().to_technique());
        let via_gss: Vec<_> = schedule_all(&spec, &Technique::gss());
        assert_eq!(
            via_clause.iter().map(|c| c.len).collect::<Vec<_>>(),
            via_gss.iter().map(|c| c.len).collect::<Vec<_>>()
        );
        // dynamic,1 == SS
        let dyn1 = schedule_all(&spec, &OmpSchedule::dynamic1().to_technique());
        assert_eq!(dyn1.len(), 1000);
        // static == STATIC
        let st = schedule_all(&spec, &OmpSchedule::static_block().to_technique());
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn dynamic_k_chunks_fixed() {
        let spec = LoopSpec::new(100, 4);
        let chunks = schedule_all(&spec, &OmpSchedule::Dynamic { chunk: 8 }.to_technique());
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len, 8);
        }
    }

    #[test]
    fn guided_k_min_chunk() {
        let spec = LoopSpec::new(100, 4);
        let chunks = schedule_all(&spec, &OmpSchedule::Guided { chunk: 9 }.to_technique());
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len >= 9);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(OmpSchedule::static_block().to_string(), "schedule(static)");
        assert_eq!(OmpSchedule::dynamic1().to_string(), "schedule(dynamic,1)");
        assert_eq!(OmpSchedule::Guided { chunk: 4 }.to_string(), "schedule(guided,4)");
        assert_eq!(OmpSchedule::Static { chunk: Some(2) }.to_string(), "schedule(static,2)");
    }

    #[test]
    fn omp_equivalent_only_for_intel_supported() {
        let of = |s: &str| omp_equivalent(&s.parse().unwrap());
        assert_eq!(of("STATIC"), Some(OmpSchedule::static_block()));
        assert_eq!(of("SS"), Some(OmpSchedule::dynamic1()));
        assert_eq!(of("GSS"), Some(OmpSchedule::guided1()));
        // Parameters are part of the clause.
        assert_eq!(of("GSS:4"), Some(OmpSchedule::Guided { chunk: 4 }));
        assert_eq!(of("FSC:8"), Some(OmpSchedule::Dynamic { chunk: 8 }));
        for none in ["TSS", "FAC", "FAC2", "TFSS", "WF", "RND", "FSC"] {
            assert_eq!(of(none), None, "{none}");
        }
    }

    #[test]
    fn static_blocks_partition_the_range() {
        let blocks =
            |chunk, tid, threads| static_blocks(10..110, chunk, tid, threads).collect::<Vec<_>>();
        // schedule(static): one block of ceil(100/4) per thread.
        for tid in 0..4 {
            let base = 10 + 25 * u64::from(tid);
            assert_eq!(blocks(None, tid, 4), vec![base..base + 25]);
        }
        // A team larger than the range leaves the tail threads idle.
        assert_eq!(static_blocks(0..3, None, 2, 8).collect::<Vec<_>>(), vec![2..3]);
        assert_eq!(static_blocks(0..3, None, 3, 8).count(), 0);
        // schedule(static,30): blocks round-robin by thread id, tail clamped.
        let expect: Vec<Range<u64>> = vec![40..70, 100..110];
        assert_eq!(blocks(Some(30), 1, 2), expect);
        // Neither an empty range nor a block size near u64::MAX wraps.
        assert_eq!(static_blocks(7..7, None, 0, 4).count(), 0);
        assert_eq!(blocks(Some(u64::MAX), 0, 4), vec![10..110]);
        assert_eq!(blocks(Some(u64::MAX), 3, 4), Vec::<Range<u64>>::new());
    }
}

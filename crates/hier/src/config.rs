//! Configuration of a hierarchical run: which technique at which level,
//! executed with which approach.

use dls::openmp::omp_equivalent;
use dls::{ChunkCalculator, Kind, Technique};
use std::fmt;

/// Which implementation executes the intra-node level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The paper's proposed MPI+MPI approach: shared local work queue in
    /// an MPI-3 shared-memory window; no end-of-chunk barrier.
    MpiMpi,
    /// The baseline hybrid: one MPI process per node plus an OpenMP
    /// thread team with an implicit barrier after every chunk.
    MpiOpenMp,
}

impl Approach {
    /// Both approaches, proposal first.
    pub const ALL: [Approach; 2] = [Approach::MpiMpi, Approach::MpiOpenMp];

    /// Display name as used in the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::MpiMpi => "MPI+MPI",
            Approach::MpiOpenMp => "MPI+OpenMP",
        }
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the global work queue is realised over RMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GlobalQueueMode {
    /// The distributed chunk-calculation formulation of the paper's
    /// reference [15]: one shared counter (the latest scheduling step),
    /// advanced with a single `MPI_Fetch_and_op`; every worker computes
    /// its chunk bounds locally as a pure function of the step.
    #[default]
    SingleAtomic,
    /// Both counters (step, scheduled) kept in the window and updated
    /// under `MPI_Win_lock(EXCLUSIVE)` — simpler, but each fetch costs
    /// lock + access + unlock round trips.
    LockedCounters,
}

/// How a live MPI+MPI run realises each node's local queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeQueueMode {
    /// Lock-free: one packed word ([`crate::protocol::counter::Word`])
    /// beside the deposit's bounds, every access an MPI atomic inside a
    /// run-long `lock_all`. A take reads the word and the bounds,
    /// computes its sub-chunk from the step and compare-and-swaps the
    /// step forward. Runs fall back to [`NodeQueueMode::Locked`] where
    /// the take needs more than the step
    /// ([`crate::protocol::counter::eligible`]).
    #[default]
    Counter,
    /// The paper's protocol: every take, probe and deposit is one
    /// `MPI_Win_lock(EXCLUSIVE)` epoch on the node window.
    Locked,
}

/// A two-level scheduling combination, written `X+Y` in the paper:
/// `X` at the inter-node level, `Y` at the intra-node level.
#[derive(Clone, Copy, Debug)]
pub struct HierSpec {
    /// Inter-node technique (global queue).
    pub inter: Technique,
    /// Intra-node technique (local queue / OpenMP schedule).
    pub intra: Technique,
}

impl HierSpec {
    /// Build from two technique kinds with default parameters.
    pub fn new(inter: Kind, intra: Kind) -> Self {
        Self { inter: Technique::from_kind(inter), intra: Technique::from_kind(intra) }
    }

    /// `"X+Y"` label as used in the paper.
    pub fn label(&self) -> String {
        format!("{}+{}", self.inter.name(), self.intra.name())
    }

    /// Whether the Intel OpenMP runtime the paper uses can execute the
    /// intra-node technique, i.e. whether Table 1
    /// ([`dls::openmp::omp_equivalent`]) has a `static`, `dynamic,k` or
    /// `guided,k` clause for it — combinations like `GSS+TSS` exist
    /// *only* under MPI+MPI, which is one of the paper's points.
    pub fn supported_by_openmp(&self) -> bool {
        omp_equivalent(&self.intra).is_some()
    }
}

impl fmt::Display for HierSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(HierSpec::new(Kind::GSS, Kind::STATIC).label(), "GSS+STATIC");
        assert_eq!(HierSpec::new(Kind::FAC2, Kind::SS).label(), "FAC2+SS");
    }

    #[test]
    fn openmp_support_matrix() {
        assert!(HierSpec::new(Kind::GSS, Kind::STATIC).supported_by_openmp());
        assert!(HierSpec::new(Kind::GSS, Kind::SS).supported_by_openmp());
        assert!(HierSpec::new(Kind::GSS, Kind::GSS).supported_by_openmp());
        assert!(!HierSpec::new(Kind::GSS, Kind::TSS).supported_by_openmp());
        assert!(!HierSpec::new(Kind::GSS, Kind::FAC2).supported_by_openmp());
        // The clause carries the parameter; FSC needs an explicit one.
        let intra = |s: &str| HierSpec { inter: Technique::gss(), intra: s.parse().unwrap() };
        assert!(intra("GSS:4").supported_by_openmp());
        assert!(intra("FSC:8").supported_by_openmp());
        assert!(!intra("FSC").supported_by_openmp());
    }

    #[test]
    fn approach_names() {
        assert_eq!(Approach::MpiMpi.to_string(), "MPI+MPI");
        assert_eq!(Approach::MpiOpenMp.to_string(), "MPI+OpenMP");
    }
}

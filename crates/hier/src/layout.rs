//! The RMA window layout of the hierarchical protocols — the single
//! source of truth for every slot index: the live executors
//! ([`crate::live`]) address their windows with these constants, the
//! virtual-time executors ([`crate::sim`]) synthesize access logs
//! against them (`sim::RmaTape`), and external tooling replays
//! abstract protocol traces against the same displacements (the
//! `model-check` crate's counterexample replay, which names this
//! module by its re-export `hier::sim::layout`).
//!
//! Window 0 is the global queue; window `1 + node` is that node's
//! shared-memory local queue. Displacements within each window are the
//! protocol's counters and flags.

/// Window id of the global work queue.
pub const GLOBAL_WIN: u64 = 0;

/// Local-queue window id for node `node_idx`.
pub fn node_win(node_idx: usize) -> u64 {
    1 + node_idx as u64
}

/// Local-queue slot: first iteration of the deposited chunk.
pub const LO: usize = 2;
/// Local-queue slot: one past the last iteration of the deposited chunk.
pub const HI: usize = 3;
/// Local-queue slot: intra-node scheduling step within the chunk.
pub const STEP: usize = 4;
/// Local-queue slot: iterations of the chunk already handed out.
pub const TAKEN: usize = 5;
/// Local-queue flag: a worker of this node is fetching from the global
/// queue.
pub const REFILLING: usize = 0;
/// Local-queue flag: the global queue was observed exhausted.
pub const GLOBAL_DONE: usize = 1;
/// Global-queue slot: the latest inter-node scheduling step.
pub const GSTEP: usize = 0;
/// Global-queue slot: total iterations scheduled at the inter level.
pub const GSCHED: usize = 1;

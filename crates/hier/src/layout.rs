//! The RMA window layout of the hierarchical protocols — the single
//! source of truth for every slot index. [`crate::protocol`]'s
//! transaction shapes are written over these constants; the executors'
//! logs use them, and live only the node window's queue
//! (`live::window_queue`) reads or writes the queue slots and flags.
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
/// Local-queue slot of the lock-free realisation
/// ([`crate::config::NodeQueueMode::Counter`]): the packed
/// `(generation, refilling, global_done, step)` word of
/// [`crate::protocol::counter::Word`], beside the deposit's `LO` and
/// `HI`. It is `STEP`'s slot with the generation and both flags packed
/// above the step, so `TAKEN` and the flag slots stay unused in that mode
/// and the locked layout does not move.
pub const WORD: usize = STEP;
/// Global-queue slot: the latest inter-node scheduling step.
pub const GSTEP: usize = 0;
/// Global-queue slot: total iterations scheduled at the inter level.
pub const GSCHED: usize = 1;

//! # durability — write-ahead journal + snapshot/replay recovery
//!
//! The paper's global queue is two counters and a technique: chunk
//! boundaries are a *deterministic function* of `(step, scheduled)`
//! and the `dls` calculator driving them (the distributed
//! chunk-calculation insight of Eleliemy & Ciorba). That makes the
//! queue unusually cheap to persist — the journal never records chunk
//! *contents*, only counter high-watermarks and the lease ledger, and
//! replay re-derives everything else through the real calculators.
//!
//! Four layers:
//!
//! * [`job`] — the job kernel: the one sequential state machine
//!   (counters, lease ledger, reclaim pool, technique switches) that
//!   the live server, replay, and the checkers all drive.
//! * [`frame`] — the on-disk record framing: length-prefixed,
//!   CRC32-guarded records in append-only segment files. A crash can
//!   tear at most the tail of the last segment; opening truncates back
//!   to the last complete record instead of refusing to start.
//! * [`Journal`] — group-commit segment writer. Appends are buffered
//!   in memory; one [`Journal::commit`] per event-loop cycle writes the
//!   whole burst and fsyncs according to the [`SyncPolicy`] knob, so
//!   the hot path pays one buffered append per fetch burst and one
//!   fsync per cycle, not per chunk. Periodic snapshots seal the
//!   current segment, persist the full replayed state, and garbage-
//!   collect every older segment.
//! * [`replay`] — the recovery state machine: applying a record
//!   stream (snapshot base + segment tail) to [`RecoveredState`] is
//!   deterministic and *idempotent*, so a snapshot that raced ahead of
//!   its journal position replays the overlap as a no-op. After
//!   replay, [`RecoveredState::re_arm`] turns every still-active lease
//!   into a reclaimed range — the crashed clients are gone; their
//!   unfinished chunks go back to the pool and the existing
//!   exactly-once reclaim machinery does the rest.
//!
//! The epoch rule that closes the reconnect ambiguity: every open
//! appends a [`JournalRecord::ServerStart`] with a bumped epoch and
//! fsyncs it before any grant goes out. Grants carry the epoch; a
//! report from a previous epoch is detectably stale (the service
//! answers a typed `StaleEpoch`), so a pre-crash grant can never be
//! double-counted against its post-crash re-issue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod frame;
pub mod job;
pub mod journal;
pub mod record;
pub mod replay;

pub use job::JobCore;
pub use journal::{Journal, JournalOptions, JournalStats, RecoverError, SyncPolicy};
pub use record::{GrantEntry, JournalRecord};
pub use replay::{ImageWriter, RecoveredState};

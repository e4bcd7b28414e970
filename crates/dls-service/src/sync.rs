//! Thin synchronization facade for the service core.
//!
//! Every concurrency primitive the server touches — the shard mutexes,
//! the counter atomics, the shutdown condvar — is imported through this
//! module rather than from `std::sync` directly. In a normal build the
//! re-exports below compile to *exactly* `std::sync` (zero-cost: they
//! are `pub use` aliases, not wrappers). Under the `conc-check` feature
//! the same names resolve to the instrumented virtual primitives from
//! the `conc-check` crate, so the identical server code can be driven
//! through the deterministic interleaving explorer without a single
//! source change.
//!
//! Rules of the facade:
//! * server/event-loop code must not name `std::sync` primitives
//!   directly (the `poller::sys` layer and signal handlers are exempt:
//!   async-signal context must not take the model scheduler's baton);
//! * only the primitives the core actually uses are re-exported — if a
//!   new one is needed, add it here in both halves.

#[cfg(not(feature = "conc-check"))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

#[cfg(not(feature = "conc-check"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}

#[cfg(feature = "conc-check")]
pub use conc_check::sync::{Arc, Condvar, Mutex, MutexGuard};

#[cfg(feature = "conc-check")]
pub mod atomic {
    pub use conc_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}

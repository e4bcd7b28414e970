//! # model-check — the AUTO mode's technique-switch adversary
//!
//! The service's AUTO job mode switches the active DLS technique at
//! batch boundaries while the job's `step` and `scheduled` counters
//! keep chunk placement exactly-once. [`switch`] checks that re-basing
//! invariant at small scope on the job kernel itself,
//! `durability::JobCore`, the one state machine the server and the
//! journal replayer run:
//!
//! * [`explore_switch_plans`] — DFS over every ladder choice at every
//!   batch boundary;
//! * [`crash_sweep`] — a crash after every event placement
//!   (switch-then-crash included), recovered through
//!   `JobCore::re_arm`;
//! * seeded-broken [`SwitchVariant`]s — the counters hidden from
//!   `switch` or from `re_arm` — whose grant past `n` the checker must
//!   find.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod switch;

pub use switch::{
    crash_sweep, explore_switch_plans, SwitchConfig, SwitchOutcome, SwitchPlan, SwitchVariant,
    SwitchViolation,
};

//! # openmp-sim — a miniature OpenMP-style worksharing runtime
//!
//! The paper's baseline executes chunks with an OpenMP thread team:
//! `#pragma omp parallel` forks a team, `#pragma omp for
//! schedule(static|dynamic|guided)` distributes iterations, and every
//! worksharing region ends in an **implicit barrier** unless `nowait`
//! is given. This crate provides the constructs the baseline uses as a
//! small library over OS threads, so the MPI+OpenMP executor (and its
//! tests) run against a real worksharing runtime rather than ad-hoc
//! thread code:
//!
//! * [`Team::parallel`] — fork-join parallel region with per-thread
//!   context ([`TeamCtx`]): `thread_num`.
//! * [`TeamCtx::for_each`] — worksharing loop over a
//!   [`dls::openmp::OmpSchedule`] clause (the type and its dispatch
//!   sizes are `dls`'s, so a team and the `dls` calculators cannot
//!   disagree about Table 1) with its implicit barrier. A dynamic or
//!   guided region is retired at that barrier, so a team that opens one
//!   construct per chunk keeps no state per chunk. There is no `nowait`
//!   construct: the live MPI+OpenMP baseline never runs one, and the
//!   `nowait` ablation is the simulator's.
//! * [`TeamCtx::barrier`], [`TeamCtx::master`] — the synchronisation
//!   constructs hierarchical DLS codes use.
//!
//! ```
//! use dls::openmp::OmpSchedule;
//! use openmp_sim::Team;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! Team::new(4).parallel(|ctx| {
//!     ctx.for_each(0..1000, OmpSchedule::Guided { chunk: 1 }, |i| {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod region;
mod schedule;
mod team;

pub use team::{Team, TeamCtx};

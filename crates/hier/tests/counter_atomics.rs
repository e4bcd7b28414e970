//! What one lock-free take costs on the node window, counted off the
//! recorded RMA log: a rank that expects the word its last CAS wrote and
//! holds its generation's certified bounds takes with the CAS alone
//! (`hier::protocol::counter`'s `Cursor`). Contended, the same caches
//! must still hand out every iteration exactly once.

use dls::Kind;
use hier::live::{run_live_mpi_mpi, serial_checksum, LiveResult};
use hier::queue::exactly_once;
use hier::{Approach, HierSpec, NodeQueueMode, RunConfig};
use mpisim::RmaEvent;
use workloads::synthetic::Synthetic;

const N: u64 = 10_000;

fn run(spec: HierSpec, wpn: u32) -> (LiveResult, Synthetic) {
    let w = Synthetic::uniform(N, 1, 100, 3);
    let mut cfg = RunConfig::new(1, wpn, spec, Approach::MpiMpi);
    cfg.node_mode = NodeQueueMode::Counter;
    cfg.record_rma = true;
    (run_live_mpi_mpi(&cfg, &w).expect("live run"), w)
}

/// The atomics every rank issued on the node's shared window.
fn node_atomics(r: &LiveResult) -> u64 {
    let node = r
        .rma
        .iter()
        .find_map(|rec| {
            matches!(rec.event, RmaEvent::Attach { shared: true, .. }).then_some(rec.win)
        })
        .expect("a node window");
    r.rma
        .iter()
        .filter(|rec| rec.win == node && matches!(rec.event, RmaEvent::Atomic { .. }))
        .count() as u64
}

/// One rank, nobody to race: every sub-chunk is one CAS, and what a
/// deposit adds is a constant. Counted per node-window event:
///
/// * 4 once at the start: the first take reads the word (no expectation
///   yet), `LO` and `HI` (generation 0 is not certified), and CASes the
///   zeroed slot's drained generation 0 sealed;
/// * 5 per deposit: the publish (`LO`, `HI` and the word, three
///   `Replace`s), one read of the word (a publish drops the expectation;
///   the bounds it wrote are certified), and the CAS that seals the
///   drained deposit after its last sub-chunk;
/// * 2 once at the end: the `Done` publish and the word read that finds
///   the node done.
///
/// Before the cursor cached anything each take read the word and both
/// bounds before its CAS: 4 per sub-chunk, 7 per deposit, the same 6.
#[test]
fn an_uncontended_take_is_one_compare_and_swap() {
    for inter in [Kind::GSS, Kind::FAC2, Kind::SS] {
        let (r, w) = run(HierSpec::new(inter, Kind::SS), 1);
        assert_eq!(r.checksum, serial_checksum(&w), "{inter}");
        exactly_once(&r.executed, N).expect("exactly-once");
        let (subs, deposits) = (r.stats.nodes[0].sub_chunks, r.stats.nodes[0].deposits);
        assert_eq!(subs, N, "{inter}: SS takes one iteration per sub-chunk");
        assert_eq!(node_atomics(&r), subs + 5 * deposits + 6, "{inter}: {deposits} deposits");
        assert_eq!(r.stats.workers[0].lock_polls, 0, "{inter}: a lone rank loses no CAS");
    }
}

/// Ranks that race for one word: a lost CAS hands its retry the word it
/// found, and a generation the rank has not certified is read again.
#[test]
fn contended_takes_cover_every_iteration_once() {
    for wpn in [2, 4] {
        for (inter, intra) in
            [(Kind::GSS, Kind::SS), (Kind::FAC2, Kind::GSS), (Kind::SS, Kind::TSS)]
        {
            let (r, w) = run(HierSpec::new(inter, intra), wpn);
            assert_eq!(r.checksum, serial_checksum(&w), "1 x {wpn} {inter}+{intra}");
            assert_eq!(r.stats.total_iterations, N);
            exactly_once(&r.executed, N).expect("exactly-once");
        }
    }
}

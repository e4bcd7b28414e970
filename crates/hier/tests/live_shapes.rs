//! Every MPI+MPI executor issues the transactions `hier::protocol`
//! names. The virtual-time executor writes the shapes its protocol calls
//! return to its tape; the live rank loop makes the same calls over its
//! node window, which records each get and put as it is issued. This
//! pins the two to one protocol, RMA order included: every (window,
//! rank) stream of a recorded live log — over RMA windows or with the
//! global queue behind a `dls-service` socket — and of the sim's
//! synthesized log for the same run parses as a word over the shapes.
//! The sim and the live `NodeQueueMode::Locked` streams are words over
//! the locked queue's shapes; the live lock-free streams are `lock_all`,
//! a word over `protocol::counter`'s shapes, `unlock_all`.

use dls::Kind;
use dls_service::{Server, ServiceConfig};
use hier::live::{run_live_mpi_mpi, run_live_net};
use hier::protocol::{
    counter, DEPOSIT_DONE, DEPOSIT_TAKE, GLOBAL_FAA, GLOBAL_LOCKED_ADVANCE, GLOBAL_LOCKED_READ,
    PROBE_REFILL, PROBE_RELEASE, RELEASE, TAKE,
};
use hier::sim::simulate_mpi_mpi;
use hier::{Approach, GlobalQueueMode, HierSpec, NodeQueueMode, RunConfig};
use mpisim::{RmaEvent, RmaRecord};
use std::collections::{BTreeMap, BTreeSet};
use workloads::synthetic::Synthetic;
use workloads::CostTable;

const NODE_WORDS: [&[RmaEvent]; 5] =
    [TAKE, PROBE_RELEASE, PROBE_REFILL, DEPOSIT_TAKE, DEPOSIT_DONE];
/// The lock-free node shapes: a take is `[WORD read]? [LO, HI reads]?
/// WORD CAS`, the four forms first. `counter::PUBLISH` is
/// `counter::PROBE`'s one atomic on the word, so it parses as that.
const COUNTER_WORDS: [&[RmaEvent]; 6] = [
    counter::TAKE,
    counter::TAKE_WORD,
    counter::TAKE_BOUNDS,
    counter::TAKE_CAS,
    counter::DEPOSIT,
    counter::PROBE,
];
/// The index of `counter::TAKE_BOUNDS` in [`COUNTER_WORDS`]: a take
/// against the word a lost CAS found, of a generation the rank has not
/// certified. Only a race makes one, so no run is sure to show it.
const RACED_TAKE: usize = 2;

/// Per (window, rank) in window order: whether the window is a node's
/// shared one (from its `Attach`), and its events without the `Attach`
/// and barrier notes.
fn streams(rma: &[RmaRecord]) -> Vec<(bool, Vec<RmaEvent>)> {
    let mut by: BTreeMap<(u64, u32), (Option<bool>, Vec<RmaEvent>)> = BTreeMap::new();
    for r in rma {
        let (shared, events) = by.entry((r.win, r.rank)).or_default();
        match r.event {
            RmaEvent::Attach { shared: s, .. } => *shared = Some(s),
            RmaEvent::Barrier => {}
            e => events.push(e),
        }
    }
    by.into_values()
        .map(|(shared, events)| (shared.expect("stream without Attach"), events))
        .collect()
}

/// The indices into `words` whose concatenation is `events`, or `None`.
/// Within each shape list no shape is a prefix of another — except
/// `counter::PROBE` (one word read), a prefix of `counter::TAKE` and
/// `counter::TAKE_WORD`, which are tried first. The first match is the
/// only one because of what may follow a PROBE or a PUBLISH: the rank
/// expects no word after either (it yielded, retired or published), so
/// the next event is its word read or nothing — never a bounds read or
/// a CAS, which would make the word read a take's. And a CAS-only or
/// bounds-first take follows a CAS only, never a word read.
fn parse(mut events: &[RmaEvent], words: &[&[RmaEvent]]) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    while !events.is_empty() {
        let i = words.iter().position(|w| events.starts_with(w))?;
        events = &events[words[i].len()..];
        out.push(i);
    }
    Some(out)
}

/// Parse one node stream of a run whose node queue is `node`: the
/// locked `words`, or `lock_all`, a word over [`COUNTER_WORDS`] and
/// `unlock_all`. Returns which shapes occurred.
fn parse_node(
    events: &[RmaEvent],
    node: NodeQueueMode,
    words: &[&[RmaEvent]],
) -> Option<Vec<usize>> {
    match node {
        NodeQueueMode::Locked => parse(events, words),
        NodeQueueMode::Counter => match events {
            [RmaEvent::LockAll, middle @ .., RmaEvent::UnlockAll] => parse(middle, &COUNTER_WORDS),
            _ => None,
        },
    }
}

/// Check every stream of `rma` and return which node shapes occurred.
fn check(
    rma: &[RmaRecord],
    mode: GlobalQueueMode,
    node: NodeQueueMode,
    what: &str,
) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    for (shared, events) in streams(rma) {
        if shared {
            let words = parse_node(&events, node, &NODE_WORDS)
                .unwrap_or_else(|| panic!("{what}: node stream is no protocol word: {events:?}"));
            seen.extend(words);
            continue;
        }
        let ok = match mode {
            GlobalQueueMode::SingleAtomic => {
                events.first() == Some(&RmaEvent::LockAll)
                    && events.last() == Some(&RmaEvent::UnlockAll)
                    && parse(&events[1..events.len() - 1], &[GLOBAL_FAA]).is_some()
            }
            GlobalQueueMode::LockedCounters => {
                parse(&events, &[GLOBAL_LOCKED_READ, GLOBAL_LOCKED_ADVANCE]).is_some()
            }
        };
        assert!(ok, "{what}: global stream is no protocol word: {events:?}");
    }
    seen
}

#[test]
fn live_and_sim_logs_are_words_over_the_protocol_shapes() {
    let (nodes, wpn, n) = (2, 3, 600);
    let w = Synthetic::uniform(n, 1, 100, 3);
    let table = CostTable::build(&w);
    for (inter, intra) in [(Kind::GSS, Kind::SS), (Kind::STATIC, Kind::FAC2)] {
        let spec = HierSpec::new(inter, intra);
        for mode in [GlobalQueueMode::SingleAtomic, GlobalQueueMode::LockedCounters] {
            let what = format!("{inter}+{intra} {mode:?}");
            // Every node refills, takes, is marked done and has its ranks
            // retire on an empty probe: each node shape occurs (a lost
            // race's bounds-first take may).
            let all: BTreeSet<usize> = (0..NODE_WORDS.len()).collect();
            let all_counter: BTreeSet<usize> = (0..COUNTER_WORDS.len()).collect();
            let mut cfg = RunConfig::new(nodes, wpn, spec, Approach::MpiMpi);
            cfg.global_mode = mode;
            cfg.record_rma = true;
            for (node, all) in
                [(NodeQueueMode::Locked, &all), (NodeQueueMode::Counter, &all_counter)]
            {
                cfg.node_mode = node;
                let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
                let what = format!("live {what} {node:?}");
                let mut seen = check(&r.rma, mode, node, &what);
                if node == NodeQueueMode::Counter {
                    seen.insert(RACED_TAKE);
                }
                assert_eq!(&seen, all, "{what}");
            }

            let r = simulate_mpi_mpi(&cfg, &table);
            let sim_what = format!("sim {what}");
            assert_eq!(check(&r.rma, mode, NodeQueueMode::Locked, &sim_what), all, "{sim_what}");
        }
    }
}

#[test]
fn net_backend_node_logs_are_words_over_the_protocol_shapes() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let w = Synthetic::uniform(600, 1, 100, 3);
    // A service queue may answer `Pending`, whose locked refill ends in
    // RELEASE (lock-free: a PUBLISH, which parses as a PROBE).
    let words: Vec<&[RmaEvent]> = NODE_WORDS.iter().copied().chain([RELEASE]).collect();
    for (node, shapes) in
        [(NodeQueueMode::Locked, NODE_WORDS.len()), (NodeQueueMode::Counter, COUNTER_WORDS.len())]
    {
        let mut cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.record_rma = true;
        cfg.node_mode = node;
        let r = run_live_net(&cfg, &w, srv.addr()).expect("net run");
        let mut seen = BTreeSet::new();
        for (shared, events) in streams(&r.rma) {
            assert!(shared, "the global queue is a socket, not a window: {events:?}");
            let parsed = parse_node(&events, node, &words).unwrap_or_else(|| {
                panic!("net {node:?}: node stream is no protocol word: {events:?}")
            });
            seen.extend(parsed);
        }
        let raced = |i: &usize| node == NodeQueueMode::Counter && *i == RACED_TAKE;
        let missing: Vec<usize> = (0..shapes).filter(|i| !seen.contains(i) && !raced(i)).collect();
        assert!(missing.is_empty(), "net {node:?}: node shapes {missing:?} never occurred");
    }
    srv.shutdown();
}

/// The refiller's hand-off, read off a recorded log without the shape
/// constants: each node-window epoch that deposits a chunk (puts `LO`)
/// also takes from it (a second put of `TAKEN`, after the deposit's
/// reset), and the epoch that marks the node done (puts `GLOBAL_DONE`)
/// is its rank's last. Every sub-chunk a rank executed is one taking
/// epoch of its stream.
#[test]
fn the_refiller_takes_under_its_deposit_grant_and_retires_under_done() {
    // The locked node window's slots (`hier::layout`).
    const GLOBAL_DONE: usize = 1;
    const LO: usize = 2;
    const TAKEN: usize = 5;
    let w = Synthetic::constant(20_000, 0);
    let mut cfg = RunConfig::new(1, 4, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
    cfg.node_mode = NodeQueueMode::Locked;
    cfg.record_rma = true;
    let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
    let puts = |epoch: &[RmaEvent], slot: usize| {
        epoch.iter().filter(|e| matches!(e, RmaEvent::Put { disp, .. } if *disp == slot)).count()
    };
    let mut by_rank: BTreeMap<u32, Vec<RmaEvent>> = BTreeMap::new();
    let mut node_win = None;
    for rec in &r.rma {
        if let RmaEvent::Attach { shared: true, .. } = rec.event {
            node_win = Some(rec.win);
        }
        if Some(rec.win) == node_win
            && !matches!(rec.event, RmaEvent::Attach { .. } | RmaEvent::Barrier)
        {
            by_rank.entry(rec.rank).or_default().push(rec.event);
        }
    }
    assert_eq!(by_rank.len(), 4);
    let (mut deposits, mut done) = (0, 0);
    for (rank, events) in &by_rank {
        let epochs: Vec<&[RmaEvent]> =
            events.split_inclusive(|e| matches!(e, RmaEvent::Unlock { .. })).collect();
        let mut takes = 0;
        for (i, epoch) in epochs.iter().enumerate() {
            let deposited = puts(epoch, LO);
            assert!(deposited <= 1, "rank {rank}: {epoch:?}");
            takes += puts(epoch, TAKEN) - deposited;
            if deposited == 1 {
                deposits += 1;
                assert_eq!(
                    puts(epoch, TAKEN),
                    2,
                    "rank {rank} deposited without taking: {epoch:?}"
                );
            }
            if puts(epoch, GLOBAL_DONE) == 1 {
                done += 1;
                assert_eq!(i + 1, epochs.len(), "rank {rank} locked again after its Done deposit");
            }
        }
        let executed = r.executed.iter().filter(|(w, _)| w == rank).count();
        assert_eq!(takes, executed, "rank {rank}: taking epochs vs executed sub-chunks");
    }
    assert_eq!((deposits, done), (1, 1), "GSS over one node: one chunk, then Done");
}

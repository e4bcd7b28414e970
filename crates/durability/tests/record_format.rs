//! Record format v2: the compact wire form of `Granted`, `Settled` and
//! `Reclaimed` (see `durability::record`).
//!
//! * `decode(encode(r)) == r` over arbitrary bursts, not only the ones
//!   `JobCore::fetch` produces: non-dense and descending lease ids,
//!   `worker = u32::MAX`, ranges near `u64::MAX`, empty and inverted
//!   ranges, pool grants, and fresh chains that do and do not end at
//!   `scheduled`; every truncation, a trailing byte and an over-long
//!   varint are rejected;
//! * the bytes of one 8-grant SS burst and one 8-lease settle are
//!   pinned;
//! * a `DLSWAL01` segment is refused, not misread;
//! * SS, GSS, FAC2 and AF jobs driven through the kernel at batch 8
//!   commit at most 8 journal bytes per chunk — which they do not if
//!   fresh grants fall back to explicit ranges.

use std::fs;
use std::path::PathBuf;

use dls::switchable::SchedKind;
use durability::frame;
use durability::{
    GrantEntry, JobCore, Journal, JournalOptions, JournalRecord, RecoverError, SyncPolicy,
};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("durability-fmt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Small, within a few hundred of `u64::MAX`, or anything at all.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..300, (0u64..300).prop_map(|d| u64::MAX - d), any::<u64>()]
}

fn worker() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..4, Just(u32::MAX), any::<u32>()]
}

/// Lease ids for `len` grants or settles: dense from `first`,
/// descending, or arbitrary.
fn leases(mode: u8, first: u64, len: usize, random: &[u64]) -> Vec<u64> {
    (0..len as u64)
        .map(|i| match mode {
            0 => first.wrapping_add(i),
            1 => first.wrapping_sub(3 * i),
            _ => random[i as usize % random.len()],
        })
        .collect()
}

/// A burst shaped like `JobCore::fetch`'s — pool re-grants, then a
/// chain of fresh sizes — with every knob that breaks the shape
/// exposed: the chain may miss `scheduled`, leases may be sparse,
/// workers mixed and the pool grants placed after the fresh ones.
fn fetch_like() -> impl Strategy<Value = JournalRecord> {
    (
        (any::<u64>(), edge_u64(), edge_u64()),
        prop::collection::vec((edge_u64(), edge_u64()), 0..3),
        prop::collection::vec(prop_oneof![0u64..5, 0u64..100_000, edge_u64()], 0..10),
        (0u8..3, edge_u64(), prop::collection::vec(any::<u64>(), 1..4)),
        (worker(), any::<bool>(), any::<bool>()),
        prop_oneof![Just(0u64), Just(0u64), 1u64..3, any::<u64>()],
    )
        .prop_map(
            |(
                (job, step, start),
                pool,
                sizes,
                (mode, first, random),
                (w, mixed, pool_last),
                miss,
            )| {
                let mut grants: Vec<GrantEntry> = pool
                    .iter()
                    .map(|&(lo, hi)| GrantEntry { lease: 0, worker: w, lo, hi, from_pool: true })
                    .collect();
                let mut lo = start;
                for &size in &sizes {
                    let hi = lo.wrapping_add(size);
                    grants.push(GrantEntry { lease: 0, worker: w, lo, hi, from_pool: false });
                    lo = hi;
                }
                if pool_last {
                    grants.rotate_left(pool.len());
                }
                let ids = leases(mode, first, grants.len(), &random);
                for (i, (g, lease)) in grants.iter_mut().zip(ids).enumerate() {
                    g.lease = lease;
                    if mixed && i % 2 == 1 {
                        g.worker = g.worker.wrapping_add(1);
                    }
                }
                JournalRecord::Granted { job, step, scheduled: lo.wrapping_add(miss), grants }
            },
        )
}

/// A burst with every field arbitrary.
fn arbitrary_burst() -> impl Strategy<Value = JournalRecord> {
    let grant = (edge_u64(), worker(), edge_u64(), edge_u64(), any::<bool>()).prop_map(
        |(lease, worker, lo, hi, from_pool)| GrantEntry { lease, worker, lo, hi, from_pool },
    );
    (edge_u64(), edge_u64(), edge_u64(), prop::collection::vec(grant, 0..12)).prop_map(
        |(job, step, scheduled, grants)| JournalRecord::Granted { job, step, scheduled, grants },
    )
}

fn lease_list() -> impl Strategy<Value = JournalRecord> {
    (
        edge_u64(),
        (0u8..3, edge_u64(), 0usize..20),
        prop::collection::vec(edge_u64(), 1..6),
        any::<bool>(),
    )
        .prop_map(|(job, (mode, first, len), random, settled)| {
            let leases = leases(mode, first, len, &random);
            if settled {
                JournalRecord::Settled { job, leases }
            } else {
                JournalRecord::Reclaimed { job, leases }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_record_round_trips_and_every_cut_is_rejected(
        rec in prop_oneof![fetch_like(), fetch_like(), arbitrary_burst(), lease_list()],
    ) {
        let bytes = rec.encode();
        prop_assert_eq!(JournalRecord::decode(&bytes), Some(rec.clone()));
        for cut in 0..bytes.len() {
            prop_assert!(JournalRecord::decode(&bytes[..cut]).is_none(), "cut at {}", cut);
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        prop_assert!(JournalRecord::decode(&trailing).is_none());
    }
}

/// What `svc_journal` appends per fetch and per report: eight SS
/// chunks of one iteration each to worker 3, then their settle.
fn ss_pair() -> (JournalRecord, JournalRecord) {
    let grants = (40..48)
        .map(|l| GrantEntry { lease: l, worker: 3, lo: l, hi: l + 1, from_pool: false })
        .collect();
    (
        JournalRecord::Granted { job: 1, step: 48, scheduled: 48, grants },
        JournalRecord::Settled { job: 1, leases: (40..48).collect() },
    )
}

#[test]
fn an_ss_burst_and_its_settle_are_pinned() {
    let (granted, settled) = ss_pair();
    // tag 03 | job 01 | step 30 | scheduled 30 | count 08 | shape 00
    // | first lease 28 | worker 03 | eight sizes 01
    assert_eq!(hex(&granted.encode()), "03013030080028030101010101010101");
    // tag 04 | job 01 | count 08 | first lease 28 | seven deltas 00
    assert_eq!(hex(&settled.encode()), "0401082800000000000000");
    let mut framed = Vec::new();
    frame::encode_record(&granted.encode(), &mut framed);
    frame::encode_record(&settled.encode(), &mut framed);
    assert_eq!(framed.len(), 24 + 19, "5.4 bytes per chunk for the pair");
}

#[test]
fn malformed_compact_records_are_rejected() {
    let (granted, settled) = ss_pair();
    let (g, s) = (granted.encode(), settled.encode());
    // The job id 01 as the over-long 81 00.
    let overlong = |b: &[u8]| [&b[..1], &[0x81, 0x00], &b[2..]].concat();
    assert!(JournalRecord::decode(&overlong(&g)).is_none());
    assert!(JournalRecord::decode(&overlong(&s)).is_none());
    // A shape bit the format does not define.
    let mut bad_shape = g.clone();
    bad_shape[5] = 0x10;
    assert!(JournalRecord::decode(&bad_shape).is_none());
    // A from_pool byte that is neither 0 nor 1.
    let pooled = JournalRecord::Granted {
        job: 1,
        step: 1,
        scheduled: 1,
        grants: vec![GrantEntry { lease: 0, worker: 0, lo: 5, hi: 6, from_pool: true }],
    };
    let mut b = pooled.encode();
    assert_eq!(JournalRecord::decode(&b), Some(pooled));
    let at = b.len() - 3; // from_pool | lo 05 | size 01
    assert_eq!(b[at], 1);
    b[at] = 2;
    assert!(JournalRecord::decode(&b).is_none());
    // A count the remaining bytes cannot hold.
    assert!(JournalRecord::decode(&[4, 1, 0x7F, 0]).is_none());
}

#[test]
fn a_version_1_segment_is_refused() {
    let dir = tmpdir("v1");
    fs::create_dir_all(&dir).unwrap();
    let mut seg = b"DLSWAL01".to_vec();
    seg.extend_from_slice(&1u64.to_le_bytes());
    frame::encode_record(&JournalRecord::ServerStart { epoch: 1 }.encode(), &mut seg);
    fs::write(dir.join(format!("wal-{:020}.log", 1)), &seg).unwrap();
    assert!(matches!(Journal::replay_dir(&dir), Err(RecoverError::BadSegment { .. })));
    assert!(matches!(
        Journal::open(JournalOptions::new(&dir)),
        Err(RecoverError::BadSegment { .. })
    ));
    assert_eq!(fs::read(dir.join(format!("wal-{:020}.log", 1))).unwrap(), seg, "left as found");
    fs::remove_dir_all(&dir).unwrap();
}

/// Drain an `n`-iteration job through the kernel the way a worker
/// does — settle the last 8-chunk burst, fetch the next — into a real
/// journal. Returns the bytes its `Granted` and `Settled` records
/// committed per chunk; the journal must replay to the same job.
fn bytes_per_chunk(kind: SchedKind, n: u64) -> f64 {
    let dir = tmpdir(&format!("budget-{kind}"));
    let mut opts = JournalOptions::new(&dir);
    opts.sync = SyncPolicy::Never;
    let (mut journal, _) = Journal::open(opts).unwrap();
    let job = 1;
    journal.append(&JournalRecord::JobCreated { job, n, kind, weights: vec![] });
    journal.commit().unwrap();
    let created = journal.stats().bytes;
    let mut core = JobCore::new(n, kind, vec![]);
    let (mut now, mut chunks) = (0u64, 0u64);
    let mut held = Vec::new();
    while !core.done {
        // Noisy latencies, so AF sizes from a spread it can measure.
        now += 1_000 + (now.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52);
        if !held.is_empty() {
            for &lease in &held {
                core.settle(lease, now).unwrap();
            }
            journal.append(&JournalRecord::Settled { job, leases: std::mem::take(&mut held) });
        }
        let grants = core.fetch(0, 8, now);
        chunks += grants.len() as u64;
        held.extend(grants.iter().map(|g| g.lease));
        if !grants.is_empty() {
            let (step, scheduled) = (core.step, core.scheduled);
            journal.append(&JournalRecord::Granted { job, step, scheduled, grants });
        }
        journal.commit().unwrap();
    }
    let bytes = journal.stats().bytes - created;
    drop(journal);
    let replayed = Journal::replay_dir(&dir).unwrap();
    let img = &replayed.jobs[&job];
    assert_eq!((img.completed, img.scheduled, img.step), (n, core.scheduled, core.step));
    fs::remove_dir_all(&dir).unwrap();
    bytes as f64 / chunks as f64
}

#[test]
fn kernel_bursts_cost_at_most_8_journal_bytes_per_chunk() {
    for (kind, n) in [
        (dls::Kind::SS.into(), 50_000),
        (dls::Kind::GSS.into(), 5_000_000),
        (dls::Kind::FAC2.into(), 5_000_000),
        (SchedKind::Af, 5_000_000),
    ] {
        let per_chunk = bytes_per_chunk(kind, n);
        println!("{kind}: {per_chunk:.2} journal bytes per chunk");
        assert!(per_chunk <= 8.0, "{kind}: {per_chunk:.2} journal bytes per chunk");
    }
}

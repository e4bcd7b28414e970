//! Torn-write matrix: SIGKILL can truncate the journal tail at *any*
//! byte offset — inside a length prefix, inside a CRC, mid-payload —
//! and a disk can hand back a bit-flipped record that still has a
//! plausible length. Whatever the damage to the **last** record,
//! [`Journal::open`] must recover exactly the longest clean prefix of
//! records: never panic, never error, and never resurrect state the
//! prefix does not justify (no double-grant).
//!
//! The matrix is exhaustive over the segment body: every cut offset
//! from the segment header to the full file length. A cut that lands
//! on a record boundary is a clean file; a cut inside record `k`
//! destroys `k` and everything after it — either way the recovered
//! state must be byte-identical (by canonical digest) to replaying the
//! surviving prefix.

use durability::journal::{Journal, JournalOptions, RecoverError};
use durability::record::{GrantEntry, JournalRecord};
use durability::replay::RecoveredState;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("durability-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Write a realistic campaign into a fresh journal dir, then return
/// the single segment's bytes. The record stream exercises every
/// variant that matters for exactly-once: create, two grant bursts
/// (one serving the reclaim pool), settle, reclaim, finish.
fn build_reference(dir: &Path) -> Vec<u8> {
    let (mut j, state) = Journal::open(JournalOptions::new(dir)).expect("fresh open");
    assert_eq!(state.epoch, 1);
    j.append(&JournalRecord::JobCreated {
        job: 0,
        n: 100,
        kind: dls::Kind::SS.into(),
        weights: vec![],
    });
    j.append(&JournalRecord::Granted {
        job: 0,
        step: 3,
        scheduled: 30,
        grants: vec![
            GrantEntry { lease: 0, worker: 0, lo: 0, hi: 10, from_pool: false },
            GrantEntry { lease: 1, worker: 1, lo: 10, hi: 20, from_pool: false },
            GrantEntry { lease: 2, worker: 0, lo: 20, hi: 30, from_pool: false },
        ],
    });
    j.append(&JournalRecord::Settled { job: 0, leases: vec![0, 1] });
    j.append(&JournalRecord::Reclaimed { job: 0, leases: vec![2] });
    j.append(&JournalRecord::Granted {
        job: 0,
        step: 3,
        scheduled: 30,
        grants: vec![GrantEntry { lease: 3, worker: 1, lo: 20, hi: 30, from_pool: true }],
    });
    j.append(&JournalRecord::Settled { job: 0, leases: vec![3] });
    j.commit().expect("commit");
    drop(j);

    let segs: Vec<_> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert_eq!(segs.len(), 1, "everything fits one segment");
    fs::read(segs[0].path()).expect("read segment")
}

/// Parse the segment into `(record_end_offsets, decoded_records)` —
/// the golden boundaries the matrix cuts around.
fn boundaries(seg: &[u8]) -> (Vec<usize>, Vec<JournalRecord>) {
    const SEG_HDR: usize = durability::frame::SEGMENT_HEADER_LEN;
    const REC_HDR: usize = durability::frame::RECORD_HEADER_LEN;
    let mut ends = Vec::new();
    let mut records = Vec::new();
    let mut off = SEG_HDR;
    while off < seg.len() {
        let len = u32::from_le_bytes(seg[off..off + 4].try_into().expect("len")) as usize;
        let payload = &seg[off + REC_HDR..off + REC_HDR + len];
        records.push(JournalRecord::decode(payload).expect("decode"));
        off += REC_HDR + len;
        ends.push(off);
    }
    assert_eq!(off, seg.len(), "segment parses exactly");
    (ends, records)
}

/// Expected post-open state after a cut at `cut`: replay every record
/// whose end offset survived, then the epoch bump `open` performs.
fn expected_after_cut(ends: &[usize], records: &[JournalRecord], cut: usize) -> RecoveredState {
    let survivors = ends.iter().take_while(|&&e| e <= cut).count();
    let mut state = RecoveredState::new();
    for rec in &records[..survivors] {
        state.apply(rec).expect("golden replay");
    }
    state.epoch += 1;
    state.drained = false;
    state
}

/// The no-double-grant invariants every recovered image must satisfy,
/// whatever the cut: settled + re-armable work never exceeds the job,
/// and the counters never run past `n`.
fn assert_sane(state: &RecoveredState) {
    for (id, img) in &state.jobs {
        let pool: u64 = img.reclaim_pool.iter().map(|(lo, hi)| hi - lo).sum();
        let active: u64 = img.leases.active(None).map(|l| l.hi - l.lo).sum();
        assert!(img.scheduled <= img.n, "job {id}: scheduled past n");
        assert!(
            img.completed + pool + active <= img.n,
            "job {id}: {} settled + {pool} pooled + {active} active exceeds n={}",
            img.completed,
            img.n
        );
    }
}

#[test]
fn truncation_at_every_offset_recovers_the_clean_prefix() {
    let refdir = tmpdir("ref");
    let seg = build_reference(&refdir);
    let (ends, records) = boundaries(&seg);
    assert!(records.len() >= 7, "reference stream is non-trivial");

    let seg_name = fs::read_dir(&refdir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("segment")
        .file_name();

    let scratch = tmpdir("matrix");
    fs::create_dir_all(&scratch).expect("mkdir");
    let victim = scratch.join(&seg_name);
    for cut in durability::frame::SEGMENT_HEADER_LEN..=seg.len() {
        fs::write(&victim, &seg[..cut]).expect("write cut file");

        let (journal, mut state) = Journal::open(JournalOptions::new(&scratch))
            .unwrap_or_else(|e| panic!("cut at {cut}: open failed: {e}"));
        drop(journal);
        let expected = expected_after_cut(&ends, &records, cut);
        assert_eq!(
            state.digest(),
            expected.digest(),
            "cut at {cut}: recovered state is not the clean prefix"
        );
        state.re_arm();
        assert_sane(&state);

        // `open` appended a ServerStart; wipe for the next iteration.
        for entry in fs::read_dir(&scratch).expect("read scratch") {
            fs::remove_file(entry.expect("entry").path()).expect("rm");
        }
    }
    let _ = fs::remove_dir_all(&refdir);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn truncated_tail_stays_truncated_and_appendable() {
    // One representative mid-record cut, end to end: recover, keep
    // journaling, reopen — the torn bytes must be gone from disk and
    // the post-recovery record must survive.
    let dir = tmpdir("appendable");
    let seg = build_reference(&dir);
    let (ends, records) = boundaries(&seg);
    let cut = ends[ends.len() - 2] + 3; // 3 bytes into the last record
    let seg_path = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("segment")
        .path();
    let f = fs::OpenOptions::new().write(true).open(&seg_path).expect("open victim");
    f.set_len(cut as u64).expect("truncate");
    drop(f);

    let (mut journal, state) = Journal::open(JournalOptions::new(&dir)).expect("recover");
    assert_eq!(state.digest(), expected_after_cut(&ends, &records, cut).digest());
    journal.append(&JournalRecord::JobFinished { job: 0 });
    journal.commit().expect("commit after recovery");
    drop(journal);

    let replayed = Journal::replay_dir(&dir).expect("replay");
    assert!(replayed.jobs[&0].done, "post-recovery record survived reopen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_last_record_is_torn_tail_not_garbage_state() {
    let refdir = tmpdir("flip-ref");
    let seg = build_reference(&refdir);
    let (ends, records) = boundaries(&seg);
    let last_start = ends[ends.len() - 2];

    let scratch = tmpdir("flip");
    fs::create_dir_all(&scratch).expect("mkdir");
    let seg_name = fs::read_dir(&refdir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("segment")
        .file_name();

    // Flip one payload bit of the final record: the frame still has a
    // plausible length, but the CRC refuses it — recovery must land on
    // the previous record, and the flipped bytes must be truncated.
    let mut corrupt = seg.clone();
    let flip_at = last_start + durability::frame::RECORD_HEADER_LEN;
    corrupt[flip_at] ^= 0x10;
    fs::write(scratch.join(&seg_name), &corrupt).expect("write corrupt");

    let (journal, state) = Journal::open(JournalOptions::new(&scratch)).expect("recover");
    drop(journal);
    let expected = expected_after_cut(&ends, &records, last_start);
    assert_eq!(state.digest(), expected.digest(), "CRC-failed tail record dropped");
    assert_sane(&state);

    let _ = fs::remove_dir_all(&refdir);
    let _ = fs::remove_dir_all(&scratch);
}

/// Where `dir`'s segments are, in sequence order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("wal-")))
        .collect();
    segs.sort();
    segs
}

/// Append 4 KiB of zeros to `path`: the tail some filesystems leave
/// after a power cut, whose all-zero frame headers pass a CRC check
/// (`crc32(&[])` is 0).
fn append_zeros(path: &Path) {
    let mut bytes = fs::read(path).expect("read segment");
    bytes.resize(bytes.len() + 4096, 0);
    fs::write(path, &bytes).expect("write zero-filled tail");
}

#[test]
fn zero_filled_tail_is_truncated_to_the_last_record() {
    let dir = tmpdir("zero-tail");
    let seg = build_reference(&dir);
    let (ends, records) = boundaries(&seg);
    let victim = segments(&dir).remove(0);
    append_zeros(&victim);

    let expected = expected_after_cut(&ends, &records, seg.len());
    let mut replayed = Journal::replay_dir(&dir).expect("replay a zero-filled tail");
    replayed.epoch += 1;
    replayed.drained = false;
    assert_eq!(replayed.digest(), expected.digest(), "replay recovers every record");

    let (journal, state) = Journal::open(JournalOptions::new(&dir)).expect("open");
    drop(journal);
    assert_eq!(state.digest(), expected.digest(), "open recovers every record");

    // The zeros are gone: `open`'s ServerStart follows the last record.
    let bytes = fs::read(&victim).expect("read recovered segment");
    assert_eq!(&bytes[..seg.len()], &seg[..]);
    let scanned = durability::frame::scan(&bytes, None).expect("scan");
    assert!(!scanned.torn, "the zero-filled tail was truncated");
    assert_eq!(scanned.records.len(), records.len() + 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_filled_tail_in_a_sealed_segment_is_torn_middle() {
    let dir = tmpdir("zero-sealed");
    let mut opts = JournalOptions::new(&dir);
    opts.segment_bytes = 64;
    let (mut j, _) = Journal::open(opts).expect("fresh open");
    for job in 0..6u64 {
        j.append(&JournalRecord::JobCreated {
            job,
            n: 10,
            kind: dls::Kind::SS.into(),
            weights: vec![],
        });
        j.commit().expect("commit");
    }
    drop(j);
    let segs = segments(&dir);
    assert!(segs.len() >= 2, "rotation produced sealed segments");
    append_zeros(&segs[0]);

    for (what, result) in [
        ("open", Journal::open(JournalOptions::new(&dir)).map(|(_, state)| state)),
        ("replay_dir", Journal::replay_dir(&dir)),
    ] {
        match result {
            Err(RecoverError::TornMiddle { path }) => assert_eq!(path, segs[0], "{what}"),
            Ok(_) => panic!("{what}: zeros inside a sealed segment must not open cleanly"),
            Err(e) => panic!("{what}: expected TornMiddle, got {e}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_a_sealed_segment_is_a_typed_error_not_a_panic() {
    // In the final segment a CRC failure is indistinguishable from a
    // crash mid-append, so it is treated as a torn tail. A *sealed*
    // segment was fsynced at rotation — corruption there is a disk
    // problem, and recovery must refuse with a typed error rather than
    // silently truncating away durable records.
    let dir = tmpdir("flip-sealed");
    let mut opts = JournalOptions::new(&dir);
    opts.segment_bytes = 64; // force rotation: several segments
    let (mut j, _) = Journal::open(opts).expect("fresh open");
    for job in 0..6u64 {
        j.append(&JournalRecord::JobCreated {
            job,
            n: 10,
            kind: dls::Kind::SS.into(),
            weights: vec![],
        });
        j.commit().expect("commit");
    }
    drop(j);

    let segs = segments(&dir);
    assert!(segs.len() >= 2, "rotation produced sealed segments");

    // Flip one bit inside the first (sealed) segment's record payload.
    let mut bytes = fs::read(&segs[0]).expect("read sealed segment");
    let flip_at = durability::frame::SEGMENT_HEADER_LEN + durability::frame::RECORD_HEADER_LEN;
    bytes[flip_at] ^= 0x01;
    fs::write(&segs[0], &bytes).expect("write corrupt");

    match Journal::open(JournalOptions::new(&dir)) {
        Err(
            RecoverError::TornMiddle { .. }
            | RecoverError::BadSegment { .. }
            | RecoverError::BadRecord { .. },
        ) => {}
        Ok(_) => panic!("sealed-segment corruption must not open cleanly"),
        Err(e) => panic!("unexpected recover error: {e}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A rotation creates `wal-<seq+1>.log` and then writes its header. A
/// kill between the two leaves the last segment shorter than its
/// header, and a power cut before the header reached the disk leaves it
/// zero-filled. Either way it is an empty torn tail: `replay_dir` reads
/// it as empty, and `open` writes the header and journals on.
#[test]
fn a_last_segment_cut_inside_its_header_is_an_empty_tail() {
    const SEG_HDR: usize = durability::frame::SEGMENT_HEADER_LEN;
    let refdir = tmpdir("hdr-ref");
    let seg = build_reference(&refdir);
    let (ends, records) = boundaries(&seg);
    let expected = expected_after_cut(&ends, &records, seg.len());
    let first = segments(&refdir).remove(0);
    let header = durability::frame::segment_header(2);

    let scratch = tmpdir("hdr-matrix");
    let cuts = (0..SEG_HDR).map(|cut| header[..cut].to_vec());
    for (case, torn) in cuts.chain([vec![0; SEG_HDR], vec![0; 4096]]).enumerate() {
        fs::create_dir_all(&scratch).expect("mkdir");
        fs::copy(&first, scratch.join(first.file_name().expect("name"))).expect("copy");
        let second = scratch.join(format!("wal-{:020}.log", 2));
        fs::write(&second, &torn).expect("write torn header");

        let mut replayed = Journal::replay_dir(&scratch)
            .unwrap_or_else(|e| panic!("case {case}: replay_dir failed: {e}"));
        (replayed.epoch, replayed.drained) = (replayed.epoch + 1, false);
        assert_eq!(replayed.digest(), expected.digest(), "case {case}: replay_dir");

        let (journal, state) = Journal::open(JournalOptions::new(&scratch))
            .unwrap_or_else(|e| panic!("case {case}: open failed: {e}"));
        drop(journal);
        assert_eq!(state.digest(), expected.digest(), "case {case}: open");
        // The header is whole again, and `open`'s ServerStart follows it.
        let bytes = fs::read(&second).expect("read repaired segment");
        let scanned = durability::frame::scan(&bytes, Some(2)).expect("scan repaired segment");
        assert!(!scanned.torn, "case {case}");
        assert_eq!(
            scanned.records.iter().map(|p| JournalRecord::decode(p)).collect::<Vec<_>>(),
            [Some(JournalRecord::ServerStart { epoch: 2 })],
            "case {case}"
        );
        let _ = fs::remove_dir_all(&scratch);
    }
    let _ = fs::remove_dir_all(&refdir);
}

#[test]
fn a_short_header_before_the_last_segment_is_a_bad_segment() {
    let dir = tmpdir("hdr-sealed");
    build_reference(&dir);
    let first = segments(&dir).remove(0);
    fs::write(dir.join(format!("wal-{:020}.log", 2)), durability::frame::segment_header(2))
        .expect("write a second segment");
    fs::write(&first, &durability::frame::segment_header(1)[..7]).expect("cut the first");
    for (what, result) in [
        ("replay_dir", Journal::replay_dir(&dir)),
        ("open", Journal::open(JournalOptions::new(&dir)).map(|(_, state)| state)),
    ] {
        match result {
            Err(RecoverError::BadSegment { path, .. }) => assert_eq!(path, first, "{what}"),
            Ok(_) => panic!("{what}: a short sealed segment must not open cleanly"),
            Err(e) => panic!("{what}: expected BadSegment, got {e}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

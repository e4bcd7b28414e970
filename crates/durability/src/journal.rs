//! Group-commit segment writer and the open/recover path.
//!
//! Directory layout (all names zero-padded so lexical order is seq
//! order):
//!
//! ```text
//! wal-00000000000000000001.log   append-only record segments
//! wal-00000000000000000002.log
//! snap-00000000000000000002.img  newest snapshot; covers every
//!                                segment with seq < its own
//! ```
//!
//! A snapshot at boundary `S` means: the serialized
//! [`RecoveredState`] already reflects every record in segments
//! `< S`, and *may* reflect a prefix of segment `S` (snapshots are
//! taken from live state). Recovery therefore loads the newest
//! snapshot and replays every surviving segment `>= S` on top —
//! idempotence makes the overlap harmless. Segments `< S` are
//! garbage-collected when the snapshot installs.
//!
//! Writes are grouped: [`Journal::append`] encodes into an in-memory
//! buffer (safe to call under a shard lock — no I/O), and one
//! [`Journal::commit`] per event-loop cycle writes the whole burst,
//! fsyncing according to [`SyncPolicy`]. Segment rotation always
//! fsyncs the sealed segment, so only the *last* segment can ever
//! have a torn tail.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use crate::frame;
use crate::record::JournalRecord;
use crate::replay::{RecoveredState, ReplayError};

/// When to fsync committed records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync on every commit — maximum durability, one fsync per
    /// event-loop cycle, synchronous: the commit does not return until
    /// the records are on stable storage.
    Always,
    /// Initiate an fsync every `n` commits (plus a synchronous one on
    /// drain and rotation). The fsync runs on a background flusher
    /// thread so group commit never stalls the event loop; the policy's
    /// contract is *bounding the power-loss window* (to roughly `n`
    /// commits plus one in-flight fsync), not durability-before-return.
    /// `kill -9` survival needs no fsync at all — the page cache
    /// outlives the process.
    EveryN(u32),
    /// Never fsync on commit; only on drain, rotation, and snapshot
    /// install. Survives process death (page cache persists), not
    /// power loss.
    Never,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            _ => match s.strip_prefix("every:").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(SyncPolicy::EveryN(n)),
                _ => Err(format!("bad sync policy {s:?}: want always | never | every:N")),
            },
        }
    }
}

/// Tunables for [`Journal::open`].
#[derive(Clone, Debug)]
pub struct JournalOptions {
    /// Directory holding segments and snapshots (created if missing).
    pub dir: PathBuf,
    /// Fsync batching policy.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
}

impl JournalOptions {
    /// Defaults: fsync every commit, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), sync: SyncPolicy::Always, segment_bytes: 8 * 1024 * 1024 }
    }
}

/// Counters the service surfaces in its STATS frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records committed this incarnation.
    pub records: u64,
    /// Payload + framing bytes written this incarnation.
    pub bytes: u64,
    /// Fsyncs issued this incarnation.
    pub fsyncs: u64,
    /// Snapshots installed this incarnation.
    pub snapshots: u64,
    /// Live segment files on disk.
    pub segments: u64,
    /// Records appended but not yet committed.
    pub pending: u64,
}

/// Why a journal directory failed to open.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem error.
    Io(io::Error),
    /// A segment header is unusable or contradicts its filename.
    BadSegment {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// A torn record in a segment that is *not* the last — rotation
    /// fsyncs sealed segments, so this is corruption, not a crash
    /// artifact.
    TornMiddle {
        /// Offending file.
        path: PathBuf,
    },
    /// A CRC-clean frame whose payload is not a valid record.
    BadRecord {
        /// Offending file.
        path: PathBuf,
    },
    /// A sequence gap between surviving segments.
    MissingSegment {
        /// The seq that should exist but has no file.
        seq: u64,
    },
    /// The newest snapshot file is malformed.
    BadSnapshot {
        /// Offending file.
        path: PathBuf,
    },
    /// A record could not be applied to the recovered state.
    Apply(ReplayError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "journal i/o: {e}"),
            RecoverError::BadSegment { path, reason } => {
                write!(f, "bad segment {}: {reason}", path.display())
            }
            RecoverError::TornMiddle { path } => {
                write!(f, "torn record in non-final segment {}", path.display())
            }
            RecoverError::BadRecord { path } => {
                write!(f, "undecodable record in segment {}", path.display())
            }
            RecoverError::MissingSegment { seq } => write!(f, "missing segment seq {seq}"),
            RecoverError::BadSnapshot { path } => {
                write!(f, "malformed snapshot {}", path.display())
            }
            RecoverError::Apply(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<ReplayError> for RecoverError {
    fn from(e: ReplayError) -> Self {
        RecoverError::Apply(e)
    }
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.img"))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// List `(seq, path)` of entries matching `prefix…suffix`, ascending.
fn list_seqs(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, prefix, suffix) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Create `dir` and its missing ancestors, fsyncing the parent of each
/// directory it creates: without that, a power loss could take a new
/// directory's entry, and everything below it, with it.
fn create_dir_durably(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = match dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    create_dir_durably(parent)?;
    match fs::create_dir(dir) {
        // Made meanwhile by someone else, whose entry it is to sync.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
        made => made.and_then(|()| fsync_dir(parent)),
    }
}

/// An I/O error as the journal keeps it: `io::Error` is not `Clone`.
type Failure = (io::ErrorKind, String);

/// Background fsync worker for [`SyncPolicy::EveryN`]: receives
/// clones of the live segment's file handle and fsyncs them off the
/// commit path, so the amortised policy never stalls the event loop.
/// A clone shares the inode, so syncing it covers every byte written
/// through the original handle up to the send.
#[derive(Debug)]
struct Flusher {
    tx: Option<std::sync::mpsc::Sender<File>>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The first failed fsync. A clone is a `dup` and shares the open
    /// file description, and Linux reports a writeback error once per
    /// description: after this one, a synchronous fsync on the
    /// journal's own handle succeeds over the lost pages. The journal
    /// adopts it as its own failure (see [`Journal::commit`]).
    failed: Arc<OnceLock<Failure>>,
}

impl Flusher {
    fn spawn() -> Flusher {
        let (tx, rx) = std::sync::mpsc::channel::<File>();
        let failed = Arc::new(OnceLock::new());
        let slot = Arc::clone(&failed);
        let handle = std::thread::Builder::new()
            .name("wal-flusher".into())
            .spawn(move || {
                while let Ok(file) = rx.recv() {
                    // Coalesce any backlog: the newest handle's fsync
                    // covers everything the older sends asked for.
                    let file = rx.try_iter().last().unwrap_or(file);
                    if let Err(e) = file.sync_data() {
                        let _ = slot.set((e.kind(), format!("background fsync: {e}")));
                    }
                }
            })
            .expect("spawn wal-flusher");
        Flusher { tx: Some(tx), handle: Some(handle), failed }
    }

    fn send(&self, file: File) -> Result<(), ()> {
        self.tx.as_ref().ok_or(())?.send(file).map_err(|_| ())
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Group-commit write-ahead journal over one directory.
#[derive(Debug)]
pub struct Journal {
    opts: JournalOptions,
    file: File,
    seg_seq: u64,
    seg_len: u64,
    /// Bytes were written to `file` since its last synchronous fsync,
    /// so sealing it takes one.
    unsynced: bool,
    buf: Vec<u8>,
    pending: u64,
    commits_since_sync: u32,
    flusher: Option<Flusher>,
    stats: JournalStats,
    /// The first write, fsync or rotation error of a commit, of a
    /// snapshot's rotation or of the background flusher. Sticky: see
    /// [`Journal::commit`].
    failed: Option<Failure>,
}

impl Journal {
    /// Open (creating the directory if needed), recover the persisted
    /// state, repair the torn end of the last segment, bump the epoch,
    /// and durably record the new incarnation's
    /// [`JournalRecord::ServerStart`] before returning. The returned
    /// state has **not** been re-armed; callers decide when to call
    /// [`RecoveredState::re_arm`].
    pub fn open(opts: JournalOptions) -> Result<(Self, RecoveredState), RecoverError> {
        create_dir_durably(&opts.dir)?;
        let (mut state, tail) = scan_dir(&opts.dir)?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .truncate(false)
            .open(seg_path(&opts.dir, tail.seq))?;
        if let Some(clean) = tail.torn {
            // A crash artifact, or no segment yet: drop the torn bytes
            // so the next append lands after the last clean record, and
            // write a torn or missing header whole.
            file.set_len(clean)?;
            if clean == 0 {
                file.write_all(&frame::segment_header(tail.seq))?;
            }
            file.sync_all()?;
            fsync_dir(&opts.dir)?;
        }
        let seg_len = file.metadata()?.len();

        let segments_live = list_seqs(&opts.dir, "wal-", ".log")?.len() as u64;
        let mut journal = Journal {
            opts,
            file,
            seg_seq: tail.seq,
            seg_len,
            unsynced: true,
            buf: Vec::with_capacity(4096),
            pending: 0,
            commits_since_sync: 0,
            flusher: None,
            stats: JournalStats { segments: segments_live, ..JournalStats::default() },
            failed: None,
        };

        // New incarnation: bump the epoch and make it durable before
        // any grant can go out under it.
        state.epoch += 1;
        state.drained = false;
        journal.append(&JournalRecord::ServerStart { epoch: state.epoch });
        journal.commit_inner(true)?;
        Ok((journal, state))
    }

    /// Replay a journal directory without mutating it — no repair, no
    /// epoch bump, no appends: the state [`Journal::open`] recovers,
    /// before its epoch bump, for tools and determinism tests.
    pub fn replay_dir(dir: &Path) -> Result<RecoveredState, RecoverError> {
        scan_dir(dir).map(|(state, _)| state)
    }

    /// Buffer one record. No I/O — safe under hot-path locks; the
    /// record becomes durable at the next [`Journal::commit`]
    /// according to the sync policy.
    pub fn append(&mut self, rec: &JournalRecord) {
        frame::encode_record_with(&mut self.buf, |b| rec.encode_into(b));
        self.pending += 1;
    }

    /// Write every buffered record to the current segment, fsync per
    /// policy, rotate if the segment is full.
    ///
    /// Fail-stop: after one failed commit the file may hold a partial
    /// write and the buffer no longer says which records reached it,
    /// so this and every later commit (also through [`Journal::sync`]
    /// and [`Journal::begin_snapshot`]) return that first error again
    /// and write nothing. A failed background fsync of
    /// [`SyncPolicy::EveryN`] counts the same from the next commit on.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() && self.failed.is_none() {
            return Ok(());
        }
        self.commit_inner(false)
    }

    /// True once a commit has failed (see [`Journal::commit`]).
    pub fn is_failed(&self) -> bool {
        self.failed.is_some()
    }

    fn commit_inner(&mut self, force_sync: bool) -> io::Result<()> {
        self.sticky(|j| j.write_out(force_sync))
    }

    /// Run `io` unless an earlier one failed, and make its failure the
    /// one every later call returns.
    fn sticky(&mut self, io: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        if self.failed.is_none() {
            // One atomic load: the flusher's slot, set at most once.
            self.failed = self.flusher.as_ref().and_then(|f| f.failed.get().cloned());
        }
        if let Some((kind, msg)) = &self.failed {
            return Err(io::Error::new(*kind, msg.clone()));
        }
        let done = io(self);
        if let Err(e) = &done {
            self.failed = Some((e.kind(), e.to_string()));
        }
        done
    }

    fn write_out(&mut self, force_sync: bool) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.unsynced = true;
            self.seg_len += self.buf.len() as u64;
            self.stats.bytes += self.buf.len() as u64;
            self.stats.records += self.pending;
            self.buf.clear();
            self.pending = 0;
        }
        let sync = force_sync
            || match self.opts.sync {
                SyncPolicy::Always => true,
                SyncPolicy::EveryN(n) => {
                    self.commits_since_sync += 1;
                    self.commits_since_sync >= n
                }
                SyncPolicy::Never => false,
            };
        if sync {
            match self.opts.sync {
                // Amortised policy: initiate the fsync on the flusher
                // thread and keep going; fall back to a synchronous
                // sync if the handle can't be cloned or the flusher
                // died.
                SyncPolicy::EveryN(_) if !force_sync => match self.file.try_clone() {
                    Ok(clone) => {
                        let flusher = self.flusher.get_or_insert_with(Flusher::spawn);
                        if flusher.send(clone).is_err() {
                            self.sync_file()?;
                        }
                    }
                    Err(_) => self.sync_file()?,
                },
                _ => self.sync_file()?,
            }
            self.stats.fsyncs += 1;
            self.commits_since_sync = 0;
        }
        if self.seg_len >= self.opts.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Flush buffered records and force an fsync — the drain path.
    pub fn sync(&mut self) -> io::Result<()> {
        self.commit_inner(true)
    }

    /// A synchronous fsync of the live segment: every byte written to
    /// it so far is durable.
    fn sync_file(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = false;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal the old segment durably first: recovery may treat a
        // torn record in a non-final segment as corruption only
        // because of this ordering. A segment synced since its last
        // write is sealed already.
        if self.unsynced {
            self.sync_file()?;
            self.stats.fsyncs += 1;
        }
        let seq = self.seg_seq + 1;
        let mut file =
            OpenOptions::new().create_new(true).append(true).open(seg_path(&self.opts.dir, seq))?;
        file.write_all(&frame::segment_header(seq))?;
        fsync_dir(&self.opts.dir)?;
        self.unsynced = true;
        self.file = file;
        self.seg_seq = seq;
        self.seg_len = frame::SEGMENT_HEADER_LEN as u64;
        self.stats.segments += 1;
        Ok(())
    }

    /// Phase one of a snapshot: flush + seal the current segment and
    /// rotate, once: a segment the flush filled has rotated already,
    /// and its successor holds no record yet. Returns the boundary
    /// seq `S` — a snapshot serialized
    /// from state observed *at or after* this call covers every
    /// record in segments `< S` (and harmlessly, perhaps a prefix of
    /// `S`). Call with no shard locks held; serialize the state
    /// afterwards, then [`Journal::install_snapshot`].
    ///
    /// A failed rotation is as sticky as a failed commit (see
    /// [`Journal::commit`]): after a failed seal `fsync` the sealed
    /// records may not be durable, and after a failed create there is
    /// no next segment to append to.
    pub fn begin_snapshot(&mut self) -> io::Result<u64> {
        self.sticky(|j| {
            j.write_out(true)?;
            if j.seg_len > frame::SEGMENT_HEADER_LEN as u64 {
                j.rotate()?;
            }
            Ok(())
        })?;
        Ok(self.seg_seq)
    }

    /// Phase two: durably install the serialized state as the newest
    /// snapshot, then garbage-collect every segment and snapshot
    /// below the boundary.
    pub fn install_snapshot(&mut self, boundary: u64, body: &[u8]) -> io::Result<()> {
        let tmp = self.opts.dir.join("snap.tmp");
        let final_path = snap_path(&self.opts.dir, boundary);
        {
            let mut f = File::create(&tmp)?;
            let bytes = frame::encode_snapshot(boundary, body);
            f.write_all(&bytes)?;
            f.sync_all()?;
            self.stats.fsyncs += 1;
            self.stats.bytes += bytes.len() as u64;
        }
        fs::rename(&tmp, &final_path)?;
        fsync_dir(&self.opts.dir)?;
        self.stats.snapshots += 1;

        for (seq, path) in list_seqs(&self.opts.dir, "wal-", ".log")? {
            if seq < boundary {
                fs::remove_file(path)?;
                self.stats.segments = self.stats.segments.saturating_sub(1);
            }
        }
        for (seq, path) in list_seqs(&self.opts.dir, "snap-", ".img")? {
            if seq < boundary {
                fs::remove_file(path)?;
            }
        }
        fsync_dir(&self.opts.dir)?;
        Ok(())
    }

    /// Current counters (pending reflects the uncommitted buffer).
    pub fn stats(&self) -> JournalStats {
        JournalStats { pending: self.pending, ..self.stats }
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.opts.dir
    }
}

/// The segment [`Journal::open`] journals into: the last one, or,
/// when none survives at or above the snapshot boundary, the next one,
/// read as cut before its header.
struct Tail {
    seq: u64,
    /// Where a torn segment's clean prefix ends: 0 when the header is
    /// torn too (killed inside a rotation, which creates the file
    /// before it writes the header). `None` for a whole segment.
    torn: Option<u64>,
}

/// Read a journal directory without touching it: load the newest
/// snapshot, check that the segments at or above its boundary run
/// without a gap, and apply their records on top. The one reader
/// under [`Journal::open`] and [`Journal::replay_dir`].
fn scan_dir(dir: &Path) -> Result<(RecoveredState, Tail), RecoverError> {
    let (mut state, base) = load_snapshot(dir)?;
    let mut segments = list_seqs(dir, "wal-", ".log")?;
    segments.retain(|&(seq, _)| seq >= base);

    // Seq continuity from the boundary on: gaps below it are GC'd
    // segments, a gap at or above it is corruption.
    let first = if base > 0 { base } else { segments.first().map_or(1, |&(seq, _)| seq) };
    for (expect, &(seq, _)) in (first..).zip(&segments) {
        if seq != expect {
            return Err(RecoverError::MissingSegment { seq: expect });
        }
    }

    // With no segment to read, the one `open` must create.
    let mut tail = Tail { seq: first, torn: Some(0) };
    for (idx, (seq, path)) in segments.iter().enumerate() {
        let last = idx + 1 == segments.len();
        let bytes = fs::read(path)?;
        if last && frame::torn_header(&bytes, *seq) {
            tail = Tail { seq: *seq, torn: Some(0) };
            continue;
        }
        let scanned = frame::scan(&bytes, Some(*seq))
            .map_err(|e| RecoverError::BadSegment { path: path.clone(), reason: e.to_string() })?;
        if scanned.torn && !last {
            return Err(RecoverError::TornMiddle { path: path.clone() });
        }
        for payload in &scanned.records {
            let rec = JournalRecord::decode(payload)
                .ok_or_else(|| RecoverError::BadRecord { path: path.clone() })?;
            state.apply(&rec)?;
        }
        tail = Tail { seq: *seq, torn: scanned.torn.then_some(scanned.clean_len as u64) };
    }
    Ok((state, tail))
}

/// Load the newest snapshot in `dir`, returning the base state and
/// the boundary seq (0 when no snapshot exists).
fn load_snapshot(dir: &Path) -> Result<(RecoveredState, u64), RecoverError> {
    let Some((seq, path)) = list_seqs(dir, "snap-", ".img")?.pop() else {
        return Ok((RecoveredState::new(), 0));
    };
    let bytes = fs::read(&path)?;
    frame::decode_snapshot(&bytes, seq)
        .and_then(RecoveredState::deserialize)
        .map(|state| (state, seq))
        .ok_or(RecoverError::BadSnapshot { path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::GrantEntry;
    use dls::Kind;
    use std::time::{Duration, Instant};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("durability-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(dir: &Path) -> JournalOptions {
        JournalOptions::new(dir)
    }

    #[test]
    fn fresh_open_bumps_epoch_and_persists_it() {
        let dir = tmpdir("fresh");
        let (j, st) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st.epoch, 1);
        assert!(st.jobs.is_empty());
        drop(j);
        let (j2, st2) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st2.epoch, 2, "every incarnation bumps the epoch");
        drop(j2);
        let replayed = Journal::replay_dir(&dir).unwrap();
        assert_eq!(replayed.epoch, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `open` makes the directories it creates durable; what a test
    /// can see is that a journal two levels below a fresh directory
    /// opens, and reopens to the next epoch.
    #[test]
    fn a_journal_opens_below_directories_it_creates() {
        let root = tmpdir("nested");
        let dir = root.join("a").join("b");
        let (j, st) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st.epoch, 1);
        drop(j);
        let (_j2, st2) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st2.epoch, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A snapshot on a part-full segment, and one on a segment that the
    /// snapshot's own flush fills, each take one fsync and one new
    /// segment; reopened, the journal recovers the state it had.
    #[test]
    fn a_snapshot_seals_its_segment_once() {
        for (tag, grants, fills) in [("snap-part", 1u64, false), ("snap-full", 24, true)] {
            let dir = tmpdir(tag);
            let mut o = opts(&dir);
            o.sync = SyncPolicy::EveryN(512);
            o.segment_bytes = 256;
            let (mut j, _) = Journal::open(o.clone()).unwrap();
            j.append(&JournalRecord::JobCreated {
                job: 0,
                n: 100,
                kind: Kind::SS.into(),
                weights: vec![],
            });
            for i in 0..grants {
                j.append(&JournalRecord::Granted {
                    job: 0,
                    step: i + 1,
                    scheduled: i + 1,
                    grants: vec![GrantEntry {
                        lease: i,
                        worker: 0,
                        lo: i,
                        hi: i + 1,
                        from_pool: false,
                    }],
                });
            }
            assert_eq!(j.seg_len + j.buf.len() as u64 >= o.segment_bytes, fills, "{tag}");
            let before = j.stats();
            let boundary = j.begin_snapshot().unwrap();
            let after = j.stats();
            assert_eq!(after.fsyncs - before.fsyncs, 1, "{tag}: fsyncs");
            assert_eq!(after.segments - before.segments, 1, "{tag}: segments");
            assert_eq!(boundary, 2, "{tag}");

            let mut state = Journal::replay_dir(&dir).unwrap();
            j.install_snapshot(boundary, &state.serialize()).unwrap();
            drop(j);
            let (_j, reopened) = Journal::open(o).unwrap();
            state.epoch += 1;
            assert_eq!(reopened.serialize(), state.serialize(), "{tag}");
            assert_eq!(reopened.jobs[&0].scheduled, grants, "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmpdir("reopen");
        let (mut j, st) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st.epoch, 1);
        j.append(&JournalRecord::JobCreated {
            job: 0,
            n: 50,
            kind: Kind::TSS.into(),
            weights: vec![],
        });
        j.append(&JournalRecord::Granted {
            job: 0,
            step: 1,
            scheduled: 8,
            grants: vec![GrantEntry { lease: 0, worker: 4, lo: 0, hi: 8, from_pool: false }],
        });
        j.commit().unwrap();
        let stats = j.stats();
        assert_eq!(stats.records, 3); // ServerStart + 2
        assert!(stats.fsyncs >= 2);
        drop(j);

        let (_j2, st2) = Journal::open(opts(&dir)).unwrap();
        assert_eq!(st2.epoch, 2);
        let img = &st2.jobs[&0];
        assert_eq!((img.n, img.step, img.scheduled), (50, 1, 8));
        assert_eq!(img.leases.counts(), (1, 0, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_appends_are_lost_committed_survive() {
        let dir = tmpdir("uncommitted");
        let (mut j, _) = Journal::open(opts(&dir)).unwrap();
        j.append(&JournalRecord::JobCreated {
            job: 0,
            n: 9,
            kind: Kind::SS.into(),
            weights: vec![],
        });
        j.commit().unwrap();
        j.append(&JournalRecord::JobFinished { job: 0 });
        assert_eq!(j.stats().pending, 1);
        drop(j); // crash with a dirty buffer
        let (_j2, st) = Journal::open(opts(&dir)).unwrap();
        assert!(st.jobs.contains_key(&0));
        assert!(!st.jobs[&0].done, "uncommitted record must not replay");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_is_sticky() {
        let dir = tmpdir("sticky");
        let mut o = opts(&dir);
        o.segment_bytes = 1; // every commit rotates the segment
        let (mut j, _) = Journal::open(o).unwrap();
        assert!(!j.is_failed());
        // With the directory gone, the rotation cannot create its file.
        fs::remove_dir_all(&dir).unwrap();
        j.append(&JournalRecord::JobFinished { job: 0 });
        let first = j.commit().expect_err("the segment cannot rotate");
        assert!(j.is_failed());

        // The same error again: on an empty buffer, through the drain
        // path, and for a new record once the directory is back — which
        // is neither written nor counted.
        let same = |e: io::Error| (e.kind(), e.to_string()) == (first.kind(), first.to_string());
        assert!(same(j.commit().expect_err("an empty commit cannot vouch for the lost one")));
        assert!(same(j.sync().expect_err("nor can the drain path")));
        fs::create_dir_all(&dir).unwrap();
        let records = j.stats().records;
        j.append(&JournalRecord::JobFinished { job: 1 });
        assert!(same(j.commit().expect_err("fail-stop, not fail-and-resume")));
        assert_eq!(j.stats().records, records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_background_fsync_fails_the_journal() {
        let dir = tmpdir("flusher");
        let mut o = opts(&dir);
        o.sync = SyncPolicy::EveryN(1); // every commit hands the flusher an fsync
        let (mut j, _) = Journal::open(o).unwrap();
        // Writes to /dev/null succeed and its fdatasync is EINVAL: only
        // the flusher thread sees the failure.
        j.file = OpenOptions::new().write(true).open("/dev/null").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            j.append(&JournalRecord::JobFinished { job: 0 });
            if let Err(e) = j.commit() {
                break e;
            }
            assert!(Instant::now() < deadline, "the lost fsync never failed a commit");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(err.to_string().contains("background fsync"), "{err}");
        assert!(j.is_failed());
        assert!(j.sync().is_err(), "no Drained stamp over a lost fsync");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_snapshot_rotation_is_sticky() {
        let dir = tmpdir("snapsticky");
        let (mut j, _) = Journal::open(opts(&dir)).unwrap();
        // Default segments: only the snapshot's own rotation needs the
        // directory.
        fs::remove_dir_all(&dir).unwrap();
        j.append(&JournalRecord::JobFinished { job: 0 });
        let first = j.begin_snapshot().expect_err("the next segment cannot be created");
        assert!(j.is_failed());
        let same = |e: io::Error| (e.kind(), e.to_string()) == (first.kind(), first.to_string());
        fs::create_dir_all(&dir).unwrap();
        j.append(&JournalRecord::JobFinished { job: 1 });
        assert!(same(j.commit().expect_err("no commit after a lost rotation")));
        assert!(same(j.sync().expect_err("nor a drain")));
        assert!(same(j.begin_snapshot().expect_err("nor another snapshot")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_snapshot_gc() {
        let dir = tmpdir("rotate");
        let mut o = opts(&dir);
        o.segment_bytes = 256; // force frequent rotation
        let (mut j, _) = Journal::open(o.clone()).unwrap();
        j.append(&JournalRecord::JobCreated {
            job: 0,
            n: 1000,
            kind: Kind::SS.into(),
            weights: vec![],
        });
        for i in 0..40u64 {
            j.append(&JournalRecord::Granted {
                job: 0,
                step: i + 1,
                scheduled: i + 1,
                grants: vec![GrantEntry {
                    lease: i,
                    worker: 0,
                    lo: i,
                    hi: i + 1,
                    from_pool: false,
                }],
            });
            j.commit().unwrap();
        }
        assert!(j.stats().segments > 1, "rotation should have happened");

        let boundary = j.begin_snapshot().unwrap();
        let state = Journal::replay_dir(&dir).unwrap();
        j.install_snapshot(boundary, &state.serialize()).unwrap();
        let live = list_seqs(&dir, "wal-", ".log").unwrap();
        assert!(live.iter().all(|&(seq, _)| seq >= boundary), "old segments GC'd");
        assert_eq!(j.stats().snapshots, 1);
        drop(j);

        let (_j2, st) = Journal::open(o).unwrap();
        assert_eq!(st.jobs[&0].scheduled, 40);
        assert_eq!(st.jobs[&0].leases.len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_torn_middle_errors() {
        let dir = tmpdir("torn");
        let (mut j, _) = Journal::open(opts(&dir)).unwrap();
        j.append(&JournalRecord::JobCreated {
            job: 0,
            n: 5,
            kind: Kind::SS.into(),
            weights: vec![],
        });
        j.commit().unwrap();
        j.append(&JournalRecord::JobFinished { job: 0 });
        j.commit().unwrap();
        let seg = seg_path(&dir, 1);
        drop(j);

        // Tear the last 3 bytes: the JobFinished record is torn away.
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();
        let (_j2, st) = Journal::open(opts(&dir)).unwrap();
        assert!(st.jobs.contains_key(&0));
        assert!(!st.jobs[&0].done);

        // A torn record in a non-final segment is corruption.
        let next = seg_path(&dir, 2);
        let mut bytes = frame::segment_header(2).to_vec();
        frame::encode_record(&JournalRecord::Drained { epoch: 9 }.encode(), &mut bytes);
        fs::write(&next, &bytes[..bytes.len() - 1]).unwrap();
        let bytes3 = frame::segment_header(3).to_vec();
        fs::write(seg_path(&dir, 3), bytes3).unwrap();
        match Journal::open(opts(&dir)) {
            Err(RecoverError::TornMiddle { path }) => assert_eq!(path, next),
            other => panic!("expected TornMiddle, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_detected() {
        let dir = tmpdir("gap");
        let mut o = opts(&dir);
        o.segment_bytes = 32;
        let (mut j, _) = Journal::open(o.clone()).unwrap();
        for _ in 0..6 {
            j.append(&JournalRecord::Drained { epoch: 0 });
            j.commit().unwrap();
        }
        assert!(j.stats().segments >= 3);
        drop(j);
        fs::remove_file(seg_path(&dir, 2)).unwrap();
        assert!(matches!(Journal::replay_dir(&dir), Err(RecoverError::MissingSegment { seq: 2 })));
        assert!(matches!(Journal::open(o), Err(RecoverError::MissingSegment { seq: 2 })));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `open` and `replay_dir`, as `(entry point, outcome)` pairs.
    fn both_readers(dir: &Path) -> [(&'static str, Result<RecoveredState, RecoverError>); 2] {
        [
            ("replay_dir", Journal::replay_dir(dir)),
            ("open", Journal::open(opts(dir)).map(|(_, state)| state)),
        ]
    }

    #[test]
    fn the_boundary_segment_missing_under_a_snapshot_is_refused_by_both_readers() {
        let dir = tmpdir("gap-boundary");
        let mut o = opts(&dir);
        o.segment_bytes = 32;
        let (mut j, _) = Journal::open(o).unwrap();
        j.append(&JournalRecord::Drained { epoch: 0 });
        j.commit().unwrap();
        let boundary = j.begin_snapshot().unwrap();
        let state = Journal::replay_dir(&dir).unwrap();
        j.install_snapshot(boundary, &state.serialize()).unwrap();
        for _ in 0..6 {
            j.append(&JournalRecord::Drained { epoch: 0 });
            j.commit().unwrap();
        }
        assert!(j.stats().segments >= 3, "segments past the boundary survive");
        drop(j);
        // Segments boundary+1.. still run without a gap between them.
        fs::remove_file(seg_path(&dir, boundary)).unwrap();
        for (what, result) in both_readers(&dir) {
            match result {
                Err(RecoverError::MissingSegment { seq }) => assert_eq!(seq, boundary, "{what}"),
                other => panic!("{what}: expected MissingSegment, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crc_clean_frame_that_is_no_record_is_refused_by_both_readers() {
        let dir = tmpdir("badrecord");
        drop(Journal::open(opts(&dir)).unwrap());
        let seg = seg_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        frame::encode_record(&[0xFF], &mut bytes);
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(JournalRecord::decode(&[0xFF]), None, "no record has tag 0xFF");
        for (what, result) in both_readers(&dir) {
            match result {
                Err(RecoverError::BadRecord { path }) => assert_eq!(path, seg, "{what}"),
                other => panic!("{what}: expected BadRecord, got {other:?}"),
            }
        }
        assert_eq!(fs::read(&seg).unwrap(), bytes, "a refused open repairs nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_grant_for_a_job_never_created_is_refused_by_both_readers() {
        let dir = tmpdir("unknownjob");
        drop(Journal::open(opts(&dir)).unwrap());
        let seg = seg_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let grant = GrantEntry { lease: 0, worker: 0, lo: 0, hi: 1, from_pool: false };
        let rec = JournalRecord::Granted { job: 7, step: 1, scheduled: 1, grants: vec![grant] };
        let payload = rec.encode();
        assert_eq!(JournalRecord::decode(&payload), Some(rec), "a well-formed record");
        frame::encode_record(&payload, &mut bytes);
        fs::write(&seg, &bytes).unwrap();
        for (what, result) in both_readers(&dir) {
            match result {
                Err(e @ RecoverError::Apply(ReplayError::UnknownJob(7))) => {
                    assert_eq!(e.to_string(), "replay: record references unknown job 7", "{what}")
                }
                other => panic!("{what}: expected Apply(UnknownJob(7)), got {other:?}"),
            }
        }
        assert_eq!(fs::read(&seg).unwrap(), bytes, "a refused open repairs nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_regular_file_is_no_journal_directory() {
        let path = tmpdir("regular-file");
        fs::write(&path, b"not a journal").unwrap();
        for (what, result) in both_readers(&path) {
            match result {
                Err(e @ RecoverError::Io(_)) => {
                    assert!(e.to_string().starts_with("journal i/o: "), "{what}: {e}")
                }
                other => panic!("{what}: expected Io, got {other:?}"),
            }
        }
        assert_eq!(fs::read(&path).unwrap(), b"not a journal", "a refused open writes nothing");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_policy_batches_fsyncs() {
        let dir = tmpdir("syncpolicy");
        let mut o = opts(&dir);
        o.sync = SyncPolicy::EveryN(4);
        let (mut j, _) = Journal::open(o).unwrap();
        let base = j.stats().fsyncs;
        for _ in 0..8 {
            j.append(&JournalRecord::Drained { epoch: 0 });
            j.commit().unwrap();
        }
        assert_eq!(j.stats().fsyncs - base, 2, "8 commits at every:4 = 2 fsyncs");
        j.sync().unwrap();
        assert_eq!(j.stats().fsyncs - base, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!("always".parse(), Ok(SyncPolicy::Always));
        assert_eq!("never".parse(), Ok(SyncPolicy::Never));
        assert_eq!("every:16".parse(), Ok(SyncPolicy::EveryN(16)));
        assert!("every:0".parse::<SyncPolicy>().is_err());
        assert!("sometimes".parse::<SyncPolicy>().is_err());
    }

    /// Install a snapshot, `damage` its file, and reopen the journal.
    fn open_with_damaged_snapshot(
        tag: &str,
        damage: impl Fn(&mut Vec<u8>),
    ) -> Option<RecoverError> {
        let dir = tmpdir(tag);
        let (mut j, _) = Journal::open(opts(&dir)).unwrap();
        let boundary = j.begin_snapshot().unwrap();
        let state = Journal::replay_dir(&dir).unwrap();
        j.install_snapshot(boundary, &state.serialize()).unwrap();
        drop(j);
        let snap = snap_path(&dir, boundary);
        let mut bytes = fs::read(&snap).unwrap();
        damage(&mut bytes);
        fs::write(&snap, &bytes).unwrap();
        let reopened = Journal::open(opts(&dir)).err();
        fs::remove_dir_all(&dir).unwrap();
        reopened
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let err = open_with_damaged_snapshot("badsnap", |bytes| *bytes.last_mut().unwrap() ^= 0x01);
        assert!(matches!(err, Some(RecoverError::BadSnapshot { .. })));
    }

    #[test]
    fn version_1_snapshot_is_a_typed_error() {
        // Only the magic differs, so the CRC still matches: the refusal
        // is the version check, not a checksum accident.
        let err = open_with_damaged_snapshot("v1snap", |bytes| {
            assert_eq!(&bytes[..8], b"DLSSNAP2");
            bytes[..8].copy_from_slice(b"DLSSNAP1");
        });
        assert!(matches!(err, Some(RecoverError::BadSnapshot { .. })));
    }
}

//! The node queue without the lock: the decisions of
//! [`NodeQueueMode::Counter`](crate::config::NodeQueueMode::Counter) and
//! the node-window transactions they stand for.
//!
//! The locked queue keeps `(lo, hi, step, taken)` and two flags, and a
//! take rewrites `step` and `taken` inside an exclusive epoch. Here the
//! deposit's bounds sit in `LO` / `HI` and everything that changes is one
//! [`Word`] in slot `WORD`: the deposit's generation, the `refilling`
//! and `global_done` flags, and the step. The intra technique sees each
//! deposit as a fresh loop of its own length, as in [`super::take`], so
//! a sub-chunk is a pure function of `(hi - lo, p, step)`: a taker knows
//! the word and the bounds, computes its sub-chunk and compare-and-swaps
//! `step → step + 1`. Every access is an MPI atomic (`fetch_and_op` with
//! `NoOp` or `Replace`, or `compare_and_swap`) inside the rank's
//! run-long `lock_all`; no exclusive epoch is opened on the node window.
//!
//! * **Take.** Know the word, [`probe`] it, know the bounds, [`take`],
//!   CAS. A rank's [`Cursor`] saves both reads where it can: the word it
//!   expects is the one its last CAS wrote or found, and the bounds of a
//!   generation it has certified are cached. So a take is
//!   `[WORD read]? [LO, HI reads]? WORD CAS`, and in the steady state
//!   the CAS alone ([`TAKE_CAS`]). A failed CAS returns the word it
//!   found, and the retry takes against that.
//! * **Seal.** A taker that finds the deposit drained CASes the word to
//!   `refilling` instead: the refill claim. No CAS succeeds against a
//!   refilling word, so while the refiller rewrites `LO` / `HI` no take
//!   can commit, and no take ever pairs new bounds with a stale step.
//! * **Publish.** The refiller fetches, writes the bounds and [`deposit`]
//!   publishes `(generation + 1, step 0)`; a `Done` fetch publishes
//!   `global_done`, a `Pending` one clears `refilling`.
//!
//! A take commits only if the word it compared against is still there.
//! The bounds change only under a seal, and a seal ends with a new
//! generation published (or, for `Pending`, with the same drained word,
//! which no take commits against), so a committed take read the bounds of
//! its own generation, even if its `LO` and `HI` reads were torn. That
//! needs the generation not to wrap within a run, hence [`eligible`]'s
//! bound. The cursor's two caches keep that argument:
//!
//! * **A generation's bounds never change.** `LO` / `HI` are rewritten
//!   only for the next generation, so bounds certified for generation
//!   `g` stay `g`'s for the run. Two things certify them: a committed CAS
//!   against a word of `g` (its bounds reads were `g`'s, by the argument
//!   above), and the refiller's own publish of `g` (it wrote them). A
//!   word of another generation gets no cached bounds: the rank reads
//!   `LO` and `HI` again.
//! * **A CAS that succeeds against an expected word is a take that read
//!   that word.** The slot held the word at the CAS, and the sub-chunk is
//!   a pure function of the word and its generation's bounds. Where the
//!   expectation came from (a read, the rank's own last CAS, a failed
//!   CAS) only decides how often the CAS fails, never what a committed
//!   one means.
//! * **A failed CAS is a read.** It returns the slot's value at that
//!   instant, as a `NoOp` `fetch_and_op` would, so bounds read after it
//!   pair with it exactly as they would with a read. It certifies
//!   nothing: a lost race says nothing about the bounds it was computed
//!   from.
//!
//! **Why a CAS and not a fetch-and-add on the step.** An FAA draws a step
//! before the taker knows which deposit it belongs to: a taker preempted
//! between its FAA and its bounds read, while peers drain and refill,
//! either executes the step over the new deposit's bounds or loses it.
//! A CAS in the same place just fails. For the same reason the
//! publish comes after the bounds write: a word published first lets a
//! taker pair the new generation with the old bounds.

use super::{Empty, Fetched, Flags};
use crate::layout::{HI, LO, WORD};
use crate::queue::SubChunk;
use dls::{Kind, LoopSpec, SchedState, Technique};
use mpisim::{AtomicOpKind, RmaEvent};

const fn atomic(disp: usize, op: AtomicOpKind) -> RmaEvent {
    RmaEvent::Atomic { target: 0, disp, op }
}

// A `fetch_and_op` reads (`NoOp`) or writes (`Replace`) a slot.
const WORD_FAO: RmaEvent = atomic(WORD, AtomicOpKind::FetchAndOp);
const LO_FAO: RmaEvent = atomic(LO, AtomicOpKind::FetchAndOp);
const HI_FAO: RmaEvent = atomic(HI, AtomicOpKind::FetchAndOp);
const WORD_CAS: RmaEvent = atomic(WORD, AtomicOpKind::CompareAndSwap);

/// Node window: read the word, `LO` and `HI`, then CAS the word — a
/// take, a refill claim, or either one's lost race, by a rank that
/// expects no word and holds no bounds for the one it reads.
pub const TAKE: &[RmaEvent] = &[WORD_FAO, LO_FAO, HI_FAO, WORD_CAS];
/// Node window: read the word, then CAS it — a [`TAKE`] whose bounds the
/// rank has certified (after its own publish, or a yield within a
/// generation it took from).
pub const TAKE_WORD: &[RmaEvent] = &[WORD_FAO, WORD_CAS];
/// Node window: read `LO` and `HI`, then CAS the word — a [`TAKE`]
/// against the word a failed CAS found, of a generation the rank has not
/// certified.
pub const TAKE_BOUNDS: &[RmaEvent] = &[LO_FAO, HI_FAO, WORD_CAS];
/// Node window: CAS the word — a [`TAKE`] against the word the rank's
/// last CAS wrote or found, with its generation's bounds certified. The
/// steady-state take.
pub const TAKE_CAS: &[RmaEvent] = &[WORD_CAS];
/// Node window: read the word and find a peer's refill in flight, or the
/// node done.
pub const PROBE: &[RmaEvent] = &[WORD_FAO];
/// Node window: write a fetched chunk's bounds, then publish the next
/// generation's word.
pub const DEPOSIT: &[RmaEvent] = &[LO_FAO, HI_FAO, WORD_FAO];
/// Node window: publish the word of a `Done` or `Pending` refill. One
/// `fetch_and_op` on the word, the same event as [`PROBE`]'s read.
pub const PUBLISH: &[RmaEvent] = PROBE;

/// The counter realisation's node-queue word, packed into one window
/// slot: generation in bits 33–63, `refilling` in bit 32, `global_done`
/// in bit 31, the step in bits 0–30.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Word {
    /// Deposits published on this node so far: which deposit `LO` /
    /// `HI` hold.
    pub generation: u64,
    /// A refill is in flight (the word is sealed), or the node is done.
    pub flags: Flags,
    /// Sub-chunks of the deposit taken so far: the next take's step.
    pub step: u64,
}

/// Largest generation and largest step a [`Word`] holds.
pub const FIELD_MAX: u64 = (1 << 31) - 1;
const DONE_BIT: u64 = 1 << 31;
const REFILLING_BIT: u64 = 1 << 32;
const GENERATION_SHIFT: u32 = 33;

impl Word {
    /// The slot value.
    #[inline]
    pub fn pack(self) -> i64 {
        debug_assert!(self.generation <= FIELD_MAX && self.step <= FIELD_MAX, "{self:?}");
        let flags = if self.flags.refilling { REFILLING_BIT } else { 0 }
            | if self.flags.global_done { DONE_BIT } else { 0 };
        (self.generation << GENERATION_SHIFT | flags | self.step) as i64
    }

    /// The word a slot value holds.
    #[inline]
    pub fn unpack(raw: i64) -> Self {
        let raw = raw as u64;
        Word {
            generation: raw >> GENERATION_SHIFT,
            flags: Flags { refilling: raw & REFILLING_BIT != 0, global_done: raw & DONE_BIT != 0 },
            step: raw & FIELD_MAX,
        }
    }
}

/// Whether `intra`'s sub-chunk is a pure function of the deposit length,
/// the worker count and the step: the closed forms of STATIC, SS, FSC and
/// FAC2, and GSS and TSS from a cursor.
fn takes_by_step(intra: &Technique) -> bool {
    matches!(intra.kind(), Kind::STATIC | Kind::SS | Kind::FSC | Kind::FAC2 | Kind::GSS | Kind::TSS)
}

/// Whether a loop of `n` iterations with unweighted intra technique
/// `intra` may take without the lock: the technique takes by step,
/// and no deposit's step count and no node's deposit count (each at most
/// `n`) overflows its [`Word`] field. The caller also keeps the lock for
/// what a take must write besides the step: AWF's history and an active
/// fault plan's lease.
pub fn eligible(intra: &Technique, n: u64) -> bool {
    takes_by_step(intra) && n <= FIELD_MAX
}

/// What a rank does with the word it read, before reading the bounds:
/// `Some` ends the attempt — [`Empty::Retire`] once the node is done,
/// [`Empty::PeerRefilling`] while a refill is in flight — and `None`
/// goes on to read the bounds. [`PROBE`] when `Some`.
#[inline]
pub fn probe(word: Word) -> Option<Empty> {
    if word.flags.global_done {
        Some(Empty::Retire)
    } else if word.flags.refilling {
        Some(Empty::PeerRefilling)
    } else {
        None
    }
}

/// One rank's caches of the queue: within the generation it last took
/// from, its calculator state, so that GSS and TSS advance from their
/// previous step rather than replay from step 0, and the generation's
/// bounds once certified; and the word it expects in the slot. Only
/// caches: [`take`] returns the same sub-chunk from any cursor, and a
/// wrong expectation costs a failed CAS (the module doc has the
/// argument).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cursor {
    generation: u64,
    state: SchedState,
    /// `generation`'s bounds, once a committed CAS or the rank's own
    /// publish certified them.
    bounds: Option<(u64, u64)>,
    /// The `next` of the rank's last committed CAS, or the word its last
    /// failed CAS found; `None` at the start and after a yield or a
    /// publish.
    expected: Option<Word>,
}

impl Cursor {
    /// The word to take against without reading the slot, if any.
    #[inline]
    pub fn expected(&self) -> Option<Word> {
        self.expected
    }

    /// The certified bounds of `word`'s generation, if this cursor holds
    /// them; `None` means read `LO` and `HI`.
    #[inline]
    pub fn bounds(&self, word: Word) -> Option<(u64, u64)> {
        self.bounds.filter(|_| self.generation == word.generation)
    }

    /// The CAS of a [`take`] over `bounds` committed `next`: certify the
    /// bounds for the generation taken from, and expect `next`.
    #[inline]
    pub fn committed(&mut self, next: Word, bounds: (u64, u64)) {
        debug_assert_eq!(self.generation, next.generation, "take() sets the generation");
        self.bounds = Some(bounds);
        self.expected = Some(next);
    }

    /// The CAS found `seen` instead: expect it, certify nothing.
    #[inline]
    pub fn failed(&mut self, seen: Word) {
        self.expected = Some(seen);
    }

    /// The rank yielded: its expectation is stale, read the word again.
    pub fn forget(&mut self) {
        self.expected = None;
    }

    /// The rank published `p`: read the word again, and certify a fetched
    /// chunk's bounds for the generation `p` starts.
    pub fn published(&mut self, p: Publish) {
        self.expected = None;
        if let Some(bounds) = p.bounds {
            *self = Cursor {
                generation: p.word.generation,
                state: SchedState::START,
                bounds: Some(bounds),
                expected: None,
            };
        }
    }
}

/// The take decision over `word` (known with both flags clear) and the
/// bounds `[lo, hi)` of its generation, certified or read after it, for
/// worker count `p`: the sub-chunk at `word.step` and the word to CAS
/// in, `step + 1`; or, when the deposit is drained, `None` and the
/// sealed word, the refill claim. The CAS of either is the last event of
/// a [`TAKE`] or its shorter forms. A word of a generation the cursor
/// has not seen drops the cursor's caches. The sub-chunk is
/// `dls::single_counter::assignment_from`'s: the closed form for STATIC,
/// SS, FSC and FAC2, the cursor for GSS and TSS.
#[inline]
pub fn take(
    word: Word,
    lo: u64,
    hi: u64,
    intra: &Technique,
    p: u32,
    cursor: &mut Cursor,
) -> (Option<SubChunk>, Word) {
    if cursor.generation != word.generation {
        *cursor = Cursor { generation: word.generation, ..Cursor::default() };
    }
    // A torn read (`hi < lo`) ends in a failed CAS whatever it computes.
    let spec = LoopSpec::new(hi.saturating_sub(lo), p);
    match dls::single_counter::assignment_from(intra, &spec, &mut cursor.state, word.step) {
        Some((start, len)) => {
            let start = lo + start;
            (Some(SubChunk { start, end: start + len }), Word { step: word.step + 1, ..word })
        }
        None => (None, Word { flags: Flags { refilling: true, ..word.flags }, ..word }),
    }
}

/// What the refiller writes after its claim sealed the word `sealed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Publish {
    /// The fetched chunk, written to `LO` / `HI` before the word.
    pub bounds: Option<(u64, u64)>,
    /// The word published last.
    pub word: Word,
}

/// The refiller's deposit: a fetched chunk becomes the next generation
/// at step 0, `Done` marks the node done, `Pending` clears `refilling`
/// over the drained deposit. Either way the seal is lifted.
pub fn deposit(sealed: Word, fetched: Fetched) -> Publish {
    match fetched {
        Fetched::Chunk(lo, hi) => Publish {
            bounds: Some((lo, hi)),
            word: Word { generation: sealed.generation + 1, flags: Flags::default(), step: 0 },
        },
        Fetched::Done => Publish {
            bounds: None,
            word: Word { flags: Flags { refilling: false, global_done: true }, ..sealed },
        },
        Fetched::Pending => {
            Publish { bounds: None, word: Word { flags: Flags::default(), ..sealed } }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NodeQueue;
    use crate::queue::{LocalQueue, QueuedRange};
    use dls::technique::WorkerCtx;
    use proptest::prelude::*;

    const ELIGIBLE: [Kind; 6] =
        [Kind::STATIC, Kind::SS, Kind::FSC, Kind::FAC2, Kind::GSS, Kind::TSS];

    /// The counter takes of one deposit `[lo, lo + len)` through the
    /// packed slot value, from `step` until drained or `limit` takes, as
    /// a lone rank makes them: after the first, from its cursor's caches.
    fn counter_subs(
        t: &Technique,
        lo: u64,
        len: u64,
        p: u32,
        step: u64,
        limit: u64,
    ) -> Vec<SubChunk> {
        let mut raw = Word { generation: FIELD_MAX, flags: Flags::default(), step }.pack();
        let (mut cursor, mut out) = (Cursor::default(), Vec::new());
        while (out.len() as u64) < limit {
            let word = cursor.expected().unwrap_or(Word::unpack(raw));
            assert_eq!((word.pack(), probe(word)), (raw, None));
            let bounds = cursor.bounds(word).unwrap_or((lo, lo + len));
            let (sub, next) = take(word, bounds.0, bounds.1, t, p, &mut cursor);
            cursor.committed(next, bounds);
            raw = next.pack();
            match sub {
                Some(sub) => out.push(sub),
                None => {
                    assert_eq!(
                        Word::unpack(raw),
                        Word { flags: Flags { refilling: true, global_done: false }, ..word }
                    );
                    break;
                }
            }
        }
        out
    }

    /// `protocol::take`'s sub-chunks over a `LocalQueue` holding the same
    /// deposit, positioned at `step` (`taken == step`: SS only past 0).
    fn locked_subs(
        t: &Technique,
        lo: u64,
        len: u64,
        p: u32,
        step: u64,
        limit: u64,
    ) -> Vec<SubChunk> {
        let mut q = LocalQueue::new();
        q.deposit(lo, lo + len);
        let Ok(()) = q.advance(QueuedRange { lo, hi: lo + len, step, taken: step });
        std::iter::from_fn(|| crate::protocol::take(&mut q, t, p, WorkerCtx::worker(p - 1)).ok()?)
            .take(limit as usize)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn counter_takes_are_the_locked_sequence(
            kind in prop::sample::select(ELIGIBLE.to_vec()),
            len in prop_oneof![1u64..64, 1u64..1 << 12, 1u64..1 << 20],
            p in 1u32..17,
            lo in prop_oneof![Just(0u64), 0u64..1 << 40],
        ) {
            let t = Technique::from_kind(kind);
            let all = u64::MAX;
            prop_assert_eq!(counter_subs(&t, lo, len, p, 0, all), locked_subs(&t, lo, len, p, 0, all));
        }
    }

    #[test]
    fn counter_takes_match_near_the_step_field_limit() {
        for len in [FIELD_MAX - 2, FIELD_MAX - 1, FIELD_MAX] {
            for p in [1, 7, 16] {
                for kind in ELIGIBLE {
                    let t = Technique::from_kind(kind);
                    // SS has `len` steps: compare its first and last 500.
                    let limit = if kind == Kind::SS { 500 } else { u64::MAX };
                    let head = counter_subs(&t, 3, len, p, 0, limit);
                    assert_eq!(head, locked_subs(&t, 3, len, p, 0, limit), "{kind} {len} {p}");
                    assert!(!head.is_empty());
                    if kind == Kind::SS {
                        let tail = counter_subs(&t, 3, len, p, len - 500, u64::MAX);
                        assert_eq!(tail.len(), 500);
                        assert_eq!(tail, locked_subs(&t, 3, len, p, len - 500, u64::MAX));
                        assert_eq!(tail.last().map(|s| s.end), Some(3 + len));
                    }
                }
            }
        }
    }

    #[test]
    fn words_round_trip_and_fields_do_not_bleed() {
        for generation in [0, 1, FIELD_MAX - 1, FIELD_MAX] {
            for step in [0, 1, FIELD_MAX - 1, FIELD_MAX] {
                for (refilling, global_done) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let w = Word { generation, flags: Flags { refilling, global_done }, step };
                    assert_eq!(Word::unpack(w.pack()), w);
                }
            }
        }
        let top = Word { generation: FIELD_MAX, flags: Flags::default(), step: FIELD_MAX };
        assert_eq!(Word::unpack(top.pack()).flags, Flags::default());
    }

    #[test]
    fn eligibility_stops_at_the_field_limit() {
        for kind in ELIGIBLE {
            assert!(eligible(&Technique::from_kind(kind), FIELD_MAX), "{kind}");
            assert!(!eligible(&Technique::from_kind(kind), FIELD_MAX + 1), "{kind}");
        }
        for kind in [Kind::FAC, Kind::TFSS, Kind::RND, Kind::WF] {
            assert!(!eligible(&Technique::from_kind(kind), 100), "{kind}");
        }
    }

    #[test]
    fn probe_claim_and_publish_in_protocol_order() {
        let t = Technique::ss();
        let mut cursor = Cursor::default();
        // The zeroed slot is a drained generation 0: the first taker
        // claims it.
        let word = Word::unpack(0);
        let (sub, sealed) = take(word, 0, 0, &t, 2, &mut cursor);
        assert_eq!(sub, None);
        assert_eq!(probe(sealed), Some(Empty::PeerRefilling));
        let pending = deposit(sealed, Fetched::Pending);
        assert_eq!((pending.bounds, pending.word), (None, word));
        let chunk = deposit(sealed, Fetched::Chunk(10, 12));
        assert_eq!(chunk.bounds, Some((10, 12)));
        assert_eq!(chunk.word, Word { generation: 1, flags: Flags::default(), step: 0 });
        let (sub, next) = take(chunk.word, 10, 12, &t, 2, &mut cursor);
        assert_eq!((sub, next.step), (Some(SubChunk { start: 10, end: 11 }), 1));
        let done = deposit(sealed, Fetched::Done);
        assert_eq!(probe(done.word), Some(Empty::Retire));
    }

    fn word(generation: u64, step: u64) -> Word {
        Word { generation, flags: Flags::default(), step }
    }

    #[test]
    fn cached_bounds_serve_only_their_certified_generation() {
        let (t, mut cursor) = (Technique::ss(), Cursor::default());
        let w = word(3, 0);
        assert_eq!((cursor.bounds(w), cursor.expected()), (None, None));
        let (_, next) = take(w, 10, 20, &t, 2, &mut cursor);
        cursor.committed(next, (10, 20));
        assert_eq!(cursor.expected(), Some(next));
        // Any word of generation 3, the committed one or a later step.
        assert_eq!(cursor.bounds(next), Some((10, 20)));
        assert_eq!(cursor.bounds(word(3, 9)), Some((10, 20)));
        for g in [2, 4] {
            assert_eq!(cursor.bounds(word(g, 1)), None, "generation {g}");
        }
    }

    #[test]
    fn a_failed_cas_certifies_nothing() {
        let (t, mut cursor) = (Technique::ss(), Cursor::default());
        let w = word(3, 0);
        let (_, _lost) = take(w, 10, 20, &t, 2, &mut cursor);
        let seen = word(3, 1);
        cursor.failed(seen);
        assert_eq!(cursor.expected(), Some(seen));
        assert_eq!((cursor.bounds(w), cursor.bounds(seen)), (None, None));
        // A later commit certifies, and a failure after it keeps what it
        // certified but expects what it found.
        let (_, next) = take(seen, 10, 20, &t, 2, &mut cursor);
        cursor.committed(next, (10, 20));
        let sealed = Word { flags: Flags { refilling: true, global_done: false }, ..word(3, 7) };
        cursor.failed(sealed);
        assert_eq!((cursor.expected(), cursor.bounds(sealed)), (Some(sealed), Some((10, 20))));
        cursor.forget();
        assert_eq!(cursor.expected(), None);
    }

    #[test]
    fn a_new_generation_drops_both_caches() {
        let (t, mut cursor) = (Technique::gss(), Cursor::default());
        let (_, next) = take(word(3, 0), 10, 20, &t, 2, &mut cursor);
        cursor.committed(next, (10, 20));
        // A word of generation 4 from a read or a lost CAS: the bounds of
        // 3 do not serve it, and taking against it forgets them and the
        // expectation.
        let w = word(4, 0);
        assert_eq!(cursor.bounds(w), None);
        let (sub, _) = take(w, 30, 50, &t, 2, &mut cursor);
        assert_eq!(sub, Some(SubChunk { start: 30, end: 40 }));
        assert_eq!((cursor.bounds(w), cursor.bounds(next), cursor.expected()), (None, None, None));
        // The refiller's publish: its own bounds certify the generation it
        // starts, and the word is read again.
        let (_, next) = take(w, 30, 50, &t, 2, &mut cursor);
        cursor.committed(next, (30, 50));
        let p = deposit(next, Fetched::Chunk(60, 64));
        cursor.published(p);
        assert_eq!(cursor.expected(), None);
        assert_eq!((cursor.bounds(p.word), cursor.bounds(w)), (Some((60, 64)), None));
        let (sub, _) = take(p.word, 60, 64, &t, 2, &mut cursor);
        assert_eq!(sub, Some(SubChunk { start: 60, end: 62 }), "the calculator restarts too");
        // `Pending` and `Done` start no generation: the bounds stay.
        let mut kept = cursor;
        kept.published(deposit(word(5, 3), Fetched::Pending));
        assert_eq!((kept.expected(), kept.bounds(word(5, 3))), (None, Some((60, 64))));
    }
}

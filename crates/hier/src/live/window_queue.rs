//! The node window as [`crate::protocol`]'s local queue, and the only
//! code that reads or writes its slots and flags, locked or lock-free.
//!
//! A [`WindowQueue`] lives for one critical section of the locked queue:
//! the first `front` reads the range, later calls reuse it, so each
//! decision issues exactly its shape. A [`CounterQueue`] is the
//! lock-free queue of [`crate::protocol::counter`]: the word and the
//! bounds, every access one MPI atomic inside the rank's run-long
//! `lock_all`. It holds no state of its own; what a rank caches of the
//! queue is its `counter::Cursor`.

use crate::layout::{GLOBAL_DONE, HI, LO, REFILLING, STEP, TAKEN, WORD};
use crate::protocol::counter::{Publish, Word};
use crate::protocol::{Flags, NodeQueue};
use crate::queue::QueuedRange;
use mpisim::{Result, RmaOp, Window};

/// A locked node window's queue: one range, read on first use.
pub(super) struct WindowQueue<'w> {
    win: &'w Window,
    range: Option<QueuedRange>,
}

impl<'w> WindowQueue<'w> {
    pub(super) fn new(win: &'w Window) -> Self {
        Self { win, range: None }
    }

    /// Read the two flags, `global_done` first.
    pub(super) fn flags(&self) -> Result<Flags> {
        let global_done = self.win.get(0, GLOBAL_DONE)? != 0;
        Ok(Flags { refilling: self.win.get(0, REFILLING)? != 0, global_done })
    }

    /// Write the flags `now` changes from `was`, `global_done` first.
    pub(super) fn write_flags(&self, was: Flags, now: Flags) -> Result<()> {
        if now.global_done != was.global_done {
            self.win.put(0, GLOBAL_DONE, now.global_done.into())?;
        }
        if now.refilling != was.refilling {
            self.win.put(0, REFILLING, now.refilling.into())?;
        }
        Ok(())
    }
}

impl NodeQueue for WindowQueue<'_> {
    type Error = mpisim::Error;

    // Forced: with two call sites (AWF's peek, `take`) it stays a call.
    #[inline(always)]
    fn front(&mut self) -> Result<Option<QueuedRange>> {
        let r = match self.range {
            Some(r) => r,
            None => *self.range.insert(QueuedRange {
                lo: self.win.get(0, LO)? as u64,
                hi: self.win.get(0, HI)? as u64,
                step: self.win.get(0, STEP)? as u64,
                taken: self.win.get(0, TAKEN)? as u64,
            }),
        };
        Ok((!r.is_empty()).then_some(r))
    }

    fn advance(&mut self, front: QueuedRange) -> Result<()> {
        self.win.put(0, STEP, front.step as i64)?;
        self.win.put(0, TAKEN, front.taken as i64)?;
        self.range = Some(front);
        Ok(())
    }

    /// The window holds one range: a push replaces the drained one.
    fn push(&mut self, lo: u64, hi: u64) -> Result<()> {
        self.win.put(0, LO, lo as i64)?;
        self.win.put(0, HI, hi as i64)?;
        self.win.put(0, STEP, 0)?;
        self.win.put(0, TAKEN, 0)?;
        self.range = Some(QueuedRange::new(lo, hi));
        Ok(())
    }
}

/// A node window's lock-free queue. Every call is atomics only; the
/// caller holds the window's `lock_all` epoch.
pub(super) struct CounterQueue<'w> {
    win: &'w Window,
}

impl<'w> CounterQueue<'w> {
    pub(super) fn new(win: &'w Window) -> Self {
        Self { win }
    }

    fn read(&self, disp: usize) -> Result<i64> {
        self.win.fetch_and_op(0, disp, 0, RmaOp::NoOp)
    }

    /// Read the word.
    #[inline]
    pub(super) fn word(&self) -> Result<Word> {
        self.read(WORD).map(Word::unpack)
    }

    /// Read the deposit's bounds `(LO, HI)`, after the word.
    #[inline]
    pub(super) fn bounds(&self) -> Result<(u64, u64)> {
        Ok((self.read(LO)? as u64, self.read(HI)? as u64))
    }

    /// Commit a take or a refill claim: compare-and-swap the word from
    /// `was` to `now`. `Err` carries the word found instead of `was`.
    #[inline]
    pub(super) fn commit(&self, was: Word, now: Word) -> Result<std::result::Result<(), Word>> {
        let was = was.pack();
        let found = self.win.compare_and_swap(0, WORD, was, now.pack())?;
        Ok(if found == was { Ok(()) } else { Err(Word::unpack(found)) })
    }

    /// Write a refill's bounds, if any, then publish its word.
    pub(super) fn publish(&self, p: Publish) -> Result<()> {
        if let Some((lo, hi)) = p.bounds {
            self.win.fetch_and_op(0, LO, lo as i64, RmaOp::Replace)?;
            self.win.fetch_and_op(0, HI, hi as i64, RmaOp::Replace)?;
        }
        self.win.fetch_and_op(0, WORD, p.word.pack(), RmaOp::Replace).map(drop)
    }
}

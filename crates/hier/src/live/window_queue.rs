//! The node window as [`crate::protocol`]'s local queue, and the only
//! code that reads or writes its slots and flags. A [`WindowQueue`] lives
//! for one critical section: the first `front` reads the range, later
//! calls reuse it, so each decision issues exactly its shape.

use crate::layout::{GLOBAL_DONE, HI, LO, REFILLING, STEP, TAKEN};
use crate::protocol::{Flags, NodeQueue};
use crate::queue::QueuedRange;
use mpisim::{Result, Window};

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

//! Model-thread spawning.
//!
//! Inside a model run, [`spawn`] creates a scheduler-managed thread:
//! it parks until the explorer schedules it, and every visible op it
//! performs is a decision point.

use crate::sched::{with_ctx, Execution, Tid};
use std::sync::{Arc, Mutex};

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    exec: Arc<Execution>,
    tid: Tid,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(exec: Arc<Execution>, tid: Tid, result: Arc<Mutex<Option<T>>>) -> Self {
        JoinHandle { exec, tid, result }
    }

    /// Wait for the thread to finish and return its result. This is a
    /// visible (blocking) op: the joiner is disabled until the
    /// joinee's final `finish` op has run.
    pub fn join(self) -> std::thread::Result<T> {
        let me = with_ctx(|c| c.map(|(_, t)| *t)).expect("join outside a model run");
        self.exec.join_thread(me, self.tid);
        let out = self.result.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        match out {
            Some(v) => Ok(v),
            // The joinee panicked (its result was never stored); the
            // violation is already recorded by the harness.
            None => Err(Box::new("model thread panicked")),
        }
    }
}

/// Spawn a scheduler-managed thread. Only valid inside a model run:
/// the models are the only code that spawns through this module.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let exec = with_ctx(|c| c.map(|(e, _)| Arc::clone(e))).expect("spawn outside a model run");
    exec.spawn_model(f)
}

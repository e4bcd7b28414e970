//! Collective operations over a [`Comm`], built on point-to-point
//! messaging with reserved internal tags. Linear algorithms — adequate
//! for a simulator whose largest world is a few hundred ranks.

use crate::comm::{Comm, TAG_BCAST, TAG_GATHER};
use crate::error::{Error, Result};

impl Comm {
    /// `MPI_Bcast`: `root` supplies `value`; everyone returns it.
    /// Non-root ranks pass their own (ignored) `value`.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: u32, value: T) -> Result<T> {
        self.check_rank(root)?;
        if self.rank() == root {
            for dest in 0..self.size() {
                if dest != root {
                    self.send(dest, TAG_BCAST, value.clone())?;
                }
            }
            Ok(value)
        } else {
            let (_, _, v) = self.recv(Some(root), Some(TAG_BCAST))?;
            Ok(v)
        }
    }

    /// `MPI_Gather`: root returns every rank's value in rank order;
    /// non-roots return an empty vec.
    pub fn gather<T: Send + 'static>(&self, root: u32, value: T) -> Result<Vec<T>> {
        self.check_rank(root)?;
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root as usize] = Some(value);
            for src in 0..self.size() {
                if src != root {
                    let (_, _, v): (_, _, T) = self.recv(Some(src), Some(TAG_GATHER))?;
                    out[src as usize] = Some(v);
                }
            }
            Ok(out.into_iter().map(|v| v.expect("all ranks gathered")).collect())
        } else {
            self.send(root, TAG_GATHER, value)?;
            Ok(Vec::new())
        }
    }

    /// `MPI_Allgather`: every rank returns every rank's value, in rank
    /// order.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Result<Vec<T>> {
        let gathered = self.gather(0, value)?;
        if self.rank() == 0 {
            self.bcast(0, gathered)
        } else {
            let (_, _, v) = self.recv(Some(0), Some(TAG_BCAST))?;
            Ok(v)
        }
    }

    fn check_rank(&self, rank: u32) -> Result<()> {
        if rank >= self.size() {
            return Err(Error::RankOutOfRange { rank, size: self.size() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Topology, Universe};

    #[test]
    fn bcast_delivers_to_all() {
        let out = Universe::run(Topology::new(2, 2), |p| {
            let w = p.world();
            w.bcast(1, if w.rank() == 1 { 42u64 } else { 0 }).unwrap()
        });
        assert_eq!(out, vec![42; 4]);
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            w.gather(0, format!("r{}", w.rank())).unwrap()
        });
        assert_eq!(out[0], vec!["r0", "r1", "r2", "r3"]);
        assert!(out[1].is_empty());
    }

    #[test]
    fn allgather_everywhere() {
        let out =
            Universe::run(Topology::new(1, 3), |p| p.world().allgather(p.world().rank()).unwrap());
        assert_eq!(out, vec![vec![0, 1, 2]; 3]);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&flag);
        Universe::run(Topology::new(1, 4), move |p| {
            let w = p.world();
            f2.fetch_add(1, Ordering::SeqCst);
            w.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(f2.load(Ordering::SeqCst), 4);
        });
    }
}

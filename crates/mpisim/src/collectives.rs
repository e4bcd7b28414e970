//! Collective operations over a [`Comm`], built on point-to-point
//! messaging with reserved internal tags. Linear algorithms — adequate
//! for a simulator whose largest world is a few hundred ranks.

use crate::comm::{Comm, TAG_ALLTOALL, TAG_BCAST, TAG_GATHER, TAG_SCAN, TAG_SCATTER};
use crate::error::{Error, Result};

impl Comm {
    /// `MPI_Bcast`: `root` supplies `value`; everyone returns it.
    /// Non-root ranks pass their own (ignored) `value`; use
    /// [`Comm::bcast_from`] to avoid constructing one.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: u32, value: T) -> Result<T> {
        self.bcast_from(root, || value.clone())
    }

    /// `MPI_Bcast` where only the root constructs the value.
    pub fn bcast_from<T: Clone + Send + 'static>(
        &self,
        root: u32,
        make: impl FnOnce() -> T,
    ) -> Result<T> {
        self.check_rank(root)?;
        if self.rank() == root {
            let value = make();
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

    /// `MPI_Scatter`: root distributes `values[i]` to rank `i`.
    pub fn scatter<T: Send + 'static>(&self, root: u32, values: Vec<T>) -> Result<T> {
        self.check_rank(root)?;
        if self.rank() == root {
            if values.len() != self.size() as usize {
                return Err(Error::RankOutOfRange { rank: values.len() as u32, size: self.size() });
            }
            let mut own: Option<T> = None;
            for (dest, v) in values.into_iter().enumerate() {
                if dest as u32 == root {
                    own = Some(v);
                } else {
                    self.send(dest as u32, TAG_SCATTER, v)?;
                }
            }
            Ok(own.expect("root position present"))
        } else {
            let (_, _, v) = self.recv(Some(root), Some(TAG_SCATTER))?;
            Ok(v)
        }
    }

    /// `MPI_Scan` (inclusive prefix): rank `r` returns
    /// `op(v_0, ..., v_r)`. Linear chain.
    pub fn scan<T: Clone + Send + 'static>(&self, value: T, op: impl Fn(T, T) -> T) -> Result<T> {
        let acc = if self.rank() == 0 {
            value
        } else {
            let (_, _, prev): (_, _, T) = self.recv(Some(self.rank() - 1), Some(TAG_SCAN))?;
            op(prev, value)
        };
        if self.rank() + 1 < self.size() {
            self.send(self.rank() + 1, TAG_SCAN, acc.clone())?;
        }
        Ok(acc)
    }

    /// `MPI_Alltoall`: rank `r` provides `values[i]` for rank `i` and
    /// returns the values every rank provided for `r`, in rank order.
    pub fn alltoall<T: Send + 'static>(&self, values: Vec<T>) -> Result<Vec<T>> {
        if values.len() != self.size() as usize {
            return Err(Error::RankOutOfRange { rank: values.len() as u32, size: self.size() });
        }
        let mut own: Option<T> = None;
        for (dest, v) in values.into_iter().enumerate() {
            if dest as u32 == self.rank() {
                own = Some(v);
            } else {
                self.send(dest as u32, TAG_ALLTOALL, v)?;
            }
        }
        let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        out[self.rank() as usize] = own;
        for src in 0..self.size() {
            if src != self.rank() {
                let (_, _, v): (_, _, T) = self.recv(Some(src), Some(TAG_ALLTOALL))?;
                out[src as usize] = Some(v);
            }
        }
        Ok(out.into_iter().map(|v| v.expect("all ranks contributed")).collect())
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
    fn scatter_distributes() {
        let out = Universe::run(Topology::new(1, 3), |p| {
            let w = p.world();
            let values = if w.rank() == 0 { vec![10, 20, 30] } else { Vec::new() };
            w.scatter(0, values).unwrap()
        });
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn scatter_wrong_len_errors() {
        Universe::run(Topology::new(1, 1), |p| {
            assert!(p.world().scatter(0, vec![1, 2]).is_err());
        });
    }

    #[test]
    fn scan_inclusive_prefix_sums() {
        let out = Universe::run(Topology::new(1, 5), |p| {
            let w = p.world();
            w.scan(w.rank() + 1, |a, b| a + b).unwrap()
        });
        assert_eq!(out, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn alltoall_transposes() {
        let out = Universe::run(Topology::new(2, 2), |p| {
            let w = p.world();
            // Rank r sends r*10 + dest to each dest.
            let values: Vec<u32> = (0..w.size()).map(|d| w.rank() * 10 + d).collect();
            w.alltoall(values).unwrap()
        });
        // Rank r receives src*10 + r from each src.
        for (r, row) in out.iter().enumerate() {
            let expected: Vec<u32> = (0..4).map(|src| src * 10 + r as u32).collect();
            assert_eq!(*row, expected);
        }
    }

    #[test]
    fn alltoall_wrong_len_errors() {
        Universe::run(Topology::new(1, 1), |p| {
            assert!(p.world().alltoall(vec![1, 2]).is_err());
        });
    }

    #[test]
    fn scan_with_non_commutative_op() {
        // String concatenation: order must be rank order.
        let out = Universe::run(Topology::new(1, 3), |p| {
            let w = p.world();
            w.scan(w.rank().to_string(), |a, b| a + &b).unwrap()
        });
        assert_eq!(out, vec!["0", "01", "012"]);
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

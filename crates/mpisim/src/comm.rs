//! Communicators: rank groups with private mailboxes, a barrier, and
//! split operations (`MPI_Comm_split`, `MPI_Comm_split_type(SHARED)`).

use crate::error::{Error, Result};
use crate::message::{Envelope, Mailbox, INTERNAL_TAG_BASE};
use crate::topology::Topology;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

pub(crate) const TAG_SPLIT: i32 = INTERNAL_TAG_BASE;
pub(crate) const TAG_BCAST: i32 = INTERNAL_TAG_BASE + 1;
pub(crate) const TAG_GATHER: i32 = INTERNAL_TAG_BASE + 3;
pub(crate) const TAG_SCATTER: i32 = INTERNAL_TAG_BASE + 4;
pub(crate) const TAG_WIN: i32 = INTERNAL_TAG_BASE + 5;
pub(crate) const TAG_SCAN: i32 = INTERNAL_TAG_BASE + 6;
pub(crate) const TAG_ALLTOALL: i32 = INTERNAL_TAG_BASE + 7;

/// Shared state of one communicator: membership, mailboxes, barrier.
pub(crate) struct CommState {
    /// World rank of each member, indexed by communicator rank.
    pub world_ranks: Vec<u32>,
    pub mailboxes: Vec<Arc<Mailbox>>,
    pub barrier: Barrier,
    pub topology: Topology,
    /// `Some(node)` when every member lives on that single node — the
    /// precondition for `MPI_Win_allocate_shared`.
    pub node_scope: Option<u32>,
    /// Universe-wide failure registry, indexed by *world* rank. Shared
    /// by every communicator split from the same world, so a death is
    /// visible everywhere at once.
    pub failed: Arc<Vec<AtomicBool>>,
}

impl CommState {
    pub(crate) fn new(
        world_ranks: Vec<u32>,
        topology: Topology,
        failed: Arc<Vec<AtomicBool>>,
    ) -> Arc<Self> {
        let size = world_ranks.len();
        let node_scope = {
            let first = topology.node_of(world_ranks[0]);
            world_ranks.iter().all(|&r| topology.node_of(r) == first).then_some(first)
        };
        Arc::new(Self {
            world_ranks,
            mailboxes: (0..size).map(|_| Arc::new(Mailbox::new())).collect(),
            barrier: Barrier::new(size),
            topology,
            node_scope,
            failed,
        })
    }
}

/// A communicator handle held by one rank (thread). Cloning yields
/// another handle for the *same* rank; handles are cheap (`Arc` inside).
#[derive(Clone)]
pub struct Comm {
    pub(crate) state: Arc<CommState>,
    pub(crate) rank: u32,
}

impl Comm {
    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> u32 {
        self.state.world_ranks.len() as u32
    }

    /// The cluster topology the world was launched with.
    pub fn topology(&self) -> Topology {
        self.state.topology
    }

    /// `Some(node)` when this communicator is confined to one compute
    /// node (the precondition for [`crate::Window::allocate_shared`]).
    pub fn node_scope(&self) -> Option<u32> {
        self.state.node_scope
    }

    /// Declare this rank dead (fault injection). From here on, peers'
    /// operations that target it — sends, sourced receives with no
    /// buffered message, window locks/atomics on non-shared windows —
    /// return [`Error::RankFailed`] instead of hanging. The registry is
    /// universe-wide: every communicator and window sees the death.
    pub fn mark_failed(&self) {
        let world = self.state.world_ranks[self.rank as usize] as usize;
        self.state.failed[world].store(true, Ordering::SeqCst);
    }

    /// True when the communicator member `comm_rank` has been declared
    /// dead via [`Comm::mark_failed`] (on any communicator handle).
    pub fn is_failed(&self, comm_rank: u32) -> bool {
        self.state
            .world_ranks
            .get(comm_rank as usize)
            .is_some_and(|&w| self.state.failed[w as usize].load(Ordering::SeqCst))
    }

    /// Blocking typed send (standard mode; buffered, never deadlocks on
    /// its own). Sending to a dead rank returns [`Error::RankFailed`].
    pub fn send<T: Send + 'static>(&self, dest: u32, tag: i32, value: T) -> Result<()> {
        let mb = self
            .state
            .mailboxes
            .get(dest as usize)
            .ok_or(Error::RankOutOfRange { rank: dest, size: self.size() })?;
        if self.is_failed(dest) {
            return Err(Error::RankFailed { rank: dest });
        }
        mb.push(Envelope { src: self.rank, tag, payload: Box::new(value) });
        Ok(())
    }

    /// Blocking typed receive; `src`/`tag` of `None` match anything.
    /// Returns `(source, tag, value)`. A sourced receive from a dead
    /// rank with no matching buffered message returns
    /// [`Error::RankFailed`] instead of blocking forever (messages sent
    /// before the death remain deliverable).
    pub fn recv<T: Send + 'static>(
        &self,
        src: Option<u32>,
        tag: Option<i32>,
    ) -> Result<(u32, i32, T)> {
        if let Some(s) = src {
            if self.is_failed(s) && !self.probe(src, tag) {
                return Err(Error::RankFailed { rank: s });
            }
        }
        self.state.mailboxes[self.rank as usize].recv(src, tag)
    }

    /// Non-blocking probe for a matching message.
    pub fn probe(&self, src: Option<u32>, tag: Option<i32>) -> bool {
        self.state.mailboxes[self.rank as usize].probe(src, tag)
    }

    /// Synchronise all ranks of the communicator.
    pub fn barrier(&self) {
        self.state.barrier.wait();
    }

    /// `MPI_Comm_split`: ranks calling with the same `color` form a new
    /// communicator, ordered by `(key, old rank)`. Collective over the
    /// communicator.
    pub fn split(&self, color: u32, key: u32) -> Result<Comm> {
        let all: Vec<(u32, u32, u32)> = self.allgather((self.rank, color, key))?;
        let mut group: Vec<(u32, u32)> =
            all.iter().filter(|(_, c, _)| *c == color).map(|&(r, _, k)| (k, r)).collect();
        group.sort_unstable();
        let my_new_rank = group
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("caller must be in its own color group") as u32;
        let leader_old_rank = group[0].1;
        if self.rank == leader_old_rank {
            let world_ranks: Vec<u32> =
                group.iter().map(|&(_, r)| self.state.world_ranks[r as usize]).collect();
            let state =
                CommState::new(world_ranks, self.state.topology, Arc::clone(&self.state.failed));
            for &(_, old_rank) in &group[1..] {
                self.send(old_rank, TAG_SPLIT, Arc::clone(&state))?;
            }
            Ok(Comm { state, rank: my_new_rank })
        } else {
            let (_, _, state): (_, _, Arc<CommState>) =
                self.recv(Some(leader_old_rank), Some(TAG_SPLIT))?;
            Ok(Comm { state, rank: my_new_rank })
        }
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: the sub-communicator
    /// of ranks sharing this rank's compute node, ordered by world rank.
    pub fn split_shared(&self) -> Result<Comm> {
        let my_world = self.state.world_ranks[self.rank as usize];
        let node = self.state.topology.node_of(my_world);
        self.split(node, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Topology, Universe};

    #[test]
    fn send_recv_roundtrip() {
        let out = Universe::run(Topology::new(1, 2), |p| {
            let world = p.world();
            if world.rank() == 0 {
                world.send(1, 5, String::from("hello")).unwrap();
                0
            } else {
                let (src, tag, s): (_, _, String) = world.recv(Some(0), Some(5)).unwrap();
                assert_eq!((src, tag, s.as_str()), (0, 5, "hello"));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn non_overtaking_same_src_tag() {
        Universe::run(Topology::new(1, 2), |p| {
            let world = p.world();
            if world.rank() == 0 {
                for i in 0..100u32 {
                    world.send(1, 0, i).unwrap();
                }
            } else {
                for i in 0..100u32 {
                    let (_, _, v): (_, _, u32) = world.recv(Some(0), Some(0)).unwrap();
                    assert_eq!(v, i);
                }
            }
        });
    }

    #[test]
    fn split_shared_groups_by_node() {
        let out = Universe::run(Topology::new(3, 4), |p| {
            let node_comm = p.world().split_shared().unwrap();
            (node_comm.rank(), node_comm.size(), node_comm.node_scope())
        });
        for (world_rank, (local_rank, size, scope)) in out.iter().enumerate() {
            assert_eq!(*size, 4);
            assert_eq!(*local_rank, world_rank as u32 % 4);
            assert_eq!(*scope, Some(world_rank as u32 / 4));
        }
    }

    #[test]
    fn split_by_parity() {
        let out = Universe::run(Topology::new(1, 6), |p| {
            let world = p.world();
            let sub = world.split(world.rank() % 2, world.rank()).unwrap();
            (sub.rank(), sub.size())
        });
        assert_eq!(out, vec![(0, 3), (0, 3), (1, 3), (1, 3), (2, 3), (2, 3)]);
    }

    #[test]
    fn world_is_not_node_scoped_when_multi_node() {
        let out = Universe::run(Topology::new(2, 2), |p| p.world().node_scope());
        assert!(out.iter().all(|s| s.is_none()));
    }

    #[test]
    fn send_to_bad_rank_errors() {
        Universe::run(Topology::new(1, 1), |p| {
            assert!(p.world().send(9, 0, 1u8).is_err());
        });
    }
}

//! Sequential specification of one `dls-service` job — the reference
//! object the linearizability checker replays histories against.
//!
//! The specification is the job kernel itself ([`JobCore`], the state
//! machine the server and journal replay run); this module only adapts
//! it to the sequential contract, which identifies a grant by its
//! *range* (lease ids depend on the linearization order) and a
//! disconnect by its *connection* (the kernel knows neither sockets nor
//! connections). So the state is the kernel plus the connection →
//! leases index the server also keeps, and nothing here advances a
//! counter, touches the pool or transitions the ledger.

use crate::linearize::SeqSpec;
use dls::Kind;
use durability::{GrantEntry, JobCore};
use resilience::LeaseId;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// An operation against one job.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum JobOp {
    /// Serve up to `batch` chunks to `worker` on connection `conn`.
    Fetch {
        /// Requesting worker id.
        worker: u32,
        /// Connection issuing the request.
        conn: u64,
        /// Maximum chunks to grant.
        batch: u32,
    },
    /// Settle the grant covering `[lo, hi)`.
    Report {
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// Connection `conn` vanished; reclaim its unsettled grants.
    Disconnect {
        /// The dead connection.
        conn: u64,
    },
}

/// The observed response of a [`JobOp`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum JobRes {
    /// Ranges granted by a fetch (empty = nothing left right now).
    Granted(Vec<(u64, u64)>),
    /// Iterations credited by a report, or `None` for a stale lease.
    Reported(Option<u64>),
    /// Number of unsettled grants a disconnect reclaimed.
    Reclaimed(u64),
}

/// The kernel plus the connection → leases index that turns "this
/// connection died" into kernel reclaims. Shared by the specification
/// and the models (which put it under their shard mutex), exactly as
/// the server wraps its kernel.
#[derive(Clone, Debug)]
pub struct ConnJob {
    /// The job state machine.
    pub core: JobCore,
    /// Every lease a connection was ever granted, in grant order;
    /// settled ones stay listed and the ledger rejects their reclaim.
    pub conn_leases: BTreeMap<u64, Vec<LeaseId>>,
}

impl ConnJob {
    /// Fetch through the kernel (clock pinned at 0) and index the
    /// grants under `conn`.
    pub fn fetch(&mut self, worker: u32, conn: u64, batch: u32) -> Vec<GrantEntry> {
        let grants = self.core.fetch(worker, batch, 0);
        self.conn_leases.entry(conn).or_default().extend(grants.iter().map(|g| g.lease));
        grants
    }

    /// Settle by lease id; the iterations credited, `None` if stale.
    pub fn report(&mut self, lease: LeaseId) -> Option<u64> {
        self.core.settle(lease, 0).ok().map(|s| s.len)
    }

    /// Reclaim what `conn` still holds; the number of leases re-pooled.
    pub fn disconnect(&mut self, conn: u64) -> u64 {
        let leases = self.conn_leases.remove(&conn).unwrap_or_default();
        leases.into_iter().filter(|&l| self.core.reclaim(l).is_ok()).count() as u64
    }

    /// The kernel's canonical image — what equality and hashing of the
    /// specification state go through.
    fn image(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.core.serialize_into(&mut bytes);
        bytes
    }
}

impl PartialEq for ConnJob {
    fn eq(&self, other: &Self) -> bool {
        self.conn_leases == other.conn_leases && self.image() == other.image()
    }
}

impl Eq for ConnJob {}

impl Hash for ConnJob {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.conn_leases.hash(state);
        self.image().hash(state);
    }
}

/// The job's fixed parameters.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Total loop iterations.
    pub n: u64,
    /// Scheduling technique.
    pub kind: Kind,
    /// Per-worker weight table (empty = unweighted).
    pub weights: Vec<f64>,
}

impl JobSpec {
    /// New spec for `n` iterations under `kind`.
    pub fn new(n: u64, kind: Kind) -> JobSpec {
        JobSpec { n, kind, weights: Vec::new() }
    }
}

impl SeqSpec for JobSpec {
    type Op = JobOp;
    type Res = JobRes;
    type State = ConnJob;

    fn init(&self) -> ConnJob {
        ConnJob {
            core: JobCore::new(self.n, self.kind.into(), self.weights.clone()),
            conn_leases: BTreeMap::new(),
        }
    }

    fn apply(&self, state: &mut ConnJob, op: &JobOp) -> JobRes {
        match *op {
            JobOp::Fetch { worker, conn, batch } => {
                let grants = state.fetch(worker, conn, batch);
                JobRes::Granted(grants.iter().map(|g| (g.lo, g.hi)).collect())
            }
            JobOp::Report { lo, hi } => {
                let lease = state.core.leases.active(None).find(|l| (l.lo, l.hi) == (lo, hi));
                JobRes::Reported(lease.map(|l| l.id).and_then(|id| state.report(id)))
            }
            JobOp::Disconnect { conn } => JobRes::Reclaimed(state.disconnect(conn)),
        }
    }
}

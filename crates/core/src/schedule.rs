//! The [`HierSchedule`] builder — the main entry point of the library.

use cluster_sim::MachineParams;
use dls::{Kind, Technique};
use hier::live::{run_live, LiveResult};
use hier::sim::{simulate, SimResult};
use hier::{Approach, HierSpec, RunConfig};
use workloads::{CostTable, Workload};

/// A fully-specified hierarchical schedule: techniques, approach,
/// cluster shape and cost model — one [`RunConfig`], run by either
/// backend. Build with [`HierSchedule::builder`].
#[derive(Clone, Debug)]
pub struct HierSchedule(RunConfig);

impl HierSchedule {
    /// Start building a schedule (defaults: `GSS+GSS`, MPI+MPI, 4 nodes
    /// x 16 workers, default machine parameters).
    pub fn builder() -> HierScheduleBuilder {
        let spec = HierSpec { inter: Technique::gss(), intra: Technique::gss() };
        HierScheduleBuilder(RunConfig::new(4, 16, spec, Approach::MpiMpi))
    }

    /// The `X+Y` combination.
    pub fn spec(&self) -> HierSpec {
        self.0.spec
    }

    /// The intra-node implementation.
    pub fn approach(&self) -> Approach {
        self.0.approach
    }

    /// `(nodes, workers_per_node)`.
    pub fn shape(&self) -> (u32, u32) {
        (self.0.topology.nodes, self.0.topology.workers_per_node)
    }

    /// Run in virtual time against a precomputed cost table.
    /// Deterministic; models the full cluster of this schedule.
    pub fn simulate(&self, table: &CostTable) -> SimResult {
        simulate(&self.0, table)
    }

    /// Run in virtual time under the *hierarchical master-worker*
    /// execution model (HDSS style, the paper's related work): dedicated
    /// global and per-node masters serve chunk requests over messages
    /// instead of shared queues.
    pub fn simulate_master_worker(&self, table: &CostTable) -> SimResult {
        hier::sim::simulate_master_worker(&self.0, table)
    }

    /// Run in virtual time under the *flat* master-worker model
    /// (DLB-tool style): every worker requests chunks directly from one
    /// global master — the configuration whose master bottleneck
    /// motivated hierarchical DLS in the first place.
    pub fn simulate_flat_master_worker(&self, table: &CostTable) -> SimResult {
        hier::sim::simulate_flat_master_worker(&self.0, table)
    }

    /// Run for real on OS threads, executing the workload's kernel.
    ///
    /// Panics if the runtime fails to allocate windows or an RMA op
    /// errors — use [`hier::live::run_live`] directly for a fallible
    /// variant (or to record an RMA log).
    pub fn run_live(&self, workload: &(dyn Workload + Sync)) -> LiveResult {
        run_live(&self.0, workload).expect("live run failed")
    }

    /// Run for real with the **global queue behind TCP**: self-hosts a
    /// `dls-service` server on an ephemeral loopback port, runs the
    /// MPI+MPI hierarchy against it (one node-agent connection per
    /// node, ranks self-scheduling sub-chunks from the shared window),
    /// then shuts the server down and returns its final stats snapshot
    /// alongside the usual result — feed it to
    /// [`crate::export::service_report`] for the JSON pipeline.
    ///
    /// To target an external, long-running server (shared by many
    /// tenants), call [`hier::live::run_live_net`] with its address
    /// instead.
    pub fn run_live_net(
        &self,
        workload: &(dyn Workload + Sync),
    ) -> (LiveResult, dls_service::StatsSnapshot) {
        let server =
            dls_service::Server::start(dls_service::ServiceConfig::default(), "127.0.0.1:0")
                .expect("self-hosted dls-service failed to bind");
        let result = hier::live::run_live_net(&self.0, workload, server.addr())
            .expect("live net run failed");
        (result, server.shutdown())
    }

    /// Run the hierarchical master-worker model for real (dedicated
    /// global master at rank 0, working local masters, two-sided
    /// messaging).
    pub fn run_live_master_worker(&self, workload: &(dyn Workload + Sync)) -> LiveResult {
        hier::live::run_live_master_worker(&self.0, workload)
    }

    /// Run the flat master-worker model for real (every worker requests
    /// directly from the dedicated master at rank 0).
    pub fn run_live_flat_master_worker(&self, workload: &(dyn Workload + Sync)) -> LiveResult {
        hier::live::run_live_flat_master_worker(&self.0, workload)
    }
}

/// Builder for [`HierSchedule`]: each setter edits the run
/// configuration it wraps.
#[derive(Clone, Debug)]
pub struct HierScheduleBuilder(RunConfig);

impl HierScheduleBuilder {
    /// Inter-node technique by kind (default parameters).
    pub fn inter(mut self, kind: Kind) -> Self {
        self.0.spec.inter = Technique::from_kind(kind);
        self
    }

    /// Inter-node technique with explicit parameters.
    pub fn inter_technique(mut self, t: Technique) -> Self {
        self.0.spec.inter = t;
        self
    }

    /// Intra-node technique by kind (default parameters).
    pub fn intra(mut self, kind: Kind) -> Self {
        self.0.spec.intra = Technique::from_kind(kind);
        self
    }

    /// Intra-node technique with explicit parameters.
    pub fn intra_technique(mut self, t: Technique) -> Self {
        self.0.spec.intra = t;
        self
    }

    /// MPI+MPI (proposed) or MPI+OpenMP (baseline).
    pub fn approach(mut self, a: Approach) -> Self {
        self.0.approach = a;
        self
    }

    /// Number of compute nodes.
    pub fn nodes(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one node");
        self.0.topology.nodes = n;
        self
    }

    /// Workers per node (ranks or team threads).
    pub fn workers_per_node(mut self, w: u32) -> Self {
        assert!(w > 0, "need at least one worker per node");
        self.0.topology.workers_per_node = w;
        self
    }

    /// Virtual-time cost constants.
    pub fn machine(mut self, m: MachineParams) -> Self {
        self.0.machine = m;
        self
    }

    /// Record per-worker timeline segments in `simulate` (virtual
    /// time) and `run_live` (wall-clock time).
    pub fn trace(mut self, on: bool) -> Self {
        self.0.trace = on;
        self
    }

    /// Record executed sub-chunks in `simulate`.
    pub fn record_chunks(mut self, on: bool) -> Self {
        self.0.record_chunks = on;
        self
    }

    /// Local-queue refill policy for MPI+MPI `simulate` runs.
    pub fn refill(mut self, policy: hier::sim::RefillPolicy) -> Self {
        self.0.refill = policy;
        self
    }

    /// Model OpenMP's `nowait` clause for MPI+OpenMP `simulate` runs
    /// (the paper's future work).
    pub fn omp_nowait(mut self, on: bool) -> Self {
        self.0.omp_nowait = on;
        self
    }

    /// Static mean-normalised per-worker weights for weighted
    /// techniques (WF), indexed by global worker id.
    pub fn weights(mut self, w: Vec<f64>) -> Self {
        self.0.weights = w;
        self
    }

    /// Enable adaptive weighted factoring at the intra-node level
    /// (MPI+MPI): sub-chunks are WF-sized with weights learned from
    /// measured worker rates (extension beyond the paper's four
    /// techniques).
    pub fn awf(mut self, variant: dls::adaptive::AwfVariant) -> Self {
        self.0.awf = Some(variant);
        self
    }

    /// How the global queue is realised over RMA (MPI+MPI): the
    /// single-atomic distributed chunk calculation (default) or
    /// lock-guarded counters.
    pub fn global_queue(mut self, mode: hier::GlobalQueueMode) -> Self {
        self.0.global_mode = mode;
        self
    }

    /// Technique the **net backend** (`run_live_net`) asks the
    /// `dls-service` global queue to run, overriding the inter kind.
    /// This opens the inter level to the measurement-driven kinds —
    /// `AF`, the `AWF-*` variants, and the self-switching `AUTO` mode
    /// — which the server sizes from observed chunk latencies and
    /// which therefore have no in-process `Technique` equivalent.
    /// `simulate` and the RMA-backed live runs ignore it.
    pub fn net_inter(mut self, kind: impl Into<dls::SchedKind>) -> Self {
        self.0.net_inter = Some(kind.into());
        self
    }

    /// Inject faults (rank crashes, stragglers, message faults) from a
    /// deterministic [`resilience::FaultPlan`]. Applies to `simulate`
    /// (all execution models) and, for crashes, to MPI+MPI `run_live`;
    /// recovery events land in the result's `recovery` timeline. The
    /// default inert plan changes nothing.
    pub fn faults(mut self, plan: resilience::FaultPlan) -> Self {
        self.0.faults = plan;
        self
    }

    /// Finish building.
    pub fn build(self) -> HierSchedule {
        HierSchedule(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::synthetic::Synthetic;

    #[test]
    fn builder_defaults() {
        let s = HierSchedule::builder().build();
        assert_eq!(s.shape(), (4, 16));
        assert_eq!(s.approach(), Approach::MpiMpi);
        assert_eq!(s.spec().label(), "GSS+GSS");
    }

    #[test]
    fn simulate_and_live_agree_on_totals() {
        let w = Synthetic::uniform(2_000, 10, 100, 5);
        let table = CostTable::build(&w);
        let s = HierSchedule::builder()
            .inter(Kind::FAC2)
            .intra(Kind::GSS)
            .nodes(2)
            .workers_per_node(3)
            .build();
        let sim = s.simulate(&table);
        let live = s.run_live(&w);
        assert_eq!(sim.stats.total_iterations, 2_000);
        assert_eq!(live.stats.total_iterations, 2_000);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        HierSchedule::builder().nodes(0);
    }

    #[test]
    fn openmp_approach_runs() {
        let w = Synthetic::constant(500, 100);
        let table = CostTable::build(&w);
        let s = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::STATIC)
            .approach(Approach::MpiOpenMp)
            .nodes(2)
            .workers_per_node(4)
            .build();
        let r = s.simulate(&table);
        assert_eq!(r.stats.total_iterations, 500);
    }
}

//! Interleaving-exploration harness over the `hier` executors.
//!
//! One [`explore`] call sweeps a grid of `X+Y` technique pairs on one
//! [`Backend`], re-running each configuration under several schedule
//! variants, and for every run asserts two properties:
//!
//! 1. **RMA cleanliness** — the run's access log passes
//!    [`crate::check`] with zero violations (epoch discipline *and* no
//!    happens-before races);
//! 2. **Ledger exactness** — the executed sub-chunks are exactly a
//!    partition of `[0, n)`: every iteration scheduled once and only
//!    once, verified with [`dls::verify::check_exactly_once`].
//!
//! Schedule variants differ by backend. The virtual-time executors are
//! deterministic, so distinct interleavings are *constructed*: the
//! unperturbed baseline, N seeded jitter schedules
//! ([`Perturbation::Seeded`]), and the adversarial lock-handoff
//! reordering ([`Perturbation::AdversarialHandoff`]). The live
//! executors get their nondeterminism from the OS scheduler, so each
//! "schedule" is an independent run with a reseeded workload;
//! cleanliness there additionally proves the checksum against the
//! serial reference.

use crate::Report;
use cluster_sim::{MachineParams, SimTopology};
use hier::config::{Approach, GlobalQueueMode, HierSpec, NodeQueueMode};
use hier::live::{run_live, serial_checksum, LiveConfig};
use hier::queue::SubChunk;
use hier::sim::{simulate, Perturbation, SimConfig};
use std::borrow::Borrow;
use workloads::synthetic::Synthetic;
use workloads::CostTable;

/// Which executor a harness run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Virtual-time MPI+MPI (the paper's proposal).
    SimMpiMpi,
    /// Virtual-time MPI+OpenMP baseline.
    SimMpiOmp,
    /// Real-thread MPI+MPI over `mpisim` windows.
    LiveMpiMpi,
    /// Real-thread MPI+OpenMP over the persistent team.
    LiveMpiOmp,
}

impl Backend {
    /// All four backends, sim first.
    pub const ALL: [Backend; 4] =
        [Backend::SimMpiMpi, Backend::SimMpiOmp, Backend::LiveMpiMpi, Backend::LiveMpiOmp];

    /// The `hier` approach this backend runs.
    pub fn approach(self) -> Approach {
        match self {
            Backend::SimMpiMpi | Backend::LiveMpiMpi => Approach::MpiMpi,
            Backend::SimMpiOmp | Backend::LiveMpiOmp => Approach::MpiOpenMp,
        }
    }

    /// True for the virtual-time executors.
    pub fn is_sim(self) -> bool {
        matches!(self, Backend::SimMpiMpi | Backend::SimMpiOmp)
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            Backend::SimMpiMpi => "sim MPI+MPI",
            Backend::SimMpiOmp => "sim MPI+OpenMP",
            Backend::LiveMpiMpi => "live MPI+MPI",
            Backend::LiveMpiOmp => "live MPI+OpenMP",
        }
    }
}

/// The inter/intra kinds the exploration grid crosses.
pub const GRID_KINDS: [dls::Kind; 5] =
    [dls::Kind::STATIC, dls::Kind::SS, dls::Kind::GSS, dls::Kind::TSS, dls::Kind::FAC2];

/// The `X+Y` pairs explored on `backend`: the full 5×5 cross of
/// [`GRID_KINDS`] for MPI+MPI, restricted to OpenMP-expressible intra
/// techniques for the baseline (one of the paper's points is that the
/// rest exist *only* under MPI+MPI).
pub fn technique_pairs(backend: Backend) -> Vec<HierSpec> {
    let mut out = Vec::new();
    for inter in GRID_KINDS {
        for intra in GRID_KINDS {
            let spec = HierSpec::new(inter, intra);
            if backend.approach() == Approach::MpiOpenMp && !spec.supported_by_openmp() {
                continue;
            }
            out.push(spec);
        }
    }
    out
}

/// Exploration parameters. The defaults are sized so the full
/// four-backend sweep stays well inside a CI minute while still
/// exercising ≥8 seeded interleavings per technique pair.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Simulated compute nodes.
    pub nodes: u32,
    /// Workers (ranks or threads) per node.
    pub workers_per_node: u32,
    /// Loop size of the synthetic workload.
    pub n_iters: u64,
    /// Seeds for [`Perturbation::Seeded`] (sim) or workload reseeding
    /// (live); one run per seed per pair, and live MPI+MPI one per seed
    /// per pair per node queue.
    pub seeds: std::ops::Range<u64>,
    /// Upper bound on seeded jitter delays (virtual ns, sim only).
    pub max_jitter_ns: u64,
    /// Also run [`Perturbation::AdversarialHandoff`] (sim only).
    pub adversarial: bool,
    /// Global-queue realisation (MPI+MPI backends only).
    pub global_mode: GlobalQueueMode,
}

impl Default for Exploration {
    fn default() -> Self {
        Self {
            nodes: 2,
            workers_per_node: 3,
            n_iters: 240,
            seeds: 0..8,
            max_jitter_ns: 3000,
            adversarial: true,
            global_mode: GlobalQueueMode::SingleAtomic,
        }
    }
}

/// One property failure found during exploration.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Backend the failing run used.
    pub backend: Backend,
    /// Technique pair of the failing run.
    pub spec: HierSpec,
    /// Which schedule variant failed (e.g. `seed 3`, `adversarial`).
    pub schedule: String,
    /// What went wrong: rendered checker violations, a ledger
    /// partition error, or a runtime error from the executor.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} {} / {}] {}", self.backend.label(), self.spec, self.schedule, self.detail)
    }
}

/// Aggregate result of one [`explore`] sweep.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Executor runs performed.
    pub runs: usize,
    /// RMA records checked across all runs.
    pub records: usize,
    /// Property failures (empty for a correct protocol).
    pub findings: Vec<Finding>,
}

impl Summary {
    /// True when every run passed both properties.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} runs, {} RMA records, {} finding(s)\n",
            self.runs,
            self.records,
            self.findings.len()
        );
        for f in &self.findings {
            s.push_str(&format!("  {f}\n"));
        }
        s
    }

    /// Merge another summary into this one.
    pub fn absorb(&mut self, other: Summary) {
        self.runs += other.runs;
        self.records += other.records;
        self.findings.extend(other.findings);
    }
}

/// Verify a run's executed sub-chunk ledger is exactly a partition of
/// `[0, n)` (no lost or doubled iterations).
fn ledger_error<I>(executed: I, n: u64) -> Option<String>
where
    I: IntoIterator,
    I::Item: Borrow<(u32, SubChunk)>,
{
    hier::queue::exactly_once(executed, n).err().map(|e| format!("ledger not a partition: {e:?}"))
}

fn note(summary: &mut Summary, backend: Backend, spec: HierSpec, schedule: &str, detail: String) {
    summary.findings.push(Finding { backend, spec, schedule: schedule.to_string(), detail });
}

/// Check one run's artefacts (RMA log + ledger) into `summary`.
fn check_run<I>(
    summary: &mut Summary,
    backend: Backend,
    spec: HierSpec,
    schedule: &str,
    rma: &[mpisim::RmaRecord],
    executed: I,
    n: u64,
) where
    I: IntoIterator,
    I::Item: Borrow<(u32, SubChunk)>,
{
    summary.runs += 1;
    summary.records += rma.len();
    if rma.is_empty() {
        note(summary, backend, spec, schedule, "empty RMA log (recording broken?)".into());
    }
    let report: Report = crate::check(rma);
    if !report.is_clean() {
        note(summary, backend, spec, schedule, report.render());
    }
    if let Some(e) = ledger_error(executed, n) {
        note(summary, backend, spec, schedule, e);
    }
}

/// The sim-side schedule variants an [`Exploration`] requests.
fn sim_schedules(cfg: &Exploration) -> Vec<(String, Perturbation)> {
    let mut out = vec![("baseline".to_string(), Perturbation::None)];
    for seed in cfg.seeds.clone() {
        out.push((
            format!("seed {seed}"),
            Perturbation::Seeded { seed, max_ns: cfg.max_jitter_ns },
        ));
    }
    if cfg.adversarial {
        out.push(("adversarial".to_string(), Perturbation::AdversarialHandoff));
    }
    out
}

/// Sweep `backend` over its technique grid under every schedule variant
/// of `cfg`, collecting property failures.
pub fn explore(backend: Backend, cfg: &Exploration) -> Summary {
    let mut summary = Summary::default();
    if backend.is_sim() {
        let workload = Synthetic::uniform(cfg.n_iters, 1, 100, 7);
        let table = CostTable::build(&workload);
        let schedules = sim_schedules(cfg);
        for spec in technique_pairs(backend) {
            for (name, perturb) in &schedules {
                let mut sim = SimConfig::new(
                    SimTopology::new(cfg.nodes, cfg.workers_per_node),
                    MachineParams::default(),
                    spec,
                    backend.approach(),
                );
                sim.global_mode = cfg.global_mode;
                sim.record_chunks = true;
                sim.record_rma = true;
                sim.perturb = *perturb;
                let r = simulate(&sim, &table);
                check_run(&mut summary, backend, spec, name, &r.rma, &r.executed, cfg.n_iters);
            }
        }
    } else {
        // Live MPI+MPI runs take from the node queue lock-free by
        // default; every seed runs the paper's locked queue as well.
        let node_modes: &[NodeQueueMode] = match backend.approach() {
            Approach::MpiMpi => &[NodeQueueMode::Counter, NodeQueueMode::Locked],
            Approach::MpiOpenMp => &[NodeQueueMode::Counter],
        };
        let runs = cfg.seeds.clone().flat_map(|seed| node_modes.iter().map(move |&m| (seed, m)));
        for spec in technique_pairs(backend) {
            for (seed, node_mode) in runs.clone() {
                let schedule = match node_modes {
                    [_, _] => format!("seed {seed} {node_mode:?}"),
                    _ => format!("seed {seed}"),
                };
                let workload = Synthetic::uniform(cfg.n_iters, 1, 100, seed);
                let mut live =
                    LiveConfig::new(cfg.nodes, cfg.workers_per_node, spec, backend.approach());
                live.global_mode = cfg.global_mode;
                live.node_mode = node_mode;
                live.record_rma = true;
                match run_live(&live, &workload) {
                    Ok(r) => {
                        check_run(
                            &mut summary,
                            backend,
                            spec,
                            &schedule,
                            &r.rma,
                            &r.executed,
                            cfg.n_iters,
                        );
                        let want = serial_checksum(&workload);
                        if r.checksum != want {
                            note(
                                &mut summary,
                                backend,
                                spec,
                                &schedule,
                                format!("checksum {} != serial {}", r.checksum, want),
                            );
                        }
                    }
                    Err(e) => {
                        summary.runs += 1;
                        note(&mut summary, backend, spec, &schedule, format!("runtime error: {e}"));
                    }
                }
            }
        }
    }
    summary
}

/// [`explore`] every backend in [`Backend::ALL`] and merge the results.
pub fn explore_all(cfg: &Exploration) -> Summary {
    let mut summary = Summary::default();
    for backend in Backend::ALL {
        summary.absorb(explore(backend, cfg));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes_match_openmp_support() {
        assert_eq!(technique_pairs(Backend::SimMpiMpi).len(), 25);
        assert_eq!(technique_pairs(Backend::LiveMpiMpi).len(), 25);
        // OpenMP can express static, dynamic,1 (SS) and guided,1 (GSS).
        assert_eq!(technique_pairs(Backend::SimMpiOmp).len(), 15);
        assert_eq!(technique_pairs(Backend::LiveMpiOmp).len(), 15);
    }

    #[test]
    fn schedule_roster_counts() {
        let cfg = Exploration::default();
        let s = sim_schedules(&cfg);
        // Baseline + 8 seeds + adversarial.
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].1, Perturbation::None);
        assert_eq!(s[9].1, Perturbation::AdversarialHandoff);
    }

    #[test]
    fn ledger_checker_flags_gap_and_duplicate() {
        let lost = [(0, SubChunk { start: 0, end: 10 }), (1, SubChunk { start: 20, end: 40 })];
        assert!(ledger_error(lost, 40).is_some());
        let dup = [
            (0, SubChunk { start: 0, end: 20 }),
            (1, SubChunk { start: 10, end: 20 }),
            (0, SubChunk { start: 20, end: 40 }),
        ];
        assert!(ledger_error(dup, 40).is_some());
        let good = [(0, SubChunk { start: 20, end: 40 }), (1, SubChunk { start: 0, end: 20 })];
        assert!(ledger_error(good, 40).is_none());
    }
}

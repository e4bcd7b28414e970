//! Property tests for the hierarchical executors: for arbitrary
//! cluster shapes, technique combinations and workload profiles, every
//! iteration must execute exactly once on the virtual-time backend, and
//! the local queue must partition every deposit.

use cluster_sim::{MachineParams, SimTopology};
use dls::{Kind, Technique};
use hier::queue::{exactly_once, LocalQueue};
use hier::sim::{simulate, SimConfig};
use hier::{Approach, HierSpec};
use proptest::prelude::*;
use workloads::synthetic::Synthetic;
use workloads::{CostTable, Workload};

fn kind_strategy() -> impl Strategy<Value = Kind> {
    prop::sample::select(vec![Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sim_covers_exactly_once(
        inter in kind_strategy(),
        intra in kind_strategy(),
        nodes in 1u32..5,
        wpn in 1u32..6,
        n in 1u64..3_000,
        approach_mpi in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let w = Synthetic::uniform(n, 10, 500, seed);
        let table = CostTable::build(&w);
        let approach = if approach_mpi { Approach::MpiMpi } else { Approach::MpiOpenMp };
        let mut cfg = SimConfig::new(
            SimTopology::new(nodes, wpn),
            MachineParams::default(),
            HierSpec::new(inter, intra),
            approach,
        );
        cfg.record_chunks = true;
        let r = simulate(&cfg, &table);
        prop_assert_eq!(
            r.stats.total_iterations,
            n,
            "{}+{} {} {}x{}",
            inter,
            intra,
            approach,
            nodes,
            wpn
        );
        prop_assert!(exactly_once(&r.executed, n).is_ok());
    }

    #[test]
    fn sim_makespan_at_least_critical_path(
        nodes in 1u32..4,
        wpn in 1u32..5,
        n in 16u64..2_000,
        seed in any::<u64>(),
    ) {
        // Makespan can never undercut total work / total workers, nor
        // the most expensive single iteration.
        let w = Synthetic::exponential(n, 300.0, seed);
        let table = CostTable::build(&w);
        let total: u64 = (0..n).map(|i| w.cost(i)).sum();
        let max_iter = (0..n).map(|i| w.cost(i)).max().unwrap();
        let cfg = SimConfig::new(
            SimTopology::new(nodes, wpn),
            MachineParams::default(),
            HierSpec::new(Kind::GSS, Kind::GSS),
            Approach::MpiMpi,
        );
        let r = simulate(&cfg, &table);
        let workers = u64::from(nodes * wpn);
        prop_assert!(r.makespan >= total / workers);
        prop_assert!(r.makespan >= max_iter);
    }

    #[test]
    fn sim_is_deterministic(
        inter in kind_strategy(),
        intra in kind_strategy(),
        n in 1u64..1_000,
    ) {
        let w = Synthetic::uniform(n, 5, 100, 42);
        let table = CostTable::build(&w);
        let cfg = SimConfig::new(
            SimTopology::new(3, 3),
            MachineParams::default(),
            HierSpec::new(inter, intra),
            Approach::MpiMpi,
        );
        let a = simulate(&cfg, &table);
        let b = simulate(&cfg, &table);
        prop_assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn local_queue_partitions_any_deposits(
        ranges in prop::collection::vec((0u64..10_000u64, 1u64..500), 1..8),
        p in 1u32..17,
        kind in kind_strategy(),
    ) {
        let mut q = LocalQueue::new();
        let mut expected = Vec::new();
        let mut cursor = 0u64;
        for &(gap, len) in &ranges {
            let lo = cursor + gap;
            q.deposit(lo, lo + len);
            expected.extend(lo..lo + len);
            cursor = lo + len;
        }
        let t = Technique::from_kind(kind);
        let mut covered = Vec::new();
        while let Some(s) = q.take_sub_chunk(&t, p) {
            covered.extend(s.start..s.end);
        }
        prop_assert_eq!(covered, expected);
        prop_assert!(q.is_empty());
    }

    #[test]
    fn slowdown_never_speeds_things_up(
        n in 100u64..2_000,
        factor in 1.0f64..8.0,
    ) {
        let w = Synthetic::constant(n, 1_000);
        let table = CostTable::build(&w);
        let run = |slow: Vec<f64>| {
            let mut cfg = SimConfig::new(
                SimTopology::new(2, 2),
                MachineParams::default(),
                HierSpec::new(Kind::GSS, Kind::GSS),
                Approach::MpiMpi,
            );
            cfg.slowdown = slow;
            simulate(&cfg, &table).makespan
        };
        let baseline = run(vec![]);
        let slowed = run(vec![factor, 1.0, 1.0, 1.0]);
        prop_assert!(slowed >= baseline);
    }
}

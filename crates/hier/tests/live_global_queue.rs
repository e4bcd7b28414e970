//! The live executors' global queue has three realisations — an atomic
//! step counter, two lock-guarded counters, a `dls-service` job — and
//! every chunk boundary is a pure function of the two counters, so all
//! three must hand out the technique's one chunk sequence.

use dls::sequence::ChunkSequence;
use dls::{Kind, LoopSpec};
use dls_service::{Server, ServiceConfig};
use hier::live::{run_live_mpi_mpi, run_live_net, LiveConfig, LiveResult};
use hier::{Approach, GlobalQueueMode, HierSpec};
use workloads::synthetic::Synthetic;

#[test]
fn live_global_queue_realisations_share_one_chunk_sequence() {
    // One node, one rank: fetches happen in step order, and with intra
    // STATIC every deposit is executed as one sub-chunk, so `executed`
    // is the inter-level chunk sequence itself.
    let n = 200;
    let w = Synthetic::uniform(n, 1, 100, 3);
    let deposits = |r: LiveResult| -> Vec<(u64, u64)> {
        r.executed.iter().map(|(_, s)| (s.start, s.end)).collect()
    };
    for inter in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
        let spec = HierSpec::new(inter, Kind::STATIC);
        let expected: Vec<(u64, u64)> = ChunkSequence::new(&LoopSpec::new(n, 1), &spec.inter)
            .map(|c| (c.start, c.end()))
            .collect();
        let mut cfg = LiveConfig::new(1, 1, spec, Approach::MpiMpi);
        for mode in [GlobalQueueMode::SingleAtomic, GlobalQueueMode::LockedCounters] {
            cfg.global_mode = mode;
            let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
            assert_eq!(deposits(r), expected, "{inter} {mode:?}");
        }
        let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
        let r = run_live_net(&cfg, &w, srv.addr()).expect("net run");
        srv.shutdown();
        assert_eq!(deposits(r), expected, "{inter} service");
    }
}

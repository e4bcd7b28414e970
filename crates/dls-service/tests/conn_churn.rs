//! Connection churn leaves nothing behind: a closed connection's row
//! leaves `Stats` (and the server's map) with it; the lifetime sums stay
//! in `ServiceTotals`.

use dls_service::{Client, Server, ServiceConfig};
use std::time::{Duration, Instant};

const CYCLES: u64 = 2_000;

#[test]
fn stats_rows_follow_open_connections_not_lifetime_connections() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    for worker in 0..CYCLES {
        let mut c = Client::connect(srv.addr()).expect("connect");
        c.heartbeat(worker as u32).expect("heartbeat");
    }
    let mut asker = Client::connect(srv.addr()).expect("connect");
    // The server notices a close on its next readiness cycle.
    let deadline = Instant::now() + Duration::from_secs(30);
    let snap = loop {
        let snap = asker.stats().expect("stats");
        if snap.totals.conns_active == 1 {
            break snap;
        }
        assert!(Instant::now() < deadline, "closed connections were never retired");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(snap.totals.conns_total, CYCLES + 1);
    assert_eq!(snap.conns.len(), 1, "only the asking connection is open");
    assert!(snap.conns[0].open);
    drop(asker);
    srv.shutdown();
}

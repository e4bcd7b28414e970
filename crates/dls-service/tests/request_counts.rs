//! Requests at and past `MAX_ITEMS`, over real sockets to a server with
//! `ServiceConfig::default()`: `create_job` and `report_done` refuse one
//! item more than `MAX_ITEMS` before sending anything, and a request of
//! exactly `MAX_ITEMS` fits the default frame and is served.

use dls_service::protocol::MAX_ITEMS;
use dls_service::{Client, ClientError, FetchReply, Server, ServiceConfig};

fn start() -> Server {
    Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind")
}

#[test]
fn create_job_refuses_more_weights_than_a_request_carries() {
    let srv = start();
    let mut c = Client::connect(srv.addr()).expect("connect");
    let weights = vec![1.0; MAX_ITEMS + 1];
    match c.create_job(100, dls::Kind::WF, &weights) {
        Err(ClientError::TooMany { what: "weights", count }) => assert_eq!(count, MAX_ITEMS + 1),
        other => panic!("expected TooMany, got {other:?}"),
    }
    // Nothing reached the server, and the connection still serves.
    assert!(c.stats().expect("stats").jobs.is_empty());
    c.create_job(100, dls::Kind::WF, &weights[..MAX_ITEMS]).expect("MAX_ITEMS weights");
    srv.shutdown();
}

#[test]
fn report_done_refuses_more_leases_than_a_request_carries() {
    let srv = start();
    let mut c = Client::connect(srv.addr()).expect("connect");
    // SS: one iteration per lease. The default quota is per worker, so
    // the leases are fetched under as many workers as it takes.
    let n = MAX_ITEMS as u64 + 1;
    let job = c.create_job(n, dls::Kind::SS, &[]).expect("create");
    let mut leases = Vec::new();
    for worker in 0.. {
        match c.fetch(job, worker, 64).expect("fetch") {
            FetchReply::Chunks(chunks) => leases.extend(chunks.iter().map(|g| g.lease)),
            FetchReply::Done => break,
            FetchReply::Pending => {}
        }
        if leases.len() as u64 == n {
            break;
        }
    }
    assert_eq!(leases.len() as u64, n);
    match c.report_done(job, &leases) {
        Err(ClientError::TooMany { what: "leases", count }) => assert_eq!(count, MAX_ITEMS + 1),
        other => panic!("expected TooMany, got {other:?}"),
    }
    // Nothing was settled; MAX_ITEMS leases fit one request, the last
    // one another.
    let completed = |c: &mut Client| {
        let jobs = c.stats().expect("stats").jobs;
        let row = jobs.into_iter().find(|j| j.job == job).expect("job row");
        (row.completed, row.done)
    };
    assert_eq!(completed(&mut c), (0, false));
    c.report_done(job, &leases[..MAX_ITEMS]).expect("MAX_ITEMS leases");
    c.report_done(job, &leases[MAX_ITEMS..]).expect("the last lease");
    assert_eq!(completed(&mut c), (n, true));
    srv.shutdown();
}

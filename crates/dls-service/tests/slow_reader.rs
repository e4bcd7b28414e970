//! A client that pipelines requests and never reads its replies is
//! held back by TCP: once a connection's unflushed replies pass the
//! event loop's transmit cap, the server stops reading it, so the
//! client's writes block instead of the server buffering every reply.
//! Alone in its file: the memory bound is read off this process's RSS,
//! which an in-process server shares with its test binary.

use dls_service::protocol::{frame, Request, Response};
use dls_service::{Server, ServiceConfig};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Requests per write burst.
const BATCH: usize = 10_000;

/// How far the process's RSS may grow while the client writes: about
/// the 1 MiB transmit cap, the receive buffer and the socket buffers.
/// 1.75–2.35 MB was measured; a server that answered every request it
/// had read in one cycle, up to 1 MiB of them, grew 11.3–38.5 MB.
const GROWTH_LIMIT_KB: u64 = 4 * 1024;

fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmRSS value")
}

#[test]
fn a_client_that_never_reads_blocks_before_the_server_buffers_its_replies() {
    let cfg = ServiceConfig { event_loops: 1, ..Default::default() };
    let srv = Server::start(cfg, "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(srv.addr()).expect("connect");
    stream.set_write_timeout(Some(Duration::from_millis(500))).expect("write timeout");
    let one = frame(&Request::Stats.encode());
    let batch = one.repeat(BATCH);

    // Write bursts without reading until a write blocks, failing as
    // soon as the server's buffers have grown past the limit.
    let base = rss_kb();
    let mut written = 0usize;
    'bursts: loop {
        let mut off = 0;
        while off < batch.len() {
            match stream.write(&batch[off..]) {
                Ok(k) => (off, written) = (off + k, written + k),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    break 'bursts;
                }
                Err(e) => panic!("write after {written} bytes: {e}"),
            }
        }
        let grown = rss_kb().saturating_sub(base);
        assert!(
            grown < GROWTH_LIMIT_KB,
            "RSS grew by {grown} kB over {} unread requests: the server buffers every reply",
            written / one.len()
        );
    }

    // Finish the frame the blocked write cut, then read exactly one
    // reply per request written.
    let requests = written.div_ceil(one.len());
    let cut = written % one.len();
    let tail = if cut > 0 { one[cut..].to_vec() } else { Vec::new() };
    let mut writer = stream.try_clone().expect("clone");
    writer.set_write_timeout(None).expect("blocking writes");
    let finish = std::thread::spawn(move || writer.write_all(&tail).expect("finish the cut frame"));
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    for i in 0..requests {
        let mut len = [0u8; 4];
        replies.read_exact(&mut len).unwrap_or_else(|e| panic!("reply {i} of {requests}: {e}"));
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        replies.read_exact(&mut payload).expect("reply payload");
        match Response::decode(&payload) {
            Ok(Response::Snapshot(_)) => {}
            other => panic!("reply {i}: expected a Stats snapshot, got {other:?}"),
        }
    }
    finish.join().expect("writer thread");
    stream.set_read_timeout(Some(Duration::from_millis(200))).expect("read timeout");
    let mut extra = [0u8; 1];
    match replies.read(&mut extra) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a reply past the {requests} requests written: {other:?}"),
    }
    srv.shutdown();
}

//! The sharded readiness loop — the server's connection engine.
//!
//! `Server::start` spawns `ServiceConfig::event_loops` loop shards.
//! Each shard owns a clone of the accept socket (its share of the
//! accept load: level-triggered readiness wakes every shard, the
//! kernel hands each pending connection to exactly one `accept`
//! winner, the rest see `WouldBlock`), an epoll instance, and a slab
//! of per-connection state machines ([`crate::machine::ConnMachine`]).
//! No thread is ever spawned per connection; a shard serves thousands
//! of sockets from one thread.
//!
//! One readiness **cycle** is three passes:
//!
//! 1. *Ingest*: accept new connections (admission is a single
//!    `fetch_update` CAS on the active-connection counter — the old
//!    check-then-act race cannot overshoot `max_connections`) and read
//!    every ready socket into its receive buffer.
//! 2. *Serve*: answer each ready connection's complete frames in
//!    arrival order, decoded in place from its receive buffer, each
//!    reply framed in place at the end of its write buffer, until none
//!    is left or its unflushed replies pass [`TX_SOFT_CAP`]. The pass
//!    holds one job-table shard guard ([`crate::server::Held`]) from
//!    request to request — reports, fetches, creates and resumes
//!    alike — and trades it only when a request names a job of another
//!    shard (or `Stats` wants them all), so a worker's `ReportDone` +
//!    `FetchChunk` pair, or a whole burst of them against one job,
//!    locks its shard once per cycle instead of once per request
//!    (wakeup-free batching: no condvars, no cross-thread handoff).
//!    Every count a request moves is kept once, in its job's row or
//!    its connection's row; `Stats` sums the rows.
//! 3. *Flush*: write each touched connection's queued responses with
//!    non-blocking writes, arming `EPOLLOUT` only while a partial
//!    write is outstanding or a complete frame waits (below), then retire connections that died or
//!    were poisoned by a framing violation, and publish the touched
//!    connections' rows. A cycle whose journal commit failed does not
//!    flush: it closes its connections with the replies unwritten
//!    (journal-before-ack, fail-stop).
//!
//! A connection the cap stopped with a complete frame still buffered
//! stays polled for writability even once its replies are flushed:
//! readiness is level-triggered, so a writable socket reports ready on
//! every wait and the frame is served next cycle. Above the cap it is
//! polled for writability only, so a client that never reads costs no
//! spin.
//!
//! Rejected connections (`Busy`) get one best-effort non-blocking
//! write and an immediate close — a client that never reads can no
//! longer stall the accept path (the old blocking `write_all` could).
//!
//! During a drain the shard stops accepting, keeps answering buffered
//! requests, closes connections once they go quiet, and gives a
//! half-received frame [`DRAIN_GRACE_CYCLES`] cycles to complete
//! (the old core could wait on such a connection forever).

use crate::machine::ConnMachine;
use crate::poller::{Event, Interest, Poller};
use crate::protocol::{DecodeError, ErrorCode, Request, Response, MAX_FRAME, VERSION};
use crate::ring::{FramePeek, READ_CHUNK};
use crate::server::{Held, Peer, State};
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readiness-poll tick: bounds drain latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Token reserved for the shard's accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Receive-side flow control: stop reading a connection within a cycle
/// once this many bytes are buffered (TCP backpressure takes over).
const RX_SOFT_CAP: usize = 1 << 20;

/// Transmit-side flow control: while a connection's unflushed replies
/// pass this many bytes, it is neither read nor served, and it is
/// polled for writability only. A client that pipelines requests and
/// never reads its replies then fills its own socket buffers and
/// blocks, instead of the server buffering every reply. The cap is
/// soft by one reply: it is checked before each request is served.
const TX_SOFT_CAP: usize = 1 << 20;

/// Readiness cycles a draining shard grants a connection that holds a
/// half-received frame before closing it anyway.
const DRAIN_GRACE_CYCLES: u32 = 5;

struct ConnEntry {
    peer: Peer,
    stream: TcpStream,
    machine: ConnMachine,
    interest: Interest,
    /// Read side saw EOF or a hard error: retire after this cycle.
    dead: bool,
    /// The transmit cap stopped this cycle's serve with a complete
    /// frame still buffered.
    frame_waiting: bool,
}

pub(crate) struct LoopShard {
    state: Arc<State>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    live: usize,
    events: Vec<Event>,
    touched: Vec<usize>,
}

impl LoopShard {
    pub(crate) fn new(listener: TcpListener, state: Arc<State>) -> std::io::Result<LoopShard> {
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(LoopShard {
            state,
            poller,
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            events: Vec::new(),
            touched: Vec::new(),
        })
    }

    /// Run until the drain completes.
    pub(crate) fn run(&mut self) {
        loop {
            let draining = self.state.shutdown.load(Ordering::SeqCst);
            if draining {
                if let Some(listener) = self.listener.take() {
                    self.poller.deregister(listener.as_raw_fd());
                }
            }
            if self.poller.wait(&mut self.events, POLL_INTERVAL).is_err() {
                // A failed wait is unrecoverable for this shard only if
                // it repeats; yield briefly and retry.
                std::thread::yield_now();
                continue;
            }

            self.touched.clear();

            // ---- pass 1: ingest -------------------------------------------
            for i in 0..self.events.len() {
                let ev = self.events[i];
                if ev.token == LISTENER_TOKEN {
                    if !draining {
                        self.accept_burst();
                    }
                    continue;
                }
                let slot = ev.token as usize;
                if self.conns.get(slot).is_none_or(|c| c.is_none()) {
                    continue; // stale event for a retired connection
                }
                // Level-triggered readiness: reading a write-only-ready
                // connection just costs one `WouldBlock`, so every event
                // is treated uniformly (read, serve, flush via `touched`).
                self.read_conn(slot);
                self.touched.push(slot);
            }
            self.touched.sort_unstable();
            self.touched.dedup();

            // ---- pass 2: serve --------------------------------------------
            self.serve_cycle();

            // ---- journal barrier ------------------------------------------
            // Group-commit the cycle's journal records *before* any
            // response bytes hit a socket: an ack the client can see
            // implies the matching Settled/Granted record is durable.
            // (Grant-side loss is additionally fenced by the epoch
            // bump on restart.)
            if self.state.journal_commit() {
                // ---- pass 3: flush & retire -------------------------------
                for i in 0..self.touched.len() {
                    let slot = self.touched[i];
                    self.flush_conn(slot);
                }
            } else {
                // Fail-stop: queued replies may acknowledge records
                // that never reached the file. Close every connection
                // with its replies unwritten — a closed socket is the
                // protocol's "ambiguous" outcome, which clients
                // already handle; a wrong `Ack` is not. The failed
                // commit requested the drain that ends this loop.
                for slot in 0..self.conns.len() {
                    self.close_conn(slot);
                }
            }
            if draining {
                self.drain_pass();
            }
            self.publish();

            if draining && self.live == 0 && self.listener.is_none() {
                break;
            }
        }
    }

    // ---- accept path ----------------------------------------------------

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let state = &self.state;
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        if !state.admit_conn() {
            // Best-effort rejection: one non-blocking write, then
            // close. A rejected client that never reads cannot stall
            // admission.
            let resp = Response::Error {
                code: ErrorCode::Busy,
                detail: format!("connection limit {} reached", state.cfg.max_connections),
            };
            let mut stream = stream;
            let mut reply = Vec::new();
            resp.frame_into(&mut reply);
            let _ = stream.write(&reply);
            let _ = stream.shutdown(SockShutdown::Both);
            return;
        }
        let id = state.next_conn.fetch_add(1, Ordering::SeqCst);

        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self.poller.register(stream.as_raw_fd(), slot as u64, Interest::READ).is_err() {
            self.free.push(slot);
            state.conns_active.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let peer = Peer::new(id);
        if let Ok(mut rows) = state.conn_stats.lock() {
            rows.open.insert(id, peer.stat.clone());
        }
        self.conns[slot] = Some(ConnEntry {
            peer,
            stream,
            machine: ConnMachine::default(),
            interest: Interest::READ,
            dead: false,
            frame_waiting: false,
        });
        self.live += 1;
        self.touched.push(slot);
    }

    // ---- receive path ----------------------------------------------------

    fn read_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns[slot].as_mut() else { return };
        // Past the transmit cap the connection is not read, so TCP holds
        // its client back; the socket's own writability wakes it once
        // its replies drain.
        if entry.machine.tx.len() > TX_SOFT_CAP {
            return;
        }
        while entry.machine.rx.len() <= RX_SOFT_CAP {
            match entry.machine.rx.read_from(&mut entry.stream) {
                Ok(0) => {
                    entry.dead = true;
                    break;
                }
                Ok(k) => {
                    entry.machine.idle_cycles = 0;
                    // A short read emptied the socket: asking again
                    // would buy one `WouldBlock`. Should bytes land in
                    // between, level-triggered readiness reports them
                    // next cycle.
                    if k < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    entry.dead = true;
                    break;
                }
            }
        }
    }

    // ---- serve path ------------------------------------------------------

    /// Serve every touched connection under one shard guard, held for as
    /// long as consecutive requests stay on a shard.
    fn serve_cycle(&mut self) {
        let state = Arc::clone(&self.state);
        let mut held = None;
        for &slot in &self.touched {
            let Some(entry) = self.conns[slot].as_mut() else { continue };
            entry.frame_waiting = serve_conn(&state, entry, &mut held);
        }
    }

    // ---- flush & lifecycle ----------------------------------------------

    fn flush_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns[slot].as_mut() else { return };
        let tx = &mut entry.machine.tx;
        while !tx.is_empty() && !entry.dead {
            match entry.stream.write(tx.as_slice()) {
                Ok(0) => entry.dead = true,
                Ok(k) => tx.consume(k),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => entry.dead = true,
            }
        }
        if entry.dead || (entry.machine.close_after_flush && tx.is_empty()) {
            self.close_conn(slot);
            return;
        }
        // A waiting frame keeps the socket polled for writability, which
        // wakes the next cycle to serve it.
        let want = match tx.len() {
            0 if !entry.frame_waiting => Interest::READ,
            0..=TX_SOFT_CAP => Interest::READ_WRITE,
            _ => Interest::WRITE,
        };
        if want != entry.interest {
            let fd: RawFd = entry.stream.as_raw_fd();
            if self.poller.reregister(fd, slot as u64, want).is_ok() {
                if let Some(entry) = self.conns[slot].as_mut() {
                    entry.interest = want;
                }
            }
        }
    }

    /// During a drain: close connections that have gone quiet, and
    /// bound how long a half-received frame may hold its connection. A
    /// frame still waiting to be served is not quiet.
    fn drain_pass(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(entry) = self.conns[slot].as_mut() else { continue };
            let m = &mut entry.machine;
            m.idle_cycles = m.idle_cycles.saturating_add(1);
            let quiet = m.tx.is_empty() && m.rx.is_empty();
            if quiet || m.idle_cycles > DRAIN_GRACE_CYCLES {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns[slot].take() else { return };
        self.poller.deregister(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(SockShutdown::Both);
        // Reclaims this connection's unsettled leases exactly once and
        // releases its admission slot.
        self.state.disconnect(&entry.peer);
        // Then the row goes with the connection and its bytes into the
        // closed sums, so `Stats` lists the open connections, not every
        // connection ever accepted, and counts a connection open until
        // its leases are reclaimed. The live row, not the published
        // one: this cycle's reads and replies are not published yet.
        if let Ok(mut rows) = self.state.conn_stats.lock() {
            rows.close(&entry.peer.stat);
        }
        self.free.push(slot);
        self.live -= 1;
    }

    /// Publish the touched connections' stat rows under one lock — work
    /// in proportion to the sockets that were ready, not to the sockets
    /// that are open.
    fn publish(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        if let Ok(mut rows) = self.state.conn_stats.lock() {
            for &slot in &self.touched {
                if let Some(entry) = &self.conns[slot] {
                    rows.open.insert(entry.peer.id, entry.peer.stat.clone());
                }
            }
        }
    }
}

/// Answer `entry`'s complete frames in arrival order until none is
/// left, a framing violation poisons the stream, or the unflushed
/// replies pass [`TX_SOFT_CAP`]. Returns whether the cap left a
/// complete frame waiting.
fn serve_conn<'a>(state: &'a State, entry: &mut ConnEntry, held: &mut Held<'a>) -> bool {
    let m = &mut entry.machine;
    while !m.close_after_flush {
        let request = match m.rx.peek_frame(MAX_FRAME) {
            FramePeek::Incomplete => return false,
            _ if m.tx.len() > TX_SOFT_CAP => return true,
            FramePeek::BadLength(len) => {
                // The stream cannot be resynchronised: answer, then
                // close once flushed. Nothing is consumed.
                m.close_after_flush = true;
                let detail = format!("frame length {len} outside 1..={MAX_FRAME}");
                Err(Response::Error { code: ErrorCode::FrameTooLarge, detail })
            }
            FramePeek::Payload(payload) => {
                let decoded = Request::decode(payload);
                entry.peer.stat.bytes_in += m.rx.consume_frame() as u64;
                match decoded {
                    Ok(req) => Ok(req),
                    Err(DecodeError::Version(v)) => {
                        // A foreign version poisons the rest of the
                        // stream (framing may differ): close after the
                        // typed answer.
                        m.close_after_flush = true;
                        let detail = format!("version {v}, this server speaks {VERSION}");
                        Err(Response::Error { code: ErrorCode::BadVersion, detail })
                    }
                    Err(e) => {
                        Err(Response::Error { code: ErrorCode::BadMessage, detail: e.to_string() })
                    }
                }
            }
        };
        let tx = m.tx.tail();
        let queued = tx.len();
        match request {
            Ok(req) => state.handle(req, &mut entry.peer, held, tx),
            Err(resp) => resp.frame_into(tx),
        }
        entry.peer.stat.requests += 1;
        entry.peer.stat.bytes_out += (tx.len() - queued) as u64;
        m.idle_cycles = 0;
    }
    false
}

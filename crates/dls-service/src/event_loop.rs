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
//!    check-then-act race cannot overshoot `max_connections`), read
//!    every ready socket into its ring buffer, and extract decoded
//!    requests in arrival order.
//! 2. *Serve*: answer the whole cycle's requests in one pass, each
//!    reply framed in place at the end of its connection's write
//!    buffer. The pass holds one job-table shard guard
//!    ([`crate::server::Held`]) from request to request — reports,
//!    fetches, creates and resumes alike — and trades it only when a
//!    request names a job of another shard (or `Stats` wants them all),
//!    so a worker's `ReportDone` + `FetchChunk` pair, or a whole burst
//!    of them against one job, locks its shard once per cycle instead
//!    of once per request (wakeup-free batching: no condvars, no
//!    cross-thread handoff). Global stat counters are accumulated
//!    locally and flushed with one atomic add per counter per cycle.
//! 3. *Flush*: write each touched connection's queued responses with
//!    non-blocking writes, arming `EPOLLOUT` only while a partial
//!    write is outstanding, then retire connections that died or
//!    were poisoned by a framing violation. A cycle whose journal
//!    commit failed does not flush: it closes its connections with
//!    the replies unwritten (journal-before-ack, fail-stop).
//!
//! Rejected connections (`Busy`) get one best-effort non-blocking
//! write and an immediate close — a client that never reads can no
//! longer stall the accept path (the old blocking `write_all` could).
//!
//! During a drain the shard stops accepting, keeps answering buffered
//! requests, closes connections once they go quiet, and gives a
//! half-received frame [`DRAIN_GRACE_CYCLES`] cycles to complete
//! (the old core could wait on such a connection forever).

use crate::machine::{ConnMachine, FramePeek};
use crate::poller::{Event, Interest, Poller};
use crate::protocol::{ErrorCode, Request, Response, VERSION};
use crate::ring::READ_CHUNK;
use crate::server::{CycleTally, Peer, State};
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

/// Token reserved for the shard's accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Receive-side flow control: stop reading a connection within a cycle
/// once this many bytes are buffered (TCP backpressure takes over).
const RX_SOFT_CAP: usize = 1 << 20;

/// Readiness cycles a draining shard grants a connection that holds a
/// half-received frame before closing it anyway.
const DRAIN_GRACE_CYCLES: u32 = 5;

/// One decoded unit of work, queued in arrival order so responses on a
/// connection always match its request order (pipelining-safe).
enum OpKind {
    /// A well-formed request — served through `State::handle`.
    Request(Request),
    /// A pre-computed response (decode errors); `close` poisons the
    /// connection once flushed.
    Reply { resp: Response, close: bool },
}

struct ConnEntry {
    peer: Peer,
    stream: TcpStream,
    machine: ConnMachine,
    interest: Interest,
    /// Read side saw EOF or a hard error: retire after this cycle.
    dead: bool,
}

pub(crate) struct LoopShard {
    state: Arc<State>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    live: usize,
    events: Vec<Event>,
    ops: Vec<(usize, OpKind)>,
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
            ops: Vec::new(),
            touched: Vec::new(),
        })
    }

    /// Run until the drain completes.
    pub(crate) fn run(&mut self) {
        let poll_interval = self.state.cfg.poll_interval;
        loop {
            let draining = self.state.shutdown.load(Ordering::SeqCst);
            if draining {
                if let Some(listener) = self.listener.take() {
                    self.poller.deregister(listener.as_raw_fd());
                }
            }
            if self.poller.wait(&mut self.events, poll_interval).is_err() {
                // A failed wait is unrecoverable for this shard only if
                // it repeats; yield briefly and retry.
                std::thread::yield_now();
                continue;
            }

            let mut tally = CycleTally::default();
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
                // is treated uniformly (read, then flush via `touched`).
                self.read_conn(slot, &mut tally);
                self.touched.push(slot);
            }

            // ---- pass 2: serve --------------------------------------------
            self.serve_cycle(&mut tally);

            // ---- journal barrier ------------------------------------------
            // Group-commit the cycle's journal records *before* any
            // response bytes hit a socket: an ack the client can see
            // implies the matching Settled/Granted record is durable.
            // (Grant-side loss is additionally fenced by the epoch
            // bump on restart.)
            self.touched.sort_unstable();
            self.touched.dedup();
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
            self.commit(&tally);

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
        let max = u64::from(state.cfg.max_connections);
        // Admission is one CAS: concurrent accepts across shards can
        // never push the active count past the limit (the old
        // load-then-increment let them).
        let admitted = state
            .conns_active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| (c < max).then_some(c + 1));
        let prev = match admitted {
            Ok(prev) => prev,
            Err(_) => {
                // Best-effort rejection: one non-blocking write, then
                // close. A rejected client that never reads cannot
                // stall admission.
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
        };
        // Relaxed is enough for both: `fetch_max` is an RMW, so it
        // compares against the *latest* peak in modification order and
        // can never lose a concurrent maximum (a load/compare/store
        // version could — both seeded and caught by the conc-check
        // `LoadStorePeak` model). `conns_total` is a pure stat counter.
        state.conns_peak.fetch_max(prev + 1, Ordering::Relaxed);
        state.conns_total.fetch_add(1, Ordering::Relaxed);
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
        if let Ok(mut stats) = state.conn_stats.lock() {
            stats.insert(id, peer.stat.clone());
        }
        self.conns[slot] = Some(ConnEntry {
            peer,
            stream,
            machine: ConnMachine::new(),
            interest: Interest::READ,
            dead: false,
        });
        self.live += 1;
        self.touched.push(slot);
    }

    // ---- receive path ----------------------------------------------------

    fn read_conn(&mut self, slot: usize, tally: &mut CycleTally) {
        let Some(entry) = self.conns[slot].as_mut() else { return };
        loop {
            if entry.machine.rx_len() > RX_SOFT_CAP {
                break;
            }
            match entry.machine.rx_mut().read_from(&mut entry.stream) {
                Ok(0) => {
                    entry.dead = true;
                    break;
                }
                Ok(k) => {
                    tally.bytes_in += k as u64;
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
        // Extract every complete frame, preserving arrival order.
        while !entry.machine.close_after_flush {
            let op = match entry.machine.peek_frame(self.state.cfg.max_frame) {
                FramePeek::Incomplete => break,
                FramePeek::BadLength(len) => {
                    // The stream cannot be resynchronised: answer, then
                    // close once flushed. Nothing is consumed.
                    entry.machine.close_after_flush = true;
                    let resp = Response::Error {
                        code: ErrorCode::FrameTooLarge,
                        detail: format!(
                            "frame length {len} outside 1..={}",
                            self.state.cfg.max_frame
                        ),
                    };
                    self.ops.push((slot, OpKind::Reply { resp, close: true }));
                    break;
                }
                FramePeek::Payload(payload) => match Request::decode(payload) {
                    Ok(req) => OpKind::Request(req),
                    Err(crate::protocol::DecodeError::Version(v)) => {
                        // A foreign version poisons the rest of the
                        // stream (framing may differ): close after the
                        // typed answer.
                        entry.machine.close_after_flush = true;
                        OpKind::Reply {
                            resp: Response::Error {
                                code: ErrorCode::BadVersion,
                                detail: format!("version {v}, this server speaks {VERSION}"),
                            },
                            close: true,
                        }
                    }
                    Err(e) => OpKind::Reply {
                        resp: Response::Error {
                            code: ErrorCode::BadMessage,
                            detail: e.to_string(),
                        },
                        close: false,
                    },
                },
            };
            let wire = entry.machine.consume_frame();
            entry.peer.stat.bytes_in += wire as u64;
            self.ops.push((slot, op));
        }
    }

    // ---- serve path ------------------------------------------------------

    /// Answer the cycle's requests in arrival order, under one held
    /// shard guard for as long as consecutive requests stay on a shard.
    fn serve_cycle(&mut self, tally: &mut CycleTally) {
        let state = Arc::clone(&self.state);
        let mut held = None;
        let mut ops = std::mem::take(&mut self.ops);
        for (slot, op) in ops.drain(..) {
            let Some(entry) = self.conns[slot].as_mut() else { continue };
            let tx = entry.machine.tx_mut();
            let queued = tx.len();
            let close = match op {
                OpKind::Request(req) => {
                    state.handle(req, &mut entry.peer, &mut held, tally, tx);
                    false
                }
                OpKind::Reply { resp, close } => {
                    resp.frame_into(tx);
                    close
                }
            };
            let wire = (tx.len() - queued) as u64;
            entry.machine.close_after_flush |= close;
            entry.peer.stat.requests += 1;
            entry.peer.stat.bytes_out += wire;
            tally.bytes_out += wire;
            self.touched.push(slot);
        }
        self.ops = ops; // keep the allocation for the next cycle
    }

    // ---- flush & lifecycle ----------------------------------------------

    fn flush_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns[slot].as_mut() else { return };
        while !entry.machine.tx_is_empty() && !entry.dead {
            match entry.stream.write(entry.machine.tx_pending()) {
                Ok(0) => entry.dead = true,
                Ok(k) => entry.machine.tx_advance(k),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => entry.dead = true,
            }
        }
        if entry.dead || (entry.machine.close_after_flush && entry.machine.tx_is_empty()) {
            self.close_conn(slot);
            return;
        }
        let want = if entry.machine.tx_is_empty() { Interest::READ } else { Interest::READ_WRITE };
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
    /// bound how long a half-received frame may hold its connection.
    fn drain_pass(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(entry) = self.conns[slot].as_mut() else { continue };
            entry.machine.idle_cycles = entry.machine.idle_cycles.saturating_add(1);
            let quiet = entry.machine.tx_is_empty() && entry.machine.rx_len() == 0;
            if quiet || entry.machine.idle_cycles > DRAIN_GRACE_CYCLES {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns[slot].take() else { return };
        self.poller.deregister(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(SockShutdown::Both);
        // The row goes with the connection — `ServiceTotals` keeps the
        // lifetime sums — so `Stats` and this map follow the open
        // connections, not every connection ever accepted.
        if let Ok(mut stats) = self.state.conn_stats.lock() {
            stats.remove(&entry.peer.id);
        }
        // Reclaims this connection's unsettled leases exactly once and
        // releases its admission slot.
        self.state.disconnect(&entry.peer);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Apply the cycle's counter deltas (one atomic add per counter)
    /// and publish the touched connections' stat rows under one lock —
    /// work in proportion to the sockets that were ready, not to the
    /// sockets that are open.
    fn commit(&mut self, tally: &CycleTally) {
        self.state.commit(tally);
        if self.touched.is_empty() {
            return;
        }
        if let Ok(mut stats) = self.state.conn_stats.lock() {
            for &slot in &self.touched {
                if let Some(entry) = &self.conns[slot] {
                    stats.insert(entry.peer.id, entry.peer.stat.clone());
                }
            }
        }
    }
}

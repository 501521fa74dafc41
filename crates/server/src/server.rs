//! The threaded accept loop and per-connection protocol state machine.
//!
//! One OS thread accepts connections; each connection gets a *reader*
//! thread and an *executor* loop. The reader parses frames and enqueues
//! requests — except `Cancel`, which bypasses the queue and flips the
//! in-flight query's cancel flag immediately (that is the whole point of
//! cancellation), and requests beyond the per-session pipelining cap,
//! which are refused at the door with a typed `ServerBusy` before they
//! cost anything. The executor drains the queue FIFO, takes an admission
//! permit per statement, runs it through [`VectorH::query_logical_ctl`]
//! (failover retries absorbed inside), and streams result batches back.
//!
//! Every refusal and failure is a typed [`FrameKind::ErrorFrame`]; the
//! connection is never dropped in anger — only `Goodbye` or a broken
//! socket ends it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use vectorh::{LogicalPlan, QueryCtl, VectorH};
use vectorh_common::channel::{bounded, Receiver, Sender};
use vectorh_common::sync::Mutex;
use vectorh_common::{Result, VhError};
use vectorh_net::ServerStats;
use vectorh_transport::frame::{read_frame, write_frame, DecodeError, Frame, FrameKind};

use crate::admission::{AdmissionConfig, Gate};
use crate::session::Session;
use crate::wire;

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    pub admission: AdmissionConfig,
    /// Result rows per `RowBatch` frame.
    pub batch_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig::default(),
            batch_rows: 1024,
        }
    }
}

/// A running front door. Dropping it (or calling [`Server::stop`]) stops
/// accepting; established sessions run until their clients disconnect.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// One queued request, parsed by the reader thread.
enum Req {
    Query { req_id: u32, sql: String },
    Prepare { req_id: u32, sql: String },
    Execute { req_id: u32, stmt: u64 },
    Goodbye,
}

impl Server {
    /// Bind and start serving `vh` on `cfg.addr`.
    pub fn start(vh: Arc<VectorH>, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| VhError::Net(format!("server bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| VhError::Net(format!("server local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Gate::new(cfg.admission.clone()));
        let next_session = Arc::new(AtomicU64::new(1));
        let accept = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let vh = vh.clone();
                    let gate = gate.clone();
                    let cfg = cfg.clone();
                    let session_id = next_session.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        // A connection failing its handshake or dying is
                        // its own problem; the accept loop keeps serving.
                        let _ = handle_conn(vh, gate, cfg, stream, session_id);
                    });
                }
            })
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections (idempotent).
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Build a response frame. `channel` carries the request id the response
/// answers; `epoch` carries the engine's current master epoch so clients
/// can watch failovers move the fencing epoch.
fn resp(kind: FrameKind, req_id: u32, seq: u64, epoch: u64, payload: Vec<u8>) -> Frame {
    Frame {
        kind,
        from: 0,
        channel: req_id,
        seq,
        epoch,
        payload,
    }
}

struct ConnShared {
    vh: Arc<VectorH>,
    stats: Arc<ServerStats>,
    session: Arc<Session>,
    writer: Mutex<TcpStream>,
    seq: AtomicU64,
}

impl ConnShared {
    fn send(&self, kind: FrameKind, req_id: u32, payload: Vec<u8>) -> Result<()> {
        let frame = resp(
            kind,
            req_id,
            self.seq.fetch_add(1, Ordering::Relaxed),
            self.vh.master_epoch(),
            payload,
        );
        write_frame(&mut *self.writer.lock(), &frame, None)
    }

    fn send_error(&self, req_id: u32, err: &VhError, retry_after_ms: u32) -> Result<()> {
        self.send(
            FrameKind::ErrorFrame,
            req_id,
            wire::encode_error(err, retry_after_ms),
        )
    }
}

/// An admitted request's pipelining slot on its session. It is given back
/// *before* the request's terminal frame (`Done`, `Prepared`, `Error`) is
/// written — `slot.release().send(..)` — so a client that sends its next
/// request on reading that frame never finds its previous request still
/// counted against the cap. Dropping the slot on any other way out
/// releases it too.
struct Slot<'a>(&'a ConnShared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.session.release_inflight();
    }
}

impl<'a> Slot<'a> {
    /// Give the slot back; what remains is the connection to answer on.
    fn release(self) -> &'a ConnShared {
        self.0
    }
}

fn handle_conn(
    vh: Arc<VectorH>,
    gate: Arc<Gate>,
    cfg: ServerConfig,
    stream: TcpStream,
    session_id: u64,
) -> Result<()> {
    // A reply ends in two small frames written back to back, `RowBatch`
    // then `Done`. With Nagle's algorithm on, the kernel holds the second
    // until the client acknowledges the first, and the client, with nothing
    // to send, delays that ACK by ~40 ms: on every statement.
    stream
        .set_nodelay(true)
        .map_err(|e| VhError::Net(format!("server set_nodelay: {e}")))?;
    let mut read_half = stream
        .try_clone()
        .map_err(|e| VhError::Net(format!("server clone stream: {e}")))?;
    // Handshake: exactly one Hello, answered with Welcome carrying the
    // session id in `epoch`. Anything else is rejected and the connection
    // closed — pre-handshake peers have no session to keep alive.
    let hello = read_frame(&mut read_half).map_err(DecodeError::into_vh)?;
    let stats = vh.server_stats().clone();
    let shared = Arc::new(ConnShared {
        vh,
        stats,
        session: Session::new(session_id),
        writer: Mutex::new(stream),
        seq: AtomicU64::new(0),
    });
    if hello.kind != FrameKind::Hello {
        let frame = resp(FrameKind::Reject, 0, 0, 0, Vec::new());
        return write_frame(&mut *shared.writer.lock(), &frame, None);
    }
    {
        let frame = resp(FrameKind::Welcome, 0, 0, session_id, Vec::new());
        write_frame(&mut *shared.writer.lock(), &frame, None)?;
    }

    let (tx, rx) = bounded::<Req>(cfg.admission.max_queue.max(1) * 2);
    let reader = {
        let shared = shared.clone();
        let gate = gate.clone();
        let cap = cfg.admission.per_session_inflight.max(1);
        std::thread::spawn(move || reader_loop(&shared, &gate, cap, &mut read_half, &tx))
    };
    executor_loop(&shared, &gate, &cfg, &rx);
    let _ = reader.join();
    Ok(())
}

/// Parse frames off the socket. Cancel acts immediately; admission of
/// pipelined requests beyond the per-session cap is refused here, before
/// the request costs a queue slot.
fn reader_loop(
    shared: &ConnShared,
    gate: &Gate,
    inflight_cap: usize,
    read_half: &mut TcpStream,
    tx: &Sender<Req>,
) {
    loop {
        let frame = match read_frame(read_half) {
            Ok(f) => f,
            // Closed, torn, or garbage: either way the session is over.
            Err(_) => {
                let _ = tx.send(Req::Goodbye);
                return;
            }
        };
        let req = match frame.kind {
            FrameKind::Cancel => {
                shared.session.cancel_current();
                continue;
            }
            FrameKind::Goodbye => {
                let _ = tx.send(Req::Goodbye);
                return;
            }
            FrameKind::Query | FrameKind::Prepare => {
                let Ok(sql) = String::from_utf8(frame.payload) else {
                    let _ = shared.send_error(
                        frame.channel,
                        &VhError::InvalidArg("non-utf8 sql".into()),
                        0,
                    );
                    continue;
                };
                if frame.kind == FrameKind::Query {
                    Req::Query {
                        req_id: frame.channel,
                        sql,
                    }
                } else {
                    Req::Prepare {
                        req_id: frame.channel,
                        sql,
                    }
                }
            }
            FrameKind::Execute => match wire::decode_stmt(&frame.payload) {
                Ok(stmt) => Req::Execute {
                    req_id: frame.channel,
                    stmt,
                },
                Err(e) => {
                    let _ = shared.send_error(frame.channel, &e, 0);
                    continue;
                }
            },
            // Transport-internal kinds have no meaning on a client
            // connection; ignore rather than kill the session.
            _ => continue,
        };
        let req_id = match &req {
            Req::Query { req_id, .. }
            | Req::Prepare { req_id, .. }
            | Req::Execute { req_id, .. } => *req_id,
            Req::Goodbye => unreachable!(),
        };
        if !shared.session.try_take_inflight(inflight_cap) {
            shared.stats.record_rejected_busy(shared.session.id);
            let busy =
                VhError::ServerBusy(format!("session pipelining cap ({inflight_cap}) reached"));
            let _ = shared.send_error(req_id, &busy, gate.backoff_hint());
            continue;
        }
        if tx.send(req).is_err() {
            return;
        }
    }
}

fn executor_loop(shared: &ConnShared, gate: &Gate, cfg: &ServerConfig, rx: &Receiver<Req>) {
    while let Ok(req) = rx.recv() {
        // The reader took a slot for every request it queued.
        let ok = match req {
            Req::Goodbye => break,
            Req::Query { req_id, sql } => serve_sql(shared, Slot(shared), gate, cfg, req_id, &sql),
            Req::Prepare { req_id, sql } => serve_prepare(shared, Slot(shared), req_id, &sql),
            Req::Execute { req_id, stmt } => match shared.session.plan(stmt) {
                Some(plan) => serve_plan(shared, Slot(shared), gate, cfg, req_id, &plan),
                None => Slot(shared).release().send_error(
                    req_id,
                    &VhError::InvalidArg(format!("unknown statement id {stmt}")),
                    0,
                ),
            },
        };
        // A write failure means the client is gone; stop executing for it.
        if ok.is_err() {
            break;
        }
    }
}

fn serve_prepare(shared: &ConnShared, slot: Slot, req_id: u32, sql: &str) -> Result<()> {
    match shared.vh.parse(sql) {
        Ok(plan) => {
            let stmt = shared.session.insert_prepared(sql, Arc::new(plan));
            slot.release()
                .send(FrameKind::Prepared, req_id, wire::encode_stmt(stmt))
        }
        Err(e) => slot.release().send_error(req_id, &e, 0),
    }
}

/// Query path: reuse the session's prepared plan when this exact SQL text
/// was prepared before, otherwise parse fresh.
fn serve_sql(
    shared: &ConnShared,
    slot: Slot,
    gate: &Gate,
    cfg: &ServerConfig,
    req_id: u32,
    sql: &str,
) -> Result<()> {
    let plan = match shared.session.plan_for_sql(sql) {
        Some(p) => p,
        None => match shared.vh.parse(sql) {
            Ok(p) => Arc::new(p),
            Err(e) => return slot.release().send_error(req_id, &e, 0),
        },
    };
    serve_plan(shared, slot, gate, cfg, req_id, &plan)
}

fn serve_plan(
    shared: &ConnShared,
    slot: Slot,
    gate: &Gate,
    cfg: &ServerConfig,
    req_id: u32,
    plan: &LogicalPlan,
) -> Result<()> {
    let session_id = shared.session.id;
    let permit = match gate.admit() {
        Ok(p) => p,
        Err(busy) => {
            shared
                .stats
                .record_queue_wait(session_id, busy.queue_wait.as_micros() as u64);
            shared.stats.record_rejected_busy(session_id);
            let e = VhError::ServerBusy(format!(
                "admission refused ({:?}); retry after the hint",
                busy.reason
            ));
            return slot.release().send_error(req_id, &e, busy.retry_after_ms);
        }
    };
    shared
        .stats
        .record_queue_wait(session_id, permit.queue_wait.as_micros() as u64);
    let ctl = QueryCtl::new();
    shared.session.begin_query(ctl.clone());
    let result = shared.vh.query_logical_ctl(plan, Some(&ctl));
    shared.session.end_query();
    drop(permit);
    shared
        .stats
        .record_retries_absorbed(session_id, ctl.retries());
    match result {
        Ok(rows) => {
            for chunk in rows.chunks(cfg.batch_rows.max(1)) {
                shared.send(FrameKind::RowBatch, req_id, wire::encode_rows(chunk))?;
            }
            shared.stats.record_query_served(session_id);
            shared.session.set_epoch_watermark(shared.vh.master_epoch());
            slot.release().send(
                FrameKind::Done,
                req_id,
                wire::encode_done(rows.len() as u64, ctl.retries()),
            )
        }
        Err(e) => slot.release().send_error(req_id, &e, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn both_ends_of_a_session_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || Client::connect(addr));
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "off is not the OS default");
        // A clone shares the socket, so it sees the option the session sets.
        let probe = accepted.try_clone().unwrap();
        let cfg = ServerConfig::default();
        let gate = Arc::new(Gate::new(cfg.admission.clone()));
        let vh = Arc::new(VectorH::start(Default::default()).unwrap());
        let session = std::thread::spawn(move || handle_conn(vh, gate, cfg, accepted, 1));
        let client = client.join().unwrap().expect("handshake");
        assert!(probe.nodelay().unwrap(), "accepted socket");
        assert!(client.stream.nodelay().unwrap(), "dialled socket");
        client.goodbye().unwrap();
        session.join().unwrap().unwrap();
    }
}

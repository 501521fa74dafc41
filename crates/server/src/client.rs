//! Synchronous wire-protocol client.
//!
//! One [`Client`] drives one session: it sends a request, then drains the
//! response stream (row batches until `Done`, or a typed error frame).
//! Cancellation comes from a [`Canceller`] — a cloned write handle another
//! thread uses to fire a `Cancel` frame while the client thread is blocked
//! reading results.

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use vectorh_common::{Result, Value, VhError};
use vectorh_transport::frame::{read_frame, write_frame, DecodeError, Frame, FrameKind};

use crate::wire;

/// Everything a finished query reports besides its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub rows: Vec<Vec<Value>>,
    /// Failover retries the server absorbed while this query ran — the
    /// "you never noticed the node die" counter.
    pub retries_absorbed: u64,
    /// `RowBatch` frames the result arrived in.
    pub batches: u64,
    /// Master epoch the server reported with the final frame.
    pub epoch: u64,
}

/// A connected front-door session.
pub struct Client {
    pub(crate) stream: TcpStream,
    session_id: u64,
    next_req: u32,
    seq: u64,
    /// Backoff hint from the most recent `ServerBusy` refusal.
    last_busy_hint_ms: u32,
    /// Partially received results of pipelined requests, by request id.
    partial: HashMap<u32, (Vec<Vec<Value>>, u64)>,
}

/// Write half used to cancel from another thread.
pub struct Canceller {
    stream: TcpStream,
}

impl Canceller {
    /// Fire a `Cancel` at the in-flight query. Best effort by design.
    pub fn cancel(&mut self) -> Result<()> {
        let frame = Frame::control(FrameKind::Cancel, 0, 0, 0, 0);
        write_frame(&mut self.stream, &frame, None)
    }
}

impl Client {
    /// Connect and complete the Hello/Welcome handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| VhError::Net(format!("client connect: {e}")))?;
        // `Cancel` after `Query` is two small writes in a row: with Nagle on,
        // the second waits for the server's delayed ACK of the first.
        stream
            .set_nodelay(true)
            .map_err(|e| VhError::Net(format!("client set_nodelay: {e}")))?;
        let hello = Frame::control(FrameKind::Hello, 0, 0, 0, 0);
        write_frame(&mut stream, &hello, None)?;
        let welcome = read_frame(&mut stream).map_err(DecodeError::into_vh)?;
        if welcome.kind != FrameKind::Welcome {
            return Err(VhError::Net(format!(
                "handshake refused ({:?})",
                welcome.kind
            )));
        }
        Ok(Client {
            stream,
            session_id: welcome.epoch,
            next_req: 1,
            seq: 0,
            last_busy_hint_ms: 0,
            partial: HashMap::new(),
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Backoff guidance carried by the most recent `ServerBusy` refusal.
    pub fn last_busy_hint_ms(&self) -> u32 {
        self.last_busy_hint_ms
    }

    /// A cancellation handle usable from another thread.
    pub fn canceller(&self) -> Result<Canceller> {
        Ok(Canceller {
            stream: self
                .stream
                .try_clone()
                .map_err(|e| VhError::Net(format!("client clone: {e}")))?,
        })
    }

    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<u32> {
        let req_id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        let frame = Frame {
            kind,
            from: 0,
            channel: req_id,
            seq: self.seq,
            epoch: 0,
            payload,
        };
        self.seq += 1;
        write_frame(&mut self.stream, &frame, None)?;
        Ok(req_id)
    }

    /// Block until *some* pipelined request completes; returns its request
    /// id and outcome. Row batches of other in-flight requests are
    /// buffered until their own completion frame arrives.
    pub fn wait_any(&mut self) -> Result<(u32, Result<QueryOutcome>)> {
        loop {
            let frame = read_frame(&mut self.stream).map_err(DecodeError::into_vh)?;
            let req_id = frame.channel;
            match frame.kind {
                FrameKind::RowBatch => {
                    let batch = wire::decode_rows(&frame.payload)?;
                    let entry = self.partial.entry(req_id).or_default();
                    entry.0.extend(batch);
                    entry.1 += 1;
                }
                FrameKind::Done => {
                    let (rows, batches) = self.partial.remove(&req_id).unwrap_or_default();
                    let (total, retries_absorbed) = wire::decode_done(&frame.payload)?;
                    if total != rows.len() as u64 {
                        return Err(VhError::Net(format!(
                            "row total mismatch: streamed {}, Done said {total}",
                            rows.len()
                        )));
                    }
                    return Ok((
                        req_id,
                        Ok(QueryOutcome {
                            rows,
                            retries_absorbed,
                            batches,
                            epoch: frame.epoch,
                        }),
                    ));
                }
                FrameKind::ErrorFrame => {
                    self.partial.remove(&req_id);
                    let (err, hint) = wire::decode_error(&frame.payload)?;
                    if matches!(err, VhError::ServerBusy(_)) {
                        self.last_busy_hint_ms = hint;
                    }
                    return Ok((req_id, Err(err)));
                }
                _ => continue,
            }
        }
    }

    /// Drain the response stream for `req_id` (buffering any pipelined
    /// siblings that complete first).
    fn collect(&mut self, req_id: u32) -> Result<QueryOutcome> {
        loop {
            let (done_id, outcome) = self.wait_any()?;
            if done_id == req_id {
                return outcome;
            }
            // A different pipelined request finished; its outcome was not
            // asked for through this path — drop it.
        }
    }

    /// Fire a query without waiting; pair with [`Self::wait_any`] to
    /// pipeline several requests on one session.
    pub fn send_query(&mut self, sql: &str) -> Result<u32> {
        self.send(FrameKind::Query, sql.as_bytes().to_vec())
    }

    /// Run a query, returning just its rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>> {
        self.query_detailed(sql).map(|o| o.rows)
    }

    /// Run a query, returning rows plus stream metadata.
    pub fn query_detailed(&mut self, sql: &str) -> Result<QueryOutcome> {
        let req = self.send(FrameKind::Query, sql.as_bytes().to_vec())?;
        self.collect(req)
    }

    /// Run a query, retrying `ServerBusy` refusals up to `max_attempts`
    /// times, sleeping the server's jitter hint between attempts. Any
    /// other error (and exhaustion) surfaces to the caller.
    pub fn query_with_retry(&mut self, sql: &str, max_attempts: usize) -> Result<QueryOutcome> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.query_detailed(sql) {
                Err(VhError::ServerBusy(m)) if attempt < max_attempts => {
                    let ms = self.last_busy_hint_ms.max(1) as u64;
                    std::thread::sleep(Duration::from_millis(ms));
                    let _ = m;
                }
                other => return other,
            }
        }
    }

    /// Prepare a statement; returns its server-side id. Preparing the same
    /// text twice returns the same id.
    pub fn prepare(&mut self, sql: &str) -> Result<u64> {
        let req = self.send(FrameKind::Prepare, sql.as_bytes().to_vec())?;
        loop {
            let frame = read_frame(&mut self.stream).map_err(DecodeError::into_vh)?;
            if frame.channel != req {
                continue;
            }
            match frame.kind {
                FrameKind::Prepared => return wire::decode_stmt(&frame.payload),
                FrameKind::ErrorFrame => {
                    let (err, hint) = wire::decode_error(&frame.payload)?;
                    if matches!(err, VhError::ServerBusy(_)) {
                        self.last_busy_hint_ms = hint;
                    }
                    return Err(err);
                }
                _ => continue,
            }
        }
    }

    /// Execute a prepared statement.
    pub fn execute_prepared(&mut self, stmt: u64) -> Result<QueryOutcome> {
        let req = self.send(FrameKind::Execute, wire::encode_stmt(stmt))?;
        self.collect(req)
    }

    /// Orderly session end.
    pub fn goodbye(mut self) -> Result<()> {
        let frame = Frame::control(FrameKind::Goodbye, 0, 0, self.seq, 0);
        write_frame(&mut self.stream, &frame, None)
    }
}

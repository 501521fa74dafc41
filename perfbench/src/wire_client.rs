//! A front-door client that says when the first row arrived.
//!
//! `vectorh_server::Client` hands back a finished result, so from outside
//! it one cannot tell the wait for the first `RowBatch` from the streaming
//! after it. The traced run speaks the same frames through the transport
//! and server crates' public codecs and notes the two instants. The
//! untraced run uses the product's own `Client`.

use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use vectorh_common::{Value, VhError};
use vectorh_server::wire;
use vectorh_transport::frame::{read_frame, write_frame, DecodeError, Frame, FrameKind};

pub struct TimedAnswer {
    pub rows: Vec<Vec<Value>>,
    pub sent: Instant,
    /// Arrival of the first row batch (of `Done`, for an empty result).
    pub first_row: Instant,
    pub done: Instant,
}

pub struct WireClient {
    stream: TcpStream,
    next_req: u32,
    seq: u64,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> Result<WireClient, VhError> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| VhError::Net(format!("connect: {e}")))?;
        write_frame(
            &mut stream,
            &Frame::control(FrameKind::Hello, 0, 0, 0, 0),
            None,
        )?;
        let welcome = read_frame(&mut stream).map_err(DecodeError::into_vh)?;
        if welcome.kind != FrameKind::Welcome {
            return Err(VhError::Net(format!("handshake: {:?}", welcome.kind)));
        }
        Ok(WireClient {
            stream,
            next_req: 1,
            seq: 0,
        })
    }

    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<u32, VhError> {
        let req = self.next_req;
        self.next_req += 1;
        let frame = Frame {
            kind,
            from: 0,
            channel: req,
            seq: self.seq,
            epoch: 0,
            payload,
        };
        self.seq += 1;
        write_frame(&mut self.stream, &frame, None)?;
        Ok(req)
    }

    fn collect(&mut self, req: u32, sent: Instant) -> Result<TimedAnswer, VhError> {
        let mut rows = Vec::new();
        let mut first_row = None;
        loop {
            let frame = read_frame(&mut self.stream).map_err(DecodeError::into_vh)?;
            if frame.channel != req {
                continue;
            }
            match frame.kind {
                FrameKind::RowBatch => {
                    first_row.get_or_insert_with(Instant::now);
                    rows.extend(wire::decode_rows(&frame.payload)?);
                }
                FrameKind::Done => {
                    let done = Instant::now();
                    let (total, _) = wire::decode_done(&frame.payload)?;
                    if total != rows.len() as u64 {
                        return Err(VhError::Net(format!(
                            "streamed {} rows, Done said {total}",
                            rows.len()
                        )));
                    }
                    return Ok(TimedAnswer {
                        rows,
                        sent,
                        first_row: first_row.unwrap_or(done),
                        done,
                    });
                }
                FrameKind::ErrorFrame => return Err(wire::decode_error(&frame.payload)?.0),
                _ => {}
            }
        }
    }

    pub fn query(&mut self, sql: &str) -> Result<TimedAnswer, VhError> {
        let sent = Instant::now();
        let req = self.send(FrameKind::Query, sql.as_bytes().to_vec())?;
        self.collect(req, sent)
    }

    pub fn prepare(&mut self, sql: &str) -> Result<u64, VhError> {
        let req = self.send(FrameKind::Prepare, sql.as_bytes().to_vec())?;
        loop {
            let frame = read_frame(&mut self.stream).map_err(DecodeError::into_vh)?;
            if frame.channel != req {
                continue;
            }
            match frame.kind {
                FrameKind::Prepared => return wire::decode_stmt(&frame.payload),
                FrameKind::ErrorFrame => return Err(wire::decode_error(&frame.payload)?.0),
                _ => {}
            }
        }
    }

    pub fn execute_prepared(&mut self, stmt: u64) -> Result<TimedAnswer, VhError> {
        let sent = Instant::now();
        let req = self.send(FrameKind::Execute, wire::encode_stmt(stmt))?;
        self.collect(req, sent)
    }

    pub fn goodbye(mut self) {
        let bye = Frame::control(FrameKind::Goodbye, 0, 0, self.seq, 0);
        write_frame(&mut self.stream, &bye, None).ok();
    }
}

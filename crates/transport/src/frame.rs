//! Wire framing: length-prefixed frames with a version/epoch header and a
//! CRC32 trailer.
//!
//! Every message on a transport connection is one frame:
//!
//! ```text
//! [len: u32 LE]        bytes that follow, including the CRC trailer
//! [version: u16 LE]    TRANSPORT_VERSION; mismatch rejects the connection
//! [kind: u8]           FrameKind discriminant
//! [from: u8]           sending node id (cluster fan-in is small)
//! [channel: u32 LE]    logical channel the frame belongs to
//! [seq: u64 LE]        per-(sender, channel) wire sequence number
//! [epoch: u64 LE]      sender's master epoch (handshake fencing)
//! [payload: len-28 B]
//! [crc32: u32 LE]      IEEE CRC over version..payload
//! ```
//!
//! The CRC is what turns a torn write (the `PartialFrame` fault, or a real
//! half-flushed socket) into a detected error instead of silent corruption:
//! a truncated frame either fails the length read or fails the checksum.

use vectorh_common::bytes::{crc32, Format, Reader};
use vectorh_common::{Result, VhError};

/// Bump when the frame layout changes; handshakes reject mismatches.
pub const TRANSPORT_VERSION: u16 = 1;

/// Header bytes after the length prefix (version..epoch).
pub const HEADER_LEN: usize = 2 + 1 + 1 + 4 + 8 + 8;

/// Largest payload a single frame may carry (guards the length prefix
/// against corruption turning into a huge allocation).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// What a frame means to the connection state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Dialer → acceptor: first frame on a connection; `epoch` carries the
    /// dialer's master epoch, payload is empty.
    Hello = 1,
    /// Acceptor → dialer: handshake accepted; `epoch` carries the
    /// acceptor's current epoch.
    Welcome = 2,
    /// Acceptor → dialer: handshake refused (stale epoch or bad version);
    /// `epoch` carries the epoch the acceptor is fenced to.
    Reject = 3,
    /// Application payload on `channel`, dedup'd by `seq`.
    Data = 4,
    /// Acceptor → dialer: flow-control grant; `seq` carries the number of
    /// credits granted for `channel`.
    Credit = 5,
    /// Sender is done with `channel`; receivers count these to detect
    /// end-of-stream across a known sender set.
    Fin = 6,
    // --- SQL front-door client protocol (vectorh-server) -----------------
    // The client protocol reuses this framing wholesale: Hello/Welcome/
    // Reject carry the handshake, and the kinds below carry requests and
    // responses. `channel` holds the request id a response answers,
    // `seq` the per-connection frame sequence.
    /// Client → server: run the SQL text in the payload.
    Query = 7,
    /// Client → server: parse/plan the SQL text and cache it; the server
    /// answers with a `Prepared` frame carrying the statement id.
    Prepare = 8,
    /// Client → server: run a previously prepared statement; `channel`
    /// carries the statement id.
    Execute = 9,
    /// Server → client: statement id for a `Prepare` (in `channel`).
    Prepared = 10,
    /// Server → client: one batch of result rows (possibly one of many).
    RowBatch = 11,
    /// Server → client: result stream complete; payload carries the row
    /// total and the failovers absorbed while the query ran.
    Done = 12,
    /// Server → client: typed error — payload is `[code u16][message]`,
    /// and for `ServerBusy` a retry-backoff hint. Never closes the
    /// connection.
    ErrorFrame = 13,
    /// Client → server: cancel the in-flight query on this session.
    Cancel = 14,
    /// Client → server: orderly session end.
    Goodbye = 15,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::Welcome,
            3 => FrameKind::Reject,
            4 => FrameKind::Data,
            5 => FrameKind::Credit,
            6 => FrameKind::Fin,
            7 => FrameKind::Query,
            8 => FrameKind::Prepare,
            9 => FrameKind::Execute,
            10 => FrameKind::Prepared,
            11 => FrameKind::RowBatch,
            12 => FrameKind::Done,
            13 => FrameKind::ErrorFrame,
            14 => FrameKind::Cancel,
            15 => FrameKind::Goodbye,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub from: u8,
    pub channel: u32,
    pub seq: u64,
    pub epoch: u64,
    pub payload: Vec<u8>,
}

impl Frame {
    pub fn control(kind: FrameKind, from: u8, channel: u32, seq: u64, epoch: u64) -> Frame {
        Frame {
            kind,
            from,
            channel,
            seq,
            epoch,
            payload: Vec::new(),
        }
    }
}

/// Encode a frame to its full wire form (length prefix through CRC).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let body_len = HEADER_LEN + frame.payload.len();
    let mut out = Vec::with_capacity(4 + body_len + 4);
    out.extend_from_slice(&((body_len + 4) as u32).to_le_bytes());
    out.extend_from_slice(&TRANSPORT_VERSION.to_le_bytes());
    out.push(frame.kind as u8);
    out.push(frame.from);
    out.extend_from_slice(&frame.channel.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.epoch.to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode errors carry enough to distinguish "connection died" from
/// "connection is lying to us" — reconnect handles the former, the latter
/// tears the connection down.
#[derive(Debug)]
pub enum DecodeError {
    /// Clean EOF before any byte of a frame (peer closed between frames).
    Closed,
    /// EOF or I/O error mid-frame: a torn/partial frame.
    Partial(String),
    /// CRC trailer does not match the frame body.
    Crc { expect: u32, got: u32 },
    /// Version field is not ours.
    Version(u16),
    /// Unknown kind discriminant or implausible length.
    Malformed(String),
}

/// How a frame reports bytes it cannot read (the length check before the
/// body is read leaves none).
const FRAME: Format = Format {
    error: VhError::Net,
    truncated: "truncated frame",
};

impl From<VhError> for DecodeError {
    fn from(e: VhError) -> DecodeError {
        DecodeError::Malformed(e.message().to_string())
    }
}

impl DecodeError {
    pub fn into_vh(self) -> VhError {
        VhError::Net(match self {
            DecodeError::Closed => "transport: connection closed".into(),
            DecodeError::Partial(m) => format!("transport: partial frame: {m}"),
            DecodeError::Crc { expect, got } => {
                format!("transport: crc mismatch (expect {expect:08x}, got {got:08x})")
            }
            DecodeError::Version(v) => format!("transport: version mismatch (peer sent {v})"),
            DecodeError::Malformed(m) => format!("transport: malformed frame: {m}"),
        })
    }
}

/// Read one frame from a byte stream. Blocks until a full frame arrives,
/// the stream ends, or the frame proves invalid.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::result::Result<Frame, DecodeError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean close (no bytes) from a torn frame (some bytes).
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(DecodeError::Closed),
            Ok(0) => return Err(DecodeError::Partial("eof in length prefix".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if filled == 0 && e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(DecodeError::Closed)
            }
            Err(e) => return Err(DecodeError::Partial(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(HEADER_LEN + 4..=HEADER_LEN + MAX_PAYLOAD + 4).contains(&len) {
        return Err(DecodeError::Malformed(format!("frame length {len}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| DecodeError::Partial(e.to_string()))?;
    let mut r = Reader::new(&body, &FRAME);
    let fields = r.take(len - 4)?;
    let got = r.u32()?;
    let expect = crc32(fields);
    if got != expect {
        return Err(DecodeError::Crc { expect, got });
    }
    let mut r = Reader::new(fields, &FRAME);
    let version = r.u16()?;
    if version != TRANSPORT_VERSION {
        return Err(DecodeError::Version(version));
    }
    let kind = r.u8()?;
    let kind =
        FrameKind::from_u8(kind).ok_or_else(|| DecodeError::Malformed(format!("kind {kind}")))?;
    Ok(Frame {
        kind,
        from: r.u8()?,
        channel: r.u32()?,
        seq: r.u64()?,
        epoch: r.u64()?,
        payload: r.rest().to_vec(),
    })
}

/// Write a frame, optionally truncating it to simulate a torn write (the
/// `PartialFrame` fault site). Returns an error if the truncated write was
/// requested, mirroring the connection death the caller must then handle.
pub fn write_frame<W: std::io::Write>(
    w: &mut W,
    frame: &Frame,
    truncate_at: Option<usize>,
) -> Result<()> {
    let bytes = encode(frame);
    match truncate_at {
        Some(n) => {
            let n = n.min(bytes.len().saturating_sub(1)).max(1);
            w.write_all(&bytes[..n])
                .and_then(|_| w.flush())
                .map_err(|e| VhError::Net(format!("transport write: {e}")))?;
            Err(VhError::Net("transport: injected partial frame".into()))
        }
        None => w
            .write_all(&bytes)
            .and_then(|_| w.flush())
            .map_err(|e| VhError::Net(format!("transport write: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            from: 3,
            channel: 17,
            seq: 42,
            epoch: 7,
            payload,
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Reject,
            FrameKind::Data,
            FrameKind::Credit,
            FrameKind::Fin,
            FrameKind::Query,
            FrameKind::Prepare,
            FrameKind::Execute,
            FrameKind::Prepared,
            FrameKind::RowBatch,
            FrameKind::Done,
            FrameKind::ErrorFrame,
            FrameKind::Cancel,
            FrameKind::Goodbye,
        ] {
            let f = Frame {
                kind,
                from: 2,
                channel: 9,
                seq: 1234,
                epoch: 5,
                payload: vec![1, 2, 3],
            };
            let bytes = encode(&f);
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let mut bytes = encode(&data_frame(vec![9; 100]));
        bytes[40] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(DecodeError::Crc { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_partial_not_silent() {
        let bytes = encode(&data_frame(vec![9; 100]));
        for cut in [1, 3, 10, bytes.len() - 1] {
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(DecodeError::Partial(_))),
                "cut at {cut} must surface as a partial frame"
            );
        }
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut cursor), Err(DecodeError::Closed)));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode(&data_frame(vec![1]));
        // Patch the version field and re-stamp the CRC so only the version
        // is wrong.
        bytes[4] = 0xEE;
        bytes[5] = 0xEE;
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[4..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(DecodeError::Version(0xEEEE))
        ));
    }

    #[test]
    fn write_frame_truncation_reports_error_and_leaves_torn_bytes() {
        let f = data_frame(vec![7; 32]);
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &f, Some(10)).is_err());
        assert_eq!(out.len(), 10);
        let mut cursor = std::io::Cursor::new(out);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(DecodeError::Partial(_))
        ));
    }
}

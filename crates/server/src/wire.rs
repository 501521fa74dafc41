//! Payload codecs for the front-door client protocol.
//!
//! The protocol reuses the transport crate's framing verbatim — length
//! prefix, version, CRC trailer, [`FrameKind`] discriminants — so a torn or
//! corrupted client frame fails exactly like a torn exchange frame. This
//! module only defines what goes *inside* the payloads:
//!
//! ```text
//! Query / Prepare    [sql: utf-8]
//! Execute            [stmt_id: u64 LE]
//! Prepared           [stmt_id: u64 LE]
//! RowBatch           [n_rows: u32][row]*      row = [n_cols: u32][value]*
//! Done               [row_total: u64][retries_absorbed: u64]
//! ErrorFrame         [code: u16][retry_after_ms: u32][msg_len: u32][msg]
//! ```
//!
//! Values are tag-prefixed, in the encoding WAL records use
//! ([`vectorh_common::bytes::put_value`]): the tag picks the arm,
//! fixed-width arms are LE, strings are length-prefixed. `retry_after_ms` is
//! zero except on `ServerBusy`, where it carries the server's seeded-jitter
//! backoff hint.

use vectorh_common::bytes::{put_bytes, put_value, Format, Reader};
use vectorh_common::{Result, Value, VhError};

fn wire_error(msg: String) -> VhError {
    VhError::Net(format!("wire: {msg}"))
}

const WIRE: Format = Format {
    error: wire_error,
    truncated: "truncated payload",
};

/// Encode one batch of result rows.
pub fn encode_rows(rows: &[Vec<Value>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            put_value(&mut out, v);
        }
    }
    out
}

/// Decode one batch of result rows.
pub fn decode_rows(buf: &[u8]) -> Result<Vec<Vec<Value>>> {
    let mut r = Reader::new(buf, &WIRE);
    // A row takes at least its column count, a value at least its tag.
    let n_rows = r.u32()? as usize;
    let mut rows = Vec::with_capacity(r.count(n_rows, 4)?);
    for _ in 0..n_rows {
        let n_cols = r.u32()? as usize;
        let mut row = Vec::with_capacity(r.count(n_cols, 1)?);
        for _ in 0..n_cols {
            row.push(r.value()?);
        }
        rows.push(row);
    }
    if r.remaining() != 0 {
        return Err(r.error("trailing bytes after row batch"));
    }
    Ok(rows)
}

/// Encode a `Done` payload: total rows streamed + failovers absorbed.
pub fn encode_done(row_total: u64, retries_absorbed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend(row_total.to_le_bytes());
    out.extend(retries_absorbed.to_le_bytes());
    out
}

/// Decode a `Done` payload into `(row_total, retries_absorbed)`.
pub fn decode_done(buf: &[u8]) -> Result<(u64, u64)> {
    let mut r = Reader::new(buf, &WIRE);
    Ok((r.u64()?, r.u64()?))
}

/// Encode a typed error reply. `retry_after_ms` is nonzero only for
/// `ServerBusy` backoff guidance.
pub fn encode_error(err: &VhError, retry_after_ms: u32) -> Vec<u8> {
    let msg = err.message().as_bytes();
    let mut out = Vec::with_capacity(10 + msg.len());
    out.extend(err.code().to_le_bytes());
    out.extend(retry_after_ms.to_le_bytes());
    put_bytes(&mut out, msg);
    out
}

/// Decode a typed error reply into `(error, retry_after_ms)`.
pub fn decode_error(buf: &[u8]) -> Result<(VhError, u32)> {
    let mut r = Reader::new(buf, &WIRE);
    let code = r.u16()?;
    let retry_after_ms = r.u32()?;
    let msg = r.str()?.to_string();
    Ok((VhError::from_code(code, msg), retry_after_ms))
}

/// Encode a statement id (Execute requests and Prepared replies).
pub fn encode_stmt(stmt_id: u64) -> Vec<u8> {
    stmt_id.to_le_bytes().to_vec()
}

/// Decode a statement id.
pub fn decode_stmt(buf: &[u8]) -> Result<u64> {
    Reader::new(buf, &WIRE).u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_every_value_kind() {
        let rows = vec![
            vec![
                Value::I32(-7),
                Value::I64(1 << 40),
                Value::Decimal(12345, 2),
                Value::Date(9000),
                Value::F64(2.5),
                Value::Str("héllo".into()),
                Value::Null,
            ],
            vec![],
            vec![Value::Str(String::new())],
        ];
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
    }

    #[test]
    fn error_roundtrip_preserves_code_and_hint() {
        let e = VhError::ServerBusy("queue full".into());
        let (back, hint) = decode_error(&encode_error(&e, 37)).unwrap();
        assert_eq!(back, e);
        assert_eq!(hint, 37);
        let e2 = VhError::NodeDown("node 2".into());
        let (back2, hint2) = decode_error(&encode_error(&e2, 0)).unwrap();
        assert_eq!(back2, e2);
        assert_eq!(hint2, 0);
    }

    #[test]
    fn done_and_stmt_roundtrip() {
        assert_eq!(decode_done(&encode_done(42, 3)).unwrap(), (42, 3));
        assert_eq!(decode_stmt(&encode_stmt(99)).unwrap(), 99);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_errors() {
        let bytes = encode_rows(&[vec![Value::I64(1)]]);
        assert!(decode_rows(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_rows(&padded).is_err());
    }
}

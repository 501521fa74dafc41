//! PAX-layout message serialization.
//!
//! "Tuples are serialized into MPI message buffers in a PAX-like layout,
//! such that Receivers can return vectors directly out of these buffers
//! with minimal processing and no extra copying" (§5). The layout here is
//! the same: a header, then each column's values contiguously, so
//! deserialization rebuilds column vectors with one pass per column.
//! An optional trailing one-byte *route* column carries the receiving
//! thread id in thread-to-node mode.

use std::sync::Arc;

use vectorh_common::bytes::{Format, Reader};
use vectorh_common::{ColumnData, Result, Schema, VhError};

use crate::stats::NetStats;

/// A batch serialized for the wire, or pointer-passed intra-node.
#[derive(Clone)]
pub enum Message {
    /// Serialized PAX buffer (+ optional route column).
    Wire {
        bytes: Vec<u8>,
        route: Option<Vec<u8>>,
    },
    /// Intra-node shortcut: the batch travels by pointer.
    Local {
        batch: vectorh_exec::Batch,
        route: Option<Vec<u8>>,
    },
}

impl Message {
    /// Bytes this message occupies in transit (serialized size for wire
    /// messages, column footprint for pointer-passed ones).
    pub fn transit_bytes(&self) -> usize {
        match self {
            Message::Wire { bytes, route } => bytes.len() + route.as_ref().map_or(0, |r| r.len()),
            Message::Local { batch, route } => {
                byte_size(batch) + route.as_ref().map_or(0, |r| r.len())
            }
        }
    }
}

/// A batch's columns' [`ColumnData::byte_size`]: what the exchange's flush
/// threshold and the intra-node counters count, the same for either layout
/// of a string column.
pub(crate) fn byte_size(batch: &vectorh_exec::Batch) -> usize {
    batch.columns.iter().map(ColumnData::byte_size).sum()
}

/// Serialize the columns of a batch into a PAX buffer.
pub fn serialize(batch: &vectorh_exec::Batch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    out.extend_from_slice(&(batch.columns.len() as u32).to_le_bytes());
    for col in &batch.columns {
        match col {
            ColumnData::I32(v) => {
                out.push(0);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::I64(v) => {
                out.push(1);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F64(v) => {
                out.push(2);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str(v) => {
                out.push(3);
                v.write_len_prefixed(&mut out);
            }
        }
    }
    out
}

/// The length of [`serialize`]`(batch)`, without building it: the header,
/// then per column a tag and [`ColumnData::byte_size`] (the fixed-width
/// values, or each string's length prefix and bytes, whatever its layout).
pub fn serialized_len(batch: &vectorh_exec::Batch) -> usize {
    8 + batch.columns.len() + byte_size(batch)
}

/// How an exchange message, or the fabric envelope around one, reports
/// bytes it cannot read.
pub(crate) const EXCHANGE: Format = Format {
    error: VhError::Net,
    truncated: "truncated exchange message",
};

/// Deserialize a PAX buffer back into a batch of `schema`.
pub fn deserialize(bytes: &[u8], schema: Arc<Schema>) -> Result<vectorh_exec::Batch> {
    let mut r = Reader::new(bytes, &EXCHANGE);
    let n_rows = r.u32()? as usize;
    let n_cols = r.u32()? as usize;
    if n_cols != schema.len() {
        return Err(r.error("message column count mismatch"));
    }
    // Every column holds at least four bytes a row.
    let n_rows = r.count(n_rows, 4 * n_cols)?;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        columns.push(match r.u8()? {
            0 => ColumnData::I32(r.arrays(n_rows)?.map(i32::from_le_bytes).collect()),
            1 => ColumnData::I64(r.arrays(n_rows)?.map(i64::from_le_bytes).collect()),
            2 => ColumnData::F64(r.arrays(n_rows)?.map(f64::from_le_bytes).collect()),
            // One pass over the column, one UTF-8 check of its payload.
            3 => ColumnData::Str(r.strs(n_rows)?),
            _ => return Err(r.error("bad column tag")),
        });
    }
    vectorh_exec::Batch::new(schema, columns)
}

/// Send a batch from `from_node` to `to_node`, serializing only when it
/// actually crosses nodes, and recording stats.
pub fn make_message(
    batch: vectorh_exec::Batch,
    route: Option<Vec<u8>>,
    from_node: u32,
    to_node: u32,
    stats: &NetStats,
) -> Message {
    if from_node == to_node {
        stats.record_intra_message(batch.len() as u64);
        Message::Local { batch, route }
    } else {
        let bytes = serialize(&batch);
        stats.record_net_message(
            (bytes.len() + route.as_ref().map_or(0, |r| r.len())) as u64,
            batch.len() as u64,
        );
        Message::Wire { bytes, route }
    }
}

/// Unpack a message into a batch (+ route column).
pub fn open_message(
    msg: Message,
    schema: Arc<Schema>,
) -> Result<(vectorh_exec::Batch, Option<Vec<u8>>)> {
    match msg {
        Message::Local { batch, route } => Ok((batch, route)),
        Message::Wire { bytes, route } => Ok((deserialize(&bytes, schema)?, route)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::{DataType, StrVec};
    use vectorh_exec::Batch;

    fn batch() -> Batch {
        let schema = Arc::new(Schema::of(&[
            ("a", DataType::I64),
            ("d", DataType::Date),
            ("f", DataType::F64),
            ("s", DataType::Str),
        ]));
        Batch::new(
            schema,
            vec![
                ColumnData::I64(vec![1, -2, 3]),
                ColumnData::I32(vec![100, 200, 300]),
                ColumnData::F64(vec![0.5, -1.5, 2.5]),
                ColumnData::Str(["x", "", "héllo"].into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let b = batch();
        let bytes = serialize(&b);
        let d = deserialize(&bytes, b.schema.clone()).unwrap();
        assert_eq!(d.rows(), b.rows());
    }

    #[test]
    fn serialized_len_is_the_length_of_the_serialized_batch() {
        // "é" twice in the dictionary; a gather keeps the codes.
        let dict = StrVec::from(["é", "日本", "", "é"]);
        let coded = StrVec::coded(dict, vec![3, 0, 1, 2, 1]).unwrap();
        let schema = Arc::new(Schema::of(&[
            ("a", DataType::I64),
            ("d", DataType::Date),
            ("f", DataType::F64),
            ("s", DataType::Str),
        ]));
        let numbers = |n: usize| {
            vec![
                ColumnData::I64((0..n as i64).collect()),
                ColumnData::I32((0..n as i32).collect()),
                ColumnData::F64((0..n).map(|i| i as f64 / 3.0).collect()),
            ]
        };
        let with = |strs: StrVec| {
            let mut cols = numbers(strs.len());
            cols.push(ColumnData::Str(strs));
            Batch::new(schema.clone(), cols).unwrap()
        };
        for b in [
            batch(),
            Batch::empty(schema.clone()),
            with(coded.clone()),
            with(coded.gather([4, 0].into_iter())),
            with(coded.iter().collect()),
            with(StrVec::new()),
        ] {
            assert_eq!(serialized_len(&b), serialize(&b).len(), "{:?}", b.columns);
        }
        assert_eq!(
            serialize(&with(coded.clone())),
            serialize(&with(coded.iter().collect())),
            "the same bytes from either layout"
        );
    }

    #[test]
    fn truncated_rejected() {
        let b = batch();
        let bytes = serialize(&b);
        assert!(deserialize(&bytes[..bytes.len() - 2], b.schema.clone()).is_err());
        assert!(deserialize(&bytes[..3], b.schema.clone()).is_err());
    }

    #[test]
    fn strings_that_are_not_utf8_are_a_net_error() {
        let schema = Arc::new(Schema::of(&[("s", DataType::Str)]));
        let msg = |n_rows: u32, payload: &[u8]| {
            let mut m = n_rows.to_le_bytes().to_vec();
            m.extend_from_slice(&1u32.to_le_bytes());
            m.push(3);
            m.extend_from_slice(payload);
            m
        };
        let ok = deserialize(
            &msg(2, &[2, 0, 0, 0, 0xC3, 0xA9, 0, 0, 0, 0]),
            schema.clone(),
        );
        assert_eq!(ok.unwrap().columns, [ColumnData::Str(["é", ""].into())]);
        for (what, bad) in [
            ("invalid byte", msg(1, &[2, 0, 0, 0, b'a', 0xFF])),
            // "é" split over two values: the column's bytes are UTF-8, its values are not.
            (
                "length inside a character",
                msg(2, &[1, 0, 0, 0, 0xC3, 1, 0, 0, 0, 0xA9]),
            ),
            ("length past the message", msg(1, &[200, 0, 0, 0, b'a'])),
            ("row count past the message", msg(u32::MAX, &[0, 0, 0, 0])),
        ] {
            let got = deserialize(&bad, schema.clone());
            // Only the error is printed: a vector that should not exist may
            // not be readable.
            let err = got.err();
            assert!(matches!(err, Some(VhError::Net(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn a_row_count_past_the_message_is_refused_before_allocation() {
        let schema = Arc::new(Schema::of(&[("a", DataType::I64)]));
        let mut msg = u32::MAX.to_le_bytes().to_vec();
        msg.extend(1u32.to_le_bytes());
        msg.push(1);
        msg.extend(5i64.to_le_bytes());
        let err = deserialize(&msg, schema).err();
        assert!(matches!(err, Some(VhError::Net(_))), "{err:?}");
    }

    #[test]
    fn intra_node_passes_pointer() {
        let stats = NetStats::default();
        let msg = make_message(batch(), None, 1, 1, &stats);
        assert!(matches!(msg, Message::Local { .. }));
        let snap = stats.snapshot();
        assert_eq!(snap.net_bytes, 0);
        assert_eq!(snap.intra_messages, 1);
        assert_eq!(snap.rows, 3);
    }

    #[test]
    fn cross_node_serializes() {
        let stats = NetStats::default();
        let msg = make_message(batch(), Some(vec![0, 1, 0]), 1, 2, &stats);
        assert!(matches!(msg, Message::Wire { .. }));
        let snap = stats.snapshot();
        assert!(snap.net_bytes > 0);
        assert_eq!(snap.net_messages, 1);
        let (b, route) = open_message(msg, batch().schema.clone()).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(route, Some(vec![0, 1, 0]));
    }
}

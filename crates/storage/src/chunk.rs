//! Block-chunk file format.
//!
//! One chunk file holds a horizontal slice of a table partition with *all
//! columns in the same file* (file-per-partition, §3), stored column-wise —
//! the PAX-with-huge-blocks organization the paper attributes to ORC/Parquet
//! and adopts for HDFS friendliness. A column is read by fetching only its
//! byte range, so per-column IO accounting works even though the file mixes
//! columns ("reads occur on the actual granularity of the IO").
//!
//! Layout:
//! ```text
//! magic u32 | n_rows u32 | n_cols u32
//! offsets: (n_cols + 1) × u64     -- absolute byte offsets of column bodies
//! column 0 encoded block | column 1 encoded block | ...
//! ```
//! Column bodies are self-describing [`vectorh_compress`] blocks.

use vectorh_blockstore::BlockStore;
use vectorh_common::bytes::{Format, Reader};
use vectorh_common::{ColumnData, NodeId, Result, VhError};
use vectorh_compress::{decode_column, encode_column};

/// How a chunk header reports bytes it cannot read.
const HEADER: Format = Format {
    error: VhError::Storage,
    truncated: "chunk header truncated",
};

/// Magic tag identifying VectorH-rs chunk files.
pub const CHUNK_MAGIC: u32 = 0x56_48_43_4B; // "VHCK"

/// In-memory metadata of one chunk file (kept in the partition manifest, so
/// reading a column needs exactly one ranged read — no header fetch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// HDFS path of the chunk file.
    pub path: String,
    pub n_rows: usize,
    /// Byte offsets of each column body; `offsets[n_cols]` = file length.
    pub offsets: Vec<u64>,
}

impl ChunkMeta {
    pub fn n_cols(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Encoded size of one column in bytes.
    pub fn col_bytes(&self, col: usize) -> u64 {
        self.offsets[col + 1] - self.offsets[col]
    }

    pub fn file_bytes(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }
}

/// Serialize columns into a chunk file image. All columns must have equal
/// length. Returns the bytes and the offsets table.
pub fn encode_chunk(columns: &[ColumnData]) -> Result<(Vec<u8>, Vec<u64>)> {
    let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
    if columns.iter().any(|c| c.len() != n_rows) {
        return Err(VhError::Storage("ragged chunk columns".into()));
    }
    let bodies: Vec<Vec<u8>> = columns.iter().map(|c| encode_column(c).bytes).collect();
    let header_len = 12 + 8 * (columns.len() + 1);
    let mut offsets = Vec::with_capacity(columns.len() + 1);
    let mut pos = header_len as u64;
    for b in &bodies {
        offsets.push(pos);
        pos += b.len() as u64;
    }
    offsets.push(pos);
    let mut out = Vec::with_capacity(pos as usize);
    out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    out.extend_from_slice(&(n_rows as u32).to_le_bytes());
    out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for o in &offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for b in &bodies {
        out.extend_from_slice(b);
    }
    Ok((out, offsets))
}

/// Write a chunk file to the block store from `writer` and return its
/// metadata. A chunk is sealed the moment it is written, so this is a
/// durability point: the image is fsynced before the chunk can enter a
/// manifest.
pub fn write_chunk(
    fs: &dyn BlockStore,
    path: &str,
    columns: &[ColumnData],
    writer: Option<NodeId>,
) -> Result<ChunkMeta> {
    let (bytes, offsets) = encode_chunk(columns)?;
    fs.append(path, &bytes, writer)?;
    fs.sync(path)?;
    Ok(ChunkMeta {
        path: path.to_string(),
        n_rows: columns.first().map(|c| c.len()).unwrap_or(0),
        offsets,
    })
}

/// Read one column of a chunk (ranged read + decode).
pub fn read_column(
    fs: &dyn BlockStore,
    meta: &ChunkMeta,
    col: usize,
    reader: Option<NodeId>,
) -> Result<ColumnData> {
    if col >= meta.n_cols() {
        return Err(VhError::Storage(format!(
            "column {col} out of range ({} cols)",
            meta.n_cols()
        )));
    }
    let bytes = fs.read(
        &meta.path,
        meta.offsets[col],
        meta.col_bytes(col) as usize,
        reader,
    )?;
    decode_column(&bytes)
}

/// Parse a chunk header from the first bytes of a `file_len`-byte file
/// (recovery path: rebuilding a manifest from HDFS contents). The offsets
/// must run from the end of the header to at most the end of the file
/// without going back, or reading a column would cut a range that is not
/// there.
pub fn parse_header(bytes: &[u8], file_len: u64) -> Result<(usize, Vec<u64>)> {
    let mut r = Reader::new(bytes, &HEADER);
    if r.u32()? != CHUNK_MAGIC {
        return Err(r.error("bad chunk magic"));
    }
    let n_rows = r.u32()? as usize;
    let n_cols = r.u32()? as usize;
    let offsets: Vec<u64> = r.arrays(n_cols + 1)?.map(u64::from_le_bytes).collect();
    let need = r.pos() as u64;
    let in_order = offsets.windows(2).all(|w| w[0] <= w[1]);
    if offsets[0] < need || !in_order || offsets[n_cols] > file_len {
        return Err(r.error(format!(
            "chunk offsets {offsets:?} do not fit a {need}-byte header in a {file_len}-byte file"
        )));
    }
    Ok((n_rows, offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs};

    fn fs() -> SimHdfs {
        SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 256,
                default_replication: 2,
            },
            Arc::new(DefaultPolicy::new(1)),
        )
    }

    fn sample_cols() -> Vec<ColumnData> {
        vec![
            ColumnData::I64((0..500).collect()),
            ColumnData::I32((0..500).map(|i| i % 7).collect()),
            ColumnData::Str((0..500).map(|i| format!("s{}", i % 3)).collect()),
        ]
    }

    #[test]
    fn chunk_roundtrip_per_column() {
        let fs = fs();
        let cols = sample_cols();
        let meta = write_chunk(&fs, "/db/t/p0/chunk-0", &cols, Some(NodeId(0))).unwrap();
        assert_eq!(meta.n_rows, 500);
        assert_eq!(meta.n_cols(), 3);
        for (i, c) in cols.iter().enumerate() {
            let got = read_column(&fs, &meta, i, Some(NodeId(0))).unwrap();
            assert_eq!(&got, c);
        }
    }

    #[test]
    fn reading_one_column_touches_only_its_bytes() {
        let fs = fs();
        let cols = sample_cols();
        let meta = write_chunk(&fs, "/db/t/p0/chunk-0", &cols, Some(NodeId(0))).unwrap();
        let before = fs.stats().snapshot();
        read_column(&fs, &meta, 0, Some(NodeId(0))).unwrap();
        let delta = fs.stats().snapshot().since(&before);
        assert_eq!(delta.read_bytes(), meta.col_bytes(0));
        assert!(delta.read_bytes() < meta.file_bytes());
    }

    #[test]
    fn ragged_columns_rejected() {
        let cols = vec![ColumnData::I64(vec![1, 2]), ColumnData::I64(vec![1])];
        assert!(encode_chunk(&cols).is_err());
    }

    #[test]
    fn header_recovery() {
        let cols = sample_cols();
        let (bytes, offsets) = encode_chunk(&cols).unwrap();
        let len = bytes.len() as u64;
        let (n_rows, parsed) = parse_header(&bytes, len).unwrap();
        assert_eq!(n_rows, 500);
        assert_eq!(parsed, offsets);
        assert!(parse_header(&bytes[..8], len).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(parse_header(&bad, len).is_err());
    }

    #[test]
    fn empty_chunk_allowed() {
        let (bytes, offsets) = encode_chunk(&[]).unwrap();
        let (n_rows, parsed) = parse_header(&bytes, bytes.len() as u64).unwrap();
        assert_eq!(n_rows, 0);
        assert_eq!(parsed, offsets);
    }

    #[test]
    fn out_of_range_column_errors() {
        let fs = fs();
        let meta = write_chunk(&fs, "/c", &sample_cols(), None).unwrap();
        assert!(read_column(&fs, &meta, 9, None).is_err());
    }
}

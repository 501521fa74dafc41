//! Partition storage: a manifest of chunk files plus MinMax stats.
//!
//! One [`PartitionStore`] owns the on-HDFS representation of one table
//! partition: an ordered list of chunk files under the partition directory
//! (the unit the instrumented placement policy pins to nodes), the trailing
//! *partial chunk* merge-on-append mechanism, and the partition's MinMax
//! index. The responsible node (§3/§4) is the `home` from which all appends
//! are issued — with the affinity placement policy registered, that makes
//! every replica land exactly where the partition affinity map says.

use vectorh_blockstore::StoreRef;
use vectorh_common::{ColumnData, NodeId, Result, Schema, VhError};

use crate::chunk::{self, ChunkMeta};
use crate::minmax::{ColumnStats, MinMaxIndex, Pruning};

/// Storage tuning knobs.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Rows per full chunk file (the scaled stand-in for "1024 blocks of
    /// 512 KB"; real VectorH chunks hold far more rows).
    pub rows_per_chunk: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            rows_per_chunk: 4096,
        }
    }
}

/// On-HDFS storage of one table partition.
///
/// Cloning is cheap-ish (manifest + stats copy) and yields a consistent
/// snapshot of the manifest — scans run against such snapshots while the
/// engine keeps mutating the original.
#[derive(Clone)]
pub struct PartitionStore {
    fs: StoreRef,
    dir: String,
    schema: Schema,
    config: StorageConfig,
    chunks: Vec<ChunkMeta>,
    minmax: MinMaxIndex,
    next_chunk_id: u64,
    home: Option<NodeId>,
    /// Chunk files replaced by the last committed propagation. They are no
    /// longer in the manifest but may still be held by in-flight scan
    /// snapshots (scans clone the manifest, which references files by
    /// path), so deletion is deferred one full propagation cycle:
    /// [`sweep_deferred`](Self::sweep_deferred) reclaims them at the start
    /// of the *next* committed propagation.
    deferred: Vec<String>,
}

impl PartitionStore {
    /// Create an empty partition rooted at `dir` (must end with `/`).
    pub fn new(
        fs: StoreRef,
        dir: impl Into<String>,
        schema: Schema,
        config: StorageConfig,
    ) -> Self {
        let dir = dir.into();
        debug_assert!(dir.ends_with('/'), "partition dir must end with '/'");
        PartitionStore {
            fs,
            dir,
            schema,
            config,
            chunks: Vec::new(),
            minmax: MinMaxIndex::new(),
            next_chunk_id: 0,
            home: None,
            deferred: Vec::new(),
        }
    }

    pub fn dir(&self) -> &str {
        &self.dir
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The responsible node: appends are issued from here so the first
    /// replica is local (§3).
    pub fn set_home(&mut self, node: Option<NodeId>) {
        self.home = node;
    }

    pub fn home(&self) -> Option<NodeId> {
        self.home
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    pub fn chunk_meta(&self, idx: usize) -> &ChunkMeta {
        &self.chunks[idx]
    }

    pub fn minmax(&self) -> &MinMaxIndex {
        &self.minmax
    }

    /// Total stable rows stored.
    pub fn row_count(&self) -> u64 {
        self.chunks.iter().map(|c| c.n_rows as u64).sum()
    }

    /// First stable SID of a chunk.
    pub fn chunk_sid_base(&self, idx: usize) -> u64 {
        self.chunks[..idx].iter().map(|c| c.n_rows as u64).sum()
    }

    /// Encoded bytes across all chunk files.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.file_bytes()).sum()
    }

    fn chunk_stats(&self, columns: &[ColumnData]) -> Vec<Option<ColumnStats>> {
        columns
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStats::from_column(c, self.schema.dtype(i)))
            .collect()
    }

    fn fresh_path(&mut self) -> String {
        let p = format!("{}chunk-{:08}", self.dir, self.next_chunk_id);
        self.next_chunk_id += 1;
        p
    }

    /// Append rows (given as full-width columns).
    ///
    /// If the trailing chunk is partial, its rows are read back, the file is
    /// deleted, and the combined data is rewritten — the "partial chunk
    /// file" mechanism of §3. Full chunks are immutable thereafter.
    pub fn append_rows(&mut self, columns: &[ColumnData]) -> Result<()> {
        if columns.len() != self.schema.len() {
            return Err(VhError::Storage(format!(
                "append with {} columns into {}-column partition",
                columns.len(),
                self.schema.len()
            )));
        }
        let n_new = columns.first().map(|c| c.len()).unwrap_or(0);
        if n_new == 0 {
            return Ok(());
        }
        // Absorb the trailing partial chunk, if any.
        let mut data: Vec<ColumnData> = Vec::with_capacity(columns.len());
        let absorb = self
            .chunks
            .last()
            .is_some_and(|last| last.n_rows < self.config.rows_per_chunk);
        if absorb {
            let last = self.chunks.pop().unwrap();
            self.minmax.remove_chunk(self.chunks.len());
            for (col, new_col) in columns.iter().enumerate().take(self.schema.len()) {
                let mut existing = chunk::read_column(&self.fs, &last, col, self.home)?;
                existing.append(new_col)?;
                data.push(existing);
            }
            self.fs.delete(&last.path)?;
        } else {
            data = columns.to_vec();
        }
        // Emit full chunks plus a trailing partial one.
        let total = data[0].len();
        let mut from = 0usize;
        while from < total {
            let to = (from + self.config.rows_per_chunk).min(total);
            let slice: Vec<ColumnData> = data.iter().map(|c| c.slice(from, to)).collect();
            let path = self.fresh_path();
            let meta = chunk::write_chunk(&self.fs, &path, &slice, self.home)?;
            let stats = self.chunk_stats(&slice);
            self.chunks.push(meta);
            self.minmax.push_chunk(stats);
            from = to;
        }
        Ok(())
    }

    /// Read one column of one chunk.
    pub fn read_column(
        &self,
        chunk: usize,
        col: usize,
        reader: Option<NodeId>,
    ) -> Result<ColumnData> {
        chunk::read_column(&self.fs, &self.chunks[chunk], col, reader)
    }

    /// Read several columns of one chunk.
    pub fn read_columns(
        &self,
        chunk: usize,
        cols: &[usize],
        reader: Option<NodeId>,
    ) -> Result<Vec<ColumnData>> {
        cols.iter()
            .map(|&c| self.read_column(chunk, c, reader))
            .collect()
    }

    /// Which chunks survive MinMax pruning for these predicates?
    pub fn prune(&self, preds: &Pruning) -> Vec<bool> {
        self.minmax.prune(preds)
    }

    /// Rows per full chunk file.
    pub fn rows_per_chunk(&self) -> usize {
        self.config.rows_per_chunk
    }

    /// Reserve a fresh chunk path without writing anything — chunk-level
    /// propagation logs the path (`ChunkRewriteBegin`) *before* the data
    /// write, so the replacement image's location is known to recovery even
    /// if the write itself is torn.
    pub fn alloc_chunk_path(&mut self) -> String {
        self.fresh_path()
    }

    /// Write a replacement image for chunk `idx` at the pre-allocated
    /// `path` and swap it into the manifest (data + MinMax). The old file is
    /// **not** deleted — its path is returned so the caller can defer
    /// reclamation until no scan snapshot can still reference it.
    pub fn install_chunk(
        &mut self,
        idx: usize,
        path: &str,
        columns: &[ColumnData],
    ) -> Result<String> {
        if columns.len() != self.schema.len() {
            return Err(VhError::Storage("install with wrong column count".into()));
        }
        let meta = chunk::write_chunk(&self.fs, path, columns, self.home)?;
        let stats = self.chunk_stats(columns);
        let old = std::mem::replace(&mut self.chunks[idx], meta);
        self.minmax.replace_chunk(idx, stats);
        Ok(old.path)
    }

    /// Write a brand-new trailing chunk at the pre-allocated `path` and
    /// push it onto the manifest (data + MinMax) — the tail-append side of
    /// chunk-level propagation, which never touches existing chunk files.
    pub fn push_chunk_at(&mut self, path: &str, columns: &[ColumnData]) -> Result<()> {
        if columns.len() != self.schema.len() {
            return Err(VhError::Storage("push with wrong column count".into()));
        }
        let meta = chunk::write_chunk(&self.fs, path, columns, self.home)?;
        let stats = self.chunk_stats(columns);
        self.chunks.push(meta);
        self.minmax.push_chunk(stats);
        Ok(())
    }

    /// Queue files replaced by a just-committed propagation for deletion at
    /// the start of the next one.
    pub fn defer_delete(&mut self, paths: Vec<String>) {
        self.deferred.extend(paths);
    }

    /// Paths currently awaiting deferred deletion.
    pub fn deferred(&self) -> &[String] {
        &self.deferred
    }

    /// Delete the previous propagation generation's replaced files. By the
    /// time this runs (inside the next committed propagation) any scan
    /// snapshot taken before that generation's commit has long finished.
    pub fn sweep_deferred(&mut self) -> Result<Vec<String>> {
        let paths = std::mem::take(&mut self.deferred);
        for p in &paths {
            if self.fs.exists(p) {
                self.fs.delete(p)?;
            }
        }
        Ok(paths)
    }

    /// Delete chunk files under the partition directory that are neither in
    /// the manifest nor awaiting deferred deletion — the leftovers of a
    /// propagation that crashed after allocating (and possibly writing) a
    /// replacement image but before committing it. Only `chunk-`-named
    /// files are touched: WALs and other artifacts may share the directory.
    pub fn gc_orphans(&mut self) -> Result<Vec<String>> {
        let prefix = format!("{}chunk-", self.dir);
        let mut removed = Vec::new();
        for f in self.fs.list(&self.dir) {
            if !f.path.starts_with(&prefix) {
                continue;
            }
            if self.chunks.iter().any(|c| c.path == f.path) || self.deferred.contains(&f.path) {
                continue;
            }
            self.fs.delete(&f.path)?;
            removed.push(f.path);
        }
        Ok(removed)
    }

    /// Drop all chunk files (table truncation / partition drop).
    pub fn drop_all(&mut self) -> Result<()> {
        for meta in self.chunks.drain(..) {
            self.fs.delete(&meta.path)?;
        }
        self.minmax.clear();
        Ok(())
    }

    /// Rebuild the manifest by listing and parsing chunk files from HDFS —
    /// the recovery path after a node restart. MinMax stats are recomputed
    /// from the data (the real system replays them from the WAL; the txn
    /// crate does that too, this is the fallback).
    pub fn recover(
        fs: StoreRef,
        dir: impl Into<String>,
        schema: Schema,
        config: StorageConfig,
        reader: Option<NodeId>,
    ) -> Result<PartitionStore> {
        let dir = dir.into();
        let mut store = PartitionStore::new(fs.clone(), dir.clone(), schema, config);
        let mut files = fs.list(&dir);
        files.sort_by(|a, b| a.path.cmp(&b.path));
        for f in files {
            let header = fs.read(&f.path, 0, 4096.min(f.len as usize), reader)?;
            let (n_rows, offsets) = chunk::parse_header(&header, f.len)?;
            let meta = ChunkMeta {
                path: f.path.clone(),
                n_rows,
                offsets,
            };
            // Recompute stats from data; scans cut ranges by `n_rows`.
            let cols: Vec<ColumnData> = (0..store.schema.len())
                .map(|c| chunk::read_column(&fs, &meta, c, reader))
                .collect::<Result<_>>()?;
            if let Some(c) = cols.iter().position(|c| c.len() != n_rows) {
                return Err(VhError::Storage(format!(
                    "{}: column {c} holds {} rows, the header says {n_rows}",
                    f.path,
                    cols[c].len()
                )));
            }
            let stats = store.chunk_stats(&cols);
            store.chunks.push(meta);
            store.minmax.push_chunk(stats);
            // Continue numbering after the highest existing chunk id.
            if let Some(id) = f
                .path
                .rsplit("chunk-")
                .next()
                .and_then(|s| s.parse::<u64>().ok())
            {
                store.next_chunk_id = store.next_chunk_id.max(id + 1);
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minmax::PruneOp;
    use std::sync::Arc;
    use vectorh_blockstore::{AffinityPolicy, BlockStoreConfig, DefaultPolicy, SimHdfs};
    use vectorh_common::{DataType, Value};

    fn fs() -> StoreRef {
        Arc::new(SimHdfs::new(
            4,
            BlockStoreConfig {
                block_size: 512,
                default_replication: 2,
            },
            Arc::new(DefaultPolicy::new(3)),
        ))
    }

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::I64), ("v", DataType::I32)])
    }

    fn cols(from: i64, n: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::I64((from..from + n as i64).collect()),
            ColumnData::I32((0..n).map(|i| i as i32 % 10).collect()),
        ]
    }

    fn store(rows_per_chunk: usize) -> PartitionStore {
        PartitionStore::new(
            fs(),
            "/db/t/p0/",
            schema(),
            StorageConfig { rows_per_chunk },
        )
    }

    #[test]
    fn append_splits_into_chunks() {
        let mut s = store(100);
        s.append_rows(&cols(0, 250)).unwrap();
        assert_eq!(s.n_chunks(), 3); // 100 + 100 + 50
        assert_eq!(s.row_count(), 250);
        assert_eq!(s.chunk_meta(2).n_rows, 50);
        assert_eq!(s.chunk_sid_base(2), 200);
    }

    #[test]
    fn partial_chunk_merged_on_next_append() {
        let mut s = store(100);
        s.append_rows(&cols(0, 150)).unwrap(); // chunks: 100 + 50(partial)
        let partial_path = s.chunk_meta(1).path.clone();
        s.append_rows(&cols(150, 30)).unwrap(); // partial absorbed: 100 + 80
        assert_eq!(s.n_chunks(), 2);
        assert_eq!(s.chunk_meta(1).n_rows, 80);
        assert_ne!(
            s.chunk_meta(1).path,
            partial_path,
            "partial chunk file replaced"
        );
        // Verify data integrity across the merge.
        let keys = s.read_column(1, 0, None).unwrap();
        assert_eq!(keys.as_i64().unwrap()[0], 100);
        assert_eq!(keys.as_i64().unwrap()[79], 179);
    }

    #[test]
    fn minmax_tracks_chunks() {
        let mut s = store(100);
        s.append_rows(&cols(0, 300)).unwrap();
        let keep = s.prune(&vec![(0, PruneOp::Lt, Value::I64(150))]);
        assert_eq!(keep, vec![true, true, false]);
        let keep = s.prune(&vec![(0, PruneOp::Ge, Value::I64(250))]);
        assert_eq!(keep, vec![false, false, true]);
    }

    #[test]
    fn home_node_gets_local_replicas() {
        let policy = Arc::new(AffinityPolicy::new(5));
        let fs: StoreRef = Arc::new(SimHdfs::new(
            4,
            BlockStoreConfig {
                block_size: 512,
                default_replication: 2,
            },
            policy.clone(),
        ));
        policy.set_affinity(
            "/db/t/p0/",
            vec![vectorh_common::NodeId(2), vectorh_common::NodeId(3)],
        );
        let mut s = PartitionStore::new(
            fs.clone(),
            "/db/t/p0/",
            schema(),
            StorageConfig { rows_per_chunk: 64 },
        );
        s.set_home(Some(vectorh_common::NodeId(2)));
        s.append_rows(&cols(0, 200)).unwrap();
        for i in 0..s.n_chunks() {
            assert!(fs
                .fully_local(&s.chunk_meta(i).path, vectorh_common::NodeId(2))
                .unwrap());
        }
        // Scanning from home is 100% short-circuit.
        let before = fs.stats().snapshot();
        for i in 0..s.n_chunks() {
            s.read_column(i, 0, Some(vectorh_common::NodeId(2)))
                .unwrap();
        }
        let delta = fs.stats().snapshot().since(&before);
        assert_eq!(delta.remote_read_bytes, 0);
        assert!(delta.local_read_bytes > 0);
    }

    #[test]
    fn recovery_rebuilds_manifest() {
        let fsys = fs();
        let mut s = PartitionStore::new(
            fsys.clone(),
            "/db/t/p0/",
            schema(),
            StorageConfig { rows_per_chunk: 80 },
        );
        s.append_rows(&cols(0, 200)).unwrap();
        let rows = s.row_count();
        let chunks = s.n_chunks();
        drop(s);
        let r = PartitionStore::recover(
            fsys,
            "/db/t/p0/",
            schema(),
            StorageConfig { rows_per_chunk: 80 },
            None,
        )
        .unwrap();
        assert_eq!(r.row_count(), rows);
        assert_eq!(r.n_chunks(), chunks);
        assert_eq!(r.read_column(1, 0, None).unwrap().as_i64().unwrap()[0], 80);
        // MinMax recomputed.
        assert_eq!(r.minmax().stats(0, 0).unwrap().min, Value::I64(0));
    }

    /// A header read back from disk is checked before a column is cut by
    /// it: offsets out of order, starting inside the header or ending past
    /// the file, and a row count the columns do not hold.
    #[test]
    fn recovery_refuses_a_corrupt_chunk_header() {
        let fsys = fs();
        let config = || StorageConfig {
            rows_per_chunk: 100,
        };
        let mut s = PartitionStore::new(fsys.clone(), "/db/t/p0/", schema(), config());
        s.append_rows(&cols(0, 100)).unwrap();
        let path = s.chunk_meta(0).path.clone();
        let good = fsys
            .read(&path, 0, s.chunk_meta(0).file_bytes() as usize, None)
            .unwrap();
        let offset_at = |i: usize| 12 + 8 * i;
        let put = |bytes: &mut Vec<u8>, at: usize, v: u64| {
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        let (o1, o2) = (s.chunk_meta(0).offsets[1], s.chunk_meta(0).offsets[2]);
        let mut corruptions = Vec::new();
        let mut swapped = good.clone();
        put(&mut swapped, offset_at(1), o2);
        put(&mut swapped, offset_at(2), o1);
        corruptions.push(("offsets swapped", swapped));
        let mut in_header = good.clone();
        put(&mut in_header, offset_at(0), 4);
        corruptions.push(("first offset inside the header", in_header));
        let mut past_end = good.clone();
        put(&mut past_end, offset_at(2), good.len() as u64 + 1);
        corruptions.push(("last offset past the file", past_end));
        let mut more_rows = good.clone();
        more_rows[4..8].copy_from_slice(&200u32.to_le_bytes());
        corruptions.push(("200 rows over 100-row columns", more_rows));
        for (what, bytes) in corruptions {
            fsys.delete(&path).unwrap();
            fsys.append(&path, &bytes, None).unwrap();
            let got = PartitionStore::recover(fsys.clone(), "/db/t/p0/", schema(), config(), None);
            assert!(matches!(got, Err(VhError::Storage(_))), "{what}");
        }
        fsys.delete(&path).unwrap();
        fsys.append(&path, &good, None).unwrap();
        let r = PartitionStore::recover(fsys, "/db/t/p0/", schema(), config(), None).unwrap();
        assert_eq!(r.row_count(), 100);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut s = store(10);
        assert!(s.append_rows(&[ColumnData::I64(vec![1])]).is_err());
        s.append_rows(&cols(0, 10)).unwrap();
        let path = s.alloc_chunk_path();
        assert!(s
            .install_chunk(0, &path, &[ColumnData::I64(vec![1])])
            .is_err());
    }

    #[test]
    fn install_chunk_keeps_old_file_until_swept() {
        let mut s = store(100);
        s.append_rows(&cols(0, 100)).unwrap();
        let old_path = s.chunk_meta(0).path.clone();
        let path = s.alloc_chunk_path();
        let new = vec![
            ColumnData::I64(vec![1000, 2000]),
            ColumnData::I32(vec![1, 2]),
        ];
        let returned = s.install_chunk(0, &path, &new).unwrap();
        assert_eq!(returned, old_path);
        assert_eq!(s.read_column(0, 0, None).unwrap(), new[0]);
        assert_eq!(s.minmax().stats(0, 0).unwrap().min, Value::I64(1000));
        // The old file survives until deferred deletion sweeps it.
        assert!(s.fs.exists(&old_path));
        s.defer_delete(vec![returned]);
        assert_eq!(s.deferred().len(), 1);
        let swept = s.sweep_deferred().unwrap();
        assert_eq!(swept, vec![old_path.clone()]);
        assert!(!s.fs.exists(&old_path));
        assert!(s.deferred().is_empty());
        assert!(
            s.sweep_deferred().unwrap().is_empty(),
            "sweep is idempotent"
        );
    }

    #[test]
    fn push_chunk_at_appends_without_touching_existing_files() {
        let mut s = store(100);
        s.append_rows(&cols(0, 100)).unwrap();
        let first = s.chunk_meta(0).path.clone();
        let path = s.alloc_chunk_path();
        s.push_chunk_at(&path, &cols(100, 50)).unwrap();
        assert_eq!(s.n_chunks(), 2);
        assert_eq!(s.row_count(), 150);
        assert_eq!(s.chunk_meta(0).path, first);
        assert_eq!(s.read_column(1, 0, None).unwrap().as_i64().unwrap()[0], 100);
        assert_eq!(s.minmax().stats(1, 0).unwrap().min, Value::I64(100));
    }

    #[test]
    fn gc_orphans_removes_uncommitted_images_only() {
        let mut s = store(100);
        s.append_rows(&cols(0, 100)).unwrap();
        // A crashed propagation left a half-written replacement image and
        // an allocated-but-never-written path; a WAL shares the directory.
        let orphan = s.alloc_chunk_path();
        chunk::write_chunk(&s.fs.clone(), &orphan, &cols(0, 10), None).unwrap();
        s.fs.append("/db/t/p0/p0.wal", b"not a chunk", None)
            .unwrap();
        // A deferred file from the previous committed generation must not
        // be gc'd out from under in-flight scans.
        let kept = s.alloc_chunk_path();
        chunk::write_chunk(&s.fs.clone(), &kept, &cols(0, 5), None).unwrap();
        s.defer_delete(vec![kept.clone()]);
        let removed = s.gc_orphans().unwrap();
        assert_eq!(removed, vec![orphan.clone()]);
        assert!(!s.fs.exists(&orphan));
        assert!(s.fs.exists(&kept));
        assert!(s.fs.exists("/db/t/p0/p0.wal"));
        assert!(s.fs.exists(&s.chunk_meta(0).path.clone()));
        assert!(s.gc_orphans().unwrap().is_empty(), "gc is idempotent");
    }

    #[test]
    fn drop_all_empties_partition() {
        let mut s = store(10);
        s.append_rows(&cols(0, 35)).unwrap();
        s.drop_all().unwrap();
        assert_eq!(s.n_chunks(), 0);
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.total_bytes(), 0);
    }
}

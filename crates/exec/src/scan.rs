//! MScan: the merging table scan.
//!
//! Reads a partition's chunk files column-wise, *skips* chunks the MinMax
//! index rules out (saving both IO and decompression CPU, §2), and merges in
//! PDT differences positionally while streaming (§2/§6: merging "happens
//! for each and every query" and must be cheap). The PDT influence arrives
//! as a pre-composed [`MergeStep`] plan in stable coordinates, so the hot
//! path of an update-free scan is a straight run of `CopyStable` block
//! copies.
//!
//! Pruning correctness with updates relies on the §6 MinMax maintenance
//! rules: the engine widens chunk stats when inserts/modifies land in a
//! chunk's range, so a pruned chunk provably contains no matching rows; the
//! plan rows of pruned chunks are therefore dropped without IO.

use std::sync::Arc;

use vectorh_common::{ColumnData, Result, Schema, VhError, VECTOR_SIZE};
use vectorh_pdt::MergeStep;
use vectorh_storage::PartitionStore;

use crate::batch::Batch;
use crate::operator::{Counters, OpProfile, Operator};

/// The merging scan operator.
pub struct MScan {
    store: PartitionStore,
    /// Projected column indexes (into the table schema).
    cols: Vec<usize>,
    /// Table-column → projected-position map.
    col_pos: Vec<Option<usize>>,
    /// Chunk-keep flags from MinMax pruning.
    keep: Vec<bool>,
    /// Merge plan in stable coordinates (remaining work at the front).
    plan: std::collections::VecDeque<MergeStep>,
    /// Progress inside the front CopyStable/SkipStable step.
    step_off: u64,
    /// (sid_base, n_rows) per chunk.
    chunk_ranges: Vec<(u64, u64)>,
    /// Cached data of the chunk currently being copied.
    cached_chunk: Option<(usize, Vec<ColumnData>)>,
    reader: Option<vectorh_common::NodeId>,
    out_schema: Arc<Schema>,
    counters: Counters,
    done: bool,
}

impl MScan {
    /// Create a scan over `store` projecting `cols`, applying `plan`
    /// (typically `Layers::merged_plan()`); `keep[chunk]` marks chunks that
    /// survived MinMax pruning (`vec![true; n]` to disable skipping).
    pub fn new(
        store: PartitionStore,
        cols: Vec<usize>,
        keep: Vec<bool>,
        plan: Vec<MergeStep>,
        reader: Option<vectorh_common::NodeId>,
    ) -> Result<MScan> {
        if keep.len() != store.n_chunks() {
            return Err(VhError::Exec(format!(
                "keep flags ({}) != chunks ({})",
                keep.len(),
                store.n_chunks()
            )));
        }
        let out_schema = Arc::new(store.schema().project(&cols));
        let mut col_pos = vec![None; store.schema().len()];
        for (p, &c) in cols.iter().enumerate() {
            col_pos[c] = Some(p);
        }
        let chunk_ranges = (0..store.n_chunks())
            .map(|i| (store.chunk_sid_base(i), store.chunk_meta(i).n_rows as u64))
            .collect();
        Ok(MScan {
            store,
            cols,
            col_pos,
            keep,
            plan: plan.into(),
            step_off: 0,
            chunk_ranges,
            cached_chunk: None,
            reader,
            out_schema,
            counters: Counters::default(),
            done: false,
        })
    }

    /// Convenience: scan everything with no updates pending.
    pub fn full(
        store: PartitionStore,
        cols: Vec<usize>,
        reader: Option<vectorh_common::NodeId>,
    ) -> Result<MScan> {
        let n = store.row_count();
        let keep = vec![true; store.n_chunks()];
        let plan = if n > 0 {
            vec![MergeStep::CopyStable {
                from_sid: 0,
                count: n,
            }]
        } else {
            vec![]
        };
        MScan::new(store, cols, keep, plan, reader)
    }

    fn chunk_of_sid(&self, sid: u64) -> Option<usize> {
        self.chunk_ranges
            .iter()
            .position(|&(base, rows)| sid >= base && sid < base + rows)
    }

    fn load_chunk(&mut self, idx: usize) -> Result<&Vec<ColumnData>> {
        let stale = match &self.cached_chunk {
            Some((i, _)) => *i != idx,
            None => true,
        };
        if stale {
            let data = self.store.read_columns(idx, &self.cols, self.reader)?;
            self.cached_chunk = Some((idx, data));
        }
        Ok(&self.cached_chunk.as_ref().unwrap().1)
    }

    /// Copy rows `[sid, sid+n)` (all within one chunk) into the builders.
    fn copy_rows(
        &mut self,
        chunk: usize,
        sid: u64,
        n: u64,
        builders: &mut [ColumnData],
    ) -> Result<()> {
        let base = self.chunk_ranges[chunk].0;
        let from = (sid - base) as usize;
        let to = from + n as usize;
        let data = self.load_chunk(chunk)?;
        let slices: Vec<ColumnData> = data.iter().map(|c| c.slice(from, to)).collect();
        for (b, s) in builders.iter_mut().zip(&slices) {
            b.append(s)?;
        }
        Ok(())
    }

    /// Emit one full-width row given as values, projected.
    fn emit_row(
        &self,
        values: &[vectorh_common::Value],
        builders: &mut [ColumnData],
    ) -> Result<()> {
        for (p, &c) in self.cols.iter().enumerate() {
            builders[p].push_value(&values[c])?;
        }
        Ok(())
    }
}

impl Operator for MScan {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        // Split borrows: counters tracked manually to keep &mut self free.
        let start = std::time::Instant::now();
        let mut builders: Vec<ColumnData> = self
            .out_schema
            .fields()
            .iter()
            .map(|f| ColumnData::with_capacity(f.dtype, VECTOR_SIZE))
            .collect();
        let mut produced = 0usize;

        'fill: while produced < VECTOR_SIZE {
            let Some(step) = self.plan.front().cloned() else {
                self.done = true;
                break 'fill;
            };
            match step {
                MergeStep::SkipStable { .. } => {
                    self.plan.pop_front();
                }
                MergeStep::EmitInsert { ref values, .. } => {
                    self.emit_row(values, &mut builders)?;
                    produced += 1;
                    self.counters.rows_in += 1;
                    self.plan.pop_front();
                }
                MergeStep::ModifyStable { sid, ref mods } => {
                    if let Some(chunk) = self.chunk_of_sid(sid) {
                        if self.keep[chunk] {
                            // Materialize the projected row, then patch.
                            let base = self.chunk_ranges[chunk].0;
                            let at = (sid - base) as usize;
                            let out_schema = self.out_schema.clone();
                            let data = self.load_chunk(chunk)?;
                            let mut row: Vec<vectorh_common::Value> = data
                                .iter()
                                .enumerate()
                                .map(|(p, col)| col.value_at(at, out_schema.dtype(p)))
                                .collect();
                            for (c, v) in mods {
                                if let Some(p) = self.col_pos[*c] {
                                    row[p] = v.clone();
                                }
                            }
                            for (p, b) in builders.iter_mut().enumerate() {
                                b.push_value(&row[p])?;
                            }
                            produced += 1;
                            self.counters.rows_in += 1;
                        }
                    }
                    self.plan.pop_front();
                }
                MergeStep::CopyStable { from_sid, count } => {
                    let sid = from_sid + self.step_off;
                    if self.step_off == count {
                        self.plan.pop_front();
                        self.step_off = 0;
                        continue 'fill;
                    }
                    let Some(chunk) = self.chunk_of_sid(sid) else {
                        return Err(VhError::Exec(format!("sid {sid} outside all chunks")));
                    };
                    let (base, rows) = self.chunk_ranges[chunk];
                    let chunk_left = base + rows - sid;
                    let step_left = count - self.step_off;
                    let take = chunk_left.min(step_left);
                    if self.keep[chunk] {
                        let cap_left = (VECTOR_SIZE - produced) as u64;
                        let take = take.min(cap_left);
                        self.copy_rows(chunk, sid, take, &mut builders)?;
                        produced += take as usize;
                        self.counters.rows_in += take;
                        self.step_off += take;
                    } else {
                        // Pruned chunk: drop the rows without IO.
                        self.step_off += take;
                    }
                    if self.step_off == count {
                        self.plan.pop_front();
                        self.step_off = 0;
                    }
                }
            }
        }

        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if produced == 0 {
            self.done = true;
            return Ok(None);
        }
        self.counters.rows_out += produced as u64;
        Ok(Some(Batch::new(self.out_schema.clone(), builders)?))
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile("MScan")
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
    use vectorh_common::{DataType, NodeId, Value};
    use vectorh_pdt::tree::Pdt;
    use vectorh_pdt::Layers;
    use vectorh_storage::minmax::PruneOp;
    use vectorh_storage::StorageConfig;

    fn store(rows_per_chunk: usize, n: i64) -> PartitionStore {
        let fs: StoreRef = StdArc::new(SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 1024,
                default_replication: 2,
            },
            StdArc::new(DefaultPolicy::new(7)),
        ));
        let schema = Schema::of(&[("k", DataType::I64), ("tag", DataType::Str)]);
        let mut s = PartitionStore::new(fs, "/db/t/p0/", schema, StorageConfig { rows_per_chunk });
        let cols = vec![
            ColumnData::I64((0..n).collect()),
            ColumnData::Str((0..n).map(|i| format!("t{}", i % 4)).collect()),
        ];
        s.append_rows(&cols).unwrap();
        s
    }

    fn drain(scan: &mut MScan) -> Vec<Vec<Value>> {
        crate::batch::collect_rows(scan).unwrap()
    }

    #[test]
    fn full_scan_returns_everything() {
        let s = store(100, 250);
        let mut scan = MScan::full(s, vec![0, 1], None).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 250);
        assert_eq!(rows[0][0], Value::I64(0));
        assert_eq!(rows[249][0], Value::I64(249));
        assert_eq!(scan.profile().rows_out, 250);
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let s = store(100, 200);
        let mut scan = MScan::full(s, vec![1], None).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[0].len(), 1);
        assert_eq!(rows[0][0], Value::Str("t0".into()));
    }

    #[test]
    fn pruned_chunks_are_not_read() {
        let s = store(100, 300);
        let keep = s.prune(&vec![(0, PruneOp::Lt, Value::I64(150))]);
        assert_eq!(keep, vec![true, true, false]);
        {
            let mut scan = MScan::new(
                s.clone(),
                vec![0],
                keep,
                vec![MergeStep::CopyStable {
                    from_sid: 0,
                    count: 300,
                }],
                None,
            )
            .unwrap();
            let rows = drain(&mut scan);
            // rows from pruned chunk 2 are dropped (they can't match k<150)
            assert_eq!(rows.len(), 200);
            assert_eq!(rows.last().unwrap()[0], Value::I64(199));
        };
    }

    #[test]
    fn merge_plan_applies_updates() {
        let s = store(100, 100);
        let mut pdt = Pdt::new();
        pdt.insert_at(0, vec![Value::I64(-1), Value::Str("new".into())], 1, 100)
            .unwrap();
        pdt.delete_at(51, 100).unwrap(); // deletes stable row 50 (shifted by insert)
        pdt.modify_at(11, 1, Value::Str("patched".into()), 100)
            .unwrap(); // stable row 10
        let layers = Layers::new(100, vec![&pdt]);
        let plan = layers.merged_plan();
        let keep = vec![true; s.n_chunks()];
        let mut scan = MScan::new(s, vec![0, 1], keep, plan, None).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 100); // +1 insert, -1 delete
        assert_eq!(rows[0], vec![Value::I64(-1), Value::Str("new".into())]);
        assert_eq!(rows[11], vec![Value::I64(10), Value::Str("patched".into())]);
        assert!(!rows.iter().any(|r| r[0] == Value::I64(50)));
    }

    #[test]
    fn modify_of_unprojected_column_is_ignored() {
        let s = store(100, 20);
        let mut pdt = Pdt::new();
        pdt.modify_at(3, 1, Value::Str("x".into()), 20).unwrap();
        let plan = Layers::new(20, vec![&pdt]).merged_plan();
        let mut scan = MScan::new(s, vec![0], vec![true], plan, None).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[3], vec![Value::I64(3)]);
    }

    #[test]
    fn trailing_inserts_after_last_chunk() {
        let s = store(50, 50);
        let mut pdt = Pdt::new();
        pdt.insert_at(50, vec![Value::I64(999), Value::Str("app".into())], 7, 50)
            .unwrap();
        let plan = Layers::new(50, vec![&pdt]).merged_plan();
        let mut scan = MScan::new(s, vec![0, 1], vec![true], plan, None).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 51);
        assert_eq!(rows[50][0], Value::I64(999));
    }

    #[test]
    fn empty_partition_scan() {
        let fs: StoreRef = StdArc::new(SimHdfs::new(
            2,
            BlockStoreConfig::default(),
            StdArc::new(DefaultPolicy::new(1)),
        ));
        let s = PartitionStore::new(
            fs,
            "/db/e/p0/",
            Schema::of(&[("k", DataType::I64)]),
            StorageConfig::default(),
        );
        let mut scan = MScan::full(s, vec![0], None).unwrap();
        assert!(scan.next().unwrap().is_none());
    }

    #[test]
    fn scan_reads_local_when_reader_holds_replica() {
        let fs: StoreRef = StdArc::new(SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 2048,
                default_replication: 3,
            },
            StdArc::new(DefaultPolicy::new(9)),
        ));
        let schema = Schema::of(&[("k", DataType::I64)]);
        let mut s = PartitionStore::new(
            fs.clone(),
            "/db/l/p0/",
            schema,
            StorageConfig { rows_per_chunk: 64 },
        );
        s.set_home(Some(NodeId(1)));
        s.append_rows(&[ColumnData::I64((0..200).collect())])
            .unwrap();
        let before = fs.stats().snapshot();
        let mut scan = MScan::full(s, vec![0], Some(NodeId(1))).unwrap();
        let rows = drain(&mut scan);
        assert_eq!(rows.len(), 200);
        let delta = fs.stats().snapshot().since(&before);
        assert_eq!(
            delta.remote_read_bytes, 0,
            "scan must be fully short-circuit"
        );
    }
}

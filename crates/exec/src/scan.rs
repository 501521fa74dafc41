//! MScan: the merging table scan.
//!
//! Reads a partition's chunk files column-wise, *skips* chunks the MinMax
//! index rules out (saving both IO and decompression CPU, §2), and merges in
//! PDT differences positionally while streaming (§2/§6: merging "happens
//! for each and every query" and must be cheap). The PDT influence arrives
//! as a pre-composed [`MergeStep`] plan in stable coordinates, so the hot
//! path of an update-free scan is a straight run of `CopyStable` block
//! copies. This is the one interpreter of a merge plan: update propagation
//! folds a chunk by draining a scan of it ([`MScan::into_columns`]).
//!
//! One chunk's decoded columns are held at a time and every `CopyStable`
//! range is appended from them to the output vector with
//! `ColumnData::extend_range`: a `memcpy` per numeric column, one of codes
//! per PDICT string column (the vector shares the chunk's dictionary), one
//! for the bytes and a pass over the offsets per LZ string column, no
//! allocation per value. A vector that takes rows of two chunks, a pending
//! insert or a modified value holds its strings as bytes from there on. A
//! plan consumes stable SIDs in ascending order, each at most
//! once; `consume` checks that on every step, so a plan that would emit a
//! row twice or out of order is an error, not a wrong answer.
//!
//! Pruning stays on while updates are pending. The MinMax index describes
//! the stable image only and nothing touches it at commit; instead
//! [`keep_chunks`] reads the merge plan: a pruned chunk provably holds no
//! *stable* row that matches, so the only pending change that could make one
//! of its rows match is a `ModifyStable` of a pruning column, and a chunk
//! with such a step is kept. Pending inserts are emitted whatever `keep`
//! says (the `Select` above filters them) and pending deletes only remove
//! rows. The plan rows of pruned chunks are dropped without IO, but they
//! still advance the position counter behind [`MScan::with_rids`].

use std::sync::Arc;

use vectorh_common::{ColumnData, DataType, Field, Result, Schema, VhError, VECTOR_SIZE};
use vectorh_pdt::MergeStep;
use vectorh_storage::minmax::Pruning;
use vectorh_storage::PartitionStore;

use crate::batch::Batch;
use crate::operator::{Counters, OpProfile, Operator};

/// Name of the trailing position column of [`MScan::with_rids`].
pub const RID_COLUMN: &str = "__rid";

/// `keep[chunk]` for a scan of `store` under the merge plan `plan` and the
/// prunable conjuncts `pruning`: MinMax pruning over the stable image, then
/// every chunk with a pending modify of a pruning column is kept after all
/// (see the module comment for why inserts and deletes need nothing).
pub fn keep_chunks(store: &PartitionStore, pruning: &Pruning, plan: &[MergeStep]) -> Vec<bool> {
    if pruning.is_empty() {
        return vec![true; store.n_chunks()];
    }
    let mut keep = store.prune(pruning);
    // Exclusive SID end of each chunk.
    let ends: Vec<u64> = (0..keep.len())
        .scan(0u64, |end, i| {
            *end += store.chunk_meta(i).n_rows as u64;
            Some(*end)
        })
        .collect();
    for step in plan {
        let MergeStep::ModifyStable { sid, mods } = step else {
            continue;
        };
        let hits_pruning_col = mods
            .iter()
            .any(|(c, _)| pruning.iter().any(|(pc, _, _)| pc == c));
        if hits_pruning_col {
            if let Some(k) = keep.get_mut(ends.partition_point(|end| end <= sid)) {
                *k = true;
            }
        }
    }
    keep
}

/// The merging scan operator.
pub struct MScan {
    store: PartitionStore,
    /// Projected column indexes (into the table schema).
    cols: Vec<usize>,
    /// Table-column → projected-position map.
    col_pos: Vec<Option<usize>>,
    /// Chunk-keep flags from MinMax pruning.
    keep: Vec<bool>,
    /// Merge plan in stable coordinates: the work still to do, the rest of a
    /// partly copied `CopyStable` run at the front.
    plan: std::collections::VecDeque<MergeStep>,
    /// First stable SID no step has consumed yet (see [`MScan::consume`]).
    next_sid: u64,
    /// (sid_base, n_rows) per chunk.
    chunk_ranges: Vec<(u64, u64)>,
    /// Decoded columns of the chunk being scanned.
    cached_chunk: Option<(usize, Vec<ColumnData>)>,
    reader: Option<vectorh_common::NodeId>,
    out_schema: Arc<Schema>,
    /// Position in the merged image of the next row the plan yields; rows
    /// of pruned chunks count, so a RID means the same with and without
    /// pruning.
    next_rid: u64,
    /// Emit each row's position as a trailing [`RID_COLUMN`].
    emit_rids: bool,
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
            next_sid: 0,
            chunk_ranges,
            cached_chunk: None,
            reader,
            out_schema,
            next_rid: 0,
            emit_rids: false,
            counters: Counters::default(),
            done: false,
        })
    }

    /// Also emit each row's position in the merged image (the RID that
    /// `insert_at`/`delete_at`/`modify_at` take) as a trailing `I64`
    /// [`RID_COLUMN`]. DML evaluates its predicate through this.
    pub fn with_rids(mut self) -> MScan {
        let mut fields = self.out_schema.fields().to_vec();
        fields.push(Field::new(RID_COLUMN, DataType::I64));
        self.out_schema = Arc::new(Schema::new(fields));
        self.emit_rids = true;
        self
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
        // Chunks tile `[0, row_count)` in order.
        let chunk = self
            .chunk_ranges
            .partition_point(|&(base, rows)| base + rows <= sid);
        (chunk < self.chunk_ranges.len()).then_some(chunk)
    }

    /// Claim stable rows `[sid, sid + n)` for the step being applied. A merge
    /// plan consumes stable SIDs in ascending order, each at most once; a
    /// step that goes back would emit a row a second time.
    fn consume(&mut self, sid: u64, n: u64) -> Result<()> {
        if sid < self.next_sid {
            return Err(VhError::Exec(format!(
                "merge plan goes back to sid {sid} (rows below {} are consumed)",
                self.next_sid
            )));
        }
        self.next_sid = sid + n;
        Ok(())
    }

    fn load_chunk(&mut self, idx: usize) -> Result<&[ColumnData]> {
        if !matches!(&self.cached_chunk, Some((i, _)) if *i == idx) {
            let data = self.store.read_columns(idx, &self.cols, self.reader)?;
            self.cached_chunk = Some((idx, data));
        }
        Ok(&self.cached_chunk.as_ref().expect("loaded above").1)
    }

    /// Append rows `[sid, sid+n)` (all within one chunk, claimed with
    /// [`Self::consume`]) of the decoded chunk to the builders.
    fn copy_rows(&mut self, chunk: usize, sid: u64, n: u64, out: &mut [ColumnData]) -> Result<()> {
        let from = (sid - self.chunk_ranges[chunk].0) as usize;
        let to = from + n as usize;
        for (b, c) in out.iter_mut().zip(self.load_chunk(chunk)?) {
            b.extend_range(c, from, to)?;
        }
        Ok(())
    }

    /// Empty output columns: the common vector lies inside one `CopyStable`
    /// run of one chunk, and its first `extend_range` sizes each exactly.
    fn builders(&self) -> Vec<ColumnData> {
        let fields = &self.out_schema.fields()[..self.cols.len()];
        fields.iter().map(|f| ColumnData::new(f.dtype)).collect()
    }

    /// The one loop that applies the plan: steps go into the empty
    /// `builders` (and `rids`) until `limit` rows are out or the plan ends.
    /// Returns the rows produced.
    fn fill(
        &mut self,
        builders: &mut [ColumnData],
        rids: &mut Vec<i64>,
        limit: usize,
    ) -> Result<usize> {
        let mut produced = 0usize;
        while produced < limit {
            let Some(step) = self.plan.pop_front() else {
                self.done = true;
                break;
            };
            match step {
                MergeStep::SkipStable { from_sid, count } => self.consume(from_sid, count)?,
                MergeStep::EmitInsert { values, .. } => {
                    for (p, &c) in self.cols.iter().enumerate() {
                        builders[p].push_value(&values[c])?;
                    }
                    if self.emit_rids {
                        rids.push(self.next_rid as i64);
                    }
                    self.next_rid += 1;
                    produced += 1;
                    self.counters.rows_in += 1;
                }
                MergeStep::ModifyStable { sid, mods } => {
                    self.consume(sid, 1)?;
                    let Some(chunk) = self.chunk_of_sid(sid) else {
                        return Err(VhError::Exec(format!(
                            "modify of sid {sid} outside all chunks"
                        )));
                    };
                    if self.keep[chunk] {
                        // The stable row, then the patches over its tail.
                        self.copy_rows(chunk, sid, 1, builders)?;
                        for (c, v) in mods {
                            if let Some(p) = self.col_pos[c] {
                                builders[p].truncate(produced);
                                builders[p].push_value(&v)?;
                            }
                        }
                        if self.emit_rids {
                            rids.push(self.next_rid as i64);
                        }
                        produced += 1;
                        self.counters.rows_in += 1;
                    }
                    self.next_rid += 1;
                }
                MergeStep::CopyStable { from_sid, count } => {
                    if count == 0 {
                        continue;
                    }
                    let Some(chunk) = self.chunk_of_sid(from_sid) else {
                        return Err(VhError::Exec(format!("sid {from_sid} outside all chunks")));
                    };
                    let (base, rows) = self.chunk_ranges[chunk];
                    // A pruned chunk's rows are dropped without IO, however
                    // many; a kept chunk's fill the vector at most.
                    let kept = self.keep[chunk];
                    let mut take = count.min(base + rows - from_sid);
                    if kept {
                        take = take.min((limit - produced) as u64);
                    }
                    self.consume(from_sid, take)?;
                    if kept {
                        self.copy_rows(chunk, from_sid, take, builders)?;
                        if self.emit_rids {
                            rids.extend(self.next_rid as i64..(self.next_rid + take) as i64);
                        }
                        produced += take as usize;
                        self.counters.rows_in += take;
                    }
                    self.next_rid += take;
                    if take < count {
                        self.plan.push_front(MergeStep::CopyStable {
                            from_sid: from_sid + take,
                            count: count - take,
                        });
                    }
                }
            }
        }
        Ok(produced)
    }

    /// Apply the whole plan with no row limit: the output columns, built in
    /// place (update propagation folds a chunk this way).
    pub fn into_columns(mut self) -> Result<Vec<ColumnData>> {
        let mut builders = self.builders();
        self.fill(&mut builders, &mut Vec::new(), usize::MAX)?;
        Ok(builders)
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
        let start = std::time::Instant::now();
        let mut builders = self.builders();
        let mut rids: Vec<i64> = Vec::with_capacity(if self.emit_rids { VECTOR_SIZE } else { 0 });
        let produced = self.fill(&mut builders, &mut rids, VECTOR_SIZE)?;
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if produced == 0 {
            self.done = true;
            return Ok(None);
        }
        self.counters.rows_out += produced as u64;
        if self.emit_rids {
            builders.push(ColumnData::I64(rids));
        }
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
        store_tagged(rows_per_chunk, n, |i| format!("t{}", i % 4))
    }

    /// `n` rows `(k, tag(k))` for `k` in `0..n`.
    fn store_tagged(rows_per_chunk: usize, n: i64, tag: fn(i64) -> String) -> PartitionStore {
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
            ColumnData::Str((0..n).map(tag).collect()),
        ];
        s.append_rows(&cols).unwrap();
        s
    }

    /// A one-column partition nothing was ever appended to.
    fn empty_store() -> PartitionStore {
        let fs: StoreRef = StdArc::new(SimHdfs::new(
            2,
            BlockStoreConfig::default(),
            StdArc::new(DefaultPolicy::new(1)),
        ));
        PartitionStore::new(
            fs,
            "/db/e/p0/",
            Schema::of(&[("k", DataType::I64)]),
            StorageConfig::default(),
        )
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

    /// Stable rows of `store(_, n)` as the reference applier wants them.
    fn stable_rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::I64(i), Value::Str(format!("t{}", i % 4))])
            .collect()
    }

    #[test]
    fn rids_are_positions_in_the_merged_image_even_past_pruned_chunks() {
        let s = store(100, 300);
        let mut pdt = Pdt::new();
        pdt.insert_at(0, vec![Value::I64(-1), Value::Str("new".into())], 1, 300)
            .unwrap();
        pdt.delete_at(51, 300).unwrap(); // stable row 50, chunk 0
        pdt.modify_at(119, 1, Value::Str("patched".into()), 300)
            .unwrap(); // stable row 119, chunk 1
        pdt.insert_at(250, vec![Value::I64(-2), Value::Str("mid".into())], 2, 300)
            .unwrap(); // lands inside chunk 2
        let plan = Layers::new(300, vec![&pdt]).merged_plan();
        let want = vectorh_pdt::merge::apply_plan(&plan, &stable_rows(300));
        for keep in [
            vec![true, true, true],
            vec![false, true, false],
            vec![true, false, true],
            vec![false, false, false],
        ] {
            let mut scan = MScan::new(s.clone(), vec![0, 1], keep.clone(), plan.clone(), None)
                .unwrap()
                .with_rids();
            assert_eq!(scan.schema().fields()[2].name, RID_COLUMN);
            let rows = drain(&mut scan);
            // Inserts survive every `keep`; stable rows only in kept chunks.
            let kept_stable: usize = [99, 100, 100] // chunk 0 lost row 50
                .iter()
                .zip(&keep)
                .map(|(n, k)| if *k { *n } else { 0 })
                .sum();
            assert_eq!(rows.len(), kept_stable + 2, "keep {keep:?}");
            let mut last = -1;
            for row in rows {
                let Value::I64(rid) = row[2] else {
                    panic!("rid column must be I64, got {:?}", row[2])
                };
                assert!(rid > last, "rids ascend");
                last = rid;
                assert_eq!(row[..2], want[rid as usize][..], "rid {rid} keep {keep:?}");
            }
        }
    }

    #[test]
    fn one_vector_takes_a_chunk_boundary_an_insert_and_a_modify() {
        // Strings no two rows share, so a value that is copied twice, left
        // behind or put in the wrong row shows.
        let tag = |i: i64| format!("row-{i}-payload");
        let s = store_tagged(600, 1500, tag); // chunks of 600, 600 and 300 rows
        let mut pdt = Pdt::new();
        pdt.insert_at(
            300,
            vec![Value::I64(-1), Value::Str("inserted".into())],
            1,
            1500,
        )
        .unwrap();
        pdt.modify_at(651, 1, Value::Str("patched".into()), 1500)
            .unwrap(); // stable row 650, fifty rows into chunk 1
        pdt.delete_at(1300, 1500).unwrap(); // stable row 1299, chunk 2
        let plan = Layers::new(1500, vec![&pdt]).merged_plan();
        let stable: Vec<Vec<Value>> = (0..1500)
            .map(|i| vec![Value::I64(i), Value::Str(tag(i))])
            .collect();
        let want = vectorh_pdt::merge::apply_plan(&plan, &stable);
        assert_eq!(want.len(), 1500);

        let mut scan = MScan::new(s.clone(), vec![0, 1], vec![true; 3], plan.clone(), None)
            .unwrap()
            .with_rids();
        let mut got = Vec::new();
        let mut sizes = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            sizes.push(b.len());
            got.extend(b.rows());
        }
        // The first vector holds rows 0..300 of chunk 0, the insert, the
        // rest of chunk 0, and chunk 1 up to and past the modified row.
        assert_eq!(sizes, vec![1024, 476]);
        for (rid, row) in got.iter().enumerate() {
            assert_eq!(row[..2], want[rid][..], "row {rid}");
            assert_eq!(row[2], Value::I64(rid as i64));
        }
        assert_eq!(got[300][1], Value::Str("inserted".into()));
        assert_eq!(got[651][1], Value::Str("patched".into()));

        // The string column alone, chunk 1 pruned: the modified row goes
        // with its chunk, the insert stays.
        let keep = vec![true, false, true];
        let mut scan = MScan::new(s, vec![1], keep, plan, None).unwrap();
        let rows = drain(&mut scan);
        let kept: Vec<Vec<Value>> = want
            .iter()
            .filter(|r| !matches!(r[0], Value::I64(k) if (600..1200).contains(&k)))
            .map(|r| vec![r[1].clone()])
            .collect();
        assert_eq!(rows, kept);
    }

    #[test]
    fn a_plan_that_does_not_fit_the_manifest_is_an_error() {
        use MergeStep::*;
        let s = store(100, 200); // two chunks
        let run = |plan: Vec<MergeStep>| {
            let mut scan = MScan::new(s.clone(), vec![0, 1], vec![true; 2], plan, None).unwrap();
            crate::batch::collect_rows(&mut scan)
        };
        let copy = |from_sid, count| CopyStable { from_sid, count };
        let modify = |sid| ModifyStable {
            sid,
            mods: vec![(1, Value::Str("x".into()))],
        };
        assert_eq!(run(vec![copy(0, 150), copy(150, 50)]).unwrap().len(), 200);
        // Going back, by a copy, a modify or a skip, into either chunk.
        for (back, sid) in [
            (copy(120, 80), 120),
            (copy(40, 10), 40),
            (modify(149), 149),
            (
                SkipStable {
                    from_sid: 99,
                    count: 1,
                },
                99,
            ),
        ] {
            let err = run(vec![copy(0, 150), back]).unwrap_err();
            assert!(matches!(err, VhError::Exec(_)), "got {err}");
            assert!(err.to_string().contains(&format!("sid {sid}")), "got {err}");
        }
        // A step past the last stable row, whether it copies or modifies.
        for past in [modify(200), copy(200, 1)] {
            let err = run(vec![copy(0, 200), past]).unwrap_err();
            assert!(matches!(err, VhError::Exec(_)), "got {err}");
            assert!(err.to_string().contains("sid 200"), "got {err}");
        }
        // Also when the chunk the plan would have named is pruned.
        let mut scan =
            MScan::new(s.clone(), vec![0], vec![false; 2], vec![modify(200)], None).unwrap();
        assert!(scan.next().is_err());
    }

    #[test]
    fn rids_on_an_empty_partition_and_on_trailing_inserts() {
        let empty = empty_store();
        let mut scan = MScan::full(empty.clone(), vec![0], None)
            .unwrap()
            .with_rids();
        assert_eq!(scan.schema().len(), 2);
        assert!(scan.next().unwrap().is_none());
        // Nothing stable, two pending inserts: they are rows 0 and 1.
        let mut pdt = Pdt::new();
        pdt.insert_at(0, vec![Value::I64(7)], 1, 0).unwrap();
        pdt.insert_at(1, vec![Value::I64(8)], 2, 0).unwrap();
        let plan = Layers::new(0, vec![&pdt]).merged_plan();
        let mut scan = MScan::new(empty, vec![0], vec![], plan, None)
            .unwrap()
            .with_rids();
        assert_eq!(
            drain(&mut scan),
            vec![
                vec![Value::I64(7), Value::I64(0)],
                vec![Value::I64(8), Value::I64(1)]
            ]
        );

        let s = store(50, 50);
        let mut pdt = Pdt::new();
        pdt.insert_at(50, vec![Value::I64(999), Value::Str("app".into())], 7, 50)
            .unwrap();
        let plan = Layers::new(50, vec![&pdt]).merged_plan();
        // Even with the only chunk pruned the trailing insert is row 50.
        let mut scan = MScan::new(s, vec![0], vec![false], plan, None)
            .unwrap()
            .with_rids();
        assert_eq!(
            drain(&mut scan),
            vec![vec![Value::I64(999), Value::I64(50)]]
        );
    }

    #[test]
    fn keep_chunks_keeps_a_pruned_chunk_only_for_a_modified_pruning_column() {
        let s = store(100, 300);
        let pruning = vec![(0, PruneOp::Lt, Value::I64(150))];
        let keep_under = |pdt: &Pdt| {
            let plan = Layers::new(300, vec![pdt]).merged_plan();
            keep_chunks(&s, &pruning, &plan)
        };
        assert_eq!(keep_under(&Pdt::new()), vec![true, true, false]);
        // Inserts into, deletes from and modifies of another column of the
        // pruned chunk change nothing a `k < 150` scan could see there.
        let mut pdt = Pdt::new();
        pdt.insert_at(250, vec![Value::I64(3), Value::Str("in".into())], 1, 300)
            .unwrap();
        pdt.delete_at(280, 300).unwrap();
        pdt.modify_at(290, 1, Value::Str("x".into()), 300).unwrap();
        assert_eq!(keep_under(&pdt), vec![true, true, false]);
        // A modify of the pruning column may have moved the row into range.
        pdt.modify_at(260, 0, Value::I64(5), 300).unwrap();
        assert_eq!(keep_under(&pdt), vec![true, true, true]);
        // The scan then finds it, and the inserted k = 3, beside the 150
        // stable rows below 150.
        let plan = Layers::new(300, vec![&pdt]).merged_plan();
        let keep = keep_chunks(&s, &pruning, &plan);
        let mut scan = MScan::new(s.clone(), vec![0], keep, plan, None).unwrap();
        let low = drain(&mut scan)
            .into_iter()
            .filter(|r| r[0] < Value::I64(150))
            .count();
        assert_eq!(low, 150 + 2);
        // No prunable conjunct: everything is kept.
        assert_eq!(keep_chunks(&s, &vec![], &[]), vec![true, true, true]);
    }

    #[test]
    fn pdict_strings_leave_the_scan_as_codes_until_a_value_is_pushed() {
        // Four tags in no order LZ could match whole: PDICT, so each chunk
        // decodes to codes.
        fn tag(i: i64) -> String {
            format!("t{}", vectorh_common::util::hash_u64(i as u64) % 4)
        }
        let s = store_tagged(100, 300, tag);
        let coded = |b: &Batch| b.column(1).as_strs().unwrap().is_coded();
        let mut scan = MScan::full(s.clone(), vec![0, 1], None).unwrap();
        let b = scan.next().unwrap().unwrap();
        assert_eq!(b.len(), 300);
        // A vector across chunks holds two dictionaries' values: bytes.
        assert!(!coded(&b));
        let one_chunk = |plan| {
            let mut scan = MScan::new(s.clone(), vec![0, 1], vec![true; 3], plan, None).unwrap();
            scan.next().unwrap().unwrap()
        };
        let b = one_chunk(vec![MergeStep::CopyStable {
            from_sid: 100,
            count: 100,
        }]);
        assert!(coded(&b));
        assert_eq!(b.row(7), vec![Value::I64(107), Value::Str(tag(107))]);
        // A modified value is pushed: the vector turns flat, the rows stay.
        let b = one_chunk(vec![
            MergeStep::CopyStable {
                from_sid: 100,
                count: 50,
            },
            MergeStep::ModifyStable {
                sid: 150,
                mods: vec![(1, Value::Str("patched".into()))],
            },
            MergeStep::CopyStable {
                from_sid: 151,
                count: 49,
            },
        ]);
        assert_eq!(b.len(), 100);
        assert!(!coded(&b));
        assert_eq!(b.row(50)[1], Value::Str("patched".into()));
        assert_eq!(b.row(51)[1], Value::Str(tag(151)));
    }

    #[test]
    fn empty_partition_scan() {
        let mut scan = MScan::full(empty_store(), vec![0], None).unwrap();
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

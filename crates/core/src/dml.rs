//! Trickle DML: transactional inserts, deletes and updates through PDTs.
//!
//! The paper's headline updatability claim (§6): fine-grained updates land
//! in PDTs without touching the compressed columnar data, clustered tables
//! stay ordered (inserts go to their sort position), every query sees the
//! latest committed state, and update queries "get a distributed query plan
//! that ensures that each table partition is updated at its responsible
//! node". Commits run 2PC: per-partition WAL records + Prepare from the
//! responsible nodes, then the decision in the session master's global WAL,
//! which carries those records and is the one file a commit forces.

use std::cmp::Ordering;
use std::sync::Arc;

use vectorh_common::{ColumnData, PartitionId, Result, Value, VhError};
use vectorh_exec::expr::Expr;
use vectorh_exec::filter::Select;
use vectorh_exec::operator::Operator;
use vectorh_exec::scan::{keep_chunks, MScan};
use vectorh_storage::Pruning;
use vectorh_txn::twophase::Decision;
use vectorh_txn::{LogRecord, Transaction, TwoPhaseCoordinator, Wal};

use crate::engine::{partition_of, TableRuntime, VectorH};
use crate::execute::extract_pruning;

/// Order two full-width rows on the sort columns `order`.
pub(crate) fn cmp_on(order: &[usize], a: &[Value], b: &[Value]) -> Ordering {
    for &k in order {
        match a[k].partial_cmp(&b[k]) {
            Some(Ordering::Equal) | None => continue,
            Some(o) => return o,
        }
    }
    Ordering::Equal
}

impl VectorH {
    fn wal_of(&self, rt: &TableRuntime, pid: PartitionId) -> Result<Arc<Wal>> {
        rt.pids
            .iter()
            .position(|p| *p == pid)
            .map(|i| rt.wals[i].clone())
            .ok_or_else(|| VhError::Internal(format!("partition {pid} not in table")))
    }

    /// The scan DML reads through: columns `cols` of the transaction's image
    /// of the table's `i`-th partition, read at its responsible node, minus
    /// the chunks `pruning` rules out.
    fn dml_scan(
        &self,
        rt: &TableRuntime,
        txn: &Transaction,
        i: usize,
        cols: &[usize],
        pruning: &Pruning,
    ) -> Result<MScan> {
        let pid = rt.pids[i];
        let store = rt.stores[i].read().clone();
        let plan = txn.merged_plan(pid)?;
        let keep = keep_chunks(&store, pruning, &plan);
        MScan::new(
            store,
            cols.to_vec(),
            keep,
            plan,
            Some(self.responsible(pid)),
        )
    }

    /// Commit a transaction through the session master's 2PC
    /// ([`TwoPhaseCoordinator`]), all of it inside the transaction
    /// manager's persist step, so nothing is installed before the decision
    /// is durable: each partition the transaction wrote prepares (update
    /// records + `Prepare` vote in its responsible node's partition WAL,
    /// unforced); the fenced decision, carrying those records, is forced
    /// into the global WAL — the one fsync of the commit; then the phase-2
    /// `Commit` records land in the partition WALs, unforced. The commit
    /// runs under the master epoch observed at entry — an election in
    /// between fences it with [`VhError::StaleMaster`]. A coordinator crash
    /// injected at a prepare, or at the decision before it is logged,
    /// aborts the statement with nothing installed; one injected after the
    /// decision installs the transaction but leaves it in doubt, without
    /// phase 2. All three surface as [`VhError::TxnAbort`], and the next
    /// master's in-doubt resolution settles whatever prepared.
    fn commit_2pc(&self, rt: &TableRuntime, txn: Transaction) -> Result<u64> {
        let txn_id = txn.id;
        let epoch = self.master_epoch();
        if let Err(e) = self.coordinator.check_epoch(epoch) {
            self.txns.abort(txn);
            return Err(e);
        }
        let replicated = rt.def.partitioning.is_none();
        let mut shipped: Vec<LogRecord> = Vec::new();
        // What the statement reports once the transaction is installed.
        let mut installed = Ok(());
        let seq = self.txns.commit(txn, |parts| {
            let mut prepared: Vec<Arc<Wal>> = Vec::with_capacity(parts.len());
            for (pid, recs) in &parts {
                let wal = self.wal_of(rt, *pid)?;
                if !self.coordinator.prepare(txn_id, *pid, &wal, recs)? {
                    return Err(VhError::TxnAbort(format!(
                        "txn {txn_id} aborted: coordinator lost before {pid} prepared"
                    )));
                }
                prepared.push(wal);
            }
            if replicated {
                shipped = parts.values().flatten().cloned().collect();
            }
            match self
                .coordinator
                .decide(epoch, txn_id, parts.into_iter().collect())?
            {
                Decision::Lost => {
                    return Err(VhError::TxnAbort(format!(
                        "txn {txn_id} in doubt: coordinator lost before the decision"
                    )))
                }
                Decision::InDoubt => {
                    installed = Err(VhError::TxnAbort(format!(
                        "txn {txn_id} in doubt: coordinator lost before phase 2"
                    )))
                }
                // Phase 2 runs before the commit lets go of its partitions,
                // so any later checkpoint of one follows its `Commit` (the
                // global WAL's rotation rests on that). The decision is
                // durable: a failed verdict still installs.
                Decision::Committed => {
                    installed = prepared
                        .iter()
                        .try_for_each(|wal| TwoPhaseCoordinator::conclude(wal, txn_id, true));
                    if installed.is_ok() {
                        self.coordinator.concluded(txn_id);
                    }
                }
            }
            Ok(())
        })?;
        installed?;
        // Log shipping for replicated tables: the commit's records go into
        // the retained ship log, and every live worker applies them to its
        // replica state through the ordinary replay path (§6). A node that
        // is down right now catches up from the same log when it rejoins.
        if replicated && !shipped.is_empty() {
            let pid = rt.pids[0];
            let workers = self.workers();
            self.shipper
                .ship(pid, &shipped, workers.len().saturating_sub(1));
            self.apply_shipped(rt, pid, &workers)?;
        }
        Ok(seq)
    }

    /// Trickle-insert rows: each row goes to its hash partition, at its
    /// clustered sort position (ordinary append position for heap tables),
    /// through the PDT machinery.
    pub fn trickle_insert(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
        // DML is traffic too: it advances the background health plane.
        self.advance_health(1)?;
        let rt = self.table(table)?;
        let mut txn = self.txns.begin(&rt.pids)?;
        let staged = self.stage_inserts(&rt, &mut txn, rows);
        Ok(self.finish(&rt, txn, staged)?.0)
    }

    /// Commit `txn` if staging its operations went well, abort it if not:
    /// a transaction that is merely dropped keeps its partitions' active
    /// count up, and propagation waits for that count forever. Returns the
    /// commit sequence number beside what staging returned.
    fn finish<T>(
        &self,
        rt: &TableRuntime,
        txn: Transaction,
        staged: Result<T>,
    ) -> Result<(u64, T)> {
        match staged {
            Ok(v) => Ok((self.commit_2pc(rt, txn)?, v)),
            Err(e) => {
                self.txns.abort(txn);
                Err(e)
            }
        }
    }

    fn stage_inserts(
        &self,
        rt: &TableRuntime,
        txn: &mut Transaction,
        rows: Vec<Vec<Value>>,
    ) -> Result<()> {
        let n_parts = rt.n_partitions();
        // Bucket rows per partition.
        let mut buckets: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n_parts];
        match &rt.def.partitioning {
            Some((keys, _)) => {
                for row in rows {
                    let p = partition_of(&row, keys, n_parts);
                    buckets[p].push(row);
                }
            }
            None => buckets[0] = rows,
        }
        for (i, mut bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let pid = rt.pids[i];
            match &rt.def.sort_order {
                None => {
                    for row in bucket {
                        let end = txn.image_len(pid)?;
                        self.txns.insert_at(txn, pid, end, row)?;
                    }
                }
                Some(order) => {
                    // Insert in ascending key order so earlier inserts only
                    // shift later positions forward.
                    bucket.sort_by(|a, b| cmp_on(order, a, b));
                    let schema = &rt.def.schema;
                    let mut sort_cols: Vec<ColumnData> = order
                        .iter()
                        .map(|&k| ColumnData::new(schema.dtype(k)))
                        .collect();
                    let mut scan = self.dml_scan(rt, txn, i, order, &Pruning::new())?;
                    while let Some(batch) = scan.next()? {
                        for (j, col) in sort_cols.iter_mut().enumerate() {
                            col.append(batch.column(j))?;
                        }
                    }
                    let image = sort_cols.first().map(|c| c.len()).unwrap_or(0);
                    // Image row `idx` against a new row, on the sort columns.
                    let cmp_image = |idx: usize, row: &[Value]| -> Ordering {
                        for (col, &k) in sort_cols.iter().zip(order) {
                            match col.cmp_at(idx, schema.dtype(k), &row[k]) {
                                Some(Ordering::Equal) | None => continue,
                                Some(o) => return o,
                            }
                        }
                        Ordering::Equal
                    };
                    for (inserted, row) in bucket.into_iter().enumerate() {
                        // Upper-bound binary search on the original image.
                        let (mut lo, mut hi) = (0usize, image);
                        while lo < hi {
                            let mid = (lo + hi) / 2;
                            if cmp_image(mid, &row) == Ordering::Greater {
                                hi = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                        let rid = lo as u64 + inserted as u64;
                        self.txns.insert_at(txn, pid, rid, row)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Delete all rows matching `pred` (over the full table schema).
    /// Returns the number of rows deleted.
    pub fn delete_where(&self, table: &str, pred: &Expr) -> Result<u64> {
        self.mutate_where(table, pred, None)
    }

    /// Set `col` to `value` for all rows matching `pred`.
    pub fn update_where(&self, table: &str, pred: &Expr, col: usize, value: Value) -> Result<u64> {
        self.mutate_where(table, pred, Some((col, value)))
    }

    /// DML as a scan plan: per partition, `MScan(pred columns + RID) →
    /// Select(pred)` on the calling thread; the surviving RIDs feed
    /// `delete_at` / `modify_at`. Only the columns `pred` names are read,
    /// and only in the chunks MinMax pruning cannot rule out.
    fn mutate_where(&self, table: &str, pred: &Expr, set: Option<(usize, Value)>) -> Result<u64> {
        self.advance_health(1)?;
        let rt = self.table(table)?;
        // Re-base the predicate onto the projection of the columns it names.
        let mut cols: Vec<usize> = Vec::new();
        let pred = pred.map_cols(&mut |c| {
            cols.iter().position(|x| *x == c).unwrap_or_else(|| {
                cols.push(c);
                cols.len() - 1
            })
        });
        if let Some(c) = cols.iter().find(|c| **c >= rt.def.schema.len()) {
            return Err(VhError::InvalidArg(format!(
                "predicate names column {c}, table {table} has {}",
                rt.def.schema.len()
            )));
        }
        let mut txn = self.txns.begin(&rt.pids)?;
        let staged = self.stage_mutation(&rt, &mut txn, &cols, &pred, set);
        Ok(self.finish(&rt, txn, staged)?.1)
    }

    /// Find the rows `pred` (over the projection `cols`) selects and stage
    /// their delete, or the assignment `set`, in `txn`.
    fn stage_mutation(
        &self,
        rt: &TableRuntime,
        txn: &mut Transaction,
        cols: &[usize],
        pred: &Expr,
        set: Option<(usize, Value)>,
    ) -> Result<u64> {
        let pruning = extract_pruning(pred, cols);
        let mut touched = 0u64;
        for (i, pid) in rt.pids.iter().enumerate() {
            let scan = self.dml_scan(rt, txn, i, cols, &pruning)?.with_rids();
            let mut hits = Select::new(Box::new(scan), pred.clone());
            let mut rids: Vec<u64> = Vec::new();
            while let Some(batch) = hits.next()? {
                let col = batch.column(cols.len());
                let col = col
                    .as_i64()
                    .expect("MScan::with_rids appends an I64 column");
                rids.extend(col.iter().map(|r| *r as u64));
            }
            match &set {
                // Delete back-to-front so earlier deletes don't shift the
                // rids of later ones.
                None => {
                    for rid in rids.iter().rev() {
                        self.txns.delete_at(txn, *pid, *rid)?;
                    }
                }
                Some((col, value)) => {
                    for rid in &rids {
                        self.txns.modify_at(txn, *pid, *rid, *col, value.clone())?;
                    }
                }
            }
            touched += rids.len() as u64;
        }
        Ok(touched)
    }

    /// Delete rows whose column equals any of the given keys (the RF2
    /// refresh-function shape: `DELETE WHERE o_orderkey IN (...)`).
    pub fn delete_by_keys(&self, table: &str, col: usize, keys: &[Value]) -> Result<u64> {
        let pred = Expr::InList(Box::new(Expr::Col(col)), keys.to_vec());
        self.delete_where(table, &pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, TableBuilder};
    use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
    use vectorh_common::DataType;
    use vectorh_storage::minmax::PruneOp;

    fn engine() -> VectorH {
        VectorH::start(ClusterConfig {
            nodes: 3,
            rows_per_chunk: 64,
            hdfs_block_size: 8 * 1024,
            ..Default::default()
        })
        .unwrap()
    }

    fn mk_table(vh: &VectorH, clustered: bool) {
        let mut b = TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 4);
        if clustered {
            b = b.clustered_by(&["k"]);
        }
        vh.create_table(b).unwrap();
    }

    #[test]
    fn trickle_insert_into_clustered_table_keeps_order() {
        let vh = engine();
        mk_table(&vh, true);
        vh.insert_rows(
            "t",
            (0..100)
                .map(|i| vec![Value::I64(i * 2), Value::I64(i)])
                .collect(),
        )
        .unwrap();
        // Insert odd keys that must interleave.
        vh.trickle_insert(
            "t",
            vec![
                vec![Value::I64(5), Value::I64(-1)],
                vec![Value::I64(101), Value::I64(-2)],
                vec![Value::I64(-3), Value::I64(-3)],
            ],
        )
        .unwrap();
        assert_eq!(vh.table_rows("t").unwrap(), 103);
        // Every partition image must be sorted on k.
        let rt = vh.table("t").unwrap();
        for (i, pid) in rt.pids.iter().enumerate() {
            let store = rt.stores[i].read().clone();
            let plan = vh.txns.scan_plan(*pid).unwrap();
            let keep = vec![true; store.n_chunks()];
            let mut scan = MScan::new(store, vec![0], keep, plan, None).unwrap();
            let keys: Vec<Value> = vectorh_exec::batch::collect_rows(&mut scan)
                .unwrap()
                .into_iter()
                .map(|mut r| r.remove(0))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "partition {pid} out of order"
            );
        }
    }

    #[test]
    fn delete_where_and_update_where() {
        let vh = engine();
        mk_table(&vh, false);
        vh.insert_rows(
            "t",
            (0..50)
                .map(|i| vec![Value::I64(i), Value::I64(0)])
                .collect(),
        )
        .unwrap();
        let deleted = vh
            .delete_where("t", &Expr::lt(Expr::col(0), Expr::lit(Value::I64(10))))
            .unwrap();
        assert_eq!(deleted, 10);
        assert_eq!(vh.table_rows("t").unwrap(), 40);
        let updated = vh
            .update_where(
                "t",
                &Expr::ge(Expr::col(0), Expr::lit(Value::I64(45))),
                1,
                Value::I64(99),
            )
            .unwrap();
        assert_eq!(updated, 5);
        let rows = vh.query("SELECT count(*) FROM t WHERE v = 99").unwrap();
        assert_eq!(rows[0][0], Value::I64(5));
    }

    #[test]
    fn updates_are_durable_in_wals() {
        let vh = engine();
        mk_table(&vh, false);
        vh.insert_rows(
            "t",
            (0..20)
                .map(|i| vec![Value::I64(i), Value::I64(0)])
                .collect(),
        )
        .unwrap();
        vh.delete_where("t", &Expr::eq(Expr::col(0), Expr::lit(Value::I64(3))))
            .unwrap();
        // Some partition WAL carries the delete + prepare + commit.
        let rt = vh.table("t").unwrap();
        let mut found = false;
        for wal in &rt.wals {
            let records = wal.read_all().unwrap();
            if records
                .iter()
                .any(|r| matches!(r, LogRecord::Delete { .. }))
            {
                assert!(records
                    .iter()
                    .any(|r| matches!(r, LogRecord::Prepare { .. })));
                assert!(records
                    .iter()
                    .any(|r| matches!(r, LogRecord::Commit { .. })));
                found = true;
            }
        }
        assert!(found, "delete must be logged in a partition WAL");
        // And the global decision exists.
        let global = vh.coordinator.global_wal().read_all().unwrap();
        assert!(global
            .iter()
            .any(|r| matches!(r, LogRecord::GlobalCommit { .. })));
    }

    /// The decision is the commit point, and it lands before anything is
    /// installed: a coordinator lost before it leaves the table as it was,
    /// one lost after it leaves the rows visible (recovery commits them).
    #[test]
    fn a_statement_is_visible_iff_its_decision_reached_the_global_wal() {
        let vh = engine();
        mk_table(&vh, false);
        vh.insert_rows(
            "t",
            (0..10)
                .map(|i| vec![Value::I64(i), Value::I64(0)])
                .collect(),
        )
        .unwrap();
        let decisions = || {
            vh.coordinator
                .global_wal()
                .read_all()
                .unwrap()
                .iter()
                .filter(|r| matches!(r, LogRecord::GlobalCommit { .. }))
                .count()
        };
        let count = || vh.query("SELECT count(*) FROM t").unwrap()[0][0].clone();
        for (crash, decided, rows) in [
            (FaultAction::CrashBefore, 0, 10),
            (FaultAction::CrashAfter, 1, 11),
        ] {
            vh.install_fault_hook(Some(DirectedFault::new(
                FaultSite::TwoPhaseDecide,
                crash,
                1,
            )));
            let err = vh
                .trickle_insert("t", vec![vec![Value::I64(10), Value::I64(1)]])
                .unwrap_err();
            vh.install_fault_hook(None);
            assert!(
                matches!(&err, VhError::TxnAbort(m) if m.contains("in doubt")),
                "{crash:?}: {err}"
            );
            assert_eq!(decisions(), decided, "{crash:?}");
            assert_eq!(count(), Value::I64(rows), "{crash:?}");
        }
    }

    #[test]
    fn delete_by_keys_matches_rf2_shape() {
        let vh = engine();
        mk_table(&vh, true);
        vh.insert_rows(
            "t",
            (0..30)
                .map(|i| vec![Value::I64(i), Value::I64(i)])
                .collect(),
        )
        .unwrap();
        let n = vh
            .delete_by_keys("t", 0, &[Value::I64(3), Value::I64(7), Value::I64(999)])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(vh.table_rows("t").unwrap(), 28);
    }

    /// Eight `I64` columns clustered on `k`, 1024 rows, 64 rows per chunk.
    /// `c1..c7` are scrambled, so every chunk's `[min, max]` on them spans
    /// about the whole domain and only `k` prunes.
    fn wide_table(vh: &VectorH) {
        let mut b = TableBuilder::new("wide").column("k", DataType::I64);
        for c in 1..8 {
            b = b.column(format!("c{c}"), DataType::I64);
        }
        vh.create_table(b.partition_by(&["k"], 2).clustered_by(&["k"]))
            .unwrap();
        let rows = (0..1024i64)
            .map(|i| {
                let mut row = vec![Value::I64(i)];
                row.extend((1..8).map(|c| Value::I64((i * 7919 + c * 104_729) % 1000)));
                row
            })
            .collect();
        vh.insert_rows("wide", rows).unwrap();
    }

    /// Stored bytes of `cols` in the chunks of "wide" that `pruning` keeps.
    fn kept_bytes(vh: &VectorH, cols: &[usize], pruning: &Pruning) -> (u64, usize) {
        let rt = vh.table("wide").unwrap();
        let (mut bytes, mut pruned) = (0, 0);
        for store in &rt.stores {
            let store = store.read();
            for (chunk, keep) in store.prune(pruning).into_iter().enumerate() {
                if keep {
                    let meta = store.chunk_meta(chunk);
                    bytes += cols.iter().map(|c| meta.col_bytes(*c)).sum::<u64>();
                } else {
                    pruned += 1;
                }
            }
        }
        (bytes, pruned)
    }

    #[test]
    fn update_on_the_clustered_key_reads_only_unpruned_key_bytes() {
        let vh = engine();
        wide_table(&vh);
        let keys = vec![Value::I64(3), Value::I64(700), Value::I64(701)];
        let (all_key_bytes, _) = kept_bytes(&vh, &[0], &Pruning::new());
        let (want, pruned) = kept_bytes(
            &vh,
            &[0],
            &vec![(0, PruneOp::InList(keys[1..].to_vec()), keys[0].clone())],
        );
        assert!(
            pruned >= 10,
            "16 chunks, 3 keys: most must prune ({pruned})"
        );
        let pred = Expr::InList(Box::new(Expr::col(0)), keys);
        // Twice: the second statement runs over partitions with pending
        // modifies and must prune exactly as the first did.
        for value in [11, 12] {
            let before = vh.fs().stats().snapshot();
            let n = vh
                .update_where("wide", &pred, 4, Value::I64(value))
                .unwrap();
            let read = vh.fs().stats().snapshot().since(&before).read_bytes();
            assert_eq!(n, 3);
            // Exactly the key column of the surviving chunks: no byte of
            // another column, none of a pruned chunk.
            assert_eq!(read, want);
            assert!(read < all_key_bytes);
        }
    }

    #[test]
    fn delete_with_a_two_column_predicate_reads_exactly_those_columns() {
        let vh = engine();
        wide_table(&vh);
        let pred = Expr::and(vec![
            Expr::lt(Expr::col(2), Expr::lit(Value::I64(100))),
            Expr::ge(Expr::col(5), Expr::lit(Value::I64(200))),
        ]);
        let pruning = extract_pruning(&pred, &(0..8).collect::<Vec<_>>());
        assert_eq!(pruning.len(), 2);
        let (want, pruned) = kept_bytes(&vh, &[2, 5], &pruning);
        assert_eq!(pruned, 0, "scrambled columns must not prune");
        let before = vh.fs().stats().snapshot();
        let n = vh.delete_where("wide", &pred).unwrap();
        let read = vh.fs().stats().snapshot().since(&before).read_bytes();
        assert!(n > 0 && n < 200, "{n}");
        assert_eq!(read, want);
        assert_eq!(vh.table_rows("wide").unwrap(), 1024 - n);
    }

    #[test]
    fn in_list_predicates_prune_on_the_first_value_and_the_rest() {
        let pred = Expr::InList(
            Box::new(Expr::col(1)),
            vec![Value::I64(4), Value::I64(9), Value::I64(2)],
        );
        // Projected position 1 is table column 6.
        assert_eq!(
            extract_pruning(&pred, &[3, 6]),
            vec![(
                6,
                PruneOp::InList(vec![Value::I64(9), Value::I64(2)]),
                Value::I64(4)
            )]
        );
        // Nothing to prune by: an empty list, a list over an expression.
        let empty = Expr::InList(Box::new(Expr::col(0)), vec![]);
        assert!(extract_pruning(&empty, &[3]).is_empty());
        let computed = Expr::InList(
            Box::new(Expr::add(Expr::col(0), Expr::lit(Value::I64(1)))),
            vec![Value::I64(4)],
        );
        assert!(extract_pruning(&computed, &[3]).is_empty());
    }

    /// Fails every block read while armed.
    #[derive(Debug, Default)]
    struct FailReads(std::sync::atomic::AtomicBool);

    impl vectorh_common::fault::FaultHook for FailReads {
        fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::HdfsRead && self.0.load(std::sync::atomic::Ordering::SeqCst) {
                FaultAction::PermanentError
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn a_failed_statement_aborts_its_transaction() {
        let vh = engine();
        mk_table(&vh, true);
        vh.insert_rows(
            "t",
            (0..100)
                .map(|i| vec![Value::I64(i), Value::I64(0)])
                .collect(),
        )
        .unwrap();
        let hook = Arc::new(FailReads::default());
        vh.install_fault_hook(Some(hook.clone()));
        let all = Expr::ge(Expr::col(0), Expr::lit(Value::I64(0)));
        // Each statement begins a transaction, then fails reading.
        hook.0.store(true, std::sync::atomic::Ordering::SeqCst);
        vh.update_where("t", &all, 1, Value::I64(1)).unwrap_err();
        vh.delete_where("t", &all).unwrap_err();
        vh.trickle_insert("t", vec![vec![Value::I64(7), Value::I64(7)]])
            .unwrap_err();
        hook.0.store(false, std::sync::atomic::Ordering::SeqCst);
        // No partition is left with a transaction counted as active:
        // propagation, which waits for that count to reach 0, goes through
        // on every partition after one more statement has dirtied them all.
        assert_eq!(vh.update_where("t", &all, 1, Value::I64(2)).unwrap(), 100);
        assert_eq!(vh.propagate_table("t", true).unwrap(), 4);
        let rows = vh.query("SELECT count(*) FROM t WHERE v = 2").unwrap();
        assert_eq!(rows[0][0], Value::I64(100));
    }

    #[test]
    fn predicate_on_a_column_the_table_lacks_is_refused() {
        let vh = engine();
        mk_table(&vh, false);
        let err = vh
            .delete_where("t", &Expr::eq(Expr::col(2), Expr::lit(Value::I64(1))))
            .unwrap_err();
        assert!(matches!(err, VhError::InvalidArg(_)), "{err}");
    }
}

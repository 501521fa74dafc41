//! Snapshot-isolated transactions over stacked PDTs (§6).
//!
//! In-memory state per table partition: a slow-moving **Read-PDT** and a
//! small master **Write-PDT** (both shared by all queries through `Arc`s —
//! commits copy-on-write the master, so running queries keep their
//! snapshot), plus a private **Trans-PDT** per transaction.
//!
//! A transaction logs its updates twice: into its Trans-PDT (so its own
//! scans see its writes) and into a *positional op log* keyed by
//! [`TupleKey`]s resolved at update time. Commit re-resolves those keys
//! against the advanced master state — that is the "PDT serialization"
//! of the paper — and implements optimistic concurrency control: if any
//! tuple this transaction wrote (or anchored an insert on) was touched by a
//! transaction that committed after our snapshot, we abort with a
//! write-write conflict at tuple granularity.
//!
//! Durability: commit hands the resolved records of every partition, in one
//! call, to a `persist` callback (the engine's 2PC: partition WALs, then the
//! one forced global decision) *before* mutating the master state.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use vectorh_common::sync::RwLock;
use vectorh_common::{PartitionId, Result, Value, VhError};
use vectorh_pdt::tree::Pdt;
use vectorh_pdt::{Layers, MergeStep, TupleKey};

use crate::wal::LogRecord;

/// Tuning thresholds (§6: propagation is triggered by PDT size and by the
/// fraction of tuples resident in memory).
#[derive(Debug, Clone)]
pub struct TxnConfig {
    /// Propagate when a partition's PDT memory exceeds this.
    pub propagate_mem_bytes: usize,
    /// ... or when PDT rows exceed this fraction of stable rows.
    pub propagate_fraction: f64,
    /// Roll Write-PDT into Read-PDT beyond this entry count.
    pub write_to_read_entries: usize,
}

impl TxnConfig {
    /// Do PDTs of `mem` bytes and `entries` entries over `stable` stable
    /// rows cross a propagation threshold?
    pub fn exceeded_by(&self, mem: usize, entries: u64, stable: u64) -> bool {
        mem > self.propagate_mem_bytes
            || (stable > 0 && entries as f64 / stable as f64 > self.propagate_fraction)
    }
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            propagate_mem_bytes: 4 << 20,
            propagate_fraction: 0.10,
            write_to_read_entries: 8192,
        }
    }
}

/// Shared per-partition update state.
#[derive(Clone)]
pub struct PartitionTxnState {
    pub stable_len: u64,
    pub read: Arc<Pdt>,
    pub write: Arc<Pdt>,
}

impl PartitionTxnState {
    fn image_len(&self) -> u64 {
        self.write.image_len(self.read.image_len(self.stable_len))
    }

    fn layers(&self) -> Layers<'_> {
        Layers::new(self.stable_len, vec![&self.read, &self.write])
    }
}

/// One logged update, keyed positionally by tuple identity.
#[derive(Debug, Clone)]
enum Op {
    Ins {
        anchor: Option<TupleKey>,
        at_end: bool,
        values: Vec<Value>,
        tag: u64,
    },
    Del {
        key: TupleKey,
    },
    Mod {
        key: TupleKey,
        col: usize,
        value: Value,
    },
}

/// An open transaction.
pub struct Transaction {
    pub id: u64,
    version: u64,
    snapshots: HashMap<PartitionId, PartitionTxnState>,
    trans: HashMap<PartitionId, Pdt>,
    ops: Vec<(PartitionId, Op)>,
    /// Tuples written (for conflict detection).
    write_set: HashSet<(PartitionId, TupleKey)>,
    /// Anchors our inserts depend on (conservatively conflict-checked too).
    anchor_set: HashSet<(PartitionId, TupleKey)>,
    /// Tags of our own pending inserts.
    own_tags: HashSet<u64>,
}

impl Transaction {
    /// Rows visible to this transaction in a partition.
    pub fn image_len(&self, pid: PartitionId) -> Result<u64> {
        let snap = self.snapshot(pid)?;
        let trans = self.trans.get(&pid);
        let base = snap.image_len();
        Ok(trans.map(|t| t.image_len(base)).unwrap_or(base))
    }

    fn snapshot(&self, pid: PartitionId) -> Result<&PartitionTxnState> {
        self.snapshots
            .get(&pid)
            .ok_or_else(|| VhError::TxnAbort(format!("partition {pid} not in snapshot")))
    }

    /// Merge plan reflecting this transaction's view (stable coordinates).
    pub fn merged_plan(&self, pid: PartitionId) -> Result<Vec<MergeStep>> {
        let snap = self.snapshot(pid)?;
        let mut layers = vec![snap.read.as_ref(), snap.write.as_ref()];
        if let Some(t) = self.trans.get(&pid) {
            layers.push(t);
        }
        Ok(Layers::new(snap.stable_len, layers).merged_plan())
    }

    /// Resolve a visible RID to its tuple identity (through all layers).
    fn locate(&self, pid: PartitionId, rid: u64) -> Result<TupleKey> {
        let snap = self.snapshot(pid)?;
        let empty;
        let trans: &Pdt = match self.trans.get(&pid) {
            Some(t) => t,
            None => {
                empty = Pdt::new();
                &empty
            }
        };
        Layers::new(
            snap.stable_len,
            vec![snap.read.as_ref(), snap.write.as_ref(), trans],
        )
        .locate(rid)
    }
}

struct MgrInner {
    partitions: HashMap<PartitionId, PartitionTxnState>,
    next_txn: u64,
    next_tag: u64,
    commit_seq: u64,
    /// (seq, touched tuple keys) of committed transactions.
    commit_log: Vec<(u64, HashSet<(PartitionId, TupleKey)>)>,
    /// Active transactions per partition (blocks propagation).
    active: HashMap<PartitionId, usize>,
    /// Partitions with a propagation in flight. Transactions must not
    /// begin on a latched partition: a txn that starts after
    /// `begin_propagation` snapshotted the merge plan and commits before
    /// `finish_propagation` resets the PDTs would be silently erased by
    /// the reset — the lost-update race the latch closes.
    propagating: HashSet<PartitionId>,
}

/// The transaction manager (session-master role).
pub struct TransactionManager {
    inner: RwLock<MgrInner>,
    pub config: TxnConfig,
}

impl TransactionManager {
    pub fn new(config: TxnConfig) -> TransactionManager {
        TransactionManager {
            inner: RwLock::new(MgrInner {
                partitions: HashMap::new(),
                next_txn: 1,
                next_tag: 1,
                commit_seq: 0,
                commit_log: Vec::new(),
                active: HashMap::new(),
                propagating: HashSet::new(),
            }),
            config,
        }
    }

    /// Register a partition (stable rows currently on disk).
    pub fn register_partition(&self, pid: PartitionId, stable_len: u64) {
        let mut inner = self.inner.write();
        inner.propagating.remove(&pid);
        inner.partitions.insert(
            pid,
            PartitionTxnState {
                stable_len,
                read: Arc::new(Pdt::new()),
                write: Arc::new(Pdt::new()),
            },
        );
    }

    /// Current shared state of a partition (for read-only scans).
    pub fn partition_state(&self, pid: PartitionId) -> Result<PartitionTxnState> {
        self.inner
            .read()
            .partitions
            .get(&pid)
            .cloned()
            .ok_or_else(|| VhError::TxnAbort(format!("unknown partition {pid}")))
    }

    /// Merge plan for a read-only scan at the latest committed state.
    pub fn scan_plan(&self, pid: PartitionId) -> Result<Vec<MergeStep>> {
        Ok(self.partition_state(pid)?.layers().merged_plan())
    }

    /// Visible rows of the latest committed state.
    pub fn visible_rows(&self, pid: PartitionId) -> Result<u64> {
        Ok(self.partition_state(pid)?.image_len())
    }

    /// Begin a transaction snapshotting the given partitions.
    pub fn begin(&self, pids: &[PartitionId]) -> Result<Transaction> {
        let mut inner = self.inner.write();
        let id = inner.next_txn;
        inner.next_txn += 1;
        let version = inner.commit_seq;
        for pid in pids {
            if inner.propagating.contains(pid) {
                return Err(VhError::TxnAbort(format!(
                    "partition {pid} is propagating; retry shortly"
                )));
            }
        }
        let mut snapshots = HashMap::new();
        for pid in pids {
            let st = inner
                .partitions
                .get(pid)
                .cloned()
                .ok_or_else(|| VhError::TxnAbort(format!("unknown partition {pid}")))?;
            snapshots.insert(*pid, st);
        }
        // Every partition is known: only now take the references that
        // `commit`/`abort` release, one per snapshot. Taken any earlier, an
        // unknown partition later in `pids` would leave them behind and
        // block propagation of the known ones for good.
        for pid in snapshots.keys() {
            *inner.active.entry(*pid).or_insert(0) += 1;
        }
        Ok(Transaction {
            id,
            version,
            snapshots,
            trans: HashMap::new(),
            ops: Vec::new(),
            write_set: HashSet::new(),
            anchor_set: HashSet::new(),
            own_tags: HashSet::new(),
        })
    }

    fn fresh_tag(&self) -> u64 {
        let mut inner = self.inner.write();
        let t = inner.next_tag;
        inner.next_tag += 1;
        t
    }

    /// Insert `values` so the new row lands at `rid` in the transaction's
    /// current image of `pid`.
    pub fn insert_at(
        &self,
        txn: &mut Transaction,
        pid: PartitionId,
        rid: u64,
        values: Vec<Value>,
    ) -> Result<()> {
        let image = txn.image_len(pid)?;
        if rid > image {
            return Err(VhError::TxnAbort(format!(
                "insert rid {rid} > image {image}"
            )));
        }
        let at_end = rid == image;
        // Anchor on the row currently before the insert point.
        let anchor = if at_end || rid == 0 {
            None
        } else {
            let key = txn.locate(pid, rid - 1)?;
            txn.anchor_set.insert((pid, key));
            Some(key)
        };
        let tag = self.fresh_tag();
        txn.own_tags.insert(tag);
        let snap_len = txn.snapshot(pid)?.image_len();
        txn.trans
            .entry(pid)
            .or_default()
            .insert_at(rid, values.clone(), tag, snap_len)?;
        txn.ops.push((
            pid,
            Op::Ins {
                anchor,
                at_end,
                values,
                tag,
            },
        ));
        Ok(())
    }

    /// Delete the row at `rid` of the transaction's image.
    pub fn delete_at(&self, txn: &mut Transaction, pid: PartitionId, rid: u64) -> Result<()> {
        let key = txn.locate(pid, rid)?;
        let snap_len = txn.snapshot(pid)?.image_len();
        txn.trans.entry(pid).or_default().delete_at(rid, snap_len)?;
        match key {
            TupleKey::Tagged(tag) if txn.own_tags.contains(&tag) => {
                // Deleting our own pending insert: cancel the op.
                txn.ops.retain(|(p, op)| {
                    !(*p == pid && matches!(op, Op::Ins { tag: t, .. } if *t == tag))
                });
                txn.own_tags.remove(&tag);
            }
            key => {
                txn.write_set.insert((pid, key));
                txn.ops.push((pid, Op::Del { key }));
            }
        }
        Ok(())
    }

    /// Modify a column of the row at `rid` of the transaction's image.
    pub fn modify_at(
        &self,
        txn: &mut Transaction,
        pid: PartitionId,
        rid: u64,
        col: usize,
        value: Value,
    ) -> Result<()> {
        let key = txn.locate(pid, rid)?;
        let snap_len = txn.snapshot(pid)?.image_len();
        txn.trans
            .entry(pid)
            .or_default()
            .modify_at(rid, col, value.clone(), snap_len)?;
        match key {
            TupleKey::Tagged(tag) if txn.own_tags.contains(&tag) => {
                // Patch our own pending insert in the op log.
                for (p, op) in txn.ops.iter_mut() {
                    if *p == pid {
                        if let Op::Ins { tag: t, values, .. } = op {
                            if *t == tag {
                                values[col] = value.clone();
                            }
                        }
                    }
                }
            }
            key => {
                txn.write_set.insert((pid, key));
                txn.ops.push((pid, Op::Mod { key, col, value }));
            }
        }
        Ok(())
    }

    /// Abort: release snapshot references.
    pub fn abort(&self, txn: Transaction) {
        let mut inner = self.inner.write();
        for pid in txn.snapshots.keys() {
            if let Some(n) = inner.active.get_mut(pid) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Commit. Detects write-write conflicts, resolves positions against the
    /// advanced master state, persists via one call of `persist` (each
    /// written partition → its `TxnBegin` and update records, no verdict;
    /// ordered by `PartitionId`; empty for a transaction that wrote
    /// nothing), then installs the new master Write-PDTs (copy-on-write).
    /// An `Err` from `persist` installs nothing.
    pub fn commit<F>(&self, txn: Transaction, persist: F) -> Result<u64>
    where
        F: FnOnce(BTreeMap<PartitionId, Vec<LogRecord>>) -> Result<()>,
    {
        let mut inner = self.inner.write();
        let result = Self::commit_locked(&mut inner, &txn, persist);
        // Release snapshot references on EVERY path — success, conflict,
        // resolution failure, or persist (WAL) error. Leaking them would
        // block propagation on the partition forever.
        for pid in txn.snapshots.keys() {
            if let Some(n) = inner.active.get_mut(pid) {
                *n = n.saturating_sub(1);
            }
        }
        result
    }

    fn commit_locked(
        inner: &mut MgrInner,
        txn: &Transaction,
        persist: impl FnOnce(BTreeMap<PartitionId, Vec<LogRecord>>) -> Result<()>,
    ) -> Result<u64> {
        // 1. Optimistic validation at tuple granularity.
        for (seq, keys) in inner.commit_log.iter().rev() {
            if *seq <= txn.version {
                break;
            }
            for k in txn.write_set.iter().chain(txn.anchor_set.iter()) {
                if keys.contains(k) {
                    return Err(VhError::TxnAbort(format!(
                        "write-write conflict on {k:?} (committed seq {seq} > snapshot {})",
                        txn.version
                    )));
                }
            }
        }

        // 2. Resolve ops against current master state into WAL records,
        //    applying to cloned Write-PDTs as we go (positions depend on
        //    earlier ops of this very transaction).
        let mut new_writes: HashMap<PartitionId, Pdt> = HashMap::new();
        // Ordered: `persist` sees the partitions in `PartitionId` order, so
        // the 2PC prepares (and any fault aimed at one) are deterministic.
        let mut records: BTreeMap<PartitionId, Vec<LogRecord>> = BTreeMap::new();
        let mut stables: HashMap<PartitionId, (u64, Arc<Pdt>)> = HashMap::new();
        for (pid, op) in &txn.ops {
            // Only partitions the transaction wrote get a new Write-PDT; a
            // snapshot that was merely read costs nothing here.
            if !new_writes.contains_key(pid) {
                if !txn.snapshots.contains_key(pid) {
                    return Err(VhError::TxnAbort("op on unsnapshotted partition".into()));
                }
                // The Read-PDT only changes under propagation, which is
                // blocked while transactions are active.
                let cur = inner
                    .partitions
                    .get(pid)
                    .ok_or_else(|| VhError::TxnAbort("partition vanished".into()))?;
                new_writes.insert(*pid, (*cur.write).clone());
                stables.insert(*pid, (cur.stable_len, cur.read.clone()));
            }
            let (stable_len, read) = stables[pid].clone();
            let write = new_writes.get_mut(pid).expect("inserted above");
            let write_base = read.image_len(stable_len);
            let rid_of_key = |write: &Pdt, key: TupleKey| -> Option<u64> {
                // Identity through read layer, then write layer.
                match key {
                    TupleKey::Stable(sid) => {
                        let r1 = read.rid_of_stable(sid)?;
                        write.rid_of_stable(r1)
                    }
                    TupleKey::Tagged(tag) => {
                        if let Some(r) = write.rid_of_tag(tag) {
                            Some(r)
                        } else {
                            let r1 = read.rid_of_tag(tag)?;
                            write.rid_of_stable(r1)
                        }
                    }
                }
            };
            let recs = records.entry(*pid).or_default();
            if recs.is_empty() {
                recs.push(LogRecord::TxnBegin { txn: txn.id });
            }
            match op {
                Op::Ins {
                    anchor,
                    at_end,
                    values,
                    tag,
                } => {
                    let rid = if *at_end {
                        write.image_len(write_base)
                    } else {
                        match anchor {
                            None => 0,
                            Some(key) => {
                                let r = rid_of_key(write, *key).ok_or_else(|| {
                                    VhError::TxnAbort("insert anchor vanished".into())
                                })?;
                                r + 1
                            }
                        }
                    };
                    write.insert_at(rid, values.clone(), *tag, write_base)?;
                    recs.push(LogRecord::Insert {
                        txn: txn.id,
                        rid,
                        tag: *tag,
                        values: values.clone(),
                    });
                }
                Op::Del { key } => {
                    let rid = rid_of_key(write, *key)
                        .ok_or_else(|| VhError::TxnAbort("deleted tuple vanished".into()))?;
                    write.delete_at(rid, write_base)?;
                    recs.push(LogRecord::Delete { txn: txn.id, rid });
                }
                Op::Mod { key, col, value } => {
                    let rid = rid_of_key(write, *key)
                        .ok_or_else(|| VhError::TxnAbort("modified tuple vanished".into()))?;
                    write.modify_at(rid, *col, value.clone(), write_base)?;
                    recs.push(LogRecord::Modify {
                        txn: txn.id,
                        rid,
                        col: *col as u32,
                        value: value.clone(),
                    });
                }
            }
        }

        // 3. Persist (WAL-before-apply).
        persist(records)?;
        let seq = inner.commit_seq + 1;

        // 4. Install new master Write-PDTs.
        for (pid, w) in new_writes {
            if let Some(st) = inner.partitions.get_mut(&pid) {
                st.write = Arc::new(w);
            }
        }
        inner.commit_seq = seq;
        let mut touched = txn.write_set.clone();
        // Fresh inserts are conflict-relevant for later txns that modify
        // them; register each under its tag, attributed to the partition of
        // its own insert op (an own_tag always has a surviving Ins op —
        // deleting a pending insert removes both the op and the tag).
        for (p, op) in &txn.ops {
            if let Op::Ins { tag, .. } = op {
                if txn.own_tags.contains(tag) {
                    touched.insert((*p, TupleKey::Tagged(*tag)));
                }
            }
        }
        inner.commit_log.push((seq, touched));
        Ok(seq)
    }

    /// Should this partition be propagated? (size/fraction policy of §6)
    pub fn needs_propagation(&self, pid: PartitionId) -> bool {
        let inner = self.inner.read();
        let Some(st) = inner.partitions.get(&pid) else {
            return false;
        };
        self.config.exceeded_by(
            st.read.mem_bytes() + st.write.mem_bytes(),
            (st.read.n_entries() + st.write.n_entries()) as u64,
            st.stable_len,
        )
    }

    /// Roll the master Write-PDT into the Read-PDT ("changes from Write-PDT
    /// are propagated to the Read-PDT when the size of the Write-PDT reaches
    /// a threshold").
    pub fn roll_write_into_read(&self, pid: PartitionId) -> Result<()> {
        let mut inner = self.inner.write();
        let st = inner
            .partitions
            .get_mut(&pid)
            .ok_or_else(|| VhError::TxnAbort(format!("unknown partition {pid}")))?;
        let mut read = (*st.read).clone();
        st.write.propagate_into(&mut read, st.stable_len)?;
        st.read = Arc::new(read);
        st.write = Arc::new(Pdt::new());
        Ok(())
    }

    /// Begin update propagation: returns the merge plan to apply to storage
    /// and latches the partition — transactions cannot begin on it until
    /// [`finish_propagation`](Self::finish_propagation) or
    /// [`abort_propagation`](Self::abort_propagation) releases the latch.
    /// Fails while transactions are active on the partition (or another
    /// propagation holds the latch).
    pub fn begin_propagation(&self, pid: PartitionId) -> Result<(u64, Vec<MergeStep>)> {
        let mut inner = self.inner.write();
        if inner.active.get(&pid).copied().unwrap_or(0) > 0 {
            return Err(VhError::TxnAbort(format!(
                "cannot propagate {pid}: transactions active"
            )));
        }
        if !inner.propagating.insert(pid) {
            return Err(VhError::TxnAbort(format!(
                "cannot propagate {pid}: propagation already in flight"
            )));
        }
        let st = match inner.partitions.get(&pid) {
            Some(st) => st,
            None => {
                inner.propagating.remove(&pid);
                return Err(VhError::TxnAbort(format!("unknown partition {pid}")));
            }
        };
        Ok((st.stable_len, st.layers().merged_plan()))
    }

    /// Finish propagation: the storage now holds `new_stable_len` rows, and
    /// `carried` (the run checkpoint's deltas) is what the run left pending
    /// on them. The PDTs are rebuilt from `carried` alone and the latch is
    /// released.
    pub fn finish_propagation(
        &self,
        pid: PartitionId,
        new_stable_len: u64,
        carried: &[LogRecord],
    ) -> Result<()> {
        self.rebase_partition(pid, new_stable_len, carried, &[])
    }

    /// Abandon a propagation without touching the PDTs — the no-op path
    /// (nothing to flush) and every error path, where the PDT contents must
    /// stay live because storage still holds the old image.
    pub fn abort_propagation(&self, pid: PartitionId) {
        self.inner.write().propagating.remove(&pid);
    }

    /// Bulk append of stable rows (direct-to-disk path for large loads; the
    /// paper: "large inserts to unordered tables are appended directly on
    /// disk"). Adjusts stable_len. Pending deltas stay valid: the new rows
    /// get SIDs past every existing one, so each pending delete and modify
    /// keeps its row, and a pending tail insert (SID = the old length) now
    /// sits just ahead of the appended rows, which end the image.
    pub fn bulk_append(&self, pid: PartitionId, rows: u64) -> Result<()> {
        let mut inner = self.inner.write();
        let st = inner
            .partitions
            .get_mut(&pid)
            .ok_or_else(|| VhError::TxnAbort(format!("unknown partition {pid}")))?;
        st.stable_len += rows;
        Ok(())
    }

    /// Replay WAL records into a partition's master Write-PDT (startup
    /// recovery by the responsible node). Only records of committed
    /// transactions must be passed in.
    pub fn replay(&self, pid: PartitionId, records: &[LogRecord]) -> Result<()> {
        let mut inner = self.inner.write();
        let st = inner
            .partitions
            .get_mut(&pid)
            .ok_or_else(|| VhError::TxnAbort(format!("unknown partition {pid}")))?;
        let base = st.read.image_len(st.stable_len);
        st.write = Arc::new(replay_into((*st.write).clone(), base, records)?);
        Ok(())
    }

    /// Failover takeover: (re)register a partition at `stable_len` and
    /// replay the committed `records` into it, under ONE write lock (see
    /// [`rebase_partition`](Self::rebase_partition), with nothing carried).
    pub fn recover_partition(
        &self,
        pid: PartitionId,
        stable_len: u64,
        records: &[LogRecord],
    ) -> Result<()> {
        self.rebase_partition(pid, stable_len, &[], records)
    }

    /// (Re)build a partition's state on a stable image of `stable_len` rows:
    /// the last checkpoint's `carried` deltas become the Read-PDT, then the
    /// committed `tail` after that checkpoint replays into the Write-PDT.
    /// The one replay behind recovery, propagation's commit and a replica's
    /// re-base. It runs under ONE write lock: a separate register + replay
    /// has a window where a concurrent query sees registered-but-unreplayed
    /// (empty) state, and takeover after a node death must never expose
    /// that. Queries holding the old state's `Arc`s keep their snapshot.
    /// Clears a propagation latch left on the partition.
    pub fn rebase_partition(
        &self,
        pid: PartitionId,
        stable_len: u64,
        carried: &[LogRecord],
        tail: &[LogRecord],
    ) -> Result<()> {
        let read = replay_into(Pdt::new(), stable_len, carried)?;
        let write = replay_into(Pdt::new(), read.image_len(stable_len), tail)?;
        let mut inner = self.inner.write();
        inner.propagating.remove(&pid);
        inner.partitions.insert(
            pid,
            PartitionTxnState {
                stable_len,
                read: Arc::new(read),
                write: Arc::new(write),
            },
        );
        Ok(())
    }
}

/// Apply the positional updates among `records`, in order, to `pdt` over a
/// below-image of `base` rows; other records are skipped.
fn replay_into(mut pdt: Pdt, base: u64, records: &[LogRecord]) -> Result<Pdt> {
    for r in records {
        match r {
            LogRecord::Insert {
                rid, tag, values, ..
            } => {
                pdt.insert_at(*rid, values.clone(), *tag, base)?;
            }
            LogRecord::Delete { rid, .. } => {
                pdt.delete_at(*rid, base)?;
            }
            LogRecord::Modify {
                rid, col, value, ..
            } => {
                pdt.modify_at(*rid, *col as usize, value.clone(), base)?;
            }
            _ => {}
        }
    }
    Ok(pdt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_pdt::merge::apply_plan;

    fn v(i: i64) -> Vec<Value> {
        vec![Value::I64(i)]
    }

    fn stable_rows(n: u64) -> Vec<Vec<Value>> {
        (0..n as i64).map(v).collect()
    }

    fn mgr_with(pid: PartitionId, stable: u64) -> TransactionManager {
        let m = TransactionManager::new(TxnConfig::default());
        m.register_partition(pid, stable);
        m
    }

    fn materialize(m: &TransactionManager, pid: PartitionId, stable: u64) -> Vec<Vec<Value>> {
        apply_plan(&m.scan_plan(pid).unwrap(), &stable_rows(stable))
    }

    const P: PartitionId = PartitionId(0);

    #[test]
    fn commit_makes_updates_visible() {
        let m = mgr_with(P, 5);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 2, v(100)).unwrap();
        m.delete_at(&mut t, P, 0).unwrap();
        m.modify_at(&mut t, P, 4, 0, Value::I64(-4)).unwrap();
        // Not yet visible to others.
        assert_eq!(materialize(&m, P, 5), stable_rows(5));
        // But visible to itself.
        let own = apply_plan(&t.merged_plan(P).unwrap(), &stable_rows(5));
        assert_eq!(own.len(), 5);
        assert_eq!(own[1][0], Value::I64(100));
        m.commit(t, |_| Ok(())).unwrap();
        let rows = materialize(&m, P, 5);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1][0], Value::I64(100));
        assert_eq!(rows[4][0], Value::I64(-4));
    }

    #[test]
    fn snapshot_isolation_hides_concurrent_commits() {
        let m = mgr_with(P, 4);
        let t_reader = m.begin(&[P]).unwrap();
        let mut t_writer = m.begin(&[P]).unwrap();
        m.delete_at(&mut t_writer, P, 0).unwrap();
        m.commit(t_writer, |_| Ok(())).unwrap();
        // Reader's snapshot still sees 4 rows.
        let seen = apply_plan(&t_reader.merged_plan(P).unwrap(), &stable_rows(4));
        assert_eq!(seen.len(), 4);
        // New scans see 3.
        assert_eq!(materialize(&m, P, 4).len(), 3);
        m.abort(t_reader);
    }

    #[test]
    fn write_write_conflict_aborts() {
        let m = mgr_with(P, 4);
        let mut t1 = m.begin(&[P]).unwrap();
        let mut t2 = m.begin(&[P]).unwrap();
        m.modify_at(&mut t1, P, 2, 0, Value::I64(1)).unwrap();
        m.modify_at(&mut t2, P, 2, 0, Value::I64(2)).unwrap();
        m.commit(t1, |_| Ok(())).unwrap();
        let err = m.commit(t2, |_| Ok(())).unwrap_err();
        assert!(matches!(err, VhError::TxnAbort(_)), "{err}");
    }

    #[test]
    fn disjoint_writes_both_commit() {
        let m = mgr_with(P, 4);
        let mut t1 = m.begin(&[P]).unwrap();
        let mut t2 = m.begin(&[P]).unwrap();
        m.modify_at(&mut t1, P, 1, 0, Value::I64(11)).unwrap();
        m.modify_at(&mut t2, P, 3, 0, Value::I64(33)).unwrap();
        m.commit(t1, |_| Ok(())).unwrap();
        m.commit(t2, |_| Ok(())).unwrap();
        let rows = materialize(&m, P, 4);
        assert_eq!(rows[1][0], Value::I64(11));
        assert_eq!(rows[3][0], Value::I64(33));
    }

    #[test]
    fn concurrent_inserts_commute() {
        let m = mgr_with(P, 2);
        let mut t1 = m.begin(&[P]).unwrap();
        let mut t2 = m.begin(&[P]).unwrap();
        m.insert_at(&mut t1, P, 1, v(100)).unwrap(); // after stable row 0
        m.insert_at(&mut t2, P, 2, v(200)).unwrap(); // at end-ish (after row 1)
        m.commit(t1, |_| Ok(())).unwrap();
        m.commit(t2, |_| Ok(())).unwrap();
        let rows = materialize(&m, P, 2);
        assert_eq!(rows.len(), 4);
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert!(vals.contains(&100) && vals.contains(&200), "{vals:?}");
        // t1's insert anchored after row 0.
        assert_eq!(vals[0], 0);
        assert_eq!(vals[1], 100);
    }

    #[test]
    fn delete_of_own_insert_leaves_no_trace() {
        let m = mgr_with(P, 3);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 1, v(42)).unwrap();
        m.delete_at(&mut t, P, 1).unwrap();
        m.commit(t, |_| Ok(())).unwrap();
        assert_eq!(materialize(&m, P, 3), stable_rows(3));
    }

    #[test]
    fn modify_of_own_insert_folds_into_insert() {
        let m = mgr_with(P, 1);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 0, v(1)).unwrap();
        m.modify_at(&mut t, P, 0, 0, Value::I64(99)).unwrap();
        let mut wal_records = Vec::new();
        m.commit(t, |parts| {
            wal_records.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        let rows = materialize(&m, P, 1);
        assert_eq!(rows[0][0], Value::I64(99));
        // No Modify record: the patch folded into the insert.
        assert!(wal_records
            .iter()
            .all(|r| !matches!(r, LogRecord::Modify { .. })));
    }

    #[test]
    fn anchor_conflict_aborts_insert() {
        let m = mgr_with(P, 4);
        let mut t1 = m.begin(&[P]).unwrap();
        let mut t2 = m.begin(&[P]).unwrap();
        // t2 inserts after row 2; t1 deletes row 2 and commits first.
        m.delete_at(&mut t1, P, 2).unwrap();
        m.insert_at(&mut t2, P, 3, v(7)).unwrap();
        m.commit(t1, |_| Ok(())).unwrap();
        assert!(m.commit(t2, |_| Ok(())).is_err());
    }

    #[test]
    fn wal_persistence_callback_sees_resolved_records() {
        let m = mgr_with(P, 3);
        let mut t = m.begin(&[P]).unwrap();
        m.delete_at(&mut t, P, 1).unwrap();
        let mut got: Vec<LogRecord> = vec![];
        m.commit(t, |parts| {
            assert_eq!(parts.keys().copied().collect::<Vec<_>>(), vec![P]);
            got.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        assert!(matches!(got[0], LogRecord::TxnBegin { .. }));
        assert!(matches!(got[1], LogRecord::Delete { rid: 1, .. }));
        // The verdict is the 2PC coordinator's to write, not the manager's.
        assert!(got.iter().all(|r| !matches!(
            r,
            LogRecord::Commit { .. } | LogRecord::Abort { .. } | LogRecord::Prepare { .. }
        )));
    }

    #[test]
    fn persist_sees_partitions_in_id_order() {
        let m = TransactionManager::new(TxnConfig::default());
        let pids: Vec<PartitionId> = (0..8).map(PartitionId).collect();
        for pid in &pids {
            m.register_partition(*pid, 1);
        }
        let mut t = m.begin(&pids).unwrap();
        for pid in pids.iter().rev() {
            m.delete_at(&mut t, *pid, 0).unwrap();
        }
        let mut seen = Vec::new();
        m.commit(t, |parts| {
            seen.extend(parts.into_keys());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, pids);
    }

    #[test]
    fn replay_reproduces_state() {
        let m = mgr_with(P, 5);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 0, v(-1)).unwrap();
        m.delete_at(&mut t, P, 3).unwrap();
        let mut recs = Vec::new();
        m.commit(t, |parts| {
            recs.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        let expect = materialize(&m, P, 5);

        let m2 = mgr_with(P, 5);
        m2.replay(P, &recs).unwrap();
        assert_eq!(materialize(&m2, P, 5), expect);
    }

    #[test]
    fn recover_partition_is_atomic_register_plus_replay() {
        let m = mgr_with(P, 5);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 0, v(-1)).unwrap();
        m.delete_at(&mut t, P, 3).unwrap();
        let mut recs = Vec::new();
        m.commit(t, |parts| {
            recs.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        let expect = materialize(&m, P, 5);

        // A taking-over node recovers in one step, even over a previously
        // registered (stale) partition state.
        let m2 = mgr_with(P, 999);
        m2.recover_partition(P, 5, &recs).unwrap();
        assert_eq!(materialize(&m2, P, 5), expect);
        // And the recovered state accepts new transactions.
        let mut t2 = m2.begin(&[P]).unwrap();
        m2.modify_at(&mut t2, P, 0, 0, Value::I64(77)).unwrap();
        m2.commit(t2, |_| Ok(())).unwrap();
        assert_eq!(materialize(&m2, P, 5)[0][0], Value::I64(77));
    }

    #[test]
    fn propagation_lifecycle() {
        let m = mgr_with(P, 4);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 4, v(99)).unwrap();
        m.commit(t, |_| Ok(())).unwrap();
        let (stable, plan) = m.begin_propagation(P).unwrap();
        assert_eq!(stable, 4);
        let new_rows = apply_plan(&plan, &stable_rows(4));
        assert_eq!(new_rows.len(), 5);
        m.finish_propagation(P, 5, &[]).unwrap();
        assert_eq!(m.visible_rows(P).unwrap(), 5);
        assert!(
            m.scan_plan(P).unwrap().len() == 1,
            "clean plan after propagation"
        );
    }

    #[test]
    fn propagation_blocked_by_active_txn() {
        let m = mgr_with(P, 4);
        let t = m.begin(&[P]).unwrap();
        assert!(m.begin_propagation(P).is_err());
        m.abort(t);
        assert!(m.begin_propagation(P).is_ok());
    }

    #[test]
    fn a_failed_begin_leaves_no_active_reference_behind() {
        let m = mgr_with(P, 4);
        let unknown = PartitionId(P.0 + 1000);
        let Err(err) = m.begin(&[P, unknown]) else {
            panic!("begin over an unknown partition succeeded")
        };
        assert!(err.to_string().contains("unknown partition"), "got {err}");
        assert_eq!(m.inner.read().active.get(&P).copied().unwrap_or(0), 0);
        m.begin_propagation(P).unwrap();
        m.finish_propagation(P, 4, &[]).unwrap();
        // A partition named twice is one snapshot, so one reference.
        let t = m.begin(&[P, P]).unwrap();
        assert_eq!(m.inner.read().active[&P], 1);
        m.abort(t);
        m.begin_propagation(P).unwrap();
    }

    #[test]
    fn propagation_latch_blocks_new_txns_until_released() {
        let m = mgr_with(P, 4);
        let (_, _) = m.begin_propagation(P).unwrap();
        // The latch closes the lost-update window: a txn beginning here
        // could commit into PDTs that finish_propagation is about to reset.
        assert!(m.begin(&[P]).is_err());
        // A second propagation cannot double-latch.
        assert!(m.begin_propagation(P).is_err());
        m.finish_propagation(P, 4, &[]).unwrap();
        m.abort(m.begin(&[P]).unwrap());
        // Abort releases without resetting PDTs.
        let (_, _) = m.begin_propagation(P).unwrap();
        m.abort_propagation(P);
        let mut t = m.begin(&[P]).unwrap();
        m.modify_at(&mut t, P, 0, 0, Value::I64(5)).unwrap();
        m.commit(t, |_| Ok(())).unwrap();
        assert_eq!(materialize(&m, P, 4)[0][0], Value::I64(5));
        // recover_partition clears a latch left by a crashed propagator.
        let (_, _) = m.begin_propagation(P).unwrap();
        m.recover_partition(P, 4, &[]).unwrap();
        assert!(m.begin(&[P]).is_ok());
    }

    #[test]
    fn roll_write_into_read_preserves_image() {
        let m = mgr_with(P, 6);
        let mut t = m.begin(&[P]).unwrap();
        m.insert_at(&mut t, P, 3, v(33)).unwrap();
        m.delete_at(&mut t, P, 0).unwrap();
        m.commit(t, |_| Ok(())).unwrap();
        let before = materialize(&m, P, 6);
        m.roll_write_into_read(P).unwrap();
        assert_eq!(materialize(&m, P, 6), before);
        let st = m.partition_state(P).unwrap();
        assert!(st.write.is_empty());
        assert!(!st.read.is_empty());
        // And further updates still work on top.
        let mut t2 = m.begin(&[P]).unwrap();
        m.modify_at(&mut t2, P, 1, 0, Value::I64(-9)).unwrap();
        m.commit(t2, |_| Ok(())).unwrap();
        assert_eq!(materialize(&m, P, 6)[1][0], Value::I64(-9));
    }

    #[test]
    fn bulk_append_leaves_pending_deltas_in_place() {
        // Ten stable rows with a delete, a modify, an interior insert and
        // two tail inserts pending, in both PDT layers; then five stable
        // rows are appended. The image must be the old one followed by the
        // new rows, before and after a WAL-style recovery replay.
        let m = mgr_with(P, 10);
        let mut recs = Vec::new();
        let mut t = m.begin(&[P]).unwrap();
        m.delete_at(&mut t, P, 2).unwrap();
        m.insert_at(&mut t, P, 9, v(100)).unwrap();
        m.commit(t, |parts| {
            recs.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        m.roll_write_into_read(P).unwrap();
        let mut t = m.begin(&[P]).unwrap();
        m.modify_at(&mut t, P, 4, 0, Value::I64(-5)).unwrap();
        let end = t.image_len(P).unwrap();
        m.insert_at(&mut t, P, end, v(200)).unwrap();
        m.insert_at(&mut t, P, end + 1, v(201)).unwrap();
        m.commit(t, |parts| {
            recs.extend(parts.into_values().flatten());
            Ok(())
        })
        .unwrap();
        let mut want = materialize(&m, P, 10);
        m.bulk_append(P, 5).unwrap();
        let stable: Vec<Vec<Value>> = (0..15).map(v).collect();
        want.extend((10..15).map(v));
        assert_eq!(apply_plan(&m.scan_plan(P).unwrap(), &stable), want);
        assert_eq!(m.visible_rows(P).unwrap(), want.len() as u64);
        // Recovery replays the logged records over the grown stable image.
        let m2 = mgr_with(P, 0);
        m2.recover_partition(P, 15, &recs).unwrap();
        assert_eq!(apply_plan(&m2.scan_plan(P).unwrap(), &stable), want);
        // And later updates address the grown image.
        let mut t = m.begin(&[P]).unwrap();
        let last = t.image_len(P).unwrap() - 1;
        m.delete_at(&mut t, P, last).unwrap();
        m.commit(t, |_| Ok(())).unwrap();
        want.pop();
        assert_eq!(apply_plan(&m.scan_plan(P).unwrap(), &stable), want);
    }

    #[test]
    fn failed_persist_releases_snapshot_refs() {
        let m = mgr_with(P, 4);
        let mut t = m.begin(&[P]).unwrap();
        m.delete_at(&mut t, P, 0).unwrap();
        let err = m
            .commit(t, |_| Err(VhError::Storage("injected WAL failure".into())))
            .unwrap_err();
        assert!(matches!(err, VhError::Storage(_)), "{err}");
        // The failed commit must not leak its active-txn reference, or the
        // partition could never be propagated again.
        assert!(m.begin_propagation(P).is_ok());
        // And the master state is untouched: the delete never landed.
        assert_eq!(materialize(&m, P, 4), stable_rows(4));
    }

    #[test]
    fn conflict_abort_releases_snapshot_refs() {
        let m = mgr_with(P, 4);
        let mut t1 = m.begin(&[P]).unwrap();
        let mut t2 = m.begin(&[P]).unwrap();
        m.modify_at(&mut t1, P, 2, 0, Value::I64(1)).unwrap();
        m.modify_at(&mut t2, P, 2, 0, Value::I64(2)).unwrap();
        m.commit(t1, |_| Ok(())).unwrap();
        assert!(m.commit(t2, |_| Ok(())).is_err());
        assert!(m.begin_propagation(P).is_ok());
    }

    #[test]
    fn needs_propagation_by_fraction() {
        let m = TransactionManager::new(TxnConfig {
            propagate_mem_bytes: usize::MAX,
            propagate_fraction: 0.5,
            write_to_read_entries: 1000,
        });
        m.register_partition(P, 4);
        assert!(!m.needs_propagation(P));
        let mut t = m.begin(&[P]).unwrap();
        for i in 0..3 {
            m.insert_at(&mut t, P, i, v(i as i64)).unwrap();
        }
        m.commit(t, |_| Ok(())).unwrap();
        assert!(m.needs_propagation(P), "3 entries / 4 stable > 0.5");
    }
}

//! Update propagation: flushing PDTs into the columnar store (§6).
//!
//! "Inserts account for most of the PDT volume. To make update propagation
//! more efficient, VectorH introduces an algorithm that is able to separate
//! tail inserts from other types of updates": pure end-of-table inserts are
//! flushed as plain appends, creating new blocks without touching existing
//! ones. For everything else this module implements the chunk-level
//! rewrite-or-keep refinement the paper leaves as future work: the merge
//! plan is sliced per chunk, chunks whose SID range the PDT never touches
//! are *kept* (their files stay byte-identical on disk), and only dirtied
//! chunks are re-written into fresh files.
//!
//! Crash safety uses a per-chunk WAL protocol. Each replacement image is
//! bracketed by `ChunkRewriteBegin { chunk, path }` (logged before the data
//! write, so recovery knows where a possibly-torn image lives) and
//! `ChunkRewritten { chunk, rows }` (the image is complete). None of that
//! takes effect until the single `Checkpoint { stable_rows }` record — the
//! commit point. All mutation happens on a scratch clone of the partition
//! manifest; the clone is installed only after the checkpoint is durable,
//! so a crash at any step leaves the live store on the old images with the
//! PDTs intact (the propagation latch is released and `recover_partition`
//! replays committed updates on top of whichever image survived).
//!
//! Replaced files are not deleted at commit: scan snapshots (cloned
//! manifests) may still reference them. They are queued (`defer_delete`)
//! and reclaimed one propagation cycle later; images orphaned by a crash
//! are swept by `gc_orphans` at the start of the next run.

use vectorh_common::fault::FaultSite;
use vectorh_common::{ColumnData, PartitionId, Result, Value, VhError};
use vectorh_pdt::MergeStep;
use vectorh_storage::PartitionStore;

use crate::manager::TransactionManager;
use crate::wal::{LogRecord, Wal};

/// What a propagation run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagationMode {
    /// Nothing pending.
    Noop,
    /// Pure tail inserts: appended new blocks only (at most the trailing
    /// partial chunk was rewritten to absorb them).
    TailAppend,
    /// General updates: dirtied chunk files rewritten, clean ones kept.
    Rewrite,
}

/// Propagation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationReport {
    pub mode: PropagationMode,
    pub rows_before: u64,
    pub rows_after: u64,
    /// Pre-existing chunks left byte-identical on disk.
    pub chunks_kept: u64,
    /// Pre-existing chunks replaced with a fresh image.
    pub chunks_rewritten: u64,
    /// Brand-new chunks appended for tail inserts.
    pub tail_chunks: u64,
}

/// Split a plan into (body, tail inserts): the maximal suffix of
/// `EmitInsert` steps.
fn split_tail_inserts(plan: &[MergeStep]) -> (&[MergeStep], &[MergeStep]) {
    let mut cut = plan.len();
    while cut > 0 && matches!(plan[cut - 1], MergeStep::EmitInsert { .. }) {
        cut -= 1;
    }
    plan.split_at(cut)
}

/// Is `body` the identity over `stable` rows? Merge layers may emit the
/// identity as several contiguous `CopyStable` runs, so walk a cursor
/// instead of pattern-matching a single step.
fn body_is_identity(body: &[MergeStep], stable: u64) -> bool {
    let mut pos = 0u64;
    for step in body {
        match step {
            MergeStep::CopyStable { from_sid, count } if *from_sid == pos => pos += count,
            _ => return false,
        }
    }
    pos == stable
}

/// Build full-width columns from inserted-row values.
fn columns_from_rows(store: &PartitionStore, rows: &[&Vec<Value>]) -> Result<Vec<ColumnData>> {
    let schema = store.schema();
    let mut cols: Vec<ColumnData> = schema
        .fields()
        .iter()
        .map(|f| ColumnData::with_capacity(f.dtype, rows.len()))
        .collect();
    for r in rows {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push_value(&r[c])?;
        }
    }
    Ok(cols)
}

/// Slice a whole-partition merge plan into per-chunk sub-plans plus the
/// tail-insert rows that land past the last stable row.
///
/// `bounds[i] = (first SID, row count)` of chunk `i`. The plan consumes
/// stable SIDs in ascending order, each exactly once, so `CopyStable` /
/// `SkipStable` runs split cleanly at chunk boundaries; an `EmitInsert` is
/// attributed to the chunk the stable cursor is currently inside (or to the
/// tail once every stable row has been consumed).
fn slice_plan(
    plan: &[MergeStep],
    bounds: &[(u64, u64)],
    stable: u64,
) -> (Vec<Vec<MergeStep>>, Vec<Vec<Value>>) {
    let n = bounds.len();
    let mut per_chunk: Vec<Vec<MergeStep>> = vec![Vec::new(); n];
    let mut tail: Vec<Vec<Value>> = Vec::new();
    let chunk_of = |sid: u64| -> usize {
        bounds
            .binary_search_by(|&(base, len)| {
                if sid < base {
                    std::cmp::Ordering::Greater
                } else if sid >= base + len {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .unwrap_or(n.saturating_sub(1))
    };
    let mut pos = 0u64; // next stable SID the plan will consume
    for step in plan {
        match step {
            MergeStep::CopyStable { from_sid, count }
            | MergeStep::SkipStable { from_sid, count } => {
                let copy = matches!(step, MergeStep::CopyStable { .. });
                let mut s = *from_sid;
                let mut remaining = *count;
                while remaining > 0 {
                    let ci = chunk_of(s);
                    let (base, len) = bounds[ci];
                    let take = remaining.min(base + len - s);
                    per_chunk[ci].push(if copy {
                        MergeStep::CopyStable {
                            from_sid: s,
                            count: take,
                        }
                    } else {
                        MergeStep::SkipStable {
                            from_sid: s,
                            count: take,
                        }
                    });
                    s += take;
                    remaining -= take;
                }
                pos = s.max(pos);
            }
            MergeStep::ModifyStable { sid, mods } => {
                per_chunk[chunk_of(*sid)].push(MergeStep::ModifyStable {
                    sid: *sid,
                    mods: mods.clone(),
                });
                pos = sid + 1;
            }
            MergeStep::EmitInsert { tag, values } => {
                if pos >= stable {
                    tail.push(values.clone());
                } else {
                    per_chunk[chunk_of(pos)].push(MergeStep::EmitInsert {
                        tag: *tag,
                        values: values.clone(),
                    });
                }
            }
        }
    }
    (per_chunk, tail)
}

/// Is this chunk's sub-plan the identity over its own SID range?
fn chunk_is_clean(steps: &[MergeStep], base: u64, len: u64) -> bool {
    let mut pos = base;
    for step in steps {
        match step {
            MergeStep::CopyStable { from_sid, count } if *from_sid == pos => pos += count,
            _ => return false,
        }
    }
    pos == base + len
}

/// Apply one chunk's sub-plan, materializing only that chunk's columns.
/// `base` is the chunk's first SID in the *pre-rewrite* layout — it must
/// come from the bounds the plan was sliced against, not be recomputed from
/// the store, because earlier chunks may already have been reinstalled with
/// a different row count.
///
/// The steps must consume the chunk's SIDs in ascending order, each at most
/// once ([`slice_plan`]'s contract); a step that does not is an error.
fn apply_chunk(
    store: &PartitionStore,
    chunk: usize,
    base: u64,
    steps: &[MergeStep],
    reader: Option<vectorh_common::NodeId>,
) -> Result<Vec<ColumnData>> {
    let schema = store.schema();
    let all: Vec<usize> = (0..schema.len()).collect();
    let cols = store.read_columns(chunk, &all, reader)?;
    let mut out: Vec<ColumnData> = schema
        .fields()
        .iter()
        .map(|f| ColumnData::new(f.dtype))
        .collect();
    let end = base + store.chunk_meta(chunk).n_rows as u64;
    let mut next_sid = base; // first SID of the chunk no step has consumed
    let mut claim = |sid: u64, n: u64| -> Result<usize> {
        if sid < next_sid || sid + n > end {
            return Err(VhError::Propagation(format!(
                "chunk {chunk}: step at sid {sid} (+{n}) is outside its unconsumed rows [{next_sid}, {end})"
            )));
        }
        next_sid = sid + n;
        Ok((sid - base) as usize)
    };
    for step in steps {
        match step {
            MergeStep::CopyStable { from_sid, count } => {
                let lo = claim(*from_sid, *count)?;
                let hi = lo + *count as usize;
                for (col, src) in out.iter_mut().zip(&cols) {
                    col.extend_range(src, lo, hi)?;
                }
            }
            MergeStep::SkipStable { from_sid, count } => {
                claim(*from_sid, *count)?;
            }
            MergeStep::ModifyStable { sid, mods } => {
                let idx = claim(*sid, 1)?;
                // Pre-index the patches by column so wide rows don't pay a
                // linear scan of `mods` per column.
                let mut by_col: Vec<Option<&Value>> = vec![None; schema.len()];
                for (mc, v) in mods {
                    by_col[*mc] = Some(v);
                }
                for (c, col) in out.iter_mut().enumerate() {
                    match by_col[c] {
                        Some(v) => col.push_value(v)?,
                        None => col.extend_range(&cols[c], idx, idx + 1)?,
                    }
                }
            }
            MergeStep::EmitInsert { values, .. } => {
                for (c, col) in out.iter_mut().enumerate() {
                    col.push_value(&values[c])?;
                }
            }
        }
    }
    Ok(out)
}

/// Consult the fault hook at a named propagation step. The detail string is
/// `"<wal path>#<step>"` so directed faults can target one partition's
/// propagation at one exact step.
fn crash_point(wal: &Wal, step: &str) -> Result<()> {
    if let Some(hook) = wal.fs().fault_hook() {
        let detail = format!("{}#{}", wal.path(), step);
        let action = hook.decide(FaultSite::Propagation, &detail, 0);
        if action.is_error() {
            return Err(VhError::Propagation(format!(
                "injected crash at {detail} ({action:?})"
            )));
        }
    }
    Ok(())
}

/// After a failed checkpoint append, decide whether the record nevertheless
/// reached the log (`CrashAfter`: durable, then the crash). Committed iff
/// the last `Checkpoint` sits *after* the last chunk-protocol record —
/// every non-noop run logs at least one `ChunkRewriteBegin`/`ChunkRewritten`
/// pair before its checkpoint, so an older checkpoint cannot fool this. A
/// probe that cannot read the log assumes not-durable.
fn checkpoint_is_durable(wal: &Wal) -> bool {
    let Ok(records) = wal.read_all() else {
        return false;
    };
    let last_ckpt = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }));
    let last_chunk = records.iter().rposition(|r| {
        matches!(
            r,
            LogRecord::ChunkRewriteBegin { .. } | LogRecord::ChunkRewritten { .. }
        )
    });
    matches!((last_ckpt, last_chunk), (Some(c), Some(k)) if c > k)
}

/// Log rebuilt MinMax summaries for the touched chunks into the WAL (the
/// paper stores MinMax in the WAL, separate from data). Kept chunks keep
/// their previously-logged summaries.
fn log_minmax(store: &PartitionStore, wal: &Wal, chunks: &[usize]) -> Result<()> {
    let mut records = Vec::new();
    for &chunk in chunks {
        for col in 0..store.schema().len() {
            if let Some(stats) = store.minmax().stats(chunk, col) {
                records.push(LogRecord::MinMax {
                    chunk: chunk as u32,
                    col: col as u32,
                    min: stats.min.clone(),
                    max: stats.max.clone(),
                });
            }
        }
    }
    if records.is_empty() {
        return Ok(());
    }
    wal.append(&records)
}

/// Propagate a partition's pending PDT updates into its chunk store.
///
/// On error the propagation latch is released and the live store is
/// untouched unless the checkpoint had already become durable (in which
/// case the new images are installed *and* the error is surfaced, so the
/// caller's recovery pass sees a log consistent with the manifest).
pub fn propagate_partition(
    mgr: &TransactionManager,
    pid: PartitionId,
    store: &mut PartitionStore,
    wal: &Wal,
) -> Result<PropagationReport> {
    let (stable, plan) = mgr.begin_propagation(pid)?;
    if plan
        .iter()
        .all(|s| matches!(s, MergeStep::CopyStable { .. }))
    {
        mgr.abort_propagation(pid);
        return Ok(PropagationReport {
            mode: PropagationMode::Noop,
            rows_before: stable,
            rows_after: stable,
            chunks_kept: 0,
            chunks_rewritten: 0,
            tail_chunks: 0,
        });
    }
    match run(mgr, pid, store, wal, stable, &plan) {
        Ok(report) => Ok(report),
        Err(e) => {
            // No-op when `run` already finished the propagation (the
            // durable-checkpoint-then-crash path).
            mgr.abort_propagation(pid);
            Err(e)
        }
    }
}

fn run(
    mgr: &TransactionManager,
    pid: PartitionId,
    store: &mut PartitionStore,
    wal: &Wal,
    stable: u64,
    plan: &[MergeStep],
) -> Result<PropagationReport> {
    let emitted: u64 = plan.iter().map(|s| s.emits()).sum();
    let (body, _tail) = split_tail_inserts(plan);
    let mode = if body_is_identity(body, stable) {
        PropagationMode::TailAppend
    } else {
        PropagationMode::Rewrite
    };

    crash_point(wal, "begin")?;
    // All mutation happens on a scratch clone; the live manifest only
    // changes at the post-checkpoint install below.
    let mut scratch = store.clone();
    scratch.gc_orphans()?;

    let n = scratch.n_chunks();
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            (
                scratch.chunk_sid_base(i),
                scratch.chunk_meta(i).n_rows as u64,
            )
        })
        .collect();
    let (per_chunk, tail_rows) = slice_plan(plan, &bounds, stable);
    let rpc = scratch.rows_per_chunk();
    let mut dirty: Vec<bool> = (0..n)
        .map(|i| !chunk_is_clean(&per_chunk[i], bounds[i].0, bounds[i].1))
        .collect();
    // A trailing partial chunk absorbs tail inserts (rewriting it) so
    // repeated trickle-and-propagate cycles don't litter short chunks.
    if !tail_rows.is_empty() && n > 0 && (dirty[n - 1] || (bounds[n - 1].1 as usize) < rpc) {
        dirty[n - 1] = true;
    }

    let reader = scratch.home();
    let mut old_paths: Vec<String> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut chunks_rewritten = 0u64;
    let mut tail_chunks = 0u64;
    let mut tail_cursor = 0usize;
    for i in 0..n {
        if !dirty[i] {
            continue;
        }
        let mut cols = apply_chunk(&scratch, i, bounds[i].0, &per_chunk[i], reader)?;
        if i == n - 1 {
            let room = rpc.saturating_sub(cols.first().map_or(0, |c| c.len()));
            let take = room.min(tail_rows.len());
            for r in &tail_rows[..take] {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push_value(&r[c])?;
                }
            }
            tail_cursor = take;
        }
        crash_point(wal, &format!("rewrite-begin:{i}"))?;
        let path = scratch.alloc_chunk_path();
        wal.append(&[LogRecord::ChunkRewriteBegin {
            chunk: i as u32,
            path: path.clone(),
        }])?;
        crash_point(wal, &format!("rewrite-data:{i}"))?;
        let rows = cols.first().map_or(0, |c| c.len()) as u64;
        old_paths.push(scratch.install_chunk(i, &path, &cols)?);
        crash_point(wal, &format!("rewritten:{i}"))?;
        wal.append(&[LogRecord::ChunkRewritten {
            chunk: i as u32,
            rows,
        }])?;
        touched.push(i);
        chunks_rewritten += 1;
    }
    let chunks_kept = dirty.iter().filter(|d| !**d).count() as u64;

    if tail_cursor < tail_rows.len() {
        crash_point(wal, "append")?;
        while tail_cursor < tail_rows.len() {
            let take = rpc.min(tail_rows.len() - tail_cursor);
            let rows: Vec<&Vec<Value>> =
                tail_rows[tail_cursor..tail_cursor + take].iter().collect();
            let cols = columns_from_rows(&scratch, &rows)?;
            let idx = scratch.n_chunks();
            let path = scratch.alloc_chunk_path();
            wal.append(&[LogRecord::ChunkRewriteBegin {
                chunk: idx as u32,
                path: path.clone(),
            }])?;
            scratch.push_chunk_at(&path, &cols)?;
            wal.append(&[LogRecord::ChunkRewritten {
                chunk: idx as u32,
                rows: take as u64,
            }])?;
            touched.push(idx);
            tail_chunks += 1;
            tail_cursor += take;
        }
    }

    if scratch.row_count() != emitted {
        return Err(VhError::Propagation(format!(
            "propagated image has {} rows, plan emits {emitted}",
            scratch.row_count()
        )));
    }

    // Commit point: the checkpoint record. If the append errors we must
    // find out whether it reached the log anyway (CrashAfter) — installing
    // the old image against a checkpointed log would lose the updates.
    crash_point(wal, "checkpoint")?;
    let deferred_err = match wal.append(&[LogRecord::Checkpoint {
        stable_rows: emitted,
    }]) {
        Ok(()) => None,
        Err(e) if checkpoint_is_durable(wal) => Some(e),
        Err(e) => return Err(e),
    };
    *store = scratch;
    mgr.finish_propagation(pid, emitted)?;
    if let Some(e) = deferred_err {
        return Err(e);
    }

    // Reclamation: delete the *previous* generation's replaced files, queue
    // this generation's. A crash here leaves `old_paths` as orphans for the
    // next run's `gc_orphans`.
    crash_point(wal, "gc")?;
    store.sweep_deferred()?;
    store.defer_delete(old_paths);
    log_minmax(store, wal, &touched)?;
    Ok(PropagationReport {
        mode,
        rows_before: stable,
        rows_after: emitted,
        chunks_kept,
        chunks_rewritten,
        tail_chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TxnConfig;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStore, BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
    use vectorh_common::fault::{FaultAction, FaultHook};
    use vectorh_common::{DataType, Schema};
    use vectorh_storage::StorageConfig;

    const P: PartitionId = PartitionId(0);

    fn setup(stable: i64) -> (TransactionManager, PartitionStore, Wal) {
        let fs: StoreRef = Arc::new(SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 1024,
                default_replication: 2,
            },
            Arc::new(DefaultPolicy::new(9)),
        ));
        let schema = Schema::of(&[("k", DataType::I64), ("s", DataType::Str)]);
        let mut store = PartitionStore::new(
            fs.clone(),
            "/db/t/p0/",
            schema,
            StorageConfig { rows_per_chunk: 64 },
        );
        if stable > 0 {
            store
                .append_rows(&[
                    ColumnData::I64((0..stable).collect()),
                    ColumnData::Str((0..stable).map(|i| format!("s{i}")).collect()),
                ])
                .unwrap();
        }
        let mgr = TransactionManager::new(TxnConfig::default());
        mgr.register_partition(P, stable as u64);
        let wal = Wal::new(fs, "/vectorh/wal/p0.wal", None);
        (mgr, store, wal)
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::I64(i), Value::Str(format!("n{i}"))]
    }

    fn file_bytes(fs: &StoreRef, path: &str) -> Vec<u8> {
        fs.read(path, 0, 1 << 24, None).unwrap()
    }

    #[test]
    fn noop_when_clean() {
        let (mgr, mut store, wal) = setup(10);
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Noop);
        assert_eq!(store.row_count(), 10);
    }

    #[test]
    fn tail_inserts_take_append_path() {
        let (mgr, mut store, wal) = setup(100);
        let chunks_before = store.n_chunks();
        let first_chunk_path = store.chunk_meta(0).path.clone();
        let mut t = mgr.begin(&[P]).unwrap();
        for i in 0..10 {
            let end = t.image_len(P).unwrap();
            mgr.insert_at(&mut t, P, end, row(1000 + i)).unwrap();
        }
        mgr.commit(t, |_, _| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::TailAppend);
        assert_eq!(r.rows_after, 110);
        assert_eq!(store.row_count(), 110);
        // Existing full chunks untouched.
        assert_eq!(store.chunk_meta(0).path, first_chunk_path);
        assert!(store.n_chunks() >= chunks_before);
        // PDTs now empty; scan plan is identity.
        assert_eq!(mgr.scan_plan(P).unwrap().len(), 1);
        // Data correct.
        let keys = store.read_column(store.n_chunks() - 1, 0, None).unwrap();
        let last = *keys.as_i64().unwrap().last().unwrap();
        assert_eq!(last, 1009);
    }

    #[test]
    fn mixed_updates_take_rewrite_path() {
        let (mgr, mut store, wal) = setup(100);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.modify_at(&mut t, P, 50, 1, Value::Str("patched".into()))
            .unwrap();
        mgr.insert_at(&mut t, P, 10, row(-7)).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Rewrite);
        assert_eq!(r.rows_after, 100); // -1 delete +1 insert
        assert_eq!(store.row_count(), 100);
        // All the damage is inside chunk 0; chunk 1 must be kept.
        assert_eq!(r.chunks_rewritten, 1);
        assert_eq!(r.chunks_kept, 1);
        // Verify contents: first row is old row 1 (row 0 deleted).
        let keys = store.read_column(0, 0, None).unwrap();
        assert_eq!(keys.as_i64().unwrap()[0], 1);
        assert_eq!(keys.as_i64().unwrap()[10], -7);
        // Modified string present.
        let mut patched = false;
        for c in 0..store.n_chunks() {
            let col = store.read_column(c, 1, None).unwrap();
            patched |= col.as_strs().unwrap().iter().any(|s| s == "patched");
        }
        assert!(patched);
        // MinMax rebuilt to include the new extreme (-7).
        assert_eq!(store.minmax().stats(0, 0).unwrap().min, Value::I64(-7));
    }

    #[test]
    fn checkpoint_and_minmax_logged() {
        let (mgr, mut store, wal) = setup(20);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 5).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        let records = wal.read_all().unwrap();
        assert!(records
            .iter()
            .any(|r| matches!(r, LogRecord::Checkpoint { stable_rows: 19 })));
        assert!(records
            .iter()
            .any(|r| matches!(r, LogRecord::MinMax { .. })));
        let (stable, tail) = wal.read_since_checkpoint().unwrap();
        assert_eq!(stable, 19);
        assert!(tail.iter().all(|r| matches!(r, LogRecord::MinMax { .. })));
    }

    #[test]
    fn propagation_from_empty_partition() {
        let (mgr, mut store, wal) = setup(0);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.insert_at(&mut t, P, 0, row(1)).unwrap();
        mgr.insert_at(&mut t, P, 1, row(2)).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::TailAppend);
        assert_eq!(r.tail_chunks, 1);
        assert_eq!(store.row_count(), 2);
    }

    #[test]
    fn repeated_cycles_stay_consistent() {
        let (mgr, mut store, wal) = setup(10);
        for round in 0..4 {
            let mut t = mgr.begin(&[P]).unwrap();
            mgr.delete_at(&mut t, P, 0).unwrap();
            let end = t.image_len(P).unwrap();
            mgr.insert_at(&mut t, P, end, row(100 + round)).unwrap();
            mgr.commit(t, |_, _| Ok(())).unwrap();
            let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
            assert_eq!(r.rows_after, 10);
            assert_eq!(store.row_count(), 10);
        }
        let keys = {
            let mut v = Vec::new();
            for c in 0..store.n_chunks() {
                v.extend(
                    store
                        .read_column(c, 0, None)
                        .unwrap()
                        .as_i64()
                        .unwrap()
                        .to_vec(),
                );
            }
            v
        };
        assert_eq!(keys, vec![4, 5, 6, 7, 8, 9, 100, 101, 102, 103]);
    }

    #[test]
    fn body_is_identity_accepts_split_copies() {
        use MergeStep::*;
        // The identity emitted as several contiguous runs (multi-layer
        // merges do this) must still classify as a tail append.
        assert!(body_is_identity(
            &[
                CopyStable {
                    from_sid: 0,
                    count: 5
                },
                CopyStable {
                    from_sid: 5,
                    count: 5
                }
            ],
            10
        ));
        // Gap, overlap, or short coverage are not the identity.
        assert!(!body_is_identity(
            &[
                CopyStable {
                    from_sid: 0,
                    count: 5
                },
                CopyStable {
                    from_sid: 6,
                    count: 4
                }
            ],
            10
        ));
        assert!(!body_is_identity(
            &[CopyStable {
                from_sid: 0,
                count: 5
            }],
            10
        ));
        assert!(body_is_identity(&[], 0));
        assert!(!body_is_identity(&[], 1));
    }

    #[test]
    fn later_chunks_use_pre_rewrite_sid_bases() {
        // Chunk 0 shrinks (delete) before chunk 1 is applied: chunk 1's
        // steps still address the original SID layout, so its base must not
        // be recomputed from the partially-rewritten manifest.
        let (mgr, mut store, wal) = setup(128);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.modify_at(&mut t, P, 100, 0, Value::I64(-100)).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.chunks_rewritten, 2);
        assert_eq!(r.rows_after, 127);
        let mut keys = Vec::new();
        for c in 0..store.n_chunks() {
            keys.extend(
                store
                    .read_column(c, 0, None)
                    .unwrap()
                    .as_i64()
                    .unwrap()
                    .to_vec(),
            );
        }
        // modify_at addresses the post-delete image: position 100 is
        // original sid 101, which lands at output index 100.
        let mut want: Vec<i64> = (1..128).collect();
        want[100] = -100;
        assert_eq!(keys, want);
    }

    #[test]
    fn apply_chunk_moves_each_row_once_and_rejects_a_plan_that_goes_back() {
        use MergeStep::*;
        let (_mgr, store, _wal) = setup(128); // chunks [0, 64) and [64, 128)
        let copy = |from_sid, count| CopyStable { from_sid, count };
        let modify = |sid| ModifyStable {
            sid,
            mods: vec![(0, Value::I64(-1))],
        };
        let steps = [
            copy(64, 10),
            EmitInsert {
                tag: 1,
                values: row(500),
            },
            modify(74),
            SkipStable {
                from_sid: 75,
                count: 1,
            },
            copy(76, 52),
        ];
        let cols = apply_chunk(&store, 1, 64, &steps, None).unwrap();
        let mut keys: Vec<i64> = (64..128).filter(|k| *k != 75).collect();
        keys.insert(10, 500);
        keys[11] = -1;
        let mut strs: Vec<String> = (64..128)
            .filter(|k| *k != 75)
            .map(|k| format!("s{k}"))
            .collect();
        strs.insert(10, "n500".into());
        assert_eq!(cols, [ColumnData::I64(keys), ColumnData::Str(strs.into())]);

        for (bad, sid) in [
            (vec![copy(64, 30), copy(80, 48)], 80), // copies 80..94 twice
            (vec![copy(64, 30), modify(93)], 93),
            (vec![copy(64, 64), modify(128)], 128), // sid = row_count
            (vec![copy(100, 29)], 100),             // runs past the chunk
            (vec![copy(10, 5)], 10),                // another chunk's rows
        ] {
            let err = apply_chunk(&store, 1, 64, &bad, None).unwrap_err();
            assert!(matches!(err, VhError::Propagation(_)), "got {err}");
            assert!(
                err.to_string().contains(&format!("sid {sid} ")),
                "got {err}"
            );
        }
    }

    #[test]
    fn untouched_chunks_stay_byte_identical_on_disk() {
        // Two full 64-row chunks; dirty only the second one.
        let (mgr, mut store, wal) = setup(128);
        let fs = wal.fs().clone();
        let path0 = store.chunk_meta(0).path.clone();
        let bytes0 = file_bytes(&fs, &path0);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.modify_at(&mut t, P, 100, 0, Value::I64(-100)).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Rewrite);
        assert_eq!(r.chunks_kept, 1);
        assert_eq!(r.chunks_rewritten, 1);
        assert_eq!(store.chunk_meta(0).path, path0);
        assert_eq!(file_bytes(&fs, &path0), bytes0);
        let keys = store.read_column(1, 0, None).unwrap();
        assert_eq!(keys.as_i64().unwrap()[100 - 64], -100);
    }

    /// Fires `action` once at the first Propagation crash point whose
    /// detail contains `needle`.
    #[derive(Debug)]
    struct CrashAt {
        needle: String,
        action: FaultAction,
        fired: AtomicBool,
    }

    impl FaultHook for CrashAt {
        fn decide(&self, site: FaultSite, detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::Propagation
                && detail.contains(&self.needle)
                && !self.fired.swap(true, Ordering::SeqCst)
            {
                self.action
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn crash_mid_rewrite_leaves_live_store_untouched_and_retryable() {
        let (mgr, mut store, wal) = setup(100);
        let paths_before: Vec<String> = (0..store.n_chunks())
            .map(|i| store.chunk_meta(i).path.clone())
            .collect();
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();

        let fs = wal.fs().clone();
        fs.set_fault_hook(Some(Arc::new(CrashAt {
            needle: "#rewrite-data:0".into(),
            action: FaultAction::CrashBefore,
            fired: AtomicBool::new(false),
        })));
        let err = propagate_partition(&mgr, P, &mut store, &wal).unwrap_err();
        assert!(matches!(err, VhError::Propagation(_)), "got {err}");
        // Live manifest untouched; PDT changes still pending.
        let paths_after: Vec<String> = (0..store.n_chunks())
            .map(|i| store.chunk_meta(i).path.clone())
            .collect();
        assert_eq!(paths_after, paths_before);
        assert_eq!(store.row_count(), 100);
        assert!(
            mgr.scan_plan(P).unwrap().len() > 1,
            "PDT must still hold the delete"
        );
        // The latch is released: a retry (hook now exhausted) succeeds.
        fs.set_fault_hook(None);
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.rows_after, 99);
        assert_eq!(store.row_count(), 99);
        assert_eq!(mgr.scan_plan(P).unwrap().len(), 1);
    }

    #[test]
    fn replaced_images_are_reclaimed_one_cycle_later() {
        let (mgr, mut store, wal) = setup(20);
        let fs = wal.fs().clone();
        let gen0_path = store.chunk_meta(0).path.clone();
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        // The replaced image survives its own commit (snapshots may still
        // reference it) and is queued for deferred deletion.
        assert!(fs.exists(&gen0_path));
        assert_eq!(store.deferred(), std::slice::from_ref(&gen0_path));
        let gen1_path = store.chunk_meta(0).path.clone();
        // The next committed propagation sweeps it.
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert!(!fs.exists(&gen0_path));
        assert!(
            fs.exists(&gen1_path),
            "current generation deferred, not deleted"
        );
        assert_eq!(store.deferred(), &[gen1_path]);
    }

    /// Fires `action` on the `nth` (1-based) WalAppend decision.
    #[derive(Debug)]
    struct CrashOnNthAppend {
        nth: u32,
        action: FaultAction,
        seen: AtomicU32,
    }

    impl FaultHook for CrashOnNthAppend {
        fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::WalAppend
                && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth
            {
                self.action
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn durable_checkpoint_installs_despite_crash_after() {
        let (mgr, mut store, wal) = setup(20);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 5).unwrap();
        mgr.commit(t, |_, _| Ok(())).unwrap();
        // Single dirty chunk → appends are Begin, Rewritten, Checkpoint:
        // crash *after* the checkpoint reaches the log.
        let fs = wal.fs().clone();
        fs.set_fault_hook(Some(Arc::new(CrashOnNthAppend {
            nth: 3,
            action: FaultAction::CrashAfter,
            seen: AtomicU32::new(0),
        })));
        let err = propagate_partition(&mgr, P, &mut store, &wal).unwrap_err();
        fs.set_fault_hook(None);
        // The checkpoint committed, so the new image must be installed and
        // the PDTs reset even though the error surfaces.
        assert!(err.to_string().contains("wal"), "got {err}");
        assert_eq!(store.row_count(), 19);
        assert_eq!(mgr.visible_rows(P).unwrap(), 19);
        assert_eq!(mgr.scan_plan(P).unwrap().len(), 1);
        let (stable, _) = wal.read_since_checkpoint().unwrap();
        assert_eq!(stable, 19);
        // Nothing pending: the next run is a noop.
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Noop);
    }
}

//! Update propagation: flushing PDTs into the columnar store (§6).
//!
//! "Inserts account for most of the PDT volume. To make update propagation
//! more efficient, VectorH introduces an algorithm that is able to separate
//! tail inserts from other types of updates": pure end-of-table inserts are
//! flushed as plain appends, creating new blocks without touching existing
//! ones. For everything else this module implements the chunk-level
//! rewrite-or-keep refinement the paper leaves as future work: the merge
//! plan is sliced per chunk, and a chunk is *folded* (re-written into a
//! fresh file with its deltas applied, by draining an `MScan` of it, the
//! one interpreter of a merge plan) only once its pending deltas reach
//! 1/64 of its rows. Every other chunk is *kept*: its file stays
//! byte-identical on disk and its deltas stay pending in the PDT. Tail
//! inserts count against the last chunk. So a run writes at least one
//! folded delta per 64 rows, whether the engine's thresholds triggered it or
//! a caller forced it, and a run in which no chunk reaches the rule is a
//! no-op. When the PDTs are over a threshold (the memory one can fire on
//! sparse deltas), further chunks fold, densest first, until what stays
//! pending is under it.
//!
//! Crash safety uses a per-chunk WAL protocol. Each replacement image is
//! bracketed by `ChunkRewriteBegin { chunk, path }` (logged before the data
//! write, so recovery knows where a possibly-torn image lives) and
//! `ChunkRewritten { chunk, rows }` (the image is complete). None of that
//! takes effect until the single `Checkpoint { stable_rows, carried }`
//! record — the commit point. `carried` holds the kept chunks' deltas as
//! positional records in the new image's coordinates, so the record that
//! commits the image also commits what is pending on it: recovery, a
//! replica's re-base and the in-memory PDT rebuild all replay that one set
//! (`TransactionManager::rebase_partition`). All mutation happens on a
//! scratch clone of the partition manifest; the clone is installed only
//! after the checkpoint is durable, so a crash at any step leaves the live
//! store on the old images with the PDTs intact (the propagation latch is
//! released and `recover_partition` replays the previous checkpoint's
//! carried deltas and the committed tail on top of whichever image
//! survived).
//!
//! Replaced files are not deleted at commit: scan snapshots (cloned
//! manifests) may still reference them. They are queued (`defer_delete`)
//! and reclaimed one propagation cycle later; images orphaned by a crash
//! are swept by `gc_orphans` at the start of the next run.

use vectorh_common::fault::FaultSite;
use vectorh_common::{ColumnData, PartitionId, Result, VhError};
use vectorh_exec::scan::MScan;
use vectorh_pdt::MergeStep;
use vectorh_storage::PartitionStore;

use crate::manager::{TransactionManager, TxnConfig};
use crate::wal::{LogRecord, Wal};

/// A chunk folds once `FOLD_DENSITY × deltas ≥ rows`. A rewrite then folds
/// at least one delta per 64 rows it writes (three times over, with block
/// replication), while a kept delta costs one re-logged record per run and
/// one merge step per scan. 1/64 is also the largest fraction at which a
/// chunk of up to 64 rows folds on any delta.
const FOLD_DENSITY: u64 = 64;

/// What a propagation run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagationMode {
    /// No chunk reached the fold rule (or nothing was pending).
    Noop,
    /// Only tail inserts folded: appended new blocks only (at most the
    /// trailing partial chunk was rewritten to absorb them).
    TailAppend,
    /// Chunks folded their deltas: those chunk files rewritten, the others
    /// kept.
    Rewrite,
}

/// Propagation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationReport {
    pub mode: PropagationMode,
    /// Stable rows the run started from.
    pub rows_before: u64,
    /// Rows of the image after it: its stable rows plus what it carried.
    pub rows_after: u64,
    /// Pre-existing chunks left byte-identical on disk.
    pub chunks_kept: u64,
    /// Pre-existing chunks replaced with a fresh image.
    pub chunks_rewritten: u64,
    /// Brand-new chunks appended for tail inserts.
    pub tail_chunks: u64,
    /// Deltas (rows deleted, modified or inserted) left pending on kept
    /// chunks.
    pub deltas_carried: u64,
    /// Those deltas as the checkpoint carries them: positional records over
    /// the new image, what a replica re-bases with.
    pub carried: Vec<LogRecord>,
}

impl PropagationReport {
    fn noop(stable: u64) -> PropagationReport {
        PropagationReport {
            mode: PropagationMode::Noop,
            rows_before: stable,
            rows_after: stable,
            chunks_kept: 0,
            chunks_rewritten: 0,
            tail_chunks: 0,
            deltas_carried: 0,
            carried: Vec::new(),
        }
    }
}

/// Slice a whole-partition merge plan into per-chunk sub-plans plus the
/// tail inserts that land past the last stable row.
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
) -> (Vec<Vec<MergeStep>>, Vec<MergeStep>) {
    let n = bounds.len();
    let mut per_chunk: Vec<Vec<MergeStep>> = vec![Vec::new(); n];
    let mut tail: Vec<MergeStep> = Vec::new();
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
            MergeStep::ModifyStable { sid, .. } => {
                per_chunk[chunk_of(*sid)].push(step.clone());
                pos = sid + 1;
            }
            MergeStep::EmitInsert { .. } => {
                if pos >= stable {
                    tail.push(step.clone());
                } else {
                    per_chunk[chunk_of(pos)].push(step.clone());
                }
            }
        }
    }
    (per_chunk, tail)
}

/// The rows a step changes: each row it deletes, modifies or inserts.
fn step_deltas(step: &MergeStep) -> u64 {
    match step {
        MergeStep::CopyStable { .. } => 0,
        MergeStep::SkipStable { count, .. } => *count,
        MergeStep::ModifyStable { .. } | MergeStep::EmitInsert { .. } => 1,
    }
}

/// The rows a sub-plan changes.
fn deltas(steps: &[MergeStep]) -> u64 {
    steps.iter().map(step_deltas).sum()
}

/// The fold rule: does a chunk of `rows` stable rows with `deltas` pending
/// deltas fold?
fn folds(deltas: u64, rows: u64) -> bool {
    deltas > 0 && FOLD_DENSITY * deltas >= rows
}

/// Append the positional records that replay `steps` (one kept chunk's
/// sub-plan, or the carried tail) onto the new stable image. `rid` is the
/// position in the image being rebuilt: rows before it are final, rows from
/// it on are still the new image's stable rows, in order.
fn carry(steps: &[MergeStep], rid: &mut u64, out: &mut Vec<LogRecord>) {
    for step in steps {
        match step {
            MergeStep::CopyStable { count, .. } => *rid += count,
            MergeStep::SkipStable { count, .. } => {
                out.extend((0..*count).map(|_| LogRecord::Delete { txn: 0, rid: *rid }));
            }
            MergeStep::ModifyStable { mods, .. } => {
                out.extend(mods.iter().map(|(col, value)| LogRecord::Modify {
                    txn: 0,
                    rid: *rid,
                    col: *col as u32,
                    value: value.clone(),
                }));
                *rid += 1;
            }
            MergeStep::EmitInsert { tag, values } => {
                out.push(LogRecord::Insert {
                    txn: 0,
                    rid: *rid,
                    tag: *tag,
                    values: values.to_vec(),
                });
                *rid += 1;
            }
        }
    }
}

/// What a run folds and what it carries, decided before it writes.
struct Folding {
    /// Per-chunk sub-plans, against the chunk layout the run started from.
    per_chunk: Vec<Vec<MergeStep>>,
    /// The `EmitInsert`s past the last stable row.
    tail: Vec<MergeStep>,
    fold: Vec<bool>,
    /// The tail folds with the last chunk (always, with no chunk at all).
    tail_folds: bool,
    /// The checkpoint's carried records, and how many deltas they hold.
    carried: Vec<LogRecord>,
    deltas_carried: u64,
    /// Stable rows of the new image, and its rows with the carried deltas
    /// applied (the image the run started from).
    new_stable: u64,
    image_rows: u64,
}

impl Folding {
    /// Slice `plan` over the chunks of `bounds` and apply the fold rule.
    /// A run the thresholds `triggered` must leave a state they do not
    /// trigger, or the background tick would repeat it: while what the kept
    /// chunks would carry still crosses `config`'s thresholds over the new
    /// image (or nothing folds at all), fold the densest kept chunk too.
    fn decide(
        plan: &[MergeStep],
        bounds: &[(u64, u64)],
        stable: u64,
        config: &TxnConfig,
        triggered: bool,
    ) -> Folding {
        let (per_chunk, tail) = slice_plan(plan, bounds, stable);
        let n = bounds.len();
        // Per chunk: deltas, PDT entries and bytes, rows it emits. The tail
        // counts against the last chunk.
        let mut d = vec![0u64; n];
        let mut entries = vec![0u64; n];
        let mut bytes = vec![0usize; n];
        let mut emits = vec![0u64; n];
        for (i, steps) in per_chunk.iter().enumerate() {
            let tail: &[MergeStep] = if i + 1 == n { &tail } else { &[] };
            for s in steps.iter().chain(tail) {
                d[i] += step_deltas(s);
                entries[i] += s.pdt_entries();
                bytes[i] += s.pdt_bytes();
                emits[i] += s.emits();
            }
        }
        let mut fold: Vec<bool> = (0..n).map(|i| folds(d[i], bounds[i].1)).collect();
        loop {
            let kept = || (0..n).filter(|&i| !fold[i]);
            let new_stable: u64 = (0..n)
                .map(|i| if fold[i] { emits[i] } else { bounds[i].1 })
                .sum();
            let over = config.exceeded_by(
                kept().map(|i| bytes[i]).sum(),
                kept().map(|i| entries[i]).sum(),
                new_stable,
            );
            // Densest first: d[a] / rows[a] against d[b] / rows[b],
            // cross-multiplied.
            let densest = kept().filter(|&i| d[i] > 0).max_by(|&a, &b| {
                (d[a] as u128 * bounds[b].1 as u128).cmp(&(d[b] as u128 * bounds[a].1 as u128))
            });
            match densest {
                Some(i) if over || (triggered && !fold.contains(&true)) => fold[i] = true,
                _ => break,
            }
        }
        let tail_folds = fold.last().copied().unwrap_or(true);

        let mut carried = Vec::new();
        let mut deltas_carried = 0;
        let mut new_stable = 0;
        let mut rid = 0u64;
        for i in 0..n {
            if fold[i] {
                let rows = per_chunk[i].iter().map(MergeStep::emits).sum::<u64>();
                new_stable += rows;
                rid += rows;
            } else {
                new_stable += bounds[i].1;
                deltas_carried += deltas(&per_chunk[i]);
                carry(&per_chunk[i], &mut rid, &mut carried);
            }
        }
        if tail_folds {
            new_stable += tail.len() as u64;
        } else {
            deltas_carried += tail.len() as u64;
            carry(&tail, &mut rid, &mut carried);
        }
        Folding {
            per_chunk,
            tail,
            fold,
            tail_folds,
            carried,
            deltas_carried,
            new_stable,
            image_rows: plan.iter().map(MergeStep::emits).sum(),
        }
    }

    /// Does the run write anything?
    fn folds_anything(&self) -> bool {
        (self.fold.is_empty() && !self.tail.is_empty()) || self.fold.contains(&true)
    }
}

/// Fold `steps` over the image the run started from (`store`, the live
/// manifest: the sub-plans address its pre-rewrite SIDs) by draining an
/// [`MScan`] of all columns that reads `chunk` only (`None`: an insert-only
/// plan, a fresh tail chunk). The scan drops the rows of a chunk it does not
/// keep, so a step outside `chunk` is refused here; the scan refuses one
/// that goes back.
fn fold_chunk(
    store: &PartitionStore,
    chunk: Option<usize>,
    steps: Vec<MergeStep>,
) -> Result<Vec<ColumnData>> {
    let mut keep = vec![false; store.n_chunks()];
    let (base, end) = chunk.map_or((0, 0), |i| {
        keep[i] = true;
        let base = store.chunk_sid_base(i);
        (base, base + store.chunk_meta(i).n_rows as u64)
    });
    let at = chunk.map_or("tail chunk".to_string(), |i| format!("chunk {i}"));
    let refuse = |what: String| VhError::Propagation(format!("{at}: {what}"));
    for step in &steps {
        let (sid, n) = match step {
            MergeStep::CopyStable { from_sid, count }
            | MergeStep::SkipStable { from_sid, count } => (*from_sid, *count),
            MergeStep::ModifyStable { sid, .. } => (*sid, 1),
            MergeStep::EmitInsert { .. } => continue,
        };
        if sid < base || sid + n > end {
            return Err(refuse(format!(
                "step at sid {sid} (+{n}) is outside its rows [{base}, {end})"
            )));
        }
    }
    let all = (0..store.schema().len()).collect();
    let scan = MScan::new(store.clone(), all, keep, steps, store.home())?;
    scan.into_columns().map_err(|e| match e {
        VhError::Exec(what) => refuse(what),
        e => e,
    })
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
/// every non-noop run folds a chunk or the tail, so it logs at least one
/// `ChunkRewriteBegin`/`ChunkRewritten` pair before its checkpoint, and an
/// older checkpoint cannot fool this. A probe that cannot read the log
/// assumes not-durable.
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

/// Propagate a partition's pending PDT updates into its chunk store: fold
/// the chunks the rule picks, carry the rest.
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
        return Ok(PropagationReport::noop(stable));
    }
    let bounds: Vec<(u64, u64)> = (0..store.n_chunks())
        .map(|i| (store.chunk_sid_base(i), store.chunk_meta(i).n_rows as u64))
        .collect();
    // The latch holds off new transactions, so the state the thresholds
    // see is the one the plan was built from.
    let triggered = mgr.needs_propagation(pid);
    let folding = Folding::decide(&plan, &bounds, stable, &mgr.config, triggered);
    if !folding.folds_anything() {
        mgr.abort_propagation(pid);
        return Ok(PropagationReport::noop(stable));
    }
    match run(mgr, pid, store, wal, stable, folding) {
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
    folding: Folding,
) -> Result<PropagationReport> {
    let Folding {
        mut per_chunk,
        tail,
        fold,
        tail_folds,
        carried,
        deltas_carried,
        new_stable,
        image_rows,
    } = folding;
    crash_point(wal, "begin")?;
    // All mutation happens on a scratch clone; the live manifest, which
    // the folds read, only changes at the post-checkpoint install below.
    let mut scratch = store.clone();
    scratch.gc_orphans()?;

    let n = per_chunk.len();
    let rpc = scratch.rows_per_chunk();
    // The tail, when it folds, goes into the last chunk first if that
    // chunk is partial (so repeated trickle-and-propagate cycles don't
    // litter short chunks), then into fresh chunks.
    let absorb = tail_folds && !tail.is_empty() && n > 0 && store.chunk_meta(n - 1).n_rows < rpc;
    let mut rewrite: Vec<bool> = (0..n)
        .map(|i| fold[i] && deltas(&per_chunk[i]) > 0)
        .collect();
    let mode = if rewrite.contains(&true) {
        PropagationMode::Rewrite
    } else {
        PropagationMode::TailAppend
    };
    if absorb {
        rewrite[n - 1] = true;
    }

    let mut old_paths: Vec<String> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut chunks_rewritten = 0u64;
    let mut tail_chunks = 0u64;
    let mut tail_cursor = 0usize;
    for i in 0..n {
        if !rewrite[i] {
            continue;
        }
        let mut steps = std::mem::take(&mut per_chunk[i]);
        if i == n - 1 && tail_folds {
            let rows = steps.iter().map(MergeStep::emits).sum::<u64>() as usize;
            tail_cursor = rpc.saturating_sub(rows).min(tail.len());
            steps.extend_from_slice(&tail[..tail_cursor]);
        }
        let cols = fold_chunk(store, Some(i), steps)?;
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
    let chunks_kept = n as u64 - chunks_rewritten;

    if tail_folds && tail_cursor < tail.len() {
        crash_point(wal, "append")?;
        for rows in tail[tail_cursor..].chunks(rpc.max(1)) {
            let cols = fold_chunk(store, None, rows.to_vec())?;
            let idx = scratch.n_chunks();
            let path = scratch.alloc_chunk_path();
            wal.append(&[LogRecord::ChunkRewriteBegin {
                chunk: idx as u32,
                path: path.clone(),
            }])?;
            scratch.push_chunk_at(&path, &cols)?;
            wal.append(&[LogRecord::ChunkRewritten {
                chunk: idx as u32,
                rows: rows.len() as u64,
            }])?;
            touched.push(idx);
            tail_chunks += 1;
        }
    }

    if scratch.row_count() != new_stable {
        return Err(VhError::Propagation(format!(
            "propagated image has {} rows, the plan leaves {new_stable} stable",
            scratch.row_count()
        )));
    }

    // Commit point: the checkpoint record. If the append errors we must
    // find out whether it reached the log anyway (CrashAfter) — installing
    // the old image against a checkpointed log would lose the updates.
    crash_point(wal, "checkpoint")?;
    let deferred_err = match wal.append(&[LogRecord::Checkpoint {
        stable_rows: new_stable,
        carried: carried.clone(),
    }]) {
        Ok(()) => None,
        Err(e) if checkpoint_is_durable(wal) => Some(e),
        Err(e) => return Err(e),
    };
    *store = scratch;
    mgr.finish_propagation(pid, new_stable, &carried)?;
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
        rows_after: image_rows,
        chunks_kept,
        chunks_rewritten,
        tail_chunks,
        deltas_carried,
        carried,
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
    use vectorh_common::{DataType, Schema, Value};
    use vectorh_storage::StorageConfig;

    const P: PartitionId = PartitionId(0);

    fn setup(stable: i64) -> (TransactionManager, PartitionStore, Wal) {
        setup_with(64, stable, TxnConfig::default())
    }

    fn setup_with(
        rows_per_chunk: usize,
        stable: i64,
        config: TxnConfig,
    ) -> (TransactionManager, PartitionStore, Wal) {
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
            StorageConfig { rows_per_chunk },
        );
        if stable > 0 {
            store
                .append_rows(&[
                    ColumnData::I64((0..stable).collect()),
                    ColumnData::Str((0..stable).map(|i| format!("s{i}")).collect()),
                ])
                .unwrap();
        }
        let mgr = TransactionManager::new(config);
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
        mgr.commit(t, |_| Ok(())).unwrap();
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
        mgr.commit(t, |_| Ok(())).unwrap();
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
        mgr.commit(t, |_| Ok(())).unwrap();
        propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        let records = wal.read_all().unwrap();
        assert!(records.iter().any(|r| matches!(
            r,
            LogRecord::Checkpoint {
                stable_rows: 19,
                ..
            }
        )));
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
        mgr.commit(t, |_| Ok(())).unwrap();
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
            mgr.commit(t, |_| Ok(())).unwrap();
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
    fn split_copy_runs_carry_no_deltas() {
        use MergeStep::*;
        // The identity emitted as several contiguous runs (multi-layer
        // merges do this) is a clean chunk: no deltas, so it never folds.
        let split = [
            CopyStable {
                from_sid: 0,
                count: 5,
            },
            CopyStable {
                from_sid: 5,
                count: 5,
            },
        ];
        assert_eq!(deltas(&split), 0);
        assert!(!folds(deltas(&split), 10));
        assert!(!folds(0, 0));
        let mut rid = 0;
        let mut out = Vec::new();
        carry(&split, &mut rid, &mut out);
        assert_eq!((rid, out), (10, vec![]));
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
        mgr.commit(t, |_| Ok(())).unwrap();
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
    fn a_fold_moves_each_row_once_and_rejects_a_plan_that_goes_back() {
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
                values: row(500).into(),
            },
            modify(74),
            SkipStable {
                from_sid: 75,
                count: 1,
            },
            copy(76, 52),
        ];
        let cols = fold_chunk(&store, Some(1), steps.to_vec()).unwrap();
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
            let err = fold_chunk(&store, Some(1), bad).unwrap_err();
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
        mgr.commit(t, |_| Ok(())).unwrap();
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
        mgr.commit(t, |_| Ok(())).unwrap();

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
        mgr.commit(t, |_| Ok(())).unwrap();
        propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        // The replaced image survives its own commit (snapshots may still
        // reference it) and is queued for deferred deletion.
        assert!(fs.exists(&gen0_path));
        assert_eq!(store.deferred(), std::slice::from_ref(&gen0_path));
        let gen1_path = store.chunk_meta(0).path.clone();
        // The next committed propagation sweeps it.
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.delete_at(&mut t, P, 0).unwrap();
        mgr.commit(t, |_| Ok(())).unwrap();
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
        mgr.commit(t, |_| Ok(())).unwrap();
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

    // --- the fold rule ----------------------------------------------------

    /// The stable image, row by row.
    fn stable_rows(store: &PartitionStore) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for c in 0..store.n_chunks() {
            let keys = store.read_column(c, 0, None).unwrap();
            let strs = store.read_column(c, 1, None).unwrap();
            for (k, s) in keys
                .as_i64()
                .unwrap()
                .iter()
                .zip(strs.as_strs().unwrap().iter())
            {
                rows.push(vec![Value::I64(*k), Value::Str(s.to_string())]);
            }
        }
        rows
    }

    /// The visible image: the stable image with the PDTs merged in.
    fn image(mgr: &TransactionManager, store: &PartitionStore) -> Vec<Vec<Value>> {
        vectorh_pdt::merge::apply_plan(&mgr.scan_plan(P).unwrap(), &stable_rows(store))
    }

    /// Each chunk's path and file bytes.
    fn chunk_files(store: &PartitionStore, wal: &Wal) -> Vec<(String, Vec<u8>)> {
        (0..store.n_chunks())
            .map(|i| {
                let path = store.chunk_meta(i).path.clone();
                let bytes = file_bytes(wal.fs(), &path);
                (path, bytes)
            })
            .collect()
    }

    /// Commit `d` deletes at the start of the stable rows from `first` on.
    fn delete_run(mgr: &TransactionManager, first: u64, d: u64) {
        let mut t = mgr.begin(&[P]).unwrap();
        for _ in 0..d {
            mgr.delete_at(&mut t, P, first).unwrap();
        }
        mgr.commit(t, |_| Ok(())).unwrap();
    }

    fn last_checkpoint(wal: &Wal) -> (u64, Vec<LogRecord>) {
        let r = wal.read_replay().unwrap();
        (r.stable_rows, r.carried)
    }

    #[test]
    fn the_rule_keeps_at_one_delta_short_and_folds_at_one_in_64() {
        // 513 rows in chunks of 257 and 256. Four deltas each: 64 x 4 = 256
        // is one short of the first chunk and exactly the second.
        assert!(!folds(4, 257) && folds(4, 256) && folds(1, 64) && !folds(1, 65));
        let (mgr, mut store, wal) = setup_with(257, 513, TxnConfig::default());
        assert_eq!(chunk_files(&store, &wal).len(), 2);
        let kept = chunk_files(&store, &wal)[0].clone();
        delete_run(&mgr, 10, 4);
        delete_run(&mgr, 300 - 4, 4);
        let before = image(&mgr, &store);
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Rewrite);
        assert_eq!((r.chunks_kept, r.chunks_rewritten), (1, 1));
        assert_eq!(r.deltas_carried, 4);
        assert_eq!(
            chunk_files(&store, &wal)[0],
            kept,
            "the sparse chunk was rewritten"
        );
        assert_eq!(store.row_count(), 513 - 4);
        assert_eq!(r.rows_after, 513 - 8);
        assert_eq!(image(&mgr, &store), before);
        let (ckpt, carried) = last_checkpoint(&wal);
        assert_eq!(ckpt, 509);
        assert_eq!(
            carried,
            (0..4)
                .map(|_| LogRecord::Delete { txn: 0, rid: 10 })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tail_inserts_count_against_the_last_chunk() {
        // Two full 256-row chunks. Three modifies in the last one stay
        // below the rule; one tail insert more reaches it.
        let (mgr, mut store, wal) = setup_with(256, 512, TxnConfig::default());
        let mut t = mgr.begin(&[P]).unwrap();
        for rid in [300, 301, 302] {
            mgr.modify_at(&mut t, P, rid, 1, Value::Str("m".into()))
                .unwrap();
        }
        mgr.commit(t, |_| Ok(())).unwrap();
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Noop, "3 x 64 < 256 must keep");

        let files = chunk_files(&store, &wal);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.insert_at(&mut t, P, 512, row(9000)).unwrap();
        mgr.commit(t, |_| Ok(())).unwrap();
        let before = image(&mgr, &store);
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r.mode, PropagationMode::Rewrite);
        assert_eq!((r.chunks_kept, r.chunks_rewritten), (1, 1));
        assert_eq!((r.tail_chunks, r.deltas_carried), (1, 0));
        assert_eq!(chunk_files(&store, &wal)[0], files[0]);
        assert_eq!(store.row_count(), 513);
        assert_eq!(stable_rows(&store), before);
        assert_eq!(mgr.scan_plan(P).unwrap().len(), 1, "nothing left pending");
    }

    #[test]
    fn a_forced_run_over_sparse_chunks_only_is_a_noop() {
        let (mgr, mut store, wal) = setup_with(256, 512, TxnConfig::default());
        delete_run(&mgr, 7, 1);
        delete_run(&mgr, 400, 3);
        let mut t = mgr.begin(&[P]).unwrap();
        mgr.insert_at(&mut t, P, 100, row(-1)).unwrap();
        mgr.commit(t, |_| Ok(())).unwrap();
        let files = chunk_files(&store, &wal);
        let plan = mgr.scan_plan(P).unwrap();
        assert!(!mgr.needs_propagation(P));
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        assert_eq!(r, PropagationReport::noop(512));
        assert_eq!(chunk_files(&store, &wal), files);
        assert_eq!(mgr.scan_plan(P).unwrap(), plan);
        assert!(wal.read_all().unwrap().is_empty(), "a no-op logs nothing");
        // The latch is released.
        mgr.abort(mgr.begin(&[P]).unwrap());
    }

    #[test]
    fn sparse_deltas_over_the_memory_limit_fold_densest_first() {
        // Each chunk stays under the rule, but the PDT is over a tiny
        // memory limit: the run folds the densest chunk and stops once what
        // it carries is under the limit.
        let config = TxnConfig {
            propagate_mem_bytes: 400,
            ..TxnConfig::default()
        };
        let (mgr, mut store, wal) = setup_with(256, 768, config);
        let long = |i: usize| Value::Str(format!("{i:>60}"));
        let mut t = mgr.begin(&[P]).unwrap();
        for (n, rid) in [(0, 1), (1, 2), (2, 3), (3, 300), (4, 301), (5, 600)] {
            mgr.modify_at(&mut t, P, rid, 1, long(n)).unwrap();
        }
        mgr.commit(t, |_| Ok(())).unwrap();
        assert!(mgr.needs_propagation(P));
        let files = chunk_files(&store, &wal);
        let before = image(&mgr, &store);
        let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
        // Six 92-byte modifies (552 bytes) in chunks of 3, 2 and 1: the
        // densest chunk folds, the 276 bytes left are under the limit.
        assert_eq!((r.chunks_rewritten, r.deltas_carried), (1, 3));
        assert_eq!(chunk_files(&store, &wal)[1..], files[1..]);
        assert_ne!(chunk_files(&store, &wal)[0], files[0]);
        assert!(!mgr.needs_propagation(P));
        let st = mgr.partition_state(P).unwrap();
        assert!(st.read.mem_bytes() + st.write.mem_bytes() <= 400);
        assert_eq!(image(&mgr, &store), before);
    }

    /// Generated histories: random deletes, modifies and inserts of varying
    /// density over 256-row chunks, then a run. The carried records replayed
    /// onto the new stable image must give back the image the run started
    /// from, and the chunks the run kept must be byte-identical.
    #[test]
    fn carried_records_replay_to_the_pre_run_image() {
        let mut rng = vectorh_common::rng::SplitMix64::new(0x5ca7_7e2d);
        let mut carried_runs = 0;
        for case in 0..40 {
            let (mgr, mut store, wal) = setup_with(256, 1024 + case, TxnConfig::default());
            let case = case as u64;
            for _ in 0..1 + rng.next_bounded(3) {
                let mut t = mgr.begin(&[P]).unwrap();
                // Per chunk, a density around the rule.
                for c in 0..5u64 {
                    for _ in 0..rng.next_bounded(7) {
                        let len = t.image_len(P).unwrap();
                        let rid = (c * 256 + rng.next_bounded(256)).min(len - 1);
                        match rng.next_bounded(4) {
                            0 => mgr.delete_at(&mut t, P, rid).unwrap(),
                            1 => mgr
                                .modify_at(&mut t, P, rid, 0, Value::I64(-(rid as i64)))
                                .unwrap(),
                            2 => mgr
                                .insert_at(&mut t, P, rid, row(rng.range_i64(0, 1 << 20)))
                                .unwrap(),
                            _ => mgr.insert_at(&mut t, P, len, row(7)).unwrap(),
                        }
                    }
                }
                mgr.commit(t, |_| Ok(())).unwrap();
            }
            let files = chunk_files(&store, &wal);
            let before = image(&mgr, &store);
            let r = propagate_partition(&mgr, P, &mut store, &wal).unwrap();
            assert_eq!(image(&mgr, &store), before, "case {case}: {r:?}");
            if r.mode == PropagationMode::Noop {
                continue;
            }
            let (ckpt, carried) = last_checkpoint(&wal);
            assert_eq!(ckpt, store.row_count());
            assert_eq!(carried, r.carried);
            let fresh = TransactionManager::new(TxnConfig::default());
            fresh.rebase_partition(P, ckpt, &carried, &[]).unwrap();
            assert_eq!(image(&fresh, &store), before, "case {case}: replay");
            let now = chunk_files(&store, &wal);
            let kept = now.iter().filter(|f| files.contains(f)).count() as u64;
            assert_eq!(kept, r.chunks_kept, "case {case}: kept chunk bytes moved");
            carried_runs += (r.deltas_carried > 0) as u32;
        }
        assert!(
            carried_runs >= 10,
            "only {carried_runs} runs carried deltas"
        );
    }
}

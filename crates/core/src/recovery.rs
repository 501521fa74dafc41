//! The recovery coordinator: WAL-driven partition takeover and node rejoin.
//!
//! §6 of the paper promises that the failure of a responsible node is
//! survivable *transactionally*: "the role of session-master can be taken
//! over by any other worker", the new responsible node replays the
//! per-partition WAL, and in-doubt 2PC transactions are resolved against the
//! decision records of the reduced global WAL. This module is that promise,
//! end to end:
//!
//! * [`recover_partition`] — repair a partition WAL's torn tail, restore
//!   from the global decisions' payloads what a power loss cut from its
//!   unforced tail, resolve every logged transaction (local `Commit`,
//!   global decision, or presumed abort), and install the committed image
//!   atomically into a [`TransactionManager`]. Used by the engine when responsibility moves
//!   off a dead node, and by the chaos harness as the one true recovery
//!   entry point.
//! * [`VectorH::rejoin_node`] — the reverse of `kill_node`: revive the
//!   datanode, re-admit the NodeManager, re-run the min-cost-flow remap so
//!   locality converges back (Figure 2 in reverse), and catch the node's
//!   replicated-table state up from the shipped log.

use std::sync::Arc;

use vectorh_common::{NodeId, PartitionId, Result};
use vectorh_txn::twophase::{Drained, TwoPhaseCoordinator, TxnResolution};
use vectorh_txn::{LogRecord, TransactionManager, TxnConfig, Wal};

use crate::engine::VectorH;

/// What one partition takeover did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Torn-tail bytes trimmed by `Wal::repair`.
    pub repaired_bytes: u64,
    /// Decided transactions a power loss had cut from the log, re-appended
    /// from the global WAL (`TwoPhaseCoordinator::restore_lost_tail`).
    pub restored: Vec<u64>,
    /// Transactions resolved to committed (local record or global decision),
    /// in log order.
    pub committed: Vec<u64>,
    /// Transactions resolved to aborted (no commit evidence anywhere).
    pub aborted: Vec<u64>,
    /// Update records replayed into the fresh partition state, after the
    /// carried ones.
    pub replayed_records: usize,
    /// The deltas the last checkpoint carried, replayed first.
    pub carried: Vec<LogRecord>,
}

/// Recover one partition onto its (new) responsible node: repair the WAL
/// tail, re-append (forced) each decided transaction a power loss cut from
/// it, resolve in-doubt transactions against the global WAL, and replay
/// the last checkpoint's carried deltas, then the committed records after
/// it, into `txns` atomically — committed updates stay visible, uncommitted
/// ones never surface. `stable_rows` is the row count of the partition's
/// stable (on-disk) image; records before the WAL's last `Checkpoint` are
/// already part of it or of its carried set, and are skipped.
pub fn recover_partition(
    coordinator: &TwoPhaseCoordinator,
    txns: &TransactionManager,
    pid: PartitionId,
    stable_rows: u64,
    wal: &Wal,
) -> Result<RecoveryReport> {
    let repaired_bytes = wal.repair()?;
    let restored = coordinator.restore_lost_tail(pid, wal)?;
    let mut report = replay_partition(coordinator, txns, pid, stable_rows, wal)?;
    report.repaired_bytes = repaired_bytes;
    report.restored = restored;
    Ok(report)
}

/// [`recover_partition`] after its repair and restore: resolve and replay.
fn replay_partition(
    coordinator: &TwoPhaseCoordinator,
    txns: &TransactionManager,
    pid: PartitionId,
    stable_rows: u64,
    wal: &Wal,
) -> Result<RecoveryReport> {
    let verdicts = coordinator.recoverable_txns(wal)?;
    // Only a transaction committed by the decision alone still needs it.
    coordinator.global_wal().settled(
        pid,
        verdicts
            .iter()
            .filter(|v| v.resolution != TxnResolution::CommittedByDecision)
            .map(|v| v.txn),
    )?;
    let mut committed = Vec::new();
    let mut aborted = Vec::new();
    for v in &verdicts {
        if v.resolution.is_committed() {
            committed.push(v.txn);
        } else {
            aborted.push(v.txn);
        }
    }
    let committed_set: std::collections::HashSet<u64> = committed.iter().copied().collect();
    // Records after the last checkpoint, in log order (= commit order: each
    // commit appends its whole batch atomically, and a restored tail goes
    // back in decision order). Bulk `Append`s are already
    // in the stable image and are ignored by replay.
    let replay = wal.read_replay()?;
    let records: Vec<LogRecord> = replay
        .tail
        .into_iter()
        .filter(|r| match r {
            LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Modify { txn, .. } => committed_set.contains(txn),
            _ => false,
        })
        .collect();
    txns.rebase_partition(pid, stable_rows, &replay.carried, &records)?;
    Ok(RecoveryReport {
        repaired_bytes: 0,
        restored: Vec::new(),
        committed,
        aborted,
        replayed_records: records.len(),
        carried: replay.carried,
    })
}

impl VectorH {
    /// Takeover for partitions whose responsible node died: move each WAL
    /// to the new responsible node and run [`recover_partition`] there.
    /// Called by `reconcile_workers` after the placement remap picked the
    /// new owners.
    pub(crate) fn take_over_partitions(
        &self,
        orphaned: &[PartitionId],
    ) -> Result<Vec<(PartitionId, RecoveryReport)>> {
        let mut reports = Vec::new();
        if orphaned.is_empty() {
            return Ok(reports);
        }
        let tables = self.tables_snapshot();
        // Deterministic order: recovery consults the fault hook (WAL reads
        // and repairs), so the chaos harness needs a stable schedule.
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort_unstable();
        for name in names {
            let rt = &tables[name];
            for (i, pid) in rt.pids.iter().enumerate() {
                if !orphaned.contains(pid) {
                    continue;
                }
                let new_home = self.responsible(*pid);
                rt.wals[i].set_home(Some(new_home));
                let stable = rt.stores[i].read().row_count();
                let report =
                    recover_partition(&self.coordinator, &self.txns, *pid, stable, &rt.wals[i])?;
                reports.push((*pid, report));
            }
        }
        Ok(reports)
    }

    /// Re-admit a previously killed worker (the reverse of
    /// [`VectorH::kill_node`]): revive the datanode, un-lose the
    /// NodeManager, re-negotiate YARN slices, re-run the min-cost-flow remap
    /// (re-replicating toward the restored affinity so locality converges
    /// back to the pre-failure state), and rebuild the node's
    /// replicated-table RAM state from the stable image plus the shipped
    /// log.
    pub fn rejoin_node(&self, node: NodeId) -> Result<()> {
        self.fs().revive_node(node)?;
        self.rm().node_added(node)?;
        // `admit_worker` also clears the heartbeat monitor's dead latch,
        // atomically with re-admission (a background health round between
        // the two would otherwise instantly re-fence the node).
        let workers_now = self.admit_worker(node);
        // The dbAgent kept the node in its worker list; renegotiation
        // re-acquires slices there now that the RM accepts requests again.
        self.renegotiate_agent();
        self.remap_placement(&workers_now)?;
        // Replicated-table catch-up: fresh per-node state registered at the
        // stable image, then the retained shipped log replays on top — the
        // ordinary replay path, same as a live receiver. If retention
        // truncated the log past the beginning, the node is behind the
        // horizon and takes the full-image bootstrap instead (stable image
        // + committed WAL tail, watermark fast-forwarded to the head).
        let mgr = Arc::new(TransactionManager::new(TxnConfig::default()));
        let tables = self.tables_snapshot();
        for rt in tables.values() {
            if rt.def.partitioning.is_some() {
                continue;
            }
            let pid = rt.pids[0];
            let stable = rt.stores[0].read().row_count();
            mgr.register_partition(pid, stable);
            self.shipper.rewind(pid, node);
            match self.shipper.drain(pid, node) {
                Drained::Records(backlog) => mgr.replay(pid, &backlog)?,
                Drained::BehindHorizon => self.bootstrap_replica(rt, pid, node, &mgr)?,
            }
        }
        self.install_replica(node, mgr);
        Ok(())
    }

    /// Finish every transaction the deposed master left in doubt: for each
    /// partition WAL, re-append the decided transactions a power loss cut
    /// from it (records, `Prepare` and `Commit`, forced), find transactions
    /// that prepared but never got a local verdict, append the phase-2
    /// `Commit` where the global WAL holds the decision and an explicit
    /// `Abort` otherwise (presumed abort), then realign the in-memory image
    /// with the durable outcome as [`recover_partition`] does — the old master
    /// may have installed state for a transaction whose decision never
    /// became durable (or vice versa). Decided transactions on replicated
    /// tables are re-shipped so every replica converges. Returns the number
    /// of (partition, transaction) pairs resolved, restored ones included.
    ///
    /// Called by `reconcile_workers` right after an election; also callable
    /// directly by drills that depose a master without killing it.
    pub fn resolve_in_doubt(&self) -> Result<usize> {
        let tables = self.tables_snapshot();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort_unstable();
        let workers = self.workers();
        let mut resolved = 0;
        let mut concluded = std::collections::BTreeSet::new();
        for name in names {
            let rt = &tables[name];
            for (i, pid) in rt.pids.iter().enumerate() {
                let wal = &rt.wals[i];
                wal.repair()?;
                let restored = self.coordinator.restore_lost_tail(*pid, wal)?;
                let in_doubt = self.coordinator.in_doubt_txns_of(wal)?;
                if in_doubt.is_empty() && restored.is_empty() {
                    continue;
                }
                for &(txn, decided) in &in_doubt {
                    TwoPhaseCoordinator::conclude(wal, txn, decided)?;
                    concluded.insert(txn);
                }
                resolved += in_doubt.len() + restored.len();
                let stable = rt.stores[i].read().row_count();
                replay_partition(&self.coordinator, &self.txns, *pid, stable, wal)?;
                if rt.def.partitioning.is_none() {
                    for &(txn, decided) in &in_doubt {
                        if decided {
                            let recs = TwoPhaseCoordinator::records_of(wal, txn)?;
                            self.shipper
                                .ship(*pid, &recs, workers.len().saturating_sub(1));
                        }
                    }
                    self.apply_shipped(rt, *pid, &workers)?;
                }
            }
        }
        // Every participant of these has its verdict now.
        for txn in concluded {
            self.coordinator.concluded(txn);
        }
        Ok(resolved)
    }
}

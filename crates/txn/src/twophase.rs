//! Two-phase commit between the session master and responsible nodes (§6).
//!
//! "VectorH introduces 2PC to ensure ACID properties for distributed
//! transactions, where a much-reduced global WAL is written to by the
//! session-master." The decision record in the global WAL is the commit
//! point: any worker can read it (HDFS is a shared filesystem), which is
//! also why "the role of session-master can be taken over by any other
//! worker in case of session-master failure". The protocol's steps consult
//! fault sites, so recovery semantics are testable: a transaction is
//! committed iff its `GlobalCommit` record reached the global WAL.
//!
//! A commit forces exactly one file, the global WAL. Each participant
//! appends its update records and its `Prepare` vote to its partition WAL
//! unforced; the coordinator then forces one `GlobalCommit` that carries
//! every participant's records, keyed by partition — the coordinator log of
//! Stamos & Cristian (1993), where the participants' records travel inside
//! the coordinator's single forced record. The phase-2 `Commit` records are
//! appended unforced too, because recovery rebuilds them from the decision
//! (the presumed-commit optimisation of R\*, Mohan, Lindsay & Obermarck
//! 1986). A power loss may therefore cut a partition WAL back to its last
//! forced record (a propagation `Checkpoint`):
//! [`restore_lost_tail`](TwoPhaseCoordinator::restore_lost_tail) re-appends
//! each decided transaction the cut removed, from the decision's payload,
//! and forces it before recovery replays. A transaction with no decision is
//! still presumed aborted. The global WAL drops a payload once every
//! partition it names has forced a later checkpoint (see [`GlobalWal`]).

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use vectorh_common::fault::{FaultAction, FaultSite};
use vectorh_common::{NodeId, PartitionId, Result, VhError};

use crate::global::GlobalWal;
use crate::wal::{LogRecord, Wal};

/// 2PC outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    /// Coordinator crashed; resolution deferred to recovery.
    InDoubt,
}

/// What the commit point left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The decision is durable, and the coordinator lives on to phase 2.
    Committed,
    /// The decision is durable, but the coordinator "died" before phase 2:
    /// recovery commits the transaction.
    InDoubt,
    /// The coordinator "died" before its decision reached the global WAL:
    /// presumed abort.
    Lost,
}

/// The session-master side of 2PC.
///
/// The coordinator is fenced by a *master epoch*: every commit presents the
/// epoch its sender believes is current, and the commit point rejects any
/// epoch older than the installed one with [`VhError::StaleMaster`]. An
/// election ([`install_epoch`](Self::install_epoch)) bumps the epoch
/// monotonically, so a deposed master that was only falsely declared dead
/// can never decide a transaction after its successor took over.
pub struct TwoPhaseCoordinator {
    global_wal: GlobalWal,
    /// The current master epoch. Starts at 1; elections only raise it.
    epoch: AtomicU64,
}

impl TwoPhaseCoordinator {
    /// A coordinator whose global WAL starts at `global_wal`'s file (and
    /// continues at the latest generation already on its store).
    pub fn new(global_wal: Wal) -> TwoPhaseCoordinator {
        TwoPhaseCoordinator {
            global_wal: GlobalWal::new(global_wal),
            epoch: AtomicU64::new(1),
        }
    }

    pub fn global_wal(&self) -> &GlobalWal {
        &self.global_wal
    }

    /// The currently installed master epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Install the epoch of a newly elected master. Monotonic (`fetch_max`):
    /// a racing stale installer can never roll the epoch back. Returns the
    /// epoch in force afterwards.
    pub fn install_epoch(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::SeqCst).max(epoch)
    }

    /// Fencing check: `Err(StaleMaster)` iff `epoch` is older than the
    /// installed one.
    pub fn check_epoch(&self, epoch: u64) -> Result<()> {
        let current = self.epoch();
        if epoch < current {
            return Err(VhError::StaleMaster(format!(
                "commit at master epoch {epoch} rejected: epoch {current} is in force"
            )));
        }
        Ok(())
    }

    /// The 2PC commit point, fenced and fault-injectable: verify `epoch` is
    /// still current, consult [`FaultSite::TwoPhaseDecide`], then force the
    /// `GlobalCommit` decision, carrying `payload` (each participant's
    /// update records, in `PartitionId` order), into the global WAL.
    /// [`Decision::Lost`] means the coordinator "died" before the decision
    /// (no record, presumed abort on recovery), [`Decision::InDoubt`] that
    /// it died after (decision durable, recovery commits). An append that
    /// fails is an `Err` unless the record reached the log anyway, which is
    /// `InDoubt` too.
    pub fn decide(
        &self,
        epoch: u64,
        txn_id: u64,
        payload: Vec<(PartitionId, Vec<LogRecord>)>,
    ) -> Result<Decision> {
        self.check_epoch(epoch)?;
        let fault = self
            .global_wal
            .fs()
            .fault_hook()
            .map(|h| h.decide(FaultSite::TwoPhaseDecide, &format!("txn{txn_id}"), 0))
            .unwrap_or(FaultAction::None);
        match fault {
            FaultAction::CrashBefore
            | FaultAction::TransientError
            | FaultAction::PermanentError
            | FaultAction::Drop => {
                // Died before the decision reached the global WAL.
                return Ok(Decision::Lost);
            }
            _ => {}
        }
        if let Err(e) = self.global_wal.log_decision(txn_id, payload) {
            return match self.recover_decision(txn_id) {
                Ok(true) => Ok(Decision::InDoubt),
                _ => Err(e),
            };
        }
        if matches!(fault, FaultAction::CrashMid | FaultAction::CrashAfter) {
            // Decision is durable but the coordinator died before phase 2.
            return Ok(Decision::InDoubt);
        }
        Ok(Decision::Committed)
    }

    /// Phase 1 for one participant, fault-injectable: consult
    /// [`FaultSite::TwoPhasePrepare`], then append the participant's update
    /// records and its `Prepare` vote to its partition WAL as one batch,
    /// unforced: the decision carries the records. `Ok(false)` means the
    /// coordinator "died" before this participant prepared: nothing reached
    /// its WAL.
    pub fn prepare(
        &self,
        txn_id: u64,
        pid: PartitionId,
        wal: &Wal,
        recs: &[LogRecord],
    ) -> Result<bool> {
        if let Some(h) = self.global_wal.fs().fault_hook() {
            let detail = format!("txn{txn_id}:{pid:?}");
            if h.decide(FaultSite::TwoPhasePrepare, &detail, 0).is_error() {
                return Ok(false);
            }
        }
        let vote = LogRecord::Prepare { txn: txn_id };
        wal.append(recs.iter().chain([&vote]))?;
        Ok(true)
    }

    /// Phase 2 for one participant: its local verdict, `Commit` or `Abort`.
    /// The only writer of either record, called only once the decision is
    /// settled: a `Commit` follows a durable `GlobalCommit`, an `Abort` its
    /// known absence. Unforced, because recovery rebuilds a lost verdict
    /// from the global WAL.
    pub fn conclude(wal: &Wal, txn_id: u64, committed: bool) -> Result<()> {
        let verdict = if committed {
            LogRecord::Commit {
                txn: txn_id,
                seq: 0,
            }
        } else {
            LogRecord::Abort { txn: txn_id }
        };
        wal.append(&[verdict])
    }

    /// Phase 2 of `txn_id` finished on every participant: the global WAL
    /// need not carry its decision past the next rotation.
    pub fn concluded(&self, txn_id: u64) {
        self.global_wal.concluded(txn_id);
    }

    /// Run 2PC for `txn_id` across the participants' partition WALs, at the
    /// installed epoch. `records` holds each participant's already-resolved
    /// update records.
    pub fn commit_distributed(
        &self,
        txn_id: u64,
        participants: &[(PartitionId, &Wal, &[LogRecord])],
    ) -> Result<Outcome> {
        self.commit_at_epoch(self.epoch(), txn_id, participants)
    }

    /// [`commit_distributed`](Self::commit_distributed) with the sender's
    /// believed master epoch made explicit: [`prepare`](Self::prepare) each
    /// participant, [`decide`](Self::decide) with their records, then
    /// [`conclude`](Self::conclude) each. A fault at a prepare or at the
    /// decision stops the protocol there and reports `InDoubt`, exactly as a
    /// coordinator crash would; the commit point stays the `GlobalCommit`
    /// record. Fenced twice: at entry and again at the commit point — an
    /// election between the two leaves at most prepared participants
    /// behind, which the new master resolves to presumed abort (no decision
    /// record exists).
    pub fn commit_at_epoch(
        &self,
        epoch: u64,
        txn_id: u64,
        participants: &[(PartitionId, &Wal, &[LogRecord])],
    ) -> Result<Outcome> {
        self.check_epoch(epoch)?;
        for (pid, wal, recs) in participants {
            if !self.prepare(txn_id, *pid, wal, recs)? {
                return Ok(Outcome::InDoubt);
            }
        }
        let mut payload: Vec<(PartitionId, Vec<LogRecord>)> = participants
            .iter()
            .map(|(pid, _, recs)| (*pid, recs.to_vec()))
            .collect();
        payload.sort_by_key(|(pid, _)| *pid);
        if self.decide(epoch, txn_id, payload)? != Decision::Committed {
            return Ok(Outcome::InDoubt);
        }
        for (_, wal, _) in participants {
            Self::conclude(wal, txn_id, true)?;
        }
        self.concluded(txn_id);
        Ok(Outcome::Committed)
    }

    /// Recovery: resolve an in-doubt transaction by consulting the global
    /// WAL (readable by any worker).
    pub fn recover_decision(&self, txn_id: u64) -> Result<bool> {
        Ok(self.decided_txns()?.contains(&txn_id))
    }

    /// Recovery after a power loss: re-append to `wal` every transaction
    /// the global WAL decided with records for `pid` whose `Prepare` the
    /// partition log lacks — a tail the loss cut — as its records, its
    /// `Prepare` and its phase-2 `Commit`, in decision (= commit) order,
    /// then force them. Returns the transactions restored. A partition log
    /// keeps every record up to its last forced one, and the global WAL
    /// keeps a payload until a later checkpoint of each partition it names,
    /// so a decided transaction is either in the log or in a payload. Reads
    /// neither log when no checkpoint-uncovered payload names `pid`.
    pub fn restore_lost_tail(&self, pid: PartitionId, wal: &Wal) -> Result<Vec<u64>> {
        if !self.global_wal.holds_payload(pid)? {
            return Ok(Vec::new());
        }
        let decided: Vec<(u64, Vec<LogRecord>)> = self
            .global_wal
            .read_all()?
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::GlobalCommit { txn, payload } => payload
                    .into_iter()
                    .find(|(p, records)| *p == pid && !records.is_empty())
                    .map(|(_, records)| (txn, records)),
                _ => None,
            })
            .collect();
        if decided.is_empty() {
            return Ok(Vec::new());
        }
        let prepared: HashSet<u64> = wal
            .read_all()?
            .iter()
            .filter_map(|r| match r {
                LogRecord::Prepare { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let mut batch = Vec::new();
        let mut restored = Vec::new();
        for (txn, records) in decided {
            if prepared.contains(&txn) {
                continue;
            }
            batch.extend(records);
            batch.push(LogRecord::Prepare { txn });
            batch.push(LogRecord::Commit { txn, seq: 0 });
            restored.push(txn);
        }
        if !batch.is_empty() {
            wal.append(&batch)?;
            wal.sync()?;
        }
        Ok(restored)
    }

    /// Every transaction the global WAL holds a `GlobalCommit` for, from one
    /// read of it.
    fn decided_txns(&self) -> Result<HashSet<u64>> {
        Ok(self
            .global_wal
            .read_all()?
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::GlobalCommit { txn, .. } => Some(txn),
                _ => None,
            })
            .collect())
    }

    /// Resolve `pending` (prepared, no local verdict) against the global WAL:
    /// the subset that holds a decision. Reads the global WAL once, and not
    /// at all when nothing is pending.
    fn decided_among(&self, pending: &[u64]) -> Result<HashSet<u64>> {
        if pending.is_empty() {
            return Ok(HashSet::new());
        }
        let decided = self.decided_txns()?;
        Ok(pending
            .iter()
            .copied()
            .filter(|t| decided.contains(t))
            .collect())
    }

    /// Participant-side recovery: which of the partition WAL's transactions
    /// must be replayed? Committed = local Commit record OR (Prepare present
    /// AND global decision present).
    pub fn committed_txns_of(&self, partition_wal: &Wal) -> Result<Vec<u64>> {
        let records = partition_wal.read_all()?;
        let mut committed = BTreeSet::new();
        let mut prepared = Vec::new();
        for r in &records {
            match r {
                LogRecord::Commit { txn, .. } => {
                    committed.insert(*txn);
                }
                LogRecord::Prepare { txn } => prepared.push(*txn),
                _ => {}
            }
        }
        prepared.retain(|t| !committed.contains(t));
        committed.extend(self.decided_among(&prepared)?);
        Ok(committed.into_iter().collect())
    }

    /// Participant-side recovery, with the full per-transaction verdicts:
    /// every transaction that left a trace in the partition WAL, in log
    /// order, with how recovery resolves it. `committed_txns_of` is the
    /// committed-only projection of this.
    pub fn recoverable_txns(&self, partition_wal: &Wal) -> Result<Vec<RecoverableTxn>> {
        let records = partition_wal.read_all()?;
        let mut order: Vec<u64> = Vec::new();
        let mut seen = HashSet::new();
        let mut committed = BTreeSet::new();
        let mut prepared = BTreeSet::new();
        let mut aborted = BTreeSet::new();
        for r in &records {
            let txn = match r {
                LogRecord::TxnBegin { txn }
                | LogRecord::Insert { txn, .. }
                | LogRecord::Delete { txn, .. }
                | LogRecord::Modify { txn, .. }
                | LogRecord::Append { txn, .. } => *txn,
                LogRecord::Commit { txn, .. } => {
                    committed.insert(*txn);
                    *txn
                }
                LogRecord::Prepare { txn } => {
                    prepared.insert(*txn);
                    *txn
                }
                LogRecord::Abort { txn } => {
                    aborted.insert(*txn);
                    *txn
                }
                _ => continue,
            };
            if seen.insert(txn) {
                order.push(txn);
            }
        }
        let pending: Vec<u64> = prepared
            .iter()
            .copied()
            .filter(|t| !committed.contains(t) && !aborted.contains(t))
            .collect();
        let decided = self.decided_among(&pending)?;
        let mut out = Vec::with_capacity(order.len());
        for txn in order {
            let resolution = if committed.contains(&txn) {
                TxnResolution::CommittedLocally
            } else if aborted.contains(&txn) {
                TxnResolution::Aborted
            } else if decided.contains(&txn) {
                TxnResolution::CommittedByDecision
            } else {
                // Prepared without a global decision, or never even
                // prepared: presumed abort.
                TxnResolution::Aborted
            };
            out.push(RecoverableTxn { txn, resolution });
        }
        Ok(out)
    }

    /// Transactions in a partition WAL that prepared but never received a
    /// durable local verdict (no `Commit`, no `Abort`), paired with whether
    /// the global WAL holds their decision. These are exactly the
    /// transactions a newly elected master must finish: append the phase-2
    /// `Commit` where the decision exists, an explicit `Abort` otherwise.
    pub fn in_doubt_txns_of(&self, partition_wal: &Wal) -> Result<Vec<(u64, bool)>> {
        let records = partition_wal.read_all()?;
        let mut prepared: Vec<u64> = Vec::new();
        let mut seen = HashSet::new();
        let mut settled = BTreeSet::new();
        for r in &records {
            match r {
                LogRecord::Prepare { txn } if seen.insert(*txn) => prepared.push(*txn),
                LogRecord::Commit { txn, .. } | LogRecord::Abort { txn } => {
                    settled.insert(*txn);
                }
                _ => {}
            }
        }
        prepared.retain(|t| !settled.contains(t));
        let decided = self.decided_among(&prepared)?;
        Ok(prepared
            .into_iter()
            .map(|t| (t, decided.contains(&t)))
            .collect())
    }

    /// Extract the replayable update records of a committed txn from a
    /// partition WAL, in order.
    pub fn records_of(partition_wal: &Wal, txn_id: u64) -> Result<Vec<LogRecord>> {
        let all = partition_wal.read_all()?;
        Ok(all
            .into_iter()
            .filter(|r| match r {
                LogRecord::Insert { txn, .. }
                | LogRecord::Delete { txn, .. }
                | LogRecord::Modify { txn, .. }
                | LogRecord::Append { txn, .. } => *txn == txn_id,
                _ => false,
            })
            .collect())
    }
}

/// How recovery resolves one transaction found in a partition WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnResolution {
    /// A local `Commit` record is in the log: committed before the crash.
    CommittedLocally,
    /// Prepared, and the global WAL holds the decision: commits on recovery.
    CommittedByDecision,
    /// No commit evidence anywhere: presumed abort, never replayed.
    Aborted,
}

impl TxnResolution {
    pub fn is_committed(&self) -> bool {
        !matches!(self, TxnResolution::Aborted)
    }
}

/// One transaction's recovery verdict (see
/// [`TwoPhaseCoordinator::recoverable_txns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverableTxn {
    pub txn: u64,
    pub resolution: TxnResolution,
}

/// Retention policy for the shipped log: how much un-checkpointed history
/// the shipper keeps per partition. `None` bounds are unbounded; the
/// default retains everything (truncation happens only at propagation
/// checkpoints, as before). When a bound is exceeded the oldest records are
/// truncated and the horizon advances — a receiver whose watermark falls
/// behind it must take a full-image bootstrap instead of a drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipRetention {
    /// Retain at most this many encoded bytes per partition log.
    pub max_bytes: Option<u64>,
    /// Retain at most this many records per partition log.
    pub max_records: Option<usize>,
}

impl ShipRetention {
    /// Policy from the environment: `VH_SHIP_RETAIN_BYTES` and
    /// `VH_SHIP_RETAIN_RECORDS` (unset or unparsable = unbounded).
    pub fn from_env() -> ShipRetention {
        ShipRetention::from_vars(
            std::env::var("VH_SHIP_RETAIN_BYTES").ok().as_deref(),
            std::env::var("VH_SHIP_RETAIN_RECORDS").ok().as_deref(),
        )
    }

    /// Testable core of [`from_env`](Self::from_env).
    pub fn from_vars(bytes: Option<&str>, records: Option<&str>) -> ShipRetention {
        let parse = |s: Option<&str>| s.and_then(|v| v.trim().parse::<u64>().ok());
        ShipRetention {
            max_bytes: parse(bytes),
            max_records: parse(records).map(|n| n as usize),
        }
    }

    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_records.is_none()
    }
}

/// What a receiver gets back from [`LogShipper::drain`].
#[derive(Debug, Clone, PartialEq)]
pub enum Drained {
    /// The records between the receiver's watermark and the head, in ship
    /// order; the watermark is advanced past them.
    Records(Vec<LogRecord>),
    /// The receiver's watermark fell behind the truncation horizon: the
    /// retained log can no longer catch it up. The receiver must take a
    /// full-image bootstrap (stable snapshot + committed WAL-tail replay)
    /// and then [`LogShipper::fast_forward`] its watermark to the head.
    BehindHorizon,
}

/// The shipped log of one replicated partition: retained records with their
/// encoded sizes, the absolute index of the oldest retained record (the
/// truncation horizon), and absolute per-receiver apply watermarks.
#[derive(Debug, Default)]
struct ShipLog {
    records: std::collections::VecDeque<(LogRecord, u32)>,
    /// Absolute index of `records.front()`; grows on truncation.
    base: u64,
    /// Encoded bytes currently retained.
    retained: u64,
    /// Absolute per-receiver watermarks (index of the next unapplied record).
    applied: std::collections::HashMap<NodeId, u64>,
}

impl ShipLog {
    fn head(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Drop records from the front until within `ret`'s bounds; returns the
    /// bytes reclaimed. Receivers left behind the new horizon will see
    /// [`Drained::BehindHorizon`] on their next drain.
    fn enforce(&mut self, ret: &ShipRetention) -> u64 {
        let mut reclaimed = 0u64;
        loop {
            let over_bytes = ret.max_bytes.map(|m| self.retained > m).unwrap_or(false);
            let over_records = ret
                .max_records
                .map(|m| self.records.len() > m)
                .unwrap_or(false);
            if !(over_bytes || over_records) {
                return reclaimed;
            }
            match self.records.pop_front() {
                Some((_, size)) => {
                    self.base += 1;
                    self.retained -= size as u64;
                    reclaimed += size as u64;
                }
                None => return reclaimed,
            }
        }
    }
}

/// Log shipping for replicated tables (§6): all workers keep replicated
/// PDTs in RAM, so commits broadcast the same on-disk-format log actions to
/// every worker, and receivers apply them through the ordinary replay path
/// ("allowing reuse of existing code and the testing infrastructure"). The
/// shipper is the pipe: senders [`ship`](Self::ship) a batch, each receiver
/// [`drain`](Self::drain)s its backlog and replays it. A node that was down
/// while batches shipped [`rewind`](Self::rewind)s and re-applies the
/// retained log on rejoin — unless the [`ShipRetention`] policy truncated
/// past its watermark, in which case the drain reports
/// [`Drained::BehindHorizon`] and the receiver bootstraps from the full
/// image instead. Propagation [`checkpoint`](Self::checkpoint)s the log
/// once the records are in stable storage.
#[derive(Debug, Default)]
pub struct LogShipper {
    inner: vectorh_common::sync::Mutex<std::collections::HashMap<PartitionId, ShipLog>>,
    retention: ShipRetention,
    shipped_bytes: std::sync::atomic::AtomicU64,
    shipped_batches: std::sync::atomic::AtomicU64,
    reclaimed_bytes: std::sync::atomic::AtomicU64,
}

impl LogShipper {
    /// A shipper with a bounded retention policy (the default retains
    /// everything until checkpoint).
    pub fn with_retention(retention: ShipRetention) -> LogShipper {
        LogShipper {
            retention,
            ..LogShipper::default()
        }
    }

    pub fn retention(&self) -> &ShipRetention {
        &self.retention
    }

    /// Ship `records` for `pid` to `n_receivers` workers; returns the total
    /// encoded bytes put on the wire (on-disk WAL format, per §6). Applies
    /// the retention policy after appending.
    pub fn ship(&self, pid: PartitionId, records: &[LogRecord], n_receivers: usize) -> u64 {
        if records.is_empty() {
            return 0;
        }
        let mut size = 0u64;
        let mut inner = self.inner.lock();
        let log = inner.entry(pid).or_default();
        for r in records {
            let mut buf = Vec::new();
            crate::wal::encode_for_shipping(r, &mut buf);
            size += buf.len() as u64;
            log.retained += buf.len() as u64;
            log.records.push_back((r.clone(), buf.len() as u32));
        }
        let reclaimed = log.enforce(&self.retention);
        drop(inner);
        if reclaimed > 0 {
            self.reclaimed_bytes
                .fetch_add(reclaimed, std::sync::atomic::Ordering::Relaxed);
        }
        let total = size * n_receivers as u64;
        self.shipped_bytes
            .fetch_add(total, std::sync::atomic::Ordering::Relaxed);
        self.shipped_batches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        total
    }

    /// Receiver side: everything shipped for `pid` that `node` has not yet
    /// applied. In the good case the node's watermark (or, for a receiver
    /// with no watermark, the start of an untruncated log) is within the
    /// horizon: the backlog comes back and the watermark advances to the
    /// head. A watermark behind the horizon gets [`Drained::BehindHorizon`].
    pub fn drain(&self, pid: PartitionId, node: NodeId) -> Drained {
        let mut inner = self.inner.lock();
        let Some(log) = inner.get_mut(&pid) else {
            return Drained::Records(vec![]);
        };
        let head = log.head();
        // No watermark: a fresh (or rewound) receiver starts from the
        // beginning of history — reachable only while nothing has been
        // truncated.
        let from = log.applied.get(&node).copied().unwrap_or(0);
        if from < log.base {
            return Drained::BehindHorizon;
        }
        let skip = (from - log.base) as usize;
        let out = log
            .records
            .iter()
            .skip(skip)
            .map(|(r, _)| r.clone())
            .collect();
        log.applied.insert(node, head);
        Drained::Records(out)
    }

    /// Retained records shipped for `pid` that `node` has not applied yet.
    pub fn backlog(&self, pid: PartitionId, node: NodeId) -> usize {
        let inner = self.inner.lock();
        inner
            .get(&pid)
            .map(|log| {
                let w = log.applied.get(&node).copied().unwrap_or(0);
                (log.head() - w.clamp(log.base, log.head())) as usize
            })
            .unwrap_or(0)
    }

    /// Forget `node`'s watermark for `pid`: a rejoining node lost its RAM
    /// state and must re-apply the whole retained log on top of stable data
    /// — or bootstrap, if the retained log no longer reaches back that far.
    pub fn rewind(&self, pid: PartitionId, node: NodeId) {
        if let Some(log) = self.inner.lock().get_mut(&pid) {
            log.applied.remove(&node);
        }
    }

    /// Set `node`'s watermark to the head of `pid`'s log: the receiver just
    /// completed a full-image bootstrap and is current as of now.
    pub fn fast_forward(&self, pid: PartitionId, node: NodeId) {
        let mut inner = self.inner.lock();
        let log = inner.entry(pid).or_default();
        let head = log.head();
        log.applied.insert(node, head);
    }

    /// Drop `pid`'s retained records: propagation flushed them to stable
    /// storage, so (like WAL records before a `Checkpoint`) they are
    /// obsolete for catch-up. Every known receiver's watermark moves to the
    /// new horizon — the caller re-bases replicas on the fresh stable image.
    /// Returns the bytes reclaimed.
    pub fn checkpoint(&self, pid: PartitionId) -> u64 {
        let mut inner = self.inner.lock();
        let Some(log) = inner.get_mut(&pid) else {
            return 0;
        };
        let reclaimed = log.retained;
        log.base = log.head();
        log.records.clear();
        log.retained = 0;
        let base = log.base;
        for w in log.applied.values_mut() {
            *w = base;
        }
        drop(inner);
        self.reclaimed_bytes
            .fetch_add(reclaimed, std::sync::atomic::Ordering::Relaxed);
        reclaimed
    }

    /// Encoded bytes currently retained for `pid`.
    pub fn retained_bytes(&self, pid: PartitionId) -> u64 {
        self.inner
            .lock()
            .get(&pid)
            .map(|log| log.retained)
            .unwrap_or(0)
    }

    /// The truncation horizon of `pid`: the absolute index of the oldest
    /// retained record. Receivers with watermarks below it must bootstrap.
    pub fn horizon(&self, pid: PartitionId) -> u64 {
        self.inner.lock().get(&pid).map(|log| log.base).unwrap_or(0)
    }

    /// Total bytes reclaimed so far, by retention truncation and
    /// checkpoints together.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn shipped_batches(&self) -> u64 {
        self.shipped_batches
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
    use vectorh_common::fault::DirectedFault;
    use vectorh_common::Value;

    fn fs() -> StoreRef {
        Arc::new(SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 256,
                default_replication: 2,
            },
            Arc::new(DefaultPolicy::new(3)),
        ))
    }

    fn setup() -> (TwoPhaseCoordinator, Wal, Wal) {
        let fs = fs();
        let coord = TwoPhaseCoordinator::new(Wal::new(fs.clone(), "/wal/global.wal", None));
        let w0 = Wal::new(fs.clone(), "/wal/p0.wal", None);
        let w1 = Wal::new(fs, "/wal/p1.wal", None);
        (coord, w0, w1)
    }

    fn recs(txn: u64) -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin { txn },
            LogRecord::Insert {
                txn,
                rid: 0,
                tag: 1,
                values: vec![Value::I64(1)],
            },
        ]
    }

    #[test]
    fn clean_commit_everywhere() {
        let (coord, w0, w1) = setup();
        let r = recs(1);
        let out = coord
            .commit_distributed(1, &[(PartitionId(0), &w0, &r), (PartitionId(1), &w1, &r)])
            .unwrap();
        assert_eq!(out, Outcome::Committed);
        assert_eq!(coord.committed_txns_of(&w0).unwrap(), vec![1]);
        assert_eq!(coord.committed_txns_of(&w1).unwrap(), vec![1]);
        assert!(coord.recover_decision(1).unwrap());
    }

    #[test]
    fn crash_after_prepare_resolves_to_abort() {
        let (coord, w0, w1) = setup();
        let r = recs(2);
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore);
        let out = coord
            .commit_distributed(2, &[(PartitionId(0), &w0, &r), (PartitionId(1), &w1, &r)])
            .unwrap();
        assert_eq!(out, Outcome::InDoubt);
        // No global decision: recovery must NOT replay txn 2.
        assert!(!coord.recover_decision(2).unwrap());
        assert!(coord.committed_txns_of(&w0).unwrap().is_empty());
    }

    #[test]
    fn crash_after_global_commit_resolves_to_commit() {
        let (coord, w0, w1) = setup();
        let r = recs(3);
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashAfter);
        let out = coord
            .commit_distributed(3, &[(PartitionId(0), &w0, &r), (PartitionId(1), &w1, &r)])
            .unwrap();
        assert_eq!(out, Outcome::InDoubt);
        // Decision exists: both participants resolve to commit on recovery.
        assert!(coord.recover_decision(3).unwrap());
        assert_eq!(coord.committed_txns_of(&w0).unwrap(), vec![3]);
        assert_eq!(coord.committed_txns_of(&w1).unwrap(), vec![3]);
        // And the replayable records are recoverable.
        let replay = TwoPhaseCoordinator::records_of(&w0, 3).unwrap();
        assert_eq!(replay.len(), 1);
        assert!(matches!(replay[0], LogRecord::Insert { .. }));
    }

    #[test]
    fn mixed_history_resolves_per_txn() {
        let (coord, w0, _) = setup();
        let r1 = recs(10);
        let r2 = recs(11);
        coord
            .commit_distributed(10, &[(PartitionId(0), &w0, &r1)])
            .unwrap();
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore);
        coord
            .commit_distributed(11, &[(PartitionId(0), &w0, &r2)])
            .unwrap();
        assert_eq!(coord.committed_txns_of(&w0).unwrap(), vec![10]);
    }

    /// Fires `action` once at `site`, then clears (crash-and-restart).
    fn arm(coord: &TwoPhaseCoordinator, site: FaultSite, action: FaultAction) {
        coord
            .global_wal()
            .fs()
            .set_fault_hook(Some(DirectedFault::new(site, action, 1)));
    }

    #[test]
    fn prepare_fault_aborts_without_global_decision() {
        let (coord, w0, w1) = setup();
        let r = recs(20);
        arm(&coord, FaultSite::TwoPhasePrepare, FaultAction::CrashBefore);
        let out = coord
            .commit_distributed(20, &[(PartitionId(0), &w0, &r), (PartitionId(1), &w1, &r)])
            .unwrap();
        assert_eq!(out, Outcome::InDoubt);
        // No decision reached the global WAL: recovery resolves to abort.
        assert!(!coord.recover_decision(20).unwrap());
        assert!(coord.committed_txns_of(&w0).unwrap().is_empty());
        assert!(coord.committed_txns_of(&w1).unwrap().is_empty());
    }

    #[test]
    fn decide_crash_before_leaves_no_decision() {
        let (coord, w0, _) = setup();
        let r = recs(21);
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore);
        let out = coord
            .commit_distributed(21, &[(PartitionId(0), &w0, &r)])
            .unwrap();
        assert_eq!(out, Outcome::InDoubt);
        assert!(!coord.recover_decision(21).unwrap());
        assert!(coord.committed_txns_of(&w0).unwrap().is_empty());
    }

    #[test]
    fn decide_crash_after_has_durable_decision() {
        let (coord, w0, w1) = setup();
        let r = recs(22);
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashAfter);
        let out = coord
            .commit_distributed(22, &[(PartitionId(0), &w0, &r), (PartitionId(1), &w1, &r)])
            .unwrap();
        assert_eq!(out, Outcome::InDoubt);
        // GlobalCommit is the commit point: both participants recover to
        // committed even though phase 2 never ran.
        assert!(coord.recover_decision(22).unwrap());
        assert_eq!(coord.committed_txns_of(&w0).unwrap(), vec![22]);
        assert_eq!(coord.committed_txns_of(&w1).unwrap(), vec![22]);
    }

    /// Counts WAL replays per log path; injects nothing.
    #[derive(Debug, Default)]
    struct ReplayCounter(vectorh_common::sync::Mutex<Vec<String>>);

    impl vectorh_common::fault::FaultHook for ReplayCounter {
        fn decide(&self, site: FaultSite, detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::WalReplay {
                self.0.lock().push(detail.to_string());
            }
            FaultAction::None
        }
    }

    #[test]
    fn recovery_reads_the_global_wal_once_per_pass() {
        let (coord, w0, _) = setup();
        let n = 12u64;
        for txn in 0..n {
            match txn % 3 {
                0 => {}
                1 => arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashAfter),
                _ => arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore),
            }
            coord
                .commit_distributed(txn, &[(PartitionId(0), &w0, &recs(txn))])
                .unwrap();
        }
        let counter = Arc::new(ReplayCounter::default());
        coord
            .global_wal()
            .fs()
            .set_fault_hook(Some(counter.clone()));
        let global_reads = |f: &dyn Fn()| {
            counter.0.lock().clear();
            f();
            let reads = counter.0.lock().clone();
            reads.iter().filter(|p| *p == "/wal/global.wal").count()
        };
        let committed: Vec<u64> = (0..n).filter(|t| t % 3 != 2).collect();
        let in_doubt: Vec<(u64, bool)> = (0..n)
            .filter(|t| t % 3 != 0)
            .map(|t| (t, t % 3 == 1))
            .collect();
        assert_eq!(
            global_reads(&|| assert_eq!(coord.committed_txns_of(&w0).unwrap(), committed)),
            1
        );
        assert_eq!(
            global_reads(&|| assert_eq!(coord.in_doubt_txns_of(&w0).unwrap(), in_doubt)),
            1
        );
        assert_eq!(
            global_reads(&|| {
                let verdicts = coord.recoverable_txns(&w0).unwrap();
                let by_decision = verdicts
                    .iter()
                    .filter(|v| v.resolution == TxnResolution::CommittedByDecision)
                    .count() as u64;
                assert_eq!(by_decision, n / 3);
            }),
            1
        );
        // A log whose every prepared transaction has its local verdict needs
        // no global read at all.
        let (coord, w0, _) = setup();
        coord
            .commit_distributed(1, &[(PartitionId(0), &w0, &recs(1))])
            .unwrap();
        coord
            .global_wal()
            .fs()
            .set_fault_hook(Some(counter.clone()));
        assert_eq!(
            global_reads(&|| assert_eq!(coord.committed_txns_of(&w0).unwrap(), vec![1])),
            0
        );
    }

    #[test]
    fn log_shipping_counts_bytes() {
        let shipper = LogShipper::default();
        let r = recs(5);
        let shipped = shipper.ship(PartitionId(0), &r, 3);
        assert!(shipped > 0);
        assert_eq!(shipper.shipped_bytes(), shipped);
        assert_eq!(shipper.shipped_batches(), 1);
        shipper.ship(PartitionId(0), &r, 3);
        assert_eq!(shipper.shipped_batches(), 2);
        assert_eq!(shipper.shipped_bytes(), 2 * shipped);
    }

    #[test]
    fn log_shipping_is_a_pipe_with_per_receiver_watermarks() {
        let shipper = LogShipper::default();
        let pid = PartitionId(7);
        let (a, b) = (NodeId(1), NodeId(2));
        shipper.ship(pid, &recs(1), 2);
        // Receiver a applies immediately; b lags.
        assert_eq!(shipper.drain(pid, a), Drained::Records(recs(1)));
        assert_eq!(shipper.backlog(pid, a), 0);
        assert_eq!(shipper.backlog(pid, b), 2);
        shipper.ship(pid, &recs(2), 2);
        // a sees only the new batch; b catches up with both.
        assert_eq!(shipper.drain(pid, a), Drained::Records(recs(2)));
        let caught_up: Vec<_> = [recs(1), recs(2)].concat();
        assert_eq!(shipper.drain(pid, b), Drained::Records(caught_up.clone()));
        // Rewind models a rejoin after RAM loss: the whole log replays.
        shipper.rewind(pid, a);
        assert_eq!(shipper.drain(pid, a), Drained::Records(caught_up));
        // Checkpoint (propagation) empties the retained log for everyone.
        shipper.checkpoint(pid);
        assert_eq!(shipper.backlog(pid, b), 0);
        assert_eq!(shipper.drain(pid, b), Drained::Records(vec![]));
    }

    #[test]
    fn retention_truncates_and_reports_reclaimed_bytes() {
        // Keep at most 2 records: the third ship pushes the horizon forward.
        let shipper = LogShipper::with_retention(ShipRetention {
            max_bytes: None,
            max_records: Some(2),
        });
        let pid = PartitionId(3);
        let one = &recs(1)[..1];
        shipper.ship(pid, one, 1);
        shipper.ship(pid, one, 1);
        assert_eq!(shipper.horizon(pid), 0);
        assert_eq!(shipper.reclaimed_bytes(), 0);
        let before = shipper.retained_bytes(pid);
        shipper.ship(pid, one, 1);
        assert_eq!(shipper.horizon(pid), 1);
        assert!(shipper.reclaimed_bytes() > 0);
        assert_eq!(shipper.retained_bytes(pid), before);
    }

    #[test]
    fn byte_bounded_retention_respects_the_cap() {
        let shipper = LogShipper::with_retention(ShipRetention {
            max_bytes: Some(64),
            max_records: None,
        });
        let pid = PartitionId(4);
        for i in 0..20 {
            shipper.ship(pid, &recs(i), 1);
        }
        assert!(shipper.retained_bytes(pid) <= 64);
        assert!(shipper.horizon(pid) > 0);
        assert!(shipper.reclaimed_bytes() > 0);
    }

    #[test]
    fn receiver_behind_horizon_must_bootstrap() {
        let shipper = LogShipper::with_retention(ShipRetention {
            max_bytes: None,
            max_records: Some(2),
        });
        let pid = PartitionId(5);
        let (fresh, current) = (NodeId(1), NodeId(2));
        shipper.ship(pid, &recs(1), 2);
        assert_eq!(shipper.drain(pid, current), Drained::Records(recs(1)));
        // Truncate past record 0: the fresh receiver (watermark 0) is now
        // behind the horizon and must take a full-image bootstrap.
        shipper.ship(pid, &recs(2), 2);
        shipper.ship(pid, &recs(3), 2);
        assert!(shipper.horizon(pid) > 0);
        assert_eq!(shipper.drain(pid, fresh), Drained::BehindHorizon);
        // Bootstrap completes: fast-forward to head, after which drains work.
        shipper.fast_forward(pid, fresh);
        assert_eq!(shipper.backlog(pid, fresh), 0);
        shipper.ship(pid, &recs(4), 2);
        assert_eq!(shipper.drain(pid, fresh), Drained::Records(recs(4)));
        // A rewound current receiver is equally behind the horizon.
        shipper.rewind(pid, current);
        assert_eq!(shipper.drain(pid, current), Drained::BehindHorizon);
    }

    #[test]
    fn checkpoint_reclaims_retained_bytes() {
        let shipper = LogShipper::default();
        let pid = PartitionId(6);
        shipper.ship(pid, &recs(1), 2);
        shipper.ship(pid, &recs(2), 2);
        let retained = shipper.retained_bytes(pid);
        assert!(retained > 0);
        assert_eq!(shipper.checkpoint(pid), retained);
        assert_eq!(shipper.retained_bytes(pid), 0);
        assert_eq!(shipper.reclaimed_bytes(), retained);
        // Nothing retained, nothing to reclaim a second time.
        assert_eq!(shipper.checkpoint(pid), 0);
        // Checkpoint of an unknown partition is a no-op.
        assert_eq!(shipper.checkpoint(PartitionId(99)), 0);
    }

    #[test]
    fn retention_policy_parses_from_vars() {
        assert!(ShipRetention::from_vars(None, None).is_unbounded());
        assert_eq!(
            ShipRetention::from_vars(Some("4096"), None),
            ShipRetention {
                max_bytes: Some(4096),
                max_records: None,
            }
        );
        assert_eq!(
            ShipRetention::from_vars(Some(" 16 "), Some("8")),
            ShipRetention {
                max_bytes: Some(16),
                max_records: Some(8),
            }
        );
        // Unparsable values fall back to unbounded rather than panicking.
        assert!(ShipRetention::from_vars(Some("lots"), Some("")).is_unbounded());
    }

    #[test]
    fn epochs_are_monotonic_and_fence_stale_masters() {
        let (coord, w0, _) = setup();
        assert_eq!(coord.epoch(), 1);
        assert_eq!(coord.install_epoch(3), 3);
        // Installing an older epoch cannot roll back.
        assert_eq!(coord.install_epoch(2), 3);
        assert_eq!(coord.epoch(), 3);
        // A commit at the current epoch passes; a stale one is fenced.
        coord.check_epoch(3).unwrap();
        let err = coord.check_epoch(2).unwrap_err();
        assert!(matches!(err, vectorh_common::VhError::StaleMaster(_)));
        let r = recs(40);
        let err = coord
            .commit_at_epoch(2, 40, &[(PartitionId(0), &w0, &r)])
            .unwrap_err();
        assert!(matches!(err, vectorh_common::VhError::StaleMaster(_)));
        // The fenced commit never reached the global WAL.
        assert!(!coord.recover_decision(40).unwrap());
        assert!(coord.committed_txns_of(&w0).unwrap().is_empty());
        // The same commit at the live epoch goes through.
        let out = coord
            .commit_at_epoch(3, 40, &[(PartitionId(0), &w0, &r)])
            .unwrap();
        assert_eq!(out, Outcome::Committed);
    }

    #[test]
    fn in_doubt_txns_pair_with_global_decisions() {
        let (coord, w0, _) = setup();
        coord
            .commit_distributed(50, &[(PartitionId(0), &w0, &recs(50))])
            .unwrap();
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashAfter);
        coord
            .commit_distributed(51, &[(PartitionId(0), &w0, &recs(51))])
            .unwrap();
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore);
        coord
            .commit_distributed(52, &[(PartitionId(0), &w0, &recs(52))])
            .unwrap();
        // 50 committed locally (not in doubt); 51 is in doubt with a global
        // decision; 52 is in doubt without one (presumed abort).
        assert_eq!(
            coord.in_doubt_txns_of(&w0).unwrap(),
            vec![(51, true), (52, false)]
        );
    }

    #[test]
    fn recoverable_txns_reports_per_txn_verdicts() {
        let (coord, w0, _) = setup();
        let committed = recs(30);
        let in_doubt_commit = recs(31);
        let in_doubt_abort = recs(32);
        coord
            .commit_distributed(30, &[(PartitionId(0), &w0, &committed)])
            .unwrap();
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashAfter);
        coord
            .commit_distributed(31, &[(PartitionId(0), &w0, &in_doubt_commit)])
            .unwrap();
        arm(&coord, FaultSite::TwoPhaseDecide, FaultAction::CrashBefore);
        coord
            .commit_distributed(32, &[(PartitionId(0), &w0, &in_doubt_abort)])
            .unwrap();
        let verdicts = coord.recoverable_txns(&w0).unwrap();
        assert_eq!(
            verdicts,
            vec![
                RecoverableTxn {
                    txn: 30,
                    resolution: TxnResolution::CommittedLocally,
                },
                RecoverableTxn {
                    txn: 31,
                    resolution: TxnResolution::CommittedByDecision,
                },
                RecoverableTxn {
                    txn: 32,
                    resolution: TxnResolution::Aborted,
                },
            ]
        );
        // The committed projection agrees.
        let committed_only: Vec<u64> = verdicts
            .iter()
            .filter(|v| v.resolution.is_committed())
            .map(|v| v.txn)
            .collect();
        assert_eq!(coord.committed_txns_of(&w0).unwrap(), committed_only);
    }
}

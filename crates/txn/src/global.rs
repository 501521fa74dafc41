//! The session master's global WAL (§6): "a much-reduced global WAL is
//! written to by the session-master". It holds DDL, master elections and
//! the 2PC decisions, and each decision carries the participants' update
//! records (see [`twophase`](crate::twophase)), so it is the one file a
//! commit forces.
//!
//! It stays reduced because a decision's payload is garbage once every
//! partition it names has forced a later `Checkpoint`: the partition WAL
//! then holds the records durably (they precede the checkpoint). When that
//! holds for every payload in the live file, [`GlobalWal::checkpointed`]
//! rotates the log: a new generation file receives what must survive — the
//! highest `MasterEpoch`, every `Ddl`, and the decisions still in doubt
//! (their records dropped, the partitions they name kept) — and is forced,
//! then the older files are deleted. Readers take the generations in
//! order, so a crash between the two steps leaves a duplicate, never a gap.
//! A rotation that fails deletes what it wrote and is tried again at the
//! next checkpoint; the live file stays the one appended to. Generation `g`
//! of a log at `base` lives at `base` for `g = 0` and at `base.g` after
//! that.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use vectorh_blockstore::StoreRef;
use vectorh_common::sync::Mutex;
use vectorh_common::{NodeId, PartitionId, Result};

use crate::wal::{LogRecord, Wal};

/// The coordinator's log: the live generation file plus any older one a
/// crash left behind.
pub struct GlobalWal {
    fs: StoreRef,
    base: String,
    state: Mutex<State>,
}

struct State {
    /// The live file: the highest generation, the only one appended to.
    wal: Wal,
    gen: u64,
    /// Decisions this process logged, counted across generations: the
    /// clock [`GlobalWal::mark`] reads.
    decisions: u64,
    /// Per partition, the count of the last decision whose payload names
    /// it and that no forced checkpoint of the partition covers yet.
    dirty: BTreeMap<PartitionId, u64>,
    /// Decisions whose phase 2 has not finished on every participant.
    open: BTreeSet<u64>,
    /// Inherited decisions (see [`GlobalWal::settled`]): the partitions
    /// not yet seen holding a local verdict for them.
    awaiting: BTreeMap<u64, BTreeSet<PartitionId>>,
    /// Does the live generation hold a payload? Rotating reclaims nothing
    /// otherwise.
    payload: bool,
    /// Files found at open: what they hold is only known once read, at the
    /// first checkpoint.
    inherited: bool,
}

impl GlobalWal {
    /// The log whose generation 0 is `wal`'s file, continuing at the
    /// highest generation already on the store.
    pub fn new(wal: Wal) -> GlobalWal {
        let base = wal.path().to_string();
        let fs = wal.fs().clone();
        let found = generations(&fs, &base);
        let gen = found.last().map_or(0, |(g, _)| *g);
        let wal = Wal::new(fs.clone(), path_of(&base, gen), wal.home());
        GlobalWal {
            fs,
            base,
            state: Mutex::new(State {
                wal,
                gen,
                decisions: 0,
                dirty: BTreeMap::new(),
                open: BTreeSet::new(),
                awaiting: BTreeMap::new(),
                payload: false,
                inherited: !found.is_empty(),
            }),
        }
    }

    /// The filesystem this log writes through (carries the fault hook).
    pub fn fs(&self) -> &StoreRef {
        &self.fs
    }

    /// Move the log's IO to `home` (an election re-homes it).
    pub fn set_home(&self, home: Option<NodeId>) {
        self.state.lock().wal.set_home(home);
    }

    /// The files that make up the log, in reading order.
    pub fn files(&self) -> Vec<String> {
        let st = self.state.lock();
        self.live_generations(&st)
            .into_iter()
            .map(|(_, path)| path)
            .collect()
    }

    /// Append to the live file (see [`Wal::append`]).
    pub fn append<'a>(&self, records: impl IntoIterator<Item = &'a LogRecord>) -> Result<()> {
        self.state.lock().wal.append(records)
    }

    /// Every record of every generation, in order.
    pub fn read_all(&self) -> Result<Vec<LogRecord>> {
        let st = self.state.lock();
        self.read_locked(&st)
    }

    /// Cut a torn tail from the live file (see [`Wal::repair`]): only the
    /// live file is ever appended to.
    pub fn repair(&self) -> Result<u64> {
        self.state.lock().wal.repair()
    }

    /// Force a decision: `GlobalCommit` for `txn` carrying `payload`. The
    /// transaction stays open (carried by a rotation) until
    /// [`concluded`](Self::concluded).
    pub(crate) fn log_decision(
        &self,
        txn: u64,
        payload: Vec<(PartitionId, Vec<LogRecord>)>,
    ) -> Result<()> {
        let mut st = self.state.lock();
        // Counted before the append: a failed append may still have left
        // the record behind, and over-counting only delays a rotation.
        st.decisions += 1;
        let seq = st.decisions;
        for (pid, records) in &payload {
            if !records.is_empty() {
                st.dirty.insert(*pid, seq);
                st.payload = true;
            }
        }
        st.open.insert(txn);
        st.wal.append(&[LogRecord::GlobalCommit { txn, payload }])
    }

    /// Phase 2 of `txn` finished on every participant: a rotation no longer
    /// carries its decision.
    pub(crate) fn concluded(&self, txn: u64) {
        let mut st = self.state.lock();
        st.open.remove(&txn);
        st.awaiting.remove(&txn);
    }

    /// `pid`'s partition WAL holds a local verdict (`Commit` or `Abort`) for
    /// each of `txns`, or no trace of them. An inherited decision — one
    /// found at open, whose phase 2 this process never saw — stops being
    /// carried by a rotation once every partition it names has shown this.
    pub fn settled(&self, pid: PartitionId, txns: impl IntoIterator<Item = u64>) -> Result<()> {
        let mut st = self.state.lock();
        self.inherit(&mut st)?;
        for txn in txns {
            let Some(waiting) = st.awaiting.get_mut(&txn) else {
                continue;
            };
            waiting.remove(&pid);
            if waiting.is_empty() {
                st.awaiting.remove(&txn);
                st.open.remove(&txn);
            }
        }
        Ok(())
    }

    /// The decisions logged so far. Taken before a partition's propagation
    /// begins, it names the decisions its checkpoint will cover.
    pub fn mark(&self) -> u64 {
        self.state.lock().decisions
    }

    /// Does the log hold records for `pid` that no forced record of its
    /// partition WAL covers yet?
    pub fn holds_payload(&self, pid: PartitionId) -> Result<bool> {
        let mut st = self.state.lock();
        self.inherit(&mut st)?;
        Ok(st.dirty.contains_key(&pid))
    }

    /// `pid`'s partition WAL was forced — a `Checkpoint`, or a propagation
    /// with nothing to fold syncing it — after every decision up to
    /// `mark`: their payloads for `pid` are garbage. Rotates the log once
    /// no payload in it is live; returns whether it did. The checkpoint is
    /// durable whatever happens here, so a rotation that fails (or a failed
    /// first read of inherited files) is not its caller's error: the log
    /// keeps its payloads and the next checkpoint tries again.
    pub fn checkpointed(&self, pid: PartitionId, mark: u64) -> bool {
        let mut st = self.state.lock();
        if self.inherit(&mut st).is_err() {
            return false;
        }
        if st.dirty.get(&pid).is_some_and(|&seq| seq <= mark) {
            st.dirty.remove(&pid);
        }
        if !st.dirty.is_empty() || !st.payload {
            return false;
        }
        self.rotate(&mut st).is_ok()
    }

    /// The generations up to the live one, oldest first. A higher one is
    /// what a failed rotation could not delete: not part of the log.
    fn live_generations(&self, st: &State) -> Vec<(u64, String)> {
        let mut found = generations(&self.fs, &self.base);
        found.retain(|(g, _)| *g <= st.gen);
        found
    }

    fn read_locked(&self, st: &State) -> Result<Vec<LogRecord>> {
        let mut out = Vec::new();
        for (_, path) in self.live_generations(st) {
            out.extend(Wal::new(self.fs.clone(), path, st.wal.home()).read_all()?);
        }
        Ok(out)
    }

    /// Take over the files found at open, once, as if this process had
    /// logged them: every partition a payload names waits for its next
    /// checkpoint (logged before any mark, so any checkpoint covers it), and
    /// every decision stays open until each partition it names is
    /// [`settled`](Self::settled).
    fn inherit(&self, st: &mut State) -> Result<()> {
        if !st.inherited {
            return Ok(());
        }
        for r in self.read_locked(st)? {
            if let LogRecord::GlobalCommit { txn, payload } = r {
                let named = st.awaiting.entry(txn).or_default();
                for (pid, records) in payload {
                    named.insert(pid);
                    if !records.is_empty() {
                        st.dirty.entry(pid).or_insert(0);
                        st.payload = true;
                    }
                }
                st.open.insert(txn);
            }
        }
        st.inherited = false;
        Ok(())
    }

    /// Start generation `gen + 1` with what must survive, force it, then
    /// delete the older files. The live generation moves only once the new
    /// file is forced; a failure deletes what it wrote.
    fn rotate(&self, st: &mut State) -> Result<()> {
        let records = self.read_locked(st)?;
        // Elections only raise the epoch: the highest one is the fence.
        let epoch = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::MasterEpoch { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .max();
        let mut kept_epoch = false;
        let mut ddl = HashSet::new();
        let mut decided = HashSet::new();
        let mut keep = Vec::new();
        for r in records {
            match r {
                LogRecord::MasterEpoch { epoch: e, .. } if Some(e) == epoch && !kept_epoch => {
                    kept_epoch = true;
                    keep.push(r)
                }
                LogRecord::Ddl { ref statement } if ddl.insert(statement.clone()) => keep.push(r),
                LogRecord::GlobalCommit { txn, payload }
                    if st.open.contains(&txn) && decided.insert(txn) =>
                {
                    keep.push(LogRecord::GlobalCommit {
                        txn,
                        payload: payload.into_iter().map(|(p, _)| (p, Vec::new())).collect(),
                    })
                }
                _ => {}
            }
        }
        let old = self.live_generations(st);
        let gen = st.gen + 1;
        let wal = Wal::new(self.fs.clone(), path_of(&self.base, gen), st.wal.home());
        // An earlier rotation that failed may have left its file behind.
        if self.fs.exists(wal.path()) {
            self.fs.delete(wal.path())?;
        }
        let written = self
            .fs
            .create(wal.path(), None)
            .and_then(|()| wal.append(&keep))
            .and_then(|()| wal.sync());
        if let Err(e) = written {
            self.fs.delete(wal.path()).ok();
            return Err(e);
        }
        st.wal = wal;
        st.gen = gen;
        st.payload = false;
        // A decision the log never held (its append failed) is nobody's to
        // carry.
        st.open.retain(|t| decided.contains(t));
        st.awaiting.retain(|t, _| decided.contains(t));
        // An older file left behind is read before the live one, a
        // duplicate of what it holds; the next rotation deletes it.
        for (_, path) in old {
            self.fs.delete(&path).ok();
        }
        Ok(())
    }
}

fn path_of(base: &str, gen: u64) -> String {
    if gen == 0 {
        base.to_string()
    } else {
        format!("{base}.{gen}")
    }
}

/// The generation files of the log at `base` on `fs`, oldest first.
fn generations(fs: &StoreRef, base: &str) -> Vec<(u64, String)> {
    let mut found: Vec<(u64, String)> = fs
        .list(base)
        .into_iter()
        .filter_map(|f| {
            let rest = f.path.strip_prefix(base)?;
            let gen = match rest {
                "" => 0,
                _ => rest.strip_prefix('.')?.parse().ok()?,
            };
            Some((gen, f.path))
        })
        .collect();
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs};
    use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
    use vectorh_common::Value;

    const BASE: &str = "/wal/global.wal";

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

    fn open(fs: &StoreRef) -> GlobalWal {
        GlobalWal::new(Wal::new(fs.clone(), BASE, None))
    }

    fn recs(txn: u64) -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin { txn },
            LogRecord::Insert {
                txn,
                rid: 0,
                tag: txn,
                values: vec![Value::I64(txn as i64)],
            },
        ]
    }

    fn ddl() -> LogRecord {
        LogRecord::Ddl {
            statement: "CREATE TABLE t".into(),
        }
    }

    #[test]
    fn rotation_waits_for_every_named_partition_and_keeps_what_must_survive() {
        let fs = fs();
        let g = open(&fs);
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        g.append(&[
            ddl(),
            LogRecord::MasterEpoch { epoch: 1, node: 0 },
            LogRecord::MasterEpoch { epoch: 2, node: 1 },
        ])
        .unwrap();
        g.log_decision(1, vec![(p0, recs(1)), (p1, recs(1))])
            .unwrap();
        g.concluded(1);
        let before_txn_2 = g.mark();
        // Txn 2 stays in doubt: its coordinator never ran phase 2.
        g.log_decision(2, vec![(p1, recs(2))]).unwrap();
        let mark = g.mark();
        assert!(!g.checkpointed(p0, mark), "p1 still holds payloads");
        assert!(
            !g.checkpointed(p1, before_txn_2),
            "a checkpoint that began before txn 2 does not cover it"
        );
        assert_eq!(g.files(), vec![BASE.to_string()]);
        assert!(g.checkpointed(p1, mark));
        assert_eq!(g.files(), vec![format!("{BASE}.1")]);
        assert_eq!(
            g.read_all().unwrap(),
            vec![
                ddl(),
                LogRecord::MasterEpoch { epoch: 2, node: 1 },
                LogRecord::GlobalCommit {
                    txn: 2,
                    payload: vec![(p1, vec![])],
                },
            ]
        );
        // The new generation was forced, and later appends land in it.
        fs.simulate_os_crash();
        assert_eq!(g.read_all().unwrap().len(), 3);
        g.log_decision(3, vec![]).unwrap();
        assert_eq!(g.files(), vec![format!("{BASE}.1")]);
        // Nothing payload-bearing since the rotation: no rotation either.
        assert!(!g.checkpointed(p0, g.mark()));
    }

    #[test]
    fn a_failed_rotation_keeps_the_live_file_and_the_next_checkpoint_rotates() {
        let fs = fs();
        let g = open(&fs);
        let p0 = PartitionId(0);
        g.append(&[ddl(), LogRecord::MasterEpoch { epoch: 1, node: 0 }])
            .unwrap();
        // What an earlier failed rotation could not delete: not part of the
        // log, and replaced by the next rotation.
        Wal::new(fs.clone(), format!("{BASE}.1"), None)
            .append(&[LogRecord::MasterEpoch { epoch: 9, node: 9 }])
            .unwrap();
        assert_eq!(g.files(), vec![BASE.to_string()]);
        g.log_decision(1, vec![(p0, recs(1))]).unwrap();
        g.concluded(1);
        // The process "dies" in the middle of writing generation 1.
        let fault =
            DirectedFault::matching(FaultSite::WalAppend, FaultAction::CrashMid, 1, ".wal.1");
        fs.set_fault_hook(Some(fault.clone()));
        assert!(!g.checkpointed(p0, g.mark()), "the rotation failed");
        fs.set_fault_hook(None);
        assert_eq!(fault.fired(), 1);
        assert!(!fs.exists(&format!("{BASE}.1")), "its file is deleted");
        assert_eq!(g.files(), vec![BASE.to_string()]);
        // The live file is still the one appended to, payload and all.
        g.append(&[LogRecord::MasterEpoch { epoch: 2, node: 1 }])
            .unwrap();
        assert_eq!(g.read_all().unwrap().len(), 4);
        assert!(g.holds_payload(p0).is_ok_and(|held| !held));
        g.log_decision(2, vec![(p0, recs(2))]).unwrap();
        g.concluded(2);
        assert!(g.checkpointed(p0, g.mark()));
        assert_eq!(g.files(), vec![format!("{BASE}.1")]);
        assert_eq!(
            g.read_all().unwrap(),
            vec![ddl(), LogRecord::MasterEpoch { epoch: 2, node: 1 }]
        );
    }

    #[test]
    fn readers_take_every_generation_and_a_reopened_log_inherits_them() {
        let fs = fs();
        // A crash between a rotation's two steps: generation 1 is written,
        // generation 0 not yet deleted.
        Wal::new(fs.clone(), BASE, None)
            .append(&[
                ddl(),
                LogRecord::GlobalCommit {
                    txn: 7,
                    payload: vec![(PartitionId(4), recs(7))],
                },
            ])
            .unwrap();
        Wal::new(fs.clone(), format!("{BASE}.1"), None)
            .append(&[ddl()])
            .unwrap();
        let g = open(&fs);
        assert_eq!(g.files(), vec![BASE.to_string(), format!("{BASE}.1")]);
        assert_eq!(g.read_all().unwrap().len(), 3);
        g.append(&[LogRecord::MasterEpoch { epoch: 3, node: 2 }])
            .unwrap();
        assert_eq!(
            Wal::new(fs.clone(), format!("{BASE}.1"), None)
                .read_all()
                .unwrap()
                .last(),
            Some(&LogRecord::MasterEpoch { epoch: 3, node: 2 }),
            "appends go to the highest generation"
        );
        // The inherited payload waits for its partition; its decision is
        // kept until the partition it names shows a verdict for it.
        assert!(!g.checkpointed(PartitionId(5), 0));
        assert!(g.checkpointed(PartitionId(4), 0));
        assert_eq!(g.files(), vec![format!("{BASE}.2")]);
        let carried = LogRecord::GlobalCommit {
            txn: 7,
            payload: vec![(PartitionId(4), vec![])],
        };
        assert_eq!(
            g.read_all().unwrap(),
            vec![
                ddl(),
                carried.clone(),
                LogRecord::MasterEpoch { epoch: 3, node: 2 },
            ]
        );
        // Reopened again: the carried decision is inherited once more, and
        // a verdict on a partition it does not name settles nothing.
        let g = open(&fs);
        let rotate = |txn| {
            g.log_decision(txn, vec![(PartitionId(4), recs(txn))])
                .unwrap();
            g.concluded(txn);
            assert!(g.checkpointed(PartitionId(4), g.mark()));
        };
        g.settled(PartitionId(5), [7]).unwrap();
        rotate(8);
        assert!(g.read_all().unwrap().contains(&carried));
        // Once its partition holds a verdict, the next rotation drops it.
        g.settled(PartitionId(4), [7]).unwrap();
        rotate(9);
        assert_eq!(g.files(), vec![format!("{BASE}.4")]);
        assert_eq!(
            g.read_all().unwrap(),
            vec![ddl(), LogRecord::MasterEpoch { epoch: 3, node: 2 }]
        );
    }
}

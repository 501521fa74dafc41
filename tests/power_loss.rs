//! Power loss after a 2PC commit, on both media.
//!
//! A commit forces only what recovery cannot rebuild: each participant's
//! `Prepare` batch (its update records and its vote) and the coordinator's
//! `GlobalCommit`. The phase-2 `Commit` records, and `Abort`, are appended
//! unforced: recovery rebuilds each from the durable `Prepare` plus the
//! presence or absence of the decision in the global WAL. So a commit over
//! T partitions costs T + 1 syncs.
//!
//! Every test here cuts each file back to its fsync watermark
//! (`BlockStore::simulate_os_crash`) and checks what survives, on the
//! in-memory simulation and on real files.

use std::sync::Arc;

use vectorh::recovery::recover_partition;
use vectorh::{ClusterConfig, StorageBackend, TableBuilder, VectorH};
use vectorh_blockstore::{
    BlockStore, BlockStoreConfig, DefaultPolicy, FileStore, SimHdfs, StoreRef,
};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
use vectorh_common::{DataType, NodeId, PartitionId, Value};
use vectorh_txn::twophase::Outcome;
use vectorh_txn::{
    LogRecord, RecoverableTxn, TransactionManager, TwoPhaseCoordinator, TxnConfig, TxnResolution,
    Wal,
};

const ROWS_PER_PARTICIPANT: u64 = 3;

fn sim_store() -> StoreRef {
    Arc::new(SimHdfs::new(3, config(), Arc::new(DefaultPolicy::new(7))))
}

/// Real files in a fresh temp directory, removed when the store drops.
fn file_store() -> StoreRef {
    Arc::new(FileStore::new(3, config(), Arc::new(DefaultPolicy::new(7)), "").unwrap())
}

fn config() -> BlockStoreConfig {
    BlockStoreConfig {
        block_size: 4096,
        default_replication: 3,
    }
}

/// A coordinator and `t` participant WALs on one store.
fn cluster(fs: &StoreRef, t: usize) -> (TwoPhaseCoordinator, Vec<Wal>) {
    let coord = TwoPhaseCoordinator::new(Wal::new(
        fs.clone(),
        "/vectorh/wal/global.wal",
        Some(NodeId(0)),
    ));
    let wals = (0..t)
        .map(|p| {
            let home = NodeId((p % 3) as u32);
            Wal::new(fs.clone(), format!("/vectorh/wal/t0-p{p}.wal"), Some(home))
        })
        .collect();
    (coord, wals)
}

/// One participant's update records: `TxnBegin` and a few inserts.
fn updates(txn: u64, part: usize) -> Vec<LogRecord> {
    std::iter::once(LogRecord::TxnBegin { txn })
        .chain((0..ROWS_PER_PARTICIPANT).map(|rid| LogRecord::Insert {
            txn,
            rid,
            tag: txn * 100 + part as u64 * 10 + rid,
            values: vec![Value::I64(txn as i64), Value::I64(rid as i64)],
        }))
        .collect()
}

/// Run 2PC for `txn` over every WAL; returns the outcome and the syncs it
/// cost.
fn commit(fs: &StoreRef, coord: &TwoPhaseCoordinator, wals: &[Wal], txn: u64) -> (Outcome, u64) {
    let recs: Vec<Vec<LogRecord>> = (0..wals.len()).map(|p| updates(txn, p)).collect();
    let participants: Vec<(PartitionId, &Wal, &[LogRecord])> = wals
        .iter()
        .zip(&recs)
        .enumerate()
        .map(|(p, (w, r))| (PartitionId(p as u32), w, r.as_slice()))
        .collect();
    let before = fs.stats().snapshot();
    let out = coord.commit_distributed(txn, &participants).unwrap();
    (out, fs.stats().snapshot().since(&before).fsync_ops)
}

fn for_both_media(check: impl Fn(&str, StoreRef)) {
    check("sim", sim_store());
    check("file", file_store());
}

/// After a power loss each participant's log ends exactly at its `Prepare`,
/// and recovery commits the transaction from the global decision alone,
/// replaying every update record.
#[test]
fn phase_two_commit_is_rebuilt_from_the_decision_after_power_loss() {
    for t in 1..=4 {
        for_both_media(|medium, fs| {
            let (coord, wals) = cluster(&fs, t);
            let txn = 40 + t as u64;
            let (out, syncs) = commit(&fs, &coord, &wals, txn);
            assert_eq!(out, Outcome::Committed, "{medium}, T = {t}");
            assert_eq!(
                syncs,
                t as u64 + 1,
                "{medium}: a commit over {t} partitions forces {t} prepares and one decision"
            );
            for wal in &wals {
                assert!(matches!(
                    wal.read_all().unwrap().last(),
                    Some(LogRecord::Commit { .. })
                ));
            }

            fs.simulate_os_crash();

            for (p, wal) in wals.iter().enumerate() {
                let pid = PartitionId(p as u32);
                let mut expect = updates(txn, p);
                expect.push(LogRecord::Prepare { txn });
                assert_eq!(
                    wal.read_all().unwrap(),
                    expect,
                    "{medium}, T = {t}, {pid}: the log ends exactly at the Prepare"
                );
                assert_eq!(wal.repair().unwrap(), 0, "the cut is frame-aligned");
                assert_eq!(
                    coord.recoverable_txns(wal).unwrap(),
                    vec![RecoverableTxn {
                        txn,
                        resolution: TxnResolution::CommittedByDecision,
                    }],
                    "{medium}, T = {t}, {pid}"
                );
                let mgr = TransactionManager::new(TxnConfig::default());
                let report = recover_partition(&coord, &mgr, pid, 0, wal).unwrap();
                assert_eq!(report.committed, vec![txn]);
                assert_eq!(report.replayed_records as u64, ROWS_PER_PARTICIPANT);
                assert_eq!(mgr.visible_rows(pid).unwrap(), ROWS_PER_PARTICIPANT);
                assert_eq!(coord.in_doubt_txns_of(wal).unwrap(), vec![(txn, true)]);
            }
        });
    }
}

/// A coordinator that dies before its decision reaches the global WAL
/// leaves durable `Prepare`s behind; after a power loss they still resolve
/// to presumed abort, and so does the unforced explicit `Abort` a new
/// master appends for them.
#[test]
fn no_decision_still_presumes_abort_after_power_loss() {
    for t in 1..=4 {
        for_both_media(|medium, fs| {
            let (coord, wals) = cluster(&fs, t);
            let txn = 60 + t as u64;
            fs.set_fault_hook(Some(DirectedFault::new(
                FaultSite::TwoPhaseDecide,
                FaultAction::CrashBefore,
                1,
            )));
            let (out, syncs) = commit(&fs, &coord, &wals, txn);
            fs.set_fault_hook(None);
            assert_eq!(out, Outcome::InDoubt, "{medium}, T = {t}");
            assert_eq!(syncs, t as u64, "{medium}: the prepares only");
            for wal in &wals {
                wal.append(&[LogRecord::Abort { txn }]).unwrap();
            }

            fs.simulate_os_crash();

            assert!(!coord.recover_decision(txn).unwrap());
            for (p, wal) in wals.iter().enumerate() {
                let pid = PartitionId(p as u32);
                assert_eq!(
                    wal.read_all().unwrap().last(),
                    Some(&LogRecord::Prepare { txn }),
                    "{medium}, T = {t}, {pid}: the unforced Abort is gone"
                );
                assert_eq!(
                    coord.recoverable_txns(wal).unwrap(),
                    vec![RecoverableTxn {
                        txn,
                        resolution: TxnResolution::Aborted,
                    }]
                );
                assert_eq!(coord.in_doubt_txns_of(wal).unwrap(), vec![(txn, false)]);
                let mgr = TransactionManager::new(TxnConfig::default());
                let report = recover_partition(&coord, &mgr, pid, 0, wal).unwrap();
                assert_eq!(report.aborted, vec![txn]);
                assert_eq!(report.replayed_records, 0);
                assert_eq!(mgr.visible_rows(pid).unwrap(), 0);
            }
        });
    }
}

/// An unforced phase-2 `Commit` becomes durable with the next forced record
/// on the same file: here the next transaction's `Prepare`.
#[test]
fn a_later_forced_record_makes_an_earlier_commit_durable() {
    for_both_media(|medium, fs| {
        let (coord, wals) = cluster(&fs, 2);
        assert_eq!(commit(&fs, &coord, &wals, 1).0, Outcome::Committed);
        assert_eq!(commit(&fs, &coord, &wals[..1], 2).0, Outcome::Committed);

        fs.simulate_os_crash();

        let verdicts = |wal: &Wal| {
            coord
                .recoverable_txns(wal)
                .unwrap()
                .into_iter()
                .map(|v| (v.txn, v.resolution))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            verdicts(&wals[0]),
            vec![
                (1, TxnResolution::CommittedLocally),
                (2, TxnResolution::CommittedByDecision),
            ],
            "{medium}: txn 2's Prepare carried txn 1's Commit to disk"
        );
        assert_eq!(
            verdicts(&wals[1]),
            vec![(1, TxnResolution::CommittedByDecision)],
            "{medium}: nothing was forced after txn 1 on this log"
        );
    });
}

/// The engine's own 2PC path: a trickle insert over several partitions
/// costs one sync per partition it touched plus the decision; after a power
/// loss the new master's `resolve_in_doubt` re-appends each lost phase-2
/// `Commit` and every row is still there.
#[test]
fn resolve_in_doubt_re_appends_the_commit_after_power_loss() {
    for backend in [StorageBackend::Sim, StorageBackend::File(String::new())] {
        let vh = VectorH::start(ClusterConfig {
            nodes: 3,
            replication: 3,
            storage_backend: backend,
            ..Default::default()
        })
        .unwrap();
        let medium = vh.storage_backend();
        vh.create_table(
            TableBuilder::new("t")
                .column("k", DataType::I64)
                .column("v", DataType::I64)
                .partition_by(&["k"], 4),
        )
        .unwrap();
        let rt = vh.table("t").unwrap();
        let lens = || -> Vec<u64> {
            rt.wals
                .iter()
                .map(|w| vh.fs().len(w.path()).unwrap_or(0))
                .collect()
        };
        let (lens_before, syncs_before) = (lens(), vh.fs().stats().snapshot());
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|k| vec![Value::I64(k), Value::I64(-k)])
            .collect();
        vh.trickle_insert("t", rows).unwrap();
        let touched: Vec<usize> = (0..rt.wals.len())
            .filter(|&i| lens()[i] > lens_before[i])
            .collect();
        assert!(touched.len() > 1, "{medium}: the rows span partitions");
        assert_eq!(
            vh.fs().stats().snapshot().since(&syncs_before).fsync_ops,
            touched.len() as u64 + 1,
            "{medium}: one sync per prepared partition plus the decision"
        );

        vh.fs().simulate_os_crash();

        let mut txn = None;
        for &i in &touched {
            match rt.wals[i].read_all().unwrap().last() {
                Some(&LogRecord::Prepare { txn: t }) => txn = Some(t),
                other => panic!("{medium}: partition {i} ends at {other:?}, not its Prepare"),
            }
        }
        let txn = txn.unwrap();
        assert_eq!(vh.resolve_in_doubt().unwrap(), touched.len());
        for &i in &touched {
            assert_eq!(
                rt.wals[i].read_all().unwrap().last(),
                Some(&LogRecord::Commit { txn, seq: 0 }),
                "{medium}: partition {i}"
            );
        }
        let count = vh.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(count[0][0], Value::I64(40), "{medium}");
    }
}

//! Power loss after a 2PC commit, on both media.
//!
//! A commit forces one file: the coordinator's `GlobalCommit`, which carries
//! every participant's update records. The participants' records and
//! `Prepare` votes, the phase-2 `Commit` records and `Abort` are appended
//! unforced: after a power loss recovery re-appends, from the decision's
//! payload, each decided transaction the loss cut from a partition WAL, and
//! a transaction without a decision is presumed aborted. So a commit over
//! T partitions costs one sync.
//!
//! Every test here cuts each file back to its fsync watermark
//! (`BlockStore::simulate_os_crash`) and checks what survives, on the
//! in-memory simulation and on real files.

use std::sync::Arc;

use vectorh::recovery::recover_partition;
use vectorh::{ClusterConfig, Expr, StorageBackend, TableBuilder, VectorH};
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

/// After a power loss no participant's log holds the transaction (nothing
/// forced it), and recovery rebuilds the whole participant batch — update
/// records, `Prepare` and phase-2 `Commit` — from the global decision's
/// payload, forces it, and replays every update record.
#[test]
fn phase_two_commit_is_rebuilt_from_the_decision_after_power_loss() {
    for t in 1..=4 {
        for_both_media(|medium, fs| {
            let (coord, wals) = cluster(&fs, t);
            let txn = 40 + t as u64;
            let (out, syncs) = commit(&fs, &coord, &wals, txn);
            assert_eq!(out, Outcome::Committed, "{medium}, T = {t}");
            assert_eq!(
                syncs, 1,
                "{medium}: a commit over {t} partitions forces the decision only"
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
                assert_eq!(
                    wal.read_all().unwrap(),
                    vec![],
                    "{medium}, T = {t}, {pid}: the unforced batch is gone"
                );
                assert_eq!(wal.repair().unwrap(), 0, "the cut is frame-aligned");
                let mgr = TransactionManager::new(TxnConfig::default());
                let report = recover_partition(&coord, &mgr, pid, 0, wal).unwrap();
                assert_eq!(report.restored, vec![txn]);
                assert_eq!(report.committed, vec![txn]);
                assert_eq!(report.replayed_records as u64, ROWS_PER_PARTICIPANT);
                assert_eq!(mgr.visible_rows(pid).unwrap(), ROWS_PER_PARTICIPANT);
                let mut expect = updates(txn, p);
                expect.push(LogRecord::Prepare { txn });
                expect.push(LogRecord::Commit { txn, seq: 0 });
                assert_eq!(wal.read_all().unwrap(), expect, "{medium}, T = {t}, {pid}");
            }

            // The restored batches were forced: a second loss keeps them.
            fs.simulate_os_crash();
            for (p, wal) in wals.iter().enumerate() {
                let pid = PartitionId(p as u32);
                assert_eq!(
                    coord.recoverable_txns(wal).unwrap(),
                    vec![RecoverableTxn {
                        txn,
                        resolution: TxnResolution::CommittedLocally,
                    }],
                    "{medium}, T = {t}, {pid}"
                );
                assert_eq!(coord.in_doubt_txns_of(wal).unwrap(), vec![]);
                let mgr = TransactionManager::new(TxnConfig::default());
                let report = recover_partition(&coord, &mgr, pid, 0, wal).unwrap();
                assert_eq!(report.restored, vec![], "restored once, not twice");
                assert_eq!(mgr.visible_rows(pid).unwrap(), ROWS_PER_PARTICIPANT);
            }
        });
    }
}

/// A coordinator that dies before its decision reaches the global WAL
/// leaves `Prepare`s behind, made durable here by a later checkpoint of
/// each partition; after a power loss they still resolve to presumed abort,
/// and so does the unforced explicit `Abort` a new master appends for them.
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
            assert_eq!(syncs, 0, "{medium}: nothing is forced without a decision");
            let checkpoint = LogRecord::Checkpoint {
                stable_rows: 0,
                carried: vec![],
            };
            for wal in &wals {
                wal.append([&checkpoint]).unwrap();
                wal.append(&[LogRecord::Abort { txn }]).unwrap();
            }

            fs.simulate_os_crash();

            assert!(!coord.recover_decision(txn).unwrap());
            for (p, wal) in wals.iter().enumerate() {
                let pid = PartitionId(p as u32);
                let log = wal.read_all().unwrap();
                assert_eq!(
                    log[log.len() - 2..],
                    [LogRecord::Prepare { txn }, checkpoint.clone()],
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
                assert_eq!(report.restored, vec![]);
                assert_eq!(report.aborted, vec![txn]);
                assert_eq!(report.replayed_records, 0);
                assert_eq!(mgr.visible_rows(pid).unwrap(), 0);
            }
        });
    }
}

/// An unforced phase-2 `Commit` becomes durable with the next forced record
/// on the same file: here the batches recovery restores after a power loss,
/// which go back in decision order and are forced, so a second loss keeps
/// them.
#[test]
fn a_later_forced_record_makes_an_earlier_commit_durable() {
    for_both_media(|medium, fs| {
        let (coord, wals) = cluster(&fs, 2);
        assert_eq!(commit(&fs, &coord, &wals, 1).0, Outcome::Committed);
        assert_eq!(commit(&fs, &coord, &wals[..1], 2).0, Outcome::Committed);

        fs.simulate_os_crash();
        for (p, wal) in wals.iter().enumerate() {
            let mgr = TransactionManager::new(TxnConfig::default());
            recover_partition(&coord, &mgr, PartitionId(p as u32), 0, wal).unwrap();
        }
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
                (2, TxnResolution::CommittedLocally),
            ],
            "{medium}: both restored, in commit order, with their Commit"
        );
        assert_eq!(
            verdicts(&wals[1]),
            vec![(1, TxnResolution::CommittedLocally)],
            "{medium}: txn 2 never touched this log"
        );
    });
}

/// The engine's own 2PC path: a trickle insert over several partitions
/// costs one sync, the decision; after a power loss the new master's
/// `resolve_in_doubt` re-appends each lost batch with its phase-2 `Commit`
/// and every row is still there.
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
            1,
            "{medium}: the decision is the one sync"
        );

        vh.fs().simulate_os_crash();

        for &i in &touched {
            assert_eq!(
                rt.wals[i].read_all().unwrap(),
                vec![],
                "{medium}: partition {i} lost its unforced batch"
            );
        }
        let global = vh.coordinator.global_wal().read_all().unwrap();
        let txn = match global.last() {
            Some(LogRecord::GlobalCommit { txn, payload }) => {
                assert_eq!(payload.len(), touched.len(), "{medium}");
                *txn
            }
            other => panic!("{medium}: the global WAL ends at {other:?}"),
        };
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

/// A four-partition table on `backend`, bulk-loaded with keys `0..n` (each
/// `v` = 0).
fn engine_with_table(backend: StorageBackend, n: i64) -> VectorH {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        replication: 3,
        storage_backend: backend,
        ..Default::default()
    })
    .unwrap();
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 4),
    )
    .unwrap();
    if n > 0 {
        vh.insert_rows(
            "t",
            (0..n).map(|k| vec![Value::I64(k), Value::I64(0)]).collect(),
        )
        .unwrap();
    }
    vh
}

/// Rows `keys`, each with `v`.
fn rows(keys: std::ops::Range<i64>, v: i64) -> Vec<Vec<Value>> {
    keys.map(|k| vec![Value::I64(k), Value::I64(v)]).collect()
}

/// Rebuild every partition of "t" from its log alone, as a restarted node
/// would; returns the transactions restored from the global WAL.
fn recover_table(vh: &VectorH) -> usize {
    let rt = vh.table("t").unwrap();
    let mut restored = 0;
    for (i, pid) in rt.pids.iter().enumerate() {
        let stable = rt.stores[i].read().row_count();
        let report =
            recover_partition(&vh.coordinator, &vh.txns, *pid, stable, &rt.wals[i]).unwrap();
        restored += report.restored.len();
    }
    restored
}

/// The power-loss oracle for engine DML: inserts, deletes and updates over
/// several partitions cost one fsync per statement; after a power loss
/// every partition rebuilt from its log alone holds every acknowledged
/// statement's effect, restored from the global WAL where the partition
/// tail was cut, and nothing of a statement whose decision never landed.
#[test]
fn dml_survives_power_loss_on_one_fsync_per_commit() {
    for backend in [StorageBackend::Sim, StorageBackend::File(String::new())] {
        let vh = engine_with_table(backend, 40);
        let medium = vh.storage_backend();
        let one_sync = |what: &str, f: &dyn Fn() -> vectorh_common::Result<u64>| {
            let before = vh.fs().stats().snapshot();
            let n = f().unwrap();
            let fsyncs = vh.fs().stats().snapshot().since(&before).fsync_ops;
            assert_eq!(fsyncs, 1, "{medium}: {what}");
            n
        };
        one_sync("insert", &|| vh.trickle_insert("t", rows(40..60, 1)));
        let deleted = one_sync("delete", &|| {
            vh.delete_where("t", &Expr::lt(Expr::col(0), Expr::lit(Value::I64(8))))
        });
        let updated = one_sync("update", &|| {
            let pred = Expr::ge(Expr::col(0), Expr::lit(Value::I64(50)));
            vh.update_where("t", &pred, 1, Value::I64(7))
        });
        assert_eq!((deleted, updated), (8, 10), "{medium}");
        vh.install_fault_hook(Some(DirectedFault::new(
            FaultSite::TwoPhaseDecide,
            FaultAction::CrashBefore,
            1,
        )));
        vh.trickle_insert("t", rows(100..120, 5)).unwrap_err();
        vh.install_fault_hook(None);
        let answer = || vh.query("SELECT count(*), sum(v) FROM t").unwrap();
        let want = answer();
        assert_eq!(want[0][0], Value::I64(52), "{medium}");

        vh.fs().simulate_os_crash();

        assert!(recover_table(&vh) >= 3, "{medium}: cut tails were restored");
        assert_eq!(answer(), want, "{medium}");
        // Restored once: a second pass finds nothing missing.
        assert_eq!(recover_table(&vh), 0, "{medium}");
        assert_eq!(answer(), want, "{medium}");
    }
}

/// Once every partition a payload names has forced a later checkpoint,
/// the global WAL rotates to a new file without payloads; it keeps the DDL
/// and the decision still in doubt, so in-doubt resolution works on the
/// rotated log, before and after a power loss.
#[test]
fn the_global_wal_rotates_once_every_payload_is_checkpointed() {
    const BASE: &str = "/vectorh/wal/global.wal";
    for backend in [StorageBackend::Sim, StorageBackend::File(String::new())] {
        let vh = engine_with_table(backend, 0);
        let medium = vh.storage_backend();
        let rt = vh.table("t").unwrap();
        let global = || vh.coordinator.global_wal().read_all().unwrap();
        let count = || vh.query("SELECT count(*) FROM t").unwrap()[0][0].clone();
        vh.trickle_insert("t", rows(0..40, 1)).unwrap();
        // Decided, but the coordinator died before phase 2.
        vh.install_fault_hook(Some(DirectedFault::new(
            FaultSite::TwoPhaseDecide,
            FaultAction::CrashAfter,
            1,
        )));
        vh.trickle_insert("t", rows(40..48, 1)).unwrap_err();
        let in_doubt = match global().last() {
            Some(LogRecord::GlobalCommit { txn, .. }) => *txn,
            other => panic!("{medium}: {other:?}"),
        };
        // Lost at the last prepare: the others prepared, with no decision.
        vh.install_fault_hook(Some(DirectedFault::matching(
            FaultSite::TwoPhasePrepare,
            FaultAction::CrashBefore,
            1,
            &format!("{:?}", rt.pids[3]),
        )));
        vh.trickle_insert("t", rows(100..140, 1)).unwrap_err();
        vh.install_fault_hook(None);
        assert_eq!(count(), Value::I64(48), "{medium}");
        assert_eq!(vh.coordinator.global_wal().files(), vec![BASE.to_string()]);

        assert_eq!(vh.propagate_table("t", true).unwrap(), 4, "{medium}");

        assert_eq!(
            vh.coordinator.global_wal().files(),
            vec![format!("{BASE}.1")],
            "{medium}: rotated, the old file deleted"
        );
        let after = global();
        assert_eq!(after.len(), 2, "{medium}: {after:?}");
        assert_eq!(
            after[0],
            LogRecord::Ddl {
                statement: "CREATE TABLE t".into(),
            },
            "{medium}: the DDL survives"
        );
        assert!(
            matches!(&after[1], LogRecord::GlobalCommit { txn, payload }
                if *txn == in_doubt
                    && !payload.is_empty()
                    && payload.iter().all(|(_, records)| records.is_empty())),
            "{medium}: the in-doubt decision survives, naming its partitions \
             without their records: {:?}",
            after[1]
        );
        let pending = || -> Vec<(u64, bool)> {
            rt.wals
                .iter()
                .flat_map(|w| vh.coordinator.in_doubt_txns_of(w).unwrap())
                .collect()
        };
        assert!(pending().contains(&(in_doubt, true)), "{medium}");
        assert!(pending()
            .iter()
            .any(|&(t, decided)| t != in_doubt && !decided));
        assert!(vh.resolve_in_doubt().unwrap() >= 2, "{medium}");
        assert_eq!(pending(), vec![], "{medium}");
        assert_eq!(count(), Value::I64(48), "{medium}");

        // The phase-2 verdicts were not forced; the rotated log and the
        // checkpoints still resolve everything the same way. The in-doubt
        // transaction's `Prepare` survived (a checkpoint forced it), its
        // `Commit` did not: it commits by the carried decision alone.
        vh.fs().simulate_os_crash();
        assert_eq!(recover_table(&vh), 0, "{medium}");
        assert_eq!(count(), Value::I64(48), "{medium}");
        let mut by_decision = 0;
        for wal in &rt.wals {
            for v in vh.coordinator.recoverable_txns(wal).unwrap() {
                assert_eq!(
                    v.resolution.is_committed(),
                    v.txn <= in_doubt,
                    "{medium}: {v:?}"
                );
                if v.resolution == TxnResolution::CommittedByDecision {
                    assert_eq!(v.txn, in_doubt, "{medium}");
                    by_decision += 1;
                }
            }
        }
        assert!(by_decision > 0, "{medium}");
    }
}

/// A rotation that fails (here the process "dies" writing the new file)
/// does not fail the propagation whose checkpoint triggered it: that
/// checkpoint is durable. The log stays on its live file, and the next
/// checkpoint rotates it.
#[test]
fn a_failed_rotation_does_not_fail_propagation_and_is_retried() {
    const BASE: &str = "/vectorh/wal/global.wal";
    for backend in [StorageBackend::Sim, StorageBackend::File(String::new())] {
        let vh = engine_with_table(backend, 0);
        let medium = vh.storage_backend();
        let files = || vh.coordinator.global_wal().files();
        let count = || vh.query("SELECT count(*) FROM t").unwrap()[0][0].clone();
        vh.trickle_insert("t", rows(0..40, 1)).unwrap();
        let fault =
            DirectedFault::matching(FaultSite::WalAppend, FaultAction::CrashMid, 1, ".wal.1");
        vh.install_fault_hook(Some(fault.clone()));
        assert_eq!(vh.propagate_table("t", true).unwrap(), 4, "{medium}");
        vh.install_fault_hook(None);
        assert_eq!(fault.fired(), 1, "{medium}");
        assert_eq!(files(), vec![BASE.to_string()], "{medium}");
        assert!(!vh.fs().exists(&format!("{BASE}.1")), "{medium}");

        vh.trickle_insert("t", rows(40..80, 1)).unwrap();
        assert_eq!(vh.propagate_table("t", true).unwrap(), 4, "{medium}");
        assert_eq!(files(), vec![format!("{BASE}.1")], "{medium}");
        assert_eq!(count(), Value::I64(80), "{medium}");
        vh.fs().simulate_os_crash();
        assert_eq!(recover_table(&vh), 0, "{medium}");
        assert_eq!(count(), Value::I64(80), "{medium}");
    }
}

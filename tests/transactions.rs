//! Transactional behaviour end to end: snapshot isolation, conflicts,
//! durability/recovery via WAL + 2PC, update propagation (§6).

use vectorh::{ClusterConfig, TableBuilder, VectorH};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
use vectorh_common::{DataType, Value, VhError};
use vectorh_exec::expr::Expr;
use vectorh_txn::twophase::{Outcome, TwoPhaseCoordinator};
use vectorh_txn::LogRecord;

fn engine() -> VectorH {
    VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 128,
        hdfs_block_size: 16 * 1024,
        ..Default::default()
    })
    .unwrap()
}

fn fixture(vh: &VectorH) {
    vh.create_table(
        TableBuilder::new("acct")
            .column("id", DataType::I64)
            .column("bal", DataType::I64)
            .partition_by(&["id"], 4),
    )
    .unwrap();
    vh.insert_rows(
        "acct",
        (0..200)
            .map(|i| vec![Value::I64(i), Value::I64(100)])
            .collect(),
    )
    .unwrap();
}

#[test]
fn updates_are_atomic_and_visible() {
    let vh = engine();
    fixture(&vh);
    let n = vh
        .update_where(
            "acct",
            &Expr::lt(Expr::col(0), Expr::lit(Value::I64(50))),
            1,
            Value::I64(0),
        )
        .unwrap();
    assert_eq!(n, 50);
    let rows = vh.query("SELECT sum(bal) FROM acct").unwrap();
    assert_eq!(rows[0][0], Value::I64(150 * 100));
}

#[test]
fn concurrent_conflicting_updates_abort_one() {
    let vh = engine();
    fixture(&vh);
    let rt = vh.table("acct").unwrap();
    // Two raw transactions touching the same tuple.
    let mut t1 = vh.txns.begin(&rt.pids).unwrap();
    let mut t2 = vh.txns.begin(&rt.pids).unwrap();
    let pid = rt.pids[0];
    vh.txns
        .modify_at(&mut t1, pid, 0, 1, Value::I64(1))
        .unwrap();
    vh.txns
        .modify_at(&mut t2, pid, 0, 1, Value::I64(2))
        .unwrap();
    vh.txns.commit(t1, |_| Ok(())).unwrap();
    let err = vh.txns.commit(t2, |_| Ok(())).unwrap_err();
    assert!(err.to_string().contains("conflict"), "{err}");
}

#[test]
fn wal_replay_reconstructs_pdts() {
    let vh = engine();
    fixture(&vh);
    vh.delete_where("acct", &Expr::lt(Expr::col(0), Expr::lit(Value::I64(10))))
        .unwrap();
    vh.trickle_insert("acct", vec![vec![Value::I64(1000), Value::I64(77)]])
        .unwrap();
    let want = vh.query("SELECT count(*), sum(bal) FROM acct").unwrap();

    // Simulate a cold restart of the update state: fresh txn manager,
    // replay committed WAL records per partition.
    let rt = vh.table("acct").unwrap();
    let fresh = vectorh_txn::TransactionManager::new(vectorh_txn::TxnConfig::default());
    for (i, pid) in rt.pids.iter().enumerate() {
        let store_rows = rt.stores[i].read().row_count();
        fresh.register_partition(*pid, store_rows);
        let committed = vh.coordinator.committed_txns_of(&rt.wals[i]).unwrap();
        for txn in committed {
            let recs = TwoPhaseCoordinator::records_of(&rt.wals[i], txn).unwrap();
            fresh.replay(*pid, &recs).unwrap();
        }
    }
    // The recovered image must match: count via merge plans.
    let mut total = 0u64;
    for pid in &rt.pids {
        total += fresh.visible_rows(*pid).unwrap();
    }
    assert_eq!(Value::I64(total as i64), want[0][0]);
}

#[test]
fn two_phase_commit_crash_points() {
    let vh = engine();
    fixture(&vh);
    let coordinator = &vh.coordinator;
    let rt = vh.table("acct").unwrap();
    let recs = vec![LogRecord::Insert {
        txn: 500,
        rid: 0,
        tag: 9,
        values: vec![Value::I64(-1), Value::I64(0)],
    }];
    // Crash after prepare: no decision → aborted on recovery.
    vh.install_fault_hook(Some(DirectedFault::new(
        FaultSite::TwoPhaseDecide,
        FaultAction::CrashBefore,
        1,
    )));
    let out = coordinator
        .commit_distributed(500, &[(rt.pids[0], &rt.wals[0], &recs)])
        .unwrap();
    vh.install_fault_hook(None);
    assert_eq!(out, Outcome::InDoubt);
    assert!(!coordinator.recover_decision(500).unwrap());
    // Crash after the decision: committed on recovery.
    vh.install_fault_hook(Some(DirectedFault::new(
        FaultSite::TwoPhaseDecide,
        FaultAction::CrashAfter,
        1,
    )));
    let out = coordinator
        .commit_distributed(501, &[(rt.pids[1], &rt.wals[1], &recs)])
        .unwrap();
    vh.install_fault_hook(None);
    assert_eq!(out, Outcome::InDoubt);
    assert!(coordinator.recover_decision(501).unwrap());
    assert!(coordinator
        .committed_txns_of(&rt.wals[1])
        .unwrap()
        .contains(&501));
}

/// The engine's own DML consults the `2pc-prepare` fault site: a
/// coordinator lost before a participant prepares fails the statement with
/// `TxnAbort` and installs nothing; a participant that had already prepared
/// is left in doubt without a decision and resolves to presumed abort; a
/// retry without a fault commits.
#[test]
fn dml_under_prepare_faults_aborts_and_presumes_abort() {
    let vh = engine();
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )
    .unwrap();
    let rt = vh.table("t").unwrap();
    let (pa, pb) = (rt.pids[0], rt.pids[1]);
    let rows: Vec<Vec<Value>> = (0..20)
        .map(|k| vec![Value::I64(k), Value::I64(k)])
        .collect();
    let count = || vh.query("SELECT count(*) FROM t").unwrap()[0][0].clone();
    let prepares = |i: usize| {
        rt.wals[i]
            .read_all()
            .unwrap()
            .iter()
            .filter(|r| matches!(r, LogRecord::Prepare { .. }))
            .count()
    };
    let before = count();

    // A fault at the first prepare: nothing reaches any partition WAL.
    vh.install_fault_hook(Some(DirectedFault::new(
        FaultSite::TwoPhasePrepare,
        FaultAction::CrashBefore,
        1,
    )));
    let err = vh.trickle_insert("t", rows.clone()).unwrap_err();
    vh.install_fault_hook(None);
    assert!(matches!(err, VhError::TxnAbort(_)), "{err}");
    assert_eq!((prepares(0), prepares(1)), (0, 0));
    assert_eq!(count(), before);

    // A fault aimed at the second participant: the first one prepared.
    let fault = DirectedFault::matching(
        FaultSite::TwoPhasePrepare,
        FaultAction::CrashBefore,
        1,
        &format!("{pb:?}"),
    );
    vh.install_fault_hook(Some(fault.clone()));
    let err = vh.trickle_insert("t", rows.clone()).unwrap_err();
    vh.install_fault_hook(None);
    assert_eq!(fault.fired(), 1);
    assert!(matches!(err, VhError::TxnAbort(_)), "{err}");
    let txn = match rt.wals[0].read_all().unwrap().last() {
        Some(&LogRecord::Prepare { txn }) => txn,
        other => panic!("{pa} ends at {other:?}, not its Prepare"),
    };
    assert_eq!(prepares(1), 0);
    assert_eq!(
        vh.coordinator.in_doubt_txns_of(&rt.wals[0]).unwrap(),
        vec![(txn, false)]
    );
    assert_eq!(vh.resolve_in_doubt().unwrap(), 1);
    assert_eq!(
        rt.wals[0].read_all().unwrap().last(),
        Some(&LogRecord::Abort { txn })
    );
    assert_eq!(count(), before);

    // The retry commits, and its rows are visible.
    vh.trickle_insert("t", rows).unwrap();
    assert_eq!(count(), Value::I64(20));
}

#[test]
fn propagation_persists_updates_into_chunks() {
    let vh = engine();
    fixture(&vh);
    vh.delete_where("acct", &Expr::lt(Expr::col(0), Expr::lit(Value::I64(20))))
        .unwrap();
    vh.update_where(
        "acct",
        &Expr::ge(Expr::col(0), Expr::lit(Value::I64(190))),
        1,
        Value::I64(5),
    )
    .unwrap();
    let before = vh.query("SELECT count(*), sum(bal) FROM acct").unwrap();
    let done = vh.propagate_table("acct", true).unwrap();
    assert!(done > 0, "at least one partition flushed");
    let after = vh.query("SELECT count(*), sum(bal) FROM acct").unwrap();
    assert_eq!(before, after, "propagation must not change query results");
    // PDTs empty now; storage rows match the visible count.
    let rt = vh.table("acct").unwrap();
    let stored: u64 = rt.stores.iter().map(|s| s.read().row_count()).sum();
    assert_eq!(Value::I64(stored as i64), after[0][0]);
}

#[test]
fn log_shipping_for_replicated_tables() {
    let vh = engine();
    vh.create_table(
        TableBuilder::new("dim")
            .column("id", DataType::I64)
            .column("name", DataType::Str),
    )
    .unwrap();
    vh.insert_rows(
        "dim",
        (0..10)
            .map(|i| vec![Value::I64(i), Value::Str(format!("d{i}"))])
            .collect(),
    )
    .unwrap();
    assert_eq!(vh.shipper.shipped_batches(), 0);
    vh.update_where(
        "dim",
        &Expr::eq(Expr::col(0), Expr::lit(Value::I64(3))),
        1,
        Value::Str("patched".into()),
    )
    .unwrap();
    // Replicated-table commits broadcast their log to the other workers.
    assert_eq!(vh.shipper.shipped_batches(), 1);
    assert!(vh.shipper.shipped_bytes() > 0);
    let rows = vh.query("SELECT name FROM dim WHERE id = 3").unwrap();
    assert_eq!(rows[0][0], Value::Str("patched".into()));
}

/// Two concurrent front-door sessions interleave trickle inserts with Q6
/// and must each observe only *stable snapshots*: every result equals the
/// baseline plus a whole number of committed insert batches (a torn batch
/// would show as a non-multiple), snapshots never move backwards within a
/// session, and each session reads its own committed writes.
#[test]
fn threaded_sessions_interleaving_trickle_and_q6_see_stable_snapshots() {
    use std::sync::Arc;
    use vectorh_server::{Client, Server, ServerConfig};

    /// A single-partition batch of `rows` Q6-eligible lineitems (same
    /// l_orderkey ⇒ same partition ⇒ the 2PC commit is atomic w.r.t. a
    /// concurrent scan's per-partition plan reads). Each row contributes
    /// 1000.00 × 0.06 of revenue.
    fn q6_batch(orderkey: i64, rows: usize) -> Vec<Vec<Value>> {
        let day = |m, d| Value::Date(vectorh_common::types::date::to_days(1994, m, d));
        (0..rows)
            .map(|i| {
                vec![
                    Value::I64(orderkey),
                    Value::I64(1),
                    Value::I64(1),
                    Value::I64(i as i64 + 1),
                    Value::Decimal(100, 2),     // qty 1.00 < 24
                    Value::Decimal(100_000, 2), // price 1000.00
                    Value::Decimal(6, 2),       // disc 0.06 ∈ [0.05, 0.07]
                    Value::Decimal(0, 2),
                    Value::Str("N".into()),
                    Value::Str("O".into()),
                    day(6, 1), // 1994 ⇒ inside the Q6 window
                    day(7, 1),
                    day(8, 1),
                    Value::Str("NONE".into()),
                    Value::Str("MAIL".into()),
                    Value::Str("snapshot".into()),
                ]
            })
            .collect()
    }

    fn revenue(rows: &[Vec<Value>]) -> i64 {
        match rows[0][0] {
            Value::Decimal(units, _) => units,
            ref v => panic!("Q6 must aggregate to a decimal, got {v:?}"),
        }
    }

    let vh = Arc::new(
        VectorH::start(ClusterConfig {
            nodes: 3,
            rows_per_chunk: 256,
            hdfs_block_size: 32 * 1024,
            ..Default::default()
        })
        .unwrap(),
    );
    vectorh_tpch::schema::setup(&vh, 0.002, 4, 20260707).unwrap();
    let server = Server::start(vh.clone(), ServerConfig::default()).unwrap();
    let sql = vectorh_tpch::sql_texts::sql_text(6).unwrap();

    // Calibrate while quiescent: revenue delta of one committed batch.
    let base = revenue(&vh.query(sql).unwrap());
    vh.trickle_insert("lineitem", q6_batch(9_000_001, 5))
        .unwrap();
    let delta = revenue(&vh.query(sql).unwrap()) - base;
    assert!(delta > 0, "probe batch must move Q6 revenue");

    let per_session_batches = 6i64;
    let queries_per_session = 12;
    let max_batches = 1 + 2 * per_session_batches; // probe + both sessions
    let addr = server.addr();
    let mut handles = Vec::new();
    for s in 0..2i64 {
        let vh = vh.clone();
        handles.push(std::thread::spawn(move || {
            let sql = vectorh_tpch::sql_texts::sql_text(6).unwrap();
            let mut client = Client::connect(addr).unwrap();
            let mut last_k = 0i64;
            let mut own = 0i64;
            for i in 0..queries_per_session {
                if i % 2 == 1 && own < per_session_batches {
                    vh.trickle_insert("lineitem", q6_batch(9_100_000 + s * 1000 + own, 5))
                        .unwrap();
                    own += 1;
                }
                let diff = revenue(&client.query(sql).unwrap()) - base;
                assert!(diff >= 0, "session {s}: revenue below baseline");
                assert_eq!(
                    diff % delta,
                    0,
                    "session {s} observed a torn batch: +{diff} is not a \
                     whole number of batches (delta {delta})"
                );
                let k = diff / delta;
                assert!(k <= max_batches, "session {s} saw phantom batches");
                assert!(
                    k >= last_k,
                    "session {s}: snapshot moved backwards ({last_k} → {k})"
                );
                assert!(
                    k >= own,
                    "session {s}: lost its own committed write ({own} committed, saw {k})"
                );
                last_k = k;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Quiescent again: everything committed is visible.
    let k = (revenue(&vh.query(sql).unwrap()) - base) / delta;
    assert_eq!(k, max_batches, "all committed batches visible at the end");
}

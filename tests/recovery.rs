//! Recovery coordinator: takeover, in-doubt resolution, rejoin (§6).
//!
//! The paper's §6 failure story, end to end against the engine: a
//! responsible node's death moves its partitions to survivors, whose
//! recovery must resurrect exactly the decided transactions — a local
//! `Commit` record or a `GlobalCommit` decision in the reduced global WAL —
//! and a rejoining node converges back to full locality and replica
//! freshness (Figure 2 in reverse).

use vectorh::{ClusterConfig, NodeHealth, TableBuilder, VectorH};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
use vectorh_common::{DataType, NodeId, Value, VhError};
use vectorh_txn::twophase::Outcome;
use vectorh_txn::LogRecord;

fn engine(nodes: usize) -> VectorH {
    VectorH::start(ClusterConfig {
        nodes,
        rows_per_chunk: 256,
        hdfs_block_size: 16 * 1024,
        replication: 3,
        ..Default::default()
    })
    .unwrap()
}

/// Coordinator dies between Prepare and GlobalCommit: after the
/// responsibility moves, the new responsible node must commit the in-doubt
/// transaction iff the global WAL holds its decision — on every
/// participant, atomically.
#[test]
fn in_doubt_txns_resolve_against_the_global_wal_across_takeover() {
    let vh = engine(4);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )
    .unwrap();
    let rt = vh.table("t").unwrap();
    let (pa, pb) = (rt.pids[0], rt.pids[1]);

    // Three distributed transactions through the session master's 2PC,
    // writing one row per participant each:
    //   499 — full protocol, acknowledged.
    //   500 — coordinator dies after Prepare, before the decision.
    //   501 — coordinator dies after the decision, before phase 2.
    let recs = |txn: u64, part: u64| {
        vec![
            LogRecord::TxnBegin { txn },
            LogRecord::Insert {
                txn,
                rid: 0,
                tag: txn * 10 + part,
                values: vec![Value::I64(txn as i64), Value::I64(part as i64)],
            },
        ]
    };
    for (txn, crash, want) in [
        (499, None, Outcome::Committed),
        (500, Some(FaultAction::CrashBefore), Outcome::InDoubt),
        (501, Some(FaultAction::CrashAfter), Outcome::InDoubt),
    ] {
        let (ra, rb) = (recs(txn, 0), recs(txn, 1));
        vh.install_fault_hook(
            crash.map(|a| DirectedFault::new(FaultSite::TwoPhaseDecide, a, 1) as _),
        );
        let out = vh
            .coordinator
            .commit_distributed(txn, &[(pa, &rt.wals[0], &ra), (pb, &rt.wals[1], &rb)])
            .unwrap();
        vh.install_fault_hook(None);
        assert_eq!(out, want, "txn{txn}");
    }

    // Kill the responsible node of each participant (re-reading the
    // assignment between kills — the first remap may move pb's owner), so
    // both partitions go through WAL takeover on a survivor.
    vh.kill_node(vh.responsible(pa)).unwrap();
    vh.kill_node(vh.responsible(pb)).unwrap();
    for pid in [pa, pb] {
        let now = vh.responsible(pid);
        assert!(vh.workers().contains(&now), "{pid} owned by a live node");
    }

    // The new responsible nodes recovered from the WALs: txn 499 (local
    // Commit) and txn 501 (global decision) are visible, txn 500 (no
    // decision anywhere) is presumed aborted — identically on both
    // participants.
    for (i, pid) in [pa, pb].into_iter().enumerate() {
        let verdicts = vh.coordinator.recoverable_txns(&rt.wals[i]).unwrap();
        let committed: Vec<u64> = verdicts
            .iter()
            .filter(|t| t.resolution.is_committed())
            .map(|t| t.txn)
            .collect();
        assert_eq!(committed, vec![499, 501], "{pid}");
        assert_eq!(vh.txns.visible_rows(pid).unwrap(), 2, "{pid}");
    }
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(4), "2 decided txns × 2 participants");
}

/// A node death is detected proactively by the heartbeat monitor and
/// triggers the same recovery as an explicit `kill_node`.
#[test]
fn heartbeat_monitor_detects_death_and_triggers_recovery() {
    let vh = engine(4);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 4),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..2000)
            .map(|i| vec![Value::I64(i), Value::I64(i * 3)])
            .collect(),
    )
    .unwrap();

    // The process dies; the engine is not told (no reconcile here).
    let victim = NodeId(2);
    vh.fs().kill_node(victim).unwrap();
    vh.rm().node_lost(victim);
    assert!(vh.workers().contains(&victim), "engine unaware so far");

    let mut detected = false;
    for _ in 0..6 {
        if vh.health_tick().unwrap().contains(&victim) {
            detected = true;
            break;
        }
    }
    assert!(detected, "silent node declared dead within the deadline");
    assert_eq!(vh.node_health(victim), NodeHealth::Dead);
    assert!(!vh.workers().contains(&victim), "recovery reconciled");
    let rows = vh.query("SELECT count(*), sum(v) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(2000));
}

/// Kill → rejoin: the worker set, responsibility spread, replica state and
/// scan locality all converge back to the pre-failure picture.
#[test]
fn rejoin_restores_workers_replicas_and_locality() {
    let vh = engine(4);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 8),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..4000)
            .map(|i| vec![Value::I64(i), Value::I64(i * 3)])
            .collect(),
    )
    .unwrap();
    vh.create_table(
        TableBuilder::new("dims")
            .column("id", DataType::I64)
            .column("w", DataType::I64),
    )
    .unwrap();
    vh.insert_rows(
        "dims",
        (0..10)
            .map(|i| vec![Value::I64(i), Value::I64(i)])
            .collect(),
    )
    .unwrap();

    let victim = NodeId(3);
    vh.kill_node(victim).unwrap();
    assert_eq!(vh.workers().len(), 3);
    // Replicated-table commits while the node is down pile up in the
    // shipped log.
    vh.trickle_insert(
        "dims",
        (10..14)
            .map(|i| vec![Value::I64(i), Value::I64(i)])
            .collect(),
    )
    .unwrap();

    vh.rejoin_node(victim).unwrap();
    assert_eq!(vh.workers().len(), 4, "worker re-admitted");
    assert_eq!(vh.node_health(victim), NodeHealth::Alive);

    // Replica catch-up from the shipped log, and live application of a
    // post-rejoin commit.
    let dims = vh.table("dims").unwrap();
    assert_eq!(vh.replica_rows(victim, dims.pids[0]).unwrap(), 14);
    vh.trickle_insert("dims", vec![vec![Value::I64(14), Value::I64(14)]])
        .unwrap();
    assert_eq!(vh.replica_rows(victim, dims.pids[0]).unwrap(), 15);

    // Responsibility spreads back over all 4 nodes (min-cost-flow cap:
    // ⌈8/4⌉ = 2 per node), and the rejoined node carries its share.
    let rt = vh.table("t").unwrap();
    let mut per_node = std::collections::HashMap::new();
    for pid in &rt.pids {
        *per_node.entry(vh.responsible(*pid)).or_insert(0) += 1;
    }
    assert!(per_node.values().all(|&c| c <= 2), "{per_node:?}");
    assert!(per_node.contains_key(&victim), "{per_node:?}");

    // Locality converged back: fresh scans are fully short-circuited.
    let before = vh.fs().stats().snapshot();
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(4000));
    let delta = vh.fs().stats().snapshot().since(&before);
    assert_eq!(delta.remote_read_bytes, 0, "post-rejoin scans fully local");
    assert!(delta.local_read_bytes > 0);
}

/// The failover retry loop is bounded by the worker count *pinned at
/// entry*: with every partition home pinned to a dead node, the query must
/// exhaust its retries and surface the error instead of looping.
#[test]
fn failover_retries_exhaust_deterministically() {
    let vh = engine(4);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 4),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..2000)
            .map(|i| vec![Value::I64(i), Value::I64(i * 3)])
            .collect(),
    )
    .unwrap();

    let victim = NodeId(1);
    vh.kill_node(victim).unwrap();
    // Sabotage: pin every partition's responsibility back to the dead
    // node. The worker set is already reconciled, so every retry sees "no
    // node died", never remaps, re-plans onto the same pinned NodeDown —
    // and must give up once retries exceed the current worker count.
    let rt = vh.table("t").unwrap();
    for pid in &rt.pids {
        vh.pin_responsible(*pid, victim);
    }
    let err = vh.query("SELECT count(*) FROM t").unwrap_err();
    assert!(
        matches!(err, VhError::NodeDown(_)),
        "retries must exhaust with the underlying NodeDown, got: {err}"
    );
}

/// Regression for the retry-budget fix: the budget is the worker count
/// **at query entry**, not the already-shrunken survivor set re-read after
/// each kill. A fault hook crashes the whole cluster out from under the
/// first attempt, so every reconcile shrinks toward (and past) empty; the
/// old formulation (`failovers > workers().len()` re-read per attempt)
/// would have cut the cascade off after a single retry. With the pinned
/// budget the engine grants exactly N retries for an N-node entry set and
/// then surfaces the underlying `NodeDown` — it neither loops forever nor
/// gives up early.
#[test]
fn full_cluster_cascade_exhausts_pinned_retry_budget_with_node_down() {
    use std::sync::{Arc, Mutex};
    use vectorh_blockstore::{BlockStore, StoreRef};
    use vectorh_common::fault::{FaultAction, FaultHook, FaultSite};

    /// Kills one victim per `HdfsRead` consult until the cluster is gone.
    /// `Namenode::read` consults the hook *before* taking its state lock,
    /// so killing from inside `decide` is deadlock-free.
    struct CascadeKiller {
        fs: StoreRef,
        victims: Mutex<Vec<NodeId>>,
    }
    impl std::fmt::Debug for CascadeKiller {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "CascadeKiller({:?})", self.victims.lock().unwrap())
        }
    }
    impl FaultHook for CascadeKiller {
        fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::HdfsRead {
                if let Some(v) = self.victims.lock().unwrap().pop() {
                    self.fs.kill_node(v).unwrap();
                }
            }
            FaultAction::None
        }
    }

    let vh = engine(4);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 4),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..2000)
            .map(|i| vec![Value::I64(i), Value::I64(i * 3)])
            .collect(),
    )
    .unwrap();

    let entry_workers = vh.workers().len();
    assert_eq!(entry_workers, 4);
    vh.install_fault_hook(Some(Arc::new(CascadeKiller {
        fs: vh.fs().clone(),
        victims: Mutex::new(vh.workers()),
    })));

    let ctl = vectorh::QueryCtl::new();
    let plan = vh.parse("SELECT count(*) FROM t").unwrap();
    let err = vh.query_logical_ctl(&plan, Some(&ctl)).unwrap_err();
    vh.install_fault_hook(None);

    assert!(
        matches!(err, VhError::NodeDown(_)),
        "a full-cluster cascade must exhaust with NodeDown, got: {err}"
    );
    // The discriminating assertion: the budget was pinned to the 4-node
    // entry set, so exactly 4 retries were granted even though the
    // survivor set hit zero during the very first attempt.
    assert_eq!(
        ctl.retries(),
        entry_workers as u64,
        "retry budget must be pinned at entry, not re-read after shrink"
    );
    assert!(
        vh.workers().is_empty(),
        "the cascade really took every node"
    );
}

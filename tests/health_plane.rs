//! The self-driving health plane: background scheduling, master election
//! with epoch fencing, and bounded ship-log retention (§6).
//!
//! Nothing here calls `health_tick` by hand. The engine's
//! [`HealthScheduler`] advances a virtual clock from inside ordinary
//! traffic (`query_logical`, trickle DML), so failure detection, session
//! master election and partition takeover are side effects of running
//! queries — the paper's "any other worker can take over the session
//! master role" without an operator in the loop. Elections bump a
//! monotonically increasing master epoch; a deposed master's commits are
//! fenced with [`VhError::StaleMaster`] at the 2PC commit point, and its
//! half-finished transactions resolve to presumed abort. Receivers that
//! fall behind the bounded ship log's truncation horizon converge via
//! full-image bootstrap instead of replay.

use std::sync::Arc;

use vectorh::{ClusterConfig, ClusterMode, TableBuilder, VectorH};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultHook, FaultSite, SharedFaultHook};
use vectorh_common::{DataType, NodeId, Value, VhError};
use vectorh_txn::twophase::ShipRetention;
use vectorh_txn::LogRecord;

fn engine_with(nodes: usize, f: impl FnOnce(&mut ClusterConfig)) -> VectorH {
    let mut cfg = ClusterConfig {
        nodes,
        rows_per_chunk: 256,
        hdfs_block_size: 16 * 1024,
        replication: 3,
        ..Default::default()
    };
    f(&mut cfg);
    VectorH::start(cfg).unwrap()
}

fn engine(nodes: usize) -> VectorH {
    engine_with(nodes, |_| {})
}

/// Drops every heartbeat whose detail starts with `{node}@` — a one-way
/// network partition that isolates one node's beats without stopping its
/// process. This is how a *false positive* is manufactured: the monitor
/// declares the node dead while it is actually still running.
#[derive(Debug)]
struct DropBeatsOf(NodeId);

impl FaultHook for DropBeatsOf {
    fn decide(&self, site: FaultSite, detail: &str, _attempt: u32) -> FaultAction {
        if site == FaultSite::Heartbeat && detail.starts_with(&format!("{}@", self.0)) {
            FaultAction::Drop
        } else {
            FaultAction::None
        }
    }
}

/// Delays every heartbeat by one tick — steady transport latency, the kind
/// a chaos `Delay` fault (or a slow TCP link) injects on every beat.
#[derive(Debug)]
struct DelayAllBeats;

impl FaultHook for DelayAllBeats {
    fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
        if site == FaultSite::Heartbeat {
            FaultAction::Delay
        } else {
            FaultAction::None
        }
    }
}

/// The grace drill. Two claims:
///
/// 1. Delay jitter alone must never dead-latch anyone, at any grace: a
///    delayed beat still arrives (it credits the next tick), so the miss
///    counter hovers below every deadline.
/// 2. Real silence is where `heartbeat_grace` bites: a node silent for
///    four rounds is declared dead under the default deadline, but a
///    grace of 2 stretches the deadline to `HEARTBEAT_DEADLINE_MISSES × 2`
///    misses and the same outage is ridden out — the STONITH fencing path
///    never fires on a node that was merely slow.
#[test]
fn heartbeat_grace_stretches_detection_and_delay_jitter_never_latches() {
    let vh = engine(4);
    vh.install_fault_hook(Some(Arc::new(DelayAllBeats) as SharedFaultHook));
    for _ in 0..10 {
        assert_eq!(vh.health_tick().unwrap(), vec![], "delay jitter latched");
    }
    vh.install_fault_hook(None);
    assert_eq!(vh.workers().len(), 4, "no node lost to jitter");

    // Four silent rounds, then recovery. Returns whether the victim rode
    // out the outage without ever being declared dead.
    let drill = |grace: u32| -> bool {
        let vh = engine_with(4, |cfg| cfg.heartbeat_grace = grace);
        let victim = *vh
            .workers()
            .iter()
            .find(|w| **w != vh.session_master())
            .unwrap();
        vh.health_tick().unwrap(); // one clean round arms the counters
        vh.install_fault_hook(Some(Arc::new(DropBeatsOf(victim)) as SharedFaultHook));
        let mut declared = false;
        for _ in 0..4 {
            declared |= !vh.health_tick().unwrap().is_empty();
        }
        vh.install_fault_hook(None);
        for _ in 0..3 {
            declared |= !vh.health_tick().unwrap().is_empty();
        }
        !declared && vh.workers().contains(&victim)
    };
    assert!(
        !drill(1),
        "four silent rounds at the default grace must latch the victim dead"
    );
    assert!(
        drill(2),
        "the same outage with heartbeat_grace = 2 must be ridden out"
    );
}

/// The scheduler fires a health round every `health_every` work units, and
/// `health_every = 0` disables background rounds entirely (the clock still
/// advances, so re-enabling math stays simple).
#[test]
fn background_rounds_fire_on_the_virtual_clock() {
    let vh = engine_with(4, |cfg| cfg.health_every = 3);
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..100)
            .map(|i| vec![Value::I64(i), Value::I64(i)])
            .collect(),
    )
    .unwrap();

    let clock0 = vh.health_clock();
    let ticks0 = vh.health_ticks();
    for _ in 0..7 {
        vh.query("SELECT count(*) FROM t").unwrap();
    }
    let clock1 = vh.health_clock();
    assert_eq!(clock1, clock0 + 7, "each query advances one work unit");
    assert_eq!(
        vh.health_ticks() - ticks0,
        clock1 / 3 - clock0 / 3,
        "one health round per crossed period boundary"
    );

    let off = engine_with(4, |cfg| cfg.health_every = 0);
    off.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )
    .unwrap();
    off.insert_rows("t", vec![vec![Value::I64(1), Value::I64(1)]])
        .unwrap();
    let ticks = off.health_ticks();
    for _ in 0..5 {
        off.query("SELECT count(*) FROM t").unwrap();
    }
    assert_eq!(off.health_ticks(), ticks, "disabled scheduler never ticks");
    assert!(off.health_clock() >= 5, "the clock itself still advances");
}

/// The session master's process dies and nobody tells the engine: ordinary
/// queries must detect it, elect the lowest live NodeId under a bumped
/// epoch, log the election durably, and keep committing.
#[test]
fn queries_alone_depose_a_dead_master_and_elect_the_lowest_survivor() {
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
    let master0 = vh.session_master();
    let epoch0 = vh.master_epoch();
    assert_eq!(vh.master_history(), vec![(epoch0, master0)]);

    // The process dies; the engine is NOT told.
    vh.fs().kill_node(master0).unwrap();
    vh.rm().node_lost(master0);
    assert!(vh.workers().contains(&master0), "engine unaware so far");

    // Just keep querying: the background rounds detect, fence and elect.
    let mut queries = 0;
    while vh.workers().contains(&master0) {
        queries += 1;
        assert!(queries <= 12, "background plane never deposed the master");
        let rows = vh.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(rows[0][0], Value::I64(2000));
    }

    let master1 = vh.session_master();
    assert_eq!(master1, vh.workers()[0], "lowest live NodeId wins");
    assert_ne!(master1, master0);
    assert_eq!(vh.master_epoch(), epoch0 + 1, "exactly one epoch bump");
    assert_eq!(
        vh.master_history(),
        vec![(epoch0, master0), (epoch0 + 1, master1)]
    );
    // The election is durable: the reduced global WAL carries the record.
    let logged = vh
        .coordinator
        .global_wal()
        .read_all()
        .unwrap()
        .iter()
        .any(|r| {
            matches!(r, LogRecord::MasterEpoch { epoch, node }
            if *epoch == epoch0 + 1 && *node == master1.0 as u64)
        });
    assert!(logged, "election must be logged in the global WAL");

    // Liveness: the re-homed coordinator keeps accepting commits.
    vh.trickle_insert("t", vec![vec![Value::I64(9001), Value::I64(1)]])
        .unwrap();
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(2001));
}

/// Replicated tables after the master moves off node 0, over both cluster
/// modes. A join of two replicated tables runs wholly at the session
/// master, the build side from the master's own replica; once node 0 is
/// dead and node 1 elected, nothing may still read at node 0.
#[test]
fn replicated_only_plans_run_at_the_new_master() {
    for mode in [ClusterMode::InProc, ClusterMode::Tcp] {
        let vh = engine_with(4, |cfg| cfg.cluster_mode = mode);
        vh.create_table(
            TableBuilder::new("t")
                .column("k", DataType::I64)
                .partition_by(&["k"], 4),
        )
        .unwrap();
        vh.insert_rows("t", (0..400).map(|i| vec![Value::I64(i)]).collect())
            .unwrap();
        for (name, col) in [("d1", "a"), ("d2", "b")] {
            vh.create_table(
                TableBuilder::new(name)
                    .column("k", DataType::I64)
                    .column(col, DataType::I64),
            )
            .unwrap();
            vh.insert_rows(
                name,
                (0..50)
                    .map(|i| vec![Value::I64(i), Value::I64(i % 5)])
                    .collect(),
            )
            .unwrap();
        }
        let join = "SELECT count(*) FROM d1 JOIN d2 ON d1.k = d2.k";
        let explain = vh.explain(join).unwrap();
        assert!(
            explain.contains("BroadcastBuild") && explain.contains("Scan[d2] (replicated)"),
            "{explain}"
        );

        let master0 = vh.session_master();
        vh.fs().kill_node(master0).unwrap();
        vh.rm().node_lost(master0);
        let mut queries = 0;
        while vh.workers().contains(&master0) {
            queries += 1;
            assert!(queries <= 12, "background plane never deposed the master");
            vh.query("SELECT count(*) FROM t").unwrap();
        }
        assert_ne!(vh.session_master(), master0, "{mode:?}");

        let rows = vh.query(join).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(rows, vec![vec![Value::I64(50)]], "{mode:?}");
        let groups = vh
            .query("SELECT a, count(*) FROM d1 GROUP BY a")
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(groups.len(), 5, "{mode:?}");
    }
}

/// The fencing drill: a one-way partition drops only the master's
/// heartbeats, so the monitor *falsely* declares a live master dead. The
/// health plane must fence it (STONITH — declaration and filesystem agree),
/// elect a successor, resolve the old master's half-prepared transaction to
/// presumed abort without duplicating rows, and reject any commit still
/// carrying the stale epoch with the typed error. Rejoin re-admits the node
/// but never fails the master role back.
#[test]
fn false_positive_detection_fences_the_old_master_and_resolves_partial_2pc() {
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
    // One acknowledged transaction: the baseline that must survive.
    vh.trickle_insert("t", vec![vec![Value::I64(1), Value::I64(10)]])
        .unwrap();
    let baseline = vh.query("SELECT count(*) FROM t").unwrap()[0][0].clone();
    let master0 = vh.session_master();
    let epoch0 = vh.master_epoch();

    // The master gets one transaction to the prepared state on both
    // participants, then stalls before the decision — in doubt, no
    // decision record anywhere.
    let recs = |part: i64| {
        vec![
            LogRecord::TxnBegin { txn: 700 },
            LogRecord::Insert {
                txn: 700,
                rid: 0,
                tag: 7000 + part as u64,
                values: vec![Value::I64(700 + part), Value::I64(0)],
            },
        ]
    };
    let (ra, rb) = (recs(0), recs(1));
    vh.install_fault_hook(Some(DirectedFault::new(
        FaultSite::TwoPhaseDecide,
        FaultAction::CrashBefore,
        1,
    )));
    let out = vh
        .coordinator
        .commit_distributed(700, &[(pa, &rt.wals[0], &ra), (pb, &rt.wals[1], &rb)])
        .unwrap();
    vh.install_fault_hook(None);
    assert_eq!(out, vectorh_txn::twophase::Outcome::InDoubt);

    // A one-way partition isolates the master's heartbeats; its process
    // stays up. Background rounds must declare it dead and fence it.
    vh.install_fault_hook(Some(Arc::new(DropBeatsOf(master0)) as SharedFaultHook));
    let mut queries = 0;
    while vh.workers().contains(&master0) {
        queries += 1;
        assert!(queries <= 12, "false positive never declared");
        vh.query("SELECT count(*) FROM t").unwrap();
    }
    vh.install_fault_hook(None);
    // STONITH: the declaration forcibly killed the still-live process, so
    // the monitor's verdict and the filesystem agree.
    assert!(!vh.fs().alive_nodes().contains(&master0), "fenced");
    let master1 = vh.session_master();
    let epoch1 = vh.master_epoch();
    assert_ne!(master1, master0);
    assert_eq!(epoch1, epoch0 + 1);

    // The new master resolved the in-doubt transaction to presumed abort:
    // no decision record existed, so its rows never surface — the visible
    // image is exactly the baseline, no loss, no duplicates.
    assert_eq!(
        vh.coordinator.in_doubt_txns_of(&rt.wals[0]).unwrap(),
        vec![]
    );
    assert_eq!(
        vh.coordinator.in_doubt_txns_of(&rt.wals[1]).unwrap(),
        vec![]
    );
    assert!(!vh.coordinator.recover_decision(700).unwrap());
    assert_eq!(vh.query("SELECT count(*) FROM t").unwrap()[0][0], baseline);

    // The deposed master wakes up and retries its commit with the epoch it
    // believes in: fenced at entry with the typed error, before any
    // participant writes a byte.
    let err = vh
        .coordinator
        .commit_at_epoch(
            epoch0,
            701,
            &[(pa, &rt.wals[0], &ra), (pb, &rt.wals[1], &rb)],
        )
        .unwrap_err();
    assert!(
        matches!(err, VhError::StaleMaster(_)),
        "stale-epoch commit must be fenced, got: {err}"
    );
    assert_eq!(vh.query("SELECT count(*) FROM t").unwrap()[0][0], baseline);

    // Rejoin re-admits the node as a worker — the master role does not
    // fail back, and the next commit still lands under the new epoch.
    vh.rejoin_node(master0).unwrap();
    assert!(vh.workers().contains(&master0));
    assert_eq!(vh.session_master(), master1, "no failback on rejoin");
    assert_eq!(vh.master_epoch(), epoch1);
    vh.trickle_insert("t", vec![vec![Value::I64(2), Value::I64(20)]])
        .unwrap();
}

/// Bounded retention: the ship log truncates once it exceeds the configured
/// budget, live receivers keep replaying deltas, and a receiver that
/// rejoins behind the truncation horizon converges via full-image bootstrap
/// (stable image + committed WAL tail) instead of replay.
#[test]
fn bounded_retention_truncates_and_bootstraps_stragglers() {
    let vh = engine_with(4, |cfg| {
        cfg.ship_retention = ShipRetention {
            max_bytes: None,
            max_records: Some(6),
        }
    });
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
    let dims = vh.table("dims").unwrap();
    let pid = dims.pids[0];

    let victim = NodeId(3);
    vh.kill_node(victim).unwrap();

    // Commits while the victim is down: each trickle batch logs
    // TxnBegin + 2 inserts = 3 records, so 4 commits (12 records) blow
    // through the 6-record budget and truncate the log past the victim's
    // position. Live replicas stay converged throughout — they drain at
    // the head, never behind the horizon.
    for i in 0..4i64 {
        vh.trickle_insert(
            "dims",
            vec![
                vec![Value::I64(100 + 2 * i), Value::I64(0)],
                vec![Value::I64(101 + 2 * i), Value::I64(0)],
            ],
        )
        .unwrap();
    }
    assert!(vh.shipper.horizon(pid) > 0, "retention moved the horizon");
    assert!(
        vh.shipper.reclaimed_bytes() > 0,
        "truncation reclaimed bytes"
    );
    assert!(
        vh.shipper.retained_bytes(pid) > 0,
        "the tail within budget is still retained"
    );
    for &w in &vh.workers() {
        assert_eq!(vh.replica_rows(w, pid).unwrap(), 18, "{w} stayed live");
    }

    // The victim's watermark is behind the horizon: rejoin must take the
    // full-image bootstrap and converge, then track live commits again.
    vh.rejoin_node(victim).unwrap();
    assert_eq!(vh.replica_rows(victim, pid).unwrap(), 18, "bootstrapped");
    vh.trickle_insert("dims", vec![vec![Value::I64(200), Value::I64(0)]])
        .unwrap();
    assert_eq!(vh.replica_rows(victim, pid).unwrap(), 19, "live again");

    // An explicit checkpoint (stable image rewrite) empties the retained
    // log and reports what it reclaimed.
    let retained = vh.shipper.retained_bytes(pid);
    assert_eq!(vh.shipper.checkpoint(pid), retained);
    assert_eq!(vh.shipper.retained_bytes(pid), 0);
}

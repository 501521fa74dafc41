//! The chaos schedule: one seed → one reproducible fault campaign.
//!
//! [`run_schedule`] builds a small TPC-H cluster and drives four phases,
//! each with its own [`SplitMix64`] derived from `(seed, phase index)`:
//!
//! 1. **Faulty I/O queries** (`io`) — a rate-based [`FaultPlan`] injects
//!    transient HDFS read errors, slow reads and exchange
//!    drop/duplicate/delay while TPC-H queries run; every answer must match
//!    the row-store baseline.
//! 2. **Transaction crash storm** (`txn`) — scripted [`DirectedFault`]s
//!    crash the WAL append and both 2PC phases across a shuffled sequence
//!    of distributed commits; the engine's recovery entry point
//!    ([`vectorh::recovery::recover_partition`]) must resurrect exactly the
//!    committed transactions, identically on every participant.
//! 3. **Mid-query node kill** (`kill`) — a watcher thread kills a worker
//!    once the query has read enough bytes; the query must still return
//!    baseline-correct rows, and a follow-up scan must be fully
//!    short-circuit local (zero remote reads).
//! 4. **Crash, detect, recover, rejoin** (`rejoin`) — the node responsible
//!    for a trickle-updated partition crashes mid-commit; the heartbeat
//!    detector (with one beat dropped in flight) declares it dead, takeover
//!    recovery resurrects exactly the durably committed transactions, and
//!    after [`VectorH::rejoin_node`] locality and replicated state converge
//!    back.
//! 5. **Master kill mid-2PC** (`master`) — the session master dies at a
//!    seed-chosen 2PC decide crash point; detection and the election run
//!    entirely from inside ordinary query traffic (the background health
//!    plane), the new master resolves the in-doubt transaction exactly once
//!    under a bumped epoch, a stale-epoch commit is fenced, a
//!    replicated-table commit storm pushes the bounded ship log past its
//!    truncation horizon, and the rejoining old master converges via
//!    full-image bootstrap — without reclaiming the master role.
//! 6. **Transport faults** (`transport`) — a framed TCP fabric carries a
//!    seed-sized burst of messages while scripted [`DirectedFault`]s refuse
//!    dials, tear frames on the wire and drop the connection between
//!    frames; reconnect-with-retransmission plus receiver dedup must still
//!    deliver every payload exactly once, in order, and after an epoch bump
//!    a peer redialling with the stale epoch must be fenced at the
//!    handshake.
//! 7. **Front-door kill under concurrent clients** (`frontdoor`) — a wire
//!    [`Server`](vectorh_server::Server) fronts the engine while a
//!    seed-sized pack of concurrent TCP clients streams a Q1/Q6/Q12 mix;
//!    once every client is mid-run, a seed-chosen worker dies. Every query
//!    must still return baseline-correct rows — failover is absorbed
//!    inside `query_logical`, never surfaced to a client — and the
//!    admission gate must report zero rejections for a closed-loop pack
//!    this size.
//! 8. **HTAP soak** (`htap`) — a private cluster with background
//!    chunk-level update propagation enabled runs a seeded mixed workload
//!    (trickle inserts, key deletes, updates, Q1/Q6/Q12 probes, a node
//!    kill) for 64 rounds against an exact in-memory model; scripted
//!    [`DirectedFault`]s crash propagation at seed-chosen WAL protocol
//!    steps (directed and from inside the background tick), after which
//!    the partition must still reconcile and a clean retry must succeed;
//!    untouched chunks stay byte-identical on disk across a tail-append
//!    propagation and scans are byte-stable across the image swap.
//!
//! Phases run selectively via `CHAOS_PHASES` (comma-separated names from
//! [`ALL_PHASES`], default all) so CI can split a schedule across parallel
//! jobs; per-phase RNGs keep each enabled phase's schedule identical
//! regardless of which other phases run. Every decision the harness itself
//! makes (cluster size, query choice, fault rates, txn script order, victim
//! node) comes from the seed, and every injected fault comes from
//! set-deterministic hooks, so the resulting [`ScheduleReport`] — steps,
//! per-site fired counters, and the master-epoch history — is identical
//! run-to-run. Failures embed the seed; rerun just that schedule with
//! `CHAOS_SEED=<seed>`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vectorh::{ClusterConfig, Expr, TableBuilder, VectorH};
use vectorh_common::fault::{DirectedFault, DirectedSet, FaultAction, FaultSite, SharedFaultHook};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{DataType, NodeId, PartitionId, Result, Value, VhError};
use vectorh_server::{AdmissionConfig, Client, Server, ServerConfig};
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};
use vectorh_tpch::sql_text;
use vectorh_tpch::sql_texts::{frontdoor_mix_texts, FRONTDOOR_MIX};
use vectorh_transport::{Fabric, RxKind, SharedEpoch, TcpFabric};
use vectorh_txn::manager::{TransactionManager, TxnConfig};
use vectorh_txn::twophase::{Outcome, TwoPhaseCoordinator};
use vectorh_txn::wal::{LogRecord, Wal};

use crate::plan::{site_index, FaultPlan, N_SITES};

/// Seeds per default corpus (CI runs all of them).
pub const DEFAULT_CORPUS_LEN: usize = 16;

/// Phase names, in execution order. `CHAOS_PHASES` selects a subset.
pub const ALL_PHASES: [&str; 8] = [
    "io",
    "txn",
    "kill",
    "rejoin",
    "master",
    "transport",
    "frontdoor",
    "htap",
];

/// Phases enabled by the environment: `CHAOS_PHASES=io,txn` runs just
/// those two (CI splits the corpus this way); unset runs all of them.
pub fn enabled_phases() -> Vec<&'static str> {
    phases_from(std::env::var("CHAOS_PHASES").ok().as_deref())
}

/// Testable core of [`enabled_phases`].
pub fn phases_from(env: Option<&str>) -> Vec<&'static str> {
    match env {
        None => ALL_PHASES.to_vec(),
        Some(s) => {
            let req: Vec<&str> = s
                .split(',')
                .map(|p| p.trim())
                .filter(|p| !p.is_empty())
                .collect();
            for r in &req {
                assert!(
                    ALL_PHASES.contains(r),
                    "CHAOS_PHASES names unknown phase {r:?} (known: {ALL_PHASES:?})"
                );
            }
            ALL_PHASES
                .iter()
                .copied()
                .filter(|p| req.contains(p))
                .collect()
        }
    }
}

/// Per-phase RNG: derived from `(seed, phase index)` so an enabled phase's
/// schedule is identical whether or not the other phases run.
fn phase_rng(seed: u64, phase: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one schedule did, in deterministic order. Two runs of the same
/// seed must produce byte-identical reports — the determinism test relies
/// on `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReport {
    pub seed: u64,
    /// Human-readable narration of each step taken.
    pub steps: Vec<String>,
    /// Faults fired per site, indexed like [`FaultSite::ALL`].
    pub fired: [u64; N_SITES],
    /// Every (epoch, master) in force across the schedule, oldest first —
    /// the election audit trail (epoch 1 is the initial master).
    pub epochs: Vec<(u64, NodeId)>,
}

/// The seed corpus: `CHAOS_SEED` (decimal or `0x`-hex) replays a single
/// schedule; otherwise a fixed [`DEFAULT_CORPUS_LEN`]-seed corpus runs.
pub fn corpus() -> Vec<u64> {
    corpus_from(std::env::var("CHAOS_SEED").ok().as_deref())
}

/// Testable core of [`corpus`].
pub fn corpus_from(env: Option<&str>) -> Vec<u64> {
    match env {
        Some(s) => {
            let s = s.trim();
            let seed = s
                .strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| s.parse::<u64>())
                .unwrap_or_else(|_| {
                    panic!("CHAOS_SEED must be a u64 (decimal or 0x-hex), got {s:?}")
                });
            vec![seed]
        }
        None => (0..DEFAULT_CORPUS_LEN as u64)
            .map(|i| 0x56EC_7040 + i)
            .collect(),
    }
}

/// Run one complete chaos schedule with the phases selected by the
/// environment (`CHAOS_PHASES`). `Err` means an engine invariant broke (or
/// the cluster failed to come up); the message embeds the seed.
pub fn run_schedule(seed: u64) -> Result<ScheduleReport> {
    run_schedule_with_phases(seed, &enabled_phases())
}

/// [`run_schedule`] with an explicit phase selection — what the
/// election-determinism tests use to replay just the `master` phase without
/// touching the process environment.
pub fn run_schedule_with_phases(seed: u64, phases: &[&str]) -> Result<ScheduleReport> {
    let mut rng = SplitMix64::new(seed);
    let mut report = ScheduleReport {
        seed,
        steps: Vec::new(),
        fired: [0; N_SITES],
        epochs: Vec::new(),
    };

    // Cluster shape: ≥4 nodes so replication 3 survives a node kill.
    // Arc because the front-door phase hands the engine to a wire server.
    let nodes = 4 + rng.next_bounded(2) as usize;
    let vh = Arc::new(VectorH::start(ClusterConfig {
        nodes,
        rows_per_chunk: 256,
        hdfs_block_size: 32 * 1024,
        streams_per_node: 2,
        replication: 3,
        // Bounded ship-log retention, fixed (not from the environment) so
        // the `master` phase's horizon storm is seed-deterministic.
        ship_retention: vectorh_txn::twophase::ShipRetention {
            max_bytes: None,
            max_records: Some(8),
        },
        ..Default::default()
    })?);
    let data = vectorh_tpch::schema::setup(&vh, 0.001, 4, 20260807)?;
    let db = BaselineDb::load(&data)?;
    report
        .steps
        .push(format!("cluster: {nodes} nodes, 4 partitions, sf 0.001"));

    if phases.contains(&"io") {
        phase_faulty_io(&vh, &db, &mut phase_rng(seed, 1), &mut report)?;
    }
    if phases.contains(&"txn") {
        phase_txn_crashes(&vh, &mut phase_rng(seed, 2), &mut report)?;
    }
    if phases.contains(&"kill") {
        phase_kill_node(&vh, &db, &mut phase_rng(seed, 3), &mut report)?;
    }
    if phases.contains(&"rejoin") {
        phase_rejoin(&vh, &db, &mut phase_rng(seed, 4), &mut report)?;
    }
    if phases.contains(&"master") {
        phase_master_kill(&vh, &db, &mut phase_rng(seed, 5), &mut report)?;
    }
    if phases.contains(&"transport") {
        phase_transport(&mut phase_rng(seed, 6), &mut report)?;
    }
    if phases.contains(&"frontdoor") {
        phase_frontdoor(&vh, &db, &mut phase_rng(seed, 7), &mut report)?;
    }
    if phases.contains(&"htap") {
        phase_htap(&db, &mut phase_rng(seed, 8), &mut report)?;
    }
    report.epochs = vh.master_history();
    Ok(report)
}

/// Run query `qn` on the engine and compare against the row-store
/// baseline; returns the row count.
fn checked_query(vh: &VectorH, db: &BaselineDb, qn: usize, ctx: &str, seed: u64) -> Result<usize> {
    let sql = sql_text(qn).expect("a TPC-H query number");
    let got = canonical(vh.query(sql)?);
    let want = canonical(db.run(&vh.parse(sql)?, BaselineKind::RowStore)?);
    if got != want {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: Q{qn} diverged from row-store baseline {ctx} \
             ({} vs {} rows)",
            got.len(),
            want.len()
        )));
    }
    Ok(got.len())
}

/// Phase 1: queries under a rate-based I/O + exchange fault plan.
///
/// The plan's palettes are chosen so queries must still *succeed*: HDFS
/// errors are transient (cleared by the engine's bounded retry), slow reads
/// only add simulated latency, and exchange drop/duplicate/delay are
/// absorbed by the reliable-transport semantics (retransmit, receiver
/// dedup, bounded reorder).
fn phase_faulty_io(
    vh: &VectorH,
    db: &BaselineDb,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let plan = std::sync::Arc::new(
        FaultPlan::new(rng.next_u64())
            .with_site(
                FaultSite::HdfsRead,
                40 + rng.next_bounded(120) as u16,
                &[FaultAction::TransientError, FaultAction::SlowRead],
            )
            .with_site(
                FaultSite::XchgSend,
                20 + rng.next_bounded(80) as u16,
                &[
                    FaultAction::Drop,
                    FaultAction::Duplicate,
                    FaultAction::Delay,
                ],
            ),
    );
    vh.install_fault_hook(Some(plan.clone() as SharedFaultHook));
    let mut pool = vec![1usize, 3, 5, 6, 10, 12, 14, 19];
    rng.shuffle(&mut pool);
    let result = (|| {
        for &qn in pool.iter().take(3) {
            let rows = checked_query(vh, db, qn, "under the I/O fault plan", report.seed)?;
            report
                .steps
                .push(format!("faulty-io Q{qn}: {rows} rows ok"));
        }
        Ok(())
    })();
    vh.install_fault_hook(None);
    result?;
    for (total, fired) in report.fired.iter_mut().zip(plan.fired_counts()) {
        *total += fired;
    }
    Ok(())
}

/// Phase 2: distributed commits under scripted crash faults, then a
/// simulated restart whose recovery must agree with the acknowledged
/// outcomes.
fn phase_txn_crashes(
    vh: &VectorH,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let seed = report.seed;
    let fs = vh.fs().clone();
    let dir = format!("/chaos/{seed:016x}");
    let coord = TwoPhaseCoordinator::new(Wal::new(fs.clone(), format!("{dir}/global.wal"), None));
    let pa = PartitionId(9000);
    let pb = PartitionId(9001);
    let wa = Wal::new(fs.clone(), format!("{dir}/pa.wal"), None);
    let wb = Wal::new(fs.clone(), format!("{dir}/pb.wal"), None);
    // The manager that each simulated restart recovers into.
    let mgr = TransactionManager::new(TxnConfig::default());
    mgr.register_partition(pa, 0);
    mgr.register_partition(pb, 0);

    // One transaction per scripted fault (plus clean controls), in
    // seed-shuffled order. Every crash-capable txn site appears.
    let mut script: Vec<Option<(FaultSite, FaultAction)>> = vec![
        None,
        Some((FaultSite::HdfsAppend, FaultAction::TransientError)),
        Some((FaultSite::WalAppend, FaultAction::CrashBefore)),
        Some((FaultSite::WalAppend, FaultAction::CrashMid)),
        Some((FaultSite::WalAppend, FaultAction::CrashAfter)),
        Some((FaultSite::TwoPhasePrepare, FaultAction::CrashBefore)),
        Some((FaultSite::TwoPhaseDecide, FaultAction::CrashBefore)),
        Some((FaultSite::TwoPhaseDecide, FaultAction::CrashAfter)),
        None,
    ];
    rng.shuffle(&mut script);

    let mut acked: Vec<u64> = Vec::new();
    let mut unresolved: Vec<u64> = Vec::new();
    for (i, fault) in script.iter().enumerate() {
        let txn_id = 100 + i as u64;
        let recs = |part: u64| {
            vec![
                LogRecord::TxnBegin { txn: txn_id },
                LogRecord::Insert {
                    txn: txn_id,
                    rid: 0,
                    tag: txn_id * 10 + part,
                    values: vec![vectorh_common::Value::I64(txn_id as i64)],
                },
            ]
        };
        let (ra, rb) = (recs(0), recs(1));
        let directed = fault.map(|(site, action)| DirectedFault::new(site, action, 1));
        vh.install_fault_hook(directed.clone().map(|d| d as SharedFaultHook));
        let out = coord.commit_distributed(txn_id, &[(pa, &wa, &ra), (pb, &wb, &rb)]);
        vh.install_fault_hook(None);
        if let Some(d) = &directed {
            report.fired[site_index(d.site())] += d.fired();
        }
        let label = match fault {
            Some((site, action)) => format!("{site}/{action:?}"),
            None => "clean".to_string(),
        };
        match out {
            Ok(Outcome::Committed) => {
                acked.push(txn_id);
                report
                    .steps
                    .push(format!("txn{txn_id} [{label}]: committed"));
            }
            Ok(Outcome::InDoubt) => {
                unresolved.push(txn_id);
                report
                    .steps
                    .push(format!("txn{txn_id} [{label}]: in doubt"));
            }
            Err(e) => {
                unresolved.push(txn_id);
                report
                    .steps
                    .push(format!("txn{txn_id} [{label}]: crashed ({e})"));
                // The "crashed" coordinator restarts through the engine's
                // recovery entry point: each partition WAL's torn tail is
                // repaired, in-doubt transactions resolve against the
                // global WAL, and exactly the committed state is
                // reinstalled before the logs are appended to again.
                coord.global_wal().repair()?;
                for (pid, wal) in [(pa, &wa), (pb, &wb)] {
                    vectorh::recovery::recover_partition(&coord, &mgr, pid, 0, wal)?;
                }
            }
        }
    }

    // Simulated restart. The first recovery read itself suffers a
    // transient fault, which the WAL's retry loop must absorb.
    let replay_fault = DirectedFault::new(FaultSite::WalReplay, FaultAction::TransientError, 1);
    vh.install_fault_hook(Some(replay_fault.clone() as SharedFaultHook));
    let committed_a = coord.committed_txns_of(&wa)?;
    vh.install_fault_hook(None);
    report.fired[site_index(FaultSite::WalReplay)] += replay_fault.fired();
    let committed_b = coord.committed_txns_of(&wb)?;

    if committed_a != committed_b {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: 2PC atomicity violated — participants \
             recover different commit sets ({committed_a:?} vs {committed_b:?})"
        )));
    }
    for txn in &acked {
        if !committed_a.contains(txn) {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: acknowledged txn{txn} lost across recovery"
            )));
        }
    }
    for txn in &unresolved {
        // In-doubt resolution must follow the global WAL's decision.
        if committed_a.contains(txn) != coord.recover_decision(*txn)? {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: in-doubt txn{txn} resolved against the \
                 global decision"
            )));
        }
    }

    // Final restart through the engine recovery path: each participant's
    // recovered commit set must match the log scan above, and exactly one
    // row per committed txn becomes visible — nothing from uncommitted
    // ones.
    for (pid, wal) in [(pa, &wa), (pb, &wb)] {
        let rep = vectorh::recovery::recover_partition(&coord, &mgr, pid, 0, wal)?;
        let recovered: std::collections::BTreeSet<u64> = rep.committed.iter().copied().collect();
        let scanned: std::collections::BTreeSet<u64> = committed_a.iter().copied().collect();
        if recovered != scanned {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: recovery of {pid} resolved {recovered:?} \
                 as committed, log scan says {committed_a:?}"
            )));
        }
        let visible = mgr.visible_rows(pid)?;
        if visible != committed_a.len() as u64 {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: recovery of {pid} shows {visible} rows, \
                 expected {} (one per committed txn)",
                committed_a.len()
            )));
        }
    }
    report.steps.push(format!(
        "recovery: {} committed of {} attempted, replay verified on both partitions",
        committed_a.len(),
        script.len()
    ));
    Ok(())
}

/// Phase 3: kill a worker mid-query; the query must return baseline-correct
/// rows via failover, and a follow-up scan must be fully local again.
fn phase_kill_node(
    vh: &VectorH,
    db: &BaselineDb,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let seed = report.seed;
    let master = vh.session_master();
    let pool: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != master).collect();
    let victim = pool[rng.next_bounded(pool.len() as u64) as usize];
    let qn = [3usize, 5, 10][rng.next_bounded(3) as usize];
    let sql = sql_text(qn).expect("a TPC-H query number");
    let want = canonical(db.run(&vh.parse(sql)?, BaselineKind::RowStore)?);
    let threshold = vh.fs().stats().snapshot().read_bytes() + 2048 + rng.next_bounded(16 * 1024);

    let done = AtomicBool::new(false);
    let (got, killed_mid) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if vh.fs().stats().snapshot().read_bytes() >= threshold {
                    return vh.kill_node(victim).is_ok();
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            false
        });
        let got = vh.query(sql);
        done.store(true, Ordering::Release);
        (got, killer.join().unwrap_or(false))
    });
    let got = canonical(got?);
    if got != want {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: Q{qn} diverged from baseline across a \
             mid-query node kill ({} vs {} rows)",
            got.len(),
            want.len()
        )));
    }
    if !killed_mid {
        // Tiny queries can finish before the watcher crosses the read
        // threshold; the failover invariants below still apply.
        vh.kill_node(victim)?;
    }
    if vh.workers().contains(&victim) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {victim} still in the worker set after kill"
        )));
    }

    // Locality fully restored: a fresh scan does zero remote reads.
    let before = vh.fs().stats().snapshot();
    checked_query(vh, db, 6, "after the node kill", seed)?;
    let delta = vh.fs().stats().snapshot().since(&before);
    if delta.remote_read_bytes != 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: locality not restored after killing \
             {victim} — {} remote bytes read",
            delta.remote_read_bytes
        )));
    }
    report.steps.push(format!(
        "killed {victim} during Q{qn}; post-failure Q6 fully local"
    ));
    Ok(())
}

/// Phase 4: the responsible node crashes mid-commit, the heartbeat monitor
/// detects it (with one beat dropped in flight), takeover recovery
/// resurrects exactly the durably committed transactions, and after rejoin
/// the node's replica state and cluster locality converge back.
fn phase_rejoin(
    vh: &VectorH,
    db: &BaselineDb,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let seed = report.seed;
    // Fresh side tables so the expected contents are exactly modelled: a
    // single-partition table whose responsibility will move across the
    // crash, and a replicated table for shipped-log catch-up.
    vh.create_table(
        TableBuilder::new("rejoin_part")
            .column("id", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["id"], 1)
            .clustered_by(&["id"]),
    )?;
    vh.create_table(
        TableBuilder::new("rejoin_repl")
            .column("id", DataType::I64)
            .column("v", DataType::I64),
    )?;
    let part = vh.table("rejoin_part")?;
    let pid = part.pids[0];
    let mut next_id = 0i64;
    let mut two_rows = move || {
        let rows = vec![
            vec![Value::I64(next_id), Value::I64(next_id * 7)],
            vec![Value::I64(next_id + 1), Value::I64((next_id + 1) * 7)],
        ];
        next_id += 2;
        rows
    };

    // Three acknowledged commits — these must survive the takeover.
    let mut acked = 0u64;
    for _ in 0..3 {
        vh.trickle_insert("rejoin_part", two_rows())?;
        acked += 1;
    }

    // The responsible node crashes mid-commit: a budget-1 WAL-append crash
    // at a seed-chosen point tears the 4th transaction, and the process
    // dies without the engine noticing — detection is the heartbeat
    // monitor's job, not ours.
    let victim = vh.responsible(pid);
    let crash = [
        FaultAction::CrashBefore,
        FaultAction::CrashMid,
        FaultAction::CrashAfter,
    ][rng.next_bounded(3) as usize];
    let fault = DirectedFault::new(FaultSite::WalAppend, crash, 1);
    vh.install_fault_hook(Some(fault.clone() as SharedFaultHook));
    let out = vh.trickle_insert("rejoin_part", two_rows());
    vh.install_fault_hook(None);
    report.fired[site_index(FaultSite::WalAppend)] += fault.fired();
    if out.is_ok() {
        acked += 1;
    }
    vh.fs().kill_node(victim)?;
    vh.rm().node_lost(victim);

    // Heartbeat detection, with one live node's beat dropped along the way
    // — a drop may only delay detection, never false-kill a healthy node.
    let hb = DirectedFault::new(FaultSite::Heartbeat, FaultAction::Drop, 1);
    vh.install_fault_hook(Some(hb.clone() as SharedFaultHook));
    let mut detected_at = 0u64;
    for tick in 1..=8u64 {
        if vh.health_tick()?.contains(&victim) {
            detected_at = tick;
            break;
        }
    }
    vh.install_fault_hook(None);
    report.fired[site_index(FaultSite::Heartbeat)] += hb.fired();
    if detected_at == 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: heartbeat monitor never declared {victim} dead"
        )));
    }
    if vh.workers().contains(&victim) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {victim} still in the worker set after detection"
        )));
    }

    // Takeover ran inside the detection tick. The recovered partition must
    // hold exactly the resolved transactions: every acknowledged one, plus
    // a crash survivor only if its commit record is durable — and no
    // uncommitted record ever becomes visible (each txn wrote 2 rows, so
    // any torn partial state would break the 2×C row count).
    let committed = vh
        .coordinator
        .recoverable_txns(&part.wals[0])?
        .iter()
        .filter(|t| t.resolution.is_committed())
        .count() as u64;
    if committed < acked {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: acknowledged txn lost across takeover \
             ({acked} acked, {committed} recovered)"
        )));
    }
    let visible = vh.table_rows("rejoin_part")?;
    if visible != 2 * committed {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: takeover of {pid} shows {visible} rows, \
             expected {} (2 per committed txn, atomically)",
            2 * committed
        )));
    }

    // While the victim is down, replicated-table commits pile up in the
    // shipped log.
    vh.trickle_insert("rejoin_repl", two_rows())?;
    vh.trickle_insert("rejoin_repl", two_rows())?;

    // Rejoin: the worker set, the victim's replica state and full scan
    // locality all converge back.
    vh.rejoin_node(victim)?;
    if !vh.workers().contains(&victim) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {victim} not re-admitted by rejoin"
        )));
    }
    let repl = vh.table("rejoin_repl")?;
    let check_replica = |ctx: &str| -> Result<()> {
        let caught_up = vh.replica_rows(victim, repl.pids[0])?;
        let expect = vh.table_rows("rejoin_repl")?;
        if caught_up != expect {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: {victim} replica has {caught_up} rows \
                 {ctx}, primary has {expect}"
            )));
        }
        Ok(())
    };
    check_replica("after rejoin catch-up")?;
    // A post-rejoin commit must reach the rejoined replica live.
    vh.trickle_insert("rejoin_repl", two_rows())?;
    check_replica("after a post-rejoin commit")?;
    let before = vh.fs().stats().snapshot();
    checked_query(vh, db, 6, "after the node rejoin", seed)?;
    let delta = vh.fs().stats().snapshot().since(&before);
    if delta.remote_read_bytes != 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: locality not restored after rejoining \
             {victim} — {} remote bytes read",
            delta.remote_read_bytes
        )));
    }
    report.steps.push(format!(
        "rejoin: crashed {victim} mid-commit [{crash:?}], detected at tick \
         {detected_at}, {committed}/4 txns recovered, replica caught up, \
         post-rejoin Q6 fully local"
    ));
    Ok(())
}

/// Phase 5: the session master dies mid-2PC. Unlike phase 4, nothing drives
/// detection by hand — ordinary query traffic advances the background
/// health plane, which declares the master dead, elects the lowest live
/// NodeId under a bumped epoch, and resolves the in-doubt transaction
/// exactly once. A stale-epoch commit is fenced, a replicated-table commit
/// storm pushes the bounded ship log past its truncation horizon, and the
/// rejoining old master converges via full-image bootstrap without taking
/// the master role back.
fn phase_master_kill(
    vh: &VectorH,
    db: &BaselineDb,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let seed = report.seed;
    vh.create_table(
        TableBuilder::new("master_part")
            .column("id", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["id"], 2)
            .clustered_by(&["id"]),
    )?;
    vh.create_table(
        TableBuilder::new("master_repl")
            .column("id", DataType::I64)
            .column("v", DataType::I64),
    )?;
    let part = vh.table("master_part")?;
    let repl = vh.table("master_repl")?;
    let mut next_id = 1000i64;
    let mut two_rows = move || {
        let rows = vec![
            vec![Value::I64(next_id), Value::I64(next_id * 3)],
            vec![Value::I64(next_id + 1), Value::I64((next_id + 1) * 3)],
        ];
        next_id += 2;
        rows
    };

    // Two acknowledged commits — the baseline that must survive everything.
    let mut acked = 0u64;
    for _ in 0..2 {
        vh.trickle_insert("master_part", two_rows())?;
        acked += 1;
    }
    let master0 = vh.session_master();
    let epoch0 = vh.master_epoch();

    // The master dies at the 2PC commit point: a budget-1 crash at the
    // decide site at a seed-chosen moment — before the decision (presumed
    // abort) or after it became durable (commit survives the master).
    let crash = [FaultAction::CrashBefore, FaultAction::CrashAfter][rng.next_bounded(2) as usize];
    let fault = DirectedFault::new(FaultSite::TwoPhaseDecide, crash, 1);
    vh.install_fault_hook(Some(fault.clone() as SharedFaultHook));
    let out = vh.trickle_insert("master_part", two_rows());
    vh.install_fault_hook(None);
    report.fired[site_index(FaultSite::TwoPhaseDecide)] += fault.fired();
    if out.is_ok() {
        acked += 1;
    }
    vh.fs().kill_node(master0)?;
    vh.rm().node_lost(master0);

    // Detection, election, takeover and in-doubt resolution all run from
    // inside ordinary traffic: just keep querying. One surviving node's
    // heartbeat is dropped along the way — it may delay detection, never
    // false-kill the survivor.
    let survivors: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != master0).collect();
    let lucky = survivors[rng.next_bounded(survivors.len() as u64) as usize];
    let hb = DirectedFault::matching(
        FaultSite::Heartbeat,
        FaultAction::Drop,
        1,
        &format!("{lucky}@"),
    );
    vh.install_fault_hook(Some(hb.clone() as SharedFaultHook));
    let mut queries = 0u64;
    let detect = (|| {
        while vh.workers().contains(&master0) {
            queries += 1;
            if queries > 12 {
                return Err(VhError::Internal(format!(
                    "chaos seed {seed:#x}: background health plane never \
                     removed the dead master {master0}"
                )));
            }
            checked_query(vh, db, 6, "while the dead master goes undetected", seed)?;
        }
        Ok(())
    })();
    vh.install_fault_hook(None);
    report.fired[site_index(FaultSite::Heartbeat)] += hb.fired();
    detect?;
    if !vh.workers().contains(&lucky) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {lucky} false-killed over one dropped heartbeat"
        )));
    }

    // Election: lowest live NodeId, epoch bumped exactly once, durably
    // logged in the global WAL.
    let master1 = vh.session_master();
    let epoch1 = vh.master_epoch();
    if master1 != vh.workers()[0] || master1 == master0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: elected {master1}, expected lowest live \
             node {}",
            vh.workers()[0]
        )));
    }
    if epoch1 != epoch0 + 1 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: epoch went {epoch0} -> {epoch1}, expected \
             exactly one bump"
        )));
    }
    let logged = vh.coordinator.global_wal().read_all()?.iter().any(
        |r| matches!(r, LogRecord::MasterEpoch { epoch, node } if *epoch == epoch1 && *node == master1.0 as u64),
    );
    if !logged {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: election (epoch {epoch1}, {master1}) not \
             logged in the global WAL"
        )));
    }
    // Fencing: the deposed master's epoch must be rejected at the commit
    // point with the typed error.
    match vh.coordinator.check_epoch(epoch0) {
        Err(VhError::StaleMaster(_)) => {}
        other => {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: stale epoch {epoch0} not fenced \
                 (got {other:?})"
            )));
        }
    }

    // Exactly-once: across both partition WALs, every acknowledged
    // transaction is committed, the in-doubt one resolved exactly one way,
    // and the visible image holds 2 rows per committed transaction — no
    // loss, no duplicates.
    let mut committed = std::collections::BTreeSet::new();
    for wal in &part.wals {
        for v in vh.coordinator.recoverable_txns(wal)? {
            if v.resolution.is_committed() {
                committed.insert(v.txn);
            }
        }
    }
    let c = committed.len() as u64;
    if c < acked || c > acked + 1 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {acked} acked but {c} committed across \
             the election — in-doubt resolution lost or duplicated a txn"
        )));
    }
    let visible = vh.table_rows("master_part")?;
    if visible != 2 * c {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: master_part shows {visible} rows, \
             expected {} (2 per committed txn, exactly once)",
            2 * c
        )));
    }
    // Liveness under the new master: a fresh commit at the new epoch.
    vh.trickle_insert("master_part", two_rows())?;
    if vh.table_rows("master_part")? != 2 * (c + 1) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: post-election commit not visible"
        )));
    }

    // Replicated commit storm past the retention horizon (max_records = 8,
    // 3 records per commit): the old master's watermark is now unreachable
    // from the retained log.
    let rpid = repl.pids[0];
    for _ in 0..3 {
        vh.trickle_insert("master_repl", two_rows())?;
    }
    if vh.shipper.horizon(rpid) == 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: ship-log horizon never advanced under \
             bounded retention"
        )));
    }
    if vh.shipper.reclaimed_bytes() == 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: retention truncated nothing"
        )));
    }

    // The old master rejoins behind the horizon: full-image bootstrap must
    // converge its replica, and the master role must NOT fail back.
    vh.rejoin_node(master0)?;
    let caught_up = vh.replica_rows(master0, rpid)?;
    let expect = vh.table_rows("master_repl")?;
    if caught_up != expect {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: bootstrap left {master0} at {caught_up} \
             rows, primary has {expect}"
        )));
    }
    vh.trickle_insert("master_repl", two_rows())?;
    if vh.replica_rows(master0, rpid)? != vh.table_rows("master_repl")? {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {master0} replica diverged on the first \
             live commit after bootstrap"
        )));
    }
    if vh.session_master() != master1 || vh.master_epoch() != epoch1 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: master role failed back to {} after \
             rejoin",
            vh.session_master()
        )));
    }
    report.steps.push(format!(
        "master: killed {master0} mid-2PC [{crash:?}], detected after \
         {queries} queries, elected {master1} at epoch {epoch1}, \
         {c}/{} txns exactly-once, stale epoch fenced, horizon bootstrap \
         converged {master0}",
        acked + 1
    ));
    Ok(())
}

/// Phase 6: the framed TCP transport under scripted connection faults.
///
/// A two-node loopback [`TcpFabric`] carries a seed-sized burst of frames
/// while a [`DirectedSet`] refuses the first dial attempts
/// ([`FaultSite::ConnRefused`]), drops the connection between frames
/// ([`FaultSite::Disconnect`]) and tears frames on the wire
/// ([`FaultSite::PartialFrame`]). The reliable-stream machinery —
/// reconnect, full retransmission of unacked frames, CRC discard of torn
/// frames, receiver dedup by watermark — must deliver every payload
/// exactly once, in order. Then an election bumps the epoch: a peer
/// redialling with the stale epoch must be fenced at the handshake with
/// [`VhError::StaleMaster`], while a current-epoch dialer still gets
/// through.
fn phase_transport(rng: &mut SplitMix64, report: &mut ScheduleReport) -> Result<()> {
    let seed = report.seed;
    let disconnects = 1 + rng.next_bounded(3);
    let partials = 1 + rng.next_bounded(3);
    // Strictly fewer refusals than the dial loop's retry budget, so the
    // connection always comes up after backing off.
    let refusals = 1 + rng.next_bounded(2);
    let n = 96 + rng.next_bounded(160);
    let window = 4 + rng.next_bounded(12) as u32;

    let budgets = [disconnects, partials, refusals];
    let faults = [
        DirectedFault::new(
            FaultSite::Disconnect,
            FaultAction::TransientError,
            disconnects,
        ),
        DirectedFault::new(
            FaultSite::PartialFrame,
            FaultAction::TransientError,
            partials,
        ),
        DirectedFault::new(
            FaultSite::ConnRefused,
            FaultAction::TransientError,
            refusals,
        ),
    ];
    let hook: SharedFaultHook = DirectedSet::new(&faults);
    let epoch = Arc::new(SharedEpoch::new(1));
    let fabric = TcpFabric::loopback(&[NodeId(0), NodeId(1)], epoch.clone(), Some(hook))?;
    let ch = fabric.alloc_channel();
    let mut rx = fabric.endpoint(NodeId(1))?.bind(ch, window)?;
    let mut tx = fabric.endpoint(NodeId(0))?.sender(NodeId(1), ch)?;

    let sender = std::thread::spawn(move || -> Result<()> {
        for i in 0..n {
            tx.send(&i.to_le_bytes())?;
        }
        tx.finish()
    });
    let mut got = Vec::new();
    loop {
        match rx.recv()? {
            Some(item) if item.kind == RxKind::Fin => break,
            Some(item) => {
                let bytes: [u8; 8] = item.payload.as_slice().try_into().map_err(|_| {
                    VhError::Internal(format!(
                        "chaos seed {seed:#x}: transport frame payload was torn \
                         ({} bytes reached the application)",
                        item.payload.len()
                    ))
                })?;
                got.push(u64::from_le_bytes(bytes));
            }
            None => break,
        }
    }
    sender.join().map_err(|_| {
        VhError::Internal(format!("chaos seed {seed:#x}: transport sender panicked"))
    })??;

    let want: Vec<u64> = (0..n).collect();
    if got != want {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: transport delivered {} of {n} frames \
             (loss, duplication or reorder survived the reliable stream)",
            got.len()
        )));
    }
    // Every scripted fault must have fired its full budget: the burst is
    // far larger than any budget, so anything unspent means the fabric
    // never consulted that site.
    for (f, budget) in faults.iter().zip(budgets) {
        if f.fired() != budget {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: {} fired {} of {budget} scripted faults",
                f.site(),
                f.fired()
            )));
        }
        report.fired[site_index(f.site())] += f.fired();
    }

    // An election bumps the cluster epoch; a peer that redials still
    // announcing the old epoch is exactly the zombie the handshake fences.
    epoch.set(2);
    let stale = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(1)));
    let mut stale_tx = stale.sender(NodeId(1), ch)?;
    match stale_tx.send(b"stale epoch write") {
        Err(VhError::StaleMaster(_)) => {}
        Ok(()) => {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: stale-epoch dialer was accepted after \
                 the election"
            )))
        }
        Err(e) => {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: stale-epoch dialer failed with {e:?} \
                 instead of the fencing error"
            )))
        }
    }
    // A current-epoch peer still gets through (fresh stream: one live
    // sender per (from, to, channel)).
    let ch2 = fabric.alloc_channel();
    let mut rx2 = fabric.endpoint(NodeId(1))?.bind(ch2, 4)?;
    let fresh = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(2)));
    let mut fresh_tx = fresh.sender(NodeId(1), ch2)?;
    fresh_tx.send(b"post-election")?;
    let first = rx2.recv()?.ok_or_else(|| {
        VhError::Internal(format!(
            "chaos seed {seed:#x}: post-election stream closed without data"
        ))
    })?;
    if first.payload != b"post-election" {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: post-election frame corrupted"
        )));
    }

    report.steps.push(format!(
        "transport: {n} frames exactly-once over tcp (window {window}) \
         through {disconnects} disconnects, {partials} torn frames, \
         {refusals} refused dials; stale-epoch redial fenced at epoch 2"
    ));
    Ok(())
}

/// Phase 7: a node dies while N concurrent wire clients are streaming
/// results through the SQL front door.
///
/// A [`Server`] fronts the engine; a seed-sized pack of closed-loop TCP
/// clients runs the Q1/Q6/Q12 mix. Once every client is warm (has at least
/// one completed query), a seed-chosen non-master worker is killed.
/// Invariants: **zero client-visible failures** (every in-flight casualty
/// is absorbed by `query_logical`'s pinned-budget retry loop), every
/// answer baseline-correct, every query served exactly once per the
/// engine's own [`server_stats`](VectorH::server_stats) probe, and zero
/// admission rejections — the gate is sized so a closed-loop pack can
/// never be refused, which keeps the report timing-independent.
fn phase_frontdoor(
    vh: &Arc<VectorH>,
    db: &BaselineDb,
    rng: &mut SplitMix64,
    report: &mut ScheduleReport,
) -> Result<()> {
    let seed = report.seed;
    let n_clients = 4 + rng.next_bounded(3) as usize;
    let per_client = 3usize;
    let master = vh.session_master();
    let pool: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != master).collect();
    let victim = pool[rng.next_bounded(pool.len() as u64) as usize];

    let server = Server::start(
        vh.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig {
                max_concurrent: 16,
                max_queue: 32,
                queue_timeout_ms: 30_000,
                per_session_inflight: 4,
                seed,
            },
            batch_rows: 512,
        },
    )?;
    let before = vh.server_stats().totals();

    let texts = frontdoor_mix_texts();
    let mut baselines: Vec<Vec<Vec<Value>>> = Vec::new();
    for sql in texts {
        baselines.push(canonical(db.run(&vh.parse(sql)?, BaselineKind::RowStore)?));
    }
    let completed = AtomicUsize::new(0);
    let addr = server.addr();

    let mut failures: Vec<String> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..n_clients {
            let (completed, baselines, texts) = (&completed, &baselines, &texts);
            handles.push(s.spawn(move || -> std::result::Result<(), String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("client {c} connect: {e}"))?;
                for i in 0..per_client {
                    let qi = (c + i) % texts.len();
                    let rows = client.query(texts[qi]).map_err(|e| {
                        format!("client {c} Q{}: visible failure {e}", FRONTDOOR_MIX[qi])
                    })?;
                    if canonical(rows) != baselines[qi] {
                        return Err(format!(
                            "client {c} Q{} diverged from baseline",
                            FRONTDOOR_MIX[qi]
                        ));
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }));
        }
        // The drill: kill once every client is mid-run. Clients that all
        // returned early must reach the failure report below (which names
        // the seed), not hang the phase here.
        while completed.load(Ordering::SeqCst) < n_clients
            && !handles.iter().all(|h| h.is_finished())
        {
            std::thread::yield_now();
        }
        let kill = vh.kill_node(victim);
        let mut failures: Vec<String> = handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect();
        if let Err(e) = kill {
            failures.push(format!("kill {victim}: {e}"));
        }
        failures
    });
    failures.sort();
    if !failures.is_empty() {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: front door leaked failures to clients: {}",
            failures.join("; ")
        )));
    }
    if vh.workers().contains(&victim) {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: {victim} still in the worker set after kill"
        )));
    }

    let totals = vh.server_stats().totals();
    let served = totals.queries_served - before.queries_served;
    let rejected = totals.rejected_busy - before.rejected_busy;
    let want = (n_clients * per_client) as u64;
    if served != want {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: server_stats counted {served} served, \
             clients completed {want}"
        )));
    }
    if rejected != 0 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: admission refused {rejected} queries from \
             a closed-loop pack the gate is sized for"
        )));
    }
    drop(server);
    report.steps.push(format!(
        "frontdoor: killed {victim} under {n_clients} streaming clients \
         (q1/q6/q12 × {per_client}); {want}/{want} served over the wire, \
         zero client-visible failures"
    ));
    Ok(())
}

/// Phase 8: HTAP soak — chunk-level background update propagation under a
/// sustained mixed workload, with crashes injected at the propagation WAL
/// protocol's own fault sites.
///
/// Runs on a *private* cluster (background propagation enabled via
/// `propagate_every`) so the shared cluster's health clock — which other
/// phases' fired counters depend on — stays untouched. The workload is an
/// exact-model soak: every trickle insert, key delete and update is
/// mirrored into a `BTreeMap`, and a full `SELECT k, v` scan must equal the
/// model at every reconcile point — across background propagation ticks, a
/// node kill, directed propagation crashes, and a crash fired from inside
/// the background tick itself (which must self-repair without failing the
/// DML call that drove the clock). TPC-H Q1/Q6/Q12 probes interleave as the
/// OLAP half. The phase closes with the two §6 byte-level invariants:
/// untouched chunks stay byte-identical on disk across a tail-append
/// propagation, and scans are byte-stable across the image swap.
fn phase_htap(db: &BaselineDb, rng: &mut SplitMix64, report: &mut ScheduleReport) -> Result<()> {
    let seed = report.seed;
    let propagate_every = 2 + rng.next_bounded(3); // a tick every 2–4 DML/query calls
    let chunks_per_tick = 2 + rng.next_bounded(3) as usize;
    let vh = VectorH::start(ClusterConfig {
        nodes: 4,
        rows_per_chunk: 64,
        hdfs_block_size: 32 * 1024,
        streams_per_node: 2,
        replication: 3,
        propagate_every,
        propagate_chunks_per_tick: chunks_per_tick,
        ..Default::default()
    })?;
    // Same generator parameters as the shared cluster, so the shared
    // row-store baseline answers this cluster's TPC-H probes too.
    vectorh_tpch::schema::setup(&vh, 0.001, 4, 20260807)?;
    vh.create_table(
        TableBuilder::new("htap_t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )?;

    // Seed a propagated stable image (96 rows ≈ 1½ chunks per partition):
    // the fraction-based propagation trigger needs stable rows to compare
    // against, and the crash injections need stable chunks to dirty.
    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    let mut next_k: i64 = 0;
    let seed_rows: Vec<Vec<Value>> = (0..96)
        .map(|_| {
            let k = next_k;
            next_k += 1;
            model.insert(k, k * 7);
            vec![Value::I64(k), Value::I64(k * 7)]
        })
        .collect();
    vh.trickle_insert("htap_t", seed_rows)?;
    vh.propagate_table("htap_t", true)?;

    let reconcile = |ctx: &str, model: &BTreeMap<i64, i64>| -> Result<Vec<Vec<Value>>> {
        let got = canonical(vh.query("SELECT k, v FROM htap_t")?);
        let want = canonical(
            model
                .iter()
                .map(|(k, v)| vec![Value::I64(*k), Value::I64(*v)])
                .collect(),
        );
        if got != want {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: htap_t diverged from the model {ctx} \
                 ({} vs {} rows)",
                got.len(),
                want.len()
            )));
        }
        Ok(got)
    };
    // Keys from the upper half of the model — deletes and soak updates stay
    // away from the minimum key, which the crash injections use as a probe
    // into a propagated (stable) chunk.
    let upper_key = |model: &BTreeMap<i64, i64>, rng: &mut SplitMix64| -> Option<i64> {
        if model.len() < 8 {
            return None;
        }
        let lo = model.len() / 2;
        let idx = lo + rng.next_bounded((model.len() - lo) as u64) as usize;
        model.keys().nth(idx).copied()
    };
    let key_eq = |k: i64| Expr::InList(Box::new(Expr::Col(0)), vec![Value::I64(k)]);

    // Directed crash: dirty a stable chunk (the minimum key was propagated
    // at seed time and is never deleted), then force propagation with a
    // one-shot crash armed at a seed-chosen protocol step. The crash must
    // fire, surface as an error, lose nothing, and leave the partition
    // retryable. `#append` is excluded: it is only reached when tail rows
    // overflow the rewritten last chunk, which the workload can't
    // guarantee at every injection point.
    const CRASH_STEPS: [&str; 6] = [
        "#begin",
        "#rewrite-begin:",
        "#rewrite-data:",
        "#rewritten:",
        "#checkpoint",
        "#gc",
    ];
    const CRASH_KINDS: [FaultAction; 3] = [
        FaultAction::CrashBefore,
        FaultAction::CrashMid,
        FaultAction::CrashAfter,
    ];
    let mut crash_log: Vec<String> = Vec::new();
    let mut fired_total = 0u64;
    let mut inject = |model: &mut BTreeMap<i64, i64>, rng: &mut SplitMix64| -> Result<()> {
        let probe = *model.keys().next().expect("model never empties");
        let bumped = model[&probe] + 1;
        if vh.update_where("htap_t", &key_eq(probe), 1, Value::I64(bumped))? != 1 {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: probe key {probe} not found for update"
            )));
        }
        model.insert(probe, bumped);
        let step = CRASH_STEPS[rng.next_bounded(CRASH_STEPS.len() as u64) as usize];
        let kind = CRASH_KINDS[rng.next_bounded(CRASH_KINDS.len() as u64) as usize];
        let fault = DirectedFault::matching(FaultSite::Propagation, kind, 1, step);
        vh.install_fault_hook(Some(fault.clone() as SharedFaultHook));
        let out = vh.propagate_table("htap_t", true);
        vh.install_fault_hook(None);
        if fault.fired() != 1 {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: propagation never reached crash point \
                 {step} (fired {})",
                fault.fired()
            )));
        }
        if out.is_ok() {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: crash at {step} [{kind:?}] did not \
                 surface from propagate_table"
            )));
        }
        fired_total += 1;
        // Nothing acknowledged may be lost, whether the crash landed before
        // or after the commit point — and a clean retry must go through.
        reconcile(&format!("after a propagation crash at {step}"), model)?;
        vh.propagate_table("htap_t", true)?;
        reconcile(&format!("after retrying past the {step} crash"), model)?;
        crash_log.push(format!("{step}[{kind:?}]"));
        Ok(())
    };

    // The soak: 64 seeded rounds of mixed DML + OLAP probes. DML and query
    // traffic advance the virtual health clock, so background propagation
    // runs *because of* this workload, not beside it.
    let mut dml_calls = 0u64;
    let mut victim = None;
    for round in 0..64u64 {
        match rng.next_bounded(8) {
            0..=4 => {
                let n = 2 + rng.next_bounded(4);
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|_| {
                        let k = next_k;
                        next_k += 1;
                        let v = k * 7 + round as i64;
                        model.insert(k, v);
                        vec![Value::I64(k), Value::I64(v)]
                    })
                    .collect();
                vh.trickle_insert("htap_t", rows)?;
                dml_calls += 1;
            }
            5 => {
                let keys: std::collections::BTreeSet<i64> =
                    (0..3).filter_map(|_| upper_key(&model, rng)).collect();
                if !keys.is_empty() {
                    let vals: Vec<Value> = keys.iter().map(|k| Value::I64(*k)).collect();
                    let deleted = vh.delete_by_keys("htap_t", 0, &vals)?;
                    if deleted != keys.len() as u64 {
                        return Err(VhError::Internal(format!(
                            "chaos seed {seed:#x}: deleted {deleted} of \
                             {} keys in round {round}",
                            keys.len()
                        )));
                    }
                    for k in keys {
                        model.remove(&k);
                    }
                    dml_calls += 1;
                }
            }
            6 => {
                if let Some(k) = upper_key(&model, rng) {
                    let nv = model[&k] + 13;
                    if vh.update_where("htap_t", &key_eq(k), 1, Value::I64(nv))? != 1 {
                        return Err(VhError::Internal(format!(
                            "chaos seed {seed:#x}: update of key {k} in round \
                             {round} touched the wrong row count"
                        )));
                    }
                    model.insert(k, nv);
                    dml_calls += 1;
                }
            }
            _ => {
                let qn = [1usize, 6, 12][rng.next_bounded(3) as usize];
                checked_query(&vh, db, qn, &format!("in htap round {round}"), seed)?;
            }
        }
        if round % 16 == 7 {
            reconcile(&format!("at the round-{round} checkpoint"), &model)?;
        }
        if round == 20 || round == 44 {
            inject(&mut model, rng)?;
        }
        if round == 31 {
            // Mid-soak node kill: takeover must keep both the OLTP and the
            // propagation machinery working on the survivors.
            let master = vh.session_master();
            let pool: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != master).collect();
            let v = pool[rng.next_bounded(pool.len() as u64) as usize];
            vh.kill_node(v)?;
            victim = Some(v);
            reconcile("after the mid-soak node kill", &model)?;
        }
    }

    // A propagation crash fired from *inside* the background tick: the DML
    // call that advanced the clock must still succeed — the tick repairs
    // the partition in place instead of poisoning the foreground.
    let bg = DirectedFault::matching(FaultSite::Propagation, FaultAction::CrashMid, 1, "#");
    vh.install_fault_hook(Some(bg.clone() as SharedFaultHook));
    for _ in 0..48 {
        if bg.fired() > 0 {
            break;
        }
        let rows: Vec<Vec<Value>> = (0..4)
            .map(|_| {
                let k = next_k;
                next_k += 1;
                model.insert(k, k * 7);
                vec![Value::I64(k), Value::I64(k * 7)]
            })
            .collect();
        vh.trickle_insert("htap_t", rows)?;
        dml_calls += 1;
    }
    vh.install_fault_hook(None);
    if bg.fired() != 1 {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: background propagation never ran into the \
             armed crash (fired {})",
            bg.fired()
        )));
    }
    fired_total += 1;
    reconcile("after the background-tick crash self-repaired", &model)?;

    // §6 byte-level invariants. Settle to a clean propagated image, freeze
    // every full chunk's bytes, then push tail-only inserts through another
    // propagation: the full chunks must be kept — same path, same bytes —
    // and a scan must be byte-stable across the image swap (the snapshot a
    // reader holds is never mutated, only superseded).
    vh.propagate_table("htap_t", true)?;
    let rt = vh.table("htap_t")?;
    let mut frozen: Vec<(String, Vec<u8>)> = Vec::new();
    for store in &rt.stores {
        let store = store.read();
        // The last chunk is fair game: a partial tail chunk absorbs
        // appended rows and is legitimately rewritten.
        for c in 0..store.n_chunks().saturating_sub(1) {
            let path = store.chunk_meta(c).path.clone();
            let bytes = vh.fs().read(&path, 0, 1 << 24, None)?;
            frozen.push((path, bytes));
        }
    }
    if frozen.is_empty() {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: soak left no full chunks to freeze — \
             workload too small to prove the keep path"
        )));
    }
    let before_stats = vh.propagation_stats().snapshot();
    let tail_rows: Vec<Vec<Value>> = (0..8)
        .map(|_| {
            let k = next_k;
            next_k += 1;
            model.insert(k, k * 7);
            vec![Value::I64(k), Value::I64(k * 7)]
        })
        .collect();
    vh.trickle_insert("htap_t", tail_rows)?;
    dml_calls += 1;
    let pre_swap = reconcile("before the tail-append propagation", &model)?;
    vh.propagate_table("htap_t", true)?;
    let post_swap = reconcile("after the tail-append propagation", &model)?;
    if pre_swap != post_swap {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: scan not byte-stable across the \
             propagation image swap"
        )));
    }
    for (path, bytes) in &frozen {
        let now = vh.fs().read(path, 0, 1 << 24, None)?;
        if &now != bytes {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: kept chunk {path} changed on disk \
                 across a tail-append propagation"
            )));
        }
    }
    let live: std::collections::BTreeSet<String> = rt
        .stores
        .iter()
        .flat_map(|s| {
            let s = s.read();
            (0..s.n_chunks())
                .map(|c| s.chunk_meta(c).path.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    for (path, _) in &frozen {
        if !live.contains(path) {
            return Err(VhError::Internal(format!(
                "chaos seed {seed:#x}: full chunk {path} was rewritten \
                 instead of kept across a tail-append propagation"
            )));
        }
    }

    // Counter reconciliation: the background plane must have actually run,
    // tail appends are a subset of runs, the directed + retry cycles
    // rewrote chunks, and exactly the one background crash self-repaired.
    let ps = vh.propagation_stats().snapshot();
    if ps.propagation_runs == 0
        || ps.tail_appends > ps.propagation_runs
        || ps.chunks_rewritten == 0
        || ps.crashes_recovered != 1
    {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: propagation counters off: {ps:?}"
        )));
    }
    if ps.tail_appends <= before_stats.tail_appends {
        return Err(VhError::Internal(format!(
            "chaos seed {seed:#x}: tail-only inserts did not take the \
             append path ({} -> {})",
            before_stats.tail_appends, ps.tail_appends
        )));
    }
    report.fired[site_index(FaultSite::Propagation)] += fired_total;
    report.steps.push(format!(
        "htap: every={propagate_every} budget={chunks_per_tick}, 64 rounds, \
         {dml_calls} dml calls, {} live rows, killed {}, crashes [{}] + 1 \
         in-tick, stats runs={} tail={} kept={} rewritten={} recovered={}",
        model.len(),
        victim.expect("round 31 always kills"),
        crash_log.join(", "),
        ps.propagation_runs,
        ps.tail_appends,
        ps.chunks_kept,
        ps.chunks_rewritten,
        ps.crashes_recovered
    ));
    Ok(())
}

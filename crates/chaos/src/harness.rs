//! The chaos schedule: one seed → one reproducible fault campaign.
//!
//! [`run_schedule`] builds a small TPC-H cluster and runs the rows of
//! [`PHASES`] in table order. A row names a phase, states the invariant it
//! checks and drives it with its own [`SplitMix64`], derived from
//! `(seed, row position)`, over one set of set-up and oracle helpers.
//!
//! Phases run selectively via `CHAOS_PHASES` (comma-separated names from
//! [`ALL_PHASES`], default all) so CI can split a schedule across parallel
//! jobs; per-phase RNGs keep each enabled phase's schedule identical
//! regardless of which other phases run. Every decision the harness itself
//! makes (cluster size, query choice, fault rates, txn script order, victim
//! node) comes from the seed, and every injected fault comes from
//! set-deterministic hooks, so the resulting [`ScheduleReport`] — steps,
//! per-site fired counters, and the master-epoch history — is identical
//! run-to-run. A failure names the seed and the phase; rerun just that
//! schedule with `CHAOS_SEED=<seed>`, and just that phase with
//! `CHAOS_PHASES=<phase>`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vectorh::{ClusterConfig, Expr, TableBuilder, VectorH};
use vectorh_common::fault::{
    DirectedFault, DirectedSet, FaultAction, FaultHook, FaultSite, SharedFaultHook,
};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{DataType, NodeId, PartitionId, Result, Value, VhError};
use vectorh_server::{AdmissionConfig, Client, Server, ServerConfig};
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};
use vectorh_tpch::gen::TpchData;
use vectorh_tpch::sql_text;
use vectorh_tpch::sql_texts::{frontdoor_mix_texts, FRONTDOOR_MIX};
use vectorh_transport::{Fabric, RxKind, SharedEpoch, TcpFabric};
use vectorh_txn::manager::{TransactionManager, TxnConfig};
use vectorh_txn::twophase::{Outcome, ShipRetention, TwoPhaseCoordinator};
use vectorh_txn::wal::{LogRecord, Wal};

use crate::plan::{site_index, FaultPlan, N_SITES};

/// Fail the phase unless `cond` holds. The message says what broke; the
/// runner adds the seed and the phase.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(VhError::Internal(format!($($msg)+)));
        }
    };
}

/// Seeds per default corpus (CI runs all of them).
pub const DEFAULT_CORPUS_LEN: usize = 16;

/// The crash points a WAL-backed step can be cut at.
const CRASHES: [FaultAction; 3] = [
    FaultAction::CrashBefore,
    FaultAction::CrashMid,
    FaultAction::CrashAfter,
];

/// What a phase is handed: the shared cluster, its row-store baseline, the
/// phase's own RNG and the schedule's report, in that order.
struct Ctx<'a>(
    &'a Arc<VectorH>,
    &'a BaselineDb,
    &'a mut SplitMix64,
    &'a mut ScheduleReport,
);

/// One row of the schedule.
pub struct Phase {
    /// What `CHAOS_PHASES` selects it by.
    pub name: &'static str,
    /// The invariant it checks, in one sentence.
    pub checks: &'static str,
    run: fn(Ctx) -> Result<()>,
}

/// The schedule, in execution order. A row's position is its RNG stream
/// (`phase_rng(seed, position + 1)`), so a new phase is appended: a row
/// inserted in the middle would change every later phase's schedule.
pub const PHASES: [Phase; 8] = [
    Phase {
        name: "io",
        checks: "TPC-H answers under HDFS and exchange faults equal the baseline",
        run: phase_faulty_io,
    },
    Phase {
        name: "txn",
        checks: "acked commits survive WAL and 2PC crashes; in-doubt ones follow the global WAL",
        run: phase_txn_crashes,
    },
    Phase {
        name: "kill",
        checks: "a mid-query worker kill keeps the answer right and scans local (§3–4)",
        run: phase_kill_node,
    },
    Phase {
        name: "rejoin",
        checks: "a responsible node dead mid-commit is detected, taken over and rejoined (§6)",
        run: phase_rejoin,
    },
    Phase {
        name: "master",
        checks: "a master dead mid-2PC is replaced once, fenced, and bootstraps back (§6)",
        run: phase_master_kill,
    },
    Phase {
        name: "transport",
        checks: "TCP frames arrive once and in order through faults; stale epochs are fenced",
        run: phase_transport,
    },
    Phase {
        name: "frontdoor",
        checks: "4–6 wire clients get right answers, no error and no refusal as a worker dies",
        run: phase_frontdoor,
    },
    Phase {
        name: "htap",
        checks: "propagation under a DML soak and its crashes matches an exact model (§6)",
        run: phase_htap,
    },
];

/// Phase names, in execution order: the names of [`PHASES`].
/// `CHAOS_PHASES` selects a subset.
pub const ALL_PHASES: [&str; PHASES.len()] = {
    let mut names = [""; PHASES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PHASES[i].name;
        i += 1;
    }
    names
};

/// Phases enabled by the environment: `CHAOS_PHASES=io,txn` runs just
/// those two (CI splits the corpus this way); unset runs all of them.
pub fn enabled_phases() -> Vec<&'static str> {
    phases_from(std::env::var("CHAOS_PHASES").ok().as_deref())
}

/// Testable core of [`enabled_phases`]. A value that names an unknown
/// phase, or no phase at all, is refused: a run that tests nothing must
/// not pass.
pub fn phases_from(env: Option<&str>) -> Vec<&'static str> {
    let Some(s) = env else {
        return ALL_PHASES.to_vec();
    };
    let req: Vec<&str> = s
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    for r in &req {
        assert!(
            ALL_PHASES.contains(r),
            "CHAOS_PHASES names unknown phase {r:?} (known: {ALL_PHASES:?})"
        );
    }
    assert!(
        !req.is_empty(),
        "CHAOS_PHASES={s:?} names no phase (known: {ALL_PHASES:?})"
    );
    ALL_PHASES
        .iter()
        .copied()
        .filter(|p| req.contains(p))
        .collect()
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
/// the cluster failed to come up); the message names the seed and phase.
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
    let nodes = 4 + rng.next_bounded(2) as usize;
    let (vh, data) = tpch_cluster(
        ClusterConfig {
            nodes,
            rows_per_chunk: 256,
            // Bounded ship-log retention, fixed (not from the environment)
            // so the `master` phase's horizon storm is seed-deterministic.
            ship_retention: ShipRetention {
                max_bytes: None,
                max_records: Some(8),
            },
            ..Default::default()
        },
        0.001,
    )?;
    // Arc because the front-door phase hands the engine to a wire server.
    let vh = Arc::new(vh);
    let db = BaselineDb::load(&data)?;
    report
        .steps
        .push(format!("cluster: {nodes} nodes, 4 partitions, sf 0.001"));

    for (i, phase) in PHASES.iter().enumerate() {
        if phases.contains(&phase.name) {
            let rng = &mut phase_rng(seed, i as u64 + 1);
            (phase.run)(Ctx(&vh, &db, rng, &mut report)).map_err(|e| {
                let at = format!("chaos seed {seed:#x}, phase {}", phase.name);
                VhError::from_code(e.code(), format!("{at}: {}", e.message()))
            })?;
        }
    }
    report.epochs = vh.master_history();
    Ok(report)
}

/// Start a cluster of the harness's shape — 32 KiB blocks, two streams a
/// node, replication 3 so a node kill is survivable — and load TPC-H at
/// `sf` into it, 4 partitions. The generator parameters are fixed, so
/// clusters at one `sf` hold the same data and one baseline answers them
/// all.
pub fn tpch_cluster(config: ClusterConfig, sf: f64) -> Result<(VectorH, TpchData)> {
    let vh = VectorH::start(ClusterConfig {
        hdfs_block_size: 32 * 1024,
        streams_per_node: 2,
        replication: 3,
        ..config
    })?;
    let data = vectorh_tpch::schema::setup(&vh, sf, 4, 20260807)?;
    Ok((vh, data))
}

/// A fault hook the harness installs, and what it fired, per site.
trait Counted: FaultHook + 'static {
    fn add_fired(&self, fired: &mut [u64; N_SITES]);
}

impl Counted for FaultPlan {
    fn add_fired(&self, fired: &mut [u64; N_SITES]) {
        for (total, n) in fired.iter_mut().zip(self.fired_counts()) {
            *total += n;
        }
    }
}

impl Counted for DirectedFault {
    fn add_fired(&self, fired: &mut [u64; N_SITES]) {
        fired[site_index(self.site())] += self.fired();
    }
}

/// Run `step` with `hook` installed on the cluster, uninstall it whatever
/// the step returns, and add what the hook fired to the report.
fn with_fault<H: Counted, T>(
    vh: &VectorH,
    report: &mut ScheduleReport,
    hook: &Arc<H>,
    step: impl FnOnce() -> T,
) -> T {
    vh.install_fault_hook(Some(hook.clone() as SharedFaultHook));
    let out = step();
    vh.install_fault_hook(None);
    hook.add_fired(&mut report.fired);
    out
}

/// A seed-chosen live worker other than `except` (the session master, when
/// drawing a victim).
fn draw_worker(vh: &VectorH, rng: &mut SplitMix64, except: NodeId) -> NodeId {
    let pool: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != except).collect();
    pool[rng.next_bounded(pool.len() as u64) as usize]
}

/// Rows `(k, k * mul + bump)` under consecutive keys `k`, and the model of
/// every row handed out (a phase that deletes or updates edits it too).
struct KeyedRows {
    next: i64,
    mul: i64,
    model: BTreeMap<i64, i64>,
}

impl KeyedRows {
    fn new(first: i64, mul: i64) -> KeyedRows {
        KeyedRows {
            next: first,
            mul,
            model: BTreeMap::new(),
        }
    }

    fn take(&mut self, n: u64, bump: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|_| {
                let k = self.next;
                self.next += 1;
                let v = k * self.mul + bump;
                self.model.insert(k, v);
                vec![Value::I64(k), Value::I64(v)]
            })
            .collect()
    }
}

/// Two `(id, v)` side tables whose contents a phase models exactly:
/// `{name}_part`, hash-partitioned `parts` ways and clustered on `id`, and
/// `{name}_repl`, replicated.
fn side_tables(vh: &VectorH, name: &str, parts: usize) -> Result<()> {
    vh.create_table(
        TableBuilder::new(format!("{name}_part"))
            .column("id", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["id"], parts)
            .clustered_by(&["id"]),
    )?;
    vh.create_table(
        TableBuilder::new(format!("{name}_repl"))
            .column("id", DataType::I64)
            .column("v", DataType::I64),
    )
}

/// The row-store baseline's canonical answer to `sql`.
pub fn baseline_rows(vh: &VectorH, db: &BaselineDb, sql: &str) -> Result<Vec<Vec<Value>>> {
    Ok(canonical(db.run(&vh.parse(sql)?, BaselineKind::RowStore)?))
}

/// Run query `qn` on the engine and compare against the row-store
/// baseline; returns the row count.
fn checked_query(vh: &VectorH, db: &BaselineDb, qn: usize, ctx: &str) -> Result<usize> {
    let sql = sql_text(qn).expect("a TPC-H query number");
    let got = canonical(vh.query(sql)?);
    let want = baseline_rows(vh, db, sql)?;
    ensure!(
        got == want,
        "Q{qn} diverged from row-store baseline {ctx} ({} vs {} rows)",
        got.len(),
        want.len()
    );
    Ok(got.len())
}

/// The locality oracle (§3–4): Q6 answers as the baseline does and reads
/// no byte remotely. Returns the bytes it read locally.
pub fn q6_is_local(vh: &VectorH, db: &BaselineDb, ctx: &str) -> Result<u64> {
    let before = vh.fs().stats().snapshot();
    checked_query(vh, db, 6, ctx)?;
    let delta = vh.fs().stats().snapshot().since(&before);
    ensure!(
        delta.remote_read_bytes == 0,
        "locality not restored {ctx} — {} remote bytes read",
        delta.remote_read_bytes
    );
    Ok(delta.local_read_bytes)
}

/// The replica oracle: `node`'s copy of the replicated `table` holds what
/// its primary holds.
fn replica_matches(vh: &VectorH, node: NodeId, table: &str, ctx: &str) -> Result<()> {
    let copy = vh.replica_rows(node, vh.table(table)?.pids[0])?;
    let primary = vh.table_rows(table)?;
    ensure!(
        copy == primary,
        "{node} replica has {copy} rows {ctx}, primary has {primary}"
    );
    Ok(())
}

/// The exactly-once oracle: the transactions the global decisions commit
/// across `table`'s partition WALs number within `expect`, and the table
/// shows 2 rows for each — nothing lost, torn or applied twice.
fn exactly_once(vh: &VectorH, table: &str, expect: impl RangeBounds<u64> + Debug) -> Result<u64> {
    let mut committed = BTreeSet::new();
    for wal in &vh.table(table)?.wals {
        for v in vh.coordinator.recoverable_txns(wal)? {
            if v.resolution.is_committed() {
                committed.insert(v.txn);
            }
        }
    }
    let c = committed.len() as u64;
    ensure!(
        expect.contains(&c),
        "{c} txns of {table} committed, expected {expect:?} — one lost or applied twice"
    );
    let visible = vh.table_rows(table)?;
    ensure!(
        visible == 2 * c,
        "{table} shows {visible} rows, expected {} (2 per committed txn)",
        2 * c
    );
    Ok(c)
}

/// The mid-query kill watcher: run `sql` while a watcher thread kills
/// `victim` once `after_bytes` more bytes have been read. A query too short
/// to get that far has `victim` killed after it. Returns the canonical
/// answer; a query that errors instead of failing over is `Err`.
pub fn query_across_kill(
    vh: &VectorH,
    victim: NodeId,
    sql: &str,
    after_bytes: u64,
) -> Result<Vec<Vec<Value>>> {
    let threshold = vh.fs().stats().snapshot().read_bytes() + after_bytes;
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
    if !killed_mid {
        // Tiny queries can finish before the watcher crosses the read
        // threshold; the failover invariants still apply.
        vh.kill_node(victim)?;
    }
    Ok(got)
}

/// Queries under a rate-based I/O + exchange fault plan. Its palettes are
/// chosen so queries must still *succeed*: HDFS errors are transient
/// (cleared by the engine's bounded retry), slow reads only add simulated
/// latency, and exchange drop/duplicate/delay are absorbed by the
/// reliable-transport semantics (retransmit, receiver dedup, bounded
/// reorder).
fn phase_faulty_io(Ctx(vh, db, rng, report): Ctx) -> Result<()> {
    let plan = Arc::new(
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
    let mut pool = vec![1usize, 3, 5, 6, 10, 12, 14, 19];
    rng.shuffle(&mut pool);
    let steps = with_fault(vh, report, &plan, || {
        pool[..3]
            .iter()
            .map(|&qn| {
                let rows = checked_query(vh, db, qn, "under the I/O fault plan")?;
                Ok(format!("faulty-io Q{qn}: {rows} rows ok"))
            })
            .collect::<Result<Vec<_>>>()
    })?;
    report.steps.extend(steps);
    Ok(())
}

/// Distributed commits under scripted crash faults, then a simulated
/// restart whose recovery must agree with the acknowledged outcomes.
fn phase_txn_crashes(Ctx(vh, _, rng, report): Ctx) -> Result<()> {
    let fs = vh.fs().clone();
    let dir = format!("/chaos/{:016x}", report.seed);
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
                    values: vec![Value::I64(txn_id as i64)],
                },
            ]
        };
        let (ra, rb) = (recs(0), recs(1));
        let commit = || coord.commit_distributed(txn_id, &[(pa, &wa, &ra), (pb, &wb, &rb)]);
        // A clean transaction runs with no hook, as between any two scopes.
        let (out, label) = match *fault {
            Some((site, action)) => {
                let hook = DirectedFault::new(site, action, 1);
                let out = with_fault(vh, report, &hook, commit);
                (out, format!("{site}/{action:?}"))
            }
            None => (commit(), "clean".to_string()),
        };
        match out {
            Ok(Outcome::Committed) => acked.push(txn_id),
            _ => unresolved.push(txn_id),
        }
        let outcome = match out {
            Ok(Outcome::Committed) => "committed".to_string(),
            Ok(Outcome::InDoubt) => "in doubt".to_string(),
            Err(e) => {
                // The "crashed" coordinator restarts through the engine's
                // recovery entry point: each partition WAL's torn tail is
                // repaired, in-doubt transactions resolve against the
                // global WAL, and exactly the committed state is
                // reinstalled before the logs are appended to again.
                coord.global_wal().repair()?;
                for (pid, wal) in [(pa, &wa), (pb, &wb)] {
                    vectorh::recovery::recover_partition(&coord, &mgr, pid, 0, wal)?;
                }
                format!("crashed ({e})")
            }
        };
        report
            .steps
            .push(format!("txn{txn_id} [{label}]: {outcome}"));
    }

    // Simulated restart. The first recovery read itself suffers a
    // transient fault, which the WAL's retry loop must absorb.
    let replay_fault = DirectedFault::new(FaultSite::WalReplay, FaultAction::TransientError, 1);
    let committed_a = with_fault(vh, report, &replay_fault, || coord.committed_txns_of(&wa))?;
    let committed_b = coord.committed_txns_of(&wb)?;

    ensure!(
        committed_a == committed_b,
        "2PC atomicity violated — participants recover different commit sets \
         ({committed_a:?} vs {committed_b:?})"
    );
    for txn in &acked {
        ensure!(
            committed_a.contains(txn),
            "acknowledged txn{txn} lost across recovery"
        );
    }
    for txn in &unresolved {
        // In-doubt resolution must follow the global WAL's decision.
        ensure!(
            committed_a.contains(txn) == coord.recover_decision(*txn)?,
            "in-doubt txn{txn} resolved against the global decision"
        );
    }

    // Final restart through the engine recovery path: each participant's
    // recovered commit set must match the log scan above, and exactly one
    // row per committed txn becomes visible — nothing from uncommitted
    // ones.
    let scanned: BTreeSet<u64> = committed_a.iter().copied().collect();
    for (pid, wal) in [(pa, &wa), (pb, &wb)] {
        let rep = vectorh::recovery::recover_partition(&coord, &mgr, pid, 0, wal)?;
        let recovered: BTreeSet<u64> = rep.committed.iter().copied().collect();
        ensure!(
            recovered == scanned,
            "recovery of {pid} resolved {recovered:?} as committed, log scan says {committed_a:?}"
        );
        let visible = mgr.visible_rows(pid)?;
        ensure!(
            visible == committed_a.len() as u64,
            "recovery of {pid} shows {visible} rows, expected {} (one per committed txn)",
            committed_a.len()
        );
    }
    report.steps.push(format!(
        "recovery: {} committed of {} attempted, replay verified on both partitions",
        committed_a.len(),
        script.len()
    ));
    Ok(())
}

/// A worker dies mid-query; failover re-plans on the survivors.
fn phase_kill_node(Ctx(vh, db, rng, report): Ctx) -> Result<()> {
    let victim = draw_worker(vh, rng, vh.session_master());
    let qn = [3usize, 5, 10][rng.next_bounded(3) as usize];
    let sql = sql_text(qn).expect("a TPC-H query number");
    let want = baseline_rows(vh, db, sql)?;
    let got = query_across_kill(vh, victim, sql, 2048 + rng.next_bounded(16 * 1024))?;
    ensure!(
        got == want,
        "Q{qn} diverged from baseline across a mid-query node kill ({} vs {} rows)",
        got.len(),
        want.len()
    );
    ensure!(
        !vh.workers().contains(&victim),
        "{victim} still in the worker set after kill"
    );
    q6_is_local(vh, db, &format!("after killing {victim}"))?;
    report.steps.push(format!(
        "killed {victim} during Q{qn}; post-failure Q6 fully local"
    ));
    Ok(())
}

/// Detection is driven by hand, one health tick at a time, with one beat
/// dropped in flight.
fn phase_rejoin(Ctx(vh, db, rng, report): Ctx) -> Result<()> {
    // Fresh side tables so the expected contents are exactly modelled: a
    // single-partition table whose responsibility will move across the
    // crash, and a replicated table for shipped-log catch-up.
    side_tables(vh, "rejoin", 1)?;
    let pid = vh.table("rejoin_part")?.pids[0];
    let mut rows = KeyedRows::new(0, 7);

    // Three acknowledged commits — these must survive the takeover.
    for _ in 0..3 {
        vh.trickle_insert("rejoin_part", rows.take(2, 0))?;
    }

    // The responsible node crashes mid-commit: a budget-1 WAL-append crash
    // at a seed-chosen point tears the 4th transaction, and the process
    // dies without the engine noticing — detection is the heartbeat
    // monitor's job, not ours.
    let victim = vh.responsible(pid);
    let crash = CRASHES[rng.next_bounded(3) as usize];
    let fault = DirectedFault::new(FaultSite::WalAppend, crash, 1);
    let out = with_fault(vh, report, &fault, || {
        vh.trickle_insert("rejoin_part", rows.take(2, 0))
    });
    let acked = 3 + u64::from(out.is_ok());
    vh.fs().kill_node(victim)?;
    vh.rm().node_lost(victim);

    // Heartbeat detection, with one live node's beat dropped along the way
    // — a drop may only delay detection, never false-kill a healthy node.
    let hb = DirectedFault::new(FaultSite::Heartbeat, FaultAction::Drop, 1);
    let detected_at = with_fault(vh, report, &hb, || -> Result<u64> {
        for tick in 1..=8u64 {
            if vh.health_tick()?.contains(&victim) {
                return Ok(tick);
            }
        }
        Ok(0)
    })?;
    ensure!(
        detected_at != 0,
        "heartbeat monitor never declared {victim} dead"
    );
    ensure!(
        !vh.workers().contains(&victim),
        "{victim} still in the worker set after detection"
    );

    // Takeover ran inside the detection tick. The recovered partition must
    // hold exactly the resolved transactions: every acknowledged one, plus
    // a crash survivor only if its commit record is durable — and no
    // uncommitted record ever becomes visible (each txn wrote 2 rows, so
    // any torn partial state would break the 2×C row count).
    let committed = exactly_once(vh, "rejoin_part", acked..)?;

    // While the victim is down, replicated-table commits pile up in the
    // shipped log.
    vh.trickle_insert("rejoin_repl", rows.take(2, 0))?;
    vh.trickle_insert("rejoin_repl", rows.take(2, 0))?;

    // Rejoin: the worker set, the victim's replica state and full scan
    // locality all converge back.
    vh.rejoin_node(victim)?;
    ensure!(
        vh.workers().contains(&victim),
        "{victim} not re-admitted by rejoin"
    );
    replica_matches(vh, victim, "rejoin_repl", "after rejoin catch-up")?;
    // A post-rejoin commit must reach the rejoined replica live.
    vh.trickle_insert("rejoin_repl", rows.take(2, 0))?;
    replica_matches(vh, victim, "rejoin_repl", "after a post-rejoin commit")?;
    q6_is_local(vh, db, &format!("after rejoining {victim}"))?;
    report.steps.push(format!(
        "rejoin: crashed {victim} mid-commit [{crash:?}], detected at tick \
         {detected_at}, {committed}/4 txns recovered, replica caught up, \
         post-rejoin Q6 fully local"
    ));
    Ok(())
}

/// Unlike `rejoin`, nothing drives detection by hand: ordinary query
/// traffic advances the background health plane, which declares the master
/// dead, elects the lowest live NodeId under a bumped epoch and resolves
/// the in-doubt transaction. A replicated-table commit storm then pushes
/// the bounded ship log past its truncation horizon before the old master
/// rejoins.
fn phase_master_kill(Ctx(vh, db, rng, report): Ctx) -> Result<()> {
    side_tables(vh, "master", 2)?;
    let rpid = vh.table("master_repl")?.pids[0];
    let mut rows = KeyedRows::new(1000, 3);

    // Two acknowledged commits — the baseline that must survive everything.
    for _ in 0..2 {
        vh.trickle_insert("master_part", rows.take(2, 0))?;
    }
    let master0 = vh.session_master();
    let epoch0 = vh.master_epoch();

    // The master dies at the 2PC commit point: a budget-1 crash at the
    // decide site at a seed-chosen moment — before the decision (presumed
    // abort) or after it became durable (commit survives the master).
    let crash = [FaultAction::CrashBefore, FaultAction::CrashAfter][rng.next_bounded(2) as usize];
    let fault = DirectedFault::new(FaultSite::TwoPhaseDecide, crash, 1);
    let out = with_fault(vh, report, &fault, || {
        vh.trickle_insert("master_part", rows.take(2, 0))
    });
    let acked = 2 + u64::from(out.is_ok());
    vh.fs().kill_node(master0)?;
    vh.rm().node_lost(master0);

    // Detection, election, takeover and in-doubt resolution all run from
    // inside ordinary traffic: just keep querying. One surviving node's
    // heartbeat is dropped along the way — it may delay detection, never
    // false-kill the survivor.
    let lucky = draw_worker(vh, rng, master0);
    let hb = DirectedFault::matching(
        FaultSite::Heartbeat,
        FaultAction::Drop,
        1,
        &format!("{lucky}@"),
    );
    let mut queries = 0u64;
    with_fault(vh, report, &hb, || -> Result<()> {
        while vh.workers().contains(&master0) {
            queries += 1;
            ensure!(
                queries <= 12,
                "background health plane never removed the dead master {master0}"
            );
            checked_query(vh, db, 6, "while the dead master goes undetected")?;
        }
        Ok(())
    })?;
    ensure!(
        vh.workers().contains(&lucky),
        "{lucky} false-killed over one dropped heartbeat"
    );

    // Election: lowest live NodeId, epoch bumped exactly once, durably
    // logged in the global WAL.
    let master1 = vh.session_master();
    let epoch1 = vh.master_epoch();
    ensure!(
        master1 == vh.workers()[0] && master1 != master0,
        "elected {master1}, expected lowest live node {}",
        vh.workers()[0]
    );
    ensure!(
        epoch1 == epoch0 + 1,
        "epoch went {epoch0} -> {epoch1}, expected exactly one bump"
    );
    let logged = vh.coordinator.global_wal().read_all()?.iter().any(
        |r| matches!(r, LogRecord::MasterEpoch { epoch, node } if *epoch == epoch1 && *node == master1.0 as u64),
    );
    ensure!(
        logged,
        "election (epoch {epoch1}, {master1}) not logged in the global WAL"
    );
    // Fencing: the deposed master's epoch must be rejected at the commit
    // point with the typed error.
    let fenced = vh.coordinator.check_epoch(epoch0);
    ensure!(
        matches!(fenced, Err(VhError::StaleMaster(_))),
        "stale epoch {epoch0} not fenced (got {fenced:?})"
    );

    // Exactly-once: across both partition WALs, every acknowledged
    // transaction is committed, the in-doubt one resolved exactly one way,
    // and the visible image holds 2 rows per committed transaction — no
    // loss, no duplicates.
    let c = exactly_once(vh, "master_part", acked..=acked + 1)?;
    // Liveness under the new master: a fresh commit at the new epoch.
    vh.trickle_insert("master_part", rows.take(2, 0))?;
    ensure!(
        vh.table_rows("master_part")? == 2 * (c + 1),
        "post-election commit not visible"
    );

    // Replicated commit storm past the retention horizon (max_records = 8,
    // 3 records per commit): the old master's watermark is now unreachable
    // from the retained log.
    for _ in 0..3 {
        vh.trickle_insert("master_repl", rows.take(2, 0))?;
    }
    ensure!(
        vh.shipper.horizon(rpid) != 0,
        "ship-log horizon never advanced under bounded retention"
    );
    ensure!(
        vh.shipper.reclaimed_bytes() != 0,
        "retention truncated nothing"
    );

    // The old master rejoins behind the horizon: full-image bootstrap must
    // converge its replica, and the master role must NOT fail back.
    vh.rejoin_node(master0)?;
    replica_matches(vh, master0, "master_repl", "after the bootstrap")?;
    vh.trickle_insert("master_repl", rows.take(2, 0))?;
    replica_matches(vh, master0, "master_repl", "after a live commit")?;
    ensure!(
        vh.session_master() == master1 && vh.master_epoch() == epoch1,
        "master role failed back to {} after rejoin",
        vh.session_master()
    );
    report.steps.push(format!(
        "master: killed {master0} mid-2PC [{crash:?}], detected after \
         {queries} queries, elected {master1} at epoch {epoch1}, \
         {c}/{} txns exactly-once, stale epoch fenced, horizon bootstrap \
         converged {master0}",
        acked + 1
    ));
    Ok(())
}

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
fn phase_transport(Ctx(_, _, rng, report): Ctx) -> Result<()> {
    let disconnects = 1 + rng.next_bounded(3);
    let partials = 1 + rng.next_bounded(3);
    // Strictly fewer refusals than the dial loop's retry budget, so the
    // connection always comes up after backing off.
    let refusals = 1 + rng.next_bounded(2);
    let n = 96 + rng.next_bounded(160);
    let window = 4 + rng.next_bounded(12) as u32;

    let faults = [
        (FaultSite::Disconnect, disconnects),
        (FaultSite::PartialFrame, partials),
        (FaultSite::ConnRefused, refusals),
    ]
    .map(|(site, budget)| DirectedFault::new(site, FaultAction::TransientError, budget));
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
                        "transport frame payload was torn ({} bytes reached the application)",
                        item.payload.len()
                    ))
                })?;
                got.push(u64::from_le_bytes(bytes));
            }
            None => break,
        }
    }
    sender
        .join()
        .map_err(|_| VhError::Internal("transport sender panicked".into()))??;

    let want: Vec<u64> = (0..n).collect();
    ensure!(
        got == want,
        "transport delivered {} of {n} frames (loss, duplication or reorder survived \
         the reliable stream)",
        got.len()
    );
    // Every scripted fault must have fired its full budget: the burst is
    // far larger than any budget, so anything unspent means the fabric
    // never consulted that site.
    for (f, budget) in faults.iter().zip([disconnects, partials, refusals]) {
        ensure!(
            f.fired() == budget,
            "{} fired {} of {budget} scripted faults",
            f.site(),
            f.fired()
        );
        f.add_fired(&mut report.fired);
    }

    // An election bumps the cluster epoch; a peer that redials still
    // announcing the old epoch is exactly the zombie the handshake fences.
    epoch.set(2);
    let stale = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(1)));
    let mut stale_tx = stale.sender(NodeId(1), ch)?;
    let fenced = stale_tx.send(b"stale epoch write");
    ensure!(
        matches!(fenced, Err(VhError::StaleMaster(_))),
        "stale-epoch dialer was not fenced after the election (got {fenced:?})"
    );
    // A current-epoch peer still gets through (fresh stream: one live
    // sender per (from, to, channel)).
    let ch2 = fabric.alloc_channel();
    let mut rx2 = fabric.endpoint(NodeId(1))?.bind(ch2, 4)?;
    let fresh = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(2)));
    let mut fresh_tx = fresh.sender(NodeId(1), ch2)?;
    fresh_tx.send(b"post-election")?;
    let first = rx2.recv()?;
    ensure!(
        first.is_some_and(|f| f.payload == b"post-election"),
        "post-election frame lost or corrupted"
    );

    report.steps.push(format!(
        "transport: {n} frames exactly-once over tcp (window {window}) \
         through {disconnects} disconnects, {partials} torn frames, \
         {refusals} refused dials; stale-epoch redial fenced at epoch 2"
    ));
    Ok(())
}

/// A [`Server`] fronts the engine; a seed-sized pack of closed-loop TCP
/// clients runs the Q1/Q6/Q12 mix. Once every client is warm (has at least
/// one completed query), a seed-chosen non-master worker is killed.
/// Invariants: **zero client-visible failures** (every in-flight casualty
/// is absorbed by `query_logical`'s pinned-budget retry loop), every
/// answer baseline-correct, every query served exactly once per the
/// engine's own [`server_stats`](VectorH::server_stats) probe, and zero
/// admission rejections — the gate is sized so a closed-loop pack can
/// never be refused, which keeps the report timing-independent.
fn phase_frontdoor(Ctx(vh, db, rng, report): Ctx) -> Result<()> {
    let n_clients = 4 + rng.next_bounded(3) as usize;
    let per_client = 3usize;
    let victim = draw_worker(vh, rng, vh.session_master());

    let server = Server::start(
        vh.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig {
                max_concurrent: 16,
                max_queue: 32,
                queue_timeout_ms: 30_000,
                per_session_inflight: 4,
                seed: report.seed,
            },
            batch_rows: 512,
        },
    )?;
    let before = vh.server_stats().totals();

    let texts = frontdoor_mix_texts();
    let baselines = texts
        .iter()
        .map(|sql| baseline_rows(vh, db, sql))
        .collect::<Result<Vec<_>>>()?;
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
    ensure!(
        failures.is_empty(),
        "front door leaked failures to clients: {}",
        failures.join("; ")
    );
    ensure!(
        !vh.workers().contains(&victim),
        "{victim} still in the worker set after kill"
    );

    let totals = vh.server_stats().totals();
    let served = totals.queries_served - before.queries_served;
    let rejected = totals.rejected_busy - before.rejected_busy;
    let want = (n_clients * per_client) as u64;
    ensure!(
        served == want,
        "server_stats counted {served} served, clients completed {want}"
    );
    ensure!(
        rejected == 0,
        "admission refused {rejected} queries from a closed-loop pack the gate is sized for"
    );
    drop(server);
    report.steps.push(format!(
        "frontdoor: killed {victim} under {n_clients} streaming clients \
         (q1/q6/q12 × {per_client}); {want}/{want} served over the wire, \
         zero client-visible failures"
    ));
    Ok(())
}

/// Crashes are injected at the propagation WAL protocol's own fault sites.
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
fn phase_htap(Ctx(_, db, rng, report): Ctx) -> Result<()> {
    let propagate_every = 2 + rng.next_bounded(3); // a tick every 2–4 DML/query calls
    let chunks_per_tick = 2 + rng.next_bounded(3) as usize;
    // At the shared cluster's scale factor, so the shared row-store
    // baseline answers this cluster's TPC-H probes too.
    let (vh, _) = tpch_cluster(
        ClusterConfig {
            nodes: 4,
            rows_per_chunk: 64,
            propagate_every,
            propagate_chunks_per_tick: chunks_per_tick,
            ..Default::default()
        },
        0.001,
    )?;
    vh.create_table(
        TableBuilder::new("htap_t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], 2),
    )?;

    // Seed a propagated stable image (96 rows ≈ 1½ chunks per partition):
    // the fraction-based propagation trigger needs stable rows to compare
    // against, and the crash injections need stable chunks to dirty.
    let mut rows = KeyedRows::new(0, 7);
    vh.trickle_insert("htap_t", rows.take(96, 0))?;
    vh.propagate_table("htap_t", true)?;

    let reconcile = |ctx: &str, model: &BTreeMap<i64, i64>| -> Result<Vec<Vec<Value>>> {
        let got = canonical(vh.query("SELECT k, v FROM htap_t")?);
        let want = canonical(
            model
                .iter()
                .map(|(k, v)| vec![Value::I64(*k), Value::I64(*v)])
                .collect(),
        );
        ensure!(
            got == want,
            "htap_t diverged from the model {ctx} ({} vs {} rows)",
            got.len(),
            want.len()
        );
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
    // Add `delta` to key `k`'s value, on the engine and in the model.
    let bump = |rows: &mut KeyedRows, k: i64, delta: i64| -> Result<()> {
        let v = rows.model[&k] + delta;
        let key_eq = Expr::InList(Box::new(Expr::Col(0)), vec![Value::I64(k)]);
        let n = vh.update_where("htap_t", &key_eq, 1, Value::I64(v))?;
        ensure!(n == 1, "update of key {k} touched {n} rows");
        rows.model.insert(k, v);
        Ok(())
    };

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
    let mut crash_log: Vec<String> = Vec::new();
    let mut inject =
        |rows: &mut KeyedRows, rng: &mut SplitMix64, report: &mut ScheduleReport| -> Result<()> {
            let probe = *rows.model.keys().next().expect("model never empties");
            bump(rows, probe, 1)?;
            let step = CRASH_STEPS[rng.next_bounded(CRASH_STEPS.len() as u64) as usize];
            let kind = CRASHES[rng.next_bounded(CRASHES.len() as u64) as usize];
            let fault = DirectedFault::matching(FaultSite::Propagation, kind, 1, step);
            let out = with_fault(&vh, report, &fault, || vh.propagate_table("htap_t", true));
            ensure!(
                fault.fired() == 1,
                "propagation never reached crash point {step} (fired {})",
                fault.fired()
            );
            ensure!(
                out.is_err(),
                "crash at {step} [{kind:?}] did not surface from propagate_table"
            );
            // Nothing acknowledged may be lost, whether the crash landed before
            // or after the commit point — and a clean retry must go through.
            reconcile(&format!("after a propagation crash at {step}"), &rows.model)?;
            vh.propagate_table("htap_t", true)?;
            reconcile(
                &format!("after retrying past the {step} crash"),
                &rows.model,
            )?;
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
                vh.trickle_insert("htap_t", rows.take(n, round as i64))?;
                dml_calls += 1;
            }
            5 => {
                let keys: BTreeSet<i64> =
                    (0..3).filter_map(|_| upper_key(&rows.model, rng)).collect();
                if !keys.is_empty() {
                    let vals: Vec<Value> = keys.iter().map(|k| Value::I64(*k)).collect();
                    let deleted = vh.delete_by_keys("htap_t", 0, &vals)?;
                    ensure!(
                        deleted == keys.len() as u64,
                        "deleted {deleted} of {} keys in round {round}",
                        keys.len()
                    );
                    for k in keys {
                        rows.model.remove(&k);
                    }
                    dml_calls += 1;
                }
            }
            6 => {
                if let Some(k) = upper_key(&rows.model, rng) {
                    bump(&mut rows, k, 13)?;
                    dml_calls += 1;
                }
            }
            _ => {
                let qn = [1usize, 6, 12][rng.next_bounded(3) as usize];
                checked_query(&vh, db, qn, &format!("in htap round {round}"))?;
            }
        }
        if round % 16 == 7 {
            reconcile(&format!("at the round-{round} checkpoint"), &rows.model)?;
        }
        if round == 20 || round == 44 {
            inject(&mut rows, rng, report)?;
        }
        if round == 31 {
            // Mid-soak node kill: takeover must keep both the OLTP and the
            // propagation machinery working on the survivors.
            let v = draw_worker(&vh, rng, vh.session_master());
            vh.kill_node(v)?;
            victim = Some(v);
            reconcile("after the mid-soak node kill", &rows.model)?;
        }
    }

    // A propagation crash fired from *inside* the background tick: the DML
    // call that advanced the clock must still succeed — the tick repairs
    // the partition in place instead of poisoning the foreground.
    let bg = DirectedFault::matching(FaultSite::Propagation, FaultAction::CrashMid, 1, "#");
    with_fault(&vh, report, &bg, || -> Result<()> {
        for _ in 0..48 {
            if bg.fired() > 0 {
                break;
            }
            vh.trickle_insert("htap_t", rows.take(4, 0))?;
            dml_calls += 1;
        }
        Ok(())
    })?;
    ensure!(
        bg.fired() == 1,
        "background propagation never ran into the armed crash (fired {})",
        bg.fired()
    );
    reconcile("after the background-tick crash self-repaired", &rows.model)?;

    // §6 byte-level invariants. Settle to a clean propagated image, freeze
    // every full chunk's bytes, then push tail-only inserts through another
    // propagation: the full chunks must be kept — same path, same bytes —
    // and a scan must be byte-stable across the image swap (the snapshot a
    // reader holds is never mutated, only superseded).
    vh.propagate_table("htap_t", true)?;
    let rt = vh.table("htap_t")?;
    // Every store's chunk paths; `full` leaves out each store's last chunk,
    // which absorbs appended rows when partial and is legitimately rewritten.
    let chunk_paths = |full: bool| {
        let mut paths = Vec::new();
        for s in &rt.stores {
            let s = s.read();
            let n = s.n_chunks().saturating_sub(usize::from(full));
            paths.extend((0..n).map(|c| s.chunk_meta(c).path.clone()));
        }
        paths
    };
    let frozen = chunk_paths(true)
        .into_iter()
        .map(|path| Ok((vh.fs().read(&path, 0, 1 << 24, None)?, path)))
        .collect::<Result<Vec<(Vec<u8>, String)>>>()?;
    ensure!(
        !frozen.is_empty(),
        "soak left no full chunks to freeze — workload too small to prove the keep path"
    );
    let before_stats = vh.propagation_stats().snapshot();
    vh.trickle_insert("htap_t", rows.take(8, 0))?;
    dml_calls += 1;
    let pre_swap = reconcile("before the tail-append propagation", &rows.model)?;
    vh.propagate_table("htap_t", true)?;
    let post_swap = reconcile("after the tail-append propagation", &rows.model)?;
    ensure!(
        pre_swap == post_swap,
        "scan not byte-stable across the propagation image swap"
    );
    for (bytes, path) in &frozen {
        let now = vh.fs().read(path, 0, 1 << 24, None)?;
        ensure!(
            &now == bytes,
            "kept chunk {path} changed on disk across a tail-append propagation"
        );
    }
    let live = chunk_paths(false);
    for (_, path) in &frozen {
        ensure!(
            live.contains(path),
            "full chunk {path} was rewritten instead of kept across a tail-append propagation"
        );
    }

    // Counter reconciliation: the background plane must have actually run,
    // tail appends are a subset of runs, the directed + retry cycles
    // rewrote chunks, and exactly the one background crash self-repaired.
    let ps = vh.propagation_stats().snapshot();
    ensure!(
        ps.propagation_runs != 0
            && ps.tail_appends <= ps.propagation_runs
            && ps.chunks_rewritten != 0
            && ps.crashes_recovered == 1,
        "propagation counters off: {ps:?}"
    );
    ensure!(
        ps.tail_appends > before_stats.tail_appends,
        "tail-only inserts did not take the append path ({} -> {})",
        before_stats.tail_appends,
        ps.tail_appends
    );
    report.steps.push(format!(
        "htap: every={propagate_every} budget={chunks_per_tick}, 64 rounds, \
         {dml_calls} dml calls, {} live rows, killed {}, crashes [{}] + 1 \
         in-tick, stats runs={} tail={} kept={} rewritten={} recovered={}",
        rows.model.len(),
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

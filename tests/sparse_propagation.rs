//! Propagation that folds only dense chunks and carries the rest.
//!
//! A run rewrites a chunk only once its pending deltas reach 1/64 of its
//! rows; the deltas of every other chunk stay pending and travel in the
//! run's `Checkpoint { stable_rows, carried }` record. The fixtures here use
//! 512-row chunks, so a chunk keeps up to seven deltas and folds at eight —
//! unlike the 64-row chunks of `tests/propagation.rs`, which fold on any.
//! Every case is held against a row-level model:
//!
//! * a seeded history of trickle inserts (interior and tail), deletes,
//!   updates and forced propagations, checked after every step;
//! * the seven propagation crash points on runs that carry deltas, each
//!   recovered by [`vectorh::recover_partition`];
//! * a replicated table whose replicas re-base on the carried deltas, then
//!   a node kill and `rejoin_node` under a small ship retention;
//! * `insert_rows` after a carrying run, then recovery, and `insert_rows`
//!   refused before it writes anything;
//! * sparse deltas over the PDT memory limit, folded by a background tick.

use std::collections::BTreeMap;

use vectorh::{ClusterConfig, Expr, TableBuilder, VectorH};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite, SharedFaultHook};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{ColumnData, DataType, NodeId, PartitionId, Value};
use vectorh_pdt::merge::apply_plan;
use vectorh_tpch::baseline::canonical;
use vectorh_txn::twophase::ShipRetention;
use vectorh_txn::{LogRecord, TxnConfig};

const CHUNK: usize = 512;

fn engine_with(f: impl FnOnce(&mut ClusterConfig)) -> VectorH {
    let mut cfg = ClusterConfig {
        nodes: 3,
        rows_per_chunk: CHUNK,
        ..Default::default()
    };
    f(&mut cfg);
    VectorH::start(cfg).unwrap()
}

fn table(name: &str, v: DataType) -> TableBuilder {
    TableBuilder::new(name)
        .column("k", DataType::I64)
        .column("v", v)
}

fn kv(k: i64, v: i64) -> Vec<Value> {
    vec![Value::I64(k), Value::I64(v)]
}

fn key_eq(k: i64) -> Expr {
    Expr::InList(Box::new(Expr::Col(0)), vec![Value::I64(k)])
}

/// The table's answer and row count must equal the model's.
fn check(vh: &VectorH, name: &str, model: &BTreeMap<i64, Value>, ctx: &str) {
    let got = canonical(vh.query(&format!("SELECT k, v FROM {name}")).unwrap());
    let want = canonical(
        model
            .iter()
            .map(|(k, v)| vec![Value::I64(*k), v.clone()])
            .collect(),
    );
    assert_eq!(got.len(), want.len(), "{name}: row count {ctx}");
    assert!(got == want, "{name} diverged from the model {ctx}");
    assert_eq!(
        vh.table_rows(name).unwrap(),
        model.len() as u64,
        "{name}: table_rows {ctx}"
    );
}

/// A partition's stable image, row by row.
fn stable_rows(vh: &VectorH, name: &str, part: usize) -> Vec<Vec<Value>> {
    let rt = vh.table(name).unwrap();
    let store = rt.stores[part].read();
    let mut cols: Vec<ColumnData> = Vec::new();
    for c in 0..store.n_chunks() {
        for (col, i) in [0, 1].into_iter().enumerate() {
            let data = store.read_column(c, i, None).unwrap();
            match cols.get_mut(col) {
                Some(have) => have.append(&data).unwrap(),
                None => cols.push(data),
            }
        }
    }
    let dtypes = [store.schema().dtype(0), store.schema().dtype(1)];
    let n = cols.first().map_or(0, |c| c.len());
    (0..n)
        .map(|r| {
            cols.iter()
                .zip(dtypes)
                .map(|(c, t)| c.value_at(r, t))
                .collect()
        })
        .collect()
}

/// The last checkpoint of a partition's WAL: (stable rows, carried).
fn last_checkpoint(vh: &VectorH, name: &str, part: usize) -> (u64, Vec<LogRecord>) {
    let r = vh.table(name).unwrap().wals[part].read_replay().unwrap();
    (r.stable_rows, r.carried)
}

/// How many checkpoints a partition's WAL holds.
fn checkpoints(vh: &VectorH, name: &str, part: usize) -> usize {
    let wal = &vh.table(name).unwrap().wals[part];
    let records = wal.read_all().unwrap();
    records
        .iter()
        .filter(|r| matches!(r, LogRecord::Checkpoint { .. }))
        .count()
}

/// The row count the carried records leave over `stable` rows.
fn covered(stable: u64, carried: &[LogRecord]) -> u64 {
    carried.iter().fold(stable, |n, r| match r {
        LogRecord::Insert { .. } => n + 1,
        LogRecord::Delete { .. } => n - 1,
        _ => n,
    })
}

#[test]
fn a_seeded_history_carries_sparse_chunks_and_matches_the_model() {
    let vh = engine_with(|_| {});
    vh.create_table(
        table("sp_hist", DataType::I64)
            .partition_by(&["k"], 2)
            .clustered_by(&["k"]),
    )
    .unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let rows: Vec<Vec<Value>> = (0..4096).map(|i| kv(i * 4, i)).collect();
    for r in &rows {
        model.insert(r[0].as_i64().unwrap(), r[1].clone());
    }
    vh.insert_rows("sp_hist", rows).unwrap();
    check(&vh, "sp_hist", &model, "after the load");

    let mut rng = SplitMix64::new(0x5ba2_5e00);
    let mut carried_runs = 0;
    let mut tail_key = 4 * 4096;
    for step in 0..120 {
        let ctx = format!("after step {step}");
        match rng.next_bounded(10) {
            // Interior inserts: odd keys between the loaded ones.
            0..=3 => {
                let rows: Vec<Vec<Value>> = (0..1 + rng.next_bounded(4))
                    .map(|_| 4 * rng.range_i64(0, 4096) + 1 + rng.range_i64(0, 3))
                    .filter(|k| !model.contains_key(k))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(|k| kv(k, -k))
                    .collect();
                for r in &rows {
                    model.insert(r[0].as_i64().unwrap(), r[1].clone());
                }
                vh.trickle_insert("sp_hist", rows).unwrap();
            }
            4 | 5 => {
                let keys: Vec<i64> = model.keys().copied().collect();
                let mut gone: Vec<Value> = Vec::new();
                for _ in 0..1 + rng.next_bounded(3) {
                    let k = keys[rng.next_bounded(keys.len() as u64) as usize];
                    if model.remove(&k).is_some() {
                        gone.push(Value::I64(k));
                    }
                }
                let n = vh.delete_by_keys("sp_hist", 0, &gone).unwrap();
                assert_eq!(n as usize, gone.len(), "{ctx}");
            }
            6 | 7 => {
                let keys: Vec<i64> = model.keys().copied().collect();
                let k = keys[rng.next_bounded(keys.len() as u64) as usize];
                let v = Value::I64(rng.range_i64(-1000, 1000));
                assert_eq!(
                    vh.update_where("sp_hist", &key_eq(k), 1, v.clone())
                        .unwrap(),
                    1,
                    "{ctx}"
                );
                model.insert(k, v);
            }
            8 => {
                let before: Vec<usize> = (0..2).map(|p| checkpoints(&vh, "sp_hist", p)).collect();
                vh.propagate_table("sp_hist", true).unwrap();
                for (part, before) in before.into_iter().enumerate() {
                    if checkpoints(&vh, "sp_hist", part) == before {
                        continue; // no chunk of this partition reached the rule
                    }
                    let (stable, carried) = last_checkpoint(&vh, "sp_hist", part);
                    let rt = vh.table("sp_hist").unwrap();
                    assert_eq!(stable, rt.stores[part].read().row_count(), "{ctx}");
                    let st = vh.txns.partition_state(rt.pids[part]).unwrap();
                    assert!(st.write.is_empty(), "{ctx}: the write PDT is folded away");
                    assert_eq!(
                        covered(stable, &carried),
                        vh.txns.visible_rows(rt.pids[part]).unwrap(),
                        "{ctx}: the checkpoint does not cover partition {part}"
                    );
                    carried_runs += !carried.is_empty() as usize;
                }
            }
            _ => {
                let rows: Vec<Vec<Value>> = (0..1 + rng.next_bounded(3))
                    .map(|_| {
                        tail_key += 1;
                        kv(tail_key, 7)
                    })
                    .collect();
                for r in &rows {
                    model.insert(r[0].as_i64().unwrap(), r[1].clone());
                }
                vh.trickle_insert("sp_hist", rows).unwrap();
            }
        }
        check(&vh, "sp_hist", &model, &ctx);
    }
    let ps = vh.propagation_stats().snapshot();
    assert!(ps.chunks_kept > 0, "no chunk was ever kept: {ps:?}");
    assert!(
        carried_runs > 0,
        "no propagation ever carried deltas: {ps:?}"
    );
}

/// The crash points of the propagation protocol, in execution order (the
/// same seven `tests/propagation.rs` walks).
const STEPS: [&str; 7] = [
    "#begin",
    "#rewrite-begin:",
    "#rewrite-data:",
    "#rewritten:",
    "#append",
    "#checkpoint",
    "#gc",
];

#[test]
fn every_crash_point_of_a_carrying_run_recovers_to_the_model() {
    let vh = engine_with(|_| {});
    vh.create_table(table("sp_crash", DataType::I64).partition_by(&["k"], 1))
        .unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let mut next_k = 0i64;
    let mut fresh = |model: &mut BTreeMap<i64, Value>, n: i64| -> Vec<Vec<Value>> {
        (0..n)
            .map(|_| {
                let k = next_k;
                next_k += 1;
                model.insert(k, Value::I64(k * 3));
                kv(k, k * 3)
            })
            .collect()
    };
    vh.insert_rows("sp_crash", fresh(&mut model, 3 * CHUNK as i64))
        .unwrap();
    let rt = vh.table("sp_crash").unwrap();
    let pid = rt.pids[0];
    let kinds = [
        FaultAction::CrashBefore,
        FaultAction::CrashMid,
        FaultAction::CrashAfter,
    ];

    for (i, step) in STEPS.iter().enumerate() {
        // Chunk 0 gets eight deltas (folds), chunk 1 one more delete (kept,
        // carried; at most seven over the walk), and a tail longer than a
        // chunk (folds with the last chunk, reaching `append`).
        let low: Vec<i64> = model.keys().take(8).copied().collect();
        let gone: Vec<Value> = low[..4].iter().map(|k| Value::I64(*k)).collect();
        assert_eq!(vh.delete_by_keys("sp_crash", 0, &gone).unwrap(), 4);
        for k in &low[..4] {
            model.remove(k);
        }
        for k in &low[4..] {
            let v = Value::I64(-k);
            assert_eq!(
                vh.update_where("sp_crash", &key_eq(*k), 1, v.clone())
                    .unwrap(),
                1
            );
            model.insert(*k, v);
        }
        let sparse = (CHUNK + 100 + i) as i64;
        assert_eq!(
            vh.delete_by_keys("sp_crash", 0, &[Value::I64(sparse)])
                .unwrap(),
            1
        );
        model.remove(&sparse);
        let rows = fresh(&mut model, CHUNK as i64 + 88);
        vh.trickle_insert("sp_crash", rows).unwrap();

        let hook = DirectedFault::matching(FaultSite::Propagation, kinds[i % 3], 1, step);
        vh.install_fault_hook(Some(hook.clone() as SharedFaultHook));
        let out = vh.propagate_table("sp_crash", true);
        vh.install_fault_hook(None);
        assert_eq!(hook.fired(), 1, "never reached {step}");
        assert!(out.is_err(), "a crash at {step} did not surface");

        let stable = rt.stores[0].read().row_count();
        vectorh::recover_partition(&vh.coordinator, &vh.txns, pid, stable, &rt.wals[0]).unwrap();
        check(&vh, "sp_crash", &model, &format!("after recovering {step}"));

        // The next run commits (after a `gc` crash the crashed run already
        // did): its checkpoint covers the stable image plus the deltas it
        // carries, and those are chunk 1's sparse deletes.
        let ran = vh.propagate_table("sp_crash", true).unwrap();
        assert_eq!(ran, (*step != "#gc") as usize, "after the {step} cycle");
        let (ckpt, carried) = last_checkpoint(&vh, "sp_crash", 0);
        assert_eq!(ckpt, rt.stores[0].read().row_count());
        assert_eq!(
            covered(ckpt, &carried),
            model.len() as u64,
            "the checkpoint after the {step} cycle does not cover the image"
        );
        assert_eq!(
            carried.len(),
            i + 1,
            "chunk 1's sparse deletes are carried after the {step} cycle"
        );
        check(
            &vh,
            "sp_crash",
            &model,
            &format!("after re-propagating past {step}"),
        );
        // And recovery from that checkpoint alone gives the same image.
        vectorh::recover_partition(&vh.coordinator, &vh.txns, pid, ckpt, &rt.wals[0]).unwrap();
        check(
            &vh,
            "sp_crash",
            &model,
            &format!("after recovering past {step}"),
        );
    }
}

/// Every live replica's image of a replicated partition equals the
/// primary's.
fn replicas_agree(vh: &VectorH, name: &str, pid: PartitionId, ctx: &str) {
    let stable = stable_rows(vh, name, 0);
    let primary = apply_plan(&vh.txns.scan_plan(pid).unwrap(), &stable);
    for w in vh.workers() {
        let replica = apply_plan(&vh.replica_plan(w, pid).unwrap(), &stable);
        assert!(replica == primary, "{w}'s replica of {name} diverged {ctx}");
        assert_eq!(vh.replica_rows(w, pid).unwrap(), primary.len() as u64);
    }
}

#[test]
fn replicas_rebase_on_carried_deltas_and_rejoin_behind_a_small_retention() {
    let vh = engine_with(|cfg| {
        cfg.ship_retention = ShipRetention {
            max_bytes: None,
            max_records: Some(4),
        }
    });
    vh.create_table(table("sp_dim", DataType::I64)).unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let rows: Vec<Vec<Value>> = (0..3 * CHUNK as i64).map(|k| kv(k, k)).collect();
    for r in &rows {
        model.insert(r[0].as_i64().unwrap(), r[1].clone());
    }
    vh.insert_rows("sp_dim", rows).unwrap();
    let pid = vh.table("sp_dim").unwrap().pids[0];

    // Chunk 0 dense (folds), chunks 1 and 2 sparse (carried).
    let dirty = |model: &mut BTreeMap<i64, Value>, round: i64| {
        let gone: Vec<Value> = (0..8).map(|i| Value::I64(round * 8 + i)).collect();
        assert_eq!(vh.delete_by_keys("sp_dim", 0, &gone).unwrap(), 8);
        for k in round * 8..round * 8 + 8 {
            model.remove(&k);
        }
        let k = CHUNK as i64 + 10 + round;
        vh.update_where("sp_dim", &key_eq(k), 1, Value::I64(-k))
            .unwrap();
        model.insert(k, Value::I64(-k));
        let k = 2 * CHUNK as i64 + 10 + round;
        assert_eq!(vh.delete_by_keys("sp_dim", 0, &[Value::I64(k)]).unwrap(), 1);
        model.remove(&k);
    };
    dirty(&mut model, 0);
    assert_eq!(vh.propagate_table("sp_dim", true).unwrap(), 1);
    assert_eq!(last_checkpoint(&vh, "sp_dim", 0).1.len(), 2);
    check(&vh, "sp_dim", &model, "after a carrying run");
    replicas_agree(&vh, "sp_dim", pid, "after a carrying run");

    // A node dies; commits pile up past the retention; another carrying
    // run; the node rejoins behind the horizon and bootstraps.
    let victim = NodeId(2);
    vh.kill_node(victim).unwrap();
    for round in 1..4 {
        dirty(&mut model, round);
        vh.trickle_insert("sp_dim", vec![kv(10_000 + round, round)])
            .unwrap();
        model.insert(10_000 + round, Value::I64(round));
    }
    replicas_agree(&vh, "sp_dim", pid, "with a node down");
    assert_eq!(vh.propagate_table("sp_dim", true).unwrap(), 1);
    dirty(&mut model, 4);
    vh.rejoin_node(victim).unwrap();
    check(&vh, "sp_dim", &model, "after the rejoin");
    replicas_agree(&vh, "sp_dim", pid, "after the rejoin");

    // Live shipping after the rejoin, then one more carrying run.
    dirty(&mut model, 5);
    replicas_agree(&vh, "sp_dim", pid, "after live shipping");
    assert_eq!(vh.propagate_table("sp_dim", true).unwrap(), 1);
    assert!(!last_checkpoint(&vh, "sp_dim", 0).1.is_empty());
    check(&vh, "sp_dim", &model, "at the end");
    replicas_agree(&vh, "sp_dim", pid, "at the end");
}

#[test]
fn insert_rows_after_a_carrying_run_survives_recovery() {
    let vh = engine_with(|_| {});
    vh.create_table(table("sp_load", DataType::I64).partition_by(&["k"], 1))
        .unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let load = |vh: &VectorH, model: &mut BTreeMap<i64, Value>, keys: std::ops::Range<i64>| {
        let rows: Vec<Vec<Value>> = keys.map(|k| kv(k, k * 2)).collect();
        for r in &rows {
            model.insert(r[0].as_i64().unwrap(), r[1].clone());
        }
        vh.insert_rows("sp_load", rows).unwrap();
    };
    load(&vh, &mut model, 0..3 * CHUNK as i64);
    let rt = vh.table("sp_load").unwrap();
    let pid = rt.pids[0];

    // Dense chunk 0, a sparse delete in chunk 1 and two tail inserts: the
    // run folds chunk 0 and carries the rest, tail inserts included.
    let gone: Vec<Value> = (0..10).map(Value::I64).collect();
    assert_eq!(vh.delete_by_keys("sp_load", 0, &gone).unwrap(), 10);
    assert_eq!(
        vh.delete_by_keys("sp_load", 0, &[Value::I64(700)]).unwrap(),
        1
    );
    for k in (0..10).chain([700]) {
        model.remove(&k);
    }
    vh.trickle_insert("sp_load", vec![kv(-1, 1), kv(-2, 2)])
        .unwrap();
    model.insert(-1, Value::I64(1));
    model.insert(-2, Value::I64(2));
    assert_eq!(vh.propagate_table("sp_load", true).unwrap(), 1);
    let (_, carried) = last_checkpoint(&vh, "sp_load", 0);
    assert_eq!(
        carried
            .iter()
            .filter(|r| matches!(r, LogRecord::Insert { .. }))
            .count(),
        2,
        "the tail inserts are carried: {carried:?}"
    );

    // The bulk load appends past every pending delta.
    load(&vh, &mut model, 5000..5700);
    let stable = rt.stores[0].read().row_count();
    assert_eq!(vh.txns.partition_state(pid).unwrap().stable_len, stable);
    check(
        &vh,
        "sp_load",
        &model,
        "after insert_rows over carried deltas",
    );
    vectorh::recover_partition(&vh.coordinator, &vh.txns, pid, stable, &rt.wals[0]).unwrap();
    check(&vh, "sp_load", &model, "after recovering the bulk load");

    // More updates on the grown image, a run, recovery again.
    assert_eq!(
        vh.delete_by_keys("sp_load", 0, &[Value::I64(5001)])
            .unwrap(),
        1
    );
    model.remove(&5001);
    vh.trickle_insert("sp_load", vec![kv(-3, 3)]).unwrap();
    model.insert(-3, Value::I64(3));
    vh.propagate_table("sp_load", true).unwrap();
    check(&vh, "sp_load", &model, "after the next run");
    let stable = rt.stores[0].read().row_count();
    vectorh::recover_partition(&vh.coordinator, &vh.txns, pid, stable, &rt.wals[0]).unwrap();
    check(&vh, "sp_load", &model, "after the last recovery");
}

#[test]
fn insert_rows_over_pending_deltas_loads_all_or_nothing() {
    let vh = engine_with(|_| {});
    vh.create_table(table("sp_bulk", DataType::I64).partition_by(&["k"], 2))
        .unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let rows: Vec<Vec<Value>> = (0..10).map(|k| kv(k, k)).collect();
    for r in &rows {
        model.insert(r[0].as_i64().unwrap(), r[1].clone());
    }
    vh.insert_rows("sp_bulk", rows).unwrap();
    vh.trickle_insert("sp_bulk", vec![kv(10, 10)]).unwrap();
    model.insert(10, Value::I64(10));
    let rt = vh.table("sp_bulk").unwrap();
    let snapshot = || -> Vec<(u64, usize)> {
        (0..2)
            .map(|p| {
                let wal = rt.wals[p].read_all().unwrap().len();
                (rt.stores[p].read().row_count(), wal)
            })
            .collect()
    };

    // Refused: one row of the batch is too narrow. Nothing is written, in
    // either partition.
    let before = snapshot();
    let mut bad: Vec<Vec<Value>> = (20..40).map(|k| kv(k, k)).collect();
    bad.push(vec![Value::I64(41)]);
    assert!(vh.insert_rows("sp_bulk", bad).is_err());
    assert_eq!(snapshot(), before, "a refused load wrote");
    check(&vh, "sp_bulk", &model, "after a refused load");

    // Accepted over the pending insert: every row visible, and each
    // partition's store holds exactly its stable rows.
    let rows: Vec<Vec<Value>> = (100..105).map(|k| kv(k, k)).collect();
    for r in &rows {
        model.insert(r[0].as_i64().unwrap(), r[1].clone());
    }
    vh.insert_rows("sp_bulk", rows).unwrap();
    check(&vh, "sp_bulk", &model, "after a load over a pending insert");
    for p in 0..2 {
        let st = vh.txns.partition_state(rt.pids[p]).unwrap();
        assert_eq!(st.stable_len, rt.stores[p].read().row_count());
    }
}

#[test]
fn sparse_deltas_over_the_memory_limit_fold_in_a_background_tick() {
    let limit = TxnConfig::default().propagate_mem_bytes;
    let vh = engine_with(|cfg| cfg.propagate_every = 1);
    vh.create_table(table("sp_mem", DataType::Str).partition_by(&["k"], 1))
        .unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let n_chunks = 10i64;
    let rows: Vec<Vec<Value>> = (0..n_chunks * CHUNK as i64)
        .map(|k| vec![Value::I64(k), Value::Str(format!("s{k}"))])
        .collect();
    for r in &rows {
        model.insert(r[0].as_i64().unwrap(), r[1].clone());
    }
    vh.insert_rows("sp_mem", rows).unwrap();
    let pid = vh.table("sp_mem").unwrap().pids[0];

    // 70 modifies of 64 KiB each, seven per chunk: no chunk reaches the
    // rule, but together they pass the 4 MiB limit.
    let big = |i: i64| Value::Str(format!("{i}{}", "x".repeat(1 << 16)));
    for i in 0..70 {
        let k = (i % n_chunks) * CHUNK as i64 + 37 * (i / n_chunks);
        assert_eq!(vh.update_where("sp_mem", &key_eq(k), 1, big(i)).unwrap(), 1);
        model.insert(k, big(i));
    }
    let ps = vh.propagation_stats().snapshot();
    assert!(ps.propagation_runs > 0, "no background run folded: {ps:?}");
    assert!(ps.chunks_kept > 0, "every chunk folded: {ps:?}");
    let mem = |vh: &VectorH| {
        let st = vh.txns.partition_state(pid).unwrap();
        st.read.mem_bytes() + st.write.mem_bytes()
    };
    assert!(mem(&vh) <= limit, "the partition ends over the limit");
    assert!(!vh.txns.needs_propagation(pid));
    check(&vh, "sp_mem", &model, "after the background fold");

    // More ticks: nothing is over a threshold, so nothing runs again.
    for _ in 0..4 {
        vh.query("SELECT COUNT(*) FROM sp_mem").unwrap();
    }
    assert_eq!(vh.propagation_stats().snapshot(), ps);
}

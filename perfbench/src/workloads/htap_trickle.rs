//! `htap_trickle`: small writes beside reads, one client.
//!
//! Each round is four updates in seeded order - two RF1-style
//! `trickle_insert`s of new orders with their lineitems, one RF2-style
//! `delete_by_keys`, one `update_where` that rewrites `l_discount` of a
//! few orders - then one of Q1, Q6, Q3 in rotation. Background propagation
//! ticks every 8 calls, but at this scale a partition's deltas never reach
//! the engine's threshold (a tenth of its rows) within a run. So the loop is
//! cut into epochs of five rounds, each closed by a forced propagation of
//! every table: its cost is inside the measured wall time, and one epoch's
//! writes over the user bytes it changed is a write amplification that does
//! not depend on how many rounds the box managed. The run reports the median
//! over its epochs.
//!
//! The same scan layer `scan_q1q6` measures is entered here through the
//! PDT merge path (`ModifyStable`/`EmitInsert`, MinMax pruning off on
//! dirty partitions), and txn/WAL/2PC/propagation do the rest. A fast
//! path for clean scans that costs merged scans, or a propagation change
//! that trades write amplification for query time, shows here (the
//! paper's GeoDiff experiment).
//!
//! The run keeps an exact row-level model of `orders` and `lineitem`. It
//! checks every update's affected-row count against the model, and at the
//! end the row counts and Q1/Q6/Q3 against the baseline engine loaded from
//! the model.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use vectorh::Expr;
use vectorh_blockstore::IoSnapshot;
use vectorh_common::rng::SplitMix64;
use vectorh_common::Value;
use vectorh_tpch::baseline::BaselineDb;
use vectorh_tpch::gen::cols::{lineitem as l, orders as o};
use vectorh_tpch::refresh::refresh_set;
use vectorh_tpch::schema::clone_data;
use vectorh_tpch::TpchData;

use super::{measured, tpch_sql, Env, Outcome};
use crate::check::{baseline_answer, AnswerBook};
use crate::rig::{data_bytes, rows_bytes};
use crate::spec::tpch_kind;
use crate::stats;

/// Orders per insert, keys per delete and per update.
const BATCH: usize = 8;
/// The refresh pool is built up front, so the loop stops here at the latest.
const MAX_ROUNDS: usize = 512;
/// Rounds between two forced propagations. The loop is paced in epochs, so
/// every run ends propagated and every epoch is the same amount of work.
const EPOCH: usize = 5;
/// The floor of epochs: each query kind is then timed at least five times.
const MIN_EPOCHS: usize = 3;
const QUERIES: [usize; 3] = [1, 6, 3];
/// Per-epoch samples kept in the recorder's `extra`.
const WRITE_AMP: &str = "write_amp";
const WAL_AMP: &str = "wal_bytes_per_user_byte";
const PROPAGATE_MS: &str = "propagate_ms";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Insert,
    Delete,
    Update,
}

/// New orders with their lineitems: one RF1-style insert.
#[derive(Clone)]
struct NewOrders {
    orders: Vec<Vec<Value>>,
    lines: Vec<Vec<Value>>,
}

/// The seeded refresh pool, cut into per-operation batches.
struct Pool {
    inserts: Vec<NewOrders>,
    delete_keys: Vec<Vec<i64>>,
    update_keys: Vec<Vec<i64>>,
}

fn pool(data: &TpchData, seed: u64) -> Pool {
    let set = refresh_set(data, MAX_ROUNDS * 2 * BATCH, seed);
    let mut lines = set.lineitems.into_iter().peekable();
    let inserts = set
        .orders
        .chunks(BATCH)
        .map(|orders| {
            let keys: HashSet<i64> = orders
                .iter()
                .filter_map(|r| r[o::O_ORDERKEY].as_i64())
                .collect();
            let mut lines_of_these = Vec::new();
            while let Some(row) =
                lines.next_if(|r| r[l::L_ORDERKEY].as_i64().is_some_and(|k| keys.contains(&k)))
            {
                lines_of_these.push(row);
            }
            NewOrders {
                orders: orders.to_vec(),
                lines: lines_of_these,
            }
        })
        .collect();
    // Deletes and updates draw from disjoint halves of one sample of
    // existing keys, so an update never aims at a deleted order.
    let (del, upd) = set.delete_keys.split_at(set.delete_keys.len() / 2);
    let batches = |keys: &[i64]| keys.chunks(BATCH).map(<[i64]>::to_vec).collect();
    Pool {
        inserts,
        delete_keys: batches(del),
        update_keys: batches(upd),
    }
}

/// The rows the engine must hold, kept by applying every update here too.
struct Model {
    data: TpchData,
    /// Raw bytes of rows inserted, deleted, and of values overwritten.
    changed_user_bytes: u64,
}

impl Model {
    fn insert(&mut self, batch: &NewOrders) {
        self.changed_user_bytes += rows_bytes(&batch.orders) + rows_bytes(&batch.lines);
        self.data.orders.extend(batch.orders.iter().cloned());
        self.data.lineitem.extend(batch.lines.iter().cloned());
    }

    fn delete(&mut self, keys: &[i64]) -> u64 {
        let keys: HashSet<i64> = keys.iter().copied().collect();
        let mut gone = 0u64;
        let mut bytes = 0u64;
        let mut drop_from = |rows: &mut Vec<Vec<Value>>, col: usize| {
            rows.retain(|r| {
                let hit = r[col].as_i64().is_some_and(|k| keys.contains(&k));
                if hit {
                    gone += 1;
                    bytes += rows_bytes(std::slice::from_ref(r));
                }
                !hit
            });
        };
        drop_from(&mut self.data.lineitem, l::L_ORDERKEY);
        drop_from(&mut self.data.orders, o::O_ORDERKEY);
        self.changed_user_bytes += bytes;
        gone
    }

    fn set_discount(&mut self, keys: &[i64], discount: &Value) -> u64 {
        let keys: HashSet<i64> = keys.iter().copied().collect();
        let mut touched = 0;
        for r in &mut self.data.lineitem {
            if r[l::L_ORDERKEY].as_i64().is_some_and(|k| keys.contains(&k)) {
                r[l::L_DISCOUNT] = discount.clone();
                touched += 1;
            }
        }
        self.changed_user_bytes += touched * crate::rig::value_bytes(discount);
        touched
    }
}

fn key_values(keys: &[i64]) -> Vec<Value> {
    keys.iter().map(|&k| Value::I64(k)).collect()
}

fn wal_bytes(env: &Env) -> u64 {
    let files = env.rig.vh.fs().list("/vectorh/");
    files
        .iter()
        .filter(|f| f.path.ends_with("wal"))
        .map(|f| f.len)
        .sum()
}

/// Positional deltas waiting in the PDTs of the two updated tables.
fn pending_deltas(env: &Env) -> crate::Result<u64> {
    let mut n = 0;
    for table in ["orders", "lineitem"] {
        for pid in &env.rig.vh.table(table)?.pids {
            let st = env.rig.vh.txns.partition_state(*pid)?;
            n += (st.read.n_entries() + st.write.n_entries()) as u64;
        }
    }
    Ok(n)
}

/// An update whose affected-row count differs from the model's has failed.
fn expect_rows(env: &mut Env, kind: &str, got: Option<u64>, want: u64) {
    if got.is_some_and(|g| g != want) {
        env.rec
            .fail(kind, format!("engine touched {got:?} rows, model {want}"));
    }
}

/// The update stream: the pool it draws from and the model it keeps.
struct Trickle {
    pool: Pool,
    model: Model,
    rng: SplitMix64,
    /// Round `r` asks `QUERIES[(first_query + r) % 3]`: every query kind
    /// gets the same number of samples, the seed decides which goes first.
    first_query: usize,
    /// Layer metrics read while partitions were dirty (traced runs), and
    /// the block-store traffic of reading them.
    dirty: BTreeMap<&'static str, f64>,
    probe_io: Option<IoSnapshot>,
}

impl Trickle {
    /// Apply `op` of round `round` to the model, then, timed, to the engine.
    /// `slot` tells a round's two inserts apart.
    fn apply(&mut self, env: &mut Env, op: Op, round: usize, slot: usize) {
        let vh = env.rig.vh.clone();
        let id = env.rec.next_stmt_id();
        match op {
            Op::Insert => {
                let batch = &self.pool.inserts[round * 2 + slot];
                env.rec
                    .note(&format!("insert {:?}", batch.orders[0][o::O_ORDERKEY]));
                self.model.insert(batch);
                let NewOrders { orders, lines } = batch.clone();
                env.rec.timed("insert", "txn.trickle_insert", id, |_| {
                    vh.trickle_insert("orders", orders)?;
                    vh.trickle_insert("lineitem", lines)
                });
            }
            Op::Delete => {
                let keys = &self.pool.delete_keys[round];
                env.rec.note(&format!("delete {keys:?}"));
                let want = self.model.delete(keys);
                let vals = key_values(keys);
                let got = env.rec.timed("delete", "txn.delete", id, |_| {
                    let lines = vh.delete_by_keys("lineitem", l::L_ORDERKEY, &vals)?;
                    let orders = vh.delete_by_keys("orders", o::O_ORDERKEY, &vals)?;
                    Ok::<_, vectorh_common::VhError>(lines + orders)
                });
                expect_rows(env, "delete", got, want);
            }
            Op::Update => {
                let keys = &self.pool.update_keys[round];
                let discount = Value::Decimal(self.rng.range_i64(0, 10), 2);
                env.rec.note(&format!("update {keys:?} {discount:?}"));
                let want = self.model.set_discount(keys, &discount);
                let pred = Expr::InList(Box::new(Expr::Col(l::L_ORDERKEY)), key_values(keys));
                let got = env.rec.timed("update", "txn.update", id, |_| {
                    vh.update_where("lineitem", &pred, l::L_DISCOUNT, discount)
                });
                expect_rows(env, "update", got, want);
            }
        }
    }
}

/// Propagate every table by force; milliseconds it took.
fn propagate_all(env: &mut Env) -> crate::Result<f64> {
    let t = Instant::now();
    for table in vectorh_tpch::table_names() {
        let id = env.rec.next_stmt_id();
        let vh = &env.rig.vh;
        env.rec.tracer.span("txn.propagate_table", id, |_| {
            vh.propagate_table(table, true)
        })?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// One epoch: [`EPOCH`] rounds, then the forced propagation. Its samples
/// go to the recorder's `extra`: what the epoch wrote per user byte it
/// changed (block store and WAL), and how long propagating took.
fn epoch(env: &mut Env, trickle: &mut Trickle, first_round: usize) -> crate::Result<()> {
    let io_before = env.rig.vh.fs().stats().snapshot();
    let wal_before = wal_bytes(env);
    let changed_before = trickle.model.changed_user_bytes;
    for round in first_round..first_round + EPOCH {
        let mut ops = [Op::Insert, Op::Insert, Op::Delete, Op::Update];
        trickle.rng.shuffle(&mut ops);
        let mut inserts = 0;
        for op in ops {
            trickle.apply(env, op, round, inserts);
            inserts += (op == Op::Insert) as usize;
        }
        let q = QUERIES[(trickle.first_query + round) % QUERIES.len()];
        env.rec.query(&env.rig.vh, &tpch_kind(q), tpch_sql(q)?);
    }
    let changed = (trickle.model.changed_user_bytes - changed_before).max(1) as f64;
    let wal_written = wal_bytes(env).saturating_sub(wal_before);
    if first_round == 0 && env.rec.tracing() {
        // What only dirty partitions show, read once, before they are clean
        // again. The probe repeats its scan by the clock, so its reads are
        // kept apart from the loop's counters.
        let before = env.rig.vh.fs().stats().snapshot();
        trickle
            .dirty
            .insert("pdt.pending_deltas", pending_deltas(env)? as f64);
        trickle.dirty.extend(crate::layers::dirty_scan(env.rig)?);
        trickle.probe_io = Some(env.rig.vh.fs().stats().snapshot().since(&before));
    }
    let took_ms = propagate_all(env)?;
    env.rec.busy_until_now();
    let io = env.rig.vh.fs().stats().snapshot().since(&io_before);
    let mut keep = |name, sample| env.rec.extra.entry(name).or_default().push(sample);
    keep(WRITE_AMP, io.write_bytes as f64 / changed);
    keep(WAL_AMP, wal_written as f64 / changed);
    keep(PROPAGATE_MS, took_ms);
    Ok(())
}

pub fn run(env: &mut Env) -> crate::Result<Outcome> {
    let mut rng = SplitMix64::new(env.seed ^ 0x4854_4150);
    let mut trickle = Trickle {
        pool: pool(env.data, env.seed),
        model: Model {
            data: clone_data(env.data),
            changed_user_bytes: 0,
        },
        first_query: rng.next_bounded(QUERIES.len() as u64) as usize,
        rng,
        dirty: BTreeMap::new(),
        probe_io: None,
    };
    // Warm the three queries; nothing has been updated yet.
    for q in QUERIES {
        let kind = tpch_kind(q);
        env.rec.query(&env.rig.vh, &kind, tpch_sql(q)?);
    }
    env.rec.reset_samples();

    // A tiny database has fewer existing keys than the pool asks for.
    let max_epochs = (trickle.pool.inserts.len() / 2)
        .min(trickle.pool.delete_keys.len())
        .min(trickle.pool.update_keys.len())
        / EPOCH;
    let mut out = measured(env, MIN_EPOCHS, |env, pacer| {
        while pacer.rounds < max_epochs && pacer.another() {
            epoch(env, &mut trickle, (pacer.rounds - 1) * EPOCH)?;
        }
        Ok(())
    })?;
    let median_of = |name| {
        env.rec
            .extra
            .get(name)
            .map_or(Ok(0.0), |v| stats::median(v))
    };
    if let Some(probe) = &trickle.probe_io {
        out.counters.io = out.counters.io.since(probe);
    }
    out.write_amp = Some(median_of(WRITE_AMP)?);
    out.layer = std::mem::take(&mut trickle.dirty);
    out.layer
        .insert("txn.wal_bytes_per_user_byte", median_of(WAL_AMP)?);
    out.layer
        .insert("txn.propagate_ms", median_of(PROPAGATE_MS)?);

    verify(env, trickle.model.data, &mut out)?;
    Ok(out)
}

/// Row counts, then Q1/Q6/Q3 against the baseline loaded from the model.
fn verify(env: &mut Env, end_state: TpchData, out: &mut Outcome) -> crate::Result<()> {
    for (table, want) in [
        ("orders", end_state.orders.len()),
        ("lineitem", end_state.lineitem.len()),
    ] {
        env.rec.attempted += 1;
        let got = env.rig.vh.table_rows(table)?;
        if got != want as u64 {
            env.rec
                .fail(table, format!("engine holds {got} rows, model {want}"));
        }
    }
    out.live_user_bytes = Some(data_bytes(&end_state));
    let db = BaselineDb::load(&end_state)?;
    let mut finals = AnswerBook::default();
    for q in QUERIES {
        let sql = tpch_sql(q)?;
        env.rec.attempted += 1;
        match env.rig.vh.query(sql) {
            Ok(rows) => finals.record(&format!("final {}", tpch_kind(q)), sql, rows),
            Err(e) => env.rec.fail("final query", e),
        }
    }
    let vh = &env.rig.vh;
    finals.verify(|sql| baseline_answer(&db, &vh.parse(sql)?))?;
    env.book.merge(finals);
    Ok(())
}

//! Differential test of DML-as-a-scan and of MinMax pruning over pending
//! updates, on generated update histories (seeded SplitMix64; a failure
//! prints its seed, `DML_DIFF_SEED=<seed>` replays it alone).
//!
//! A row-level model (a `Vec` of rows and a Rust closure per predicate) is
//! the oracle. Against it, on a clustered and on a heap table with 16-row
//! chunks, through write-PDT-only, rolled-into-read-PDT and propagated
//! states:
//!
//! * every filtered query returns the model's rows through SQL (the
//!   engine's `extract_pruning` + `keep_chunks`), through a hand-built
//!   `MScan → Select` with that same pruning, and through one with
//!   `keep = all true`;
//! * `delete_where` / `update_where` / `delete_by_keys` report the
//!   model's affected-row counts for `Cmp`, `And`, `Between` and `InList`
//!   predicates and leave the model's rows behind — including updates that
//!   throw the pruning column `a` far out of its chunk's `[min, max]`;
//! * `MScan::with_rids` numbers rows as `pdt::merge::apply_plan` lays them
//!   out, whatever chunks are pruned.
//!
//! Every row also carries a string no other row has, and every comparison
//! includes it: the scan and propagation *move* strings out of the decoded
//! chunk, so one that is moved twice, left behind or lands in a neighbouring
//! row shows here under every shape of merge plan the histories produce.

use vectorh::execute::extract_pruning;
use vectorh::{ClusterConfig, TableBuilder, VectorH};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{DataType, Value};
use vectorh_exec::batch::collect_rows;
use vectorh_exec::expr::Expr;
use vectorh_exec::filter::Select;
use vectorh_exec::scan::{keep_chunks, MScan};
use vectorh_pdt::merge::apply_plan;

/// Rows are `(k, a, b, c, s)`: `k` the partition (and cluster) key, `a = 2k`
/// at load so chunks have tight ranges on both, `b` noise, `c` a serial and
/// `s` a string payload ([`payload`]) until an update overwrites it.
/// Predicates name the integer columns only.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Row {
    n: [i64; 4],
    s: String,
}
const COLS: [&str; 4] = ["k", "a", "b", "c"];
/// Index of `s`, and every column as scans project them.
const S: usize = 4;
const ALL: [usize; 5] = [0, 1, 2, 3, S];
const SELECT: &str = "SELECT k, a, b, c, s FROM";
const LOADED: i64 = 240;
const K_MAX: i64 = 2 * LOADED;
const A_MAX: i64 = 4 * LOADED;
const B_MAX: i64 = 50;

/// A generated predicate, renderable as an engine expression, as SQL, and
/// as a closure over model rows.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(usize, &'static str, i64),
    Between(usize, i64, i64),
    InList(usize, Vec<i64>),
    And(Vec<Pred>),
}

impl Pred {
    fn matches(&self, row: &Row) -> bool {
        let n = &row.n;
        match self {
            Pred::Cmp(c, op, v) => match *op {
                "<" => n[*c] < *v,
                "<=" => n[*c] <= *v,
                ">" => n[*c] > *v,
                ">=" => n[*c] >= *v,
                _ => n[*c] == *v,
            },
            Pred::Between(c, lo, hi) => *lo <= n[*c] && n[*c] <= *hi,
            Pred::InList(c, vs) => vs.contains(&n[*c]),
            Pred::And(ps) => ps.iter().all(|p| p.matches(row)),
        }
    }

    fn expr(&self) -> Expr {
        let lit = |v: i64| Expr::lit(Value::I64(v));
        match self {
            Pred::Cmp(c, op, v) => {
                let build = match *op {
                    "<" => Expr::lt,
                    "<=" => Expr::le,
                    ">" => Expr::gt,
                    ">=" => Expr::ge,
                    _ => Expr::eq,
                };
                build(Expr::col(*c), lit(*v))
            }
            Pred::Between(c, lo, hi) => Expr::Between(
                Box::new(Expr::col(*c)),
                Box::new(lit(*lo)),
                Box::new(lit(*hi)),
            ),
            Pred::InList(c, vs) => Expr::InList(
                Box::new(Expr::col(*c)),
                vs.iter().map(|v| Value::I64(*v)).collect(),
            ),
            Pred::And(ps) => Expr::and(ps.iter().map(Pred::expr).collect()),
        }
    }

    fn sql(&self) -> String {
        match self {
            Pred::Cmp(c, op, v) => format!("{} {op} {v}", COLS[*c]),
            Pred::Between(c, lo, hi) => format!("{} BETWEEN {lo} AND {hi}", COLS[*c]),
            Pred::InList(c, vs) => {
                let vs: Vec<String> = vs.iter().map(i64::to_string).collect();
                format!("{} IN ({})", COLS[*c], vs.join(", "))
            }
            Pred::And(ps) => {
                let ps: Vec<String> = ps.iter().map(Pred::sql).collect();
                ps.join(" AND ")
            }
        }
    }
}

/// Kind `kind % 4` of predicate: Cmp, Between, InList, And. `narrow`
/// predicates (for DML) match a few rows, wide ones (for queries) anything
/// from nothing to everything.
fn gen_pred(rng: &mut SplitMix64, kind: usize, narrow: bool) -> Pred {
    let col = rng.next_bounded(3) as usize;
    let max = [K_MAX, A_MAX, B_MAX][col];
    let width = if narrow { max / 40 } else { max / 3 };
    match kind % 4 {
        0 => {
            let op = *rng.choose(&["<", "<=", ">", ">=", "="]).unwrap();
            let v = match (narrow, op) {
                (true, "<" | "<=") => rng.range_i64(0, width),
                (true, ">" | ">=") => rng.range_i64(max - width, max),
                _ => rng.range_i64(0, max),
            };
            Pred::Cmp(col, op, v)
        }
        1 => {
            let lo = rng.range_i64(0, max);
            Pred::Between(col, lo, lo + rng.range_i64(0, width))
        }
        2 => {
            let n = rng.range_i64(1, 5);
            Pred::InList(col, (0..n).map(|_| rng.range_i64(0, max)).collect())
        }
        _ => {
            let n = rng.range_i64(2, 3) as usize;
            // Conjuncts of a narrow AND may each be wide: together they
            // still match few rows.
            Pred::And((0..n).map(|i| gen_pred(rng, i, false)).collect())
        }
    }
}

/// The string a row is created with: a function of its key and its serial
/// (which no two rows share), so the model predicts it and a string that
/// ends up in another row cannot go unnoticed.
fn payload(k: i64, c: i64) -> String {
    format!("payload of key {k}, serial {c}")
}

fn new_row(k: i64, a: i64, b: i64, c: i64) -> Row {
    Row {
        n: [k, a, b, c],
        s: payload(k, c),
    }
}

fn to_values(row: &Row) -> Vec<Value> {
    let mut values: Vec<Value> = row.n.iter().map(|v| Value::I64(*v)).collect();
    values.push(Value::Str(row.s.clone()));
    values
}

fn to_rows(rows: Vec<Vec<Value>>) -> Vec<Row> {
    let mut out: Vec<Row> = rows
        .into_iter()
        .map(|r| {
            let mut n = [0; 4];
            for (slot, v) in n.iter_mut().zip(&r) {
                *slot = v.as_i64().expect("integer column");
            }
            let Value::Str(s) = &r[S] else {
                panic!("string column, got {:?}", r[S])
            };
            Row { n, s: s.clone() }
        })
        .collect();
    out.sort_unstable();
    out
}

struct Case {
    vh: VectorH,
    table: &'static str,
    model: Vec<Row>,
    rng: SplitMix64,
    next_c: i64,
    /// Chunks the pruned hand-built scans skipped while updates were
    /// pending — the test is vacuous if this stays 0.
    pruned_while_dirty: usize,
}

impl Case {
    fn new(seed: u64, clustered: bool) -> Case {
        let vh = VectorH::start(ClusterConfig {
            nodes: 3,
            rows_per_chunk: 16,
            hdfs_block_size: 4 * 1024,
            ..Default::default()
        })
        .unwrap();
        let table = if clustered { "clustered" } else { "heap" };
        let mut b = TableBuilder::new(table);
        for c in COLS {
            b = b.column(c, DataType::I64);
        }
        b = b.column("s", DataType::Str);
        b = b.partition_by(&["k"], 3);
        if clustered {
            b = b.clustered_by(&["k"]);
        }
        vh.create_table(b).unwrap();
        let mut rng = SplitMix64::new(seed);
        let model: Vec<Row> = (0..LOADED)
            .map(|i| new_row(2 * i, 4 * i, rng.range_i64(0, B_MAX), i))
            .collect();
        vh.insert_rows(table, model.iter().map(to_values).collect())
            .unwrap();
        Case {
            vh,
            table,
            model,
            rng,
            next_c: LOADED,
            pruned_while_dirty: 0,
        }
    }

    /// One generated DML statement, applied to the model and the engine;
    /// affected-row counts must agree.
    fn step(&mut self, step: usize) {
        let (vh, table) = (&self.vh, self.table);
        match self.rng.next_bounded(5) {
            0 | 1 => {
                let n = self.rng.range_i64(1, 4);
                let rows: Vec<Row> = (0..n)
                    .map(|_| {
                        self.next_c += 1;
                        new_row(
                            self.rng.range_i64(0, K_MAX),
                            self.rng.range_i64(0, A_MAX),
                            self.rng.range_i64(0, B_MAX),
                            self.next_c,
                        )
                    })
                    .collect();
                vh.trickle_insert(table, rows.iter().map(to_values).collect())
                    .unwrap();
                self.model.extend(rows);
            }
            2 => {
                let pred = gen_pred(&mut self.rng, step, true);
                let before = self.model.len();
                self.model.retain(|r| !pred.matches(r));
                let got = vh.delete_where(table, &pred.expr()).unwrap();
                assert_eq!(got as usize, before - self.model.len(), "DELETE {pred:?}");
            }
            3 => {
                let pred = gen_pred(&mut self.rng, step, true);
                // `a` is the column scans prune on; a new value anywhere in
                // its domain lands outside the row's chunk range. `s` gets a
                // string no earlier statement wrote.
                let col = *self.rng.choose(&[1, 2, S]).unwrap();
                let value = match col {
                    S => Value::Str(format!("overwritten at step {step}")),
                    1 => Value::I64(self.rng.range_i64(0, A_MAX)),
                    _ => Value::I64(self.rng.range_i64(0, B_MAX)),
                };
                let mut want = 0;
                for row in self.model.iter_mut().filter(|r| pred.matches(r)) {
                    match &value {
                        Value::Str(s) => row.s = s.clone(),
                        v => row.n[col] = v.as_i64().expect("integer column"),
                    }
                    want += 1;
                }
                let got = vh
                    .update_where(table, &pred.expr(), col, value.clone())
                    .unwrap();
                assert_eq!(got, want, "UPDATE col {col} = {value:?} WHERE {pred:?}");
            }
            _ => {
                let n = self.rng.range_i64(1, 4);
                let keys: Vec<i64> = (0..n).map(|_| self.rng.range_i64(0, K_MAX)).collect();
                let before = self.model.len();
                self.model.retain(|r| !keys.contains(&r.n[0]));
                let vals: Vec<Value> = keys.iter().map(|k| Value::I64(*k)).collect();
                let got = vh.delete_by_keys(table, 0, &vals).unwrap();
                assert_eq!(got as usize, before - self.model.len(), "keys {keys:?}");
            }
        }
    }

    /// Filtered queries three ways against the model, then the RID check.
    fn check(&mut self, stage: &str) {
        let mut want_all = self.model.clone();
        want_all.sort_unstable();
        for kind in 0..4 {
            let pred = gen_pred(&mut self.rng, kind, false);
            let want: Vec<Row> = want_all
                .iter()
                .filter(|r| pred.matches(r))
                .cloned()
                .collect();
            let sql = format!("{SELECT} {} WHERE {}", self.table, pred.sql());
            let got = to_rows(self.vh.query(&sql).unwrap());
            assert_eq!(got, want, "[{stage}] {sql}");
            for pruned in [true, false] {
                let got = self.scan_where(&pred, pruned);
                assert_eq!(got, want, "[{stage}] pruned={pruned} {pred:?}");
            }
        }
        let all = format!("{SELECT} {}", self.table);
        assert_eq!(to_rows(self.vh.query(&all).unwrap()), want_all, "[{stage}]");
        self.check_rids(stage);
    }

    /// `MScan → Select(pred)` over every partition at the committed state,
    /// with the engine's pruning rule or with every chunk kept.
    fn scan_where(&mut self, pred: &Pred, pruned: bool) -> Vec<Row> {
        let rt = self.vh.table(self.table).unwrap();
        let expr = pred.expr();
        let mut rows = Vec::new();
        for (i, pid) in rt.pids.iter().enumerate() {
            let store = rt.stores[i].read().clone();
            let plan = self.vh.txns.scan_plan(*pid).unwrap();
            let keep = if pruned {
                let keep = keep_chunks(&store, &extract_pruning(&expr, &ALL), &plan);
                if plan.len() > 1 {
                    self.pruned_while_dirty += keep.iter().filter(|k| !**k).count();
                }
                keep
            } else {
                vec![true; store.n_chunks()]
            };
            let scan = MScan::new(store, ALL.to_vec(), keep, plan, None).unwrap();
            let mut select = Select::new(Box::new(scan), expr.clone());
            rows.extend(collect_rows(&mut select).unwrap());
        }
        to_rows(rows)
    }

    /// With any `keep`, the row `MScan::with_rids` labels `r` is row `r`
    /// of the reference applier's output; with every chunk kept the scan
    /// *is* that output.
    fn check_rids(&mut self, stage: &str) {
        let rt = self.vh.table(self.table).unwrap();
        for (i, pid) in rt.pids.iter().enumerate() {
            let store = rt.stores[i].read().clone();
            let plan = self.vh.txns.scan_plan(*pid).unwrap();
            let mut full = MScan::full(store.clone(), ALL.to_vec(), None).unwrap();
            let want = apply_plan(&plan, &collect_rows(&mut full).unwrap());
            let all = vec![true; store.n_chunks()];
            let some: Vec<bool> = all.iter().map(|_| self.rng.chance(0.5)).collect();
            for keep in [all, some] {
                let complete = keep.iter().all(|k| *k);
                let mut scan = MScan::new(store.clone(), ALL.to_vec(), keep, plan.clone(), None)
                    .unwrap()
                    .with_rids();
                let got = collect_rows(&mut scan).unwrap();
                if complete {
                    assert_eq!(got.len(), want.len(), "[{stage}] {pid}");
                }
                let mut next = 0;
                for row in got {
                    let rid = row[ALL.len()].as_i64().unwrap();
                    assert!(rid >= next, "[{stage}] {pid}: rid {rid} after {next}");
                    assert!(!complete || rid == next, "[{stage}] {pid}: gap at {next}");
                    next = rid + 1;
                    assert_eq!(
                        row[..ALL.len()],
                        want[rid as usize][..],
                        "[{stage}] {pid} rid {rid}"
                    );
                }
            }
        }
    }
}

fn run_history(seed: u64, clustered: bool) {
    const STEPS: usize = 36;
    let mut case = Case::new(seed, clustered);
    case.check("loaded");
    for step in 0..STEPS {
        case.step(step);
        if step % 4 == 3 {
            case.check(&format!("step {step}"));
        }
        let rt = case.vh.table(case.table).unwrap();
        if step == STEPS / 3 {
            // From here on both the Read-PDT and the Write-PDT are live.
            for pid in &rt.pids {
                case.vh.txns.roll_write_into_read(*pid).unwrap();
            }
            case.check("rolled into read-PDT");
        }
        if step == 2 * STEPS / 3 {
            case.vh.propagate_table(case.table, true).unwrap();
            for pid in &rt.pids {
                assert_eq!(case.vh.txns.scan_plan(*pid).unwrap().len(), 1, "clean");
            }
            case.check("propagated");
        }
    }
    case.check("end");
    assert!(
        case.pruned_while_dirty > 0,
        "no chunk was ever pruned under pending updates"
    );
}

#[test]
fn dml_and_pruning_agree_with_a_row_level_model() {
    let seeds: Vec<u64> = match std::env::var("DML_DIFF_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            vec![parsed.expect("DML_DIFF_SEED must be an integer")]
        }
        Err(_) => (0..8).map(|i| 0xD317_u64.wrapping_add(i)).collect(),
    };
    for seed in seeds {
        for clustered in [true, false] {
            let run = std::panic::catch_unwind(|| run_history(seed, clustered));
            if let Err(panic) = run {
                eprintln!(
                    "dml_differential failed: DML_DIFF_SEED={seed:#x} (clustered={clustered})"
                );
                std::panic::resume_unwind(panic);
            }
        }
    }
}

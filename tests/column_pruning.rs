//! The column-pruning oracle.
//!
//! `VectorH::optimize` prunes columns before it rewrites
//! (`vectorh_planner::prune_columns`), so a SQL plan, which names every
//! column of every table in its FROM clause, must end up reading only what
//! the query uses: [`COLUMNS_READ`] pins, per query, the column sets each
//! table's scans read. And pruning must change nothing but the column
//! lists: not the operators, not the join or aggregate strategies, not the
//! answer.

use vectorh::engine::EngineCatalog;
use vectorh::{ClusterConfig, LogicalPlan, VectorH};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{DataType, Value};
use vectorh_exec::aggr::AggFn;
use vectorh_exec::expr::Expr;
use vectorh_exec::fingerprint_rows;
use vectorh_exec::sort::Dir;
use vectorh_planner::logical::JoinKind;
use vectorh_planner::{prune_columns, ParallelRewriter, PhysPlan, RewriterOptions};
use vectorh_tpch::baseline::canonical;
use vectorh_tpch::{schema, sql_text, N_QUERIES};

fn engine() -> VectorH {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 512,
        hdfs_block_size: 64 * 1024,
        streams_per_node: 2,
        ..Default::default()
    })
    .expect("engine start");
    schema::setup(&vh, 0.002, 4, 20261005).expect("load TPC-H");
    vh
}

/// The rewriter alone, as `VectorH::optimize` configures it: what the
/// engine did before it pruned.
fn rewrite_unpruned(vh: &VectorH, plan: &LogicalPlan) -> vectorh_common::Result<PhysPlan> {
    let options = RewriterOptions {
        nodes: vh.workers().len(),
        ..RewriterOptions::default()
    };
    ParallelRewriter::new(&EngineCatalog(vh), options).rewrite(plan)
}

/// Every scan of `plan` as `table[sorted columns]`, sorted.
fn scanned(plan: &PhysPlan) -> String {
    fn walk(p: &PhysPlan, out: &mut Vec<String>) {
        if let PhysPlan::ScanPartitioned { table, cols, .. }
        | PhysPlan::ScanReplicated { table, cols, .. } = p
        {
            let mut set = cols.clone();
            set.sort_unstable();
            out.push(format!("{table}{set:?}"));
        }
        for c in p.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out.sort();
    out.join(" ")
}

/// `explain()` with every position list blanked: what is left is the
/// operator tree, the scanned tables, the pushed-down predicates and the
/// join and aggregate strategies.
fn masked(explain: &str) -> String {
    let mut out = String::new();
    for line in explain.lines() {
        let mut rest = line;
        // `Scan[table]` is a name, not a list.
        if let Some(end) = rest
            .find("] ")
            .filter(|_| rest.trim_start().starts_with("Scan["))
        {
            out.push_str(&rest[..end + 1]);
            rest = &rest[end + 1..];
        }
        while let Some(open) = rest.find('[') {
            let close = open + rest[open..].find(']').expect("balanced list");
            out.push_str(&rest[..open]);
            out.push_str("[..]");
            rest = &rest[close + 1..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// What each query's scans read once pruned. Recorded at `a44c8f0`, the last
/// commit with hand-built logical plans, where the SQL and the hand plan of
/// every query read exactly these sets (each hand plan of a two-step query
/// contributing its steps' scans).
const COLUMNS_READ: [&str; N_QUERIES] = [
    "Q1: lineitem[4, 5, 6, 7, 8, 9, 10]",
    "Q2: nation[0, 1, 2] nation[0, 2] part[0, 2, 4, 5] partsupp[0, 1, 3] partsupp[0, 1, 3] region[0, 1] region[0, 1] supplier[0, 1, 2, 3, 4, 5, 6] supplier[0, 3]",
    "Q3: customer[0, 6] lineitem[0, 5, 6, 10] orders[0, 1, 4, 6]",
    "Q4: lineitem[0, 11, 12] orders[0, 4, 5]",
    "Q5: customer[0, 3] lineitem[0, 2, 5, 6] nation[0, 1, 2] orders[0, 1, 4] region[0, 1] supplier[0, 3]",
    "Q6: lineitem[4, 5, 6, 10]",
    "Q7: customer[0, 3] lineitem[0, 2, 5, 6, 10] nation[0, 1] nation[0, 1] orders[0, 1] supplier[0, 3]",
    "Q8: customer[0, 3] lineitem[0, 1, 2, 5, 6] nation[0, 1] nation[0, 2] orders[0, 1, 4] part[0, 4] region[0, 1] supplier[0, 3]",
    "Q9: lineitem[0, 1, 2, 4, 5, 6] nation[0, 1] orders[0, 4] part[0, 1] partsupp[0, 1, 3] supplier[0, 3]",
    "Q10: customer[0, 1, 2, 3, 4, 5, 7] lineitem[0, 5, 6, 8] nation[0, 1] orders[0, 1, 4]",
    "Q11: nation[0, 1] nation[0, 1] partsupp[0, 1, 2, 3] partsupp[1, 2, 3] supplier[0, 3] supplier[0, 3]",
    "Q12: lineitem[0, 10, 11, 12, 14] orders[0, 5]",
    "Q13: customer[0] orders[1, 7]",
    "Q14: lineitem[1, 5, 6, 10] part[0, 4]",
    "Q15: lineitem[2, 5, 6, 10] lineitem[2, 5, 6, 10] supplier[0, 1, 2, 4]",
    "Q16: part[0, 3, 4, 5] partsupp[0, 1] supplier[0, 6]",
    "Q17: lineitem[1, 4, 5] lineitem[1, 4] part[0, 3, 6]",
    "Q18: customer[0, 1] lineitem[0, 4] lineitem[0, 4] orders[0, 1, 3, 4]",
    "Q19: lineitem[1, 4, 5, 6, 13, 14] part[0, 3, 5, 6]",
    "Q20: lineitem[1, 2, 4, 10] nation[0, 1] part[0, 1] partsupp[0, 1, 2] supplier[0, 1, 2, 3]",
    "Q21: lineitem[0, 2, 11, 12] lineitem[0, 2, 11, 12] lineitem[0, 2] nation[0, 1] orders[0, 2] supplier[0, 1, 3]",
    "Q22: customer[0, 4, 5] customer[4, 5] orders[1]",
];

#[test]
fn sql_plans_scan_the_pinned_columns() {
    let vh = engine();
    let mut diffs = Vec::new();
    for (qn, want) in (1..=N_QUERIES).zip(COLUMNS_READ) {
        let sql = vh.parse(sql_text(qn).unwrap()).unwrap();
        let got = format!("Q{qn}: {}", scanned(&vh.optimize(&sql).unwrap()));
        if got != want {
            diffs.push(format!("  got  {got}\n  want {want}"));
        }
    }
    assert!(diffs.is_empty(), "\n{}", diffs.join("\n"));
}

#[test]
fn pruning_changes_nothing_but_the_column_lists() {
    let vh = engine();
    for qn in 1..=N_QUERIES {
        let p = vh.parse(sql_text(qn).unwrap()).unwrap();
        let before = rewrite_unpruned(&vh, &p).unwrap().explain();
        let after = vh.optimize(&p).unwrap().explain();
        assert_eq!(masked(&after), masked(&before), "Q{qn}\n{after}\n{before}");
    }
}

#[test]
fn pruning_is_idempotent_and_bites_every_sql_plan() {
    let vh = engine();
    let catalog = EngineCatalog(&vh);
    for qn in 1..=N_QUERIES {
        let sql = vh.parse(sql_text(qn).unwrap()).unwrap();
        let once = prune_columns(&sql, &catalog).unwrap();
        assert_ne!(
            once, sql,
            "Q{qn}: SQL names every column, pruning must bite"
        );
        assert_eq!(prune_columns(&once, &catalog).unwrap(), once, "Q{qn}");
    }
}

#[test]
fn q6_from_sql_reads_four_columns() {
    let vh = engine();
    let explain = vh.explain(sql_text(6).unwrap()).unwrap();
    assert!(
        explain.contains("Scan[lineitem] (partitioned) cols=[4, 5, 6, 10] +minmax-pred"),
        "{explain}"
    );
}

#[test]
fn count_star_keeps_one_column_and_counts_every_row() {
    let vh = engine();
    // Partitioned and replicated; the scan keeps the narrowest fixed-width
    // column (`o_orderdate`, `n_nationkey`), not zero columns.
    for (table, kept) in [("orders", "cols=[4]"), ("nation", "cols=[0]")] {
        let sql = format!("select count(*) from {table}");
        let want = vh.table_rows(table).unwrap() as i64;
        assert!(want > 0);
        assert_eq!(vh.query(&sql).unwrap(), vec![vec![Value::I64(want)]]);
        let explain = vh.explain(&sql).unwrap();
        assert!(explain.contains(kept), "{explain}");
        // The same through a plan that scans no column at all, which the
        // rewriter on its own refuses.
        let no_cols = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: table.into(),
                cols: vec![],
            }),
            group_by: vec![],
            aggs: vec![AggFn::CountStar],
        };
        assert_eq!(
            vh.query_logical(&no_cols).unwrap(),
            vec![vec![Value::I64(want)]]
        );
        assert!(rewrite_unpruned(&vh, &no_cols).is_err());
    }
}

// --- differential execution: pruned against unpruned ------------------------

/// Foreign keys of the TPC-H schema: (child, child columns, parent, parent
/// columns).
const FK_EDGES: [(&str, &[usize], &str, &[usize]); 10] = [
    ("lineitem", &[0], "orders", &[0]),
    ("lineitem", &[1], "part", &[0]),
    ("lineitem", &[2], "supplier", &[0]),
    ("lineitem", &[1, 2], "partsupp", &[0, 1]),
    ("orders", &[1], "customer", &[0]),
    ("customer", &[3], "nation", &[0]),
    ("supplier", &[3], "nation", &[0]),
    ("nation", &[2], "region", &[0]),
    ("partsupp", &[0], "part", &[0]),
    ("partsupp", &[1], "supplier", &[0]),
];

/// A plan under construction and, per output position, the table column it
/// forwards unchanged (what a join key may be taken from).
struct Rel {
    plan: LogicalPlan,
    origin: Vec<Option<(&'static str, usize)>>,
}

struct PlanGen<'a> {
    rng: SplitMix64,
    vh: &'a VectorH,
}

impl PlanGen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.next_bounded(n as u64) as usize
    }

    fn dtypes(&self, plan: &LogicalPlan) -> Vec<DataType> {
        let schema = plan
            .schema(&EngineCatalog(self.vh))
            .expect("generated plan types");
        (0..schema.len()).map(|i| schema.dtype(i)).collect()
    }

    /// A predicate on output column `c` that keeps some rows and drops some.
    fn pred(&mut self, c: usize, dtype: DataType) -> Expr {
        let col = Expr::col(c);
        match dtype {
            DataType::I64 | DataType::I32 => {
                let v = self.rng.range_i64(1, 40);
                let lit = if dtype == DataType::I64 {
                    Value::I64(v)
                } else {
                    Value::I32(v as i32)
                };
                match self.below(3) {
                    0 => Expr::ge(col, Expr::lit(lit)),
                    1 => Expr::ne(col, Expr::lit(lit)),
                    _ => Expr::InList(Box::new(col), vec![lit, Value::I64(3), Value::I64(7)]),
                }
            }
            DataType::Decimal { scale } => {
                let v = Value::Decimal(self.rng.range_i64(0, 5_000_000), scale);
                if self.rng.chance(0.5) {
                    Expr::lt(col, Expr::lit(v))
                } else {
                    Expr::ge(col, Expr::lit(v))
                }
            }
            // 1992-01-01 .. 1998-12-31 are days 8035 .. 10591.
            DataType::Date => {
                let lo = self.rng.range_i64(8000, 10000) as i32;
                Expr::Between(
                    Box::new(col),
                    Box::new(Expr::lit(Value::Date(lo))),
                    Box::new(Expr::lit(Value::Date(lo + 900))),
                )
            }
            DataType::Str => {
                let pat = ["%a%", "%e%", "%1%", "A%", "%s"][self.below(5)].to_string();
                if self.rng.chance(0.5) {
                    Expr::Like(Box::new(col), pat)
                } else {
                    Expr::NotLike(Box::new(col), pat)
                }
            }
            DataType::F64 => Expr::ge(col, Expr::lit(Value::F64(0.0))),
        }
    }

    /// Maybe a conjunctive filter over one or two random columns.
    fn filtered(&mut self, rel: Rel) -> Rel {
        if self.rng.chance(0.4) {
            return rel;
        }
        let dtypes = self.dtypes(&rel.plan);
        let mut conj: Vec<Expr> = (0..1 + self.below(2))
            .map(|_| {
                let c = self.below(dtypes.len());
                self.pred(c, dtypes[c])
            })
            .collect();
        let predicate = if conj.len() == 1 {
            conj.remove(0)
        } else {
            Expr::and(conj)
        };
        Rel {
            plan: LogicalPlan::Select {
                input: Box::new(rel.plan),
                predicate,
            },
            origin: rel.origin,
        }
    }

    /// Maybe a derived-table projection: a random subset of the input in
    /// random order (`must` positions always forwarded) plus, sometimes, a
    /// computed item.
    fn projected(&mut self, rel: Rel, must: &[usize]) -> Rel {
        if self.rng.chance(0.5) {
            return rel;
        }
        let dtypes = self.dtypes(&rel.plan);
        let mut picks: Vec<usize> = (0..dtypes.len())
            .filter(|c| must.contains(c) || self.rng.chance(0.6))
            .collect();
        if picks.is_empty() {
            picks.push(0);
        }
        self.rng.shuffle(&mut picks);
        let mut items: Vec<(Expr, String)> = picks
            .iter()
            .map(|c| (Expr::col(*c), format!("c{c}")))
            .collect();
        let mut origin: Vec<_> = picks.iter().map(|c| rel.origin[*c]).collect();
        let c = self.below(dtypes.len());
        let computed = match dtypes[c] {
            DataType::Decimal { .. } => Some(Expr::mul(Expr::col(c), Expr::col(c))),
            DataType::Date => Some(Expr::ExtractYear(Box::new(Expr::col(c)))),
            DataType::Str => Some(Expr::Substr(Box::new(Expr::col(c)), 1, 2)),
            _ => None,
        };
        if let Some(e) = computed.filter(|_| self.rng.chance(0.5)) {
            items.push((e, "computed".into()));
            origin.push(None);
        }
        Rel {
            plan: LogicalPlan::Project {
                input: Box::new(rel.plan),
                items,
            },
            origin,
        }
    }

    /// A scan of `table`: a random subset of its columns in random order,
    /// always with `must`; then maybe a filter and a projection.
    fn base(&mut self, table: &'static str, must: &[usize]) -> Rel {
        let width = self.vh.table(table).unwrap().def.schema.len();
        let mut cols: Vec<usize> = (0..width)
            .filter(|c| must.contains(c) || self.rng.chance(0.35))
            .collect();
        if cols.is_empty() {
            cols.push(self.below(width));
        }
        self.rng.shuffle(&mut cols);
        let rel = Rel {
            origin: cols.iter().map(|c| Some((table, *c))).collect(),
            plan: LogicalPlan::Scan {
                table: table.into(),
                cols,
            },
        };
        let rel = self.filtered(rel);
        let keep: Vec<usize> = (0..rel.origin.len())
            .filter(|p| matches!(rel.origin[*p], Some((_, c)) if must.contains(&c)))
            .collect();
        self.projected(rel, &keep)
    }

    /// Join `rel` with a fresh table along a foreign key whose columns on
    /// this side `rel` still forwards; `None` when there is no such key.
    fn joined(&mut self, rel: Rel) -> Option<Rel> {
        let position = |rel: &Rel, table: &str, col: usize| {
            rel.origin.iter().position(|o| *o == Some((table, col)))
        };
        // (positions in `rel`, the other table, its key columns)
        let mut options: Vec<(Vec<usize>, &'static str, &'static [usize])> = Vec::new();
        for (child, ccols, parent, pcols) in FK_EDGES {
            for (here, hcols, there, tcols) in
                [(child, ccols, parent, pcols), (parent, pcols, child, ccols)]
            {
                let found: Option<Vec<usize>> =
                    hcols.iter().map(|c| position(&rel, here, *c)).collect();
                if let Some(found) = found {
                    options.push((found, there, tcols));
                }
            }
        }
        if options.is_empty() {
            return None;
        }
        let (here_keys, table, there_cols) = options.swap_remove(self.below(options.len()));
        let other = self.base(table, there_cols);
        let there_keys: Vec<usize> = there_cols
            .iter()
            .map(|c| {
                other
                    .origin
                    .iter()
                    .position(|o| *o == Some((table, *c)))
                    .expect("base() forwards the key columns")
            })
            .collect();
        let kind = [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ][self.below(4)];
        let (left, right, left_keys, right_keys) = if self.rng.chance(0.5) {
            (rel, other, here_keys, there_keys)
        } else {
            (other, rel, there_keys, here_keys)
        };
        let mut origin = left.origin;
        match kind {
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Inner => origin.extend(right.origin),
            JoinKind::LeftOuter => {
                // Unmatched rows carry defaults on the right: not a key.
                origin.extend(right.origin.iter().map(|_| None));
                origin.push(None);
            }
        }
        Some(Rel {
            plan: LogicalPlan::Join {
                left: Box::new(left.plan),
                right: Box::new(right.plan),
                left_keys,
                right_keys,
                kind,
            },
            origin,
        })
    }

    /// An aggregate over `plan`: global (sometimes `count(*)` alone) or
    /// grouped (sometimes without aggregates, i.e. DISTINCT), sometimes
    /// counting distinct values of a column the way the SQL front end plans
    /// it: an aggregate on the keys over one on the keys and that column.
    fn aggregated(&mut self, plan: LogicalPlan) -> LogicalPlan {
        if self.rng.chance(0.15) {
            return LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: vec![],
                aggs: vec![AggFn::CountStar],
            };
        }
        let dtypes = self.dtypes(&plan);
        let numeric =
            |d: DataType| matches!(d, DataType::I64 | DataType::I32 | DataType::Decimal { .. });
        let mut group_by: Vec<usize> = Vec::new();
        for _ in 0..self.below(3) {
            let c = self.below(dtypes.len());
            if dtypes[c] != DataType::F64 && !group_by.contains(&c) {
                group_by.push(c);
            }
        }
        let mut aggs: Vec<AggFn> = Vec::new();
        let mut distinct = None;
        for _ in 0..self.below(4) {
            let c = self.below(dtypes.len());
            let f = match self.below(7) {
                0 => AggFn::CountStar,
                1 => AggFn::Count(c),
                2 if numeric(dtypes[c]) => AggFn::Sum(c),
                3 if numeric(dtypes[c]) => AggFn::Avg(c),
                4 => AggFn::Min(c),
                5 => AggFn::Max(c),
                6 if dtypes[c] != DataType::F64 => {
                    distinct.get_or_insert(c);
                    continue;
                }
                _ => AggFn::CountStar,
            };
            if !aggs.contains(&f) {
                aggs.push(f);
            }
        }
        if let Some(c) = distinct {
            // The outer aggregate counts the inner groups and takes the
            // greatest of each inner aggregate.
            let mut keys = group_by.clone();
            if !keys.contains(&c) {
                keys.push(c);
            }
            let outer = std::iter::once(AggFn::CountStar)
                .chain((keys.len()..keys.len() + aggs.len()).map(AggFn::Max))
                .collect();
            let inner = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: keys,
                aggs,
            };
            return LogicalPlan::Aggregate {
                input: Box::new(inner),
                group_by: (0..group_by.len()).collect(),
                aggs: outer,
            };
        }
        if group_by.is_empty() && aggs.is_empty() {
            aggs.push(AggFn::CountStar);
        }
        LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggs,
        }
    }

    /// Maybe a sort. With a limit it orders on every output column, so which
    /// rows survive does not depend on the order they arrived in.
    fn sorted(&mut self, plan: LogicalPlan) -> LogicalPlan {
        let width = plan.width();
        let dir = |rng: &mut SplitMix64| if rng.chance(0.5) { Dir::Asc } else { Dir::Desc };
        match self.below(4) {
            0 => plan,
            1 => {
                let keys = (0..1 + self.below(2))
                    .map(|_| (self.below(width), dir(&mut self.rng)))
                    .collect();
                LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                    limit: None,
                }
            }
            shape => {
                let mut all: Vec<usize> = (0..width).collect();
                self.rng.shuffle(&mut all);
                let keys = all.into_iter().map(|c| (c, dir(&mut self.rng))).collect();
                let n = 1 + self.below(40);
                if shape == 2 {
                    LogicalPlan::Sort {
                        input: Box::new(plan),
                        keys,
                        limit: Some(n),
                    }
                } else {
                    LogicalPlan::Limit {
                        input: Box::new(LogicalPlan::Sort {
                            input: Box::new(plan),
                            keys,
                            limit: None,
                        }),
                        n,
                    }
                }
            }
        }
    }

    fn plan(&mut self) -> LogicalPlan {
        let tables = schema::table_names();
        let start = tables[self.below(tables.len())];
        let mut rel = self.base(start, &[]);
        for _ in 0..self.below(3) {
            match self.joined(rel) {
                Some(joined) => rel = self.filtered(joined),
                None => return self.plan(),
            }
        }
        let rel = self.projected(rel, &[]);
        let plan = if self.rng.chance(0.6) {
            self.aggregated(rel.plan)
        } else {
            rel.plan
        };
        self.sorted(plan)
    }
}

#[test]
fn generated_plans_answer_the_same_pruned_and_unpruned() {
    let vh = engine();
    let catalog = EngineCatalog(&vh);
    let (mut bitten, mut nonempty) = (0, 0);
    for seed in 0..240u64 {
        let plan = PlanGen {
            rng: SplitMix64::new(0xC01_u64.wrapping_add(seed.wrapping_mul(0x9E37_79B9))),
            vh: &vh,
        }
        .plan();
        let fail = |what: &str| -> String { format!("seed {seed}: {what}\n{plan:#?}") };
        let pruned = vh
            .query_logical(&plan)
            .unwrap_or_else(|e| panic!("{}", fail(&format!("pruned run failed: {e}"))));
        let unpruned = rewrite_unpruned(&vh, &plan)
            .and_then(|phys| vh.run_physical_public(&phys))
            .unwrap_or_else(|e| panic!("{}", fail(&format!("unpruned run failed: {e}"))))
            .0;
        assert_eq!(
            fingerprint_rows(&canonical(pruned.clone())),
            fingerprint_rows(&canonical(unpruned)),
            "{}",
            fail("pruned and unpruned answers differ")
        );
        bitten += (prune_columns(&plan, &catalog).unwrap() != plan) as usize;
        nonempty += !pruned.is_empty() as usize;
    }
    // The comparison must not be vacuous.
    assert!(bitten >= 120, "pruning changed only {bitten} of 240 plans");
    assert!(
        nonempty >= 120,
        "only {nonempty} of 240 plans returned rows"
    );
}

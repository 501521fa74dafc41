//! Column pruning: a scan reads the columns the plan uses.
//!
//! One pure pass over a [`LogicalPlan`], run before the Parallel Rewriter.
//! It walks top-down with the set of output positions the parent needs (the
//! root needs all of its output) and returns each rewritten child together
//! with a **position map**, old output position → new output position,
//! `None` for a column that is gone. The parent applies that map to every
//! position it holds: expressions through [`Expr::map_cols`], join keys,
//! group-by columns, aggregate arguments and sort keys.
//!
//! * `Scan.cols` shrinks to the referenced columns, in their existing order.
//! * `Project` drops the items its parent does not need.
//! * `Select`, `Sort` and `Aggregate` add what they reference to what is
//!   asked of them; `Aggregate` keeps all of its own output.
//! * `Join` adds its keys; `Semi`/`Anti` need nothing but the keys from the
//!   right side; `LeftOuter`'s trailing `__matched` moves with the narrowed
//!   schema.
//!
//! A node never ends up with zero output columns, because a zero-column
//! batch has no row count: a scan nobody reads a column of (`select
//! count(*) from t`) keeps the table's narrowest fixed-width column, and a
//! projection nobody reads an item of keeps its first.
//!
//! Relative column order is preserved everywhere, so a plan whose root needs
//! all of its output keeps its output schema, a plan that already reads only
//! what it uses is a fixed point, and the pass is idempotent.

use vectorh_common::{Result, Schema, VhError};
use vectorh_exec::expr::Expr;

use crate::logical::{CatalogInfo, JoinKind, LogicalPlan};

/// `plan` with every scan narrowed to the columns the plan uses. The output
/// schema and the answer are those of `plan`.
pub fn prune_columns(plan: &LogicalPlan, catalog: &dyn CatalogInfo) -> Result<LogicalPlan> {
    Ok(prune(plan, &vec![true; plan.width()], catalog)?.plan)
}

struct Pruned {
    plan: LogicalPlan,
    /// Old output position → new output position; every position the parent
    /// asked for is `Some`.
    map: Vec<Option<usize>>,
}

impl Pruned {
    fn at(&self, c: usize) -> usize {
        self.map[c].expect("a column the parent asked for survives pruning")
    }

    fn expr(&self, e: &Expr) -> Expr {
        e.map_cols(&mut |c| self.at(c))
    }

    fn positions(&self, cols: &[usize]) -> Vec<usize> {
        cols.iter().map(|c| self.at(*c)).collect()
    }
}

fn mark(c: usize, need: &mut [bool]) -> Result<()> {
    match need.get_mut(c) {
        Some(n) => {
            *n = true;
            Ok(())
        }
        None => Err(VhError::Plan(format!(
            "column {c} out of range: the input has {} columns",
            need.len()
        ))),
    }
}

fn mark_expr(e: &Expr, need: &mut [bool]) -> Result<()> {
    let mut result = Ok(());
    e.map_cols(&mut |c| {
        if let Err(e) = mark(c, need) {
            result = Err(e);
        }
        c
    });
    result
}

/// The entries of `xs` at the positions `keep` marks.
fn survivors<'a, T>(xs: &'a [T], keep: &'a [bool]) -> impl Iterator<Item = &'a T> {
    xs.iter().zip(keep).filter(|(_, k)| **k).map(|(x, _)| x)
}

/// The position map of a node that keeps exactly the positions `keep` marks,
/// in order.
fn renumbered(keep: &[bool]) -> Vec<Option<usize>> {
    let mut next = 0;
    keep.iter()
        .map(|k| {
            k.then(|| {
                next += 1;
                next - 1
            })
        })
        .collect()
}

/// The cheapest column to decode when only the row count matters.
fn narrowest_column(table: &str, schema: &Schema) -> Result<usize> {
    let fields = schema.fields();
    if fields.is_empty() {
        return Err(VhError::Plan(format!("table '{table}' has no columns")));
    }
    Ok(fields
        .iter()
        .enumerate()
        .filter(|(_, f)| f.dtype.is_fixed_width())
        .min_by_key(|(_, f)| f.dtype.width())
        .map_or(0, |(i, _)| i))
}

/// Prune `plan` given which of its output positions the parent needs
/// (`need.len()` is `plan.width()`).
fn prune(plan: &LogicalPlan, need: &[bool], catalog: &dyn CatalogInfo) -> Result<Pruned> {
    Ok(match plan {
        LogicalPlan::Scan { table, cols } => {
            let mut kept: Vec<usize> = survivors(cols, need).copied().collect();
            if kept.is_empty() {
                kept.push(narrowest_column(table, &catalog.table(table)?.schema)?);
            }
            Pruned {
                plan: LogicalPlan::Scan {
                    table: table.clone(),
                    cols: kept,
                },
                map: renumbered(need),
            }
        }
        LogicalPlan::Select { input, predicate } => {
            let mut need = need.to_vec();
            mark_expr(predicate, &mut need)?;
            let child = prune(input, &need, catalog)?;
            Pruned {
                plan: LogicalPlan::Select {
                    predicate: child.expr(predicate),
                    input: Box::new(child.plan),
                },
                map: child.map,
            }
        }
        LogicalPlan::Project { input, items } => {
            let mut keep = need.to_vec();
            if !keep.contains(&true) {
                if let Some(first) = keep.first_mut() {
                    *first = true;
                }
            }
            let mut child_need = vec![false; input.width()];
            for (e, _) in survivors(items, &keep) {
                mark_expr(e, &mut child_need)?;
            }
            let child = prune(input, &child_need, catalog)?;
            Pruned {
                plan: LogicalPlan::Project {
                    items: survivors(items, &keep)
                        .map(|(e, name)| (child.expr(e), name.clone()))
                        .collect(),
                    input: Box::new(child.plan),
                },
                map: renumbered(&keep),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            kind,
        } => {
            let (lw, rw) = (left.width(), right.width());
            let mut lneed = need[..lw].to_vec();
            let mut rneed = match kind {
                JoinKind::Semi | JoinKind::Anti => vec![false; rw],
                JoinKind::Inner | JoinKind::LeftOuter => need[lw..lw + rw].to_vec(),
            };
            for k in left_keys {
                mark(*k, &mut lneed)?;
            }
            for k in right_keys {
                mark(*k, &mut rneed)?;
            }
            let l = prune(left, &lneed, catalog)?;
            let r = prune(right, &rneed, catalog)?;
            let (left_keys, right_keys) = (l.positions(left_keys), r.positions(right_keys));
            let new_lw = l.plan.width();
            let mut map = l.map;
            if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                map.extend(r.map.iter().map(|p| p.map(|p| new_lw + p)));
            }
            if *kind == JoinKind::LeftOuter {
                map.push(Some(new_lw + r.plan.width()));
            }
            Pruned {
                plan: LogicalPlan::Join {
                    left: Box::new(l.plan),
                    right: Box::new(r.plan),
                    left_keys,
                    right_keys,
                    kind: *kind,
                },
                map,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut child_need = vec![false; input.width()];
            for c in group_by
                .iter()
                .copied()
                .chain(aggs.iter().filter_map(|a| a.col()))
            {
                mark(c, &mut child_need)?;
            }
            let child = prune(input, &child_need, catalog)?;
            Pruned {
                map: (0..plan.width()).map(Some).collect(),
                plan: LogicalPlan::Aggregate {
                    group_by: child.positions(group_by),
                    aggs: aggs.iter().map(|a| a.map_col(|c| child.at(c))).collect(),
                    input: Box::new(child.plan),
                },
            }
        }
        LogicalPlan::Sort { input, keys, limit } => {
            let mut need = need.to_vec();
            for (k, _) in keys {
                mark(*k, &mut need)?;
            }
            let child = prune(input, &need, catalog)?;
            Pruned {
                plan: LogicalPlan::Sort {
                    keys: keys.iter().map(|(k, d)| (child.at(*k), *d)).collect(),
                    limit: *limit,
                    input: Box::new(child.plan),
                },
                map: child.map,
            }
        }
        LogicalPlan::Limit { input, n } => {
            let child = prune(input, need, catalog)?;
            Pruned {
                plan: LogicalPlan::Limit {
                    input: Box::new(child.plan),
                    n: *n,
                },
                map: child.map,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{MemoryCatalog, TableMeta};
    use vectorh_common::{DataType, Value};
    use vectorh_exec::aggr::AggFn;
    use vectorh_exec::sort::Dir;

    /// `t(k i64, s str, d date, v decimal, w i64)` and `u(k i64, name str)`.
    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.add(TableMeta {
            name: "t".into(),
            schema: Schema::of(&[
                ("k", DataType::I64),
                ("s", DataType::Str),
                ("d", DataType::Date),
                ("v", DataType::Decimal { scale: 2 }),
                ("w", DataType::I64),
            ]),
            rows: 1000,
            partitioning: Some((vec![0], 4)),
            sort_order: None,
        });
        c.add(TableMeta {
            name: "u".into(),
            schema: Schema::of(&[("k", DataType::I64), ("name", DataType::Str)]),
            rows: 10,
            partitioning: None,
            sort_order: None,
        });
        c
    }

    fn scan(table: &str, cols: &[usize]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            cols: cols.to_vec(),
        }
    }

    fn project(input: LogicalPlan, items: Vec<Expr>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(input),
            items: items.into_iter().map(|e| (e, "x".into())).collect(),
        }
    }

    fn join(
        left: LogicalPlan,
        right: LogicalPlan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
            kind,
        }
    }

    fn pruned(plan: &LogicalPlan) -> LogicalPlan {
        let c = catalog();
        let once = prune_columns(plan, &c).unwrap();
        assert_eq!(prune_columns(&once, &c).unwrap(), once, "idempotent");
        assert_eq!(
            once.schema(&c).unwrap(),
            plan.schema(&c).unwrap(),
            "same output"
        );
        once
    }

    #[test]
    fn scan_shrinks_to_the_referenced_columns_in_their_existing_order() {
        let plan = project(
            scan("t", &[4, 3, 2, 1, 0]),
            vec![Expr::col(4), Expr::col(1)],
        );
        assert_eq!(
            pruned(&plan),
            project(scan("t", &[3, 0]), vec![Expr::col(1), Expr::col(0)])
        );
        // A root scan is asked for everything it has.
        assert_eq!(pruned(&scan("t", &[2, 0])), scan("t", &[2, 0]));
    }

    #[test]
    fn select_predicate_is_rebased_onto_the_narrowed_scan() {
        let filter = |input, col| LogicalPlan::Select {
            input: Box::new(input),
            predicate: Expr::lt(Expr::col(col), Expr::lit(Value::Date(9000))),
        };
        let plan = project(filter(scan("t", &[0, 1, 2, 3]), 2), vec![Expr::col(3)]);
        assert_eq!(
            pruned(&plan),
            project(filter(scan("t", &[2, 3]), 0), vec![Expr::col(1)])
        );
    }

    #[test]
    fn project_drops_the_items_its_parent_does_not_need() {
        let inner = project(
            scan("t", &[0, 1, 2, 3, 4]),
            vec![
                Expr::col(1),
                Expr::mul(Expr::col(3), Expr::col(3)),
                Expr::col(0),
            ],
        );
        let plan = LogicalPlan::Aggregate {
            input: Box::new(inner),
            group_by: vec![2],
            aggs: vec![AggFn::Sum(1), AggFn::CountStar],
        };
        assert_eq!(
            pruned(&plan),
            LogicalPlan::Aggregate {
                input: Box::new(project(
                    scan("t", &[0, 3]),
                    vec![Expr::mul(Expr::col(1), Expr::col(1)), Expr::col(0)],
                )),
                group_by: vec![1],
                aggs: vec![AggFn::Sum(0), AggFn::CountStar],
            }
        );
    }

    #[test]
    fn join_keys_stay_and_the_output_is_renumbered() {
        // [t.k, t.s, t.v | u.k, u.name] -> name, v
        let plan = project(
            join(
                scan("t", &[0, 1, 3]),
                scan("u", &[0, 1]),
                &[0],
                &[0],
                JoinKind::Inner,
            ),
            vec![Expr::col(4), Expr::col(2)],
        );
        assert_eq!(
            pruned(&plan),
            project(
                join(
                    scan("t", &[0, 3]),
                    scan("u", &[0, 1]),
                    &[0],
                    &[0],
                    JoinKind::Inner
                ),
                vec![Expr::col(3), Expr::col(1)],
            )
        );
    }

    #[test]
    fn semi_and_anti_joins_need_only_the_right_sides_keys() {
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let plan = project(
                join(scan("t", &[1, 4, 0]), scan("u", &[1, 0]), &[2], &[1], kind),
                vec![Expr::col(0)],
            );
            assert_eq!(
                pruned(&plan),
                project(
                    join(scan("t", &[1, 0]), scan("u", &[0]), &[1], &[0], kind),
                    vec![Expr::col(0)],
                )
            );
        }
    }

    #[test]
    fn left_outer_matched_column_moves_with_the_narrowed_schema() {
        // [t.k, t.s | u.k, u.name | __matched(4)]
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join(
                scan("t", &[0, 1]),
                scan("u", &[0, 1]),
                &[0],
                &[0],
                JoinKind::LeftOuter,
            )),
            group_by: vec![0],
            aggs: vec![AggFn::Sum(4)],
        };
        assert_eq!(
            pruned(&plan),
            LogicalPlan::Aggregate {
                input: Box::new(join(
                    scan("t", &[0]),
                    scan("u", &[0]),
                    &[0],
                    &[0],
                    JoinKind::LeftOuter,
                )),
                group_by: vec![0],
                aggs: vec![AggFn::Sum(2)],
            }
        );
    }

    #[test]
    fn sort_keys_and_limit_pass_through() {
        let plan = project(
            LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Sort {
                    input: Box::new(scan("t", &[0, 1, 2, 3])),
                    keys: vec![(2, Dir::Desc)],
                    limit: None,
                }),
                n: 5,
            },
            vec![Expr::col(3)],
        );
        assert_eq!(
            pruned(&plan),
            project(
                LogicalPlan::Limit {
                    input: Box::new(LogicalPlan::Sort {
                        input: Box::new(scan("t", &[2, 3])),
                        keys: vec![(0, Dir::Desc)],
                        limit: None,
                    }),
                    n: 5,
                },
                vec![Expr::col(1)],
            )
        );
    }

    #[test]
    fn a_scan_nobody_reads_keeps_the_narrowest_fixed_width_column() {
        let count = |input| LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![AggFn::CountStar],
        };
        // `d` (a 4-byte date) beats the 8-byte and the string columns,
        // whatever the plan listed, even nothing.
        assert_eq!(
            pruned(&count(scan("t", &[0, 1, 3]))),
            count(scan("t", &[2]))
        );
        assert_eq!(pruned(&count(scan("t", &[]))), count(scan("t", &[2])));
        assert_eq!(pruned(&count(scan("u", &[1]))), count(scan("u", &[0])));
        // A projection nobody reads keeps its first item, and only that
        // item's input.
        let derived = project(scan("t", &[0, 1, 3]), vec![Expr::col(2), Expr::col(1)]);
        assert_eq!(
            pruned(&count(derived)),
            count(project(scan("t", &[3]), vec![Expr::col(0)]))
        );
        // A keyless (cross) join asks neither side for anything.
        let cross = join(
            scan("t", &[0, 1]),
            count(scan("u", &[0, 1])),
            &[],
            &[],
            JoinKind::Inner,
        );
        assert_eq!(
            pruned(&project(cross, vec![Expr::col(2)])),
            project(
                join(
                    scan("t", &[2]),
                    count(scan("u", &[0])),
                    &[],
                    &[],
                    JoinKind::Inner
                ),
                vec![Expr::col(1)],
            )
        );
    }

    #[test]
    fn a_reference_past_the_input_is_a_plan_error() {
        let c = catalog();
        let bad_expr = project(scan("t", &[0, 1]), vec![Expr::col(2)]);
        let bad_key = join(
            scan("t", &[0]),
            scan("u", &[0]),
            &[1],
            &[0],
            JoinKind::Inner,
        );
        let bad_agg = LogicalPlan::Aggregate {
            input: Box::new(scan("t", &[0])),
            group_by: vec![],
            aggs: vec![AggFn::Sum(3)],
        };
        for plan in [bad_expr, bad_key, bad_agg] {
            let err = prune_columns(&plan, &c).unwrap_err();
            assert!(matches!(err, VhError::Plan(_)), "{err}");
        }
        assert!(prune_columns(&scan("nope", &[]), &c).is_err());
    }
}

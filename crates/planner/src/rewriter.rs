//! The Parallel Rewriter (§5).
//!
//! Turns a serial logical plan into a distributed physical plan by choosing,
//! per operator, among cost-ranked alternatives — the search the paper
//! formulates as dynamic programming over states `(operator, structural
//! properties, parallelism)`. The structural properties tracked here are
//! **partitioning** (which output columns the streams are partitioned on,
//! and whether that partitioning is aligned with table partitioning so
//! co-located execution is possible), **sorting** (clustered-index order
//! survives scans/filters, enabling co-ordered merge joins) and
//! **replication** (the subtree is present on every node).
//!
//! The §5 rewrite rules, each independently togglable for the ablation
//! benchmark:
//!
//! * **local join** — both sides partitioned on the join key with the same
//!   partition count ⇒ join matching partitions without any DXchg;
//! * **replicate build side** — a replicated (or small, broadcast) build
//!   side lets the join run wherever the probe side already is;
//! * **partial aggregation** — aggregate locally below the exchange, merge
//!   above, shrinking what crosses the network.
//!
//! The cost model "appropriately adds a high cost for Dxchg operators" —
//! network rows cost ~20× CPU rows — so the rewriter avoids communication
//! at all cost, as the paper puts it.

use vectorh_common::{Result, VhError};
use vectorh_exec::aggr::AggFn;
use vectorh_exec::expr::Expr;

use crate::logical::{CatalogInfo, JoinKind, LogicalPlan};
use crate::physical::{AggStrategy, JoinStrategy, PhysPlan};

/// Rule toggles + cost constants.
#[derive(Debug, Clone)]
pub struct RewriterOptions {
    pub enable_local_join: bool,
    pub enable_replicated_build: bool,
    pub enable_partial_aggr: bool,
    /// Build sides estimated below this row count get broadcast.
    pub broadcast_threshold_rows: f64,
    /// Cost per row crossing the network (CPU row = 1.0).
    pub net_cost_per_row: f64,
    /// Worker count (for broadcast cost).
    pub nodes: usize,
}

impl Default for RewriterOptions {
    fn default() -> Self {
        RewriterOptions {
            enable_local_join: true,
            enable_replicated_build: true,
            enable_partial_aggr: true,
            broadcast_threshold_rows: 50_000.0,
            net_cost_per_row: 20.0,
            nodes: 3,
        }
    }
}

/// Stream partitioning property.
#[derive(Debug, Clone, PartialEq)]
struct Part {
    /// Output column positions the streams are hash-partitioned on
    /// (empty = partition-aligned but the key columns are not in the
    /// output, so it cannot justify a local join).
    keys: Vec<usize>,
    /// Alignment class: table partition count, or the cluster width for
    /// exchange-produced partitionings.
    n_parts: usize,
    /// True when aligned with on-disk table partitioning (co-located).
    table_aligned: bool,
}

/// Structural properties of a candidate.
#[derive(Debug, Clone)]
struct Props {
    part: Option<Part>,
    /// Output columns the streams are sorted on (clustered order).
    sorted: Option<Vec<usize>>,
    replicated: bool,
    /// Single stream at the session master.
    serial: bool,
}

struct Candidate {
    plan: PhysPlan,
    props: Props,
    rows: f64,
    cost: f64,
}

/// The rewriter.
pub struct ParallelRewriter<'a> {
    catalog: &'a dyn CatalogInfo,
    pub options: RewriterOptions,
}

/// Map child-output key positions through a projection item list; `None`
/// when any key is not forwarded as a bare column.
fn remap_keys(keys: &[usize], items: &[(Expr, String)]) -> Option<Vec<usize>> {
    keys.iter()
        .map(|k| {
            items
                .iter()
                .position(|(e, _)| matches!(e, Expr::Col(c) if c == k))
        })
        .collect()
}

impl<'a> ParallelRewriter<'a> {
    pub fn new(catalog: &'a dyn CatalogInfo, options: RewriterOptions) -> ParallelRewriter<'a> {
        ParallelRewriter { catalog, options }
    }

    /// Rewrite a logical plan into a distributed physical plan whose result
    /// arrives as a single stream at the session master.
    pub fn rewrite(&self, lp: &LogicalPlan) -> Result<PhysPlan> {
        let cand = self.plan(lp)?;
        Ok(if cand.props.serial {
            cand.plan
        } else {
            PhysPlan::DxchgUnion {
                input: Box::new(cand.plan),
            }
        })
    }

    fn plan(&self, lp: &LogicalPlan) -> Result<Candidate> {
        match lp {
            LogicalPlan::Scan { table, cols } => self.plan_scan(table, cols),
            LogicalPlan::Select { input, predicate } => {
                let child = self.plan(input)?;
                let rows = child.rows * 0.3;
                // Push the predicate into a scan when directly below —
                // that is what enables MinMax skipping.
                let plan = match child.plan {
                    PhysPlan::ScanPartitioned {
                        table,
                        cols,
                        pred: None,
                    } => PhysPlan::ScanPartitioned {
                        table,
                        cols,
                        pred: Some(predicate.clone()),
                    },
                    PhysPlan::ScanReplicated {
                        table,
                        cols,
                        pred: None,
                    } => PhysPlan::ScanReplicated {
                        table,
                        cols,
                        pred: Some(predicate.clone()),
                    },
                    other => PhysPlan::Select {
                        input: Box::new(other),
                        predicate: predicate.clone(),
                    },
                };
                Ok(Candidate {
                    plan,
                    props: child.props,
                    rows,
                    cost: child.cost + child.rows * 0.5,
                })
            }
            LogicalPlan::Project { input, items } => {
                let child = self.plan(input)?;
                let part = child.props.part.as_ref().and_then(|p| {
                    remap_keys(&p.keys, items).map(|keys| Part { keys, ..p.clone() })
                });
                let sorted = child
                    .props
                    .sorted
                    .as_ref()
                    .and_then(|keys| remap_keys(keys, items));
                let props = Props {
                    part,
                    sorted,
                    ..child.props
                };
                Ok(Candidate {
                    plan: PhysPlan::Project {
                        input: Box::new(child.plan),
                        items: items.clone(),
                    },
                    props,
                    rows: child.rows,
                    cost: child.cost + child.rows * 0.2,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => self.plan_join(left, right, left_keys, right_keys, *kind),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => self.plan_aggregate(input, group_by, aggs),
            LogicalPlan::Sort { input, keys, limit } => {
                let child = self.plan(input)?;
                let rows = limit
                    .map(|l| l as f64)
                    .unwrap_or(child.rows)
                    .min(child.rows);
                // Partial TopN below / final above is decided by the engine
                // from the strategy implied here: Sort is always serialized.
                let input_plan = if child.props.serial {
                    child.plan
                } else {
                    PhysPlan::DxchgUnion {
                        input: Box::new(child.plan),
                    }
                };
                Ok(Candidate {
                    plan: PhysPlan::Sort {
                        input: Box::new(input_plan),
                        keys: keys.clone(),
                        limit: *limit,
                    },
                    props: Props {
                        part: None,
                        sorted: None,
                        replicated: false,
                        serial: true,
                    },
                    rows,
                    cost: child.cost + child.rows * 1.0,
                })
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.plan(input)?;
                let input_plan = if child.props.serial {
                    child.plan
                } else {
                    PhysPlan::DxchgUnion {
                        input: Box::new(child.plan),
                    }
                };
                Ok(Candidate {
                    plan: PhysPlan::Limit {
                        input: Box::new(input_plan),
                        n: *n,
                    },
                    props: Props {
                        part: None,
                        sorted: None,
                        replicated: false,
                        serial: true,
                    },
                    rows: (*n as f64).min(child.rows),
                    cost: child.cost,
                })
            }
        }
    }

    fn plan_scan(&self, table: &str, cols: &[usize]) -> Result<Candidate> {
        // A batch takes its row count from its columns: a scan of none
        // would answer with no rows at all, whatever the table holds.
        if cols.is_empty() {
            return Err(VhError::Plan(format!(
                "scan of '{table}' reads no column; prune_columns keeps one for the row count"
            )));
        }
        let meta = self.catalog.table(table)?;
        let rows = meta.rows as f64;
        // The streams are sorted on the longest prefix of the clustered order
        // the scan reads, so a pruned trailing sort column costs no property.
        let sorted: Vec<usize> = meta
            .sort_order
            .iter()
            .flatten()
            .map_while(|k| cols.iter().position(|c| c == k))
            .collect();
        let sorted = (!sorted.is_empty()).then_some(sorted);
        if meta.is_replicated() {
            Ok(Candidate {
                plan: PhysPlan::ScanReplicated {
                    table: table.into(),
                    cols: cols.to_vec(),
                    pred: None,
                },
                props: Props {
                    part: None,
                    sorted,
                    replicated: true,
                    serial: false,
                },
                rows,
                cost: rows,
            })
        } else {
            let (pkeys, n_parts) = meta.partitioning.clone().expect("partitioned");
            // Partition keys as positions in the projected output.
            let keys: Vec<usize> = pkeys
                .iter()
                .filter_map(|k| cols.iter().position(|c| c == k))
                .collect();
            let keys = if keys.len() == pkeys.len() {
                keys
            } else {
                vec![]
            };
            Ok(Candidate {
                plan: PhysPlan::ScanPartitioned {
                    table: table.into(),
                    cols: cols.to_vec(),
                    pred: None,
                },
                props: Props {
                    part: Some(Part {
                        keys,
                        n_parts,
                        table_aligned: true,
                    }),
                    sorted,
                    replicated: false,
                    serial: false,
                },
                rows,
                cost: rows,
            })
        }
    }

    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
    ) -> Result<Candidate> {
        let l = self.plan(left)?;
        let r = self.plan(right)?;
        let out_rows = match kind {
            JoinKind::Inner => l.rows.max(r.rows),
            JoinKind::LeftOuter => l.rows,
            JoinKind::Semi | JoinKind::Anti => 0.5 * l.rows,
        };
        let mut cands: Vec<Candidate> = Vec::new();

        let partitioned_on = |p: &Props, keys: &[usize]| -> Option<Part> {
            p.part
                .as_ref()
                .filter(|part| !part.keys.is_empty() && part.keys == keys)
                .cloned()
        };

        // Rule: LOCAL JOIN — co-partitioned inputs, no exchange.
        if self.options.enable_local_join {
            if let (Some(lp), Some(rp)) = (
                partitioned_on(&l.props, left_keys),
                partitioned_on(&r.props, right_keys),
            ) {
                if lp.n_parts == rp.n_parts && lp.table_aligned && rp.table_aligned {
                    // Co-ordered single-key inputs merge-join instead.
                    let co_sorted = left_keys.len() == 1
                        && l.props
                            .sorted
                            .as_deref()
                            .map(|s| s.first() == Some(&left_keys[0]))
                            == Some(true)
                        && r.props
                            .sorted
                            .as_deref()
                            .map(|s| s.first() == Some(&right_keys[0]))
                            == Some(true)
                        && kind == JoinKind::Inner;
                    let cost =
                        l.cost + r.cost + (l.rows + r.rows) * if co_sorted { 1.0 } else { 2.0 };
                    let plan = if co_sorted {
                        PhysPlan::MergeJoin {
                            left: Box::new(l.plan.clone()),
                            right: Box::new(r.plan.clone()),
                            left_key: left_keys[0],
                            right_key: right_keys[0],
                        }
                    } else {
                        PhysPlan::HashJoin {
                            probe: Box::new(l.plan.clone()),
                            build: Box::new(r.plan.clone()),
                            probe_keys: left_keys.to_vec(),
                            build_keys: right_keys.to_vec(),
                            kind,
                            strategy: JoinStrategy::Local,
                        }
                    };
                    cands.push(Candidate {
                        plan,
                        props: Props {
                            part: Some(lp),
                            sorted: l.props.sorted.clone(),
                            replicated: false,
                            serial: false,
                        },
                        rows: out_rows,
                        cost,
                    });
                }
            }
        }

        // Rule: REPLICATED BUILD SIDE — replicated table or broadcast small.
        if self.options.enable_replicated_build && !l.props.serial {
            // Keyless (cross) joins always broadcast: they come from scalar-
            // subquery lowering where the build side is a single row, and a
            // hash repartition on zero columns would be meaningless.
            let small = r.rows <= self.options.broadcast_threshold_rows || right_keys.is_empty();
            if r.props.replicated || small {
                let (build_plan, extra) = if r.props.replicated {
                    (
                        r.plan.clone(),
                        r.rows * (self.options.nodes as f64 - 1.0) * 0.1,
                    )
                } else {
                    (
                        PhysPlan::DxchgBroadcast {
                            input: Box::new(r.plan.clone()),
                        },
                        r.rows * self.options.net_cost_per_row * self.options.nodes as f64,
                    )
                };
                cands.push(Candidate {
                    plan: PhysPlan::HashJoin {
                        probe: Box::new(l.plan.clone()),
                        build: Box::new(build_plan),
                        probe_keys: left_keys.to_vec(),
                        build_keys: right_keys.to_vec(),
                        kind,
                        strategy: JoinStrategy::BroadcastBuild,
                    },
                    props: Props {
                        part: l.props.part.clone(),
                        sorted: l.props.sorted.clone(),
                        replicated: l.props.replicated,
                        serial: false,
                    },
                    rows: out_rows,
                    cost: l.cost
                        + r.cost
                        + extra
                        + l.rows * 2.0
                        + r.rows * 2.0 * self.options.nodes as f64,
                });
            }
        }

        // Rule: REPARTITION — DXchgHashSplit both sides on the join keys.
        {
            let net = self.options.net_cost_per_row;
            cands.push(Candidate {
                plan: PhysPlan::HashJoin {
                    probe: Box::new(PhysPlan::DxchgHashSplit {
                        input: Box::new(l.plan.clone()),
                        keys: left_keys.to_vec(),
                    }),
                    build: Box::new(PhysPlan::DxchgHashSplit {
                        input: Box::new(r.plan.clone()),
                        keys: right_keys.to_vec(),
                    }),
                    probe_keys: left_keys.to_vec(),
                    build_keys: right_keys.to_vec(),
                    kind,
                    strategy: JoinStrategy::Repartitioned,
                },
                props: Props {
                    part: Some(Part {
                        keys: left_keys.to_vec(),
                        n_parts: self.options.nodes,
                        table_aligned: false,
                    }),
                    sorted: None,
                    replicated: false,
                    serial: false,
                },
                rows: out_rows,
                cost: l.cost + r.cost + (l.rows + r.rows) * (net + 2.0),
            });
        }

        cands
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .ok_or_else(|| VhError::Plan("no join strategy applicable".into()))
    }

    fn plan_aggregate(
        &self,
        input: &LogicalPlan,
        group_by: &[usize],
        aggs: &[AggFn],
    ) -> Result<Candidate> {
        let aggr = |input, group_by: &[usize], aggs: &[AggFn], strategy| PhysPlan::Aggr {
            input: Box::new(input),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            strategy,
        };
        // An aggregate over one whose group keys include its own (a
        // `count(distinct)` split in two) is planned over the inner one's
        // input, its keys taken as columns of that input.
        let nested = match input {
            LogicalPlan::Aggregate {
                input,
                group_by: inner_keys,
                aggs: inner_aggs,
            } if !group_by.is_empty() && group_by.iter().all(|&g| g < inner_keys.len()) => {
                Some((input, inner_keys, inner_aggs))
            }
            _ => None,
        };
        let child = self.plan(nested.map_or(input, |(input, ..)| input))?;
        let keys: Vec<usize> = match nested {
            Some((_, inner_keys, _)) => group_by.iter().map(|&g| inner_keys[g]).collect(),
            None => group_by.to_vec(),
        };
        let partial = self.options.enable_partial_aggr;

        if group_by.is_empty() {
            // Global aggregate: always funnels to the master.
            let strategy = if partial {
                AggStrategy::GlobalPartialFinal
            } else {
                AggStrategy::GlobalComplete
            };
            return Ok(Candidate {
                plan: aggr(child.plan, group_by, aggs, strategy),
                props: Props {
                    part: None,
                    sorted: None,
                    replicated: false,
                    serial: true,
                },
                rows: 1.0,
                cost: child.cost + child.rows * 1.5,
            });
        }

        // Already partitioned on a subset of the group keys: aggregate
        // locally, no exchange needed ("VectorH also detects that a
        // XchgHashSplit does not need to be inserted below the Aggr").
        // Every row of a group is in one stream, so a complete aggregate
        // per stream is exact.
        let aligned = aligned(&child.props.part, &keys);
        let exchanged = Part {
            keys: (0..group_by.len()).collect(),
            n_parts: self.options.nodes,
            table_aligned: false,
        };
        let out_rows = (child.rows / 10.0).max(1.0);
        let split = aligned.is_none();
        let (strategy, part, net_rows) = match aligned {
            Some(part) => (AggStrategy::Local, part, 0.0),
            // One split on the outer keys puts every row of an outer group,
            // and so of its inner groups, in one stream: both run `Local`.
            None if nested.is_some() => (AggStrategy::Local, exchanged, child.rows),
            // Partial aggregation shrinks network traffic to ~groups.
            None if partial => (
                AggStrategy::PartialFinal,
                exchanged,
                out_rows * self.options.nodes as f64,
            ),
            None => (AggStrategy::RepartitionComplete, exchanged, child.rows),
        };
        let mut plan = child.plan;
        if let Some((_, inner_keys, inner_aggs)) = nested {
            if split {
                plan = PhysPlan::DxchgHashSplit {
                    input: Box::new(plan),
                    keys,
                };
            }
            plan = aggr(plan, inner_keys, inner_aggs, AggStrategy::Local);
        }
        Ok(Candidate {
            plan: aggr(plan, group_by, aggs, strategy),
            props: Props {
                part: Some(part),
                sorted: None,
                replicated: false,
                serial: false,
            },
            rows: out_rows,
            cost: child.cost + child.rows * 1.5 + net_rows * self.options.net_cost_per_row,
        })
    }
}

/// The partitioning of an aggregate grouped on `keys` over streams
/// partitioned as `part`, when `part` is on a non-empty subset of `keys`
/// (every group then lies in one stream): its keys become positions in
/// `keys`, the aggregate's output columns.
fn aligned(part: &Option<Part>, keys: &[usize]) -> Option<Part> {
    let p = part.as_ref().filter(|p| !p.keys.is_empty())?;
    let at = |k: &usize| keys.iter().position(|g| g == k);
    Some(Part {
        keys: p.keys.iter().map(at).collect::<Option<_>>()?,
        ..p.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{MemoryCatalog, TableMeta};
    use vectorh_common::{DataType, Schema, Value};
    use vectorh_exec::sort::Dir;

    /// A TPC-H-ish catalog: lineitem/orders co-partitioned on the orderkey,
    /// supplier replicated.
    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.add(TableMeta {
            name: "lineitem".into(),
            schema: Schema::of(&[
                ("l_orderkey", DataType::I64),
                ("l_suppkey", DataType::I64),
                ("l_discount", DataType::Decimal { scale: 2 }),
            ]),
            rows: 6_000_000,
            partitioning: Some((vec![0], 12)),
            sort_order: Some(vec![0]),
        });
        c.add(TableMeta {
            name: "orders".into(),
            schema: Schema::of(&[
                ("o_orderkey", DataType::I64),
                ("o_orderdate", DataType::Date),
            ]),
            rows: 1_500_000,
            partitioning: Some((vec![0], 12)),
            sort_order: Some(vec![1]),
        });
        c.add(TableMeta {
            name: "supplier".into(),
            schema: Schema::of(&[("s_suppkey", DataType::I64), ("s_name", DataType::Str)]),
            rows: 10_000,
            partitioning: None,
            sort_order: None,
        });
        c
    }

    fn sec5_query() -> LogicalPlan {
        // lineitem ⋈ orders on orderkey, then ⋈ supplier on suppkey,
        // GROUP BY s_suppkey, ORDER BY count LIMIT 10 — the §5 example.
        let li = LogicalPlan::Scan {
            table: "lineitem".into(),
            cols: vec![0, 1],
        };
        let ord = LogicalPlan::Scan {
            table: "orders".into(),
            cols: vec![0],
        };
        let join1 = LogicalPlan::Join {
            left: Box::new(li),
            right: Box::new(ord),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        let sup = LogicalPlan::Scan {
            table: "supplier".into(),
            cols: vec![0, 1],
        };
        let join2 = LogicalPlan::Join {
            left: Box::new(join1),
            right: Box::new(sup),
            left_keys: vec![1], // l_suppkey
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        let agg = LogicalPlan::Aggregate {
            input: Box::new(join2),
            group_by: vec![3], // s_suppkey in join output
            aggs: vec![AggFn::CountStar],
        };
        LogicalPlan::Sort {
            input: Box::new(agg),
            keys: vec![(1, Dir::Asc)],
            limit: Some(10),
        }
    }

    fn count_strategy(plan: &PhysPlan, want: JoinStrategy) -> usize {
        let own = matches!(plan, PhysPlan::HashJoin { strategy, .. } if *strategy == want) as usize;
        own + plan
            .children()
            .iter()
            .map(|c| count_strategy(c, want))
            .sum::<usize>()
    }

    fn count_mergejoin(plan: &PhysPlan) -> usize {
        let own = matches!(plan, PhysPlan::MergeJoin { .. }) as usize;
        own + plan
            .children()
            .iter()
            .map(|c| count_mergejoin(c))
            .sum::<usize>()
    }

    #[test]
    fn sec5_plan_uses_all_three_rules() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let plan = rw.rewrite(&sec5_query()).unwrap();
        // Local (merge) join between the co-partitioned, co-ordered tables.
        assert_eq!(
            count_mergejoin(&plan) + count_strategy(&plan, JoinStrategy::Local),
            1
        );
        // Replicated build side for supplier.
        assert_eq!(count_strategy(&plan, JoinStrategy::BroadcastBuild), 1);
        // The only exchanges: the aggregation split + final union.
        assert!(plan.exchange_count() <= 2, "{}", plan.explain());
        // Partial aggregation chosen.
        assert!(
            plan.explain().contains("PartialFinal"),
            "{}",
            plan.explain()
        );
    }

    #[test]
    fn disabling_local_join_forces_repartition() {
        let c = catalog();
        let opts = RewriterOptions {
            enable_local_join: false,
            ..Default::default()
        };
        let rw = ParallelRewriter::new(&c, opts);
        let plan = rw.rewrite(&sec5_query()).unwrap();
        assert_eq!(count_mergejoin(&plan), 0);
        assert!(
            count_strategy(&plan, JoinStrategy::Repartitioned) >= 1,
            "{}",
            plan.explain()
        );
        assert!(plan.exchange_count() > 2);
    }

    #[test]
    fn disabling_replicated_build_repartitions_supplier_join() {
        let c = catalog();
        let opts = RewriterOptions {
            enable_replicated_build: false,
            ..Default::default()
        };
        let rw = ParallelRewriter::new(&c, opts);
        let plan = rw.rewrite(&sec5_query()).unwrap();
        assert_eq!(count_strategy(&plan, JoinStrategy::BroadcastBuild), 0);
        assert!(count_strategy(&plan, JoinStrategy::Repartitioned) >= 1);
    }

    #[test]
    fn disabling_partial_aggr_changes_strategy() {
        let c = catalog();
        let opts = RewriterOptions {
            enable_partial_aggr: false,
            ..Default::default()
        };
        let rw = ParallelRewriter::new(&c, opts);
        let plan = rw.rewrite(&sec5_query()).unwrap();
        assert!(
            plan.explain().contains("RepartitionComplete"),
            "{}",
            plan.explain()
        );
    }

    #[test]
    fn predicate_pushed_into_scan() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let lp = LogicalPlan::Select {
            input: Box::new(LogicalPlan::Scan {
                table: "orders".into(),
                cols: vec![0, 1],
            }),
            predicate: Expr::lt(Expr::col(1), Expr::lit(Value::Date(9000))),
        };
        let plan = rw.rewrite(&lp).unwrap();
        assert!(
            plan.explain().contains("+minmax-pred"),
            "{}",
            plan.explain()
        );
    }

    #[test]
    fn a_scan_without_a_trailing_sort_column_still_merge_joins() {
        // Both tables clustered on (key, date), joined on the key alone.
        let mut c = catalog();
        for (table, rows) in [("lineitem", 6_000_000), ("orders", 1_500_000)] {
            c.add(TableMeta {
                name: table.into(),
                schema: Schema::of(&[("key", DataType::I64), ("date", DataType::Date)]),
                rows,
                partitioning: Some((vec![0], 12)),
                sort_order: Some(vec![0, 1]),
            });
        }
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let scan = |table: &str, cols: Vec<usize>| LogicalPlan::Scan {
            table: table.into(),
            cols,
        };
        for li_cols in [vec![0, 1], vec![0]] {
            let lp = LogicalPlan::Join {
                left: Box::new(scan("lineitem", li_cols)),
                right: Box::new(scan("orders", vec![0])),
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
            };
            let plan = rw.rewrite(&lp).unwrap();
            assert_eq!(count_mergejoin(&plan), 1, "{}", plan.explain());
        }
    }

    #[test]
    fn a_scan_of_no_columns_is_refused() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        for table in ["orders", "supplier"] {
            let lp = LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Scan {
                    table: table.into(),
                    cols: vec![],
                }),
                group_by: vec![],
                aggs: vec![AggFn::CountStar],
            };
            let err = rw.rewrite(&lp).unwrap_err();
            assert!(matches!(err, VhError::Plan(_)), "{err}");
        }
    }

    #[test]
    fn group_by_partition_key_needs_no_exchange() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let lp = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "orders".into(),
                cols: vec![0, 1],
            }),
            group_by: vec![0], // o_orderkey = partition key
            aggs: vec![AggFn::CountStar],
        };
        let plan = rw.rewrite(&lp).unwrap();
        assert!(plan.explain().contains("Local"), "{}", plan.explain());
        assert_eq!(plan.exchange_count(), 1, "only the final union");
    }

    #[test]
    fn global_aggregate_is_serial() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let lp = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "lineitem".into(),
                cols: vec![2],
            }),
            group_by: vec![],
            aggs: vec![AggFn::Sum(0)],
        };
        let plan = rw.rewrite(&lp).unwrap();
        // No trailing union needed: the aggregate itself serializes.
        assert!(matches!(plan, PhysPlan::Aggr { .. }), "{}", plan.explain());
        assert!(plan.explain().contains("GlobalPartialFinal"));
    }

    /// `SELECT k, count(distinct x), count(*) FROM lineitem GROUP BY k` as
    /// the SQL front end lowers it, `cols` being `[k, x]`: an aggregate on
    /// `k` over one on `(k, x)`.
    fn distinct_count(cols: Vec<usize>) -> LogicalPlan {
        let scan = LogicalPlan::Scan {
            table: "lineitem".into(),
            cols,
        };
        let inner = LogicalPlan::Aggregate {
            input: Box::new(scan),
            group_by: vec![0, 1],
            aggs: vec![AggFn::CountStar],
        };
        LogicalPlan::Aggregate {
            input: Box::new(inner),
            group_by: vec![0],
            aggs: vec![AggFn::CountStar, AggFn::Sum(2)],
        }
    }

    #[test]
    fn nested_aggregates_split_once_and_both_run_local() {
        let c = catalog();
        for enable_partial_aggr in [true, false] {
            let opts = RewriterOptions {
                enable_partial_aggr,
                ..Default::default()
            };
            // By l_suppkey, counting distinct l_orderkey: `lineitem` is
            // partitioned on the inner key the outer one drops.
            let lp = distinct_count(vec![1, 0]);
            let plan = ParallelRewriter::new(&c, opts).rewrite(&lp).unwrap();
            let explain = plan.explain();
            let shape = "DXchgUnion\n  Aggr (by [0], Local)\n    Aggr (by [0, 1], Local)\n      \
                         DXchgHashSplit on [0]\n        Scan";
            assert!(explain.starts_with(shape), "{explain}");
            assert_eq!(
                plan.exchange_count(),
                2,
                "the split and the union: {explain}"
            );
        }
    }

    #[test]
    fn nested_aggregates_over_input_partitioned_on_the_outer_keys_do_not_split() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        // By l_orderkey, the partition key, counting distinct l_suppkey.
        let plan = rw.rewrite(&distinct_count(vec![0, 1])).unwrap();
        let explain = plan.explain();
        let shape = "DXchgUnion\n  Aggr (by [0], Local)\n    Aggr (by [0, 1], Local)\n      Scan";
        assert!(explain.starts_with(shape), "{explain}");
        assert_eq!(plan.exchange_count(), 1, "only the final union: {explain}");
    }

    /// Q21's two `EXISTS … <>` subqueries, decorrelated: `lineitem` joined
    /// (inner, then left outer) to `Aggr(by l_orderkey, min, max)` over
    /// `lineitem`, which is partitioned on that key.
    #[test]
    fn min_max_on_the_partition_key_stays_local() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        let li = || LogicalPlan::Scan {
            table: "lineitem".into(),
            cols: vec![0, 1],
        };
        let per_order_suppliers = || LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(li()),
                items: vec![(Expr::col(0), "g0".into()), (Expr::col(1), "ne".into())],
            }),
            group_by: vec![0],
            aggs: vec![AggFn::Min(1), AggFn::Max(1)],
        };
        let exists = LogicalPlan::Join {
            left: Box::new(li()),
            right: Box::new(per_order_suppliers()),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        let not_exists = LogicalPlan::Join {
            left: Box::new(exists),
            right: Box::new(per_order_suppliers()),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::LeftOuter,
        };
        let plan = rw.rewrite(&not_exists).unwrap();
        let explain = plan.explain();
        assert!(!explain.contains("DXchgBroadcast"), "{explain}");
        assert!(!explain.contains("RepartitionComplete"), "{explain}");
        assert_eq!(count_strategy(&plan, JoinStrategy::Local), 2, "{explain}");
        assert_eq!(plan.exchange_count(), 1, "only the final union: {explain}");
    }

    #[test]
    fn projection_preserves_partitioning_for_local_join() {
        let c = catalog();
        let rw = ParallelRewriter::new(&c, RewriterOptions::default());
        // Project reorders columns; partition key tracked through it.
        let li = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan {
                table: "lineitem".into(),
                cols: vec![0, 2],
            }),
            items: vec![(Expr::col(1), "disc".into()), (Expr::col(0), "ok".into())],
        };
        let ord = LogicalPlan::Scan {
            table: "orders".into(),
            cols: vec![0],
        };
        let lp = LogicalPlan::Join {
            left: Box::new(li),
            right: Box::new(ord),
            left_keys: vec![1], // "ok" position after projection
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        let plan = rw.rewrite(&lp).unwrap();
        assert!(
            count_strategy(&plan, JoinStrategy::Local) + count_mergejoin(&plan) == 1,
            "{}",
            plan.explain()
        );
    }
}

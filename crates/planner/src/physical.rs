//! Distributed physical plans.
//!
//! The Parallel Rewriter's output: a tree of location-annotated operators
//! with *explicit* exchange nodes, mirroring Figure 5 of the paper. The
//! engine interprets this tree into per-node, per-stream operator pipelines
//! connected by the `vectorh-net` exchanges.

use vectorh_exec::aggr::AggFn;
use vectorh_exec::expr::Expr;
use vectorh_exec::sort::Dir;

use crate::logical::JoinKind;

/// How a hash join is distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Both inputs are co-partitioned on the join keys: join matching
    /// partitions on their responsible nodes, no network (§5 "local join").
    Local,
    /// The build side is replicated (already-replicated table, or broadcast
    /// inserted below): every node holds a copy of it, and each probe stream
    /// builds a hash table of its own from its node's copy; no probe row
    /// moves.
    BroadcastBuild,
    /// Repartition both sides with DXchgHashSplit on the join keys.
    Repartitioned,
}

/// Aggregation placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Input already partitioned on (a subset of) the group keys: one
    /// complete aggregation per stream, no exchange.
    Local,
    /// Partial per stream → DXchgHashSplit(group keys) → Final.
    PartialFinal,
    /// DXchgHashSplit(group keys) → Complete (partial-aggregation rule off).
    RepartitionComplete,
    /// Global aggregate: Partial per stream → DXchgUnion → Final at master.
    GlobalPartialFinal,
    /// Global aggregate without partials: DXchgUnion → Complete.
    GlobalComplete,
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Partition-parallel scan at the responsible nodes. `pred` is pushed
    /// into the scan for MinMax skipping.
    ScanPartitioned {
        table: String,
        cols: Vec<usize>,
        pred: Option<Expr>,
    },
    /// Scan of a replicated table, executed locally wherever it is needed.
    ScanReplicated {
        table: String,
        cols: Vec<usize>,
        pred: Option<Expr>,
    },
    Select {
        input: Box<PhysPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysPlan>,
        items: Vec<(Expr, String)>,
    },
    HashJoin {
        probe: Box<PhysPlan>,
        build: Box<PhysPlan>,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        kind: JoinKind,
        strategy: JoinStrategy,
    },
    /// Co-ordered merge join of co-located partitions.
    MergeJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_key: usize,
        right_key: usize,
    },
    Aggr {
        input: Box<PhysPlan>,
        group_by: Vec<usize>,
        aggs: Vec<AggFn>,
        strategy: AggStrategy,
    },
    /// Per-stream partial TopN → DXchgUnion → final TopN (or plain sort).
    Sort {
        input: Box<PhysPlan>,
        keys: Vec<(usize, Dir)>,
        limit: Option<usize>,
    },
    Limit {
        input: Box<PhysPlan>,
        n: usize,
    },
    /// Explicit exchanges.
    DxchgHashSplit {
        input: Box<PhysPlan>,
        keys: Vec<usize>,
    },
    DxchgUnion {
        input: Box<PhysPlan>,
    },
    DxchgBroadcast {
        input: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// EXPLAIN-style rendering (one node per line, indented).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(0, &mut s);
        s
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::ScanPartitioned { table, cols, pred } => {
                out.push_str(&format!(
                    "{pad}Scan[{table}] (partitioned) cols={cols:?}{}\n",
                    if pred.is_some() { " +minmax-pred" } else { "" }
                ));
            }
            PhysPlan::ScanReplicated { table, cols, pred } => {
                out.push_str(&format!(
                    "{pad}Scan[{table}] (replicated) cols={cols:?}{}\n",
                    if pred.is_some() { " +minmax-pred" } else { "" }
                ));
            }
            PhysPlan::Select { input, .. } => {
                out.push_str(&format!("{pad}Select\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Project { input, items } => {
                let names: Vec<&str> = items.iter().map(|(_, n)| n.as_str()).collect();
                out.push_str(&format!("{pad}Project {names:?}\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::HashJoin {
                probe,
                build,
                strategy,
                kind,
                ..
            } => {
                out.push_str(&format!("{pad}HashJoin ({kind:?}, {strategy:?})\n"));
                probe.explain_into(depth + 1, out);
                build.explain_into(depth + 1, out);
            }
            PhysPlan::MergeJoin { left, right, .. } => {
                out.push_str(&format!("{pad}MergeJoin (co-located)\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PhysPlan::Aggr {
                input,
                group_by,
                strategy,
                ..
            } => {
                out.push_str(&format!("{pad}Aggr (by {group_by:?}, {strategy:?})\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Sort { input, keys, limit } => {
                out.push_str(&format!("{pad}Sort keys={keys:?} limit={limit:?}\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::DxchgHashSplit { input, keys } => {
                out.push_str(&format!("{pad}DXchgHashSplit on {keys:?}\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::DxchgUnion { input } => {
                out.push_str(&format!("{pad}DXchgUnion\n"));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::DxchgBroadcast { input } => {
                out.push_str(&format!("{pad}DXchgBroadcast\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }

    /// Count exchange operators (network steps) in the plan, the split or
    /// union an aggregate's strategy implies included.
    pub fn exchange_count(&self) -> usize {
        let own = match self {
            PhysPlan::DxchgHashSplit { .. }
            | PhysPlan::DxchgUnion { .. }
            | PhysPlan::DxchgBroadcast { .. } => 1,
            PhysPlan::Aggr { strategy, .. } => usize::from(*strategy != AggStrategy::Local),
            _ => 0,
        };
        own + self
            .children()
            .iter()
            .map(|c| c.exchange_count())
            .sum::<usize>()
    }

    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::ScanPartitioned { .. } | PhysPlan::ScanReplicated { .. } => vec![],
            PhysPlan::Select { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggr { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::DxchgHashSplit { input, .. }
            | PhysPlan::DxchgUnion { input }
            | PhysPlan::DxchgBroadcast { input } => vec![input],
            PhysPlan::HashJoin { probe, build, .. } => vec![probe, build],
            PhysPlan::MergeJoin { left, right, .. } => vec![left, right],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_tree() {
        let plan = PhysPlan::DxchgUnion {
            input: Box::new(PhysPlan::Select {
                input: Box::new(PhysPlan::ScanPartitioned {
                    table: "lineitem".into(),
                    cols: vec![0, 1],
                    pred: None,
                }),
                predicate: Expr::lit(vectorh_common::Value::I32(1)),
            }),
        };
        let text = plan.explain();
        assert!(text.contains("DXchgUnion"));
        assert!(text.contains("Scan[lineitem] (partitioned)"));
        assert_eq!(plan.exchange_count(), 1);
    }
}

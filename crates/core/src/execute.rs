//! Physical plan execution: PhysPlan → per-node operator pipelines.
//!
//! The interpreter turns the Parallel Rewriter's output into streams:
//! partition-parallel scans run at their responsible nodes (MScan with
//! MinMax pruning + PDT merge), local joins pair co-located partitions,
//! broadcast builds materialize the build side once per node and build one
//! table there that the node's probe pipelines share, repartitioned
//! operators connect through the DXchg layer, and everything funnels into a
//! single stream at the session master.

use std::collections::HashMap;
use std::sync::Arc;

use vectorh_common::{NodeId, Result, Value, VhError};
use vectorh_exec::aggr::{AggFn, AggMode, Aggr};
use vectorh_exec::expr::{CmpOp, Expr};
use vectorh_exec::filter::Select;
use vectorh_exec::join::{HashJoin, JoinKind as ExecJoinKind, SharedBuild};
use vectorh_exec::mergejoin::MergeJoin;
use vectorh_exec::operator::{collect_profiles, render_profile, BatchSource, Operator};
use vectorh_exec::project::Project;
use vectorh_exec::scan::{keep_chunks, MScan};
use vectorh_exec::sort::{Limit, Sort};
use vectorh_net::dxchg::{dxchg_hash_split, dxchg_union};
use vectorh_planner::logical::JoinKind;
use vectorh_planner::physical::{AggStrategy, JoinStrategy};
use vectorh_planner::PhysPlan;
use vectorh_storage::minmax::{PruneOp, Pruning};

use crate::engine::{TableRuntime, VectorH};

/// Streams produced by a plan fragment.
enum Streams {
    /// One pipeline per partition/consumer, each pinned to a node.
    Parallel(Vec<(u32, Box<dyn Operator>)>),
    /// A single pipeline at the session master.
    Serial(Box<dyn Operator>),
}

impl Streams {
    fn into_parallel(self) -> Vec<(u32, Box<dyn Operator>)> {
        match self {
            Streams::Parallel(v) => v,
            Streams::Serial(op) => vec![(0, op)],
        }
    }
}

struct Ctx<'a> {
    vh: &'a VectorH,
    master: u32,
}

impl<'a> Ctx<'a> {
    /// Exchange consumer layout: `streams_per_node` threads on each worker.
    fn consumer_layout(&self) -> Vec<u32> {
        let spn = self.vh.streams_per_node().max(1);
        let mut out = Vec::new();
        for w in self.vh.workers() {
            for _ in 0..spn {
                out.push(w.0);
            }
        }
        out
    }
}

/// Run a physical plan, returning rows and the execution profile. The
/// optional cancel flag is polled between result batches at the top of the
/// plan — one vector of work is the cancellation latency bound.
pub(crate) fn execute(
    vh: &VectorH,
    phys: &PhysPlan,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Result<(Vec<Vec<Value>>, String)> {
    let ctx = Ctx {
        vh,
        master: vh.session_master().0,
    };
    let streams = build(&ctx, phys)?;
    let mut top: Box<dyn Operator> = match streams {
        Streams::Serial(op) => op,
        Streams::Parallel(streams) => Box::new(dxchg_union(
            streams.into_iter().collect(),
            ctx.master,
            vh.dxchg_config(),
            vh.net_stats().clone(),
        )?),
    };
    let mut rows = Vec::new();
    while let Some(batch) = top.next()? {
        if let Some(flag) = cancel {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(vectorh_common::VhError::Cancelled(
                    "query cancelled mid-stream".into(),
                ));
            }
        }
        rows.extend(batch.rows());
    }
    let profile = render_profile(&collect_profiles(top.as_ref()));
    Ok((rows, profile))
}

/// Extract MinMax-prunable conjuncts from a pushed-down predicate.
/// `cols` maps projected positions back to table columns.
pub fn extract_pruning(pred: &Expr, cols: &[usize]) -> Pruning {
    fn lit(e: &Expr) -> Option<Value> {
        match e {
            Expr::Lit(v) => Some(v.clone()),
            _ => None,
        }
    }
    fn col(e: &Expr, cols: &[usize]) -> Option<usize> {
        match e {
            Expr::Col(c) => cols.get(*c).copied(),
            _ => None,
        }
    }
    let mut out = Pruning::new();
    match pred {
        Expr::And(es) => {
            for e in es {
                out.extend(extract_pruning(e, cols));
            }
        }
        Expr::Cmp(op, l, r) => {
            if let (Some(c), Some(v)) = (col(l, cols), lit(r)) {
                let op = match op {
                    CmpOp::Lt => Some(PruneOp::Lt),
                    CmpOp::Le => Some(PruneOp::Le),
                    CmpOp::Gt => Some(PruneOp::Gt),
                    CmpOp::Ge => Some(PruneOp::Ge),
                    CmpOp::Eq => Some(PruneOp::Eq),
                    CmpOp::Ne => None,
                };
                if let Some(op) = op {
                    out.push((c, op, v));
                }
            } else if let (Some(v), Some(c)) = (lit(l), col(r, cols)) {
                // literal OP column — mirror the comparison
                let op = match op {
                    CmpOp::Lt => Some(PruneOp::Gt),
                    CmpOp::Le => Some(PruneOp::Ge),
                    CmpOp::Gt => Some(PruneOp::Lt),
                    CmpOp::Ge => Some(PruneOp::Le),
                    CmpOp::Eq => Some(PruneOp::Eq),
                    CmpOp::Ne => None,
                };
                if let Some(op) = op {
                    out.push((c, op, v));
                }
            }
        }
        Expr::Between(e, lo, hi) => {
            if let (Some(c), Some(lo), Some(hi)) = (col(e, cols), lit(lo), lit(hi)) {
                out.push((c, PruneOp::Between(hi), lo));
            }
        }
        Expr::InList(e, list) => {
            // An empty list matches nothing; there is no probe to prune by.
            if let (Some(c), Some((first, rest))) = (col(e, cols), list.split_first()) {
                out.push((c, PruneOp::InList(rest.to_vec()), first.clone()));
            }
        }
        _ => {}
    }
    out
}

fn exec_join_kind(kind: JoinKind) -> ExecJoinKind {
    match kind {
        JoinKind::Inner => ExecJoinKind::Inner,
        JoinKind::LeftOuter => ExecJoinKind::LeftOuter,
        JoinKind::Semi => ExecJoinKind::Semi,
        JoinKind::Anti => ExecJoinKind::Anti,
    }
}

/// One scan pipeline over partition `i` of `rt`, read at `node`: `MScan`
/// over the chunks MinMax pruning on `pred` cannot rule out, then `Select`.
fn scan_at(
    ctx: &Ctx,
    rt: &TableRuntime,
    i: usize,
    cols: &[usize],
    pred: &Option<Expr>,
    node: NodeId,
) -> Result<Box<dyn Operator>> {
    let plan = ctx.vh.txns.scan_plan(rt.pids[i])?;
    let store = rt.stores[i].read().clone();
    let pruning = pred
        .as_ref()
        .map(|p| extract_pruning(p, cols))
        .unwrap_or_default();
    let keep = keep_chunks(&store, &pruning, &plan);
    let mut op: Box<dyn Operator> =
        Box::new(MScan::new(store, cols.to_vec(), keep, plan, Some(node))?);
    if let Some(p) = pred {
        op = Box::new(Select::new(op, p.clone()));
    }
    Ok(op)
}

/// The scan streams of a partitioned table: one per partition, each at
/// its responsible node.
fn scan_partitioned(
    ctx: &Ctx,
    table: &str,
    cols: &[usize],
    pred: &Option<Expr>,
) -> Result<Streams> {
    let rt = ctx.vh.table(table)?;
    let mut streams = Vec::with_capacity(rt.pids.len());
    for (i, pid) in rt.pids.iter().enumerate() {
        let home = ctx.vh.responsible(*pid);
        streams.push((home.0, scan_at(ctx, &rt, i, cols, pred, home)?));
    }
    Ok(Streams::Parallel(streams))
}

/// One scan pipeline over a replicated table, reading at `node`.
fn scan_replicated_at(
    ctx: &Ctx,
    table: &str,
    cols: &[usize],
    pred: &Option<Expr>,
    node: NodeId,
) -> Result<Box<dyn Operator>> {
    let rt = ctx.vh.table(table)?;
    scan_at(ctx, &rt, 0, cols, pred, node)
}

/// Instantiate a (replicated) subtree for a specific node. Supports the
/// shapes the rewriter produces for broadcast build sides: replicated scans
/// under Select/Project chains, plus joins of replicated subtrees.
fn build_for_node(ctx: &Ctx, phys: &PhysPlan, node: NodeId) -> Result<Box<dyn Operator>> {
    Ok(match phys {
        PhysPlan::ScanReplicated { table, cols, pred } => {
            scan_replicated_at(ctx, table, cols, pred, node)?
        }
        PhysPlan::Select { input, predicate } => Box::new(Select::new(
            build_for_node(ctx, input, node)?,
            predicate.clone(),
        )),
        PhysPlan::Project { input, items } => Box::new(Project::new(
            build_for_node(ctx, input, node)?,
            items.clone(),
        )?),
        PhysPlan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            kind,
            ..
        } => Box::new(HashJoin::new(
            build_for_node(ctx, probe, node)?,
            build_for_node(ctx, build, node)?,
            probe_keys.clone(),
            build_keys.clone(),
            exec_join_kind(*kind),
        )?),
        other => {
            return Err(VhError::Exec(format!(
                "broadcast build side contains non-replicated operator: {}",
                other.explain().lines().next().unwrap_or("?")
            )))
        }
    })
}

/// A broadcast build side, one per distinct node: materialized here, then
/// built (indexed) by the first of that node's joins that needs it.
fn build_side_per_node(
    ctx: &Ctx,
    side: &PhysPlan,
    nodes: &[u32],
    keys: &[usize],
) -> Result<HashMap<u32, Arc<SharedBuild>>> {
    let mut distinct: Vec<u32> = nodes.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let shared = |input: Box<dyn Operator>| SharedBuild::new(input, keys.to_vec());
    let mut map = HashMap::new();

    match side {
        PhysPlan::DxchgBroadcast { input } => {
            // Materialize once at the master, then ship to every node.
            let inner = build(ctx, input)?;
            let mut producer: Box<dyn Operator> = match inner {
                Streams::Serial(op) => op,
                Streams::Parallel(streams) => Box::new(dxchg_union(
                    streams,
                    ctx.master,
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?),
            };
            let schema = producer.schema();
            let mut batches = Vec::new();
            while let Some(b) = producer.next()? {
                batches.push(b);
            }
            // Network accounting: one serialized copy per non-master node,
            // counted without building it.
            let stats = ctx.vh.net_stats();
            for &n in &distinct {
                if n != ctx.master {
                    for b in &batches {
                        let bytes = vectorh_net::buffer::serialized_len(b);
                        stats.record_net_message(bytes as u64, b.len() as u64);
                    }
                }
                let copy = Box::new(BatchSource::new(schema.clone(), batches.clone()));
                map.insert(n, shared(copy));
            }
        }
        replicated => {
            // Replicated subtree: every node builds from its local replica.
            for &n in &distinct {
                let mut op = build_for_node(ctx, replicated, NodeId(n))?;
                let mut batches = Vec::new();
                while let Some(b) = op.next()? {
                    batches.push(b);
                }
                let local = Box::new(BatchSource::new(op.schema(), batches));
                map.insert(n, shared(local));
            }
        }
    }
    Ok(map)
}

/// Final-mode aggregate column mapping: each agg's first state column in
/// the partial output layout `[groups..., states...]`.
fn final_aggs(group_len: usize, aggs: &[AggFn]) -> Vec<AggFn> {
    let mut col = group_len;
    aggs.iter()
        .map(|a| {
            let here = col;
            col += match a {
                AggFn::Avg(_) => 2,
                _ => 1,
            };
            match a {
                AggFn::CountStar => AggFn::Count(here),
                AggFn::Count(_) => AggFn::Count(here),
                AggFn::Sum(_) => AggFn::Sum(here),
                AggFn::Min(_) => AggFn::Min(here),
                AggFn::Max(_) => AggFn::Max(here),
                AggFn::Avg(_) => AggFn::Avg(here),
                AggFn::CountDistinct(_) => AggFn::CountDistinct(here),
            }
        })
        .collect()
}

fn build(ctx: &Ctx, phys: &PhysPlan) -> Result<Streams> {
    match phys {
        PhysPlan::ScanPartitioned { table, cols, pred } => scan_partitioned(ctx, table, cols, pred),
        PhysPlan::ScanReplicated { table, cols, pred } => Ok(Streams::Serial(scan_replicated_at(
            ctx,
            table,
            cols,
            pred,
            NodeId(ctx.master),
        )?)),
        PhysPlan::Select { input, predicate } => Ok(map_streams(build(ctx, input)?, |op| {
            Ok(Box::new(Select::new(op, predicate.clone())) as Box<dyn Operator>)
        })?),
        PhysPlan::Project { input, items } => Ok(map_streams(build(ctx, input)?, |op| {
            Ok(Box::new(Project::new(op, items.clone())?) as Box<dyn Operator>)
        })?),
        PhysPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = build(ctx, left)?.into_parallel();
            let r = build(ctx, right)?.into_parallel();
            if l.len() != r.len() {
                return Err(VhError::Exec(format!(
                    "merge join partition mismatch: {} vs {}",
                    l.len(),
                    r.len()
                )));
            }
            let mut out = Vec::with_capacity(l.len());
            for ((node, lop), (_, rop)) in l.into_iter().zip(r) {
                out.push((
                    node,
                    Box::new(MergeJoin::new(lop, rop, *left_key, *right_key)?) as Box<dyn Operator>,
                ));
            }
            Ok(Streams::Parallel(out))
        }
        PhysPlan::HashJoin {
            probe,
            build: build_side,
            probe_keys,
            build_keys,
            kind,
            strategy,
        } => {
            match strategy {
                JoinStrategy::Local => {
                    let l = build(ctx, probe)?.into_parallel();
                    let r = build(ctx, build_side)?.into_parallel();
                    if l.len() != r.len() {
                        return Err(VhError::Exec(format!(
                            "local join partition mismatch: {} vs {}",
                            l.len(),
                            r.len()
                        )));
                    }
                    let mut out = Vec::with_capacity(l.len());
                    for ((node, lop), (_, rop)) in l.into_iter().zip(r) {
                        out.push((
                            node,
                            Box::new(HashJoin::new(
                                lop,
                                rop,
                                probe_keys.clone(),
                                build_keys.clone(),
                                exec_join_kind(*kind),
                            )?) as Box<dyn Operator>,
                        ));
                    }
                    Ok(Streams::Parallel(out))
                }
                JoinStrategy::BroadcastBuild => {
                    let probe_streams = build(ctx, probe)?.into_parallel();
                    let nodes: Vec<u32> = probe_streams.iter().map(|(n, _)| *n).collect();
                    let sides = build_side_per_node(ctx, build_side, &nodes, build_keys)?;
                    let mut out = Vec::with_capacity(probe_streams.len());
                    for (node, pop) in probe_streams {
                        out.push((
                            node,
                            Box::new(HashJoin::shared(
                                pop,
                                sides[&node].clone(),
                                probe_keys.clone(),
                                exec_join_kind(*kind),
                            )?) as Box<dyn Operator>,
                        ));
                    }
                    Ok(Streams::Parallel(out))
                }
                JoinStrategy::Repartitioned => {
                    // The rewriter placed explicit DxchgHashSplit children.
                    let (probe_in, pkeys) = match probe.as_ref() {
                        PhysPlan::DxchgHashSplit { input, keys } => (input.as_ref(), keys.clone()),
                        other => (other, probe_keys.clone()),
                    };
                    let (build_in, bkeys) = match build_side.as_ref() {
                        PhysPlan::DxchgHashSplit { input, keys } => (input.as_ref(), keys.clone()),
                        other => (other, build_keys.clone()),
                    };
                    let consumers = ctx.consumer_layout();
                    let precv = dxchg_hash_split(
                        build(ctx, probe_in)?.into_parallel(),
                        consumers.clone(),
                        pkeys,
                        ctx.vh.dxchg_config(),
                        ctx.vh.net_stats().clone(),
                    )?;
                    let brecv = dxchg_hash_split(
                        build(ctx, build_in)?.into_parallel(),
                        consumers.clone(),
                        bkeys,
                        ctx.vh.dxchg_config(),
                        ctx.vh.net_stats().clone(),
                    )?;
                    let mut out = Vec::with_capacity(consumers.len());
                    for ((node, p), b) in consumers.iter().zip(precv).zip(brecv) {
                        out.push((
                            *node,
                            Box::new(HashJoin::new(
                                Box::new(p),
                                Box::new(b),
                                probe_keys.clone(),
                                build_keys.clone(),
                                exec_join_kind(*kind),
                            )?) as Box<dyn Operator>,
                        ));
                    }
                    Ok(Streams::Parallel(out))
                }
            }
        }
        PhysPlan::Aggr {
            input,
            group_by,
            aggs,
            strategy,
        } => match strategy {
            AggStrategy::Local => Ok(map_streams(build(ctx, input)?, |op| {
                Ok(Box::new(Aggr::new(
                    op,
                    group_by.clone(),
                    aggs.clone(),
                    AggMode::Complete,
                )?) as Box<dyn Operator>)
            })?),
            AggStrategy::PartialFinal => {
                let partials = map_streams(build(ctx, input)?, |op| {
                    Ok(Box::new(Aggr::new(
                        op,
                        group_by.clone(),
                        aggs.clone(),
                        AggMode::Partial,
                    )?) as Box<dyn Operator>)
                })?;
                let consumers = ctx.consumer_layout();
                let recv = dxchg_hash_split(
                    partials.into_parallel(),
                    consumers.clone(),
                    (0..group_by.len()).collect(),
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?;
                let fin = final_aggs(group_by.len(), aggs);
                let mut out = Vec::with_capacity(consumers.len());
                for (node, r) in consumers.iter().zip(recv) {
                    out.push((
                        *node,
                        Box::new(Aggr::new(
                            Box::new(r),
                            (0..group_by.len()).collect(),
                            fin.clone(),
                            AggMode::Final,
                        )?) as Box<dyn Operator>,
                    ));
                }
                Ok(Streams::Parallel(out))
            }
            AggStrategy::RepartitionComplete => {
                let consumers = ctx.consumer_layout();
                let recv = dxchg_hash_split(
                    build(ctx, input)?.into_parallel(),
                    consumers.clone(),
                    group_by.clone(),
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?;
                let mut out = Vec::with_capacity(consumers.len());
                for (node, r) in consumers.iter().zip(recv) {
                    out.push((
                        *node,
                        Box::new(Aggr::new(
                            Box::new(r),
                            group_by.clone(),
                            aggs.clone(),
                            AggMode::Complete,
                        )?) as Box<dyn Operator>,
                    ));
                }
                Ok(Streams::Parallel(out))
            }
            AggStrategy::GlobalPartialFinal => {
                let partials = map_streams(build(ctx, input)?, |op| {
                    Ok(
                        Box::new(Aggr::new(op, vec![], aggs.clone(), AggMode::Partial)?)
                            as Box<dyn Operator>,
                    )
                })?;
                let union = dxchg_union(
                    partials.into_parallel(),
                    ctx.master,
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?;
                Ok(Streams::Serial(Box::new(Aggr::new(
                    Box::new(union),
                    vec![],
                    final_aggs(0, aggs),
                    AggMode::Final,
                )?)))
            }
            AggStrategy::GlobalComplete => {
                let union = dxchg_union(
                    build(ctx, input)?.into_parallel(),
                    ctx.master,
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?;
                Ok(Streams::Serial(Box::new(Aggr::new(
                    Box::new(union),
                    vec![],
                    aggs.clone(),
                    AggMode::Complete,
                )?)))
            }
        },
        PhysPlan::Sort { input, keys, limit } => {
            // Partial TopN below the union when a limit exists.
            let serial: Box<dyn Operator> = match (input.as_ref(), limit) {
                (PhysPlan::DxchgUnion { input: inner }, Some(n)) => {
                    let partial = map_streams(build(ctx, inner)?, |op| {
                        Ok(Box::new(Sort::new(op, keys.clone(), Some(*n))) as Box<dyn Operator>)
                    })?;
                    Box::new(dxchg_union(
                        partial.into_parallel(),
                        ctx.master,
                        ctx.vh.dxchg_config(),
                        ctx.vh.net_stats().clone(),
                    )?)
                }
                _ => match build(ctx, input)? {
                    Streams::Serial(op) => op,
                    Streams::Parallel(streams) => Box::new(dxchg_union(
                        streams,
                        ctx.master,
                        ctx.vh.dxchg_config(),
                        ctx.vh.net_stats().clone(),
                    )?),
                },
            };
            Ok(Streams::Serial(Box::new(Sort::new(
                serial,
                keys.clone(),
                *limit,
            ))))
        }
        PhysPlan::Limit { input, n } => {
            let serial: Box<dyn Operator> = match build(ctx, input)? {
                Streams::Serial(op) => op,
                Streams::Parallel(streams) => Box::new(dxchg_union(
                    streams,
                    ctx.master,
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?),
            };
            Ok(Streams::Serial(Box::new(Limit::new(serial, *n))))
        }
        PhysPlan::DxchgUnion { input } => {
            let inner = build(ctx, input)?;
            match inner {
                Streams::Serial(op) => Ok(Streams::Serial(op)),
                Streams::Parallel(streams) => Ok(Streams::Serial(Box::new(dxchg_union(
                    streams,
                    ctx.master,
                    ctx.vh.dxchg_config(),
                    ctx.vh.net_stats().clone(),
                )?))),
            }
        }
        PhysPlan::DxchgHashSplit { input, keys } => {
            let consumers = ctx.consumer_layout();
            let recv = dxchg_hash_split(
                build(ctx, input)?.into_parallel(),
                consumers.clone(),
                keys.clone(),
                ctx.vh.dxchg_config(),
                ctx.vh.net_stats().clone(),
            )?;
            Ok(Streams::Parallel(
                consumers
                    .iter()
                    .zip(recv)
                    .map(|(n, r)| (*n, Box::new(r) as Box<dyn Operator>))
                    .collect(),
            ))
        }
        PhysPlan::DxchgBroadcast { .. } => Err(VhError::Internal(
            "standalone DxchgBroadcast outside a join build side".into(),
        )),
    }
}

fn map_streams<F>(streams: Streams, mut f: F) -> Result<Streams>
where
    F: FnMut(Box<dyn Operator>) -> Result<Box<dyn Operator>>,
{
    Ok(match streams {
        Streams::Serial(op) => Streams::Serial(f(op)?),
        Streams::Parallel(v) => {
            let mut out = Vec::with_capacity(v.len());
            for (n, op) in v {
                out.push((n, f(op)?));
            }
            Streams::Parallel(out)
        }
    })
}

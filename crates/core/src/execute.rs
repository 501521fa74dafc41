//! Physical plan execution: PhysPlan → per-node operator pipelines.
//!
//! One interpreter, [`build`], instantiates any plan fragment at a *home*
//! node: the session master for the query, or node `n` for the replicated
//! build side that node `n`'s joins need. Partition-parallel scans run at
//! their responsible nodes (MScan with MinMax pruning + PDT merge), local
//! joins pair co-located partitions, and a broadcast build is one build per
//! node shared by that node's probe pipelines: a replicated side is the
//! node's live sub-plan over its own replica, a `DxchgBroadcast` side is
//! drained once at the master and copied to each node. Repartitioned
//! operators connect through the DXchg layer, and everything funnels into a
//! single stream at the home node.

use std::collections::HashMap;

use vectorh_common::{NodeId, Result, Value, VhError};
use vectorh_exec::aggr::{final_aggs, AggFn, AggMode, Aggr};
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
    /// A single pipeline at the fragment's home node.
    Serial(Box<dyn Operator>),
}

struct Ctx<'a> {
    vh: &'a VectorH,
    /// Where a serial stream runs and where parallel streams funnel.
    home: u32,
}

impl<'a> Ctx<'a> {
    /// The same context with its home at `node`.
    fn at(&self, node: u32) -> Ctx<'a> {
        Ctx {
            vh: self.vh,
            home: node,
        }
    }

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

    /// The streams as node-pinned pipelines; a serial one runs at home.
    fn parallel(&self, streams: Streams) -> Vec<(u32, Box<dyn Operator>)> {
        match streams {
            Streams::Parallel(v) => v,
            Streams::Serial(op) => vec![(self.home, op)],
        }
    }

    /// The streams as one pipeline at home: a serial one as is, parallel
    /// ones through a DXchgUnion.
    fn serial(&self, streams: Streams) -> Result<Box<dyn Operator>> {
        Ok(match streams {
            Streams::Serial(op) => op,
            Streams::Parallel(v) => Box::new(dxchg_union(
                v,
                self.home,
                self.vh.dxchg_config(),
                self.vh.net_stats().clone(),
            )?),
        })
    }

    /// The streams hash-split on `keys` over the consumer layout: one
    /// (consumer node, receiver) pair per consumer.
    fn split(&self, streams: Streams, keys: Vec<usize>) -> Result<Vec<(u32, Box<dyn Operator>)>> {
        let consumers = self.consumer_layout();
        let recv = dxchg_hash_split(
            self.parallel(streams),
            consumers.clone(),
            keys,
            self.vh.dxchg_config(),
            self.vh.net_stats().clone(),
        )?;
        Ok(consumers
            .into_iter()
            .zip(recv)
            .map(|(n, r)| (n, Box::new(r) as Box<dyn Operator>))
            .collect())
    }

    /// `f` applied to every stream, with the node the stream runs at.
    fn map<F>(&self, streams: Streams, mut f: F) -> Result<Streams>
    where
        F: FnMut(u32, Box<dyn Operator>) -> Result<Box<dyn Operator>>,
    {
        Ok(match streams {
            Streams::Serial(op) => Streams::Serial(f(self.home, op)?),
            Streams::Parallel(v) => Streams::Parallel(
                v.into_iter()
                    .map(|(n, op)| Ok((n, f(n, op)?)))
                    .collect::<Result<_>>()?,
            ),
        })
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
        home: vh.session_master().0,
    };
    let mut top = ctx.serial(build(&ctx, phys)?)?;
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

/// Two plan fragments joined pipeline by pipeline with `f`: a local join
/// of co-located partitions.
fn co_located<F>(
    ctx: &Ctx,
    left: &PhysPlan,
    right: &PhysPlan,
    what: &str,
    mut f: F,
) -> Result<Streams>
where
    F: FnMut(Box<dyn Operator>, Box<dyn Operator>) -> Result<Box<dyn Operator>>,
{
    let l = ctx.parallel(build(ctx, left)?);
    let r = ctx.parallel(build(ctx, right)?);
    if l.len() != r.len() {
        return Err(VhError::Exec(format!(
            "{what} partition mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    let mut out = Vec::with_capacity(l.len());
    for ((node, lop), (_, rop)) in l.into_iter().zip(r) {
        out.push((node, f(lop, rop)?));
    }
    Ok(Streams::Parallel(out))
}

fn build(ctx: &Ctx, phys: &PhysPlan) -> Result<Streams> {
    match phys {
        PhysPlan::ScanPartitioned { table, cols, pred } => {
            let rt = ctx.vh.table(table)?;
            let mut streams = Vec::with_capacity(rt.pids.len());
            for (i, pid) in rt.pids.iter().enumerate() {
                let node = ctx.vh.responsible(*pid);
                streams.push((node.0, scan_at(ctx, &rt, i, cols, pred, node)?));
            }
            Ok(Streams::Parallel(streams))
        }
        PhysPlan::ScanReplicated { table, cols, pred } => {
            let rt = ctx.vh.table(table)?;
            let node = NodeId(ctx.home);
            Ok(Streams::Serial(scan_at(ctx, &rt, 0, cols, pred, node)?))
        }
        PhysPlan::Select { input, predicate } => ctx.map(build(ctx, input)?, |_, op| {
            Ok(Box::new(Select::new(op, predicate.clone())) as Box<dyn Operator>)
        }),
        PhysPlan::Project { input, items } => ctx.map(build(ctx, input)?, |_, op| {
            Ok(Box::new(Project::new(op, items.clone())?) as Box<dyn Operator>)
        }),
        PhysPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => co_located(ctx, left, right, "merge join", |l, r| {
            Ok(Box::new(MergeJoin::new(l, r, *left_key, *right_key)?))
        }),
        PhysPlan::HashJoin {
            probe,
            build: build_side,
            probe_keys,
            build_keys,
            kind,
            strategy,
        } => {
            let kind = exec_join_kind(*kind);
            let join = |p, b| -> Result<Box<dyn Operator>> {
                let j = HashJoin::new(p, b, probe_keys.clone(), build_keys.clone(), kind)?;
                Ok(Box::new(j))
            };
            match strategy {
                JoinStrategy::Local => co_located(ctx, probe, build_side, "local join", join),
                JoinStrategy::BroadcastBuild => {
                    // One build a node, shared by the node's probe pipelines.
                    let probe = build(ctx, probe)?;
                    let mut nodes: Vec<u32> = match &probe {
                        Streams::Serial(_) => vec![ctx.home],
                        Streams::Parallel(v) => v.iter().map(|(n, _)| *n).collect(),
                    };
                    nodes.sort_unstable();
                    nodes.dedup();
                    // A broadcast side is drained once at home; every node
                    // gets a copy, one serialized copy a node away from home
                    // counted as network traffic.
                    let broadcast = match build_side.as_ref() {
                        PhysPlan::DxchgBroadcast { input } => {
                            let mut producer = ctx.serial(build(ctx, input)?)?;
                            let mut batches = Vec::new();
                            while let Some(b) = producer.next()? {
                                batches.push(b);
                            }
                            Some((producer.schema(), batches))
                        }
                        _ => None,
                    };
                    let mut sides = HashMap::new();
                    for n in nodes {
                        let side: Box<dyn Operator> = match &broadcast {
                            Some((schema, batches)) => {
                                if n != ctx.home {
                                    let stats = ctx.vh.net_stats();
                                    for b in batches {
                                        let bytes = vectorh_net::buffer::serialized_len(b) as u64;
                                        stats.record_net_message(bytes, b.len() as u64);
                                    }
                                }
                                Box::new(BatchSource::new(schema.clone(), batches.clone()))
                            }
                            // Replicated: the node's live sub-plan over its
                            // own replica.
                            None => {
                                let at = ctx.at(n);
                                at.serial(build(&at, build_side)?)?
                            }
                        };
                        sides.insert(n, SharedBuild::new(side, build_keys.clone()));
                    }
                    ctx.map(probe, |node, op| {
                        let side = sides[&node].clone();
                        let j = HashJoin::shared(op, side, probe_keys.clone(), kind)?;
                        Ok(Box::new(j) as Box<dyn Operator>)
                    })
                }
                JoinStrategy::Repartitioned => {
                    // The rewriter placed explicit DxchgHashSplit children.
                    let split = |side: &PhysPlan, keys: &[usize]| match side {
                        PhysPlan::DxchgHashSplit { input, keys } => {
                            ctx.split(build(ctx, input)?, keys.clone())
                        }
                        other => ctx.split(build(ctx, other)?, keys.to_vec()),
                    };
                    let probes = split(probe, probe_keys)?;
                    let builds = split(build_side, build_keys)?;
                    let mut out = Vec::with_capacity(probes.len());
                    for ((node, p), (_, b)) in probes.into_iter().zip(builds) {
                        out.push((node, join(p, b)?));
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
        } => {
            let aggr =
                |op, groups: Vec<usize>, aggs: Vec<AggFn>, mode| -> Result<Box<dyn Operator>> {
                    Ok(Box::new(Aggr::new(op, groups, aggs, mode)?))
                };
            let input = build(ctx, input)?;
            let final_keys: Vec<usize> = (0..group_by.len()).collect();
            match strategy {
                AggStrategy::Local => ctx.map(input, |_, op| {
                    aggr(op, group_by.clone(), aggs.clone(), AggMode::Complete)
                }),
                AggStrategy::PartialFinal => {
                    let partials = ctx.map(input, |_, op| {
                        aggr(op, group_by.clone(), aggs.clone(), AggMode::Partial)
                    })?;
                    let fin = final_aggs(group_by.len(), aggs);
                    let recv = ctx.split(partials, final_keys.clone())?;
                    ctx.map(Streams::Parallel(recv), |_, r| {
                        aggr(r, final_keys.clone(), fin.clone(), AggMode::Final)
                    })
                }
                AggStrategy::RepartitionComplete => {
                    let recv = ctx.split(input, group_by.clone())?;
                    ctx.map(Streams::Parallel(recv), |_, r| {
                        aggr(r, group_by.clone(), aggs.clone(), AggMode::Complete)
                    })
                }
                AggStrategy::GlobalPartialFinal => {
                    let partials = ctx.map(input, |_, op| {
                        aggr(op, vec![], aggs.clone(), AggMode::Partial)
                    })?;
                    let union = ctx.serial(partials)?;
                    let fin = final_aggs(0, aggs);
                    Ok(Streams::Serial(aggr(union, vec![], fin, AggMode::Final)?))
                }
                AggStrategy::GlobalComplete => {
                    let union = ctx.serial(input)?;
                    Ok(Streams::Serial(aggr(
                        union,
                        vec![],
                        aggs.clone(),
                        AggMode::Complete,
                    )?))
                }
            }
        }
        PhysPlan::Sort { input, keys, limit } => {
            // Partial TopN below the union when a limit exists.
            let serial = match (input.as_ref(), limit) {
                (PhysPlan::DxchgUnion { input: inner }, Some(n)) => {
                    ctx.serial(ctx.map(build(ctx, inner)?, |_, op| {
                        Ok(Box::new(Sort::new(op, keys.clone(), Some(*n))) as Box<dyn Operator>)
                    })?)?
                }
                _ => ctx.serial(build(ctx, input)?)?,
            };
            Ok(Streams::Serial(Box::new(Sort::new(
                serial,
                keys.clone(),
                *limit,
            ))))
        }
        PhysPlan::Limit { input, n } => {
            let serial = ctx.serial(build(ctx, input)?)?;
            Ok(Streams::Serial(Box::new(Limit::new(serial, *n))))
        }
        PhysPlan::DxchgUnion { input } => Ok(Streams::Serial(ctx.serial(build(ctx, input)?)?)),
        PhysPlan::DxchgHashSplit { input, keys } => Ok(Streams::Parallel(
            ctx.split(build(ctx, input)?, keys.clone())?,
        )),
        PhysPlan::DxchgBroadcast { .. } => Err(VhError::Internal(
            "standalone DxchgBroadcast outside a join build side".into(),
        )),
    }
}

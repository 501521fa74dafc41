//! Subquery decorrelation (the GlareDB/DataFusion playbook, house-built).
//!
//! * Uncorrelated scalar subqueries become a single-row **cross join**
//!   (empty-key Inner join; the rewriter broadcasts the one-row side).
//! * Correlated scalar subqueries become a **grouped join**: the subquery is
//!   aggregated by its correlation keys, then inner-joined on them. An
//!   empty correlation group and a NULL scalar reject the outer row the
//!   same way, so the inner join is exact for TPC-H's comparison contexts.
//! * `IN (SELECT ...)` / `EXISTS` become **Semi** joins, their negations
//!   **Anti** joins.
//! * `EXISTS` with one `<>` correlation (TPC-H Q21's "another supplier")
//!   is rewritten through a grouped `min(ne)/max(ne)`: a group holds a row
//!   with `ne <> outer.ne` iff its minimum or its maximum differs from the
//!   outer one (all its values equal the outer one iff both do).

use vectorh_common::{Result, Value, VhError};
use vectorh_exec::aggr::AggFn;
use vectorh_exec::expr::Expr;

use crate::logical::{CatalogInfo, JoinKind, LogicalPlan};
use crate::sql::{
    build_aggregate, contains_agg, lower_from_where, lower_select, take_plan, Ast, Correlation,
    QueryAst, Scope,
};

/// Replace every scalar subquery in `ast` with a `ResolvedCol` pointing at
/// a column appended to `plan` by the lowering joins.
pub(crate) fn substitute_scalars(
    ast: Ast,
    plan: &mut LogicalPlan,
    scope: &mut Scope,
    catalog: &dyn CatalogInfo,
) -> Result<Ast> {
    Ok(match ast {
        Ast::Scalar(q) => Ast::ResolvedCol(lower_scalar(&q, plan, scope, catalog)?),
        Ast::Bin(op, l, r) => Ast::Bin(
            op,
            Box::new(substitute_scalars(*l, plan, scope, catalog)?),
            Box::new(substitute_scalars(*r, plan, scope, catalog)?),
        ),
        Ast::Not(e) => Ast::Not(Box::new(substitute_scalars(*e, plan, scope, catalog)?)),
        Ast::Between(a, lo, hi) => Ast::Between(
            Box::new(substitute_scalars(*a, plan, scope, catalog)?),
            Box::new(substitute_scalars(*lo, plan, scope, catalog)?),
            Box::new(substitute_scalars(*hi, plan, scope, catalog)?),
        ),
        other => other,
    })
}

/// Lower one scalar subquery; returns the position of its value in the
/// joined plan's output.
fn lower_scalar(
    q: &QueryAst,
    plan: &mut LogicalPlan,
    scope: &mut Scope,
    catalog: &dyn CatalogInfo,
) -> Result<usize> {
    if q.items.len() != 1
        || !q.group_by.is_empty()
        || q.having.is_some()
        || q.distinct
        || !q.order_by.is_empty()
        || q.limit.is_some()
        || !contains_agg(&q.items[0].0)
    {
        return Err(VhError::Plan(
            "scalar subquery must be a single ungrouped aggregate".into(),
        ));
    }
    let mut corr = Vec::new();
    let (sub, sub_scope) = lower_from_where(q, catalog, Some(scope), &mut corr)?;
    let width = scope.cols.len();
    if corr.is_empty() {
        let (agg, _) = build_aggregate(sub, &sub_scope, catalog, &[], &q.items, None)?;
        *plan = LogicalPlan::Join {
            left: Box::new(take_plan(plan)),
            right: Box::new(agg),
            left_keys: vec![],
            right_keys: vec![],
            kind: JoinKind::Inner,
        };
        scope.cols.push((String::new(), format!("__sq{width}")));
        return Ok(width);
    }
    if corr.iter().any(|c| !c.eq) {
        return Err(VhError::Plan(
            "scalar subquery correlation must be an equality".into(),
        ));
    }
    let group_asts: Vec<Ast> = corr.iter().map(|c| Ast::ResolvedCol(c.inner)).collect();
    let mut items2: Vec<(Ast, Option<String>)> =
        group_asts.iter().map(|g| (g.clone(), None)).collect();
    items2.push(q.items[0].clone());
    let (agg, _) = build_aggregate(sub, &sub_scope, catalog, &group_asts, &items2, None)?;
    let k = corr.len();
    *plan = LogicalPlan::Join {
        left: Box::new(take_plan(plan)),
        right: Box::new(agg),
        left_keys: corr.iter().map(|c| c.outer).collect(),
        right_keys: (0..k).collect(),
        kind: JoinKind::Inner,
    };
    for i in 0..=k {
        scope.cols.push((String::new(), format!("__sq{width}_{i}")));
    }
    Ok(width + k)
}

/// Lower `lhs [NOT] IN (SELECT single_col ...)` into a Semi/Anti join.
pub(crate) fn lower_in(
    plan: &mut LogicalPlan,
    scope: &mut Scope,
    lhs: &Ast,
    q: &QueryAst,
    neg: bool,
    catalog: &dyn CatalogInfo,
) -> Result<()> {
    let li = match lhs {
        Ast::Col(qual, name) => scope.resolve(qual, name)?,
        _ => {
            return Err(VhError::Plan(
                "IN (subquery) left side must be a column".into(),
            ))
        }
    };
    let (sub, names) = lower_select(q, catalog)?;
    if names.len() != 1 {
        return Err(VhError::Plan(
            "IN subquery must select exactly one column".into(),
        ));
    }
    *plan = LogicalPlan::Join {
        left: Box::new(take_plan(plan)),
        right: Box::new(sub),
        left_keys: vec![li],
        right_keys: vec![0],
        kind: if neg { JoinKind::Anti } else { JoinKind::Semi },
    };
    Ok(())
}

/// Lower `[NOT] EXISTS (SELECT ...)` into a Semi/Anti join on its equality
/// correlations — or, with one `<>` correlation, through a grouped
/// min/max rewrite (TPC-H Q21).
pub(crate) fn lower_exists(
    plan: &mut LogicalPlan,
    scope: &mut Scope,
    q: &QueryAst,
    neg: bool,
    catalog: &dyn CatalogInfo,
) -> Result<()> {
    if !q.group_by.is_empty()
        || q.having.is_some()
        || q.distinct
        || !q.order_by.is_empty()
        || q.limit.is_some()
    {
        return Err(VhError::Plan(
            "EXISTS subquery must be a plain SELECT".into(),
        ));
    }
    let mut corr = Vec::new();
    let (sub, _sub_scope) = lower_from_where(q, catalog, Some(scope), &mut corr)?;
    let eqs: Vec<&Correlation> = corr.iter().filter(|c| c.eq).collect();
    let nes: Vec<&Correlation> = corr.iter().filter(|c| !c.eq).collect();
    if eqs.is_empty() {
        return Err(VhError::Plan(
            "EXISTS requires an equality correlation with the outer query".into(),
        ));
    }
    if nes.len() > 1 {
        return Err(VhError::Plan(
            "EXISTS supports at most one '<>' correlation".into(),
        ));
    }
    if nes.is_empty() {
        *plan = LogicalPlan::Join {
            left: Box::new(take_plan(plan)),
            right: Box::new(sub),
            left_keys: eqs.iter().map(|c| c.outer).collect(),
            right_keys: eqs.iter().map(|c| c.inner).collect(),
            kind: if neg { JoinKind::Anti } else { JoinKind::Semi },
        };
        return Ok(());
    }
    let ne = nes[0];
    let k = eqs.len();
    // Per equality-key group: the least and the greatest ne value.
    let pre: Vec<(Expr, String)> = eqs
        .iter()
        .enumerate()
        .map(|(i, c)| (Expr::Col(c.inner), format!("g{i}")))
        .chain(std::iter::once((Expr::Col(ne.inner), "ne".to_string())))
        .collect();
    let agg = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Project {
            input: Box::new(sub),
            items: pre,
        }),
        group_by: (0..k).collect(),
        aggs: vec![AggFn::Min(k), AggFn::Max(k)],
    };
    let width = scope.cols.len();
    *plan = LogicalPlan::Join {
        left: Box::new(take_plan(plan)),
        right: Box::new(agg),
        left_keys: eqs.iter().map(|c| c.outer).collect(),
        right_keys: (0..k).collect(),
        kind: if neg {
            JoinKind::LeftOuter
        } else {
            JoinKind::Inner
        },
    };
    for i in 0..k + 2 {
        scope.cols.push((String::new(), format!("__ex{width}_{i}")));
    }
    let mn = Expr::Col(width + k);
    let mx = Expr::Col(width + k + 1);
    let outer_ne = Expr::Col(ne.outer);
    let predicate = if neg {
        // NOT EXISTS: no group at all, or every value equal to the outer one.
        let matched = width + k + 2;
        scope.cols.push((String::new(), "__matched".into()));
        Expr::Or(vec![
            Expr::eq(Expr::Col(matched), Expr::Lit(Value::I64(0))),
            Expr::And(vec![Expr::eq(mn, outer_ne.clone()), Expr::eq(mx, outer_ne)]),
        ])
    } else {
        // EXISTS: some value differs from the outer one.
        Expr::Or(vec![Expr::ne(mn, outer_ne.clone()), Expr::ne(mx, outer_ne)])
    };
    *plan = LogicalPlan::Select {
        input: Box::new(take_plan(plan)),
        predicate,
    };
    Ok(())
}

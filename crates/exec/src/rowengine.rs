//! A tuple-at-a-time baseline engine.
//!
//! The Figure 7 comparison needs comparator systems. The paper attributes
//! the 1–3 order-of-magnitude gap largely to engines that interpret query
//! plans row by row (HAWQ's "PostgreSQL-based query engine ... cannot
//! compete with a modern vectorized engine in terms of CPU efficiency").
//! This module is that comparator, built honestly: the *same* expression
//! code and the same algorithms, but driven one tuple per `next_row()` call,
//! materializing a one-row [`Batch`] for every expression evaluation —
//! which is precisely the per-tuple interpretation overhead vectorization
//! amortizes away.

use std::collections::HashMap;
use std::sync::Arc;

use crate::operator::Operator as _;
use vectorh_common::{ColumnData, Result, Schema, Value, VhError};

use crate::batch::Batch;
use crate::expr::Expr;

/// A tuple-at-a-time operator.
pub trait RowOperator {
    fn schema(&self) -> Arc<Schema>;
    fn next_row(&mut self) -> Result<Option<Vec<Value>>>;
}

/// Evaluate an expression against one row (building a 1-row batch: the
/// overhead is the point).
fn eval_row(e: &Expr, schema: &Arc<Schema>, row: &[Value]) -> Result<Value> {
    let cols: Result<Vec<ColumnData>> = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut c = ColumnData::new(f.dtype);
            c.push_value(&row[i])?;
            Ok(c)
        })
        .collect();
    let b = Batch::new(schema.clone(), cols?)?;
    let (col, dt) = e.eval(&b)?;
    Ok(col.value_at(0, dt))
}

fn eval_row_bool(e: &Expr, schema: &Arc<Schema>, row: &[Value]) -> Result<bool> {
    Ok(match eval_row(e, schema, row)? {
        Value::I32(x) => x != 0,
        Value::I64(x) => x != 0,
        _ => false,
    })
}

/// Scan over materialized rows.
pub struct RowScan {
    schema: Arc<Schema>,
    rows: std::vec::IntoIter<Vec<Value>>,
}

impl RowScan {
    pub fn new(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> RowScan {
        RowScan {
            schema,
            rows: rows.into_iter(),
        }
    }
}

impl RowOperator for RowScan {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        Ok(self.rows.next())
    }
}

/// Row-wise filter.
pub struct RowSelect {
    child: Box<dyn RowOperator>,
    predicate: Expr,
}

impl RowSelect {
    pub fn new(child: Box<dyn RowOperator>, predicate: Expr) -> RowSelect {
        RowSelect { child, predicate }
    }
}

impl RowOperator for RowSelect {
    fn schema(&self) -> Arc<Schema> {
        self.child.schema()
    }
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        let schema = self.child.schema();
        while let Some(row) = self.child.next_row()? {
            if eval_row_bool(&self.predicate, &schema, &row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Row-wise projection.
pub struct RowProject {
    child: Box<dyn RowOperator>,
    exprs: Vec<Expr>,
    out_schema: Arc<Schema>,
}

impl RowProject {
    pub fn new(child: Box<dyn RowOperator>, items: Vec<(Expr, String)>) -> Result<RowProject> {
        let in_schema = child.schema();
        let mut fields = Vec::new();
        let mut exprs = Vec::new();
        for (e, n) in items {
            fields.push(vectorh_common::Field::new(n, e.dtype(&in_schema)?));
            exprs.push(e);
        }
        Ok(RowProject {
            child,
            exprs,
            out_schema: Arc::new(Schema::new(fields)),
        })
    }
}

impl RowOperator for RowProject {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        let schema = self.child.schema();
        match self.child.next_row()? {
            None => Ok(None),
            Some(row) => {
                let out: Result<Vec<Value>> = self
                    .exprs
                    .iter()
                    .map(|e| eval_row(e, &schema, &row))
                    .collect();
                Ok(Some(out?))
            }
        }
    }
}

/// Row-wise hash join (inner), one probe tuple at a time.
pub struct RowHashJoin {
    probe: Box<dyn RowOperator>,
    build: Option<Box<dyn RowOperator>>,
    probe_key: usize,
    build_key: usize,
    table: HashMap<String, Vec<Vec<Value>>>,
    out_schema: Arc<Schema>,
    pending: Vec<Vec<Value>>,
}

fn key_repr(v: &Value) -> String {
    format!("{v}")
}

impl RowHashJoin {
    pub fn new(
        probe: Box<dyn RowOperator>,
        build: Box<dyn RowOperator>,
        probe_key: usize,
        build_key: usize,
    ) -> RowHashJoin {
        let out_schema = Arc::new(probe.schema().join(&build.schema()));
        RowHashJoin {
            probe,
            build: Some(build),
            probe_key,
            build_key,
            table: HashMap::new(),
            out_schema,
            pending: Vec::new(),
        }
    }
}

impl RowOperator for RowHashJoin {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if let Some(mut build) = self.build.take() {
            while let Some(row) = build.next_row()? {
                self.table
                    .entry(key_repr(&row[self.build_key]))
                    .or_default()
                    .push(row);
            }
        }
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(prow) = self.probe.next_row()? else {
                return Ok(None);
            };
            if let Some(matches) = self.table.get(&key_repr(&prow[self.probe_key])) {
                for m in matches {
                    let mut out = prow.clone();
                    out.extend(m.iter().cloned());
                    self.pending.push(out);
                }
            }
        }
    }
}

/// Row-wise aggregation (complete mode only — the baseline engines in the
/// paper lack multi-core/partial aggregation, which is part of why they
/// lose).
pub struct RowAggr {
    child: Box<dyn RowOperator>,
    group_by: Vec<usize>,
    aggs: Vec<crate::aggr::AggFn>,
    done: bool,
    out: Vec<Vec<Value>>,
    out_schema: Arc<Schema>,
}

impl RowAggr {
    pub fn new(
        child: Box<dyn RowOperator>,
        group_by: Vec<usize>,
        aggs: Vec<crate::aggr::AggFn>,
    ) -> Result<RowAggr> {
        // Reuse the vectorized Aggr's schema computation by constructing it
        // over an empty source: the schemas must match for comparisons.
        let probe = crate::aggr::Aggr::new(
            Box::new(crate::operator::BatchSource::new(child.schema(), vec![])),
            group_by.clone(),
            aggs.clone(),
            crate::aggr::AggMode::Complete,
        )?;
        let out_schema = probe.schema();
        Ok(RowAggr {
            child,
            group_by,
            aggs,
            done: false,
            out: Vec::new(),
            out_schema,
        })
    }

    fn run(&mut self) -> Result<()> {
        use crate::aggr::AggFn;
        struct G {
            key: Vec<Value>,
            count: Vec<i64>,
            sum_i: Vec<i64>,
            sum_f: Vec<f64>,
            minmax: Vec<Option<Value>>,
        }
        let mut groups: HashMap<String, G> = HashMap::new();
        let n = self.aggs.len();
        while let Some(row) = self.child.next_row()? {
            let key: Vec<Value> = self.group_by.iter().map(|&g| row[g].clone()).collect();
            let kr = key.iter().map(key_repr).collect::<Vec<_>>().join("\u{1}");
            let g = groups.entry(kr).or_insert_with(|| G {
                key,
                count: vec![0; n],
                sum_i: vec![0; n],
                sum_f: vec![0.0; n],
                minmax: vec![None; n],
            });
            for (a, f) in self.aggs.iter().enumerate() {
                match f {
                    AggFn::CountStar | AggFn::Count(_) => g.count[a] += 1,
                    AggFn::Sum(c) | AggFn::Avg(c) => {
                        g.count[a] += 1;
                        match &row[*c] {
                            Value::F64(x) => g.sum_f[a] += x,
                            v => g.sum_i[a] += v.as_i64().unwrap_or(0),
                        }
                    }
                    AggFn::Min(c) => {
                        let v = row[*c].clone();
                        if g.minmax[a].as_ref().is_none_or(|m| v < *m) {
                            g.minmax[a] = Some(v);
                        }
                    }
                    AggFn::Max(c) => {
                        let v = row[*c].clone();
                        if g.minmax[a].as_ref().is_none_or(|m| v > *m) {
                            g.minmax[a] = Some(v);
                        }
                    }
                }
            }
        }
        if self.group_by.is_empty() && groups.is_empty() {
            let all_counts = self
                .aggs
                .iter()
                .all(|a| matches!(a, AggFn::CountStar | AggFn::Count(_)));
            if all_counts {
                self.out.push(vec![Value::I64(0); self.aggs.len()]);
                return Ok(());
            }
        }
        let child_schema = self.child.schema();
        for (_, g) in groups {
            let mut row = g.key.clone();
            for (a, f) in self.aggs.iter().enumerate() {
                match f {
                    AggFn::CountStar | AggFn::Count(_) => row.push(Value::I64(g.count[a])),
                    AggFn::Sum(c) => {
                        let dt = child_schema.dtype(*c);
                        row.push(match dt {
                            vectorh_common::DataType::F64 => Value::F64(g.sum_f[a]),
                            vectorh_common::DataType::Decimal { scale } => {
                                Value::Decimal(g.sum_i[a], scale)
                            }
                            _ => Value::I64(g.sum_i[a]),
                        });
                    }
                    AggFn::Avg(c) => {
                        let dt = child_schema.dtype(*c);
                        let denom = (g.count[a] as f64).max(1.0);
                        row.push(match dt {
                            vectorh_common::DataType::F64 => Value::F64(g.sum_f[a] / denom),
                            vectorh_common::DataType::Decimal { scale } => {
                                Value::F64(g.sum_i[a] as f64 / denom / 10f64.powi(scale as i32))
                            }
                            _ => Value::F64(g.sum_i[a] as f64 / denom),
                        });
                    }
                    AggFn::Min(_) | AggFn::Max(_) => row.push(
                        g.minmax[a]
                            .clone()
                            .ok_or_else(|| VhError::Exec("MIN/MAX over empty group".into()))?,
                    ),
                }
            }
            self.out.push(row);
        }
        Ok(())
    }
}

impl RowOperator for RowAggr {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if !self.done {
            self.run()?;
            self.done = true;
        }
        Ok(self.out.pop())
    }
}

/// Drain a row operator.
pub fn collect_row_op(op: &mut dyn RowOperator) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    while let Some(r) = op.next_row()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggr::AggFn;
    use crate::sort::sort_rows;
    use vectorh_common::DataType;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::of(&[("g", DataType::I64), ("x", DataType::I64)]))
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::I64(1), Value::I64(10)],
            vec![Value::I64(2), Value::I64(20)],
            vec![Value::I64(1), Value::I64(30)],
        ]
    }

    #[test]
    fn select_project_pipeline() {
        let scan = RowScan::new(schema(), rows());
        let sel = RowSelect::new(
            Box::new(scan),
            Expr::ge(Expr::col(1), Expr::lit(Value::I64(20))),
        );
        let mut proj = RowProject::new(
            Box::new(sel),
            vec![(
                Expr::add(Expr::col(1), Expr::lit(Value::I64(1))),
                "x1".into(),
            )],
        )
        .unwrap();
        let mut got = collect_row_op(&mut proj).unwrap();
        sort_rows(&mut got);
        assert_eq!(got, vec![vec![Value::I64(21)], vec![Value::I64(31)]]);
    }

    #[test]
    fn row_join_matches() {
        let l = RowScan::new(schema(), rows());
        let r = RowScan::new(
            schema(),
            vec![
                vec![Value::I64(1), Value::I64(100)],
                vec![Value::I64(3), Value::I64(300)],
            ],
        );
        let mut j = RowHashJoin::new(Box::new(l), Box::new(r), 0, 0);
        let got = collect_row_op(&mut j).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn row_aggr_matches_vectorized() {
        // Same data through both engines must agree.
        let mut ra = RowAggr::new(
            Box::new(RowScan::new(schema(), rows())),
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
        )
        .unwrap();
        let mut got = collect_row_op(&mut ra).unwrap();
        sort_rows(&mut got);

        let schema2 = schema();
        let batch = Batch::new(
            schema2.clone(),
            vec![
                ColumnData::I64(vec![1, 2, 1]),
                ColumnData::I64(vec![10, 20, 30]),
            ],
        )
        .unwrap();
        let src = Box::new(crate::operator::BatchSource::from_batch(batch, 1024));
        let mut va = crate::aggr::Aggr::new(
            src,
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
            crate::aggr::AggMode::Complete,
        )
        .unwrap();
        let mut want = crate::batch::collect_rows(&mut va).unwrap();
        sort_rows(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_global_count_is_zero() {
        let mut ra = RowAggr::new(
            Box::new(RowScan::new(schema(), vec![])),
            vec![],
            vec![AggFn::CountStar],
        )
        .unwrap();
        assert_eq!(collect_row_op(&mut ra).unwrap(), vec![vec![Value::I64(0)]]);
    }
}

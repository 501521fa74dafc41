//! Project: vectorized expression evaluation producing new columns.
//!
//! `Project` owns the batch it pulled, so an item that is a bare column
//! reference *moves* that column into the output: the computed items are
//! evaluated first, over the borrowed input, and then each pass-through
//! takes its column, copying only when the same column is passed through
//! again by a later item.

use std::sync::Arc;

use vectorh_common::{ColumnData, Field, Result, Schema};

use crate::batch::Batch;
use crate::expr::Expr;
use crate::operator::{Counters, OpProfile, Operator};

/// How one output column is produced.
enum Item {
    /// An expression, evaluated over the borrowed input.
    Compute(Expr),
    /// A bare `Col(c)` that a later item passes through again: copied.
    Copy(usize),
    /// A bare `Col(c)`, the last item to pass it through: moved out of the
    /// input batch.
    Take(usize),
}

/// Projection operator: each output column is an expression over the input.
pub struct Project {
    child: Box<dyn Operator>,
    items: Vec<Item>,
    out_schema: Arc<Schema>,
    counters: Counters,
}

impl Project {
    /// Build a projection; output column names are given alongside their
    /// expressions and types are inferred.
    pub fn new(child: Box<dyn Operator>, items: Vec<(Expr, String)>) -> Result<Project> {
        let in_schema = child.schema();
        let mut fields = Vec::with_capacity(items.len());
        let mut exprs = Vec::with_capacity(items.len());
        for (e, name) in items {
            fields.push(Field::new(name, e.dtype(&in_schema)?));
            exprs.push(e);
        }
        let items = (0..exprs.len())
            .map(|k| match &exprs[k] {
                Expr::Col(c) if exprs[k + 1..].contains(&exprs[k]) => Item::Copy(*c),
                Expr::Col(c) => Item::Take(*c),
                e => Item::Compute(e.clone()),
            })
            .collect();
        Ok(Project {
            child,
            items,
            out_schema: Arc::new(Schema::new(fields)),
            counters: Counters::default(),
        })
    }

    /// Column-subset projection by index.
    pub fn columns(child: Box<dyn Operator>, cols: &[usize]) -> Result<Project> {
        let schema = child.schema();
        let items = cols
            .iter()
            .map(|&c| (Expr::col(c), schema.field(c).name.clone()))
            .collect();
        Project::new(child, items)
    }
}

impl Operator for Project {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        let out = match self.child.next()? {
            None => None,
            Some(mut batch) => {
                self.counters.rows_in += batch.len() as u64;
                // Everything that reads the input first, then the moves.
                let taken = || ColumnData::I32(Vec::new());
                let mut cols = Vec::with_capacity(self.items.len());
                for item in &self.items {
                    cols.push(match item {
                        Item::Compute(e) => e.eval(&batch)?.0,
                        Item::Copy(c) => batch.columns[*c].clone(),
                        Item::Take(_) => taken(), // filled in below
                    });
                }
                for (col, item) in cols.iter_mut().zip(&self.items) {
                    if let Item::Take(c) = item {
                        *col = std::mem::replace(&mut batch.columns[*c], taken());
                    }
                }
                Some(Batch::new(self.out_schema.clone(), cols)?)
            }
        };
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if let Some(b) = &out {
            self.counters.rows_out += b.len() as u64;
        }
        Ok(out)
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile("Project")
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BatchSource;
    use vectorh_common::{ColumnData, DataType, Value};

    fn source() -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[("a", DataType::I64), ("b", DataType::I64)]));
        let batch = Batch::new(
            schema,
            vec![
                ColumnData::I64(vec![1, 2, 3]),
                ColumnData::I64(vec![10, 20, 30]),
            ],
        )
        .unwrap();
        Box::new(BatchSource::from_batch(batch, 1024))
    }

    #[test]
    fn computes_expressions() {
        let mut p = Project::new(
            source(),
            vec![
                (Expr::add(Expr::col(0), Expr::col(1)), "sum".into()),
                (Expr::col(0), "a".into()),
            ],
        )
        .unwrap();
        assert_eq!(p.schema().names(), vec!["sum", "a"]);
        let rows = crate::batch::collect_rows(&mut p).unwrap();
        assert_eq!(rows[0], vec![Value::I64(11), Value::I64(1)]);
        assert_eq!(rows[2], vec![Value::I64(33), Value::I64(3)]);
    }

    #[test]
    fn column_subset() {
        let mut p = Project::columns(source(), &[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["b"]);
        let rows = crate::batch::collect_rows(&mut p).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::I64(10)],
                vec![Value::I64(20)],
                vec![Value::I64(30)],
            ]
        );
    }

    #[test]
    fn bad_expression_fails_at_construction() {
        assert!(Project::new(source(), vec![(Expr::col(5), "x".into())]).is_err());
    }
}

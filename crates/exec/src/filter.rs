//! Select: vectorized filtering.
//!
//! The predicate narrows a selection vector over the input vector's borrowed
//! columns (`Expr::select`: conjunct by conjunct, each one pass over the
//! positions still selected), and the qualifying rows are gathered **once**,
//! here, at the operator's output. A `Batch` is always compact between
//! operators: Vectorwise hands the selection vector on to the next operator
//! and lets it read through it; we gather eagerly — the work is the same
//! O(selected) copy, done once per vector — so that no operator above has to
//! know about positions.

use std::sync::Arc;

use vectorh_common::{Result, Schema};

use crate::batch::Batch;
use crate::expr::Expr;
use crate::operator::{Counters, OpProfile, Operator};

/// Filter operator.
pub struct Select {
    child: Box<dyn Operator>,
    predicate: Expr,
    counters: Counters,
    /// Reused selection-vector buffer (refilled with every position each batch).
    sel: Vec<u32>,
}

impl Select {
    pub fn new(child: Box<dyn Operator>, predicate: Expr) -> Select {
        Select {
            child,
            predicate,
            counters: Counters::default(),
            sel: Vec::new(),
        }
    }
}

impl Operator for Select {
    fn schema(&self) -> Arc<Schema> {
        self.child.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        let out = loop {
            let Some(batch) = self.child.next()? else {
                break None;
            };
            self.counters.rows_in += batch.len() as u64;
            self.sel.clear();
            self.sel.extend(0..batch.len() as u32);
            self.predicate.select(&batch, &mut self.sel)?;
            if self.sel.is_empty() {
                continue; // fully filtered vector: pull the next one
            }
            if self.sel.len() == batch.len() {
                break Some(batch); // nothing filtered: pass through untouched
            }
            break Some(batch.gather_u32(&self.sel));
        };
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if let Some(b) = &out {
            self.counters.rows_out += b.len() as u64;
        }
        Ok(out)
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile("Select")
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

    fn source(vals: Vec<i64>) -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        let batch = Batch::new(schema.clone(), vec![ColumnData::I64(vals)]).unwrap();
        Box::new(BatchSource::from_batch(batch, 4))
    }

    #[test]
    fn filters_rows() {
        let mut sel = Select::new(
            source((0..20).collect()),
            Expr::ge(Expr::col(0), Expr::lit(Value::I64(15))),
        );
        let rows = crate::batch::collect_rows(&mut sel).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::I64(15));
        let p = sel.profile();
        assert_eq!(p.rows_in, 20);
        assert_eq!(p.rows_out, 5);
    }

    #[test]
    fn skips_empty_vectors() {
        // First batches all filtered out; Select must keep pulling.
        let mut sel = Select::new(
            source((0..20).collect()),
            Expr::eq(Expr::col(0), Expr::lit(Value::I64(19))),
        );
        let rows = crate::batch::collect_rows(&mut sel).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(19)]]);
    }

    #[test]
    fn all_pass_is_identity() {
        let mut sel = Select::new(
            source((0..8).collect()),
            Expr::ge(Expr::col(0), Expr::lit(Value::I64(0))),
        );
        let rows = crate::batch::collect_rows(&mut sel).unwrap();
        assert_eq!(rows.len(), 8);
    }
}

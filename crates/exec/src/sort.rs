//! Sort and TopN.
//!
//! `Sort` materializes its input, sorts a permutation vector by the key
//! columns, and emits in order; `limit` turns it into TopN (the paper's Q1
//! plan shows `TopN (partial)` per thread under a merging final TopN —
//! the exchange layer composes partial TopNs the same way).

use std::cmp::Ordering;
use std::sync::Arc;

use vectorh_common::{Result, Schema, Value, VhError, VECTOR_SIZE};

use crate::batch::Batch;
use crate::operator::{Counters, OpProfile, Operator};

/// Sort direction per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Asc,
    Desc,
}

/// Sort operator (with optional LIMIT → TopN).
pub struct Sort {
    child: Box<dyn Operator>,
    keys: Vec<(usize, Dir)>,
    limit: Option<usize>,
    sorted: Option<Batch>,
    emit_at: usize,
    counters: Counters,
}

impl Sort {
    pub fn new(child: Box<dyn Operator>, keys: Vec<(usize, Dir)>, limit: Option<usize>) -> Sort {
        Sort {
            child,
            keys,
            limit,
            sorted: None,
            emit_at: 0,
            counters: Counters::default(),
        }
    }

    fn cmp_rows(&self, batch: &Batch, a: usize, b: usize) -> Ordering {
        for &(k, dir) in &self.keys {
            let col = batch.column(k);
            let ord = col.cmp_rows(a, col, b);
            let ord = if dir == Dir::Desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    fn materialize(&mut self) -> Result<()> {
        let mut all = Batch::empty(self.child.schema());
        while let Some(b) = self.child.next()? {
            self.counters.rows_in += b.len() as u64;
            all.append(&b)?;
        }
        let n = u32::try_from(all.len())
            .map_err(|_| VhError::Exec(format!("sort of {} rows: past u32 row ids", all.len())))?;
        let mut perm: Vec<u32> = (0..n).collect();
        perm.sort_by(|&a, &b| self.cmp_rows(&all, a as usize, b as usize));
        if let Some(limit) = self.limit {
            perm.truncate(limit);
        }
        self.sorted = Some(all.gather_u32(&perm));
        Ok(())
    }
}

impl Operator for Sort {
    fn schema(&self) -> Arc<Schema> {
        self.child.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        if self.sorted.is_none() {
            self.materialize()?;
        }
        let sorted = self.sorted.as_ref().unwrap();
        let out = if self.emit_at >= sorted.len() {
            None
        } else {
            let to = (self.emit_at + VECTOR_SIZE).min(sorted.len());
            let b = sorted.slice(self.emit_at, to);
            self.emit_at = to;
            Some(b)
        };
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if let Some(b) = &out {
            self.counters.rows_out += b.len() as u64;
        }
        Ok(out)
    }

    fn profile(&self) -> OpProfile {
        self.counters
            .profile(if self.limit.is_some() { "TopN" } else { "Sort" })
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Plain LIMIT without sorting.
pub struct Limit {
    child: Box<dyn Operator>,
    remaining: usize,
    counters: Counters,
}

impl Limit {
    pub fn new(child: Box<dyn Operator>, n: usize) -> Limit {
        Limit {
            child,
            remaining: n,
            counters: Counters::default(),
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> Arc<Schema> {
        self.child.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        let out = if self.remaining == 0 {
            None
        } else {
            match self.child.next()? {
                None => None,
                Some(b) => {
                    self.counters.rows_in += b.len() as u64;
                    let take = b.len().min(self.remaining);
                    self.remaining -= take;
                    Some(if take == b.len() { b } else { b.slice(0, take) })
                }
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
        self.counters.profile("Limit")
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Sort helper for result rows (used by tests and harnesses to canonicalize
/// output ordering where SQL leaves it unspecified).
pub fn sort_rows(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            match x.partial_cmp(y) {
                Some(Ordering::Equal) | None => continue,
                Some(o) => return o,
            }
        }
        Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BatchSource;
    use vectorh_common::{ColumnData, DataType};

    fn source(vals: Vec<i64>, tags: Vec<&str>) -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64), ("t", DataType::Str)]));
        let batch = Batch::new(
            schema,
            vec![ColumnData::I64(vals), ColumnData::Str(tags.into())],
        )
        .unwrap();
        Box::new(BatchSource::from_batch(batch, 3))
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let mut s = Sort::new(
            source(vec![3, 1, 2], vec!["c", "a", "b"]),
            vec![(0, Dir::Asc)],
            None,
        );
        let rows = crate::batch::collect_rows(&mut s).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let mut s = Sort::new(
            source(vec![3, 1, 2], vec!["c", "a", "b"]),
            vec![(0, Dir::Desc)],
            None,
        );
        let rows = crate::batch::collect_rows(&mut s).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn multi_key_with_tiebreak() {
        let mut s = Sort::new(
            source(vec![1, 1, 0], vec!["b", "a", "z"]),
            vec![(0, Dir::Asc), (1, Dir::Asc)],
            None,
        );
        let rows = crate::batch::collect_rows(&mut s).unwrap();
        assert_eq!(rows[0][1], Value::Str("z".into()));
        assert_eq!(rows[1][1], Value::Str("a".into()));
        assert_eq!(rows[2][1], Value::Str("b".into()));
    }

    #[test]
    fn topn_truncates() {
        let mut s = Sort::new(
            source(vec![5, 3, 9, 1, 7], vec!["e", "c", "i", "a", "g"]),
            vec![(0, Dir::Desc)],
            Some(2),
        );
        let rows = crate::batch::collect_rows(&mut s).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![9, 7]
        );
        assert_eq!(s.profile().name, "TopN");
    }

    #[test]
    fn limit_stops_pulling() {
        let mut l = Limit::new(
            source(vec![1, 2, 3, 4, 5], vec!["a", "b", "c", "d", "e"]),
            4,
        );
        let rows = crate::batch::collect_rows(&mut l).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        let src = Box::new(BatchSource::new(schema, vec![]));
        let mut s = Sort::new(src, vec![(0, Dir::Asc)], None);
        assert!(crate::batch::collect_rows(&mut s).unwrap().is_empty());
    }
}

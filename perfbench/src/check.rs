//! Answer checking, all of it outside the timed regions.
//!
//! Every answer is reduced to a digest the moment it arrives (cheap, and it
//! lets a 50 k-row result be forgotten at once); the first answer to each
//! distinct statement is kept whole. After the run the kept answers are
//! compared against the naive columnar baseline engine on the same data,
//! and every repeat must have had the digest of the first.

use std::collections::BTreeMap;

use vectorh_common::Value;
use vectorh_exec::batch::fingerprint_rows;
use vectorh_planner::LogicalPlan;
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};

/// Row count plus an order-insensitive sum of per-row fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub sum: u64,
}

/// Floats keep nine significant digits: a parallel aggregate may add its
/// partial sums in another order on another run.
fn settle(v: &Value) -> Value {
    match v {
        Value::F64(x) if *x != 0.0 && x.is_finite() => {
            let scale = 10f64.powi(8 - x.abs().log10().floor() as i32);
            Value::F64((x * scale).round() / scale)
        }
        other => other.clone(),
    }
}

pub fn digest(rows: &[Vec<Value>]) -> Digest {
    let mut sum = 0u64;
    for row in rows {
        let fp = if row.iter().any(|v| matches!(v, Value::F64(_))) {
            fingerprint_rows(&[row.iter().map(settle).collect()])
        } else {
            fingerprint_rows(std::slice::from_ref(row))
        };
        sum = sum.wrapping_add(fp);
    }
    Digest {
        rows: rows.len(),
        sum,
    }
}

struct First {
    sql: String,
    rows: Vec<Vec<Value>>,
    digest: Digest,
}

/// The answers of one run, by statement.
#[derive(Default)]
pub struct AnswerBook {
    first: BTreeMap<String, First>,
    /// Statements whose repeat differed from their first answer.
    pub unstable: Vec<String>,
    /// Statements whose first answer differed from the baseline's.
    pub wrong: Vec<String>,
}

impl AnswerBook {
    /// Note one answer to `sql`. `key` names the statement in reports.
    pub fn record(&mut self, key: &str, sql: &str, rows: Vec<Vec<Value>>) {
        let d = digest(&rows);
        match self.first.get(key) {
            None => {
                self.first.insert(
                    key.to_string(),
                    First {
                        sql: sql.to_string(),
                        rows,
                        digest: d,
                    },
                );
            }
            Some(f) if f.digest != d => self.unstable.push(key.to_string()),
            Some(_) => {}
        }
    }

    pub fn merge(&mut self, other: AnswerBook) {
        self.unstable.extend(other.unstable);
        for (key, f) in other.first {
            match self.first.get(&key) {
                Some(mine) if mine.digest != f.digest => self.unstable.push(key),
                Some(_) => {}
                None => {
                    self.first.insert(key, f);
                }
            }
        }
    }

    /// Compare each statement's first answer with `expected(sql)`.
    pub fn verify(
        &mut self,
        mut expected: impl FnMut(&str) -> crate::Result<Vec<Vec<Value>>>,
    ) -> crate::Result<()> {
        for (key, f) in &self.first {
            if canonical(f.rows.clone()) != canonical(expected(&f.sql)?) {
                self.wrong.push(key.clone());
            }
        }
        Ok(())
    }

    /// Statements that count as failed operations.
    pub fn failures(&self) -> u64 {
        (self.unstable.len() + self.wrong.len()) as u64
    }
}

/// The baseline's answer to a plan the engine's own parser produced.
pub fn baseline_answer(db: &BaselineDb, plan: &LogicalPlan) -> crate::Result<Vec<Vec<Value>>> {
    Ok(db.run(plan, BaselineKind::NaiveColumnar)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(xs: &[i64]) -> Vec<Vec<Value>> {
        xs.iter().map(|&x| vec![Value::I64(x)]).collect()
    }

    #[test]
    fn digest_ignores_row_order_and_float_dust() {
        assert_eq!(digest(&rows(&[1, 2, 3])), digest(&rows(&[3, 1, 2])));
        assert_ne!(digest(&rows(&[1, 2, 3])), digest(&rows(&[1, 2, 4])));
        assert_ne!(digest(&rows(&[1, 2])), digest(&rows(&[1, 2, 2])));
        let a = vec![vec![Value::F64(1_234.567_890_123_4)]];
        let b = vec![vec![Value::F64(1_234.567_890_123_9)]];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&[vec![Value::F64(1_234.568)]]));
    }

    #[test]
    fn a_corrupted_expected_answer_is_a_failure() {
        let mut book = AnswerBook::default();
        book.record("q06", "select 1", rows(&[7]));
        book.record("q06", "select 1", rows(&[7]));
        book.verify(|_| Ok(rows(&[7]))).unwrap();
        assert_eq!(book.failures(), 0);

        book.verify(|_| Ok(rows(&[8]))).unwrap();
        assert_eq!(book.wrong, vec!["q06".to_string()]);
        assert_eq!(book.failures(), 1);
    }

    #[test]
    fn a_repeat_that_differs_from_the_first_is_a_failure() {
        let mut book = AnswerBook::default();
        book.record("q01", "select 1", rows(&[1, 2]));
        book.record("q01", "select 1", rows(&[2, 1]));
        assert_eq!(book.failures(), 0);
        book.record("q01", "select 1", rows(&[1, 3]));
        assert_eq!(book.unstable, vec!["q01".to_string()]);

        let mut other = AnswerBook::default();
        other.record("q01", "select 1", rows(&[9]));
        book.merge(other);
        assert_eq!(book.failures(), 2);
    }
}

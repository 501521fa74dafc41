//! MinMax indexes: per-chunk column summaries enabling data skipping.
//!
//! "MinMax indexes store simple metadata about the values in a given range
//! of records, and allow quick elimination of ranges of records during scan
//! operations (skipping), saving both IO and CPU decompression cost" (§2).
//! Unlike ORC/Parquet, VectorH keeps them *separate* from the data (§6) —
//! here they live in the partition manifest / WAL, never in chunk files.
//!
//! The index describes the stable image only: trickle updates never touch
//! it (a scan reconciles pruning with its merge plan instead, see
//! `exec::scan::keep_chunks`), and update propagation recomputes the stats
//! of every chunk it rewrites or appends.

use std::cmp::Ordering;

use vectorh_common::{ColumnData, DataType, Value};

/// Min/max summary of one column over one tuple range (chunk).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Value,
    pub max: Value,
}

impl ColumnStats {
    /// Compute from data using the logical `dtype` for value interpretation.
    pub fn from_column(col: &ColumnData, dtype: DataType) -> Option<ColumnStats> {
        if col.is_empty() {
            return None;
        }
        // Compared in place; only the two winners become `Value`s.
        let (mut lo, mut hi) = (0, 0);
        for i in 1..col.len() {
            if col.cmp_rows(i, col, lo) == Ordering::Less {
                lo = i;
            }
            if col.cmp_rows(i, col, hi) == Ordering::Greater {
                hi = i;
            }
        }
        Some(ColumnStats {
            min: col.value_at(lo, dtype),
            max: col.value_at(hi, dtype),
        })
    }

    /// Could any value in this range satisfy `value OP probe`?
    pub fn may_match(&self, op: PruneOp, probe: &Value) -> bool {
        match op {
            PruneOp::Lt => self.min < *probe,
            PruneOp::Le => self.min <= *probe,
            PruneOp::Gt => self.max > *probe,
            PruneOp::Ge => self.max >= *probe,
            PruneOp::Eq => self.min <= *probe && *probe <= self.max,
            PruneOp::Between(ref hi) => self.min <= *hi && *probe <= self.max,
            PruneOp::InList(ref rest) => std::iter::once(probe)
                .chain(rest)
                .any(|v| self.min <= *v && *v <= self.max),
        }
    }
}

/// Comparison shapes the pruner understands.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    /// `probe <= value <= hi` — probe is the lower bound, the variant holds
    /// the upper bound.
    Between(Value),
    /// `value IN (probe, rest...)` — probe is the first list value, the
    /// variant holds the others.
    InList(Vec<Value>),
}

/// A conjunction of prunable predicates: `(column, op, probe)`.
pub type Pruning = Vec<(usize, PruneOp, Value)>;

/// MinMax index for one partition: `chunks[chunk][column]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MinMaxIndex {
    chunks: Vec<Vec<Option<ColumnStats>>>,
}

impl MinMaxIndex {
    pub fn new() -> MinMaxIndex {
        MinMaxIndex::default()
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Record stats for a freshly written chunk (appended in chunk order).
    pub fn push_chunk(&mut self, stats: Vec<Option<ColumnStats>>) {
        self.chunks.push(stats);
    }

    /// Replace a chunk's stats after a rewrite.
    pub fn replace_chunk(&mut self, chunk: usize, stats: Vec<Option<ColumnStats>>) {
        self.chunks[chunk] = stats;
    }

    /// Drop a chunk's stats (chunk file deleted).
    pub fn remove_chunk(&mut self, chunk: usize) {
        self.chunks.remove(chunk);
    }

    pub fn stats(&self, chunk: usize, col: usize) -> Option<&ColumnStats> {
        self.chunks
            .get(chunk)
            .and_then(|c| c.get(col))
            .and_then(|s| s.as_ref())
    }

    /// Which chunks can a scan with these predicates skip entirely?
    /// Returns `keep[chunk]`. Chunks with missing stats are always kept.
    pub fn prune(&self, preds: &Pruning) -> Vec<bool> {
        self.chunks
            .iter()
            .map(|cols| {
                preds.iter().all(
                    |(col, op, probe)| match cols.get(*col).and_then(|s| s.as_ref()) {
                        Some(stats) => stats.may_match(op.clone(), probe),
                        None => true,
                    },
                )
            })
            .collect()
    }

    /// Clear everything (update propagation rebuild).
    pub fn clear(&mut self) {
        self.chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(min: i64, max: i64) -> ColumnStats {
        ColumnStats {
            min: Value::I64(min),
            max: Value::I64(max),
        }
    }

    #[test]
    fn from_column_finds_extremes() {
        let col = ColumnData::I64(vec![5, -2, 9, 3]);
        let s = ColumnStats::from_column(&col, DataType::I64).unwrap();
        assert_eq!(s.min, Value::I64(-2));
        assert_eq!(s.max, Value::I64(9));
        assert!(ColumnStats::from_column(&ColumnData::I64(vec![]), DataType::I64).is_none());
    }

    #[test]
    fn from_column_respects_logical_type() {
        let col = ColumnData::I32(vec![9000, 9100]);
        let s = ColumnStats::from_column(&col, DataType::Date).unwrap();
        assert_eq!(s.min, Value::Date(9000));
    }

    #[test]
    fn may_match_comparisons() {
        let s = stats(10, 20);
        assert!(s.may_match(PruneOp::Lt, &Value::I64(11)));
        assert!(!s.may_match(PruneOp::Lt, &Value::I64(10)));
        assert!(s.may_match(PruneOp::Le, &Value::I64(10)));
        assert!(s.may_match(PruneOp::Gt, &Value::I64(19)));
        assert!(!s.may_match(PruneOp::Gt, &Value::I64(20)));
        assert!(s.may_match(PruneOp::Ge, &Value::I64(20)));
        assert!(s.may_match(PruneOp::Eq, &Value::I64(15)));
        assert!(!s.may_match(PruneOp::Eq, &Value::I64(21)));
        // BETWEEN 18 AND 25 overlaps [10,20]
        assert!(s.may_match(PruneOp::Between(Value::I64(25)), &Value::I64(18)));
        // BETWEEN 21 AND 25 does not
        assert!(!s.may_match(PruneOp::Between(Value::I64(25)), &Value::I64(21)));
    }

    #[test]
    fn in_list_matches_iff_some_value_is_in_range() {
        let s = stats(10, 20);
        let rest = |vs: &[i64]| PruneOp::InList(vs.iter().map(|v| Value::I64(*v)).collect());
        // The probe alone, the extremes included.
        assert!(s.may_match(rest(&[]), &Value::I64(10)));
        assert!(s.may_match(rest(&[]), &Value::I64(20)));
        assert!(!s.may_match(rest(&[]), &Value::I64(9)));
        // Any one of the others is enough, wherever it sits in the list.
        assert!(s.may_match(rest(&[30, 15]), &Value::I64(5)));
        assert!(!s.may_match(rest(&[30, 21, -4]), &Value::I64(5)));
        // Values that straddle the range without entering it do not match.
        assert!(!s.may_match(rest(&[25]), &Value::I64(5)));
        // Strings order lexically.
        let s = ColumnStats {
            min: Value::Str("b".into()),
            max: Value::Str("d".into()),
        };
        let list = PruneOp::InList(vec![Value::Str("c".into())]);
        assert!(s.may_match(list.clone(), &Value::Str("a".into())));
        assert!(!s.may_match(PruneOp::InList(vec![]), &Value::Str("e".into())));
    }

    #[test]
    fn prune_selects_chunks() {
        let mut idx = MinMaxIndex::new();
        idx.push_chunk(vec![Some(stats(0, 9))]);
        idx.push_chunk(vec![Some(stats(10, 19))]);
        idx.push_chunk(vec![Some(stats(20, 29))]);
        // value < 12 can only live in chunks 0 and 1
        let keep = idx.prune(&vec![(0, PruneOp::Lt, Value::I64(12))]);
        assert_eq!(keep, vec![true, true, false]);
        // conjunction: < 12 AND >= 10 → only chunk 1
        let keep = idx.prune(&vec![
            (0, PruneOp::Lt, Value::I64(12)),
            (0, PruneOp::Ge, Value::I64(10)),
        ]);
        assert_eq!(keep, vec![false, true, false]);
        // empty predicate keeps everything
        assert_eq!(idx.prune(&vec![]), vec![true, true, true]);
    }

    #[test]
    fn prune_keeps_chunks_without_stats() {
        let mut idx = MinMaxIndex::new();
        idx.push_chunk(vec![None]);
        idx.push_chunk(vec![Some(stats(0, 5))]);
        let keep = idx.prune(&vec![(0, PruneOp::Gt, Value::I64(100))]);
        assert_eq!(keep, vec![true, false]);
    }

    #[test]
    fn replace_and_remove() {
        let mut idx = MinMaxIndex::new();
        idx.push_chunk(vec![Some(stats(5, 6))]);
        idx.replace_chunk(0, vec![Some(stats(1, 2))]);
        assert_eq!(idx.stats(0, 0).unwrap().max, Value::I64(2));
        idx.remove_chunk(0);
        assert_eq!(idx.n_chunks(), 0);
    }

    #[test]
    fn date_pruning_matches_paper_usage() {
        // "clustered indexes cause selections on date to enable data
        // skipping" — a sorted date column gives disjoint chunk ranges.
        let mut idx = MinMaxIndex::new();
        for q in 0..8 {
            idx.push_chunk(vec![Some(ColumnStats {
                min: Value::Date(q * 90),
                max: Value::Date(q * 90 + 89),
            })]);
        }
        let keep = idx.prune(&vec![(0, PruneOp::Lt, Value::Date(180))]);
        assert_eq!(keep.iter().filter(|k| **k).count(), 2);
    }
}

//! Aggr: hash aggregation with partial/final modes.
//!
//! Supports the §5 "partial aggregation" rewrite: a `Partial` instance runs
//! below the exchange and emits mergeable states; a `Final` instance above
//! the exchange merges them. `Complete` does both at once (the DIRECT mode
//! the appendix Q1 profile shows).
//!
//! The group table is the kernel layer's flat open-addressing table over
//! *columnar* group keys: each input batch is hashed column-at-a-time
//! ([`kernels::hash`]), rows chase candidate chains with one stored-hash
//! compare, and new groups append their key row to per-column key stores —
//! no per-row key materialization, no `Vec<KeyAtom>` allocations on the
//! hot path.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use vectorh_common::{ColumnData, DataType, Field, Result, Schema, Value, VhError, VECTOR_SIZE};

use crate::batch::Batch;
use crate::kernels::gather::append_row;
use crate::kernels::hash::{hash_columns, JOIN_SEED};
use crate::kernels::table::HashTable;
use crate::operator::{Counters, OpProfile, Operator};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    CountStar,
    Count(usize),
    Sum(usize),
    Min(usize),
    Max(usize),
    Avg(usize),
    /// COUNT(DISTINCT col). Only valid in `Complete` mode — the planner
    /// repartitions on the group keys first (as real systems do).
    CountDistinct(usize),
}

impl AggFn {
    /// The input column the aggregate reads, if any.
    pub fn col(self) -> Option<usize> {
        match self {
            AggFn::CountStar => None,
            AggFn::Count(c)
            | AggFn::Sum(c)
            | AggFn::Min(c)
            | AggFn::Max(c)
            | AggFn::Avg(c)
            | AggFn::CountDistinct(c) => Some(c),
        }
    }

    /// The same aggregate with its argument column `c` replaced by `f(c)`
    /// (the [`crate::expr::Expr::map_cols`] of aggregates).
    pub fn map_col(self, f: impl FnOnce(usize) -> usize) -> AggFn {
        match self {
            AggFn::CountStar => AggFn::CountStar,
            AggFn::Count(c) => AggFn::Count(f(c)),
            AggFn::Sum(c) => AggFn::Sum(f(c)),
            AggFn::Min(c) => AggFn::Min(f(c)),
            AggFn::Max(c) => AggFn::Max(f(c)),
            AggFn::Avg(c) => AggFn::Avg(f(c)),
            AggFn::CountDistinct(c) => AggFn::CountDistinct(f(c)),
        }
    }
}

/// Aggregation phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    Complete,
    Partial,
    Final,
}

/// Hashable distinct-value atom (COUNT(DISTINCT) sets only; the group
/// table itself keys on columnar data).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyAtom {
    I(i64),
    S(String),
}

fn atom_of(col: &ColumnData, i: usize) -> Result<KeyAtom> {
    match col {
        ColumnData::I32(v) => Ok(KeyAtom::I(v[i] as i64)),
        ColumnData::I64(v) => Ok(KeyAtom::I(v[i])),
        ColumnData::Str(v) => Ok(KeyAtom::S(v.get(i).to_owned())),
        ColumnData::F64(_) => Err(VhError::Exec("COUNT(DISTINCT) over float".into())),
    }
}

/// Does group `gi` of the columnar key store equal row `i` of the batch?
fn group_eq(
    group_keys: &[ColumnData],
    cols: &[&ColumnData],
    keys: &[usize],
    gi: usize,
    i: usize,
) -> bool {
    group_keys
        .iter()
        .zip(keys)
        .all(|(g, &k)| match (g, cols[k]) {
            (ColumnData::I32(a), ColumnData::I32(b)) => a[gi] == b[i],
            (ColumnData::I64(a), ColumnData::I64(b)) => a[gi] == b[i],
            (ColumnData::Str(a), ColumnData::Str(b)) => a.eq_at(gi, b, i),
            _ => false,
        })
}

/// Per-group accumulator.
#[derive(Debug, Clone)]
enum AggState {
    CountI(i64),
    SumI(i64),
    SumF(f64),
    MinMax(Option<Value>),
    AvgI { sum: i64, count: i64 },
    AvgF { sum: f64, count: i64 },
    Distinct(HashSet<KeyAtom>),
}

/// The hash aggregation operator.
pub struct Aggr {
    child: Box<dyn Operator>,
    group_by: Vec<usize>,
    aggs: Vec<AggFn>,
    mode: AggMode,
    out_schema: Arc<Schema>,
    /// Input dtypes of aggregated columns (drives state selection).
    agg_dtypes: Vec<Option<DataType>>,
    /// Flat hash index over the group-key rows stored in `group_keys`.
    groups: HashTable,
    /// One column per GROUP BY key; row `gi` is group `gi`'s key.
    group_keys: Vec<ColumnData>,
    states: Vec<Vec<AggState>>,
    drained: bool,
    emit_at: usize,
    counters: Counters,
}

/// Output fields of one aggregate in a given mode.
fn agg_fields(f: AggFn, dt: Option<DataType>, mode: AggMode, idx: usize) -> Vec<Field> {
    let base = format!("agg{idx}");
    let sum_dt = match dt {
        Some(DataType::Decimal { scale }) => DataType::Decimal { scale },
        Some(DataType::F64) => DataType::F64,
        _ => DataType::I64,
    };
    match (f, mode) {
        (AggFn::CountStar | AggFn::Count(_) | AggFn::CountDistinct(_), _) => {
            vec![Field::new(base, DataType::I64)]
        }
        (AggFn::Sum(_), _) => vec![Field::new(base, sum_dt)],
        (AggFn::Min(_) | AggFn::Max(_), _) => {
            vec![Field::new(base, dt.expect("min/max needs input column"))]
        }
        (AggFn::Avg(_), AggMode::Partial) => vec![
            Field::new(format!("{base}_sum"), sum_dt),
            Field::new(format!("{base}_count"), DataType::I64),
        ],
        (AggFn::Avg(_), _) => vec![Field::new(base, DataType::F64)],
    }
}

impl Aggr {
    pub fn new(
        child: Box<dyn Operator>,
        group_by: Vec<usize>,
        aggs: Vec<AggFn>,
        mode: AggMode,
    ) -> Result<Aggr> {
        let in_schema = child.schema();
        if mode != AggMode::Complete && aggs.iter().any(|a| matches!(a, AggFn::CountDistinct(_))) {
            return Err(VhError::Exec(
                "COUNT(DISTINCT) requires Complete mode after repartitioning".into(),
            ));
        }
        if group_by
            .iter()
            .any(|&g| in_schema.dtype(g) == DataType::F64)
        {
            return Err(VhError::Exec("GROUP BY over float".into()));
        }
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|&g| in_schema.field(g).clone())
            .collect();
        let mut agg_dtypes = Vec::with_capacity(aggs.len());
        for (i, &f) in aggs.iter().enumerate() {
            let dt = f.col().map(|c| in_schema.dtype(c));
            // In Final mode the "input column" layout differs (states), but
            // the state columns carry the right types already; dtype of the
            // first state column drives the output type.
            agg_dtypes.push(dt);
            fields.extend(agg_fields(f, dt, mode, i));
        }
        let group_keys = group_by
            .iter()
            .map(|&g| ColumnData::new(in_schema.dtype(g)))
            .collect();
        Ok(Aggr {
            child,
            group_by,
            aggs,
            mode,
            out_schema: Arc::new(Schema::new(fields)),
            agg_dtypes,
            groups: HashTable::new(),
            group_keys,
            states: Vec::new(),
            drained: false,
            emit_at: 0,
            counters: Counters::default(),
        })
    }

    fn fresh_states(&self) -> Vec<AggState> {
        self.aggs
            .iter()
            .zip(&self.agg_dtypes)
            .map(|(f, dt)| match f {
                AggFn::CountStar | AggFn::Count(_) => AggState::CountI(0),
                AggFn::Sum(_) | AggFn::Avg(_) => {
                    let float = matches!(dt, Some(DataType::F64));
                    match (f, float) {
                        (AggFn::Sum(_), false) => AggState::SumI(0),
                        (AggFn::Sum(_), true) => AggState::SumF(0.0),
                        (AggFn::Avg(_), false) => AggState::AvgI { sum: 0, count: 0 },
                        (AggFn::Avg(_), true) => AggState::AvgF { sum: 0.0, count: 0 },
                        _ => unreachable!(),
                    }
                }
                AggFn::Min(_) | AggFn::Max(_) => AggState::MinMax(None),
                AggFn::CountDistinct(_) => AggState::Distinct(HashSet::new()),
            })
            .collect()
    }

    /// Consume the whole input, accumulating groups.
    fn drain_input(&mut self) -> Result<()> {
        let mut hashes = Vec::new();
        while let Some(batch) = self.child.next()? {
            self.counters.rows_in += batch.len() as u64;
            let cols: Vec<&ColumnData> = batch.columns.iter().collect();
            hash_columns(&cols, &self.group_by, JOIN_SEED, &mut hashes);
            for (i, &h) in hashes.iter().enumerate() {
                let gi = match self
                    .groups
                    .candidates(h)
                    .find(|&g| group_eq(&self.group_keys, &cols, &self.group_by, g as usize, i))
                {
                    Some(g) => g as usize,
                    None => {
                        let g = self.states.len();
                        self.groups.insert_batch(&[h]);
                        for (dst, &k) in self.group_keys.iter_mut().zip(&self.group_by) {
                            append_row(dst, cols[k], i);
                        }
                        self.states.push(self.fresh_states());
                        g
                    }
                };
                // In Final mode, each agg's state columns follow the group
                // columns in input order; track the running input position.
                let mut state_col = self.group_by.len();
                for (&f, state) in self.aggs.iter().zip(&mut self.states[gi]) {
                    match self.mode {
                        AggMode::Final => state_col += merge_state(state, f, &batch, i, state_col)?,
                        _ => update_state(state, f, &batch, i)?,
                    }
                }
            }
        }
        self.drained = true;
        Ok(())
    }

    /// Serialize a group's aggregates into the output column builders (its
    /// key columns are copied by range in `next`).
    fn emit_group(&self, gi: usize, builders: &mut [ColumnData]) -> Result<()> {
        let mut col = self.group_keys.len();
        for (a, _f) in self.aggs.iter().enumerate() {
            let st = &self.states[gi][a];
            match (st, self.mode) {
                (AggState::CountI(n), _) => {
                    builders[col].push_value(&Value::I64(*n))?;
                    col += 1;
                }
                (AggState::SumI(s), _) => {
                    let v = match self.out_schema.dtype(col) {
                        DataType::Decimal { scale } => Value::Decimal(*s, scale),
                        _ => Value::I64(*s),
                    };
                    builders[col].push_value(&v)?;
                    col += 1;
                }
                (AggState::SumF(s), _) => {
                    builders[col].push_value(&Value::F64(*s))?;
                    col += 1;
                }
                (AggState::AvgI { sum, count }, AggMode::Partial) => {
                    let v = match self.out_schema.dtype(col) {
                        DataType::Decimal { scale } => Value::Decimal(*sum, scale),
                        _ => Value::I64(*sum),
                    };
                    builders[col].push_value(&v)?;
                    builders[col + 1].push_value(&Value::I64(*count))?;
                    col += 2;
                }
                (AggState::AvgF { sum, count }, AggMode::Partial) => {
                    builders[col].push_value(&Value::F64(*sum))?;
                    builders[col + 1].push_value(&Value::I64(*count))?;
                    col += 2;
                }
                (AggState::AvgI { sum, count }, _) => {
                    // Exact average of the decimal/int raws, reported as f64.
                    let scale = match self.agg_dtypes[a] {
                        Some(DataType::Decimal { scale }) => scale,
                        _ => 0,
                    };
                    let denom = (*count as f64).max(1.0) * 10f64.powi(scale as i32);
                    builders[col].push_value(&Value::F64(*sum as f64 / denom))?;
                    col += 1;
                }
                (AggState::AvgF { sum, count }, _) => {
                    builders[col].push_value(&Value::F64(*sum / (*count as f64).max(1.0)))?;
                    col += 1;
                }
                (AggState::MinMax(m), _) => {
                    let v = m
                        .clone()
                        .ok_or_else(|| VhError::Exec("MIN/MAX over empty group".into()))?;
                    builders[col].push_value(&v)?;
                    col += 1;
                }
                (AggState::Distinct(set), _) => {
                    builders[col].push_value(&Value::I64(set.len() as i64))?;
                    col += 1;
                }
            }
        }
        Ok(())
    }
}

/// Fold row `i` of `b` into one aggregate's state.
fn update_state(state: &mut AggState, f: AggFn, b: &Batch, i: usize) -> Result<()> {
    match (f, state) {
        (AggFn::CountStar, AggState::CountI(n)) => *n += 1,
        (AggFn::Count(_), AggState::CountI(n)) => *n += 1, // no NULLs in storage
        (AggFn::Sum(c), AggState::SumI(s)) => {
            *s += int_at(b, c, i)?;
        }
        (AggFn::Sum(c), AggState::SumF(s)) => {
            *s += float_at(b, c, i)?;
        }
        (AggFn::Avg(c), AggState::AvgI { sum, count }) => {
            *sum += int_at(b, c, i)?;
            *count += 1;
        }
        (AggFn::Avg(c), AggState::AvgF { sum, count }) => {
            *sum += float_at(b, c, i)?;
            *count += 1;
        }
        (AggFn::Min(c), AggState::MinMax(m)) => keep_if(m, b, c, i, Ordering::Less),
        (AggFn::Max(c), AggState::MinMax(m)) => keep_if(m, b, c, i, Ordering::Greater),
        (AggFn::CountDistinct(c), AggState::Distinct(set)) => {
            set.insert(atom_of(b.column(c), i)?);
        }
        _ => return Err(VhError::Internal("agg state mismatch".into())),
    }
    Ok(())
}

/// Merge partial states (Final mode). Returns state columns consumed.
fn merge_state(state: &mut AggState, f: AggFn, b: &Batch, i: usize, col: usize) -> Result<usize> {
    match (f, state) {
        (AggFn::CountStar | AggFn::Count(_), AggState::CountI(n)) => {
            *n += int_at(b, col, i)?;
            Ok(1)
        }
        (AggFn::Sum(_), AggState::SumI(s)) => {
            *s += int_at(b, col, i)?;
            Ok(1)
        }
        (AggFn::Sum(_), AggState::SumF(s)) => {
            *s += float_at(b, col, i)?;
            Ok(1)
        }
        (AggFn::Avg(_), AggState::AvgI { sum, count }) => {
            *sum += int_at(b, col, i)?;
            *count += int_at(b, col + 1, i)?;
            Ok(2)
        }
        (AggFn::Avg(_), AggState::AvgF { sum, count }) => {
            *sum += float_at(b, col, i)?;
            *count += int_at(b, col + 1, i)?;
            Ok(2)
        }
        (AggFn::Min(_), AggState::MinMax(m)) => {
            keep_if(m, b, col, i, Ordering::Less);
            Ok(1)
        }
        (AggFn::Max(_), AggState::MinMax(m)) => {
            keep_if(m, b, col, i, Ordering::Greater);
            Ok(1)
        }
        _ => Err(VhError::Internal("final-mode agg state mismatch".into())),
    }
}

/// MIN/MAX step: row `i` of column `c` replaces the kept value when it
/// orders `wins` against it. Compared in place; a `Value` is made only for
/// a row that wins.
fn keep_if(kept: &mut Option<Value>, b: &Batch, c: usize, i: usize, wins: Ordering) {
    let (col, dt) = (b.column(c), b.schema.dtype(c));
    if kept
        .as_ref()
        .is_none_or(|cur| col.cmp_at(i, dt, cur) == Some(wins))
    {
        *kept = Some(col.value_at(i, dt));
    }
}

fn int_at(b: &Batch, c: usize, i: usize) -> Result<i64> {
    match b.column(c) {
        ColumnData::I32(v) => Ok(v[i] as i64),
        ColumnData::I64(v) => Ok(v[i]),
        _ => Err(VhError::Exec("integer aggregate over non-integer".into())),
    }
}

fn float_at(b: &Batch, c: usize, i: usize) -> Result<f64> {
    match b.column(c) {
        ColumnData::F64(v) => Ok(v[i]),
        ColumnData::I32(v) => Ok(v[i] as f64),
        ColumnData::I64(v) => Ok(v[i] as f64),
        _ => Err(VhError::Exec("float aggregate over non-numeric".into())),
    }
}

impl Operator for Aggr {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        if !self.drained {
            self.drain_input()?;
            // A global aggregate (no GROUP BY) over empty input still
            // produces one row of zero counts.
            if self.group_by.is_empty() && self.states.is_empty() {
                let only_counts = self
                    .aggs
                    .iter()
                    .all(|a| matches!(a, AggFn::CountStar | AggFn::Count(_)));
                if only_counts {
                    self.states.push(self.fresh_states());
                }
            }
        }
        let out = if self.emit_at >= self.states.len() {
            None
        } else {
            let to = (self.emit_at + VECTOR_SIZE).min(self.states.len());
            let keys = self.group_keys.iter().map(|k| k.slice(self.emit_at, to));
            let aggs = self.out_schema.fields()[self.group_keys.len()..]
                .iter()
                .map(|f| ColumnData::with_capacity(f.dtype, to - self.emit_at));
            let mut builders: Vec<ColumnData> = keys.chain(aggs).collect();
            for gi in self.emit_at..to {
                self.emit_group(gi, &mut builders)?;
            }
            self.emit_at = to;
            Some(Batch::new(self.out_schema.clone(), builders)?)
        };
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if let Some(b) = &out {
            self.counters.rows_out += b.len() as u64;
        }
        Ok(out)
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile(match self.mode {
            AggMode::Complete => "Aggr(DIRECT)",
            AggMode::Partial => "Aggr(partial)",
            AggMode::Final => "Aggr(final)",
        })
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BatchSource;

    fn source() -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[
            ("g", DataType::Str),
            ("x", DataType::I64),
            ("price", DataType::Decimal { scale: 2 }),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                ColumnData::Str(["a", "b", "a", "a"].into()),
                ColumnData::I64(vec![1, 2, 3, 4]),
                ColumnData::I64(vec![100, 200, 300, 400]),
            ],
        )
        .unwrap();
        Box::new(BatchSource::from_batch(batch, 2))
    }

    fn sorted_rows(op: &mut dyn Operator) -> Vec<Vec<Value>> {
        let mut rows = crate::batch::collect_rows(op).unwrap();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn complete_grouped_aggregation() {
        let mut a = Aggr::new(
            source(),
            vec![0],
            vec![
                AggFn::CountStar,
                AggFn::Sum(1),
                AggFn::Min(1),
                AggFn::Max(1),
                AggFn::Avg(1),
            ],
            AggMode::Complete,
        )
        .unwrap();
        let rows = sorted_rows(&mut a);
        assert_eq!(rows.len(), 2);
        // group "a": count 3, sum 8, min 1, max 4, avg 8/3
        assert_eq!(rows[0][0], Value::Str("a".into()));
        assert_eq!(rows[0][1], Value::I64(3));
        assert_eq!(rows[0][2], Value::I64(8));
        assert_eq!(rows[0][3], Value::I64(1));
        assert_eq!(rows[0][4], Value::I64(4));
        assert_eq!(rows[0][5], Value::F64(8.0 / 3.0));
    }

    #[test]
    fn decimal_sum_keeps_scale() {
        let mut a = Aggr::new(source(), vec![], vec![AggFn::Sum(2)], AggMode::Complete).unwrap();
        let rows = crate::batch::collect_rows(&mut a).unwrap();
        assert_eq!(rows, vec![vec![Value::Decimal(1000, 2)]]); // 10.00
    }

    #[test]
    fn decimal_avg_unscales() {
        let mut a = Aggr::new(source(), vec![], vec![AggFn::Avg(2)], AggMode::Complete).unwrap();
        let rows = crate::batch::collect_rows(&mut a).unwrap();
        assert_eq!(rows, vec![vec![Value::F64(2.5)]]); // avg(1,2,3,4)=2.50
    }

    #[test]
    fn partial_then_final_equals_complete() {
        // partial on two halves, final over the concatenation
        let mut complete = Aggr::new(
            source(),
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
            AggMode::Complete,
        )
        .unwrap();
        let want = sorted_rows(&mut complete);

        let mut partial = Aggr::new(
            source(),
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
            AggMode::Partial,
        )
        .unwrap();
        let pschema = partial.schema();
        let mut pbatches = Vec::new();
        while let Some(b) = partial.next().unwrap() {
            pbatches.push(b);
        }
        let src = Box::new(BatchSource::new(pschema, pbatches));
        let mut fin = Aggr::new(
            src,
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
            AggMode::Final,
        )
        .unwrap();
        let got = sorted_rows(&mut fin);
        assert_eq!(got, want);
    }

    #[test]
    fn count_distinct() {
        let mut a = Aggr::new(
            source(),
            vec![0],
            vec![AggFn::CountDistinct(1), AggFn::CountDistinct(0)],
            AggMode::Complete,
        )
        .unwrap();
        let rows = sorted_rows(&mut a);
        assert_eq!(rows[0][1], Value::I64(3)); // group a: x in {1,3,4}
        assert_eq!(rows[0][2], Value::I64(1));
        assert_eq!(rows[1][1], Value::I64(1));
    }

    #[test]
    fn count_distinct_rejected_in_partial() {
        assert!(Aggr::new(
            source(),
            vec![0],
            vec![AggFn::CountDistinct(1)],
            AggMode::Partial
        )
        .is_err());
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        let src = Box::new(BatchSource::new(schema, vec![]));
        let mut a = Aggr::new(src, vec![], vec![AggFn::CountStar], AggMode::Complete).unwrap();
        let rows = crate::batch::collect_rows(&mut a).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(0)]]);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let schema = Arc::new(Schema::of(&[("g", DataType::I64), ("x", DataType::I64)]));
        let src = Box::new(BatchSource::new(schema, vec![]));
        let mut a = Aggr::new(src, vec![0], vec![AggFn::Sum(1)], AggMode::Complete).unwrap();
        assert!(crate::batch::collect_rows(&mut a).unwrap().is_empty());
    }

    #[test]
    fn group_by_date_key_roundtrips() {
        let schema = Arc::new(Schema::of(&[("d", DataType::Date)]));
        let batch = Batch::new(schema, vec![ColumnData::I32(vec![100, 100, 200])]).unwrap();
        let src = Box::new(BatchSource::from_batch(batch, 1024));
        let mut a = Aggr::new(src, vec![0], vec![AggFn::CountStar], AggMode::Complete).unwrap();
        assert_eq!(a.schema().dtype(0), DataType::Date);
        let rows = sorted_rows(&mut a);
        assert_eq!(rows.len(), 2);
        assert!(matches!(rows[0][0], Value::Date(_)));
    }
}

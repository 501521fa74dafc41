//! Aggr: hash aggregation with partial/final modes.
//!
//! Supports the §5 "partial aggregation" rewrite: a `Partial` instance runs
//! below the exchange and emits mergeable states; a `Final` instance above
//! the exchange merges them. `Complete` does both at once (the DIRECT mode
//! the appendix Q1 profile shows).
//!
//! An input vector is aggregated in two steps, neither of which interprets
//! anything per row:
//!
//! 1. **Group ids.** The key columns are hashed column-at-a-time
//!    ([`kernels::hash`](crate::kernels::hash)) and every row resolves to a
//!    `u32` group id through the kernel layer's flat open-addressing table
//!    over *columnar* group keys: it chases the candidate chain with one
//!    stored-hash compare and then the key compare, and a new group appends
//!    its key row to the per-column key stores. A global aggregate hashes
//!    nothing: every row is group 0. When every key is a dictionary-coded
//!    string (PDICT, Q1's two flags) and the combinations of codes are no
//!    more than the rows, each combination goes through the table once and
//!    the rows take their group from a small table indexed by combination:
//!    hashing and comparing strings is then work per dictionary entry, not
//!    per row. (Taking the previous row's group when
//!    its hash and key are equal, before the table, was built and measured:
//!    the key compare is the cost either way and the extra branch made Q1's
//!    aggregation 1 ms slower on TPC-H data, 3 ms on shuffled keys;
//!    EXPERIMENTS E21.)
//! 2. **One typed loop per aggregate** over `(group ids, input slice)` into
//!    *columnar* state: a `Vec<i64>` or `Vec<f64>` per aggregate with one
//!    entry per group, and one row count per group shared by `count(*)`,
//!    `count(col)` and every `avg` (storage has no NULLs). `Final` mode is
//!    the same loops over the partial instance's state columns, and
//!    emission is a range copy per output column.
//!
//! Float sums add a group's values one at a time in row order, so the
//! answer does not depend on how the rows were cut into vectors.

use std::cmp::Ordering;
use std::sync::Arc;

use vectorh_common::column::{physical_of, PhysicalType};
use vectorh_common::{ColumnData, DataType, Field, Result, Schema, StrVec, VhError, VECTOR_SIZE};

use crate::batch::Batch;
use crate::kernels::gather::append_row;
use crate::kernels::hash::{hash_columns, hash_row, JOIN_SEED};
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
}

impl AggFn {
    /// The input column the aggregate reads, if any.
    pub fn col(self) -> Option<usize> {
        match self {
            AggFn::CountStar => None,
            AggFn::Count(c) | AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) | AggFn::Avg(c) => {
                Some(c)
            }
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

/// The kept values of a MIN or MAX, one per group, in the input column's
/// layout. Strings cannot be overwritten in place inside a `StrVec`, so
/// they are one reused `String` per group.
#[derive(Debug)]
enum Kept {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
}

/// One aggregate's state: a column (or two) with one entry per group,
/// folded into by one typed loop per input vector.
#[derive(Debug)]
enum Acc {
    /// `count(*)` and `count(col)`. Below the exchange every count is the
    /// group's row count ([`Aggr::rows`]: storage has no NULLs) and this
    /// holds nothing; above it, the partial counts summed.
    Count(Vec<i64>),
    SumI(Vec<i64>),
    SumF(Vec<f64>),
    /// The sum, and above the exchange the partial counts summed (below it
    /// the count is [`Aggr::rows`]).
    AvgI(Vec<i64>, Vec<i64>),
    AvgF(Vec<f64>, Vec<i64>),
    /// MIN (`Less` wins) or MAX (`Greater` wins).
    Extreme(Kept, Ordering),
}

/// A combination of codes no row of the vector has resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// Scratch of [`Aggr::resolve_coded`], kept across vectors.
#[derive(Default)]
struct ByCodes {
    /// Each row's combination of key codes.
    combos: Vec<u32>,
    /// The group of each combination, or [`UNRESOLVED`].
    groups: Vec<u32>,
}

/// The hash aggregation operator.
pub struct Aggr {
    child: Box<dyn Operator>,
    group_by: Vec<usize>,
    mode: AggMode,
    out_schema: Arc<Schema>,
    /// Input dtypes of aggregated columns (drives state selection).
    agg_dtypes: Vec<Option<DataType>>,
    /// Flat hash index over the group-key rows stored in `group_keys`.
    groups: HashTable,
    /// One column per GROUP BY key; row `gi` is group `gi`'s key.
    group_keys: Vec<ColumnData>,
    /// Rows folded into each group, so its length is the number of groups.
    /// Every count and average below the exchange reads it.
    rows: Vec<i64>,
    /// Per aggregate: the input column it folds in (in `Final` mode the
    /// first of its state columns) and its state.
    accs: Vec<(usize, Acc)>,
    drained: bool,
    emit_at: usize,
    counters: Counters,
}

/// The output fields of an aggregation over `input`: its group columns,
/// then each aggregate's fields in `mode` (a `Partial` average emits its sum
/// and its count). The planner types its logical aggregates with this.
pub fn output_fields(
    input: &Schema,
    group_by: &[usize],
    aggs: &[AggFn],
    mode: AggMode,
) -> Vec<Field> {
    let groups = group_by.iter().map(|&g| input.field(g).clone());
    let fields = aggs.iter().enumerate().flat_map(|(i, &f)| {
        let dt = f.col().map(|c| input.dtype(c));
        agg_fields(f, dt, mode, i)
    });
    groups.chain(fields).collect()
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
        (AggFn::CountStar | AggFn::Count(_), _) => vec![Field::new(base, DataType::I64)],
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

/// The `Final`-mode aggregates that merge what `Partial` instances of
/// `aggs` emit, laid out `[groups..., states...]`: each reads the first of
/// its state columns, an average taking two, and `count(*)` sums its count.
pub fn final_aggs(group_len: usize, aggs: &[AggFn]) -> Vec<AggFn> {
    let mut col = group_len;
    aggs.iter()
        .map(|&a| {
            let here = col;
            col += if matches!(a, AggFn::Avg(_)) { 2 } else { 1 };
            match a {
                AggFn::CountStar => AggFn::Count(here),
                a => a.map_col(|_| here),
            }
        })
        .collect()
}

/// Empty state for aggregate `f` over an input of type `dt`.
fn fresh_acc(f: AggFn, dt: Option<DataType>) -> Acc {
    let float = dt == Some(DataType::F64);
    let extreme = |wins| {
        let kept = match physical_of(dt.expect("min/max needs input column")) {
            PhysicalType::I32 => Kept::I32(Vec::new()),
            PhysicalType::I64 => Kept::I64(Vec::new()),
            PhysicalType::F64 => Kept::F64(Vec::new()),
            PhysicalType::Str => Kept::Str(Vec::new()),
        };
        Acc::Extreme(kept, wins)
    };
    match f {
        AggFn::CountStar | AggFn::Count(_) => Acc::Count(Vec::new()),
        AggFn::Sum(_) if float => Acc::SumF(Vec::new()),
        AggFn::Sum(_) => Acc::SumI(Vec::new()),
        AggFn::Avg(_) if float => Acc::AvgF(Vec::new(), Vec::new()),
        AggFn::Avg(_) => Acc::AvgI(Vec::new(), Vec::new()),
        AggFn::Min(_) => extreme(Ordering::Less),
        AggFn::Max(_) => extreme(Ordering::Greater),
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
        if group_by
            .iter()
            .any(|&g| in_schema.dtype(g) == DataType::F64)
        {
            return Err(VhError::Exec("GROUP BY over float".into()));
        }
        // In Final mode each aggregate reads its state columns, which carry
        // the right types already.
        let states = final_aggs(group_by.len(), &aggs);
        let mut agg_dtypes = Vec::with_capacity(aggs.len());
        let mut accs = Vec::with_capacity(aggs.len());
        for (&f, state) in aggs.iter().zip(&states) {
            let dt = f.col().map(|c| in_schema.dtype(c));
            agg_dtypes.push(dt);
            let input = match mode {
                AggMode::Final => state.col(),
                _ => f.col(),
            };
            accs.push((input.unwrap_or(0), fresh_acc(f, dt)));
        }
        let fields = output_fields(&in_schema, &group_by, &aggs, mode);
        let group_keys = group_by
            .iter()
            .map(|&g| ColumnData::new(in_schema.dtype(g)))
            .collect();
        Ok(Aggr {
            child,
            group_by,
            mode,
            out_schema: Arc::new(Schema::new(fields)),
            agg_dtypes,
            groups: HashTable::new(),
            group_keys,
            rows: Vec::new(),
            accs,
            drained: false,
            emit_at: 0,
            counters: Counters::default(),
        })
    }

    /// Consume the whole input, a vector at a time: resolve the group of
    /// every row, then fold the vector into each aggregate's state.
    fn drain_input(&mut self) -> Result<()> {
        let mut hashes = Vec::new();
        let mut gids = Vec::new();
        // Rows of the vector that opened a group, in group order.
        let mut opened = Vec::new();
        let mut by_codes = ByCodes::default();
        while let Some(batch) = self.child.next()? {
            self.counters.rows_in += batch.len() as u64;
            gids.clear();
            opened.clear();
            if self.group_by.is_empty() {
                // A global aggregate: nothing to hash, every row is group 0.
                if self.rows.is_empty() && !batch.is_empty() {
                    opened.push(0);
                }
                gids.resize(batch.len(), 0);
            } else {
                let cols: Vec<&ColumnData> = batch.columns.iter().collect();
                if !self.resolve_coded(&cols, &mut by_codes, &mut gids, &mut opened) {
                    hash_columns(&cols, &self.group_by, JOIN_SEED, &mut hashes);
                    self.resolve_groups(&cols, &hashes, &mut gids, &mut opened);
                }
            }
            self.fold(&batch, &gids, &opened)?;
        }
        self.drained = true;
        Ok(())
    }

    /// The group id of every row of a vector into `gids`, appending the keys
    /// of groups not seen before (and the row that opened each to `opened`).
    fn resolve_groups(
        &mut self,
        cols: &[&ColumnData],
        hashes: &[u64],
        gids: &mut Vec<u32>,
        opened: &mut Vec<u32>,
    ) {
        for (i, &h) in hashes.iter().enumerate() {
            gids.push(self.group_of(cols, h, i, opened));
        }
    }

    /// [`resolve_groups`](Self::resolve_groups) for a vector whose every
    /// group key is a coded string ([`StrVec::dict_codes`]): each row's
    /// combination of codes is computed a column at a time, each distinct
    /// combination is resolved through the table once (one row hashed with
    /// [`hash_row`], so it meets groups that flat vectors opened), and every
    /// row takes its combination's group. Two codes may name one string (a
    /// dictionary may hold duplicates), so two combinations may resolve to
    /// one group: the table's key compare decides, as for any row. Applies
    /// only when there are no more combinations than rows; returns whether
    /// it did.
    fn resolve_coded(
        &mut self,
        cols: &[&ColumnData],
        scratch: &mut ByCodes,
        gids: &mut Vec<u32>,
        opened: &mut Vec<u32>,
    ) -> bool {
        let coded = |k: usize| cols[k].as_strs().and_then(StrVec::dict_codes);
        let rows = cols.first().map_or(0, |c| c.len());
        let mut space = 1usize;
        for &k in &self.group_by {
            let Some((dict, _)) = coded(k) else {
                return false;
            };
            space = space.saturating_mul(dict.len());
        }
        if space > rows {
            return false;
        }
        // Combination = ((code of key 0) * entries of key 1 + code of key 1) ...
        let ByCodes { combos, groups } = scratch;
        combos.clear();
        for (pos, &k) in self.group_by.iter().enumerate() {
            let (dict, codes) = coded(k).expect("checked above");
            if pos == 0 {
                combos.extend_from_slice(codes);
            } else {
                let entries = dict.len() as u32;
                for (c, &code) in combos.iter_mut().zip(codes) {
                    *c = *c * entries + code;
                }
            }
        }
        groups.clear();
        groups.resize(space, UNRESOLVED);
        for (i, &c) in combos.iter().enumerate() {
            let g = &mut groups[c as usize];
            if *g == UNRESOLVED {
                let h = hash_row(cols, &self.group_by, JOIN_SEED, i);
                *g = self.group_of(cols, h, i, opened);
            }
            gids.push(*g);
        }
        true
    }

    /// The group of row `i`, whose key hashes to `h`: found through the
    /// table, or opened (its key appended to the key store, the row to
    /// `opened`).
    fn group_of(&mut self, cols: &[&ColumnData], h: u64, i: usize, opened: &mut Vec<u32>) -> u32 {
        let found = self
            .groups
            .candidates(h)
            .find(|&g| group_eq(&self.group_keys, cols, &self.group_by, g as usize, i));
        found.unwrap_or_else(|| {
            let g = self.groups.len() as u32;
            self.groups.insert_batch(&[h]);
            for (dst, &k) in self.group_keys.iter_mut().zip(&self.group_by) {
                append_row(dst, cols[k], i);
            }
            opened.push(i as u32);
            g
        })
    }

    /// Fold one vector into the states: row `i` belongs to group `gids[i]`,
    /// and the rows in `opened` are the first of a new group each.
    fn fold(&mut self, batch: &Batch, gids: &[u32], opened: &[u32]) -> Result<()> {
        let groups = self.rows.len() + opened.len();
        self.rows.resize(groups, 0);
        for &g in gids {
            self.rows[g as usize] += 1;
        }
        let merging = self.mode == AggMode::Final;
        for (col, acc) in &mut self.accs {
            let input = batch.column(*col);
            match acc {
                Acc::Count(merged) => {
                    if merging {
                        add_ints(merged, groups, gids, input)?;
                    }
                }
                Acc::SumI(sum) => add_ints(sum, groups, gids, input)?,
                Acc::SumF(sum) => add_floats(sum, groups, gids, input)?,
                Acc::AvgI(sum, merged) => {
                    add_ints(sum, groups, gids, input)?;
                    if merging {
                        add_ints(merged, groups, gids, batch.column(*col + 1))?;
                    }
                }
                Acc::AvgF(sum, merged) => {
                    add_floats(sum, groups, gids, input)?;
                    if merging {
                        add_ints(merged, groups, gids, batch.column(*col + 1))?;
                    }
                }
                Acc::Extreme(kept, wins) => keep_extremes(kept, *wins, gids, opened, input)?,
            }
        }
        Ok(())
    }

    /// The output columns of groups `[from, to)`: a range copy per column,
    /// an average divided out where this instance finishes it.
    fn emit(&self, from: usize, to: usize) -> Vec<ColumnData> {
        let mut out: Vec<ColumnData> = self.group_keys.iter().map(|k| k.slice(from, to)).collect();
        // Below the exchange a count is the row count, above it the merged one.
        let counts = |merged: &[i64]| match self.mode {
            AggMode::Final => merged[from..to].to_vec(),
            _ => self.rows[from..to].to_vec(),
        };
        let partial = self.mode == AggMode::Partial;
        for ((_, acc), dt) in self.accs.iter().zip(&self.agg_dtypes) {
            match acc {
                Acc::Count(merged) => out.push(ColumnData::I64(counts(merged))),
                Acc::SumI(sum) => out.push(ColumnData::I64(sum[from..to].to_vec())),
                Acc::SumF(sum) => out.push(ColumnData::F64(sum[from..to].to_vec())),
                Acc::AvgI(sum, merged) if partial => {
                    out.push(ColumnData::I64(sum[from..to].to_vec()));
                    out.push(ColumnData::I64(counts(merged)));
                }
                Acc::AvgF(sum, merged) if partial => {
                    out.push(ColumnData::F64(sum[from..to].to_vec()));
                    out.push(ColumnData::I64(counts(merged)));
                }
                Acc::AvgI(sum, merged) => {
                    // Exact average of the decimal/int raws, reported as f64.
                    let scale = match dt {
                        Some(DataType::Decimal { scale }) => *scale,
                        _ => 0,
                    };
                    let unit = 10f64.powi(scale as i32);
                    let avg =
                        |(&sum, count): (&i64, i64)| sum as f64 / ((count as f64).max(1.0) * unit);
                    out.push(ColumnData::F64(
                        sum[from..to].iter().zip(counts(merged)).map(avg).collect(),
                    ));
                }
                Acc::AvgF(sum, merged) => {
                    let avg = |(&sum, count): (&f64, i64)| sum / (count as f64).max(1.0);
                    out.push(ColumnData::F64(
                        sum[from..to].iter().zip(counts(merged)).map(avg).collect(),
                    ));
                }
                Acc::Extreme(kept, _) => out.push(match kept {
                    Kept::I32(v) => ColumnData::I32(v[from..to].to_vec()),
                    Kept::I64(v) => ColumnData::I64(v[from..to].to_vec()),
                    Kept::F64(v) => ColumnData::F64(v[from..to].to_vec()),
                    Kept::Str(v) => ColumnData::Str(v[from..to].iter().collect()),
                }),
            }
        }
        out
    }
}

/// `sum[gids[i]] += input[i]` over a vector of integers, `sum` first grown
/// to `groups` entries.
fn add_ints(sum: &mut Vec<i64>, groups: usize, gids: &[u32], input: &ColumnData) -> Result<()> {
    sum.resize(groups, 0);
    match input {
        ColumnData::I32(v) => gids
            .iter()
            .zip(v)
            .for_each(|(&g, &x)| sum[g as usize] += x as i64),
        ColumnData::I64(v) => gids.iter().zip(v).for_each(|(&g, &x)| sum[g as usize] += x),
        _ => return Err(VhError::Exec("integer aggregate over non-integer".into())),
    }
    Ok(())
}

/// [`add_ints`] for a float sum. Rows are added one by one in row order,
/// whatever vector they arrive in, so a group's sum is the sequential fold
/// of its values: float addition does not reassociate, and the result must
/// not depend on the vector size.
fn add_floats(sum: &mut Vec<f64>, groups: usize, gids: &[u32], input: &ColumnData) -> Result<()> {
    sum.resize(groups, 0.0);
    match input {
        ColumnData::F64(v) => gids.iter().zip(v).for_each(|(&g, &x)| sum[g as usize] += x),
        ColumnData::I32(v) => gids
            .iter()
            .zip(v)
            .for_each(|(&g, &x)| sum[g as usize] += x as f64),
        ColumnData::I64(v) => gids
            .iter()
            .zip(v)
            .for_each(|(&g, &x)| sum[g as usize] += x as f64),
        ColumnData::Str(_) => return Err(VhError::Exec("float aggregate over non-numeric".into())),
    }
    Ok(())
}

/// MIN/MAX over a vector: a group opened by this vector starts from the row
/// that opened it, then every row replaces its group's kept value when it
/// orders `wins` against it (a NaN neither wins nor is beaten).
fn keep_extremes(
    kept: &mut Kept,
    wins: Ordering,
    gids: &[u32],
    opened: &[u32],
    input: &ColumnData,
) -> Result<()> {
    macro_rules! numbers {
        ($kept:expr, $v:expr) => {{
            $kept.extend(opened.iter().map(|&i| $v[i as usize]));
            for (&g, &x) in gids.iter().zip($v) {
                if x.partial_cmp(&$kept[g as usize]) == Some(wins) {
                    $kept[g as usize] = x;
                }
            }
        }};
    }
    match (kept, input) {
        (Kept::I32(kept), ColumnData::I32(v)) => numbers!(kept, v),
        (Kept::I64(kept), ColumnData::I64(v)) => numbers!(kept, v),
        (Kept::F64(kept), ColumnData::F64(v)) => numbers!(kept, v),
        (Kept::Str(kept), ColumnData::Str(v)) => {
            kept.extend(opened.iter().map(|&i| v.get(i as usize).to_owned()));
            for (&g, s) in gids.iter().zip(v.iter()) {
                let kept = &mut kept[g as usize];
                if s.cmp(kept.as_str()) == wins {
                    kept.clear();
                    kept.push_str(s);
                }
            }
        }
        _ => return Err(VhError::Internal("MIN/MAX input changed layout".into())),
    }
    Ok(())
}

impl Operator for Aggr {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        if !self.drained {
            self.drain_input()?;
            // A global aggregate (no GROUP BY) over empty input that only
            // counts still produces one row of zero counts.
            let only_counts = self.accs.iter().all(|(_, a)| matches!(a, Acc::Count(_)));
            if self.group_by.is_empty() && self.rows.is_empty() && only_counts {
                self.rows.push(0);
                for (_, acc) in &mut self.accs {
                    if let Acc::Count(merged) = acc {
                        merged.push(0);
                    }
                }
            }
        }
        let out = if self.emit_at >= self.rows.len() {
            None
        } else {
            let to = (self.emit_at + VECTOR_SIZE).min(self.rows.len());
            let columns = self.emit(self.emit_at, to);
            self.emit_at = to;
            Some(Batch::new(self.out_schema.clone(), columns)?)
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
    use vectorh_common::Value;

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

    /// One batch of `(g: Str, x: I64, f: F64)` rows, cut into vectors of
    /// `vector` rows.
    fn keyed(rows: &[(&str, i64, f64)], vector: usize) -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[
            ("g", DataType::Str),
            ("x", DataType::I64),
            ("f", DataType::F64),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                ColumnData::Str(rows.iter().map(|r| r.0).collect()),
                ColumnData::I64(rows.iter().map(|r| r.1).collect()),
                ColumnData::F64(rows.iter().map(|r| r.2).collect()),
            ],
        )
        .unwrap();
        Box::new(BatchSource::from_batch(batch, vector))
    }

    #[test]
    fn a_group_opened_mid_vector_continues_in_the_next() {
        // Vectors of 3: "b" opens in the middle of the first and goes on in
        // the second and third, "c" opens as the last row of the second.
        let rows = [
            ("a", 1, 0.5),
            ("b", 10, 1.5),
            ("b", 20, 2.5),
            ("b", 30, 3.5),
            ("a", 2, 4.5),
            ("c", 100, 5.5),
            ("c", 200, 6.5),
            ("b", 40, 7.5),
        ];
        let aggs = vec![
            AggFn::CountStar,
            AggFn::Sum(1),
            AggFn::Min(1),
            AggFn::Max(1),
            AggFn::Avg(1),
            AggFn::Sum(2),
            AggFn::Count(2),
        ];
        let mut a = Aggr::new(keyed(&rows, 3), vec![0], aggs, AggMode::Complete).unwrap();
        // Groups come out in the order they were opened.
        let got = crate::batch::collect_rows(&mut a).unwrap();
        let row = |g: &str, n: i64, sum: i64, min: i64, max: i64, fsum: f64| {
            vec![
                Value::Str(g.into()),
                Value::I64(n),
                Value::I64(sum),
                Value::I64(min),
                Value::I64(max),
                Value::F64(sum as f64 / n as f64),
                Value::F64(fsum),
                Value::I64(n),
            ]
        };
        assert_eq!(
            got,
            vec![
                row("a", 2, 3, 1, 2, 0.5 + 4.5),
                row("b", 4, 100, 10, 40, 1.5 + 2.5 + 3.5 + 7.5),
                row("c", 2, 300, 100, 200, 5.5 + 6.5),
            ]
        );
    }

    #[test]
    fn more_groups_than_a_vector_are_emitted_in_ranges() {
        // 2,500 groups of two rows each; the second row of every group
        // arrives after all the first ones.
        let n = 2_500i64;
        let schema = Arc::new(Schema::of(&[("k", DataType::I64), ("s", DataType::Str)]));
        let keys: Vec<i64> = (0..n).chain(0..n).collect();
        let strs: Vec<String> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{}{k}", if i < n as usize { "x" } else { "w" }))
            .collect();
        let batch = Batch::new(
            schema,
            vec![ColumnData::I64(keys), ColumnData::Str(strs.into())],
        );
        let src = Box::new(BatchSource::from_batch(batch.unwrap(), VECTOR_SIZE));
        let aggs = vec![AggFn::Sum(0), AggFn::Min(1), AggFn::CountStar];
        let mut a = Aggr::new(src, vec![0], aggs, AggMode::Complete).unwrap();
        let mut sizes = Vec::new();
        let mut k = 0i64;
        while let Some(b) = a.next().unwrap() {
            sizes.push(b.len());
            for row in b.rows() {
                let want = vec![
                    Value::I64(k),
                    Value::I64(2 * k),
                    Value::Str(format!("w{k}")),
                    Value::I64(2),
                ];
                assert_eq!(row, want);
                k += 1;
            }
        }
        assert_eq!(
            sizes,
            vec![VECTOR_SIZE, VECTOR_SIZE, 2_500 - 2 * VECTOR_SIZE]
        );
    }

    #[test]
    fn final_merges_both_state_columns_of_an_average() {
        // Two partial instances over different numbers of rows per group:
        // the final average weighs each partial sum by its own count.
        let left = [("a", 1, 1.0), ("a", 2, 2.0), ("a", 3, 3.0), ("b", 10, 10.0)];
        let right = [("b", 20, 20.0), ("a", 6, 6.5), ("c", 7, 7.0)];
        let aggs = vec![AggFn::Avg(1), AggFn::Avg(2), AggFn::Count(1)];
        let mut states = Vec::new();
        let mut state_schema = None;
        for rows in [&left[..], &right[..]] {
            let mut p = Aggr::new(keyed(rows, 2), vec![0], aggs.clone(), AggMode::Partial).unwrap();
            state_schema = Some(p.schema());
            while let Some(b) = p.next().unwrap() {
                states.push(b);
            }
        }
        let state_schema = state_schema.unwrap();
        assert_eq!(
            state_schema.names(),
            vec![
                "g",
                "agg0_sum",
                "agg0_count",
                "agg1_sum",
                "agg1_count",
                "agg2"
            ]
        );
        let src = Box::new(BatchSource::new(state_schema, states));
        // Each aggregate names the first of its state columns.
        let merge = vec![AggFn::Avg(1), AggFn::Avg(3), AggFn::Count(5)];
        let mut fin = Aggr::new(src, vec![0], merge, AggMode::Final).unwrap();
        assert_eq!(
            sorted_rows(&mut fin),
            vec![
                vec![
                    Value::Str("a".into()),
                    Value::F64(12.0 / 4.0),
                    Value::F64(12.5 / 4.0),
                    Value::I64(4)
                ],
                vec![
                    Value::Str("b".into()),
                    Value::F64(30.0 / 2.0),
                    Value::F64(30.0 / 2.0),
                    Value::I64(2)
                ],
                vec![
                    Value::Str("c".into()),
                    Value::F64(7.0),
                    Value::F64(7.0),
                    Value::I64(1)
                ],
            ]
        );
    }

    #[test]
    fn min_and_max_over_strings_dates_and_negative_decimals() {
        let schema = Arc::new(Schema::of(&[
            ("g", DataType::I64),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("m", DataType::Decimal { scale: 2 }),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                ColumnData::I64(vec![1, 2, 1, 2, 1, 1]),
                ColumnData::Str(["pear", "fig", "apple", "figs", "plum", "apples"].into()),
                ColumnData::I32(vec![9_000, -5, 8_999, 7, 9_001, 9_000]),
                ColumnData::I64(vec![-150, -1, -275, 0, 125, -274]),
            ],
        )
        .unwrap();
        let aggs = vec![
            AggFn::Min(1),
            AggFn::Max(1),
            AggFn::Min(2),
            AggFn::Max(2),
            AggFn::Min(3),
            AggFn::Max(3),
        ];
        for mode in [AggMode::Complete, AggMode::Partial] {
            let src = Box::new(BatchSource::from_batch(batch.clone(), 4));
            let mut a = Aggr::new(src, vec![0], aggs.clone(), mode).unwrap();
            assert_eq!(a.schema().dtype(3), DataType::Date);
            assert_eq!(
                sorted_rows(&mut a),
                vec![
                    vec![
                        Value::I64(1),
                        Value::Str("apple".into()),
                        Value::Str("plum".into()),
                        Value::Date(8_999),
                        Value::Date(9_001),
                        Value::Decimal(-275, 2),
                        Value::Decimal(125, 2),
                    ],
                    vec![
                        Value::I64(2),
                        Value::Str("fig".into()),
                        Value::Str("figs".into()),
                        Value::Date(-5),
                        Value::Date(7),
                        Value::Decimal(-1, 2),
                        Value::Decimal(0, 2),
                    ],
                ]
            );
        }
    }

    #[test]
    fn float_sums_add_a_groups_values_in_row_order() {
        // Magnitudes 1e-3 .. 1e18 with both signs: the sum depends on the
        // order of the additions, so it must be the sequential fold of the
        // group's values however the rows are cut into vectors.
        let mut rng = vectorh_common::rng::SplitMix64::new(0xF10A7);
        let keys = ["a", "b", "c"];
        let rows: Vec<(&str, i64, f64)> = (0..4_000)
            .map(|_| {
                let magnitude = 10f64.powi(rng.range_i64(-3, 18) as i32);
                let value = (rng.next_f64() - 0.5) * magnitude;
                (*rng.choose(&keys).unwrap(), 0, value)
            })
            .collect();
        let fold = |key: &str| {
            let mut n = 0i64;
            let sum = rows
                .iter()
                .filter(|r| r.0 == key)
                .inspect(|_| n += 1)
                .fold(0.0, |acc, r| acc + r.2);
            (sum, n)
        };
        // The order matters on this data: pairwise sums differ.
        let (a_sum, _) = fold("a");
        let halves: f64 = rows
            .chunks(7)
            .map(|c| c.iter().filter(|r| r.0 == "a").map(|r| r.2).sum::<f64>())
            .sum();
        assert_ne!(
            a_sum.to_bits(),
            halves.to_bits(),
            "the data does not tell the orders apart"
        );
        for vector in [1, 7, VECTOR_SIZE, 5_000] {
            for global in [false, true] {
                let group_by = if global { vec![] } else { vec![0] };
                let aggs = vec![AggFn::Sum(2), AggFn::Avg(2)];
                let mut a =
                    Aggr::new(keyed(&rows, vector), group_by, aggs, AggMode::Complete).unwrap();
                for row in crate::batch::collect_rows(&mut a).unwrap() {
                    let (sum, n) = match &row[0] {
                        Value::Str(key) => fold(key),
                        _ => (rows.iter().fold(0.0, |acc, r| acc + r.2), rows.len() as i64),
                    };
                    let Some([Value::F64(got_sum), Value::F64(got_avg)]) = row.last_chunk::<2>()
                    else {
                        panic!("{row:?}")
                    };
                    assert_eq!(got_sum.to_bits(), sum.to_bits(), "sum, vectors of {vector}");
                    assert_eq!(
                        got_avg.to_bits(),
                        (sum / n as f64).to_bits(),
                        "avg, vectors of {vector}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_global_aggregate_over_no_rows_is_one_row_only_if_all_it_does_is_count() {
        let empty = || {
            let schema = Arc::new(Schema::of(&[("x", DataType::I64), ("n", DataType::I64)]));
            Box::new(BatchSource::new(schema, vec![]))
        };
        for mode in [AggMode::Complete, AggMode::Partial, AggMode::Final] {
            // In Final mode the two aggregates read state columns 0 and 1.
            let counts = vec![AggFn::CountStar, AggFn::Count(1)];
            let mut a = Aggr::new(empty(), vec![], counts, mode).unwrap();
            assert_eq!(
                crate::batch::collect_rows(&mut a).unwrap(),
                vec![vec![Value::I64(0), Value::I64(0)]],
                "{mode:?}"
            );
            for aggs in [
                vec![AggFn::Sum(0)],
                vec![AggFn::CountStar, AggFn::Sum(1)],
                vec![AggFn::Min(0)],
            ] {
                let mut a = Aggr::new(empty(), vec![], aggs.clone(), mode).unwrap();
                assert!(
                    crate::batch::collect_rows(&mut a).unwrap().is_empty(),
                    "{aggs:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn rows_with_equal_hashes_and_different_keys_are_different_groups() {
        // Every row is given the same hash: only the key compare of the
        // chain walk can tell the groups apart.
        let rows = [
            ("a", 0, 0.0),
            ("a", 0, 0.0),
            ("b", 0, 0.0),
            ("b", 0, 0.0),
            ("a", 0, 0.0),
        ];
        let mut source = keyed(&rows, 8);
        let batch = source.next().unwrap().unwrap();
        let mut a = Aggr::new(source, vec![0], vec![AggFn::CountStar], AggMode::Complete).unwrap();
        let cols: Vec<&ColumnData> = batch.columns.iter().collect();
        let (mut gids, mut opened) = (Vec::new(), Vec::new());
        a.resolve_groups(&cols, &[7; 5], &mut gids, &mut opened);
        assert_eq!(gids, vec![0, 0, 1, 1, 0]);
        assert_eq!(opened, vec![0, 2]);
        // The same keys again, in a later vector: no new group.
        let (mut gids, mut opened) = (Vec::new(), Vec::new());
        a.resolve_groups(&cols, &[7; 5], &mut gids, &mut opened);
        assert_eq!(gids, vec![0, 0, 1, 1, 0]);
        assert!(opened.is_empty());
    }

    #[test]
    fn two_codes_that_name_one_string_are_one_group() {
        // "x" is entries 0 and 2 of the flag's dictionary (two exceptions of
        // one PDICT block may be equal); the status is coded too.
        let flags = StrVec::from(["x", "y", "x"]);
        let statuses = StrVec::from(["F", "O"]);
        let flag = [0, 2, 1, 2, 0, 0, 2, 1];
        let status = [0, 0, 1, 0, 0, 1, 1, 1];
        let schema = Arc::new(Schema::of(&[
            ("flag", DataType::Str),
            ("status", DataType::Str),
            ("x", DataType::I64),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                ColumnData::Str(StrVec::coded(flags, flag.to_vec()).unwrap()),
                ColumnData::Str(StrVec::coded(statuses, status.to_vec()).unwrap()),
                ColumnData::I64((1..=8).collect()),
            ],
        )
        .unwrap();
        // Groups in the order they open: key strings, then count(*), sum(x).
        let row = |keys: &[&str], n: i64, sum: i64| -> Vec<Value> {
            let keys = keys.iter().map(|&k| Value::Str(k.into()));
            keys.chain([Value::I64(n), Value::I64(sum)]).collect()
        };
        let by_both = vec![
            row(&["x", "F"], 4, 1 + 2 + 4 + 5),
            row(&["y", "O"], 2, 3 + 8),
            row(&["x", "O"], 2, 6 + 7),
        ];
        let by_flag = vec![row(&["x"], 6, 25), row(&["y"], 2, 11)];
        for (keys, vector) in [(vec![0, 1], 8), (vec![0], 8), (vec![0, 1], 3), (vec![0], 2)] {
            let src = Box::new(BatchSource::from_batch(batch.clone(), vector));
            let aggs = vec![AggFn::CountStar, AggFn::Sum(2)];
            let mut a = Aggr::new(src, keys.clone(), aggs, AggMode::Complete).unwrap();
            let want = if keys.len() == 2 { &by_both } else { &by_flag };
            assert_eq!(
                &crate::batch::collect_rows(&mut a).unwrap(),
                want,
                "keys {keys:?}, vectors of {vector}"
            );
        }
        // Vectors of 8 go by codes (3 x 2 combinations, 8 rows), vectors of 2
        // row by row (a 3-entry dictionary outnumbers them).
        let cols: Vec<&ColumnData> = batch.columns.iter().collect();
        let src = Box::new(BatchSource::new(batch.schema.clone(), vec![]));
        let mut a = Aggr::new(src, vec![0, 1], vec![AggFn::CountStar], AggMode::Complete).unwrap();
        let (mut gids, mut opened) = (Vec::new(), Vec::new());
        assert!(a.resolve_coded(&cols, &mut ByCodes::default(), &mut gids, &mut opened));
        assert_eq!(gids, vec![0, 0, 1, 0, 0, 2, 2, 1]);
        assert_eq!(opened, vec![0, 2, 5]);
        let two = batch.slice(0, 2);
        let cols: Vec<&ColumnData> = two.columns.iter().collect();
        assert!(!a.resolve_coded(&cols, &mut ByCodes::default(), &mut gids, &mut opened));
    }
}

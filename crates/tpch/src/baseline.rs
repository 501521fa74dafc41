//! Baseline comparator engines for the Figure 7 harness.
//!
//! Two honest stand-ins for the paper's competitor systems, executing the
//! logical plans the SQL parser produces, as VectorH does (so answers can
//! be cross-checked):
//!
//! * **RowStore** — a tuple-at-a-time interpreter in the spirit of Hive /
//!   HAWQ's PostgreSQL-derived engine: every expression evaluation
//!   materializes a one-row batch, every operator moves one tuple per call.
//! * **NaiveColumnar** — an Impala-ish single-threaded columnar engine: data
//!   is stored in "ORC-like" encoded chunks (value-at-a-time varint/RLE
//!   decode behind a general-purpose decompression pass), with no MinMax
//!   skipping, no partitioned parallelism, no partial aggregation.
//!
//! Both support Hive-style **delta tables** for the update-impact
//! experiment: RF1/RF2 deltas are kept aside and merged *by key* into every
//! scan — the key-comparison overhead PDTs exist to avoid.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vectorh_common::{ColumnData, Result, Schema, Value, VhError};
use vectorh_compress::baseline::{decode, encode, BaselineFormat};
use vectorh_exec::aggr::{AggMode, Aggr};
use vectorh_exec::batch::collect_rows;
use vectorh_exec::filter::Select as VSelect;
use vectorh_exec::join::{HashJoin, JoinKind as ExecJoinKind};
use vectorh_exec::operator::{BatchSource, Operator};
use vectorh_exec::project::Project as VProject;
use vectorh_exec::rowengine::{collect_row_op, RowAggr, RowProject, RowScan, RowSelect};
use vectorh_exec::sort::{sort_rows as canon_sort, Dir};
use vectorh_exec::Batch;
use vectorh_planner::logical::{CatalogInfo, JoinKind, LogicalPlan, TableMeta};
use vectorh_planner::{parse_query, prune_columns};

use crate::gen::TpchData;

/// Which baseline engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    RowStore,
    NaiveColumnar,
}

/// Hive-style delta state for one table.
#[derive(Debug, Default, Clone)]
pub struct Delta {
    pub key_col: usize,
    pub deleted: HashSet<i64>,
    pub inserted: Vec<Vec<Value>>,
}

/// The baseline database: materialized rows + ORC-like encoded chunks.
pub struct BaselineDb {
    schemas: HashMap<String, Schema>,
    rows: HashMap<String, Vec<Vec<Value>>>,
    /// `encoded[table][chunk][col]` — OrcLike blocks of ~8192 rows.
    encoded: HashMap<String, Vec<Vec<Vec<u8>>>>,
    deltas: HashMap<String, Delta>,
}

const CHUNK_ROWS: usize = 8192;

fn encode_table(schema: &Schema, rows: &[Vec<Value>]) -> Result<Vec<Vec<Vec<u8>>>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < rows.len() {
        let to = (at + CHUNK_ROWS).min(rows.len());
        let mut cols: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        for row in &rows[at..to] {
            for (c, v) in row.iter().enumerate() {
                cols[c].push_value(v)?;
            }
        }
        chunks.push(
            cols.iter()
                .map(|c| encode(BaselineFormat::OrcLike, c))
                .collect(),
        );
        at = to;
    }
    Ok(chunks)
}

impl BaselineDb {
    /// Load a generated dataset.
    pub fn load(data: &TpchData) -> Result<BaselineDb> {
        let defs = crate::schema::table_defs(1)?;
        let mut schemas = HashMap::new();
        let mut rows = HashMap::new();
        let mut encoded = HashMap::new();
        let tables: Vec<(&str, &Vec<Vec<Value>>)> = vec![
            ("region", &data.region),
            ("nation", &data.nation),
            ("supplier", &data.supplier),
            ("customer", &data.customer),
            ("part", &data.part),
            ("partsupp", &data.partsupp),
            ("orders", &data.orders),
            ("lineitem", &data.lineitem),
        ];
        for (name, trows) in tables {
            let def = defs
                .iter()
                .find(|d| d.name == name)
                .ok_or_else(|| VhError::Catalog(format!("no def for {name}")))?;
            encoded.insert(name.to_string(), encode_table(&def.schema, trows)?);
            schemas.insert(name.to_string(), def.schema.clone());
            rows.insert(name.to_string(), trows.clone());
        }
        Ok(BaselineDb {
            schemas,
            rows,
            encoded,
            deltas: HashMap::new(),
        })
    }

    /// Register delta-table state (RF1 inserts / RF2 deletes) for a table.
    pub fn apply_delta(
        &mut self,
        table: &str,
        key_col: usize,
        inserted: Vec<Vec<Value>>,
        deleted: Vec<i64>,
    ) {
        let d = self.deltas.entry(table.to_string()).or_default();
        d.key_col = key_col;
        d.inserted.extend(inserted);
        d.deleted.extend(deleted);
    }

    pub fn has_deltas(&self, table: &str) -> bool {
        self.deltas
            .get(table)
            .map(|d| !d.inserted.is_empty() || !d.deleted.is_empty())
            .unwrap_or(false)
    }

    /// Merge base rows with deltas *by key* — the per-row key lookup is the
    /// merge cost Hive pays after updates.
    fn merged_rows(&self, table: &str) -> Result<Vec<Vec<Value>>> {
        let base = self
            .rows
            .get(table)
            .ok_or_else(|| VhError::Catalog(format!("unknown table '{table}'")))?;
        match self.deltas.get(table) {
            None => Ok(base.clone()),
            Some(d) if d.deleted.is_empty() && d.inserted.is_empty() => Ok(base.clone()),
            Some(d) => {
                let mut out = Vec::with_capacity(base.len() + d.inserted.len());
                for row in base {
                    let key = row[d.key_col].as_i64().unwrap_or(i64::MIN);
                    if !d.deleted.contains(&key) {
                        out.push(row.clone());
                    }
                }
                for row in &d.inserted {
                    let key = row[d.key_col].as_i64().unwrap_or(i64::MIN);
                    if !d.deleted.contains(&key) {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            }
        }
    }

    /// Run a logical plan on the chosen baseline engine.
    pub fn run(&self, plan: &LogicalPlan, kind: BaselineKind) -> Result<Vec<Vec<Value>>> {
        match kind {
            BaselineKind::RowStore => self.eval_rowstore(plan),
            BaselineKind::NaiveColumnar => {
                let mut op = self.build_columnar(plan)?;
                collect_rows(op.as_mut())
            }
        }
    }

    /// Parse `sql` over the baseline's own tables, prune the columns it does
    /// not use (as the engines the baselines stand in for do) and run it.
    /// The answer oracles run [`Self::run`] on the engine's unpruned
    /// `parse()` instead, so pruning is checked rather than shared.
    pub fn query(&self, sql: &str, kind: BaselineKind) -> Result<Vec<Vec<Value>>> {
        self.run(&prune_columns(&parse_query(sql, self)?, self)?, kind)
    }

    fn schema_of(&self, plan: &LogicalPlan) -> Result<Arc<Schema>> {
        Ok(Arc::new(plan.schema(self)?))
    }

    // --- tuple-at-a-time -------------------------------------------------------

    fn eval_rowstore(&self, plan: &LogicalPlan) -> Result<Vec<Vec<Value>>> {
        Ok(match plan {
            LogicalPlan::Scan { table, cols } => {
                let rows = self.merged_rows(table)?;
                rows.into_iter()
                    .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect()
            }
            LogicalPlan::Select { input, predicate } => {
                let schema = self.schema_of(input)?;
                let rows = self.eval_rowstore(input)?;
                let mut op =
                    RowSelect::new(Box::new(RowScan::new(schema, rows)), predicate.clone());
                collect_row_op(&mut op)?
            }
            LogicalPlan::Project { input, items } => {
                let schema = self.schema_of(input)?;
                let rows = self.eval_rowstore(input)?;
                let mut op = RowProject::new(Box::new(RowScan::new(schema, rows)), items.clone())?;
                collect_row_op(&mut op)?
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                let lrows = self.eval_rowstore(left)?;
                let rrows = self.eval_rowstore(right)?;
                row_join(lrows, rrows, left_keys, right_keys, *kind)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let schema = self.schema_of(input)?;
                let rows = self.eval_rowstore(input)?;
                let mut op = RowAggr::new(
                    Box::new(RowScan::new(schema, rows)),
                    group_by.clone(),
                    aggs.clone(),
                )?;
                collect_row_op(&mut op)?
            }
            LogicalPlan::Sort { input, keys, limit } => {
                let mut rows = self.eval_rowstore(input)?;
                sort_values(&mut rows, keys);
                if let Some(n) = limit {
                    rows.truncate(*n);
                }
                rows
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = self.eval_rowstore(input)?;
                rows.truncate(*n);
                rows
            }
        })
    }

    // --- single-threaded columnar ------------------------------------------------

    fn build_columnar(&self, plan: &LogicalPlan) -> Result<Box<dyn Operator>> {
        Ok(match plan {
            LogicalPlan::Scan { table, cols } => {
                let schema = self
                    .schemas
                    .get(table)
                    .ok_or_else(|| VhError::Catalog(format!("unknown table '{table}'")))?;
                let out_schema = Arc::new(schema.project(cols));
                let mut batches = Vec::new();
                if self.has_deltas(table) {
                    // Delta merge by key: the whole table re-materializes
                    // through row-wise key checks.
                    let rows = self.merged_rows(table)?;
                    let mut bcols: Vec<ColumnData> = out_schema
                        .fields()
                        .iter()
                        .map(|f| ColumnData::new(f.dtype))
                        .collect();
                    for r in &rows {
                        for (j, &c) in cols.iter().enumerate() {
                            bcols[j].push_value(&r[c])?;
                        }
                    }
                    batches.push(Batch::new(out_schema.clone(), bcols)?);
                } else {
                    // Value-at-a-time ORC-like decode of only the needed
                    // columns (column pruning works; skipping doesn't).
                    let chunks = self.encoded.get(table).expect("encoded table");
                    for chunk in chunks {
                        let bcols: Result<Vec<ColumnData>> = cols
                            .iter()
                            .map(|&c| {
                                decode(BaselineFormat::OrcLike, &chunk[c])
                                    .ok_or_else(|| VhError::Codec("baseline chunk corrupt".into()))
                            })
                            .collect();
                        batches.push(Batch::new(out_schema.clone(), bcols?)?);
                    }
                }
                let sources: Vec<Batch> = batches
                    .into_iter()
                    .flat_map(|b| {
                        // Slice into vectors for the vectorized operators.
                        let mut out = Vec::new();
                        let mut at = 0;
                        while at < b.len() {
                            let to = (at + 1024).min(b.len());
                            out.push(b.slice(at, to));
                            at = to;
                        }
                        out
                    })
                    .collect();
                Box::new(BatchSource::new(out_schema, sources))
            }
            LogicalPlan::Select { input, predicate } => {
                Box::new(VSelect::new(self.build_columnar(input)?, predicate.clone()))
            }
            LogicalPlan::Project { input, items } => {
                Box::new(VProject::new(self.build_columnar(input)?, items.clone())?)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                let k = match kind {
                    JoinKind::Inner => ExecJoinKind::Inner,
                    JoinKind::LeftOuter => ExecJoinKind::LeftOuter,
                    JoinKind::Semi => ExecJoinKind::Semi,
                    JoinKind::Anti => ExecJoinKind::Anti,
                };
                Box::new(HashJoin::new(
                    self.build_columnar(left)?,
                    self.build_columnar(right)?,
                    left_keys.clone(),
                    right_keys.clone(),
                    k,
                )?)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => Box::new(Aggr::new(
                self.build_columnar(input)?,
                group_by.clone(),
                aggs.clone(),
                AggMode::Complete,
            )?),
            LogicalPlan::Sort { input, keys, limit } => Box::new(vectorh_exec::sort::Sort::new(
                self.build_columnar(input)?,
                keys.clone(),
                *limit,
            )),
            LogicalPlan::Limit { input, n } => Box::new(vectorh_exec::sort::Limit::new(
                self.build_columnar(input)?,
                *n,
            )),
        })
    }
}

/// The baseline's catalog: its tables' schemas, no statistics or placement.
impl CatalogInfo for BaselineDb {
    fn table(&self, name: &str) -> Result<TableMeta> {
        let schema = self
            .schemas
            .get(name)
            .cloned()
            .ok_or_else(|| VhError::Catalog(format!("unknown table '{name}'")))?;
        Ok(TableMeta {
            name: name.to_string(),
            schema,
            rows: 0,
            partitioning: None,
            sort_order: None,
        })
    }
}

/// Row-at-a-time hash join supporting all kinds and multi-column keys.
fn row_join(
    lrows: Vec<Vec<Value>>,
    rrows: Vec<Vec<Value>>,
    lk: &[usize],
    rk: &[usize],
    kind: JoinKind,
) -> Vec<Vec<Value>> {
    let key_of = |row: &[Value], keys: &[usize]| -> String {
        keys.iter().map(|&k| format!("{}\u{1}", row[k])).collect()
    };
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, r) in rrows.iter().enumerate() {
        table.entry(key_of(r, rk)).or_default().push(i);
    }
    let right_width = rrows.first().map(|r| r.len()).unwrap_or(0);
    let mut out = Vec::new();
    for lrow in &lrows {
        let matches = table.get(&key_of(lrow, lk));
        match kind {
            JoinKind::Inner => {
                if let Some(ms) = matches {
                    for &m in ms {
                        let mut row = lrow.clone();
                        row.extend(rrows[m].iter().cloned());
                        out.push(row);
                    }
                }
            }
            JoinKind::LeftOuter => match matches {
                Some(ms) => {
                    for &m in ms {
                        let mut row = lrow.clone();
                        row.extend(rrows[m].iter().cloned());
                        row.push(Value::I32(1));
                        out.push(row);
                    }
                }
                None => {
                    let mut row = lrow.clone();
                    row.extend((0..right_width).map(|_| Value::I64(0)));
                    row.push(Value::I32(0));
                    out.push(row);
                }
            },
            JoinKind::Semi => {
                if matches.is_some() {
                    out.push(lrow.clone());
                }
            }
            JoinKind::Anti => {
                if matches.is_none() {
                    out.push(lrow.clone());
                }
            }
        }
    }
    out
}

fn sort_values(rows: &mut [Vec<Value>], keys: &[(usize, Dir)]) {
    rows.sort_by(|a, b| {
        for &(k, dir) in keys {
            let ord = a[k].partial_cmp(&b[k]).unwrap_or(std::cmp::Ordering::Equal);
            let ord = if dir == Dir::Desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Canonicalize rows for cross-engine comparison: floats rounded, rows
/// sorted. (Decimal sums are exact and need no rounding; float averages may
/// differ in the last ulps between accumulation orders.)
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    for row in &mut rows {
        for v in row.iter_mut() {
            if let Value::F64(x) = v {
                *v = Value::F64((*x * 1e6).round() / 1e6);
            }
        }
    }
    canon_sort(&mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::{sql_text, N_QUERIES};
    use vectorh_exec::aggr::AggFn;

    #[test]
    fn baselines_agree_on_simple_plans() {
        let data = generate(0.0005, 17);
        let db = BaselineDb::load(&data).unwrap();
        for qn in [1usize, 3, 6] {
            let q = sql_text(qn).unwrap();
            let a = canonical(db.query(q, BaselineKind::RowStore).unwrap());
            let b = canonical(db.query(q, BaselineKind::NaiveColumnar).unwrap());
            assert_eq!(a, b, "Q{qn} differs between baselines");
        }
    }

    #[test]
    fn all_queries_run_on_both_baselines() {
        let data = generate(0.0005, 23);
        let db = BaselineDb::load(&data).unwrap();
        for qn in 1..=N_QUERIES {
            let q = sql_text(qn).unwrap();
            let a = db
                .query(q, BaselineKind::RowStore)
                .unwrap_or_else(|e| panic!("Q{qn} rowstore: {e}"));
            let b = db
                .query(q, BaselineKind::NaiveColumnar)
                .unwrap_or_else(|e| panic!("Q{qn} columnar: {e}"));
            assert_eq!(
                canonical(a),
                canonical(b),
                "Q{qn} differs between baselines"
            );
        }
    }

    #[test]
    fn delta_merge_changes_scan_results() {
        let data = generate(0.0005, 29);
        let mut db = BaselineDb::load(&data).unwrap();
        let before = db
            .run(
                &LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Scan {
                        table: "orders".into(),
                        cols: vec![0],
                    }),
                    group_by: vec![],
                    aggs: vec![AggFn::CountStar],
                },
                BaselineKind::RowStore,
            )
            .unwrap()[0][0]
            .as_i64()
            .unwrap();
        // Delete two orders, insert one.
        let k0 = data.orders[0][0].as_i64().unwrap();
        let k1 = data.orders[1][0].as_i64().unwrap();
        let mut new_row = data.orders[2].clone();
        new_row[0] = Value::I64(999_999);
        db.apply_delta("orders", 0, vec![new_row], vec![k0, k1]);
        for kind in [BaselineKind::RowStore, BaselineKind::NaiveColumnar] {
            let after = db
                .run(
                    &LogicalPlan::Aggregate {
                        input: Box::new(LogicalPlan::Scan {
                            table: "orders".into(),
                            cols: vec![0],
                        }),
                        group_by: vec![],
                        aggs: vec![AggFn::CountStar],
                    },
                    kind,
                )
                .unwrap()[0][0]
                .as_i64()
                .unwrap();
            assert_eq!(after, before - 2 + 1, "{kind:?}");
        }
    }
}

//! Logical plans and catalog metadata.

use vectorh_common::{Result, Schema, VhError};
use vectorh_exec::aggr::{output_fields, AggFn, AggMode};
use vectorh_exec::expr::Expr;
use vectorh_exec::sort::Dir;

/// What the optimizer knows about a table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub name: String,
    pub schema: Schema,
    pub rows: u64,
    /// Hash-partitioning key columns and partition count; `None` means the
    /// table is small and replicated on every node.
    pub partitioning: Option<(Vec<usize>, usize)>,
    /// Clustered-index sort order (column indexes), if declared.
    pub sort_order: Option<Vec<usize>>,
}

impl TableMeta {
    pub fn is_replicated(&self) -> bool {
        self.partitioning.is_none()
    }
}

/// Catalog access used during planning.
pub trait CatalogInfo {
    fn table(&self, name: &str) -> Result<TableMeta>;
}

/// A logical (location-free) relational plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan with projection by column index.
    Scan {
        table: String,
        cols: Vec<usize>,
    },
    Select {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        items: Vec<(Expr, String)>,
    },
    /// Equi-join; `kind` mirrors the executor's join kinds.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<AggFn>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(usize, Dir)>,
        limit: Option<usize>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
}

/// Join kinds at the logical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    Semi,
    Anti,
}

impl LogicalPlan {
    /// Number of output columns; needs no catalog, unlike [`Self::schema`].
    pub fn width(&self) -> usize {
        match self {
            LogicalPlan::Scan { cols, .. } => cols.len(),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.width(),
            LogicalPlan::Project { items, .. } => items.len(),
            LogicalPlan::Join {
                left, right, kind, ..
            } => match kind {
                JoinKind::Semi | JoinKind::Anti => left.width(),
                JoinKind::Inner => left.width() + right.width(),
                // The executor appends the `__matched` indicator.
                JoinKind::LeftOuter => left.width() + right.width() + 1,
            },
            LogicalPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        }
    }

    /// Output schema given the catalog.
    pub fn schema(&self, catalog: &dyn CatalogInfo) -> Result<Schema> {
        Ok(match self {
            LogicalPlan::Scan { table, cols } => catalog.table(table)?.schema.project(cols),
            LogicalPlan::Select { input, .. } => input.schema(catalog)?,
            LogicalPlan::Project { input, items } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::new();
                for (e, name) in items {
                    fields.push(vectorh_common::Field::new(
                        name.clone(),
                        e.dtype(&in_schema)?,
                    ));
                }
                Schema::new(fields)
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let l = left.schema(catalog)?;
                match kind {
                    JoinKind::Semi | JoinKind::Anti => l,
                    JoinKind::Inner => l.join(&right.schema(catalog)?),
                    JoinKind::LeftOuter => {
                        let mut s = l.join(&right.schema(catalog)?);
                        s = s.join(&Schema::of(&[("__matched", vectorh_common::DataType::I32)]));
                        s
                    }
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => Schema::new(output_fields(
                &input.schema(catalog)?,
                group_by,
                aggs,
                AggMode::Complete,
            )),
            LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.schema(catalog)?
            }
        })
    }

    /// Crude cardinality estimate for costing.
    pub fn estimate_rows(&self, catalog: &dyn CatalogInfo) -> Result<f64> {
        Ok(match self {
            LogicalPlan::Scan { table, .. } => catalog.table(table)?.rows as f64,
            LogicalPlan::Select { input, .. } => 0.3 * input.estimate_rows(catalog)?,
            LogicalPlan::Project { input, .. } => input.estimate_rows(catalog)?,
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let l = left.estimate_rows(catalog)?;
                let r = right.estimate_rows(catalog)?;
                match kind {
                    // FK joins dominate TPC-H: output ≈ the larger side.
                    JoinKind::Inner => l.max(r),
                    JoinKind::LeftOuter => l,
                    JoinKind::Semi | JoinKind::Anti => 0.5 * l,
                }
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let n = input.estimate_rows(catalog)?;
                if group_by.is_empty() {
                    1.0
                } else {
                    (n / 10.0).max(1.0)
                }
            }
            LogicalPlan::Sort { input, limit, .. } => {
                let n = input.estimate_rows(catalog)?;
                limit.map(|l| (l as f64).min(n)).unwrap_or(n)
            }
            LogicalPlan::Limit { input, n } => (*n as f64).min(input.estimate_rows(catalog)?),
        })
    }
}

/// Simple in-memory catalog for tests and the TPC-H harness.
#[derive(Debug, Clone, Default)]
pub struct MemoryCatalog {
    tables: std::collections::HashMap<String, TableMeta>,
}

impl MemoryCatalog {
    pub fn new() -> MemoryCatalog {
        MemoryCatalog::default()
    }

    pub fn add(&mut self, meta: TableMeta) {
        self.tables.insert(meta.name.clone(), meta);
    }
}

impl CatalogInfo for MemoryCatalog {
    fn table(&self, name: &str) -> Result<TableMeta> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| VhError::Catalog(format!("unknown table '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::DataType;

    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.add(TableMeta {
            name: "orders".into(),
            schema: Schema::of(&[
                ("o_orderkey", DataType::I64),
                ("o_total", DataType::Decimal { scale: 2 }),
            ]),
            rows: 1000,
            partitioning: Some((vec![0], 4)),
            sort_order: Some(vec![0]),
        });
        c.add(TableMeta {
            name: "nation".into(),
            schema: Schema::of(&[("n_key", DataType::I64), ("n_name", DataType::Str)]),
            rows: 25,
            partitioning: None,
            sort_order: None,
        });
        c
    }

    #[test]
    fn scan_schema_projects() {
        let c = catalog();
        let p = LogicalPlan::Scan {
            table: "orders".into(),
            cols: vec![1],
        };
        assert_eq!(p.schema(&c).unwrap().names(), vec!["o_total"]);
        assert!(LogicalPlan::Scan {
            table: "nope".into(),
            cols: vec![]
        }
        .schema(&c)
        .is_err());
    }

    #[test]
    fn join_schema_concatenates() {
        let c = catalog();
        let p = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "orders".into(),
                cols: vec![0, 1],
            }),
            right: Box::new(LogicalPlan::Scan {
                table: "nation".into(),
                cols: vec![0, 1],
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        assert_eq!(p.schema(&c).unwrap().len(), 4);
    }

    #[test]
    fn aggregate_schema_types() {
        let c = catalog();
        let p = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "orders".into(),
                cols: vec![0, 1],
            }),
            group_by: vec![0],
            aggs: vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Avg(1)],
        };
        let s = p.schema(&c).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.dtype(1), DataType::I64);
        assert_eq!(s.dtype(2), DataType::Decimal { scale: 2 });
        assert_eq!(s.dtype(3), DataType::F64);
    }

    #[test]
    fn estimates_are_sane() {
        let c = catalog();
        let scan = LogicalPlan::Scan {
            table: "orders".into(),
            cols: vec![0],
        };
        assert_eq!(scan.estimate_rows(&c).unwrap(), 1000.0);
        let sel = LogicalPlan::Select {
            input: Box::new(scan),
            predicate: Expr::lit(vectorh_common::Value::I32(1)),
        };
        assert!(sel.estimate_rows(&c).unwrap() < 1000.0);
        let top = LogicalPlan::Sort {
            input: Box::new(sel),
            keys: vec![],
            limit: Some(10),
        };
        assert_eq!(top.estimate_rows(&c).unwrap(), 10.0);
    }

    #[test]
    fn replication_flag() {
        let c = catalog();
        assert!(c.table("nation").unwrap().is_replicated());
        assert!(!c.table("orders").unwrap().is_replicated());
    }
}

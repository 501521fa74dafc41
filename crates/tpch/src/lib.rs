//! TPC-H for VectorH-rs (§8 of the paper).
//!
//! * [`gen`] — a dbgen-style deterministic data generator, scaled by SF.
//! * [`schema`] — the paper's physical design: clustered indexes on
//!   `o_orderdate` / `l_orderkey` / `ps_partkey` / PKs, hash partitioning of
//!   lineitem+orders on the orderkey and part+partsupp on the partkey (so
//!   those joins are co-located), small tables replicated.
//! * [`sql_texts`] — all 22 TPC-H queries as SQL text, the one form every
//!   caller runs; the `sql_conformance` suite pins their answers.
//! * [`refresh`] — RF1 (new orders) and RF2 (deletes) refresh functions.
//! * [`baseline`] — comparator engines for Figure 7: a tuple-at-a-time
//!   interpreter ("rowstore", Hive/PostgreSQL-like) and a single-threaded
//!   columnar executor without MinMax skipping ("naive columnar",
//!   Impala-like), both executing the logical plans the SQL parser produces
//!   so answers can be cross-checked.

pub mod baseline;
pub mod gen;
pub mod refresh;
pub mod schema;
pub mod sql_texts;

pub use gen::{generate, TpchData};
pub use schema::{create_tables, load, table_names};
pub use sql_texts::{sql_text, N_QUERIES};

//! # VectorH-rs
//!
//! A from-scratch Rust reproduction of **Actian VectorH** (Costea et al.,
//! SIGMOD 2016): an MPP SQL-on-Hadoop analytical engine with vectorized
//! execution, lightweight compression, MinMax skipping, instrumented HDFS
//! block placement, YARN elasticity, and trickle updates through Positional
//! Delta Trees — all running against an in-process simulated Hadoop cluster.
//!
//! ```
//! use vectorh::{VectorH, ClusterConfig, TableBuilder};
//! use vectorh_common::{DataType, Value};
//!
//! let vh = VectorH::start(ClusterConfig { nodes: 3, ..Default::default() }).unwrap();
//! vh.create_table(
//!     TableBuilder::new("items")
//!         .column("id", DataType::I64)
//!         .column("price", DataType::Decimal { scale: 2 })
//!         .partition_by(&["id"], 6)
//!         .clustered_by(&["id"]),
//! ).unwrap();
//! vh.insert_rows("items", (0..1000).map(|i| vec![
//!     Value::I64(i), Value::Decimal(i * 10, 2),
//! ]).collect()).unwrap();
//! let rows = vh.query("SELECT count(*), sum(price) FROM items WHERE id < 500").unwrap();
//! assert_eq!(rows[0][0], Value::I64(500));
//! ```
//!
//! The crate layers the substrates built in the sibling crates:
//! [`vectorh_blockstore`] (storage + placement), [`vectorh_storage`] (chunked
//! columnar format + MinMax), [`vectorh_pdt`] + [`vectorh_txn`] (updates),
//! [`vectorh_exec`] + [`vectorh_net`] (vectorized distributed execution),
//! [`vectorh_yarn`] (elasticity) and [`vectorh_planner`] (SQL + the
//! Parallel Rewriter).

pub mod catalog;
pub mod dml;
pub mod engine;
pub mod execute;
pub mod health;
pub mod recovery;
pub mod scheduler;

pub use catalog::{Catalog, TableBuilder, TableDef};
pub use engine::{ClusterConfig, ClusterMode, MasterState, QueryCtl, StorageBackend, VectorH};
pub use recovery::{recover_partition, RecoveryReport};
pub use scheduler::HealthScheduler;
// The DML predicate type ([`dml`] takes `&Expr`), re-exported so callers
// of `delete_where`/`update_where` don't need a direct exec dependency.
pub use vectorh_exec::expr::Expr;
pub use vectorh_net::NodeHealth;

// Re-exports for example/bench ergonomics.
pub use vectorh_common as common;
pub use vectorh_planner::LogicalPlan;

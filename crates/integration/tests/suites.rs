//! Binds the workspace-root integration suites into a cargo test target.
//!
//! The suite sources stay at `<workspace>/tests/` — they are engine-level
//! documentation as much as tests — and are included here by path so
//! `cargo test` from the workspace root compiles and runs all of them.

#[path = "../../../tests/column_pruning.rs"]
mod column_pruning;

#[path = "../../../tests/dml_differential.rs"]
mod dml_differential;

#[path = "../../../tests/docs_are_true.rs"]
mod docs_are_true;

#[path = "../../../tests/elasticity.rs"]
mod elasticity;

#[path = "../../../tests/end_to_end_sql.rs"]
mod end_to_end_sql;

#[path = "../../../tests/failover_locality.rs"]
mod failover_locality;

#[path = "../../../tests/filestore.rs"]
mod filestore;

#[path = "../../../tests/health_plane.rs"]
mod health_plane;

#[path = "../../../tests/power_loss.rs"]
mod power_loss;

#[path = "../../../tests/propagation.rs"]
mod propagation;

#[path = "../../../tests/recovery.rs"]
mod recovery;

#[path = "../../../tests/server_frontdoor.rs"]
mod server_frontdoor;

#[path = "../../../tests/sparse_propagation.rs"]
mod sparse_propagation;

#[path = "../../../tests/tpch_consistency.rs"]
mod tpch_consistency;

#[path = "../../../tests/transactions.rs"]
mod transactions;

#[path = "../../../tests/transport_cluster.rs"]
mod transport_cluster;

#[path = "../../../tests/untrusted_bytes.rs"]
mod untrusted_bytes;

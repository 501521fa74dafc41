//! Distributed transaction processing for VectorH-rs (§6).
//!
//! * [`wal`] — write-ahead logs as append-only block-store files: one WAL per
//!   table partition (read/written only by the responsible node) plus a
//!   much-reduced *global* WAL for 2PC decisions, both replayable.
//! * [`manager`] — snapshot isolation over stacked PDTs: queries share a
//!   Read-PDT and a copy-on-write master Write-PDT; each transaction holds a
//!   private Trans-PDT. Commit serializes the transaction's updates against
//!   the advanced global state, detecting **write-write conflicts at tuple
//!   granularity** optimistically and aborting on conflict.
//! * [`propagate`] — background update propagation: PDTs are flushed to the
//!   columnar store when they exceed memory/fraction thresholds, separating
//!   cheap *tail inserts* (pure appends creating new blocks) from in-place
//!   updates (chunk rewrites). A chunk is rewritten only once its deltas
//!   reach 1/64 of its rows; the checkpoint carries the rest. MinMax
//!   indexes are rebuilt for the chunks written.
//! * [`twophase`] — the 2PC protocol between the session master (global
//!   WAL) and responsible nodes (partition WALs), with crash-point
//!   injection: a transaction is durable iff the global decision record made
//!   it to HDFS. The decision carries the participants' records, so a commit
//!   forces that one file.
//! * [`global`] — the global WAL itself: generation files, rotated once
//!   every payload in them is covered by a partition checkpoint.

pub mod global;
pub mod manager;
pub mod propagate;
pub mod twophase;
pub mod wal;

pub use global::GlobalWal;
pub use manager::{Transaction, TransactionManager, TxnConfig};
pub use twophase::{LogShipper, RecoverableTxn, TwoPhaseCoordinator, TxnResolution};
pub use wal::{LogRecord, Replay, Wal};

//! The SQL conformance ratchet: every one of the 22 TPC-H queries, parsed
//! from its canonical SQL text (`vectorh_tpch::sql_texts`), must execute to
//! the *byte-identical* result of the hand-built logical plan in
//! `vectorh_tpch::queries` — compared via `exec::fingerprint_rows` at
//! SF 0.01. This is what keeps the SQL frontend honest as the rewriter and
//! executor evolve: a frontend regression (wrong decorrelation, dropped
//! predicate, changed aggregate order) shows up as a fingerprint mismatch
//! on the exact query that needs the feature.
//!
//! Each query's SQL text also runs once with the kernels pinned to the scalar
//! oracle arm (`force_mode(Some(SimdMode::Scalar))`) and must fingerprint
//! equal to the auto-dispatched run: the one place all 22 queries are
//! compared across kernel arms end to end in one process.
//!
//! `VH_SQL_CONF_TCP=1` additionally runs a 4-query smoke pass over the real
//! TCP transport (`ClusterMode::Tcp`), exercising the SQL path through the
//! framed exchange fabric. It is off by default because the loopback
//! sockets make it much slower than the in-process fabric.

use std::sync::{Mutex, MutexGuard};

use vectorh::{ClusterConfig, ClusterMode, VectorH};
use vectorh_common::simd::{force_mode, SimdMode};
use vectorh_exec::fingerprint_rows;
use vectorh_tpch::queries::{build_query, run_with};
use vectorh_tpch::{schema, sql_text, N_QUERIES};

const SF: f64 = 0.01;
const PARTS: usize = 4;
const SEED: u64 = 4;

fn engine(mode: ClusterMode) -> VectorH {
    VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 512,
        hdfs_block_size: 64 * 1024,
        streams_per_node: 2,
        cluster_mode: mode,
        ..Default::default()
    })
    .expect("engine start")
}

/// Serializes the queries of this binary's tests (they run on parallel
/// threads and the kernel arm is process-global); restores auto-detection
/// when dropped, also while unwinding.
struct ModeGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn mode_lock() -> ModeGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another query's check failed.
    ModeGuard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        force_mode(None);
    }
}

/// Run query `qn` on `vh` from its SQL text (scalar arm, then dispatched arm)
/// and from the hand-built plan, and compare fingerprints.
fn check_query(vh: &VectorH, qn: usize) {
    let _mode = mode_lock();
    let sql = sql_text(qn).expect("query number in range");
    force_mode(Some(SimdMode::Scalar));
    let scalar_rows = vh
        .query(sql)
        .unwrap_or_else(|e| panic!("Q{qn}: SQL path failed on the scalar arm: {e}"));
    force_mode(None);
    let sql_rows = vh
        .query(sql)
        .unwrap_or_else(|e| panic!("Q{qn}: SQL path failed: {e}"));
    assert_eq!(
        fingerprint_rows(&scalar_rows),
        fingerprint_rows(&sql_rows),
        "Q{qn}: the dispatched kernel arm changed the answer of the scalar arm"
    );
    let hand = build_query(qn).expect("hand-built query");
    let hand_rows = run_with(&hand, |p| vh.query_logical(p))
        .unwrap_or_else(|e| panic!("Q{qn}: hand-built path failed: {e}"));
    assert_eq!(
        fingerprint_rows(&sql_rows),
        fingerprint_rows(&hand_rows),
        "Q{qn}: SQL result diverges from hand-built plan\n\
         sql  rows={} head={:?}\n\
         hand rows={} head={:?}",
        sql_rows.len(),
        &sql_rows[..sql_rows.len().min(3)],
        hand_rows.len(),
        &hand_rows[..hand_rows.len().min(3)],
    );
}

#[test]
fn all_22_queries_match_hand_plans_byte_for_byte() {
    let vh = engine(ClusterMode::InProc);
    schema::setup(&vh, SF, PARTS, SEED).expect("load TPC-H");
    for qn in 1..=N_QUERIES {
        check_query(&vh, qn);
    }
}

#[test]
fn tcp_cluster_mode_smoke() {
    if std::env::var("VH_SQL_CONF_TCP").is_err() {
        eprintln!("skipping: set VH_SQL_CONF_TCP=1 to run the Tcp-transport leg");
        return;
    }
    let vh = engine(ClusterMode::Tcp);
    schema::setup(&vh, SF, PARTS, SEED).expect("load TPC-H");
    // A scan-heavy aggregate, a 3-way join, a selective filter and a CASE
    // pivot: enough to push SQL-derived plans through the real transport.
    for qn in [1, 3, 6, 12] {
        check_query(&vh, qn);
    }
}

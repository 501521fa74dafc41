//! The SQL conformance golden: every one of the 22 TPC-H queries, run from
//! its SQL text (`vectorh_tpch::sql_texts`) at SF 0.01, seed 4, must answer
//! exactly the rows pinned in [`ANSWERS`]: the row count and
//! `exec::fingerprint_rows`, byte for byte. The pairs were recorded at
//! `a44c8f0`, the last commit with hand-built logical plans, where each SQL
//! text fingerprinted equal to its hand plan; they keep that oracle's
//! independence from the parser now the hand plans are gone. A frontend or
//! executor regression (wrong decorrelation, dropped predicate, changed
//! aggregate order) fails on the exact query that needs the feature. Q22
//! answers no rows on this data (every customer has an order, ROADMAP item
//! 0), and its golden pins that.
//!
//! Each query also runs once with the kernels pinned to the scalar oracle
//! arm (`force_mode(Some(SimdMode::Scalar))`) and must fingerprint equal to
//! the auto-dispatched run: the one place all 22 queries are compared
//! across kernel arms end to end in one process.
//!
//! `VH_SQL_CONF_TCP=1` additionally runs a 4-query smoke pass over the real
//! TCP transport (`ClusterMode::Tcp`), exercising the SQL path through the
//! framed exchange fabric. It is off by default because the loopback
//! sockets make it much slower than the in-process fabric.

use std::sync::{Mutex, MutexGuard};

use vectorh::{ClusterConfig, ClusterMode, VectorH};
use vectorh_common::simd::{force_mode, SimdMode};
use vectorh_exec::fingerprint_rows;
use vectorh_tpch::{schema, sql_text, N_QUERIES};

const SF: f64 = 0.01;
const PARTS: usize = 4;
const SEED: u64 = 4;

/// `(rows, fingerprint_rows)` of Q1..Q22 at [`SF`], [`SEED`], [`PARTS`].
const ANSWERS: [(usize, u64); N_QUERIES] = [
    (4, 0x46273284bf085df3),
    (2, 0x5fd932b32a7673c4),
    (10, 0x37c8bc476a4943d3),
    (5, 0x5a40a23c08c358b2),
    (5, 0xf60d621892cacbbf),
    (1, 0x77b27e2fe056b682),
    (4, 0x9da165ae967816f8),
    (2, 0x73705cf88f6143c7),
    (175, 0x06c5ab19fb5d9ab6),
    (20, 0x83b8ec3b57a94a48),
    (80, 0x14a62ad6cb465383),
    (2, 0x60ba191be89e18e5),
    (20, 0x3ea4d280d37da972),
    (1, 0x3062e9f3955704ce),
    (1, 0x2d1f2825c1e8b98f),
    (300, 0xc358418626ee63e6),
    (1, 0x0cf0fa3a786a2af8),
    (1, 0xecd5ecea309aeb76),
    (1, 0x37ced3c7f3d64fff),
    (1, 0x773914baa7a8d648),
    (4, 0x5e6b9078bb027b48),
    (0, 0xcbf29ce484222325),
];

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
/// and compare both with its pinned answer.
fn check_query(vh: &VectorH, qn: usize) {
    let _mode = mode_lock();
    let sql = sql_text(qn).expect("query number in range");
    force_mode(Some(SimdMode::Scalar));
    let scalar_rows = vh
        .query(sql)
        .unwrap_or_else(|e| panic!("Q{qn}: SQL path failed on the scalar arm: {e}"));
    force_mode(None);
    let rows = vh
        .query(sql)
        .unwrap_or_else(|e| panic!("Q{qn}: SQL path failed: {e}"));
    assert_eq!(
        fingerprint_rows(&scalar_rows),
        fingerprint_rows(&rows),
        "Q{qn}: the dispatched kernel arm changed the answer of the scalar arm"
    );
    assert_eq!(
        (rows.len(), fingerprint_rows(&rows)),
        ANSWERS[qn - 1],
        "Q{qn}: the answer moved from its golden; head={:?}",
        &rows[..rows.len().min(3)],
    );
}

#[test]
fn all_22_queries_match_their_golden_answers() {
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

//! Cross-engine TPC-H answer consistency.
//!
//! The distributed VectorH engine (partition-parallel scans, local joins,
//! DXchg repartitioning, partial aggregation) must return exactly the same
//! answers as the single-threaded tuple-at-a-time baseline on every one of
//! the 22 queries. This exercises the full stack end to end: storage,
//! compression, MinMax pruning, PDT merge plans, the Parallel Rewriter and
//! every exchange flavour.

use vectorh::{ClusterConfig, VectorH};
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};
use vectorh_tpch::{sql_text, N_QUERIES};

fn setup() -> (VectorH, BaselineDb) {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 512,
        hdfs_block_size: 64 * 1024,
        streams_per_node: 2,
        ..Default::default()
    })
    .unwrap();
    let data = vectorh_tpch::schema::setup(&vh, 0.002, 4, 20260707).unwrap();
    let db = BaselineDb::load(&data).unwrap();
    (vh, db)
}

#[test]
fn all_22_queries_match_the_rowstore_baseline() {
    let (vh, db) = setup();
    let mut mismatches = Vec::new();
    for qn in 1..=N_QUERIES {
        let sql = sql_text(qn).unwrap();
        let got = canonical(vh.query(sql).unwrap_or_else(|e| {
            panic!("Q{qn} failed on VectorH: {e}");
        }));
        let plan = vh.parse(sql).unwrap();
        let want = canonical(db.run(&plan, BaselineKind::RowStore).unwrap());
        if got != want {
            mismatches.push(format!(
                "Q{qn}: vectorh {} rows vs baseline {} rows; first diff: {:?} vs {:?}",
                got.len(),
                want.len(),
                got.iter().find(|r| !want.contains(r)),
                want.iter().find(|r| !got.contains(r)),
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn queries_match_after_trickle_updates() {
    let (vh, mut db) = setup();
    let data = vectorh_tpch::gen::generate(0.002, 20260707);
    let set = vectorh_tpch::refresh::refresh_set(&data, 8, 99);
    // Apply RF1 + RF2 to both engines.
    vectorh_tpch::refresh::rf1(&vh, &set).unwrap();
    vectorh_tpch::refresh::rf2(&vh, &set).unwrap();
    db.apply_delta("orders", 0, set.orders.clone(), set.delete_keys.clone());
    db.apply_delta(
        "lineitem",
        0,
        set.lineitems.clone(),
        set.delete_keys.clone(),
    );
    // Queries over the updated tables still agree (PDT merge vs key merge).
    for qn in [1usize, 3, 4, 5, 6, 10, 12, 18] {
        let sql = sql_text(qn).unwrap();
        let got = canonical(vh.query(sql).unwrap());
        let plan = vh.parse(sql).unwrap();
        let want = canonical(db.run(&plan, BaselineKind::RowStore).unwrap());
        assert_eq!(got, want, "Q{qn} after updates");
    }
}

#[test]
fn queries_match_after_propagation() {
    let (vh, mut db) = setup();
    let data = vectorh_tpch::gen::generate(0.002, 20260707);
    let set = vectorh_tpch::refresh::refresh_set(&data, 6, 5);
    vectorh_tpch::refresh::rf1(&vh, &set).unwrap();
    vectorh_tpch::refresh::rf2(&vh, &set).unwrap();
    db.apply_delta("orders", 0, set.orders.clone(), set.delete_keys.clone());
    db.apply_delta(
        "lineitem",
        0,
        set.lineitems.clone(),
        set.delete_keys.clone(),
    );
    // Flush PDTs into the columnar store; answers must be unchanged.
    vh.propagate_table("orders", true).unwrap();
    vh.propagate_table("lineitem", true).unwrap();
    for qn in [1usize, 4, 6, 12] {
        let sql = sql_text(qn).unwrap();
        let got = canonical(vh.query(sql).unwrap());
        let plan = vh.parse(sql).unwrap();
        let want = canonical(db.run(&plan, BaselineKind::RowStore).unwrap());
        assert_eq!(got, want, "Q{qn} after propagation");
    }
}

//! Figure 7 (bottom) — impact of updates: RF1/RF2 and GeoDiff.
//!
//! The paper: "Hive query performance after these updates deteriorates to
//! be 38% slower than before. In VectorH, the GeoDiff is 2.8%, which is in
//! range of noise. Therefore, thanks to PDTs, query performance remains
//! unaffected by updates." (Hive: RF1=34s RF2=112s GeoDiff=138.2% —
//! VectorH: RF1=17.8s RF2=8.4s GeoDiff=102.8%.)
//!
//! We run RF1 (trickle inserts into PDTs at clustered positions) and RF2
//! (positional deletes) on VectorH, and the same refresh as *key-matched
//! delta tables* on the Hive-like rowstore baseline; then re-run the 22
//! queries on both and report the ratio of geometric means.

use vectorh::{ClusterConfig, VectorH};
use vectorh_bench::{print_table, timed, timed_hot};
use vectorh_common::util::geometric_mean;
use vectorh_tpch::baseline::{BaselineDb, BaselineKind};
use vectorh_tpch::refresh::{refresh_set, rf1, rf2};
use vectorh_tpch::{sql_text, N_QUERIES};

fn sweep_vh(vh: &VectorH) -> Vec<f64> {
    (1..=N_QUERIES)
        .map(|qn| {
            let (_, t) = timed_hot(|| vh.query(sql_text(qn).unwrap()).unwrap());
            t.max(1e-6)
        })
        .collect()
}

fn sweep_baseline(db: &BaselineDb) -> Vec<f64> {
    (1..=N_QUERIES)
        .map(|qn| {
            let sql = sql_text(qn).unwrap();
            let (_, t) = timed_hot(|| db.query(sql, BaselineKind::NaiveColumnar).unwrap());
            t.max(1e-6)
        })
        .collect()
}

fn main() {
    let sf = vectorh_bench::env_sf(0.01);
    println!("Figure 7 update impact — TPC-H at SF {sf}\n");
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 8192,
        ..Default::default()
    })
    .unwrap();
    let data = vectorh_tpch::schema::setup(&vh, sf, 6, 42).unwrap();
    let mut db = BaselineDb::load(&data).unwrap();
    // RF pair count ≈ SF × 1500, clamped for tiny runs.
    let pairs = ((sf * 1500.0) as usize).clamp(10, 2000);
    let set = refresh_set(&data, pairs, 7);

    println!("measuring the 22 queries before updates...");
    let vh_before = sweep_vh(&vh);
    let base_before = sweep_baseline(&db);

    // --- VectorH refresh: PDTs ------------------------------------------------
    let (_, vh_rf1) = timed(|| rf1(&vh, &set).unwrap());
    let (deleted, vh_rf2) = timed(|| rf2(&vh, &set).unwrap());
    println!(
        "VectorH RF1 ({} orders + {} lineitems): {:.1} ms | RF2 ({} rows deleted): {:.1} ms",
        set.orders.len(),
        set.lineitems.len(),
        vh_rf1 * 1e3,
        deleted,
        vh_rf2 * 1e3
    );
    // How much landed in PDTs?
    let rt = vh.table("lineitem").unwrap();
    let pdt_entries: usize = rt
        .pids
        .iter()
        .map(|pid| {
            let st = vh.txns.partition_state(*pid).unwrap();
            st.read.n_entries() + st.write.n_entries()
        })
        .sum();
    println!("lineitem PDT entries after refresh: {pdt_entries}");

    // --- Hive-like refresh: delta tables matched by key -----------------------
    let (_, base_rf) = timed(|| {
        db.apply_delta("orders", 0, set.orders.clone(), set.delete_keys.clone());
        db.apply_delta(
            "lineitem",
            0,
            set.lineitems.clone(),
            set.delete_keys.clone(),
        );
    });
    println!(
        "baseline delta registration: {:.1} ms (cost is paid at query time)\n",
        base_rf * 1e3
    );

    println!("re-measuring the 22 queries after updates...");
    let vh_after = sweep_vh(&vh);
    let base_after = sweep_baseline(&db);

    let geodiff = |before: &[f64], after: &[f64]| -> f64 {
        geometric_mean(after) / geometric_mean(before) * 100.0
    };
    let vh_geodiff = geodiff(&vh_before, &vh_after);
    let base_geodiff = geodiff(&base_before, &base_after);

    let mut rows = Vec::new();
    rows.push(vec![
        "VectorH (PDTs)".into(),
        format!("{:.1} ms", vh_rf1 * 1e3),
        format!("{:.1} ms", vh_rf2 * 1e3),
        format!("{vh_geodiff:.1}%"),
    ]);
    rows.push(vec![
        "baseline (key-matched delta tables)".into(),
        "n/a (deferred)".into(),
        "n/a (deferred)".into(),
        format!("{base_geodiff:.1}%"),
    ]);
    print_table(&["engine", "RF1", "RF2", "GeoDiff (after/before)"], &rows);

    println!("\nper-query slowdown after updates (after/before):");
    let mut per_q = Vec::new();
    for i in 0..N_QUERIES {
        per_q.push(vec![
            format!("Q{}", i + 1),
            format!("{:.2}x", vh_after[i] / vh_before[i]),
            format!("{:.2}x", base_after[i] / base_before[i]),
        ]);
    }
    print_table(&["query", "vectorh", "delta-table baseline"], &per_q);

    println!("\npaper shape: VectorH GeoDiff ≈ 102.8% (noise) vs Hive 138.2% — positional");
    println!("PDT merging is nearly free, key-matched delta merging is not.");
    assert!(
        base_geodiff > vh_geodiff,
        "delta-table merging must cost more than PDT merging ({base_geodiff:.1}% vs {vh_geodiff:.1}%)"
    );
}

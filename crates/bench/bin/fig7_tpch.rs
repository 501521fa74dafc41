//! Figure 7 — TPC-H: VectorH vs comparator engines, all 22 queries.
//!
//! The paper's headline table: VectorH vs HAWQ, SparkSQL, Impala and Hive at
//! SF1000 on 9 nodes, with VectorH 1–3 orders of magnitude faster. Our
//! comparators are the two from-scratch baselines (see
//! `vectorh_tpch::baseline`): **rowstore** (tuple-at-a-time, Hive/HAWQ-like)
//! and **naive columnar** (single-threaded, value-at-a-time decoding, no
//! skipping — Impala-like). The shape to reproduce: VectorH wins every
//! query; the columnar baseline beats the rowstore but still loses clearly.
//!
//! `VH_SF=0.05 cargo run --release --bin fig7_tpch` for a bigger run.

use vectorh::{ClusterConfig, VectorH};
use vectorh_bench::{print_table, timed_hot};
use vectorh_common::util::geometric_mean;
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};
use vectorh_tpch::{sql_text, N_QUERIES};

/// Estimate the wall time this query would take on a real cluster with
/// `slots` concurrent streams: the host's two cores are far fewer than the
/// plan's pipelines, so the per-sender pipeline work measured in the profile
/// mostly runs *serially* here; on the cluster it runs `slots`-wide.
/// serial_part + parallel_work/slots.
fn estimate_cluster_secs(vh: &VectorH, sql: &str, slots: f64) -> f64 {
    let phys = vh.optimize(&vh.parse(sql).unwrap()).unwrap();
    let t0 = std::time::Instant::now();
    let (_, profile) = vh.run_physical_public(&phys).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let mut parallel = 0.0f64;
    for line in profile.lines() {
        let t = line.trim_start();
        if t.starts_with("sender ") || t.starts_with("thread ") {
            if let Some(ms) = t
                .split("cum_time=")
                .nth(1)
                .and_then(|r| r.split("ms").next())
            {
                if let Ok(v) = ms.parse::<f64>() {
                    parallel += v / 1e3;
                }
            }
        }
    }
    let parallel = parallel.min(wall);
    (wall - parallel) + parallel / slots
}

fn main() {
    let sf = vectorh_bench::env_sf(0.01);
    println!("Figure 7 reproduction — TPC-H at SF {sf}\n");
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 8192,
        streams_per_node: 2,
        ..Default::default()
    })
    .unwrap();
    let data = vectorh_tpch::schema::setup(&vh, sf, 6, 42).unwrap();
    println!(
        "loaded {} total rows; lineitem stored as {} compressed",
        data.total_rows(),
        vectorh_common::util::fmt_bytes(vh.table_bytes("lineitem").unwrap())
    );
    let db = BaselineDb::load(&data).unwrap();

    // On a real cluster the per-partition pipelines run concurrently; this
    // two-core host mostly serializes them, so we report both the measured
    // wall time and the estimated cluster time (parallel work ÷ stream slots).
    let slots = (vh.workers().len() * vh.streams_per_node()) as f64;
    let mut rows = Vec::new();
    let mut vh_times = Vec::new();
    let mut vh_est = Vec::new();
    let mut col_times = Vec::new();
    let mut row_times = Vec::new();
    for qn in 1..=N_QUERIES {
        let sql = sql_text(qn).unwrap();
        let (vh_out, vh_t) = timed_hot(|| vh.query(sql).unwrap());
        let est = estimate_cluster_secs(&vh, sql, slots);
        let (col_out, col_t) = timed_hot(|| db.query(sql, BaselineKind::NaiveColumnar).unwrap());
        let (row_out, row_t) = timed_hot(|| db.query(sql, BaselineKind::RowStore).unwrap());
        assert_eq!(
            canonical(vh_out.clone()),
            canonical(row_out),
            "Q{qn} mismatch vs rowstore"
        );
        assert_eq!(
            canonical(vh_out),
            canonical(col_out),
            "Q{qn} mismatch vs columnar"
        );
        vh_times.push(vh_t.max(1e-6));
        vh_est.push(est.max(1e-6));
        col_times.push(col_t.max(1e-6));
        row_times.push(row_t.max(1e-6));
        rows.push(vec![
            format!("Q{qn}"),
            format!("{:.1}", vh_t * 1e3),
            format!("{:.2}M", data.total_rows() as f64 / vh_t / 1e6),
            format!("{:.1}", est * 1e3),
            format!("{:.1}", col_t * 1e3),
            format!("{:.1}", row_t * 1e3),
            format!("{:.1}x", col_t / est),
            format!("{:.1}x", row_t / est),
        ]);
    }
    let gm = |xs: &[f64]| geometric_mean(xs);
    rows.push(vec![
        "GEO-MEAN".into(),
        format!("{:.1}", gm(&vh_times) * 1e3),
        format!("{:.2}M", data.total_rows() as f64 / gm(&vh_times) / 1e6),
        format!("{:.1}", gm(&vh_est) * 1e3),
        format!("{:.1}", gm(&col_times) * 1e3),
        format!("{:.1}", gm(&row_times) * 1e3),
        format!("{:.1}x", gm(&col_times) / gm(&vh_est)),
        format!("{:.1}x", gm(&row_times) / gm(&vh_est)),
    ]);
    print_table(
        &[
            "query",
            "vectorh wall ms",
            "vh rows/s",
            "vectorh est-cluster ms",
            "naive-columnar ms",
            "rowstore ms",
            "col/vh",
            "row/vh",
        ],
        &rows,
    );
    println!(
        "\nthroughput: {} table rows per query; geo-mean VectorH rate {:.2}M rows/s (wall)",
        data.total_rows(),
        data.total_rows() as f64 / gm(&vh_times) / 1e6
    );
    println!("\n\"how many times faster is VectorH\" (the Figure 7 chart series, est-cluster):");
    let series: Vec<String> = (0..N_QUERIES)
        .map(|i| format!("Q{}:{:.0}x", i + 1, row_times[i] / vh_est[i]))
        .collect();
    println!("  vs rowstore:       {}", series.join(" "));
    let series: Vec<String> = (0..N_QUERIES)
        .map(|i| format!("Q{}:{:.1}x", i + 1, col_times[i] / vh_est[i]))
        .collect();
    println!("  vs naive-columnar: {}", series.join(" "));
    println!("\nnote: the host has two cores — the measured wall column mostly serializes");
    println!("the per-partition pipelines; the est-cluster column divides the profiled");
    println!(
        "parallel pipeline work across the cluster's stream slots ({} here).",
        slots
    );
    println!("\npaper shape: VectorH wins everywhere; the gap to the tuple-at-a-time engine");
    println!("is the largest (Hive/HAWQ-like), the single-core columnar engine (Impala-like)");
    println!("sits in between.");
}

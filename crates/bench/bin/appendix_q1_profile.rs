//! Appendix — the TPC-H Q1 execution profile.
//!
//! The paper's appendix shows Q1's profile: a DXchgUnion on top of 180
//! per-thread pipelines of MScan → Select → Project → Aggr(DIRECT), with
//! per-operator `time` / `cum_time` / tuple counts and the per-thread load
//! balance ("cum time in the parallel Aggr varies between 2.95G and 3.64G
//! cycles (20%) ... the overall performance penalty for this is less than
//! 15%"). This harness prints the same structure for our Q1 run, plus the
//! per-sender balance statistics.

use vectorh::{ClusterConfig, VectorH};
use vectorh_bench::timed;
use vectorh_tpch::sql_text;

fn main() {
    let sf = vectorh_bench::env_sf(0.02);
    println!("Appendix reproduction — TPC-H Q1 profile at SF {sf}\n");
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 8192,
        streams_per_node: 2,
        ..Default::default()
    })
    .unwrap();
    vectorh_tpch::schema::setup(&vh, sf, 6, 42).unwrap();

    let q1 = sql_text(1).unwrap();
    println!("distributed plan:\n{}", vh.explain(q1).unwrap());

    // Warm, then profile.
    let _ = vh.query(q1).unwrap();
    let phys = vh.optimize(&vh.parse(q1).unwrap()).unwrap();
    let ((rows, profile), wall) = timed(|| vh.run_physical_public(&phys).unwrap());
    println!(
        "Q1 returned {} groups in {:.1} ms\n",
        rows.len(),
        wall * 1e3
    );
    println!("per-operator profile (time = self, cum_time = incl. children):");
    println!("{profile}");

    // Per-thread balance, as the appendix discusses.
    let mut sender_walls: Vec<f64> = Vec::new();
    for line in profile.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("sender ") {
            // "sender N: time=..ms cum_time=XXms ..."
            if let Some(cum) = rest.split("cum_time=").nth(1) {
                if let Some(ms) = cum.split("ms").next() {
                    if let Ok(v) = ms.parse::<f64>() {
                        sender_walls.push(v);
                    }
                }
            }
        }
    }
    if !sender_walls.is_empty() {
        let min = sender_walls.iter().cloned().fold(f64::MAX, f64::min);
        let max = sender_walls.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "per-thread balance: {} pipelines, cum_time {:.2}..{:.2} ms (spread {:.0}%)",
            sender_walls.len(),
            min,
            max,
            if min > 0.0 {
                (max / min - 1.0) * 100.0
            } else {
                0.0
            }
        );
        println!(
            "paper shape: the parallel Aggr/Project/MScan dominate; thread spread ~20% with\n\
             an overall penalty under 15% — the final Aggr above the union is negligible."
        );
    }
}

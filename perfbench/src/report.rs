//! What a run prints: the one-line JSON result the driver reads, and a
//! report for a person (to stderr and, with `--out`, to a file).

use std::fmt::Write as _;

use crate::run::RunReport;
use crate::spec::{Better, END_TO_END};
use crate::stats;
use crate::trace::self_times;

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
pub fn result_line(r: &RunReport) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A JSON number with all the digits the measurement has.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the tree being measured, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "not a git checkout".into(),
    }
}

/// Who ran what, on what: the context a number needs to be compared.
pub fn metadata(r: &RunReport) -> Vec<(&'static str, String)> {
    let rig = crate::rig::cluster_config("", 0);
    vec![
        ("workload", r.opts.workload.name().to_string()),
        ("seed", r.opts.seed.to_string()),
        ("trace", r.opts.trace.to_string()),
        ("scale_factor", r.sf.to_string()),
        ("budget", format!("{:?}", r.opts.budget)),
        ("nproc", nproc().to_string()),
        (
            "simd_arm",
            vectorh_common::simd::simd_mode().name().to_string(),
        ),
        ("backend", "file".to_string()),
        (
            "cluster",
            format!(
                "{} nodes, {} partitions, {} rows/chunk, {} streams/node, in-process",
                rig.nodes,
                crate::rig::PARTITIONS,
                rig.rows_per_chunk,
                rig.streams_per_node
            ),
        ),
        ("git_commit", git_commit()),
        ("rounds", r.rounds.to_string()),
        (
            "samples",
            r.kinds.iter().map(|k| k.samples).sum::<usize>().to_string(),
        ),
        ("setup_samples_s", format!("{:?}", r.setup_samples_s)),
        ("measured_s", format!("{:.3}", r.measured_s)),
        ("total_s", format!("{:.3}", r.total_s)),
        (
            "generator_idle_share",
            format!("{:.4}", r.generator_idle_share),
        ),
    ]
}

/// The report for a person.
pub fn human(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {} ==", r.opts.workload.name());
    for (k, v) in metadata(r) {
        let _ = writeln!(s, "  {k:<22} {v}");
    }
    let _ = writeln!(
        s,
        "\n  statement kind    n       q1 ms   median ms       q3 ms"
    );
    for k in &r.kinds {
        let _ = writeln!(
            s,
            "  {:<14} {:>5} {:>11.3} {:>11.3} {:>11.3}",
            k.kind, k.samples, k.q1_ms, k.median_ms, k.q3_ms
        );
    }
    let _ = writeln!(
        s,
        "\n  metric                                      value  unit"
    );
    for m in &r.metrics {
        let _ = writeln!(s, "  {:<36} {:>14.4}  {}", m.name, m.value, m.unit);
    }
    if r.opts.trace {
        s.push_str(&budget_table(r));
        s.push_str(&ladder(r));
    }
    let _ = writeln!(
        s,
        "\n  attempted {}  failed {}  ({} distinct wrong, {} unstable)",
        r.attempted,
        r.failed,
        r.wrong.len(),
        r.unstable.len()
    );
    for e in r.errors.iter().chain(&r.wrong).chain(&r.unstable) {
        let _ = writeln!(s, "  ! {e}");
    }
    s
}

/// Per statement kind: `query()` median = parse + rewrite + execute +
/// unattributed, and the span self times of the whole run.
fn budget_table(r: &RunReport) -> String {
    let mut s = String::from(
        "\n  budget (median ms)  query() =     parse +   rewrite +   execute + unattributed  (share)\n",
    );
    let med = |v: &Vec<f64>| stats::median(v).unwrap_or(0.0);
    for (kind, st) in &r.stages {
        let (plain, parse, rewrite, execute) = (
            med(&st.plain_ms),
            med(&st.parse_ms),
            med(&st.rewrite_ms),
            med(&st.execute_ms),
        );
        let rest = plain - parse - rewrite - execute;
        let _ = writeln!(
            s,
            "  {kind:<14} {plain:>12.3} {parse:>11.3} {rewrite:>11.3} {execute:>11.3} {rest:>12.3}  ({:>5.1} %)",
            if plain > 0.0 { rest / plain * 100.0 } else { 0.0 }
        );
    }
    s.push_str("\n  span                                               total ms      self ms\n");
    for (name, (total, own)) in self_times(&r.spans) {
        let _ = writeln!(
            s,
            "  {name:<34} {:>24.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    s
}

/// The scan ladder on one screen: where the rows per second go.
fn ladder(r: &RunReport) -> String {
    let get = |name: &str| r.metric(name).unwrap_or(0.0);
    let q6_ms = get("core.q06_ms");
    let lineitem_rows = r.sf * 6_000_000.0;
    let mut s = String::from("\n  scan ladder (lineitem, Q6's columns)\n");
    let _ = writeln!(
        s,
        "    blockstore.read_mb_per_s.file    {:>14.1} MB/s",
        get("blockstore.read_mb_per_s.file")
    );
    let _ = writeln!(
        s,
        "    storage.read_columns_rows_per_s  {:>14.0} rows/s",
        get("storage.read_columns_rows_per_s")
    );
    let _ = writeln!(
        s,
        "    exec.mscan_rows_per_s            {:>14.0} rows/s",
        get("exec.mscan_rows_per_s")
    );
    match q6_ms > 0.0 {
        true => {
            let _ = writeln!(s, "    Q6 through VectorH::query        {:>14.0} rows/s (about {lineitem_rows:.0} rows in {q6_ms:.1} ms)", lineitem_rows / (q6_ms / 1e3));
        }
        false => s.push_str(
            "    Q6 through VectorH::query                   n/a (this workload does not run Q6)\n",
        ),
    }
    s
}

/// The `--out` file: metadata and metrics as one JSON object.
pub fn out_json(r: &RunReport) -> String {
    let meta: Vec<String> = metadata(r)
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!(
        "{{\"meta\": {{{}}}, \"result\": {}}}\n",
        meta.join(", "),
        result_line(r)
    )
}

/// One row of the A/A table: a metric's value in three runs.
pub struct AaRow {
    pub workload: &'static str,
    pub metric: &'static str,
    /// Same seed twice, then a second seed.
    pub values: [f64; 3],
    pub bound: f64,
    /// Worst relative worsening of run 2 or 3 against run 1.
    pub worst: f64,
}

impl AaRow {
    pub fn within_bound(&self) -> bool {
        self.worst <= self.bound
    }
}

/// Compare three untraced runs of one workload metric by metric.
pub fn aa_rows(runs: &[RunReport; 3]) -> Vec<AaRow> {
    END_TO_END
        .iter()
        .map(|m| {
            let values = [0, 1, 2].map(|i| runs[i].metric(m.name).unwrap_or(0.0));
            let worse = |v: f64| match m.better {
                Better::Lower => (v - values[0]) / values[0].abs().max(1e-12),
                Better::Higher => (values[0] - v) / values[0].abs().max(1e-12),
            };
            AaRow {
                workload: runs[0].opts.workload.name(),
                metric: m.name,
                values,
                bound: m.bound,
                worst: worse(values[1]).max(worse(values[2])).max(0.0),
            }
        })
        .collect()
}

pub fn aa_table(rows: &[AaRow]) -> String {
    let mut s = format!(
        "{:<15} {:<28} {:>12} {:>18} {:>12} {:>7} {:>7}\n",
        "workload", "metric", "seed A", "seed A again", "seed B", "worst", "bound"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<15} {:<28} {:>12.4} {:>18.4} {:>12.4} {:>6.1}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.values[0],
            r.values[1],
            r.values[2],
            r.worst * 100.0,
            r.bound * 100.0,
            if r.within_bound() {
                ""
            } else {
                "  <-- outside its bound"
            }
        );
    }
    s
}

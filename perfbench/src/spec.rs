//! What the benchmark declares: its workloads and every metric by name.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! bounds below for the driver; `tests/schema.rs` keeps the two equal. The
//! `moves` column is this file's alone: for each layer metric, the
//! end-to-end metric and workload it is expected to move.

use crate::rig::Shape;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    TpchPower,
    ScanQ1Q6,
    HtapTrickle,
    FrontdoorMix,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::TpchPower,
    Workload::ScanQ1Q6,
    Workload::HtapTrickle,
    Workload::FrontdoorMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchPower => "tpch_power",
            Workload::ScanQ1Q6 => "scan_q1q6",
            Workload::HtapTrickle => "htap_trickle",
            Workload::FrontdoorMix => "frontdoor_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Scale factors are sized so that three set-ups, warm-up and the
    /// baseline check add under 10 s to the timed run on a 2-core box.
    pub fn shape(self) -> Shape {
        match self {
            Workload::TpchPower => Shape {
                sf: 0.02,
                propagate_every: 0,
                serve: false,
            },
            Workload::ScanQ1Q6 => Shape {
                sf: 0.03,
                propagate_every: 0,
                serve: false,
            },
            Workload::HtapTrickle => Shape {
                sf: 0.02,
                propagate_every: 8,
                serve: false,
            },
            Workload::FrontdoorMix => Shape {
                sf: 0.02,
                propagate_every: 0,
                serve: true,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these. Run-to-run spread (quartile
/// distance over median, ten seeds) on the 2-core box: 3-9 % for the
/// timings in a quiet stretch and 14-16 % while the box slows down, 2-9 %
/// for the resident set, 1-2 % for `htap_trickle`'s write amplification, 0 for
/// the other byte ratios. The box drifts by a quarter within minutes, so
/// the timings take the widest bound the driver allows.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_geomean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "written_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` this layer metric should move.
    pub moves: (&'static str, &'static str),
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    metric: &'static str,
    workload: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: (metric, workload),
    }
}

const GEO: &str = "stmt_geomean_ms";
const QPS: &str = "stmts_per_s";
const SETUP: &str = "setup_s";
const STORED: &str = "stored_bytes_per_user_byte";
const WRITTEN: &str = "written_bytes_per_user_byte";
const TPCH: &str = "tpch_power";
const SCAN: &str = "scan_q1q6";
const HTAP: &str = "htap_trickle";
const DOOR: &str = "frontdoor_mix";

/// Layers are the workspace crates; names are `<crate>.<metric>`. A traced
/// run of any workload reports every one (0 where the workload never
/// enters the layer).
pub const PER_LAYER: &[PerLayer] = &[
    // Staged from outside on the query path: parse -> optimize -> run_physical_public.
    layer("planner.parse_ms", "ms", Lower, GEO, DOOR),
    layer("planner.rewrite_ms", "ms", Lower, GEO, DOOR),
    layer("core.execute_ms", "ms", Lower, QPS, TPCH),
    layer("core.unattributed_ms", "ms", Lower, QPS, TPCH),
    layer("core.pipelines", "count", Lower, QPS, DOOR),
    layer("core.result_rows", "count", Lower, GEO, DOOR),
    layer("core.q01_ms", "ms", Lower, GEO, SCAN),
    layer("core.q02_ms", "ms", Lower, GEO, TPCH),
    layer("core.q03_ms", "ms", Lower, GEO, TPCH),
    layer("core.q04_ms", "ms", Lower, GEO, TPCH),
    layer("core.q05_ms", "ms", Lower, GEO, TPCH),
    layer("core.q06_ms", "ms", Lower, GEO, SCAN),
    layer("core.q07_ms", "ms", Lower, GEO, TPCH),
    layer("core.q08_ms", "ms", Lower, GEO, TPCH),
    layer("core.q09_ms", "ms", Lower, QPS, TPCH),
    layer("core.q10_ms", "ms", Lower, GEO, TPCH),
    layer("core.q11_ms", "ms", Lower, GEO, TPCH),
    layer("core.q12_ms", "ms", Lower, GEO, TPCH),
    layer("core.q13_ms", "ms", Lower, GEO, TPCH),
    layer("core.q14_ms", "ms", Lower, GEO, TPCH),
    layer("core.q15_ms", "ms", Lower, GEO, TPCH),
    layer("core.q16_ms", "ms", Lower, GEO, TPCH),
    layer("core.q17_ms", "ms", Lower, GEO, TPCH),
    layer("core.q18_ms", "ms", Lower, QPS, TPCH),
    layer("core.q19_ms", "ms", Lower, GEO, TPCH),
    layer("core.q20_ms", "ms", Lower, GEO, TPCH),
    layer("core.q21_ms", "ms", Lower, QPS, TPCH),
    layer("core.q22_ms", "ms", Lower, GEO, TPCH),
    // Self time and rows summed over pipelines, from the returned profile.
    layer("exec.mscan_thread_ms", "ms", Lower, GEO, SCAN),
    layer("exec.select_thread_ms", "ms", Lower, GEO, SCAN),
    layer("exec.project_thread_ms", "ms", Lower, GEO, SCAN),
    layer("exec.join_thread_ms", "ms", Lower, QPS, TPCH),
    layer("exec.aggr_thread_ms", "ms", Lower, QPS, TPCH),
    layer("exec.sort_thread_ms", "ms", Lower, QPS, TPCH),
    layer("exec.exchange_thread_ms", "ms", Lower, QPS, TPCH),
    layer("exec.mscan_rows", "count", Lower, GEO, SCAN),
    layer(
        "exec.rows_examined_per_result_row",
        "ratio",
        Lower,
        GEO,
        SCAN,
    ),
    // Isolated: the runner drives the crate's public function on the loaded data.
    layer("exec.mscan_rows_per_s", "1/s", Higher, GEO, SCAN),
    layer("exec.mscan_merge_rows_per_s", "1/s", Higher, GEO, HTAP),
    layer("exec.hash_build_rows_per_s", "1/s", Higher, QPS, TPCH),
    layer("exec.hash_probe_rows_per_s", "1/s", Higher, QPS, TPCH),
    layer("exec.filter_values_per_s", "1/s", Higher, GEO, SCAN),
    layer("storage.read_columns_rows_per_s", "1/s", Higher, GEO, SCAN),
    layer("storage.chunks_pruned_fraction", "ratio", Higher, GEO, SCAN),
    layer(
        "storage.chunks_pruned_fraction_dirty",
        "ratio",
        Higher,
        GEO,
        HTAP,
    ),
    layer("storage.append_rows_per_s", "1/s", Higher, SETUP, SCAN),
    layer("storage.bytes_per_row", "B", Lower, STORED, TPCH),
    layer("compress.decode_values_per_s", "1/s", Higher, GEO, SCAN),
    layer("compress.encode_values_per_s", "1/s", Higher, SETUP, SCAN),
    layer("compress.unpack_values_per_s", "1/s", Higher, GEO, SCAN),
    layer("compress.ratio", "ratio", Higher, STORED, TPCH),
    layer("blockstore.read_mb_per_s.file", "MB/s", Higher, GEO, SCAN),
    layer("blockstore.read_mb_per_s.sim", "MB/s", Higher, GEO, SCAN),
    layer("blockstore.append_mb_per_s.file", "MB/s", Higher, GEO, HTAP),
    layer("blockstore.read_bytes_per_query", "B", Lower, GEO, SCAN),
    layer("blockstore.read_ops_per_query", "count", Lower, GEO, SCAN),
    layer("blockstore.local_read_fraction", "ratio", Higher, GEO, SCAN),
    layer("blockstore.fsync_ops", "count", Lower, GEO, HTAP),
    layer("pdt.insert_ops_per_s", "1/s", Higher, GEO, HTAP),
    layer("pdt.delete_ops_per_s", "1/s", Higher, GEO, HTAP),
    layer("pdt.merge_plan_us", "us", Lower, GEO, HTAP),
    layer("pdt.pending_deltas", "count", Lower, GEO, HTAP),
    layer("txn.trickle_insert_ms", "ms", Lower, GEO, HTAP),
    layer("txn.delete_ms", "ms", Lower, GEO, HTAP),
    layer("txn.update_ms", "ms", Lower, GEO, HTAP),
    layer("txn.update_p90_ms", "ms", Lower, QPS, HTAP),
    layer("txn.propagate_ms", "ms", Lower, QPS, HTAP),
    layer("txn.wal_bytes_per_user_byte", "ratio", Lower, WRITTEN, HTAP),
    layer("txn.propagation_runs", "count", Lower, WRITTEN, HTAP),
    layer("txn.chunks_rewritten", "count", Lower, WRITTEN, HTAP),
    layer("txn.chunks_kept", "count", Higher, WRITTEN, HTAP),
    layer("net.bytes_per_query", "B", Lower, QPS, TPCH),
    layer("net.messages_per_query", "count", Lower, QPS, TPCH),
    layer("net.intra_messages_per_query", "count", Lower, QPS, TPCH),
    layer("net.credit_stalls", "count", Lower, QPS, TPCH),
    layer("net.dxchg_rows_per_s", "1/s", Higher, QPS, TPCH),
    // No workload runs ClusterMode::Tcp yet; recorded so the gap is visible.
    layer("transport.tcp_frame_mb_per_s", "MB/s", Higher, QPS, TPCH),
    layer("server.queue_wait_ms", "ms", Lower, QPS, DOOR),
    layer("server.rejected_busy", "count", Lower, QPS, DOOR),
    layer("server.retries_absorbed", "count", Lower, QPS, DOOR),
    layer("server.overhead_ms", "ms", Lower, GEO, DOOR),
    layer("server.first_row_ms", "ms", Lower, GEO, DOOR),
    layer("server.prepare_saved_ms", "ms", Higher, GEO, DOOR),
    layer("server.wire_encode_mb_per_s", "MB/s", Higher, GEO, DOOR),
    layer("server.wire_decode_mb_per_s", "MB/s", Higher, GEO, DOOR),
    layer("server.large_result_rows_per_s", "1/s", Higher, QPS, DOOR),
    layer("yarn.assign_ms", "ms", Lower, SETUP, TPCH),
    layer("tpch.datagen_s", "s", Lower, SETUP, SCAN),
    layer("bench.trace_overhead_pct", "%", Lower, GEO, TPCH),
    // The tail of the statements a user issued. Not an end-to-end metric:
    // on a shared box its quartiles sit 20-30 % of the median apart
    // (`scan_q1q6`, `htap_trickle`), past any bound the contract allows. A
    // stall it catches also costs `stmts_per_s`, which is bounded.
    layer("bench.stmt_p90_ms", "ms", Lower, QPS, HTAP),
];

/// `q07` for TPC-H query 7: the statement kind and the `core.qNN_ms` stem.
pub fn tpch_kind(n: usize) -> String {
    format!("q{n:02}")
}

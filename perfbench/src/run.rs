//! One run of one workload: set up, warm up, measure, check, report.

use std::collections::BTreeMap;
use std::time::Instant;

use vectorh_tpch::baseline::BaselineDb;

use crate::check::{baseline_answer, AnswerBook};
use crate::measure::{sum_of_medians, Recorder, Stages};
use crate::profile::OP_CLASSES;
use crate::rig::{self, Rig, Shape};
use crate::spec::{tpch_kind, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Span;
use crate::workloads::{self, Budget, Env, Outcome};

/// Untraced runs set up this many times and report the median.
pub const SETUPS: usize = 3;
const DML_KINDS: [&str; 3] = ["insert", "delete", "update"];

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Scale factor, if not the workload's own (tests run tiny).
    pub sf: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per statement kind: samples, median and quartiles of its latency.
#[derive(Debug, Clone)]
pub struct KindRow {
    pub kind: String,
    pub samples: usize,
    pub q1_ms: f64,
    pub median_ms: f64,
    pub q3_ms: f64,
}

pub struct RunReport {
    pub opts: RunOpts,
    pub sf: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the declared metrics of the run's mode, in declared order.
    pub metrics: Vec<Metric>,
    pub kinds: Vec<KindRow>,
    /// Stage samples per kind (traced runs), for the reconciliation table.
    pub stages: BTreeMap<String, Stages>,
    pub spans: Vec<Span>,
    /// Hash of the statement and update stream the run issued.
    pub sequence: u64,
    pub errors: Vec<String>,
    pub wrong: Vec<String>,
    pub unstable: Vec<String>,
    pub rounds: usize,
    /// Wall time of the measured loop and of the whole run.
    pub measured_s: f64,
    pub total_s: f64,
    pub setup_samples_s: Vec<f64>,
    /// Share of the measured loop the generator spent between an answer
    /// and the next send (think time is zero by construction).
    pub generator_idle_share: f64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The declared layer metric called `name`.
fn layer_name(name: &str) -> crate::Result<&'static str> {
    PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.name)
        .ok_or_else(|| crate::BenchError(format!("layer metric {name} is not declared")))
}

fn median_or_zero(xs: Option<&Vec<f64>>) -> f64 {
    xs.and_then(|v| stats::median(v).ok()).unwrap_or(0.0)
}

fn end_to_end(
    rig: &Rig,
    rec: &Recorder,
    out: &Outcome,
    setups: &[f64],
) -> crate::Result<BTreeMap<&'static str, f64>> {
    let medians: Vec<f64> = rec.kind_medians()?.into_values().collect();
    let live = out.live_user_bytes.unwrap_or(rig.loaded_user_bytes);
    let write_amp = out
        .write_amp
        .unwrap_or(rig.load_io.write_bytes as f64 / rig.loaded_user_bytes.max(1) as f64);
    Ok(BTreeMap::from([
        ("setup_s", stats::median(setups)?),
        ("stmt_geomean_ms", stats::geomean(&medians)?),
        ("stmts_per_s", rec.samples() as f64 / out.wall_s),
        (
            "peak_rss_mb",
            rig::peak_rss_mb().ok_or_else(|| crate::BenchError("no VmHWM in /proc".into()))?,
        ),
        (
            "stored_bytes_per_user_byte",
            rig.stored_bytes()? as f64 / live.max(1) as f64,
        ),
        ("written_bytes_per_user_byte", write_amp),
    ]))
}

fn per_layer(
    rig: &Rig,
    rec: &Recorder,
    out: &Outcome,
) -> crate::Result<BTreeMap<&'static str, f64>> {
    let st = &rec.stages;
    let mut m = crate::layers::isolated(rig)?;
    m.extend(out.layer.clone());

    let plain = sum_of_medians(st, |s| s.plain_ms.clone());
    let parse = sum_of_medians(st, |s| s.parse_ms.clone());
    let rewrite = sum_of_medians(st, |s| s.rewrite_ms.clone());
    let execute = sum_of_medians(st, |s| s.execute_ms.clone());
    let staged = sum_of_medians(st, |s| s.statement_ms.clone());
    m.insert("planner.parse_ms", parse);
    m.insert("planner.rewrite_ms", rewrite);
    m.insert("core.execute_ms", execute);
    m.insert("core.unattributed_ms", plain - parse - rewrite - execute);
    m.insert(
        "bench.trace_overhead_pct",
        if plain > 0.0 {
            (staged - plain) / plain * 100.0
        } else {
            0.0
        },
    );
    m.insert(
        "core.pipelines",
        sum_of_medians(st, |s| {
            s.profiles.iter().map(|p| p.pipelines as f64).collect()
        }),
    );
    let result_rows = sum_of_medians(st, |s| s.result_rows.clone());
    m.insert("core.result_rows", result_rows);
    for q in 1..=vectorh_tpch::N_QUERIES {
        let kind = tpch_kind(q);
        m.insert(
            layer_name(&format!("core.{kind}_ms"))?,
            median_or_zero(st.get(&kind).map(|s| &s.plain_ms)),
        );
    }
    for (class, name) in OP_CLASSES {
        m.insert(
            layer_name(&format!("exec.{name}_thread_ms"))?,
            sum_of_medians(st, |s| {
                s.profiles
                    .iter()
                    .map(|p| p.self_ms[class as usize])
                    .collect()
            }),
        );
    }
    let examined = sum_of_medians(st, |s| {
        s.profiles.iter().map(|p| p.mscan_rows as f64).collect()
    });
    m.insert("exec.mscan_rows", examined);
    m.insert(
        "exec.rows_examined_per_result_row",
        examined / result_rows.max(1.0),
    );

    let per_query = |n: u64| n as f64 / out.queries.max(1) as f64;
    let io = &out.counters.io;
    m.insert(
        "blockstore.read_bytes_per_query",
        per_query(io.read_bytes()),
    );
    m.insert(
        "blockstore.read_ops_per_query",
        per_query(io.local_read_ops + io.remote_read_ops),
    );
    m.insert("blockstore.local_read_fraction", io.locality());
    m.insert("blockstore.fsync_ops", io.fsync_ops as f64);
    let net = &out.counters.net;
    m.insert("net.bytes_per_query", per_query(net.net_bytes));
    m.insert("net.messages_per_query", per_query(net.net_messages));
    m.insert(
        "net.intra_messages_per_query",
        per_query(net.intra_messages),
    );
    let stalls: u64 = rig
        .vh
        .net_channels()
        .iter()
        .map(|(_, c)| c.credit_stalls)
        .sum();
    m.insert("net.credit_stalls", stalls as f64);

    m.insert(
        "txn.trickle_insert_ms",
        median_or_zero(rec.lat_ms.get("insert")),
    );
    m.insert("txn.delete_ms", median_or_zero(rec.lat_ms.get("delete")));
    m.insert("txn.update_ms", median_or_zero(rec.lat_ms.get("update")));
    let dml: Vec<f64> = DML_KINDS
        .iter()
        .filter_map(|k| rec.lat_ms.get(*k))
        .flatten()
        .copied()
        .collect();
    // Fewer than 100 samples support no p90; the metric then reads 0.
    m.insert(
        "txn.update_p90_ms",
        stats::percentile(&dml, 90.0).unwrap_or(0.0),
    );
    m.insert(
        "bench.stmt_p90_ms",
        stats::percentile(&rec.all_latencies(), 90.0).unwrap_or(0.0),
    );
    let prop = &out.counters.prop;
    m.insert("txn.propagation_runs", prop.propagation_runs as f64);
    m.insert("txn.chunks_rewritten", prop.chunks_rewritten as f64);
    m.insert("txn.chunks_kept", prop.chunks_kept as f64);

    let served = &out.counters.server;
    m.insert(
        "server.queue_wait_ms",
        served.queue_wait_us as f64 / 1e3 / served.queries_served.max(1) as f64,
    );
    m.insert("server.rejected_busy", served.rejected_busy as f64);
    m.insert("server.retries_absorbed", served.retries_absorbed as f64);
    m.insert("yarn.assign_ms", rig.times.assign_s * 1e3);
    m.insert("tpch.datagen_s", rig.times.datagen_s);
    Ok(m)
}

/// Put computed values in declared order; a computed name nobody declared
/// is a bug in this crate, and a declared one nobody computed reads 0
/// (the workload never enters that layer).
fn declared(
    mut computed: BTreeMap<&'static str, f64>,
    names: impl Iterator<Item = (&'static str, &'static str)>,
) -> crate::Result<Vec<Metric>> {
    let metrics = names
        .map(|(name, unit)| Metric {
            name,
            value: computed.remove(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    match computed.keys().next() {
        Some(stray) => Err(crate::BenchError(format!("metric {stray} is not declared"))),
        None => Ok(metrics),
    }
}

pub fn run(opts: RunOpts) -> crate::Result<RunReport> {
    let t_run = Instant::now();
    let shape = Shape {
        sf: opts.sf.unwrap_or(opts.workload.shape().sf),
        ..opts.workload.shape()
    };
    // The traced run reports no set-up time, so it sets up once.
    let mut setups = Vec::new();
    let mut rig = rig::setup(shape)?;
    setups.push(rig.times.total_s);
    while !opts.trace && setups.len() < SETUPS {
        drop(rig);
        rig = rig::setup(shape)?;
        setups.push(rig.times.total_s);
    }
    let data = rig::generate(shape.sf);

    let mut rec = Recorder::new(opts.trace, Instant::now());
    let mut book = AnswerBook::default();
    let mut env = Env {
        rig: &rig,
        data: &data,
        seed: opts.seed,
        budget: opts.budget,
        rec: &mut rec,
        book: &mut book,
    };
    let out = match opts.workload {
        Workload::TpchPower => workloads::tpch_power::run(&mut env),
        Workload::ScanQ1Q6 => workloads::scan_q1q6::run(&mut env),
        Workload::HtapTrickle => workloads::htap_trickle::run(&mut env),
        Workload::FrontdoorMix => workloads::frontdoor_mix::run(&mut env),
    }?;
    let generator_idle_share = rec.idle_s / (out.wall_s * workers(opts.workload)).max(1e-9);

    // Read-only workloads: every distinct statement's first answer against
    // the baseline engine on the same data. `htap_trickle` has checked its
    // own end state against its model.
    if opts.workload != Workload::HtapTrickle {
        let db = BaselineDb::load(&data)?;
        book.verify(|sql| baseline_answer(&db, &rig.vh.parse(sql)?))?;
    }
    drop(data);

    let metrics = match opts.trace {
        false => declared(
            end_to_end(&rig, &rec, &out, &setups)?,
            END_TO_END.iter().map(|m| (m.name, m.unit)),
        )?,
        true => declared(
            per_layer(&rig, &rec, &out)?,
            PER_LAYER.iter().map(|m| (m.name, m.unit)),
        )?,
    };
    let mut kinds = Vec::new();
    for (kind, v) in &rec.lat_ms {
        let (q1_ms, median_ms, q3_ms) = stats::quartiles(v)?;
        kinds.push(KindRow {
            kind: kind.clone(),
            samples: v.len(),
            q1_ms,
            median_ms,
            q3_ms,
        });
    }
    Ok(RunReport {
        opts,
        sf: shape.sf,
        attempted: rec.attempted.max(1),
        failed: rec.failed + book.failures(),
        metrics,
        kinds,
        sequence: rec.sequence(),
        errors: rec.errors.clone(),
        wrong: book.wrong.clone(),
        unstable: book.unstable.clone(),
        rounds: out.rounds,
        measured_s: out.wall_s,
        total_s: t_run.elapsed().as_secs_f64(),
        setup_samples_s: setups,
        generator_idle_share,
        spans: rec.tracer.spans().to_vec(),
        stages: rec.stages,
    })
}

/// Client threads of a workload.
fn workers(w: Workload) -> f64 {
    match w {
        Workload::FrontdoorMix => workloads::frontdoor_mix::CLIENTS as f64,
        _ => 1.0,
    }
}

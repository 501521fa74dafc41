//! The four workloads. All are closed loops: a session waits for its
//! answer before it sends its next statement.

pub mod frontdoor_mix;
pub mod htap_trickle;
pub mod scan_q1q6;
pub mod tpch_power;

use std::collections::BTreeMap;
use std::time::Instant;

use vectorh::VectorH;
use vectorh_blockstore::IoSnapshot;
use vectorh_net::stats::NetSnapshot;
use vectorh_net::{PropagationSnapshot, SessionCounters};
use vectorh_tpch::TpchData;

use crate::check::AnswerBook;
use crate::measure::Recorder;
use crate::rig::Rig;

/// How long the measured loop runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed (the benchmark),
    /// and until the workload's floor of rounds is reached: a slow box
    /// runs longer, it does not report medians of too few samples.
    Seconds(f64),
    /// Exactly this many rounds (tests: the work must not depend on speed).
    Rounds(usize),
}

/// Counts rounds against a [`Budget`].
pub struct Pacer {
    budget: Budget,
    min_rounds: usize,
    start: Instant,
    pub rounds: usize,
}

impl Pacer {
    pub fn start(budget: Budget, min_rounds: usize) -> Pacer {
        Pacer {
            budget,
            min_rounds,
            start: Instant::now(),
            rounds: 0,
        }
    }

    /// True while another round should run; counts the round it admits.
    pub fn another(&mut self) -> bool {
        let go = match self.budget {
            Budget::Seconds(s) => {
                self.rounds < self.min_rounds || self.start.elapsed().as_secs_f64() < s
            }
            Budget::Rounds(n) => self.rounds < n,
        };
        self.rounds += go as usize;
        go
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// The public stats snapshots of an engine at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub io: IoSnapshot,
    pub net: NetSnapshot,
    pub prop: PropagationSnapshot,
    pub server: SessionCounters,
}

impl Probe {
    pub fn take(vh: &VectorH) -> Probe {
        Probe {
            io: vh.fs().stats().snapshot(),
            net: vh.net_stats().snapshot(),
            prop: vh.propagation_stats().snapshot(),
            server: vh.server_stats().totals(),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Probe) -> Probe {
        Probe {
            io: self.io.since(&earlier.io),
            net: NetSnapshot {
                net_messages: self.net.net_messages - earlier.net.net_messages,
                net_bytes: self.net.net_bytes - earlier.net.net_bytes,
                intra_messages: self.net.intra_messages - earlier.net.intra_messages,
                rows: self.net.rows - earlier.net.rows,
                ..self.net
            },
            prop: PropagationSnapshot {
                propagation_runs: self.prop.propagation_runs - earlier.prop.propagation_runs,
                tail_appends: self.prop.tail_appends - earlier.prop.tail_appends,
                chunks_kept: self.prop.chunks_kept - earlier.prop.chunks_kept,
                chunks_rewritten: self.prop.chunks_rewritten - earlier.prop.chunks_rewritten,
                crashes_recovered: self.prop.crashes_recovered - earlier.prop.crashes_recovered,
            },
            server: SessionCounters {
                queries_served: self.server.queries_served - earlier.server.queries_served,
                retries_absorbed: self.server.retries_absorbed - earlier.server.retries_absorbed,
                queue_wait_us: self.server.queue_wait_us - earlier.server.queue_wait_us,
                rejected_busy: self.server.rejected_busy - earlier.server.rejected_busy,
            },
        }
    }
}

/// What a workload is handed.
pub struct Env<'a> {
    pub rig: &'a Rig,
    /// The data the rig loaded (same generator, same seed), for literals
    /// and for the checks.
    pub data: &'a TpchData,
    pub seed: u64,
    pub budget: Budget,
    pub rec: &'a mut Recorder,
    pub book: &'a mut AnswerBook,
}

/// What a workload hands back besides the recorder's samples.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of the measured loop (warm-up and checks excluded).
    pub wall_s: f64,
    pub rounds: usize,
    /// Engine counters accumulated over the measured loop, and the query
    /// executions they cover.
    pub counters: Probe,
    pub queries: u64,
    /// Bytes written to the block store per user byte that caused them.
    /// `None` = the load was the run's only write phase.
    pub write_amp: Option<f64>,
    /// Raw bytes of the rows alive at the end. `None` = as loaded.
    pub live_user_bytes: Option<u64>,
    /// Layer metrics only this workload can measure.
    pub layer: BTreeMap<&'static str, f64>,
}

/// The floor of rounds where a round times each statement kind once: no
/// kind's median rests on fewer samples.
pub const MIN_ROUNDS: usize = 5;

/// Bracket a measured loop: counters before, `body`, counters after.
pub fn measured(
    env: &mut Env,
    min_rounds: usize,
    body: impl FnOnce(&mut Env, &mut Pacer) -> crate::Result<()>,
) -> crate::Result<Outcome> {
    let before = Probe::take(&env.rig.vh);
    let queries_before = env.rec.queries_run;
    // The floor serves the end-to-end medians; a traced run runs every
    // query twice, so it keeps to the clock.
    let min_rounds = if env.rec.tracing() { 1 } else { min_rounds };
    let mut pacer = Pacer::start(env.budget, min_rounds);
    body(env, &mut pacer)?;
    let wall_s = pacer.elapsed_s();
    Ok(Outcome {
        wall_s,
        rounds: pacer.rounds,
        counters: Probe::take(&env.rig.vh).since(&before),
        queries: env.rec.queries_run - queries_before,
        write_amp: None,
        live_user_bytes: None,
        layer: BTreeMap::new(),
    })
}

/// The SQL text of TPC-H query `n`.
pub fn tpch_sql(n: usize) -> crate::Result<&'static str> {
    vectorh_tpch::sql_text(n).ok_or_else(|| crate::BenchError(format!("no SQL text for Q{n}")))
}

/// Run one query in process and file its answer.
pub fn ask(env: &mut Env, kind: &str, key: &str, sql: &str) {
    if let Some(rows) = env.rec.query(&env.rig.vh, kind, sql) {
        env.book.record(key, sql, rows);
    }
}

//! Timing of statements, the way a user issues them and, in a traced run,
//! stage by stage.
//!
//! One [`Recorder`] belongs to one client (one thread). It times each
//! operation from outside, keeps the samples by statement kind, counts
//! attempts and failures, and folds every statement it issues into a
//! sequence hash so two runs can be shown to have issued the same stream.

use std::collections::BTreeMap;
use std::time::Instant;

use vectorh::VectorH;
use vectorh_common::Value;

use crate::profile::{summarize, ProfileSums};
use crate::stats;
use crate::trace::Tracer;

/// Stage samples of one statement kind, from the traced run.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    /// The same statements through `VectorH::query`, for reconciliation.
    pub plain_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub rewrite_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    /// The whole staged statement, span recording included.
    pub statement_ms: Vec<f64>,
    pub profiles: Vec<ProfileSums>,
    pub result_rows: Vec<f64>,
}

pub struct Recorder {
    pub tracer: Tracer,
    trace: bool,
    /// Latency samples by statement kind, milliseconds, in issue order.
    pub lat_ms: BTreeMap<String, Vec<f64>>,
    pub stages: BTreeMap<String, Stages>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few error messages, for the report.
    pub errors: Vec<String>,
    sequence: u64,
    next_stmt: u64,
    last_end: Option<Instant>,
    /// Time the generator spent between one answer and the next send.
    pub idle_s: f64,
    /// Named samples a workload keeps beside the latencies.
    pub extra: BTreeMap<&'static str, Vec<f64>>,
    /// Query executions so far, to put engine counters on a per-query base.
    pub queries_run: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

impl Recorder {
    pub fn new(trace: bool, epoch: Instant) -> Recorder {
        Recorder {
            tracer: Tracer::new(trace, epoch),
            trace,
            lat_ms: BTreeMap::new(),
            stages: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            sequence: FNV_OFFSET,
            next_stmt: 1,
            last_end: None,
            idle_s: 0.0,
            extra: BTreeMap::new(),
            queries_run: 0,
        }
    }

    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Fold one issued statement (or update) into the sequence hash.
    pub fn note(&mut self, what: &str) {
        for b in what.bytes().chain([0xFF]) {
            self.sequence ^= b as u64;
            self.sequence = self.sequence.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Statement ids start above `base`, so two clients' ids never meet.
    pub fn set_stmt_base(&mut self, base: u64) {
        self.next_stmt = base + 1;
    }

    pub fn next_stmt_id(&mut self) -> u64 {
        self.next_stmt += 1;
        self.next_stmt - 1
    }

    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {err}"));
        }
    }

    /// Forget the samples so far (the end of warm-up). Counts of attempts
    /// and failures, and the sequence hash, keep running.
    pub fn reset_samples(&mut self) {
        self.lat_ms.clear();
        self.stages.clear();
        self.extra.clear();
        self.last_end = None;
        self.idle_s = 0.0;
    }

    /// The generator did work of its own since the last answer (not a
    /// statement, not waiting): the idle clock starts again from now.
    pub fn busy_until_now(&mut self) {
        self.last_end = Some(Instant::now());
    }

    /// Time one operation of kind `kind` inside a span named `span`.
    /// A failed operation is counted and contributes no sample.
    pub fn timed<T, E: std::fmt::Display>(
        &mut self,
        kind: &str,
        span: &str,
        stmt_id: u64,
        f: impl FnOnce(&mut Tracer) -> std::result::Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        let start = Instant::now();
        if let Some(prev) = self.last_end {
            self.idle_s += start.duration_since(prev).as_secs_f64();
        }
        let out = self.tracer.span(span, stmt_id, f);
        let took = ms(start);
        self.last_end = Some(Instant::now());
        match out {
            Ok(v) => {
                self.lat_ms.entry(kind.to_string()).or_default().push(took);
                Some(v)
            }
            Err(e) => {
                self.fail(kind, e);
                None
            }
        }
    }

    /// Run one query in process. Always once through `VectorH::query`, the
    /// way a user would; in a traced run once more stage by stage, with a
    /// span around each public call on the query path.
    pub fn query(&mut self, vh: &VectorH, kind: &str, sql: &str) -> Option<Vec<Vec<Value>>> {
        self.note(sql);
        let id = self.next_stmt_id();
        let t = Instant::now();
        let rows = self.timed(kind, "statement.plain", id, |_| vh.query(sql))?;
        let plain = ms(t);
        self.queries_run += 1;
        if self.trace {
            match self.staged(vh, kind, sql, id) {
                Ok(()) => self
                    .stages
                    .entry(kind.to_string())
                    .or_default()
                    .plain_ms
                    .push(plain),
                Err(e) => self.fail(kind, e),
            }
            self.queries_run += 1;
        }
        Some(rows)
    }

    fn staged(&mut self, vh: &VectorH, kind: &str, sql: &str, id: u64) -> crate::Result<()> {
        let t0 = Instant::now();
        let (parse, rewrite, execute, out) = self.tracer.span("statement", id, |t| {
            let t1 = Instant::now();
            let logical = t.span("planner.parse", id, |_| vh.parse(sql));
            let parse = ms(t1);
            let t2 = Instant::now();
            let phys = t.span("planner.rewrite", id, |_| {
                logical.and_then(|l| vh.optimize(&l))
            });
            let rewrite = ms(t2);
            let t3 = Instant::now();
            let out = t.span("core.execute", id, |_| {
                phys.and_then(|p| vh.run_physical_public(&p))
            });
            (parse, rewrite, ms(t3), out)
        });
        let statement = ms(t0);
        let (rows, profile) = out?;
        let s = self.stages.entry(kind.to_string()).or_default();
        s.parse_ms.push(parse);
        s.rewrite_ms.push(rewrite);
        s.execute_ms.push(execute);
        s.statement_ms.push(statement);
        s.result_rows.push(rows.len() as f64);
        s.profiles.push(summarize(&profile));
        self.last_end = Some(Instant::now());
        Ok(())
    }

    /// Fold another client's recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (k, v) in other.lat_ms {
            self.lat_ms.entry(k).or_default().extend(v);
        }
        for (k, s) in other.stages {
            let mine = self.stages.entry(k).or_default();
            mine.plain_ms.extend(s.plain_ms);
            mine.parse_ms.extend(s.parse_ms);
            mine.rewrite_ms.extend(s.rewrite_ms);
            mine.execute_ms.extend(s.execute_ms);
            mine.statement_ms.extend(s.statement_ms);
            mine.profiles.extend(s.profiles);
            mine.result_rows.extend(s.result_rows);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.idle_s += other.idle_s;
        self.queries_run += other.queries_run;
        for (k, v) in other.extra {
            self.extra.entry(k).or_default().extend(v);
        }
        self.note(&format!("{:016x}", other.sequence));
        self.tracer.absorb(other.tracer);
    }

    /// Take over the stage samples and spans of a recorder whose latencies
    /// are kept apart (the quiescent in-process pass of `frontdoor_mix`).
    pub fn absorb_stages(&mut self, other: Recorder) {
        self.stages.extend(other.stages);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.tracer.absorb(other.tracer);
    }

    pub fn samples(&self) -> usize {
        self.lat_ms.values().map(Vec::len).sum()
    }

    /// Median latency per statement kind, in kind order.
    pub fn kind_medians(&self) -> crate::Result<BTreeMap<String, f64>> {
        self.lat_ms
            .iter()
            .map(|(k, v)| Ok((k.clone(), stats::median(v)?)))
            .collect()
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        self.lat_ms.values().flatten().copied().collect()
    }
}

/// Σ over statement kinds of the median of `pick(stages)`.
pub fn sum_of_medians(
    stages: &BTreeMap<String, Stages>,
    pick: impl Fn(&Stages) -> Vec<f64>,
) -> f64 {
    stages
        .values()
        .filter_map(|s| stats::median(&pick(s)).ok())
        .sum()
}

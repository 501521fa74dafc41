//! `frontdoor_mix`: two clients through the SQL front door on loopback.
//!
//! Each client draws from a seeded mix: 50 % short (Q6, Q14, a point
//! lookup on `orders`), 30 % medium (Q3, Q12), 10 % a large result (four
//! `lineitem` columns for about a sixth of the table), 10 % a prepared
//! statement from the short set. Twenty untimed statements per client warm
//! the session.
//!
//! This is the serving layer's workload: parse and plan per statement, the
//! admission queue, the session, wire encoding and materialising the
//! result as `Vec<Vec<Value>>` are a large share of a short statement and
//! a negligible share of `tpch_power`. Two statements at once, each with
//! many pipelines, on two cores is also where thread oversubscription
//! shows.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use vectorh_common::rng::SplitMix64;
use vectorh_common::{Value, VhError};
use vectorh_server::Client;
use vectorh_tpch::gen::cols::orders as o;
use vectorh_tpch::TpchData;

use super::{tpch_sql, Budget, Env, Outcome, Pacer, Probe};
use crate::check::AnswerBook;
use crate::measure::Recorder;
use crate::spec::tpch_kind;
use crate::stats;
use crate::wire_client::WireClient;

pub const CLIENTS: usize = 2;
const WARM_UP: usize = 20;
/// Each client's floor of timed statements: the rarest kind (a prepared
/// short statement, one draw in thirty) is then expected twice per client.
const MIN_STATEMENTS: usize = 60;
const KEYS: usize = 16;
/// `l_shipdate <` one of these selects about a sixth of `lineitem`.
const DATES: [&str; 4] = ["1993-02-01", "1993-03-01", "1993-04-01", "1993-05-01"];
const SHORT: [usize; 2] = [6, 14];
const MEDIUM: [usize; 2] = [3, 12];

/// One statement of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Latency is reported under this kind.
    pub kind: String,
    /// Answers are compared under this key: the SQL text with its literal.
    pub key: String,
    pub sql: String,
    /// Index into the session's prepared statements, if sent as `Execute`.
    pub prepared: Option<usize>,
}

/// The literals of one run, drawn from the loaded data under the seed.
pub struct Mix {
    keys: Vec<i64>,
}

fn point_sql(key: i64) -> String {
    format!(
        "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {key}"
    )
}

fn large_sql(day: &str) -> String {
    format!(
        "SELECT l_orderkey, l_partkey, l_extendedprice, l_shipdate FROM lineitem \
         WHERE l_shipdate < date '{day}'"
    )
}

impl Mix {
    pub fn new(data: &TpchData, seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed ^ 0x4D49_5821);
        let keys = (0..KEYS)
            .filter_map(|_| {
                let i = rng.next_bounded(data.orders.len() as u64) as usize;
                data.orders[i][o::O_ORDERKEY].as_i64()
            })
            .collect();
        Mix { keys }
    }

    fn tpch(q: usize) -> crate::Result<Stmt> {
        Ok(Stmt {
            kind: tpch_kind(q),
            key: tpch_kind(q),
            sql: tpch_sql(q)?.to_string(),
            prepared: None,
        })
    }

    fn point(&self, i: usize) -> Stmt {
        let key = self.keys[i % self.keys.len()];
        Stmt {
            kind: "point".into(),
            key: format!("point:{key}"),
            sql: point_sql(key),
            prepared: None,
        }
    }

    /// The statements every session prepares: the short set.
    pub fn prepared(&self) -> crate::Result<Vec<Stmt>> {
        let mut set = vec![Mix::tpch(6)?, Mix::tpch(14)?, self.point(0)];
        for (i, s) in set.iter_mut().enumerate() {
            s.kind = format!("prep_{}", s.kind);
            s.prepared = Some(i);
        }
        Ok(set)
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> crate::Result<Stmt> {
        let pick = |rng: &mut SplitMix64, n: usize| rng.next_bounded(n as u64) as usize;
        Ok(match rng.next_bounded(100) {
            0..50 => match pick(rng, 3) {
                2 => self.point(pick(rng, KEYS)),
                i => Mix::tpch(SHORT[i])?,
            },
            50..80 => Mix::tpch(MEDIUM[pick(rng, 2)])?,
            80..90 => {
                let day = DATES[pick(rng, DATES.len())];
                Stmt {
                    kind: "large".into(),
                    key: format!("large:{day}"),
                    sql: large_sql(day),
                    prepared: None,
                }
            }
            _ => self.prepared()?.swap_remove(pick(rng, 3)),
        })
    }
}

struct Answer {
    rows: Vec<Vec<Value>>,
    /// (sent, first row, done), when the client can tell.
    instants: Option<(Instant, Instant, Instant)>,
}

/// The product's client, or in a traced run the one that times the first row.
enum Door {
    Product(Client),
    Wire(WireClient),
}

impl Door {
    fn connect(addr: SocketAddr, timed: bool) -> Result<Door, VhError> {
        Ok(match timed {
            true => Door::Wire(WireClient::connect(addr)?),
            false => Door::Product(Client::connect(addr)?),
        })
    }

    fn prepare(&mut self, sql: &str) -> Result<u64, VhError> {
        match self {
            Door::Product(c) => c.prepare(sql),
            Door::Wire(c) => c.prepare(sql),
        }
    }

    fn run(&mut self, stmt: &Stmt, ids: &[u64]) -> Result<Answer, VhError> {
        let plain = |rows| Answer {
            rows,
            instants: None,
        };
        match (self, stmt.prepared) {
            (Door::Product(c), None) => c.query_with_retry(&stmt.sql, 50).map(|o| plain(o.rows)),
            (Door::Product(c), Some(i)) => c.execute_prepared(ids[i]).map(|o| plain(o.rows)),
            (Door::Wire(c), prepared) => {
                let a = match prepared {
                    None => c.query(&stmt.sql)?,
                    Some(i) => c.execute_prepared(ids[i])?,
                };
                Ok(Answer {
                    rows: a.rows,
                    instants: Some((a.sent, a.first_row, a.done)),
                })
            }
        }
    }

    fn goodbye(self) {
        match self {
            Door::Product(c) => drop(c.goodbye()),
            Door::Wire(c) => c.goodbye(),
        }
    }
}

struct Session {
    door: Door,
    ids: Vec<u64>,
    rec: Recorder,
    book: AnswerBook,
}

impl Session {
    /// Connect, prepare the short set and send the untimed warm-up statements.
    fn open(
        addr: SocketAddr,
        mix: &Mix,
        rec: Recorder,
        rng: &mut SplitMix64,
    ) -> crate::Result<Session> {
        let mut door = Door::connect(addr, rec.tracing())?;
        let mut ids = Vec::new();
        for s in mix.prepared()? {
            ids.push(door.prepare(&s.sql)?);
        }
        let mut session = Session {
            door,
            ids,
            rec,
            book: AnswerBook::default(),
        };
        for _ in 0..WARM_UP {
            session.send(&mix.draw(rng)?);
        }
        session.rec.reset_samples();
        Ok(session)
    }

    fn send(&mut self, stmt: &Stmt) {
        self.rec.note(&stmt.key);
        self.rec.note(if stmt.prepared.is_some() {
            "execute"
        } else {
            "query"
        });
        let id = self.rec.next_stmt_id();
        let (door, ids) = (&mut self.door, &self.ids);
        let answer = self.rec.timed(&stmt.kind, "client.statement", id, |t| {
            let a = door.run(stmt, ids)?;
            if let Some((sent, first, done)) = a.instants {
                t.record("client.send_to_first_row", id, sent, first);
                t.record("client.first_row_to_done", id, first, done);
            }
            Ok::<_, VhError>(a)
        });
        let Some(a) = answer else { return };
        self.rec.queries_run += 1;
        if let Some((sent, first, done)) = a.instants {
            let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
            self.rec
                .extra
                .entry("first_row_ms")
                .or_default()
                .push(ms(sent, first));
            if stmt.kind == "large" {
                let rate = a.rows.len() as f64 / (ms(sent, done) / 1e3);
                self.rec
                    .extra
                    .entry("large_rows_per_s")
                    .or_default()
                    .push(rate);
            }
        }
        self.book.record(&stmt.key, &stmt.sql, a.rows);
    }
}

/// One client: connect, prepare, warm up, wait for the start, run.
fn client(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    budget: Budget,
    rec: Recorder,
    start: &Barrier,
) -> crate::Result<(Recorder, AnswerBook)> {
    let mut rng = SplitMix64::new(seed);
    let session = Session::open(addr, mix, rec, &mut rng);
    // The barrier is reached even if that failed: the other threads wait on it.
    start.wait();
    start.wait();
    let mut s = session?;
    let floor = if s.rec.tracing() { 1 } else { MIN_STATEMENTS };
    let mut pacer = Pacer::start(budget, floor);
    while pacer.another() {
        s.send(&mix.draw(&mut rng)?);
    }
    s.door.goodbye();
    Ok((s.rec, s.book))
}

/// Median latency of each statement kind, run in process with the server idle.
fn quiescent(env: &mut Env, mix: &Mix) -> crate::Result<Recorder> {
    let mut rec = Recorder::new(env.rec.tracing(), Instant::now());
    let mut kinds = vec![
        Mix::tpch(6)?,
        Mix::tpch(14)?,
        mix.point(0),
        Mix::tpch(3)?,
        Mix::tpch(12)?,
    ];
    kinds.push(Stmt {
        kind: "large".into(),
        key: String::new(),
        sql: large_sql(DATES[0]),
        prepared: None,
    });
    for _ in 0..5 {
        for s in &kinds {
            rec.query(&env.rig.vh, &s.kind, &s.sql);
        }
    }
    Ok(rec)
}

pub fn run(env: &mut Env) -> crate::Result<Outcome> {
    let addr = env
        .rig
        .server
        .as_ref()
        .ok_or_else(|| crate::BenchError("frontdoor_mix needs the server".into()))?
        .addr();
    let mix = Arc::new(Mix::new(env.data, env.seed));
    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let epoch = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (mix, start, budget) = (mix.clone(), start.clone(), env.budget);
            let seed = env.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rec = Recorder::new(env.rec.tracing(), epoch);
            rec.set_stmt_base((c as u64 + 1) << 32);
            std::thread::spawn(move || client(addr, &mix, seed, budget, rec, &start))
        })
        .collect();
    // Every client has warmed up; read the counters, then let them go.
    start.wait();
    let before = Probe::take(&env.rig.vh);
    let t0 = Instant::now();
    start.wait();
    let mut joined = Vec::new();
    for h in handles {
        joined.push(
            h.join()
                .map_err(|_| crate::BenchError("client thread panicked".into()))?,
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let counters = Probe::take(&env.rig.vh).since(&before);
    let (mut rounds, mut queries) = (0, 0);
    for r in joined {
        let (rec, book) = r?;
        rounds += rec.samples();
        queries += rec.queries_run;
        env.rec.absorb(rec);
        env.book.merge(book);
    }

    let mut layer = std::collections::BTreeMap::new();
    if env.rec.tracing() {
        let idle = quiescent(env, &mix)?;
        let (door, inproc) = (env.rec.kind_medians()?, idle.kind_medians()?);
        let gaps: Vec<f64> = inproc
            .iter()
            .filter_map(|(k, m)| door.get(k).map(|d| d - m))
            .collect();
        layer.insert(
            "server.overhead_ms",
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
        );
        let saved: Vec<f64> = door
            .iter()
            .filter_map(|(k, m)| Some(door.get(k.strip_prefix("prep_")?)? - m))
            .collect();
        layer.insert(
            "server.prepare_saved_ms",
            saved.iter().sum::<f64>() / saved.len().max(1) as f64,
        );
        for (metric, samples) in [
            ("server.first_row_ms", "first_row_ms"),
            ("server.large_result_rows_per_s", "large_rows_per_s"),
        ] {
            let v = env
                .rec
                .extra
                .get(samples)
                .map_or(Ok(0.0), |v| stats::median(v))?;
            layer.insert(metric, v);
        }
        env.rec.absorb_stages(idle);
    }
    Ok(Outcome {
        wall_s,
        rounds,
        counters,
        queries,
        write_amp: None,
        live_user_bytes: None,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_the_declared_shares_and_repeats_under_a_seed() {
        let data = crate::rig::generate(0.001);
        let mix = Mix::new(&data, 9);
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..2000)
                .map(|_| mix.draw(&mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        let share = |f: &dyn Fn(&Stmt) -> bool| a.iter().filter(|s| f(s)).count() as f64 / 2000.0;
        assert!((share(&|s| s.prepared.is_some()) - 0.10).abs() < 0.03);
        assert!((share(&|s| s.kind == "large") - 0.10).abs() < 0.03);
        assert!((share(&|s| s.kind == "q03" || s.kind == "q12") - 0.30).abs() < 0.04);
        assert!(a.iter().any(|s| s.kind == "point"));
        assert!(a.iter().any(|s| s.kind == "prep_point"));
    }
}

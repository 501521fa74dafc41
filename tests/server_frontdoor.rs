//! The SQL front door end to end: wire handshake, streamed results,
//! prepared statements, typed errors, admission refusals, cancellation,
//! and — the headline — node death under concurrent streaming clients
//! with zero client-visible failures.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vectorh::{ClusterConfig, VectorH};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{NodeId, Value, VhError};
use vectorh_server::{AdmissionConfig, Client, Server, ServerConfig};
use vectorh_tpch::baseline::canonical;
use vectorh_tpch::sql_texts::frontdoor_mix_texts;

fn engine(nodes: usize) -> Arc<VectorH> {
    let vh = VectorH::start(ClusterConfig {
        nodes,
        rows_per_chunk: 256,
        hdfs_block_size: 32 * 1024,
        ..Default::default()
    })
    .unwrap();
    vectorh_tpch::schema::setup(&vh, 0.002, 4, 20260707).unwrap();
    Arc::new(vh)
}

fn server_with(vh: &Arc<VectorH>, admission: AdmissionConfig, batch_rows: usize) -> Server {
    Server::start(
        vh.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission,
            batch_rows,
        },
    )
    .unwrap()
}

fn default_server(vh: &Arc<VectorH>) -> Server {
    server_with(vh, AdmissionConfig::default(), 1024)
}

#[test]
fn wire_query_matches_in_process_results() {
    let vh = engine(3);
    let server = default_server(&vh);
    let mut client = Client::connect(server.addr()).unwrap();
    for qn in vectorh_tpch::sql_texts::FRONTDOOR_MIX {
        let sql = vectorh_tpch::sql_texts::sql_text(qn).unwrap();
        let want = vh.query(sql).unwrap();
        let got = client.query(sql).unwrap();
        assert_eq!(got, want, "q{qn} over the wire diverged");
    }
    client.goodbye().unwrap();
}

#[test]
fn small_batches_stream_and_reassemble() {
    let vh = engine(3);
    // Tiny batches force a multi-frame result stream.
    let server = server_with(&vh, AdmissionConfig::default(), 7);
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = "SELECT l_orderkey, l_quantity FROM lineitem";
    // Bare-scan row order varies with stream scheduling; compare as sets.
    let want = vectorh_tpch::baseline::canonical(vh.query(sql).unwrap());
    let outcome = client.query_detailed(sql).unwrap();
    let got = vectorh_tpch::baseline::canonical(outcome.rows.clone());
    assert_eq!(got, want);
    assert!(
        outcome.batches as usize >= want.len() / 7,
        "expected a multi-batch stream, got {} batches for {} rows",
        outcome.batches,
        want.len()
    );
}

#[test]
fn prepared_statements_cache_by_sql_text() {
    let vh = engine(3);
    let server = default_server(&vh);
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = vectorh_tpch::sql_texts::sql_text(6).unwrap();
    let a = client.prepare(sql).unwrap();
    let b = client.prepare(sql).unwrap();
    assert_eq!(a, b, "same text must hit the cache, not re-prepare");
    let c = client
        .prepare(vectorh_tpch::sql_texts::sql_text(1).unwrap())
        .unwrap();
    assert_ne!(a, c);
    let want = vh.query(sql).unwrap();
    assert_eq!(client.execute_prepared(a).unwrap().rows, want);
    // Query by the same text rides the cached plan too.
    assert_eq!(client.query(sql).unwrap(), want);
    // Unknown statement ids are a typed error, not a hangup.
    let err = client.execute_prepared(9999).unwrap_err();
    assert!(matches!(err, VhError::InvalidArg(_)), "{err}");
    assert_eq!(client.query(sql).unwrap(), want, "session must survive");
}

#[test]
fn plan_errors_are_typed_and_session_survives() {
    let vh = engine(3);
    let server = default_server(&vh);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.query("SELECT nope FROM nothing").unwrap_err();
    // The stable numeric taxonomy survives the wire: the client rebuilds
    // the exact variant from the code.
    assert!(
        matches!(err, VhError::Plan(_) | VhError::Catalog(_)),
        "wrong variant after wire roundtrip: {err}"
    );
    let rows = client.query("SELECT count(*) FROM lineitem").unwrap();
    assert!(matches!(rows[0][0], Value::I64(n) if n > 0));
}

#[test]
fn pipelined_requests_beyond_session_cap_get_typed_busy() {
    let vh = engine(3);
    let server = server_with(
        &vh,
        AdmissionConfig {
            max_concurrent: 1,
            max_queue: 2,
            queue_timeout_ms: 5000,
            per_session_inflight: 1,
            seed: 11,
        },
        1024,
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = vectorh_tpch::sql_texts::sql_text(1).unwrap();
    let want = vh.query(sql).unwrap();
    // Fire 8 queries without waiting: with a pipelining cap of 1, the
    // reader refuses the overflow at the door — typed ServerBusy with a
    // backoff hint, connection intact.
    let n = 8;
    let mut pending = Vec::new();
    for _ in 0..n {
        pending.push(client.send_query(sql).unwrap());
    }
    let mut ok = 0;
    let mut busy = 0;
    for _ in 0..n {
        let (_, outcome) = client.wait_any().unwrap();
        match outcome {
            Ok(o) => {
                assert_eq!(o.rows, want);
                ok += 1;
            }
            Err(VhError::ServerBusy(_)) => {
                assert!(client.last_busy_hint_ms() > 0, "busy must carry a hint");
                busy += 1;
            }
            Err(other) => panic!("only Ok or ServerBusy expected, got {other}"),
        }
    }
    assert!(ok >= 1, "at least the first pipelined query must run");
    assert!(busy >= 1, "cap 1 with 8 pipelined queries must refuse some");
    // The refusals were counted against this session.
    let sessions = vh.server_stats().sessions();
    let mine = sessions
        .iter()
        .find(|(id, _)| *id == client.session_id())
        .map(|(_, c)| *c)
        .unwrap();
    assert_eq!(mine.queries_served, ok);
    assert_eq!(mine.rejected_busy, busy);
    // And the session still serves.
    assert_eq!(client.query(sql).unwrap(), want);
}

/// The pipelining slot is given back before the terminal frame goes out,
/// so a client that only ever has one request outstanding never meets its
/// own previous request at a cap of 1 — whatever that request's terminal
/// frame was (`Done`, `Prepared`, or an error).
#[test]
fn back_to_back_requests_at_cap_one_never_see_busy() {
    let vh = engine(3);
    let server = server_with(
        &vh,
        AdmissionConfig {
            per_session_inflight: 1,
            ..AdmissionConfig::default()
        },
        1024,
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = "SELECT count(*) FROM region";
    let want = vh.query(sql).unwrap();
    let stmt = client.prepare(sql).unwrap();
    // 4 request/response cycles per round.
    for cycle in 0..50 {
        assert_eq!(client.query(sql).unwrap(), want, "cycle {cycle}");
        assert_eq!(client.prepare(sql).unwrap(), stmt, "cycle {cycle}");
        assert_eq!(client.execute_prepared(stmt).unwrap().rows, want);
        let err = client.query("SELECT FROM").unwrap_err();
        assert!(
            !matches!(err, VhError::ServerBusy(_)),
            "cycle {cycle}: {err}"
        );
    }
    let sessions = vh.server_stats().sessions();
    let mine = sessions
        .iter()
        .find(|(id, _)| *id == client.session_id())
        .map(|(_, c)| *c)
        .unwrap();
    assert_eq!(mine.rejected_busy, 0);
    assert_eq!(mine.queries_served, 100);
}

#[test]
fn cancel_mid_stream_is_typed_and_session_survives() {
    let vh = engine(3);
    // One-row batches maximize the stream length so the cancel lands.
    let server = server_with(&vh, AdmissionConfig::default(), 1);
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem";
    let req = client.send_query(sql).unwrap();
    let mut canceller = client.canceller().unwrap();
    canceller.cancel().unwrap();
    let (done_id, outcome) = client.wait_any().unwrap();
    assert_eq!(done_id, req);
    match outcome {
        // The cancel raced the stream and won:
        Err(VhError::Cancelled(_)) => {}
        // …or the query finished first; either way it must be clean.
        Ok(o) => assert_eq!(
            vectorh_tpch::baseline::canonical(o.rows),
            vectorh_tpch::baseline::canonical(vh.query(sql).unwrap())
        ),
        Err(other) => panic!("expected Cancelled or success, got {other}"),
    }
    // The session keeps serving after a cancel.
    let rows = client.query("SELECT count(*) FROM lineitem").unwrap();
    assert!(matches!(rows[0][0], Value::I64(n) if n > 0));
}

#[test]
fn engine_level_cancel_is_deterministic() {
    let vh = engine(3);
    let ctl = vectorh::QueryCtl::new();
    ctl.cancel();
    let plan = vh.parse("SELECT count(*) FROM lineitem").unwrap();
    let err = vh.query_logical_ctl(&plan, Some(&ctl)).unwrap_err();
    assert!(matches!(err, VhError::Cancelled(_)), "{err}");
}

/// Workload and victim seed of the kill drill.
const SEED: u64 = 0x56EC_7047;
const DRILL_CLIENTS: usize = 16;
const DRILL_QUERIES: usize = 4;

/// The kill drill's client side: 16 closed-loop wire clients against the
/// front door at `addr`, each running 4 queries drawn from its own seeded
/// stream over the Q1/Q6/Q12 mix. Typed `ServerBusy` is the one tolerated
/// refusal; every answer must equal its pre-kill baseline. `kill` fires once
/// the run is warm (as many queries completed as there are clients), or once
/// no client is left to wait for. Returns the `Done`-frame retry total.
fn kill_drill(addr: SocketAddr, baselines: &[Vec<Vec<Value>>], kill: impl FnOnce()) -> u64 {
    let completed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..DRILL_CLIENTS)
            .map(|c| {
                let completed = &completed;
                s.spawn(move || {
                    let texts = frontdoor_mix_texts();
                    let mut rng = SplitMix64::new(SEED ^ (c as u64).wrapping_mul(0x9E37_79B9));
                    let mut client = Client::connect(addr).expect("connect");
                    let mut absorbed = 0u64;
                    for i in 0..DRILL_QUERIES {
                        let qi = rng.next_bounded(texts.len() as u64) as usize;
                        let outcome = client
                            .query_with_retry(texts[qi], 50)
                            .unwrap_or_else(|e| panic!("client {c} query {i} failed: {e}"));
                        assert_eq!(
                            canonical(outcome.rows),
                            baselines[qi],
                            "client {c} query {i} diverged"
                        );
                        absorbed += outcome.retries_absorbed;
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    absorbed
                })
            })
            .collect();
        // Clients that all died before the run got warm must fail the drill
        // at the joins below, not hang it here.
        while completed.load(Ordering::SeqCst) < DRILL_CLIENTS
            && !handles.iter().all(|h| h.is_finished())
        {
            std::thread::yield_now();
        }
        kill();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    })
}

/// The headline drill: 16 clients streaming results over the wire through
/// the default admission gate (8 concurrent, so half of them queue) while a
/// node dies mid-run. Zero client-visible failures — every retry is
/// absorbed inside `query_logical` — and every answer stays equal to the
/// pre-kill baseline.
#[test]
fn node_death_under_concurrent_clients_is_invisible() {
    let vh = engine(4);
    let server = default_server(&vh);
    let baselines: Vec<Vec<Vec<Value>>> = frontdoor_mix_texts()
        .iter()
        .map(|sql| canonical(vh.query(sql).unwrap()))
        .collect();
    // Surviving replicas cover the victim's reads; never the session master.
    let master = vh.session_master();
    let pool: Vec<NodeId> = vh.workers().into_iter().filter(|w| *w != master).collect();
    let victim = pool[SplitMix64::new(SEED).next_bounded(pool.len() as u64) as usize];

    let client_absorbed = kill_drill(server.addr(), &baselines, || {
        vh.kill_node(victim).unwrap();
    });

    let totals = vh.server_stats().totals();
    assert_eq!(
        totals.queries_served,
        (DRILL_CLIENTS * DRILL_QUERIES) as u64,
        "every query must be served"
    );
    assert_eq!(
        totals.retries_absorbed, client_absorbed,
        "server-side and Done-frame retry counts must agree"
    );
    assert!(!vh.workers().contains(&victim), "the node really died");
}

/// A front door that fails every client's first query fails the drill
/// instead of hanging it: nothing listens on the address.
#[test]
#[should_panic(expected = "client thread")]
fn kill_drill_fails_when_every_client_dies_cold() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    kill_drill(addr, &[], || {});
}

#[test]
fn server_stats_probe_counts_per_session() {
    let vh = engine(3);
    let server = default_server(&vh);
    let sql = vectorh_tpch::sql_texts::sql_text(6).unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        a.query(sql).unwrap();
    }
    b.query(sql).unwrap();
    let sessions = vh.server_stats().sessions();
    let served: Vec<u64> = sessions.iter().map(|(_, c)| c.queries_served).collect();
    assert_eq!(sessions.len(), 2);
    assert!(served.contains(&3) && served.contains(&1), "{served:?}");
}

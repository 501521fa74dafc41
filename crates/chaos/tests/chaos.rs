//! The chaos corpus: reproducible fault schedules over the full engine.
//!
//! Red runs print the failing seed; replay exactly that schedule with
//! `CHAOS_SEED=<seed> cargo test -p vectorh-chaos`.

use std::sync::atomic::{AtomicBool, Ordering};

use vectorh::{ClusterConfig, VectorH};
use vectorh_chaos::{
    corpus, corpus_from, enabled_phases, run_schedule, run_schedule_with_phases, ALL_PHASES,
    N_SITES,
};
use vectorh_common::fault::FaultSite;
use vectorh_tpch::baseline::{canonical, BaselineDb, BaselineKind};
use vectorh_tpch::sql_text;

/// Every seed in the corpus must pass, and across the corpus every named
/// fault site must have fired at least once (coverage: no injection point
/// goes silently untested).
#[test]
fn seed_corpus_passes_and_covers_every_fault_site() {
    let seeds = corpus();
    let mut totals = [0u64; N_SITES];
    for &seed in &seeds {
        let report = run_schedule(seed).unwrap_or_else(|e| {
            panic!(
                "chaos schedule failed: {e}\n\
                 replay with: CHAOS_SEED={seed:#x} cargo test -p vectorh-chaos"
            )
        });
        for (total, fired) in totals.iter_mut().zip(report.fired) {
            *total += fired;
        }
    }
    // Coverage only holds over the full corpus with every phase enabled,
    // not a single replayed seed or a CI phase-split subset.
    if seeds.len() > 1 && enabled_phases().len() == ALL_PHASES.len() {
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert!(
                totals[i] > 0,
                "fault site {site} never fired across the {}-seed corpus",
                seeds.len()
            );
        }
    }
}

/// Same seed → same schedule and same outcome, byte for byte.
#[test]
fn same_seed_same_schedule_and_outcome() {
    let seed = corpus()[0];
    let a =
        run_schedule(seed).unwrap_or_else(|e| panic!("first run of seed {seed:#x} failed: {e}"));
    let b =
        run_schedule(seed).unwrap_or_else(|e| panic!("second run of seed {seed:#x} failed: {e}"));
    assert_eq!(a, b, "seed {seed:#x} produced two different schedules");
}

#[test]
fn chaos_phases_env_selects_a_subset_in_execution_order() {
    assert_eq!(vectorh_chaos::phases_from(None), ALL_PHASES.to_vec());
    assert_eq!(
        vectorh_chaos::phases_from(Some("txn,io")),
        vec!["io", "txn"]
    );
    assert_eq!(vectorh_chaos::phases_from(Some(" rejoin ")), vec!["rejoin"]);
    assert_eq!(
        vectorh_chaos::phases_from(Some("master,kill")),
        vec!["kill", "master"]
    );
}

/// Election determinism across the whole corpus: replaying just the
/// `master` phase for every seed must reproduce the identical report —
/// including the epoch history (who won, at which epoch) and the
/// narration of detection timing. Elections must be a pure function of
/// the seed, never of wall-clock races.
#[test]
fn master_election_is_deterministic_across_the_corpus() {
    for seed in corpus_from(None) {
        let a = run_schedule_with_phases(seed, &["master"])
            .unwrap_or_else(|e| panic!("master phase failed for seed {seed:#x}: {e}"));
        let b = run_schedule_with_phases(seed, &["master"])
            .unwrap_or_else(|e| panic!("master phase replay failed for seed {seed:#x}: {e}"));
        assert_eq!(
            a, b,
            "seed {seed:#x}: two runs of the master phase diverged"
        );
        // The audit trail must show exactly one election on top of the
        // initial epoch, won by a node other than the initial master.
        assert_eq!(a.epochs.len(), 2, "seed {seed:#x}: epochs {:?}", a.epochs);
        assert_eq!(a.epochs[1].0, a.epochs[0].0 + 1);
        assert_ne!(a.epochs[0].1, a.epochs[1].1);
    }
}

#[test]
fn chaos_seed_env_selects_a_single_schedule() {
    assert_eq!(corpus_from(Some("42")), vec![42]);
    assert_eq!(corpus_from(Some("0x2A")), vec![0x2A]);
    assert_eq!(corpus_from(Some(" 7 ")), vec![7]);
    let default = corpus_from(None);
    assert_eq!(default.len(), vectorh_chaos::DEFAULT_CORPUS_LEN);
    assert!(default.windows(2).all(|w| w[0] != w[1]));
}

/// The headline acceptance scenario, standalone: a worker dies in the
/// middle of a distributed TPC-H join query. The query must return
/// baseline-verified results (no error, no hang), and afterwards scans
/// must again be fully short-circuit local.
#[test]
fn mid_query_node_kill_returns_correct_results_and_restores_locality() {
    let vh = VectorH::start(ClusterConfig {
        nodes: 4,
        rows_per_chunk: 256,
        hdfs_block_size: 32 * 1024,
        streams_per_node: 2,
        replication: 3,
        ..Default::default()
    })
    .unwrap();
    let data = vectorh_tpch::schema::setup(&vh, 0.002, 4, 20260807).unwrap();
    let db = BaselineDb::load(&data).unwrap();
    let victim = *vh
        .workers()
        .iter()
        .find(|w| **w != vh.session_master())
        .unwrap();

    // Q5: six-table join with repartitioning exchanges — plenty of reads
    // for the kill to land mid-flight.
    let q5 = sql_text(5).unwrap();
    let want = canonical(
        db.run(&vh.parse(q5).unwrap(), BaselineKind::RowStore)
            .unwrap(),
    );
    let threshold = vh.fs().stats().snapshot().read_bytes() + 1024;
    let done = AtomicBool::new(false);
    let (got, killed) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if vh.fs().stats().snapshot().read_bytes() >= threshold {
                    return vh.kill_node(victim).is_ok();
                }
                std::thread::yield_now();
            }
            false
        });
        let got = vh.query(q5);
        done.store(true, Ordering::Release);
        (got, killer.join().unwrap())
    });
    let got = canonical(got.expect("query must fail over, not error out"));
    assert_eq!(got, want, "Q5 answer diverged across the node kill");
    if !killed {
        vh.kill_node(victim).unwrap();
    }
    assert!(!vh.workers().contains(&victim));

    // Post-failure locality: re-replication + responsibility remap must
    // make table I/O fully local again.
    let before = vh.fs().stats().snapshot();
    let q6 = sql_text(6).unwrap();
    let got6 = canonical(vh.query(q6).unwrap());
    let want6 = canonical(
        db.run(&vh.parse(q6).unwrap(), BaselineKind::RowStore)
            .unwrap(),
    );
    assert_eq!(got6, want6);
    let delta = vh.fs().stats().snapshot().since(&before);
    assert_eq!(
        delta.remote_read_bytes, 0,
        "scans after failover must be fully short-circuited"
    );
    assert!(delta.local_read_bytes > 0);
}

//! The chaos corpus: reproducible fault schedules over the full engine.
//!
//! Red runs print the failing seed; replay exactly that schedule with
//! `CHAOS_SEED=<seed> cargo test -p vectorh-chaos`.

use vectorh::ClusterConfig;
use vectorh_chaos::{
    baseline_rows, corpus, corpus_from, enabled_phases, phases_from, q6_is_local,
    query_across_kill, run_schedule, run_schedule_with_phases, tpch_cluster, ALL_PHASES, N_SITES,
};
use vectorh_common::fault::FaultSite;
use vectorh_tpch::baseline::BaselineDb;
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
    assert_eq!(phases_from(None), ALL_PHASES.to_vec());
    assert_eq!(phases_from(Some("txn,io")), vec!["io", "txn"]);
    assert_eq!(phases_from(Some(" rejoin ")), vec!["rejoin"]);
    assert_eq!(phases_from(Some("master,kill")), vec!["kill", "master"]);
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
    let config = ClusterConfig {
        nodes: 4,
        rows_per_chunk: 256,
        ..Default::default()
    };
    let (vh, data) = tpch_cluster(config, 0.002).unwrap();
    let db = BaselineDb::load(&data).unwrap();
    let victim = *vh
        .workers()
        .iter()
        .find(|w| **w != vh.session_master())
        .unwrap();

    // Q5: six-table join with repartitioning exchanges — plenty of reads
    // for the kill to land mid-flight.
    let q5 = sql_text(5).unwrap();
    let want = baseline_rows(&vh, &db, q5).unwrap();
    let got =
        query_across_kill(&vh, victim, q5, 1024).expect("query must fail over, not error out");
    assert_eq!(got, want, "Q5 answer diverged across the node kill");
    assert!(!vh.workers().contains(&victim));

    // Post-failure locality: re-replication + responsibility remap must
    // make table I/O fully local again.
    let local = q6_is_local(&vh, &db, "after failover").unwrap();
    assert!(local > 0);
}

/// A `CHAOS_PHASES` that names no phase would build a cluster, run nothing
/// and pass with the coverage gate off; it is refused like an unknown name.
#[test]
fn chaos_phases_env_naming_no_known_phase_is_refused() {
    for env in ["", " , ", "kil"] {
        let refused = std::panic::catch_unwind(|| phases_from(Some(env))).is_err();
        assert!(refused, "CHAOS_PHASES={env:?} was accepted");
    }
}

/// CI runs the corpus split by phase, and only its all-phases leg arms the
/// fault-site coverage gate: that leg must name exactly the table's phases,
/// in order, and every phase must also run in a leg of its own (or a
/// smaller group), so a red phase replays alone.
#[test]
fn ci_chaos_matrix_follows_the_phase_table() {
    let ci = include_str!("../../../.github/workflows/ci.yml");
    let job = &ci[ci.find("\n  chaos:").expect("a `chaos` job in ci.yml")..];
    let matrix = &job[job.find("phases:").expect("a `phases` matrix")..];
    let legs: Vec<&str> = matrix[..matrix.find(']').unwrap()]
        .split('"')
        .skip(1)
        .step_by(2)
        .collect();
    let widest = legs.iter().max_by_key(|l| l.split(',').count()).unwrap();
    assert_eq!(*widest, ALL_PHASES.join(","), "the all-phases chaos leg");
    for phase in ALL_PHASES {
        assert!(
            legs.iter()
                .any(|l| l != widest && l.split(',').any(|p| p == phase)),
            "phase {phase} runs in no chaos leg but the all-phases one: {legs:?}"
        );
    }
}

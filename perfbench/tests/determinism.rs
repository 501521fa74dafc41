//! The same seed gives the same statement and update stream and the same
//! exact counters; another seed gives another stream. Tiny scale factor and
//! a budget in rounds (for `htap_trickle`, epochs of five rounds and a
//! forced propagation), so the work does not depend on the box's speed.

use vectorh_perfbench::run::{run, RunOpts, RunReport};
use vectorh_perfbench::spec::Workload;
use vectorh_perfbench::workloads::Budget;

fn tiny(workload: Workload, seed: u64, rounds: usize, trace: bool) -> RunReport {
    let report = run(RunOpts {
        workload,
        seed,
        budget: Budget::Rounds(rounds),
        trace,
        sf: Some(0.002),
    })
    .unwrap();
    assert!(
        report.correct(),
        "{:?} {:?} {:?}",
        report.errors,
        report.wrong,
        report.unstable
    );
    report
}

fn exact(r: &RunReport, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| r.metric(n).unwrap_or_else(|| panic!("no metric {n}")))
        .collect()
}

#[test]
fn htap_trickle_repeats_under_a_seed() {
    const END_TO_END: [&str; 2] = ["written_bytes_per_user_byte", "stored_bytes_per_user_byte"];
    const LAYERS: [&str; 5] = [
        "exec.mscan_rows",
        "txn.chunks_rewritten",
        "txn.propagation_runs",
        "blockstore.read_bytes_per_query",
        "pdt.pending_deltas",
    ];
    let (a, b) = (
        tiny(Workload::HtapTrickle, 11, 3, false),
        tiny(Workload::HtapTrickle, 11, 3, false),
    );
    assert_eq!(a.sequence, b.sequence);
    assert_eq!(exact(&a, &END_TO_END), exact(&b, &END_TO_END));
    assert!(
        a.metric("written_bytes_per_user_byte").unwrap() > 1.0,
        "updates were written"
    );

    let (a, b) = (
        tiny(Workload::HtapTrickle, 11, 2, true),
        tiny(Workload::HtapTrickle, 11, 2, true),
    );
    assert_eq!(a.sequence, b.sequence);
    assert_eq!(exact(&a, &LAYERS), exact(&b, &LAYERS));
    assert!(
        a.metric("txn.propagation_runs").unwrap() > 0.0,
        "propagation ran"
    );

    let other = tiny(Workload::HtapTrickle, 12, 2, true);
    assert_ne!(a.sequence, other.sequence);
}

#[test]
fn scan_counters_are_exact_and_frontdoor_streams_follow_the_seed() {
    const LAYERS: [&str; 3] = [
        "exec.mscan_rows",
        "blockstore.read_bytes_per_query",
        "core.pipelines",
    ];
    let (a, b) = (
        tiny(Workload::ScanQ1Q6, 4, 4, true),
        tiny(Workload::ScanQ1Q6, 4, 4, true),
    );
    assert_eq!(exact(&a, &LAYERS), exact(&b, &LAYERS));
    assert!(a.metric("exec.mscan_rows").unwrap() > 0.0);

    let door = |seed| tiny(Workload::FrontdoorMix, seed, 55, false).sequence;
    let first = door(21);
    assert_eq!(first, door(21));
    assert_ne!(first, door(22));
}

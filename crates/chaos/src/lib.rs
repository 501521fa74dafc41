//! Seeded chaos harness for the VectorH engine.
//!
//! The paper's robustness story (§3–§4 locality restoration after node
//! failure, §6 durability of trickle updates and 2PC resolution from the
//! global WAL) is exercised here as *reproducible* fault schedules: one
//! `u64` seed determines every injected fault — transient/slow HDFS I/O,
//! dropped/duplicated/delayed exchange buffers, WAL, 2PC and propagation
//! crash points, torn TCP frames and node kills. The schedule is the table
//! [`harness::PHASES`]: one row per phase, each carrying the invariant it
//! checks.
//!
//! `CHAOS_PHASES=io,txn` (any comma-separated subset of
//! [`harness::ALL_PHASES`]) runs only those phases — CI splits a schedule
//! across parallel jobs this way; per-phase RNGs keep each phase's
//! schedule identical regardless of the split.
//!
//! Determinism rests on the [`vectorh_common::fault`] contract: rate-based
//! plans ([`FaultPlan`]) decide purely from `(site, detail, attempt)`
//! coordinates, so the *set* of fired faults is identical run-to-run even
//! though subsystems are multi-threaded. Failures print the seed; replay a
//! red schedule with `CHAOS_SEED=<seed> cargo test -p vectorh-chaos`.

pub mod harness;
pub mod plan;

pub use harness::{
    baseline_rows, corpus, corpus_from, enabled_phases, phases_from, q6_is_local,
    query_across_kill, run_schedule, run_schedule_with_phases, tpch_cluster, Phase, ScheduleReport,
    ALL_PHASES, DEFAULT_CORPUS_LEN, PHASES,
};
pub use plan::{site_index, FaultPlan, N_SITES};

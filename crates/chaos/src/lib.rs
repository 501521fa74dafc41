//! Seeded chaos harness for the VectorH engine.
//!
//! The paper's robustness story (§3–§4 locality restoration after node
//! failure, §6 durability of trickle updates) is exercised here as
//! *reproducible* fault schedules: one `u64` seed determines every injected
//! fault — transient/slow HDFS I/O, dropped/duplicated/delayed exchange
//! buffers, WAL and 2PC crash points, and a mid-query node kill — and the
//! harness checks the engine's invariants after each phase:
//!
//! 1. Query answers under fault injection match the single-node row-engine
//!    baseline exactly.
//! 2. Acknowledged (committed) transactions survive crash + recovery; no
//!    uncommitted transaction's data is ever replayed.
//! 3. After a node kill, queries still answer correctly and scan locality
//!    is fully restored (zero remote reads).
//! 4. A responsible-node crash mid-commit is detected by the heartbeat
//!    monitor, takeover recovery resurrects exactly the durably committed
//!    transactions, and after rejoin the node's replica state and cluster
//!    locality converge back to the fault-free picture.
//! 5. A session-master kill mid-2PC is detected by the *background* health
//!    plane (ordinary query traffic — nothing drives ticks by hand), a new
//!    master is elected under a bumped, fenced epoch, the in-doubt
//!    transaction resolves exactly once, and a node that rejoins behind the
//!    bounded ship-log's truncation horizon converges via full-image
//!    bootstrap.
//! 6. The framed TCP transport delivers every message exactly once, in
//!    order, while scripted faults refuse dials, tear frames on the wire
//!    and drop connections mid-stream — and after an epoch bump, a peer
//!    redialling with the stale epoch is fenced at the handshake.
//! 7. Background chunk-level update propagation survives an HTAP soak: a
//!    seeded mixed workload reconciles against an exact model while
//!    propagation runs off the virtual health clock, crashes injected at
//!    every propagation WAL step recover losslessly (including from inside
//!    the background tick), untouched chunks stay byte-identical on disk,
//!    and scans are byte-stable across the image swap.
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
    corpus, corpus_from, enabled_phases, phases_from, run_schedule, run_schedule_with_phases,
    ScheduleReport, ALL_PHASES, DEFAULT_CORPUS_LEN,
};
pub use plan::{site_index, FaultPlan, N_SITES};

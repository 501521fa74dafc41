//! Deterministic fault injection.
//!
//! The robustness claims of VectorH (§3–§4 locality restoration after node
//! failure, §6 durability under crashes) are only credible if they survive
//! adversarial schedules. This module defines the *injection points*: a
//! [`FaultHook`] that subsystems consult at named [`FaultSite`]s before
//! performing fallible work, and the [`FaultAction`]s they must honour.
//!
//! Determinism contract: a hook's [`FaultHook::decide`] must be a **pure
//! function** of `(site, detail, attempt)` — no interior mutation, no clocks,
//! no ambient entropy. Subsystems run multi-threaded, so sequential RNG draws
//! would make the fired-fault *set* depend on thread interleaving; hashing
//! the call coordinates instead keeps the set of fired faults identical
//! run-to-run for a given seed ("set-determinism"). The chaos harness in
//! `crates/chaos` builds its plans on this contract. The one exception is
//! [`DirectedFault`], a budgeted hook for single-threaded sequences.
//!
//! Hooks must never call back into the subsystem that invoked them: callers
//! typically hold locks (e.g. the simulated-HDFS namenode lock) across the
//! `decide` call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named place in the engine where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// `Namenode::read` — transient/permanent I/O errors, slow reads.
    HdfsRead,
    /// `Namenode::append` — transient/permanent I/O errors.
    HdfsAppend,
    /// Exchange-operator buffer flush (xchg/dxchg) — drop/duplicate/delay.
    XchgSend,
    /// WAL frame append — crash before/mid (torn frame)/after.
    WalAppend,
    /// WAL replay during recovery — transient read errors.
    WalReplay,
    /// 2PC phase 1 (participant prepare) — crash points.
    TwoPhasePrepare,
    /// 2PC decision/phase 2 (global commit + participant commit) — crash points.
    TwoPhaseDecide,
    /// Failure-detector heartbeat delivery — drop delays death detection.
    Heartbeat,
    /// Transport dial (`Transport::connect`) — the peer refuses the
    /// connection; the dialer must back off and retry.
    ConnRefused,
    /// Transport frame write — the connection dies mid-frame, leaving a
    /// truncated frame on the wire; the receiver must reject it on CRC or
    /// length grounds and the sender must reconnect and retransmit.
    PartialFrame,
    /// Transport connection — an established connection drops between
    /// frames; the sender must reconnect (subject to epoch fencing) and
    /// retransmit everything unacknowledged.
    Disconnect,
    /// Background update propagation (`txn::propagate`) — crash points
    /// between the per-chunk WAL protocol steps. The detail string is
    /// `"<wal path>#<step>"` (e.g. `"/t/p0.wal#rewritten:2"`), so directed
    /// faults can aim at one partition's propagation at one exact step.
    Propagation,
}

impl FaultSite {
    /// Every site, for coverage accounting in the chaos harness.
    pub const ALL: [FaultSite; 12] = [
        FaultSite::HdfsRead,
        FaultSite::HdfsAppend,
        FaultSite::XchgSend,
        FaultSite::WalAppend,
        FaultSite::WalReplay,
        FaultSite::TwoPhasePrepare,
        FaultSite::TwoPhaseDecide,
        FaultSite::Heartbeat,
        FaultSite::ConnRefused,
        FaultSite::PartialFrame,
        FaultSite::Disconnect,
        FaultSite::Propagation,
    ];

    /// Stable short name (used in schedule reports and hashing).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::HdfsRead => "hdfs-read",
            FaultSite::HdfsAppend => "hdfs-append",
            FaultSite::XchgSend => "xchg-send",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalReplay => "wal-replay",
            FaultSite::TwoPhasePrepare => "2pc-prepare",
            FaultSite::TwoPhaseDecide => "2pc-decide",
            FaultSite::Heartbeat => "heartbeat",
            FaultSite::ConnRefused => "conn-refused",
            FaultSite::PartialFrame => "partial-frame",
            FaultSite::Disconnect => "disconnect",
            FaultSite::Propagation => "propagation",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the subsystem must do at an injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Fail this attempt with a typed error; succeeding attempts (higher
    /// `attempt` numbers) may pass. Retry loops recover from these.
    TransientError,
    /// Fail every attempt with a typed error.
    PermanentError,
    /// Succeed, but account the operation as slowed (simulated latency).
    SlowRead,
    /// Exchange only: pretend the buffer was lost in flight; the sender
    /// must retransmit (reliable transport).
    Drop,
    /// Exchange only: deliver the buffer twice; receivers must dedup.
    Duplicate,
    /// Exchange only: hold the buffer and deliver it after the next one
    /// (bounded reordering).
    Delay,
    /// WAL/2PC only: simulate a crash before the write reaches the log.
    CrashBefore,
    /// WAL append only: simulate a crash mid-write — a torn (partial)
    /// frame reaches the log, then the error surfaces.
    CrashMid,
    /// WAL/2PC only: the write is durable, then the crash happens.
    CrashAfter,
}

impl FaultAction {
    /// Does this action surface as an `Err` to the caller?
    pub fn is_error(&self) -> bool {
        !matches!(
            self,
            FaultAction::None | FaultAction::SlowRead | FaultAction::Duplicate | FaultAction::Delay
        )
    }
}

/// Decision callback consulted at every [`FaultSite`].
///
/// `detail` identifies the concrete operation (file path, exchange name,
/// WAL path); `attempt` is the 0-based retry counter so a hook can model
/// transient faults that clear after k failures.
pub trait FaultHook: Send + Sync + std::fmt::Debug {
    fn decide(&self, site: FaultSite, detail: &str, attempt: u32) -> FaultAction;
}

/// Shared, clonable hook handle as stored by subsystems.
pub type SharedFaultHook = Arc<dyn FaultHook>;

/// A scripted fault: fires `action` at `site` until the budget is
/// exhausted, then stays quiet. This hook *is* stateful (the budget), the
/// one exception to the purity contract above, so it is only installed
/// around single-threaded sequences — directed tests, the chaos harness's
/// transaction phase — where consult order is deterministic.
#[derive(Debug)]
pub struct DirectedFault {
    site: FaultSite,
    action: FaultAction,
    budget: AtomicU64,
    fired: AtomicU64,
    /// Optional detail filter: when set, the fault fires only at calls whose
    /// detail string contains this needle (e.g. `"txn7"` to hit one specific
    /// transaction's decide, or `"node2@"` to drop one node's heartbeats).
    needle: Option<String>,
}

impl DirectedFault {
    pub fn new(site: FaultSite, action: FaultAction, budget: u64) -> Arc<DirectedFault> {
        Arc::new(DirectedFault {
            site,
            action,
            budget: AtomicU64::new(budget),
            fired: AtomicU64::new(0),
            needle: None,
        })
    }

    /// A directed fault that fires only when the call's detail string
    /// contains `needle` — for aiming at one transaction, node or file
    /// instead of the first `budget` calls to reach the site.
    pub fn matching(
        site: FaultSite,
        action: FaultAction,
        budget: u64,
        needle: &str,
    ) -> Arc<DirectedFault> {
        Arc::new(DirectedFault {
            site,
            action,
            budget: AtomicU64::new(budget),
            fired: AtomicU64::new(0),
            needle: Some(needle.to_string()),
        })
    }

    pub fn site(&self) -> FaultSite {
        self.site
    }

    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// Several [`DirectedFault`]s behind one hook: the first fault whose site
/// (and needle) matches claims the call. Subsystems that accept a single
/// hook — the transport fabric — get multi-site campaigns this way
/// (refused dials + torn frames + disconnects in one schedule).
#[derive(Debug)]
pub struct DirectedSet {
    faults: Vec<Arc<DirectedFault>>,
}

impl DirectedSet {
    pub fn new(faults: &[Arc<DirectedFault>]) -> Arc<DirectedSet> {
        Arc::new(DirectedSet {
            faults: faults.to_vec(),
        })
    }
}

impl FaultHook for DirectedSet {
    fn decide(&self, site: FaultSite, detail: &str, attempt: u32) -> FaultAction {
        for f in &self.faults {
            let action = f.decide(site, detail, attempt);
            if action != FaultAction::None {
                return action;
            }
        }
        FaultAction::None
    }
}

impl FaultHook for DirectedFault {
    fn decide(&self, site: FaultSite, detail: &str, _attempt: u32) -> FaultAction {
        if site != self.site {
            return FaultAction::None;
        }
        if let Some(n) = &self.needle {
            if !detail.contains(n.as_str()) {
                return FaultAction::None;
            }
        }
        let mut b = self.budget.load(Ordering::Relaxed);
        loop {
            if b == 0 {
                return FaultAction::None;
            }
            match self
                .budget
                .compare_exchange_weak(b, b - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => b = cur,
            }
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        self.action
    }
}

/// Mix the coordinates of an injection point into a single deterministic
/// 64-bit value (FNV-1a over the detail string, then a SplitMix64-style
/// finalizer). Pure by construction — the foundation for set-deterministic
/// fault plans.
pub fn mix_site(seed: u64, site: FaultSite, detail: &str, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in site.name().as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ 0x7e).wrapping_mul(0x0000_0100_0000_01B3); // site/detail separator
    for &b in detail.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = h.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // SplitMix64 finalizer for avalanche.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_sensitive() {
        let a = mix_site(1, FaultSite::HdfsRead, "/db/t/p0/c0", 0);
        assert_eq!(a, mix_site(1, FaultSite::HdfsRead, "/db/t/p0/c0", 0));
        assert_ne!(a, mix_site(2, FaultSite::HdfsRead, "/db/t/p0/c0", 0));
        assert_ne!(a, mix_site(1, FaultSite::HdfsAppend, "/db/t/p0/c0", 0));
        assert_ne!(a, mix_site(1, FaultSite::HdfsRead, "/db/t/p0/c1", 0));
        assert_ne!(a, mix_site(1, FaultSite::HdfsRead, "/db/t/p0/c0", 1));
    }

    #[test]
    fn site_names_are_unique() {
        let names: std::collections::HashSet<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), FaultSite::ALL.len());
    }

    #[test]
    fn error_actions_classified() {
        assert!(FaultAction::TransientError.is_error());
        assert!(FaultAction::PermanentError.is_error());
        assert!(FaultAction::CrashBefore.is_error());
        assert!(FaultAction::CrashMid.is_error());
        assert!(FaultAction::CrashAfter.is_error());
        assert!(!FaultAction::None.is_error());
        assert!(!FaultAction::SlowRead.is_error());
        assert!(!FaultAction::Duplicate.is_error());
        assert!(!FaultAction::Delay.is_error());
        assert!(FaultAction::Drop.is_error()); // the send "fails"; sender retransmits
    }
}

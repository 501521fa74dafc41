//! The rate-based [`FaultHook`] the harness installs. Its scripted faults
//! are `vectorh_common::fault::DirectedFault`s, tested here beside it.

use std::sync::atomic::{AtomicU64, Ordering};

use vectorh_common::fault::{mix_site, FaultAction, FaultHook, FaultSite};

/// Number of named injection sites (indexes into per-site arrays).
pub const N_SITES: usize = FaultSite::ALL.len();

/// Stable index of a site within [`FaultSite::ALL`].
pub fn site_index(site: FaultSite) -> usize {
    FaultSite::ALL
        .iter()
        .position(|s| *s == site)
        .expect("every FaultSite appears in FaultSite::ALL")
}

#[derive(Debug, Default, Clone)]
struct SiteCfg {
    rate_permille: u16,
    palette: Vec<FaultAction>,
}

/// A rate-based fault plan: at each configured site, a fault fires with the
/// given per-mille probability, with the action drawn from the site's
/// palette. Both decisions hash the call coordinates through
/// [`mix_site`], so the plan is a pure function of
/// `(site, detail, attempt)` — the fired-fault set cannot depend on thread
/// interleaving (set-determinism). The per-site counters are observational
/// only; they never feed back into decisions.
///
/// Error-class actions fire only at `attempt == 0`, which guarantees that
/// any subsystem with a bounded retry loop (block-store reads/appends, WAL
/// replay) recovers internally: chaos queries must still produce
/// baseline-correct answers.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteCfg; N_SITES],
    fired: [AtomicU64; N_SITES],
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: Default::default(),
            fired: Default::default(),
        }
    }

    /// Arm `site` with a fire rate (0..=1000 per mille) and an action
    /// palette. Builder-style; unarmed sites never fire.
    pub fn with_site(
        mut self,
        site: FaultSite,
        rate_permille: u16,
        palette: &[FaultAction],
    ) -> FaultPlan {
        self.sites[site_index(site)] = SiteCfg {
            rate_permille: rate_permille.min(1000),
            palette: palette.to_vec(),
        };
        self
    }

    /// How many faults fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site_index(site)].load(Ordering::Relaxed)
    }

    /// Per-site fired counters, indexed like [`FaultSite::ALL`].
    pub fn fired_counts(&self) -> [u64; N_SITES] {
        std::array::from_fn(|i| self.fired[i].load(Ordering::Relaxed))
    }
}

impl FaultHook for FaultPlan {
    fn decide(&self, site: FaultSite, detail: &str, attempt: u32) -> FaultAction {
        let cfg = &self.sites[site_index(site)];
        if cfg.rate_permille == 0 || cfg.palette.is_empty() {
            return FaultAction::None;
        }
        let h = mix_site(self.seed, site, detail, attempt);
        if h % 1000 >= cfg.rate_permille as u64 {
            return FaultAction::None;
        }
        let action = cfg.palette[((h >> 32) as usize) % cfg.palette.len()];
        if attempt > 0 && action.is_error() {
            // Transient by construction: retries always clear.
            return FaultAction::None;
        }
        self.fired[site_index(site)].fetch_add(1, Ordering::Relaxed);
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::fault::{DirectedFault, DirectedSet};

    #[test]
    fn plan_is_pure_in_its_coordinates() {
        let mk = || {
            FaultPlan::new(7).with_site(
                FaultSite::HdfsRead,
                500,
                &[FaultAction::TransientError, FaultAction::SlowRead],
            )
        };
        let a = mk();
        let b = mk();
        for i in 0..200 {
            let d = format!("/t/p{}/c0", i % 9);
            assert_eq!(
                a.decide(FaultSite::HdfsRead, &d, 0),
                b.decide(FaultSite::HdfsRead, &d, 0)
            );
        }
        // Each instance saw every coordinate exactly once.
        assert_eq!(a.fired_counts(), b.fired_counts());
        // Re-asking the same coordinates gives the same answer.
        let c = mk();
        assert_eq!(
            c.decide(FaultSite::HdfsRead, "/t/p0/c0", 0),
            c.decide(FaultSite::HdfsRead, "/t/p0/c0", 0)
        );
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let p = FaultPlan::new(3).with_site(FaultSite::XchgSend, 1000, &[FaultAction::Drop]);
        for i in 0..100 {
            assert_eq!(
                p.decide(FaultSite::HdfsRead, &format!("f{i}"), 0),
                FaultAction::None
            );
        }
        assert_eq!(p.fired(FaultSite::HdfsRead), 0);
        assert!(p.fired(FaultSite::XchgSend) == 0); // decide not called yet
        assert_eq!(
            p.decide(FaultSite::XchgSend, "x:w0->d1#1", 0),
            FaultAction::Drop
        );
        assert_eq!(p.fired(FaultSite::XchgSend), 1);
    }

    #[test]
    fn error_actions_clear_on_retry() {
        let p =
            FaultPlan::new(11).with_site(FaultSite::HdfsRead, 1000, &[FaultAction::TransientError]);
        assert_eq!(
            p.decide(FaultSite::HdfsRead, "/f", 0),
            FaultAction::TransientError
        );
        for attempt in 1..4 {
            assert_eq!(
                p.decide(FaultSite::HdfsRead, "/f", attempt),
                FaultAction::None
            );
        }
    }

    #[test]
    fn rate_roughly_honoured() {
        let p = FaultPlan::new(99).with_site(FaultSite::HdfsRead, 250, &[FaultAction::SlowRead]);
        let fired = (0..4000)
            .filter(|i| p.decide(FaultSite::HdfsRead, &format!("/f{i}"), 0) != FaultAction::None)
            .count();
        // 250‰ of 4000 = 1000 expected; allow generous slack.
        assert!(
            (700..1300).contains(&fired),
            "fired {fired} of 4000 at 250‰"
        );
    }

    #[test]
    fn directed_fault_respects_budget_and_site() {
        let d = DirectedFault::new(FaultSite::WalAppend, FaultAction::CrashMid, 2);
        assert_eq!(d.decide(FaultSite::HdfsRead, "x", 0), FaultAction::None);
        assert_eq!(
            d.decide(FaultSite::WalAppend, "a", 0),
            FaultAction::CrashMid
        );
        assert_eq!(
            d.decide(FaultSite::WalAppend, "b", 0),
            FaultAction::CrashMid
        );
        assert_eq!(d.decide(FaultSite::WalAppend, "c", 0), FaultAction::None);
        assert_eq!(d.fired(), 2);
    }

    #[test]
    fn directed_set_routes_to_the_matching_member() {
        let a = DirectedFault::new(FaultSite::Disconnect, FaultAction::TransientError, 1);
        let b = DirectedFault::new(FaultSite::ConnRefused, FaultAction::TransientError, 1);
        let set = DirectedSet::new(&[a.clone(), b.clone()]);
        assert_eq!(
            set.decide(FaultSite::ConnRefused, "0->1:c16", 0),
            FaultAction::TransientError
        );
        assert_eq!(
            set.decide(FaultSite::PartialFrame, "x", 0),
            FaultAction::None
        );
        assert_eq!(
            set.decide(FaultSite::Disconnect, "0->1:c16#3", 0),
            FaultAction::TransientError
        );
        // Budgets live in the members, shared with the caller's handles.
        assert_eq!((a.fired(), b.fired()), (1, 1));
        assert_eq!(
            set.decide(FaultSite::Disconnect, "0->1:c16#4", 0),
            FaultAction::None
        );
    }

    #[test]
    fn matching_fault_filters_on_detail() {
        let d = DirectedFault::matching(
            FaultSite::TwoPhaseDecide,
            FaultAction::CrashBefore,
            1,
            "txn7",
        );
        // Wrong site and non-matching details spend no budget.
        assert_eq!(d.decide(FaultSite::WalAppend, "txn7", 0), FaultAction::None);
        assert_eq!(
            d.decide(FaultSite::TwoPhaseDecide, "txn6", 0),
            FaultAction::None
        );
        assert_eq!(d.fired(), 0);
        // The aimed-at transaction takes the hit; the budget then protects
        // later matches.
        assert_eq!(
            d.decide(FaultSite::TwoPhaseDecide, "txn7", 0),
            FaultAction::CrashBefore
        );
        assert_eq!(
            d.decide(FaultSite::TwoPhaseDecide, "txn7", 0),
            FaultAction::None
        );
        assert_eq!(d.fired(), 1);
    }
}

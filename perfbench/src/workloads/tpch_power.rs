//! `tpch_power`: TPC-H Q1-Q22 as SQL text through `VectorH::query`, one
//! stream (the paper's Figure 7).
//!
//! Joins, aggregation, exchange and the rewriter do most of the work here;
//! the scan is a minority share. So a scan-only change should move this
//! workload a little and a join or aggregation kernel change a lot.
//!
//! One warm-up pass in query order, then timed passes. The seed permutes
//! the order of the 22 statements within each timed pass.

use vectorh_common::rng::SplitMix64;
use vectorh_tpch::N_QUERIES;

use super::{ask, measured, tpch_sql, Env, Outcome, MIN_ROUNDS};
use crate::spec::tpch_kind;

/// The order of pass `pass` under `seed`.
pub fn pass_order(seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (1..=N_QUERIES).collect();
    SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut order);
    order
}

fn pass(env: &mut Env, order: &[usize]) -> crate::Result<()> {
    for &q in order {
        let kind = tpch_kind(q);
        ask(env, &kind, &kind, tpch_sql(q)?);
    }
    Ok(())
}

pub fn run(env: &mut Env) -> crate::Result<Outcome> {
    pass(env, &(1..=N_QUERIES).collect::<Vec<_>>())?;
    env.rec.reset_samples();
    let seed = env.seed;
    measured(env, MIN_ROUNDS, |env, pacer| {
        while pacer.another() {
            pass(env, &pass_order(seed, pacer.rounds))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = pass_order(7, 1);
        assert_eq!(a, pass_order(7, 1));
        assert_ne!(a, pass_order(8, 1));
        assert_ne!(a, pass_order(7, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=N_QUERIES).collect::<Vec<_>>());
    }
}

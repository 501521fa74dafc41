//! `scan_q1q6`: Q1 and Q6 alternating, one stream.
//!
//! blockstore -> storage -> compress -> `exec::MScan` do almost all the
//! work: Q6 is a filtered scan into one sum, Q1 a scan into a four-group
//! aggregate. The planner, the join kernels, the network, the server and
//! the transaction layer do next to nothing, so an optimisation there
//! should leave this workload unchanged. It is the scan-path item's exit
//! criterion in ROADMAP.md.
//!
//! Two warm-up rounds, then timed rounds of one Q1 and one Q6; the seed
//! decides which of the two goes first in each round.

use vectorh_common::rng::SplitMix64;

use super::{ask, measured, tpch_sql, Env, Outcome, MIN_ROUNDS};
use crate::spec::tpch_kind;

fn round(env: &mut Env, q6_first: bool) -> crate::Result<()> {
    for q in if q6_first { [6, 1] } else { [1, 6] } {
        let kind = tpch_kind(q);
        ask(env, &kind, &kind, tpch_sql(q)?);
    }
    Ok(())
}

pub fn run(env: &mut Env) -> crate::Result<Outcome> {
    for _ in 0..2 {
        round(env, false)?;
    }
    env.rec.reset_samples();
    let mut rng = SplitMix64::new(env.seed);
    measured(env, MIN_ROUNDS, |env, pacer| {
        while pacer.another() {
            round(env, rng.chance(0.5))?;
        }
        Ok(())
    })
}

//! What every exchange shares: how rows are split across consumers and the
//! profile a producer ships home.
//!
//! An Xchg "does not modify the data that streams in and out of it, but only
//! redistributes these streams" (§5). The operators are the distributed
//! ones in [`crate::dxchg`], which also pass pointers between threads of one
//! node; this module holds the pieces they share.

use vectorh_common::{ColumnData, Result};
use vectorh_exec::kernels::gather::scatter_partitions;
use vectorh_exec::kernels::hash::{hash_columns, XCHG_SEED};
use vectorh_exec::operator::ProfileLine;
use vectorh_exec::Batch;

/// How an exchange redistributes rows.
#[derive(Debug, Clone)]
pub enum Partitioning {
    /// All rows to the single consumer (XchgUnion).
    Union,
    /// Hash-partition on the key columns (XchgHashSplit).
    Hash { keys: Vec<usize> },
}

/// Channel depth per consumer. Generous so single-threaded consumers that
/// drain receivers one after another (tests, DXchgUnion tops) cannot
/// deadlock producers; real deployments drain receivers concurrently.
pub(crate) const CHANNEL_CAP: usize = 4096;

/// Partition a batch into per-consumer position lists.
///
/// The `Hash` arm hashes the key columns once, column-at-a-time
/// ([`hash_columns`] with [`XCHG_SEED`] — the same hash vector family every
/// node computes, so co-partitioning lines up), then scatters row ids by
/// hash modulo. No per-row type dispatch.
pub fn partition_positions(
    batch: &Batch,
    partitioning: &Partitioning,
    n_consumers: usize,
) -> Result<Vec<Vec<u32>>> {
    match partitioning {
        Partitioning::Union => {
            let mut out = vec![Vec::new(); n_consumers];
            out[0] = (0..batch.len() as u32).collect();
            Ok(out)
        }
        Partitioning::Hash { keys } => {
            let cols: Vec<&ColumnData> = batch.columns.iter().collect();
            let mut hashes = Vec::new();
            hash_columns(&cols, keys, XCHG_SEED, &mut hashes);
            Ok(scatter_partitions(&hashes, n_consumers))
        }
    }
}

/// Per-thread profile reported by a producer when its pipeline completes.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    pub worker: usize,
    pub lines: Vec<ProfileLine>,
    pub rows_produced: u64,
    pub wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vectorh_common::{DataType, Schema};

    fn batch(vals: Vec<i64>) -> Batch {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        Batch::new(schema, vec![ColumnData::I64(vals)]).unwrap()
    }

    /// The values each consumer receives, sorted.
    fn split(b: &Batch, partitioning: Partitioning, n: usize) -> Vec<Vec<i64>> {
        partition_positions(b, &partitioning, n)
            .unwrap()
            .iter()
            .map(|pos| {
                let mut got = b.gather_u32(pos).column(0).as_i64().unwrap().to_vec();
                got.sort_unstable();
                got
            })
            .collect()
    }

    #[test]
    fn union_funnels_all_rows() {
        let per = split(&batch((0..100).collect()), Partitioning::Union, 1);
        assert_eq!(per, vec![(0..100).collect::<Vec<_>>()]);
    }

    #[test]
    fn hash_split_partitions_disjointly_and_completely() {
        let hash = || Partitioning::Hash { keys: vec![0] };
        let per = split(&batch((0..200).collect()), hash(), 4);
        let mut all: Vec<i64> = per.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        assert!(
            per.iter().filter(|p| !p.is_empty()).count() >= 3,
            "spread across consumers"
        );
        // Same key, same consumer, whatever else the batch holds.
        let reversed = split(&batch((0..200).rev().collect()), hash(), 4);
        assert_eq!(per, reversed, "hash partitioning must be deterministic");
        let half = split(&batch((0..100).collect()), hash(), 4);
        for (a, b) in half.iter().zip(&per) {
            assert!(a.iter().all(|v| b.contains(v)));
        }
    }
}

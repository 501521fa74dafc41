//! Column-at-a-time key hashing.
//!
//! Hashing a vector of multi-column keys proceeds column by column: the
//! hash vector is seeded once, then each key column folds its per-row hash
//! into it. The `match` on the physical column type happens once per
//! column, leaving four monomorphic inner loops (I32/I64/F64/Str) the
//! compiler can unroll and vectorize — versus the old per-row `row_hash`
//! helpers that re-dispatched on type for every single value.
//!
//! Two fixed seeds keep the engine's hash families apart:
//! * [`XCHG_SEED`] — exchange partitioning. Every node must route a given
//!   key to the same consumer, so this seed is part of the wire protocol.
//! * [`JOIN_SEED`] — join/aggregation tables, deliberately different so a
//!   repartitioned stream does not feed a hash table whose bucket choice
//!   correlates with the partition choice (classic cause of clustered
//!   chains after a hash split).
//!
//! Integer keys are normalized to `i64` before mixing, so an `I32` column
//! and an `I64` column holding equal values hash identically — required
//! for cross-width joins (the join compares I32/I64 pairs as `i64`) and for
//! co-partitioning streams whose key widths differ. Float keys hash the
//! bits of `x + 0.0`, so `-0.0` and `+0.0`, which compare equal, meet in
//! one bucket and one exchange consumer.

use vectorh_common::util::{hash_bytes, hash_combine, hash_u64};
use vectorh_common::ColumnData;

/// Seed for exchange partitioning (stable across nodes: wire protocol).
pub const XCHG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed for join build/probe and aggregation group tables.
pub const JOIN_SEED: u64 = 0xA5A5_5A5A_DEAD_BEEF;

/// Fold one column's per-row hashes into `acc` (full vector).
///
/// `acc.len()` must equal the column length. Numeric columns go through
/// the SIMD fold kernels (AVX2 four-lane mix with scalar/portable arms,
/// see [`super::simd`]); strings stay scalar — their per-row work is the
/// byte walk, not the mix. A coded string column whose dictionary is no
/// larger than the vector hashes each entry once and gathers the entry
/// hashes by code: the same hash per row, since an entry's bytes are the
/// row's.
fn fold_column(col: &ColumnData, acc: &mut [u64]) {
    match col {
        ColumnData::I32(v) => super::simd::fold_hash_i32(v, acc),
        ColumnData::I64(v) => super::simd::fold_hash_i64(v, acc),
        ColumnData::F64(v) => super::simd::fold_hash_f64(v, acc),
        ColumnData::Str(v) => match v.dict_codes() {
            Some((dict, codes)) => {
                let entry: Vec<u64> = dict.iter().map(|s| hash_bytes(s.as_bytes())).collect();
                for (h, &c) in acc.iter_mut().zip(codes) {
                    *h = hash_combine(*h, entry[c as usize]);
                }
            }
            None => {
                for (h, s) in acc.iter_mut().zip(v.iter()) {
                    *h = hash_combine(*h, hash_bytes(s.as_bytes()));
                }
            }
        },
    }
}

/// Fold one column's hashes into `acc` for the selected positions only:
/// `acc[j]` accumulates the hash of row `sel[j]`.
fn fold_column_sel(col: &ColumnData, sel: &[u32], acc: &mut [u64]) {
    match col {
        ColumnData::I32(v) => {
            for (h, &i) in acc.iter_mut().zip(sel.iter()) {
                *h = hash_combine(*h, hash_u64(v[i as usize] as i64 as u64));
            }
        }
        ColumnData::I64(v) => {
            for (h, &i) in acc.iter_mut().zip(sel.iter()) {
                *h = hash_combine(*h, hash_u64(v[i as usize] as u64));
            }
        }
        ColumnData::F64(v) => {
            for (h, &i) in acc.iter_mut().zip(sel.iter()) {
                *h = hash_combine(*h, hash_u64((v[i as usize] + 0.0).to_bits()));
            }
        }
        ColumnData::Str(v) => {
            for (h, &i) in acc.iter_mut().zip(sel.iter()) {
                *h = hash_combine(*h, hash_bytes(v.get(i as usize).as_bytes()));
            }
        }
    }
}

/// The hash [`hash_columns`] gives row `i`, for that one row: what a
/// consumer that resolves a row at a time (`Aggr` over dictionary codes)
/// needs to meet the rows hashed a vector at a time in one table.
pub fn hash_row(cols: &[&ColumnData], keys: &[usize], seed: u64, i: usize) -> u64 {
    keys.iter().fold(seed, |h, &k| {
        let value = match cols[k] {
            ColumnData::I32(v) => hash_u64(v[i] as i64 as u64),
            ColumnData::I64(v) => hash_u64(v[i] as u64),
            ColumnData::F64(v) => hash_u64((v[i] + 0.0).to_bits()),
            ColumnData::Str(v) => hash_bytes(v.get(i).as_bytes()),
        };
        hash_combine(h, value)
    })
}

/// Hash the key columns of every row into `out` (cleared and refilled).
///
/// `cols` is the full column set of the batch; `keys` selects the key
/// columns in order. The result for row `i` equals seeding with `seed` and
/// folding each key column's hash in turn — byte-identical to the old
/// row-at-a-time `row_hash`/`row_key_hash` helpers it replaces.
pub fn hash_columns(cols: &[&ColumnData], keys: &[usize], seed: u64, out: &mut Vec<u64>) {
    let n = cols.first().map(|c| c.len()).unwrap_or(0);
    out.clear();
    out.resize(n, seed);
    for &k in keys {
        fold_column(cols[k], out);
    }
}

/// Selection-aware [`hash_columns`]: `out[j]` is the hash of row `sel[j]`.
pub fn hash_columns_sel(
    cols: &[&ColumnData],
    keys: &[usize],
    seed: u64,
    sel: &[u32],
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(sel.len(), seed);
    for &k in keys {
        fold_column_sel(cols[k], sel, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::StrVec;

    fn cols() -> Vec<ColumnData> {
        vec![
            ColumnData::I64(vec![1, -2, 3, i64::MAX, 0]),
            ColumnData::Str(["a", "", "abcdefgh", "x", "y"].into()),
            ColumnData::F64(vec![0.0, -0.0, 1.5, f64::INFINITY, 2.0]),
            ColumnData::I32(vec![7, -7, 0, i32::MIN, i32::MAX]),
        ]
    }

    #[test]
    fn matches_row_at_a_time_reference() {
        let cols = cols();
        let refs: Vec<&ColumnData> = cols.iter().collect();
        for keys in [vec![0], vec![1], vec![0, 1, 2, 3], vec![3, 0]] {
            let mut got = Vec::new();
            hash_columns(&refs, &keys, JOIN_SEED, &mut got);
            for (i, &g) in got.iter().enumerate() {
                assert_eq!(
                    g,
                    hash_row(&refs, &keys, JOIN_SEED, i),
                    "keys {keys:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn a_coded_string_column_hashes_like_the_same_values_flat() {
        // "b" twice in the dictionary; the gather leaves 3 rows of a
        // 4-entry dictionary, which are hashed row by row.
        let dict = StrVec::from(["b", "", "a value well past sixteen bytes", "b"]);
        let coded = StrVec::coded(dict, vec![3, 0, 1, 2, 2, 3, 0]).unwrap();
        for coded in [coded.clone(), coded.gather([6, 2, 5].into_iter())] {
            assert!(coded.is_coded());
            let flat: StrVec = coded.iter().collect();
            let ints = ColumnData::I64((0..coded.len() as i64).collect());
            let (coded, flat) = (ColumnData::Str(coded), ColumnData::Str(flat));
            for seed in [XCHG_SEED, JOIN_SEED] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                hash_columns(&[&ints, &coded], &[1, 0], seed, &mut a);
                hash_columns(&[&ints, &flat], &[1, 0], seed, &mut b);
                assert_eq!(a, b, "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn i32_and_i64_columns_hash_identically() {
        // Regression: equal key values must hash the same regardless of the
        // physical integer width, including negatives (sign extension) —
        // otherwise cross-width joins and co-partitioning silently break.
        let vals = [0i64, 1, -1, 42, -42, i32::MAX as i64, i32::MIN as i64];
        let narrow = ColumnData::I32(vals.iter().map(|&v| v as i32).collect());
        let wide = ColumnData::I64(vals.to_vec());
        for seed in [XCHG_SEED, JOIN_SEED] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            hash_columns(&[&narrow], &[0], seed, &mut a);
            hash_columns(&[&wide], &[0], seed, &mut b);
            assert_eq!(a, b, "seed {seed:#x}");
        }
    }

    #[test]
    fn the_two_zeros_hash_alike_on_every_path() {
        let neg = ColumnData::F64(vec![-0.0, 7.0, -0.0]);
        let pos = ColumnData::F64(vec![0.0, 7.0, 0.0]);
        for seed in [XCHG_SEED, JOIN_SEED] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            hash_columns(&[&neg], &[0], seed, &mut a);
            hash_columns(&[&pos], &[0], seed, &mut b);
            assert_eq!(a, b, "hash_columns, seed {seed:#x}");
            hash_columns_sel(&[&neg], &[0], seed, &[2, 0], &mut a);
            hash_columns_sel(&[&pos], &[0], seed, &[2, 0], &mut b);
            assert_eq!(a, b, "hash_columns_sel, seed {seed:#x}");
            assert_eq!(a[0], hash_row(&[&neg], &[0], seed, 0), "hash_row");
        }
    }

    #[test]
    fn selection_variant_matches_full() {
        let cols = cols();
        let refs: Vec<&ColumnData> = cols.iter().collect();
        let keys = vec![0, 1];
        let mut full = Vec::new();
        hash_columns(&refs, &keys, XCHG_SEED, &mut full);
        let sel = [4u32, 0, 2];
        let mut picked = Vec::new();
        hash_columns_sel(&refs, &keys, XCHG_SEED, &sel, &mut picked);
        assert_eq!(picked, vec![full[4], full[0], full[2]]);
    }

    #[test]
    fn seeds_give_independent_families() {
        let col = ColumnData::I64((0..64).collect());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        hash_columns(&[&col], &[0], XCHG_SEED, &mut a);
        hash_columns(&[&col], &[0], JOIN_SEED, &mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn empty_batch_and_empty_keys() {
        let col = ColumnData::I64(vec![]);
        let mut out = vec![123];
        hash_columns(&[&col], &[0], JOIN_SEED, &mut out);
        assert!(out.is_empty());
        let col = ColumnData::I64(vec![5, 6]);
        hash_columns(&[&col], &[], JOIN_SEED, &mut out);
        assert_eq!(out, vec![JOIN_SEED; 2]);
    }
}

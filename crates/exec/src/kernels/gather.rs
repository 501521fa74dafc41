//! Outer-join gather, group-key row append and exchange scatter kernels.
//!
//! Join and aggregation results are materialized by gathering matched row
//! ids out of columnar build-side data; the plain gather is
//! `ColumnData::gather`, and an outer join's misses take defaults through
//! [`gather_or_default`]. Exchange operators scatter row ids into
//! per-partition position lists. Like the hash kernels, the type dispatch
//! happens once per column and the inner loops run over primitive slices.
//!
//! Row ids are `u32` throughout (the hash table's currency), which also
//! halves the index vector footprint versus `usize` positions.

use vectorh_common::{ColumnData, StrVec};

use super::table::EMPTY;

/// Gather where [`EMPTY`] positions produce the type's default value
/// (empty string / 0). Serves outer joins: unmatched probe rows take
/// defaults on the build side, flagged by a separate `__matched` column.
pub fn gather_or_default(col: &ColumnData, idx: &[u32]) -> ColumnData {
    match col {
        ColumnData::I32(v) => ColumnData::I32(
            idx.iter()
                .map(|&i| if i == EMPTY { 0 } else { v[i as usize] })
                .collect(),
        ),
        ColumnData::I64(v) => ColumnData::I64(
            idx.iter()
                .map(|&i| if i == EMPTY { 0 } else { v[i as usize] })
                .collect(),
        ),
        ColumnData::F64(v) => ColumnData::F64(
            idx.iter()
                .map(|&i| if i == EMPTY { 0.0 } else { v[i as usize] })
                .collect(),
        ),
        ColumnData::Str(v) => {
            let at = |i: u32| if i == EMPTY { "" } else { v.get(i as usize) };
            let bytes = idx.iter().map(|&i| at(i).len()).sum();
            let mut out = StrVec::with_capacity(idx.len(), bytes);
            for &i in idx {
                out.push(at(i));
            }
            ColumnData::Str(out)
        }
    }
}

/// Append row `i` of `src` onto `dst` (physical layouts must match).
///
/// The group-key spill path of hash aggregation: a new group copies its key
/// row into the columnar key store.
pub fn append_row(dst: &mut ColumnData, src: &ColumnData, i: usize) {
    match (dst, src) {
        (ColumnData::I32(d), ColumnData::I32(s)) => d.push(s[i]),
        (ColumnData::I64(d), ColumnData::I64(s)) => d.push(s[i]),
        (ColumnData::I64(d), ColumnData::I32(s)) => d.push(s[i] as i64),
        (ColumnData::F64(d), ColumnData::F64(s)) => d.push(s[i]),
        (ColumnData::Str(d), ColumnData::Str(s)) => d.push(s.get(i)),
        (d, s) => unreachable!("append_row {:?} <- {:?}", d.physical(), s.physical()),
    }
}

/// Scatter row ids into `n_parts` position lists by hash modulo.
///
/// Consumes the same hash vector the kernels produce, so an exchange hashes
/// each batch exactly once.
pub fn scatter_partitions(hashes: &[u64], n_parts: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); n_parts];
    for (i, &h) in hashes.iter().enumerate() {
        out[(h % n_parts as u64) as usize].push(i as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_or_default_fills_sentinels() {
        let got = gather_or_default(&ColumnData::I64(vec![10, 20]), &[1, EMPTY, 0]);
        assert_eq!(got, ColumnData::I64(vec![20, 0, 10]));
        let got = gather_or_default(&ColumnData::Str(["x"].into()), &[EMPTY, 0]);
        assert_eq!(got, ColumnData::Str(["", "x"].into()));
    }

    #[test]
    fn scatter_covers_all_rows_disjointly() {
        let hashes: Vec<u64> = (0..100).map(vectorh_common::util::hash_u64).collect();
        let parts = scatter_partitions(&hashes, 4);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        for (p, rows) in parts.iter().enumerate() {
            for &r in rows {
                assert_eq!(hashes[r as usize] % 4, p as u64);
            }
        }
    }

    #[test]
    fn append_row_widens_i32() {
        let mut d = ColumnData::I64(vec![]);
        append_row(&mut d, &ColumnData::I32(vec![-5]), 0);
        assert_eq!(d, ColumnData::I64(vec![-5]));
    }
}

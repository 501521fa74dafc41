//! HashJoin: build/probe hash join with vectorized probing.
//!
//! The build side is drained into columnar storage indexed by a flat
//! open-addressing table ([`kernels::table::HashTable`]); probe vectors are
//! hashed column-at-a-time in bulk ([`kernels::hash`]) and matches gathered
//! column-wise ([`kernels::gather`]). Modes cover what TPC-H needs: inner,
//! left-outer, semi (EXISTS / IN) and anti (NOT EXISTS).
//!
//! Left-outer note: VectorH-rs columns are non-nullable (TPC-H data has no
//! NULLs), so unmatched probe rows get type-default build values and the
//! output carries a synthetic trailing `__matched` column (1/0). Aggregates
//! over the nullable side — e.g. Q13's `count(o_orderkey)` — become
//! `sum(__matched)`, which is the same number.

use std::sync::Arc;

use vectorh_common::{ColumnData, DataType, Field, Result, Schema, VhError};

use crate::batch::Batch;
use crate::kernels::gather::{gather, gather_or_default};
use crate::kernels::hash::{hash_columns, JOIN_SEED};
use crate::kernels::table::{HashTable, EMPTY};
use crate::operator::{Counters, OpProfile, Operator};

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Probe-preserving outer join (see module docs for NULL handling).
    LeftOuter,
    /// Emit probe rows with at least one match (probe schema only).
    Semi,
    /// Emit probe rows with no match (probe schema only).
    Anti,
}

/// Are the key columns of (a, i) and (b, j) equal?
pub(crate) fn keys_eq(
    a: &[&ColumnData],
    akeys: &[usize],
    i: usize,
    b: &[&ColumnData],
    bkeys: &[usize],
    j: usize,
) -> bool {
    akeys
        .iter()
        .zip(bkeys)
        .all(|(&ka, &kb)| match (a[ka], b[kb]) {
            (ColumnData::I32(x), ColumnData::I32(y)) => x[i] == y[j],
            (ColumnData::I64(x), ColumnData::I64(y)) => x[i] == y[j],
            (ColumnData::I32(x), ColumnData::I64(y)) => x[i] as i64 == y[j],
            (ColumnData::I64(x), ColumnData::I32(y)) => x[i] == y[j] as i64,
            (ColumnData::F64(x), ColumnData::F64(y)) => x[i] == y[j],
            (ColumnData::Str(x), ColumnData::Str(y)) => x.eq_at(i, y, j),
            _ => false,
        })
}

/// Columnar build side plus its hash index: drain an operator once, probe
/// with hash vectors.
struct BuildSide {
    data: Vec<ColumnData>,
    table: HashTable,
    keys: Vec<usize>,
}

impl BuildSide {
    fn drain(input: &mut dyn Operator, keys: &[usize]) -> Result<BuildSide> {
        let schema = input.schema();
        let mut data: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        let mut table = HashTable::new();
        let mut hashes = Vec::new();
        while let Some(batch) = input.next()? {
            for (dst, src) in data.iter_mut().zip(&batch.columns) {
                dst.append(src)?;
            }
            let cols: Vec<&ColumnData> = batch.columns.iter().collect();
            hash_columns(&cols, keys, JOIN_SEED, &mut hashes);
            table.insert_batch(&hashes);
        }
        Ok(BuildSide {
            data,
            table,
            keys: keys.to_vec(),
        })
    }

    /// Match one probe batch: for each probe row, every build row with an
    /// equal key. Returns parallel (probe position, build row) vectors.
    fn match_inner(
        &self,
        cols: &[&ColumnData],
        probe_keys: &[usize],
        hashes: &[u64],
    ) -> (Vec<u32>, Vec<u32>) {
        let build_cols: Vec<&ColumnData> = self.data.iter().collect();
        let mut probe_idx = Vec::new();
        let mut build_idx = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            for bi in self.table.candidates(h) {
                if keys_eq(&build_cols, &self.keys, bi as usize, cols, probe_keys, i) {
                    probe_idx.push(i as u32);
                    build_idx.push(bi);
                }
            }
        }
        (probe_idx, build_idx)
    }
}

/// The hash join operator. Left child = probe, right child = build.
pub struct HashJoin {
    probe: Box<dyn Operator>,
    build: Box<dyn Operator>,
    probe_keys: Vec<usize>,
    kind: JoinKind,
    built: Option<BuildSide>,
    build_keys: Vec<usize>,
    out_schema: Arc<Schema>,
    counters: Counters,
}

impl HashJoin {
    pub fn new(
        probe: Box<dyn Operator>,
        build: Box<dyn Operator>,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        kind: JoinKind,
    ) -> Result<HashJoin> {
        // Empty key lists are allowed for inner joins only: every build row
        // hashes to the bare seed and `keys_eq` is vacuously true, so the
        // normal probe path degenerates into a cross product. The planner
        // emits this for uncorrelated scalar subqueries (one-row build side).
        if probe_keys.len() != build_keys.len()
            || (probe_keys.is_empty() && kind != JoinKind::Inner)
        {
            return Err(VhError::Exec("mismatched join keys".into()));
        }
        let out_schema = match kind {
            JoinKind::Inner => Arc::new(probe.schema().join(&build.schema())),
            JoinKind::LeftOuter => {
                let mut s = probe.schema().join(&build.schema());
                s = s.join(&Schema::new(vec![Field::new("__matched", DataType::I32)]));
                Arc::new(s)
            }
            JoinKind::Semi | JoinKind::Anti => probe.schema(),
        };
        Ok(HashJoin {
            probe,
            build,
            probe_keys,
            kind,
            built: None,
            build_keys,
            out_schema,
            counters: Counters::default(),
        })
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        if self.built.is_none() {
            self.built = Some(BuildSide::drain(self.build.as_mut(), &self.build_keys)?);
        }
        let side = self.built.as_ref().unwrap();
        let mut hashes = Vec::new();
        let out = loop {
            let Some(batch) = self.probe.next()? else {
                break None;
            };
            self.counters.rows_in += batch.len() as u64;
            let cols: Vec<&ColumnData> = batch.columns.iter().collect();
            hash_columns(&cols, &self.probe_keys, JOIN_SEED, &mut hashes);

            match self.kind {
                JoinKind::Inner => {
                    let (probe_idx, build_idx) = side.match_inner(&cols, &self.probe_keys, &hashes);
                    if probe_idx.is_empty() {
                        continue;
                    }
                    let left = batch.gather_u32(&probe_idx);
                    let mut columns = left.columns;
                    columns.extend(side.data.iter().map(|c| gather(c, &build_idx)));
                    break Some(Batch::new(self.out_schema.clone(), columns)?);
                }
                JoinKind::LeftOuter => {
                    let build_cols: Vec<&ColumnData> = side.data.iter().collect();
                    let mut probe_idx: Vec<u32> = Vec::new();
                    // Build side: a real row id, or EMPTY for "unmatched".
                    let mut build_idx: Vec<u32> = Vec::new();
                    for (i, &h) in hashes.iter().enumerate() {
                        let mut any = false;
                        for bi in side.table.candidates(h) {
                            if keys_eq(
                                &build_cols,
                                &side.keys,
                                bi as usize,
                                &cols,
                                &self.probe_keys,
                                i,
                            ) {
                                probe_idx.push(i as u32);
                                build_idx.push(bi);
                                any = true;
                            }
                        }
                        if !any {
                            probe_idx.push(i as u32);
                            build_idx.push(EMPTY);
                        }
                    }
                    let left = batch.gather_u32(&probe_idx);
                    let matched: Vec<i32> =
                        build_idx.iter().map(|&b| (b != EMPTY) as i32).collect();
                    let mut columns = left.columns;
                    columns.extend(side.data.iter().map(|c| gather_or_default(c, &build_idx)));
                    columns.push(ColumnData::I32(matched));
                    break Some(Batch::new(self.out_schema.clone(), columns)?);
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let build_cols: Vec<&ColumnData> = side.data.iter().collect();
                    let want_match = self.kind == JoinKind::Semi;
                    let mut keep: Vec<u32> = Vec::new();
                    for (i, &h) in hashes.iter().enumerate() {
                        let any = side.table.candidates(h).any(|bi| {
                            keys_eq(
                                &build_cols,
                                &side.keys,
                                bi as usize,
                                &cols,
                                &self.probe_keys,
                                i,
                            )
                        });
                        if any == want_match {
                            keep.push(i as u32);
                        }
                    }
                    if keep.is_empty() {
                        continue;
                    }
                    break Some(batch.gather_u32(&keep));
                }
            }
        };
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        if let Some(b) = &out {
            self.counters.rows_out += b.len() as u64;
        }
        Ok(out)
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile("HashJoin")
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.probe.as_ref(), self.build.as_ref()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BatchSource;
    use vectorh_common::{Value, VECTOR_SIZE};

    fn table(name_prefix: &str, keys: Vec<i64>, payload: Vec<i64>) -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[
            (&format!("{name_prefix}_k"), DataType::I64),
            (&format!("{name_prefix}_v"), DataType::I64),
        ]));
        let batch = Batch::new(
            schema,
            vec![ColumnData::I64(keys), ColumnData::I64(payload)],
        )
        .unwrap();
        Box::new(BatchSource::from_batch(batch, VECTOR_SIZE))
    }

    #[test]
    fn inner_join_basic() {
        let probe = table("l", vec![1, 2, 3, 2], vec![10, 20, 30, 21]);
        let build = table("r", vec![2, 3, 4], vec![200, 300, 400]);
        let mut j = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::Inner).unwrap();
        let mut rows = crate::batch::collect_rows(&mut j).unwrap();
        rows.sort_by_key(|r| (r[0].as_i64(), r[1].as_i64()));
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![
                Value::I64(2),
                Value::I64(20),
                Value::I64(2),
                Value::I64(200)
            ]
        );
        assert_eq!(
            rows[1],
            vec![
                Value::I64(2),
                Value::I64(21),
                Value::I64(2),
                Value::I64(200)
            ]
        );
        assert_eq!(
            rows[2],
            vec![
                Value::I64(3),
                Value::I64(30),
                Value::I64(3),
                Value::I64(300)
            ]
        );
    }

    #[test]
    fn inner_join_duplicate_build_keys() {
        let probe = table("l", vec![7], vec![1]);
        let build = table("r", vec![7, 7, 7], vec![1, 2, 3]);
        let mut j = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::Inner).unwrap();
        let rows = crate::batch::collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 3, "one probe row × three build rows");
    }

    #[test]
    fn left_outer_join_marks_matches() {
        let probe = table("c", vec![1, 2, 3], vec![0, 0, 0]);
        let build = table("o", vec![2], vec![99]);
        let mut j = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::LeftOuter).unwrap();
        assert_eq!(*j.schema().names().last().unwrap(), "__matched");
        let mut rows = crate::batch::collect_rows(&mut j).unwrap();
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][4], Value::I32(0)); // key 1: no match
        assert_eq!(rows[1][4], Value::I32(1)); // key 2: matched
        assert_eq!(rows[1][3], Value::I64(99));
        assert_eq!(rows[2][4], Value::I32(0));
    }

    #[test]
    fn semi_and_anti() {
        let probe = table("l", vec![1, 2, 3, 4], vec![1, 2, 3, 4]);
        let build = table("r", vec![2, 4, 9], vec![0, 0, 0]);
        let mut semi = HashJoin::new(
            table("l", vec![1, 2, 3, 4], vec![1, 2, 3, 4]),
            table("r", vec![2, 4, 9], vec![0, 0, 0]),
            vec![0],
            vec![0],
            JoinKind::Semi,
        )
        .unwrap();
        let rows = crate::batch::collect_rows(&mut semi).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert_eq!(rows[0].len(), 2, "semi join keeps probe schema");

        let mut anti = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::Anti).unwrap();
        let rows = crate::batch::collect_rows(&mut anti).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn string_keys_join() {
        let schema = Arc::new(Schema::of(&[("name", DataType::Str)]));
        let mk = |names: Vec<&str>| -> Box<dyn Operator> {
            let batch = Batch::new(schema.clone(), vec![ColumnData::Str(names.into())]).unwrap();
            Box::new(BatchSource::from_batch(batch, VECTOR_SIZE))
        };
        let mut j = HashJoin::new(
            mk(vec!["a", "b", "c"]),
            mk(vec!["b", "c", "d"]),
            vec![0],
            vec![0],
            JoinKind::Inner,
        )
        .unwrap();
        let rows = crate::batch::collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn multi_key_join() {
        let schema = Arc::new(Schema::of(&[("a", DataType::I64), ("b", DataType::I64)]));
        let mk = |pairs: Vec<(i64, i64)>| -> Box<dyn Operator> {
            let batch = Batch::new(
                schema.clone(),
                vec![
                    ColumnData::I64(pairs.iter().map(|p| p.0).collect()),
                    ColumnData::I64(pairs.iter().map(|p| p.1).collect()),
                ],
            )
            .unwrap();
            Box::new(BatchSource::from_batch(batch, VECTOR_SIZE))
        };
        let mut j = HashJoin::new(
            mk(vec![(1, 1), (1, 2), (2, 1)]),
            mk(vec![(1, 2), (2, 2)]),
            vec![0, 1],
            vec![0, 1],
            JoinKind::Inner,
        )
        .unwrap();
        let rows = crate::batch::collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(1));
        assert_eq!(rows[0][1], Value::I64(2));
    }

    #[test]
    fn empty_build_side() {
        let probe = table("l", vec![1, 2], vec![1, 2]);
        let build = table("r", vec![], vec![]);
        let mut j = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::Inner).unwrap();
        assert!(crate::batch::collect_rows(&mut j).unwrap().is_empty());
    }

    #[test]
    fn cross_width_keys_i32_probe_i64_build() {
        // An I32 (date-layout) probe key against an I64 build key: the
        // normalized hash kernels must route equal values to the same chain.
        let pschema = Arc::new(Schema::of(&[("k", DataType::I32)]));
        let probe = Batch::new(pschema, vec![ColumnData::I32(vec![1, -2, 3])]).unwrap();
        let probe: Box<dyn Operator> = Box::new(BatchSource::from_batch(probe, VECTOR_SIZE));
        let bschema = Arc::new(Schema::of(&[("k", DataType::I64)]));
        let build = Batch::new(bschema, vec![ColumnData::I64(vec![-2, 3, 4])]).unwrap();
        let build: Box<dyn Operator> = Box::new(BatchSource::from_batch(build, VECTOR_SIZE));
        let mut j = HashJoin::new(probe, build, vec![0], vec![0], JoinKind::Inner).unwrap();
        let mut rows = crate::batch::collect_rows(&mut j).unwrap();
        rows.sort_by_key(|r| match r[0] {
            Value::I32(x) => x,
            _ => 0,
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::I64(-2));
        assert_eq!(rows[1][1], Value::I64(3));
    }
}

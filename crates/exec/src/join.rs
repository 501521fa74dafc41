//! HashJoin: build once, then match each probe vector through loops over
//! arrays.
//!
//! The build side is drained into columns and indexed by one
//! [`HashTable`](crate::kernels::table::HashTable) — chain heads plus a
//! `next` link per build row — under one of two slot functions:
//!
//! * **Direct slots.** A build keyed on one I32/I64 column whose values span
//!   at most `max(4 · build rows, 4096)` slots is indexed by `key − min`.
//!   The bound is a constant of the build's own size, not an option: at most
//!   16 bytes of heads per build row, which covers every dense primary key
//!   (TPC-H's part, supplier, customer, nation, region). A chain then holds
//!   equal keys only, so a probe row costs a range check and one load: no
//!   hash, no bucket, no key compare. `key − min` is taken only after
//!   `min ≤ key ≤ max` holds, so no key overflows it.
//! * **Hash slots**, for everything else (several keys, sparse ranges,
//!   strings, floats). The probe vector is hashed column-wise
//!   ([`hash_columns`]) and [`HashTable::probe_batch`] gives each row its
//!   first candidate. The candidates are compared as (probe position,
//!   build row) pairs with one typed loop per key column — an I32/I64 pair
//!   widened in the loop, coded strings of one dictionary compared by code
//!   first — and only the candidates whose chain goes on are followed to
//!   their next candidate for another round.
//!
//! **Order.** Every kind emits probe-row major, and the build rows of one
//! probe row in chain order: last-inserted first. Both slot functions chain
//! rows that way. The candidate rounds find the k-th candidate of every
//! probe row in round k; when a later round matches, a stable counting sort
//! by probe position restores probe-row major order. Goldens fingerprint
//! rows byte for byte and float sums downstream depend on row order, so this
//! order is a contract, held by `tests/kernel_equivalence.rs` against an
//! unsorted reference.
//!
//! **Move path.** When a vector's output probe positions are exactly
//! `0..n`, each probe row once and in order (a foreign key meeting its
//! primary key), the probe columns are moved into the output instead of
//! gathered. A semi or anti join that keeps every row passes the vector on.
//!
//! **One build per node.** A [`SharedBuild`] is built by the first of the
//! joins holding it that asks, while the others wait. Its input is the
//! node's live sub-plan for a replicated side, a copy of rows drained once
//! at the master for a broadcast one. The join that built it lists that
//! input as its child, so the build's operators and time are under it.
//!
//! Left-outer note: VectorH-rs columns are non-nullable (TPC-H data has no
//! NULLs), so unmatched probe rows get type-default build values and the
//! output carries a synthetic trailing `__matched` column (1/0). Aggregates
//! over the nullable side — e.g. Q13's `count(o_orderkey)` — become
//! `sum(__matched)`, which is the same number.

use std::sync::{Arc, OnceLock};

use vectorh_common::sync::Mutex;
use vectorh_common::{ColumnData, DataType, Field, Result, Schema, VhError};

use crate::batch::Batch;
use crate::kernels::gather::gather_or_default;
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

/// Direct slots: at most this many per build row…
const DIRECT_SLOTS_PER_ROW: usize = 4;
/// …or this many, whichever is more.
const DIRECT_SLOTS_MIN: usize = 4096;

/// The `[min, max]` range of a single integer build key, when it spans few
/// enough slots to index the build by `key − min`.
fn direct_range(data: &[ColumnData], keys: &[usize]) -> Option<(i64, i64)> {
    let [k] = keys else { return None };
    let (min, max) = match &data[*k] {
        ColumnData::I32(v) => (*v.iter().min()? as i64, *v.iter().max()? as i64),
        ColumnData::I64(v) => (*v.iter().min()?, *v.iter().max()?),
        _ => return None,
    };
    let slots = DIRECT_SLOTS_MIN.max(DIRECT_SLOTS_PER_ROW * data[*k].len());
    ((max as i128 - min as i128) < slots as i128).then_some((min, max))
}

/// The built side: the build rows as columns plus the index over them.
struct BuildSide {
    data: Vec<ColumnData>,
    keys: Vec<usize>,
    table: HashTable,
    /// The key range of a direct-slot table (slot = key − min); `None` for
    /// a table of hash slots.
    direct: Option<(i64, i64)>,
}

impl BuildSide {
    /// Drain `input` and index its rows on the key columns `keys`.
    fn drain(input: &mut dyn Operator, keys: &[usize]) -> Result<BuildSide> {
        let schema = input.schema();
        let mut data: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        while let Some(batch) = input.next()? {
            for (dst, src) in data.iter_mut().zip(&batch.columns) {
                dst.append(src)?;
            }
        }
        let direct = direct_range(&data, keys);
        let table = match direct {
            Some((min, max)) => {
                let mut table = HashTable::with_slots((max as i128 - min as i128) as usize + 1);
                let slot = |x: i64| (x - min) as usize;
                match &data[keys[0]] {
                    ColumnData::I32(v) => table.insert_slots(v.iter().map(|&x| slot(x as i64))),
                    ColumnData::I64(v) => table.insert_slots(v.iter().map(|&x| slot(x))),
                    _ => unreachable!("direct slots index an integer key"),
                }
                table
            }
            None => {
                let cols: Vec<&ColumnData> = data.iter().collect();
                let mut hashes = Vec::new();
                hash_columns(&cols, keys, JOIN_SEED, &mut hashes);
                let mut table = HashTable::new();
                table.insert_batch(&hashes);
                table
            }
        };
        Ok(BuildSide {
            data,
            keys: keys.to_vec(),
            table,
            direct,
        })
    }

    /// Every (probe position, build row) pair of equal keys, appended to
    /// `pidx`/`bidx` probe-row major and in chain order within a row. With
    /// `outer`, a probe row without a match appears once, paired with
    /// [`EMPTY`].
    fn pairs(
        &self,
        probe: &[&ColumnData],
        pkeys: &[usize],
        s: &mut ProbeBuffers,
        outer: bool,
        pidx: &mut Vec<u32>,
        bidx: &mut Vec<u32>,
    ) {
        let n = probe.first().map_or(0, |c| c.len());
        pidx.clear();
        bidx.clear();
        pidx.reserve(n);
        bidx.reserve(n);
        if let Some(range) = self.direct {
            match probe[pkeys[0]] {
                ColumnData::I32(v) => {
                    let keys = v.iter().map(|&k| Some(k as i64));
                    self.direct_pairs(range, keys, outer, pidx, bidx)
                }
                ColumnData::I64(v) => {
                    let keys = v.iter().map(|&k| Some(k));
                    self.direct_pairs(range, keys, outer, pidx, bidx)
                }
                // A float or string key equals no integer.
                _ => self.direct_pairs(range, std::iter::repeat_n(None, n), outer, pidx, bidx),
            }
            return;
        }
        self.first_candidates(probe, pkeys, s);
        let mut in_order = true;
        while !s.pos.is_empty() {
            self.compare(probe, pkeys, s);
            for ((&p, &r), &eq) in s.pos.iter().zip(&s.rows).zip(&s.eq) {
                if eq {
                    in_order &= pidx.last().is_none_or(|&last| last <= p);
                    pidx.push(p);
                    bidx.push(r);
                }
            }
            self.next_candidates(s, |_| true);
        }
        if outer || !in_order {
            probe_major(n, outer, pidx, bidx, s);
        }
    }

    /// [`pairs`](Self::pairs) through a direct-slot table, `keys` being the
    /// probe key of each row (`None`: a key no integer equals).
    fn direct_pairs(
        &self,
        range: (i64, i64),
        keys: impl Iterator<Item = Option<i64>>,
        outer: bool,
        pidx: &mut Vec<u32>,
        bidx: &mut Vec<u32>,
    ) {
        for (i, k) in (0u32..).zip(keys) {
            let mut r = k.map_or(EMPTY, |k| self.slot_head(range, k));
            if r == EMPTY && outer {
                pidx.push(i);
                bidx.push(EMPTY);
            }
            while r != EMPTY {
                pidx.push(i);
                bidx.push(r);
                r = self.table.next_row(r);
            }
        }
    }

    /// The first build row of key `k` in a direct-slot table over `[min,
    /// max]`, or [`EMPTY`]. `k − min` is taken only inside the range, where
    /// it cannot overflow.
    #[inline]
    fn slot_head(&self, (min, max): (i64, i64), k: i64) -> u32 {
        if (min..=max).contains(&k) {
            self.table.head((k - min) as usize)
        } else {
            EMPTY
        }
    }

    /// `matched[i]`: does probe row `i` have at least one match?
    fn matched(&self, probe: &[&ColumnData], pkeys: &[usize], s: &mut ProbeBuffers) {
        let n = probe.first().map_or(0, |c| c.len());
        s.matched.clear();
        if let Some(range) = self.direct {
            let hit = |k: i64| self.slot_head(range, k) != EMPTY;
            match probe[pkeys[0]] {
                ColumnData::I32(v) => s.matched.extend(v.iter().map(|&k| hit(k as i64))),
                ColumnData::I64(v) => s.matched.extend(v.iter().map(|&k| hit(k))),
                _ => s.matched.resize(n, false),
            }
            return;
        }
        s.matched.resize(n, false);
        self.first_candidates(probe, pkeys, s);
        while !s.pos.is_empty() {
            self.compare(probe, pkeys, s);
            for (&p, &eq) in s.pos.iter().zip(&s.eq) {
                s.matched[p as usize] |= eq;
            }
            // A row that matched needs no further candidate.
            let eq = std::mem::take(&mut s.eq);
            self.next_candidates(s, |j| !eq[j]);
            s.eq = eq;
        }
    }

    /// Hash the probe keys and gather every row's first candidate into
    /// `s.pos`/`s.rows` (rows without one are left out).
    fn first_candidates(&self, probe: &[&ColumnData], pkeys: &[usize], s: &mut ProbeBuffers) {
        hash_columns(probe, pkeys, JOIN_SEED, &mut s.hashes);
        self.table.probe_batch(&s.hashes, &mut s.heads);
        s.pos.clear();
        s.rows.clear();
        for (i, &r) in s.heads.iter().enumerate() {
            if r != EMPTY {
                s.pos.push(i as u32);
                s.rows.push(r);
            }
        }
    }

    /// `s.eq[j]`: are the keys of candidate `j` equal? One typed loop per
    /// key column over all candidates.
    fn compare(&self, probe: &[&ColumnData], pkeys: &[usize], s: &mut ProbeBuffers) {
        s.eq.clear();
        s.eq.resize(s.pos.len(), true);
        for (&pk, &bk) in pkeys.iter().zip(&self.keys) {
            keys_equal(probe[pk], &self.data[bk], &s.pos, &s.rows, &mut s.eq);
        }
    }

    /// Advance candidate `j` to its next candidate where `more(j)`, and
    /// keep the candidates that have one.
    fn next_candidates(&self, s: &mut ProbeBuffers, more: impl Fn(usize) -> bool) {
        let mut kept = 0;
        for j in 0..s.pos.len() {
            let p = s.pos[j];
            if !more(j) {
                continue;
            }
            let r = self.table.next_candidate(s.rows[j], s.hashes[p as usize]);
            if r != EMPTY {
                s.pos[kept] = p;
                s.rows[kept] = r;
                kept += 1;
            }
        }
        s.pos.truncate(kept);
        s.rows.truncate(kept);
    }
}

/// `eq[j] &= probe[pos[j]] == build[rows[j]]`, one loop per pairing of
/// layouts. Columns of types that cannot be equal match nothing.
fn keys_equal(probe: &ColumnData, build: &ColumnData, pos: &[u32], rows: &[u32], eq: &mut [bool]) {
    fn each<A: Copy, B: Copy>(
        a: &[A],
        b: &[B],
        pos: &[u32],
        rows: &[u32],
        eq: &mut [bool],
        same: impl Fn(A, B) -> bool,
    ) {
        for ((e, &p), &r) in eq.iter_mut().zip(pos).zip(rows) {
            *e &= same(a[p as usize], b[r as usize]);
        }
    }
    match (probe, build) {
        (ColumnData::I32(a), ColumnData::I32(b)) => each(a, b, pos, rows, eq, |x, y| x == y),
        (ColumnData::I64(a), ColumnData::I64(b)) => each(a, b, pos, rows, eq, |x, y| x == y),
        (ColumnData::I32(a), ColumnData::I64(b)) => each(a, b, pos, rows, eq, |x, y| x as i64 == y),
        (ColumnData::I64(a), ColumnData::I32(b)) => each(a, b, pos, rows, eq, |x, y| x == y as i64),
        (ColumnData::F64(a), ColumnData::F64(b)) => each(a, b, pos, rows, eq, |x, y| x == y),
        (ColumnData::Str(a), ColumnData::Str(b)) => {
            let codes = a.shared_codes(b);
            for ((e, &p), &r) in eq.iter_mut().zip(pos).zip(rows) {
                let (p, r) = (p as usize, r as usize);
                *e = *e && (codes.is_some_and(|(x, y)| x[p] == y[r]) || a.eq_at(p, b, r));
            }
        }
        _ => eq.fill(false),
    }
}

/// Reorder `pidx`/`bidx` probe-row major (a stable counting sort by probe
/// position, so each row's build rows keep their chain order), and with
/// `outer` give each of the `n` probe rows without a pair one pair with
/// [`EMPTY`].
fn probe_major(
    n: usize,
    outer: bool,
    pidx: &mut Vec<u32>,
    bidx: &mut Vec<u32>,
    s: &mut ProbeBuffers,
) {
    let at = &mut s.counts;
    at.clear();
    at.resize(n + 1, 0);
    for &p in pidx.iter() {
        at[p as usize + 1] += 1;
    }
    // Prefix sums: `at[i]` becomes the first output slot of probe row `i`.
    for i in 0..n {
        let width = if outer { at[i + 1].max(1) } else { at[i + 1] };
        at[i + 1] = at[i] + width;
    }
    let total = at[n] as usize;
    s.pos.clear();
    s.pos.resize(total, EMPTY);
    s.rows.clear();
    s.rows.resize(total, EMPTY);
    if outer {
        for (i, &first) in at[..n].iter().enumerate() {
            s.pos[first as usize] = i as u32;
        }
    }
    for (&p, &b) in pidx.iter().zip(bidx.iter()) {
        let slot = &mut at[p as usize];
        s.pos[*slot as usize] = p;
        s.rows[*slot as usize] = b;
        *slot += 1;
    }
    std::mem::swap(pidx, &mut s.pos);
    std::mem::swap(bidx, &mut s.rows);
}

/// Buffers a join reuses from one probe vector to the next.
#[derive(Default)]
struct ProbeBuffers {
    hashes: Vec<u64>,
    heads: Vec<u32>,
    /// Candidate pairs: probe position, build row.
    pos: Vec<u32>,
    rows: Vec<u32>,
    eq: Vec<bool>,
    matched: Vec<bool>,
    counts: Vec<u32>,
}

/// Are `idx` exactly the positions `0..n`, each once and in order?
fn is_identity(idx: &[u32], n: usize) -> bool {
    idx.len() == n && idx.iter().enumerate().all(|(i, &p)| p as usize == i)
}

/// One build side for several joins (the probe pipelines of one node): the
/// first join that asks drains the input and builds the index; the others
/// wait for it and share the result.
pub struct SharedBuild {
    input: Mutex<Option<Box<dyn Operator>>>,
    schema: Arc<Schema>,
    keys: Vec<usize>,
    side: OnceLock<Result<Arc<BuildSide>>>,
}

impl SharedBuild {
    pub fn new(input: Box<dyn Operator>, keys: Vec<usize>) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            schema: input.schema(),
            input: Mutex::new(Some(input)),
            keys,
            side: OnceLock::new(),
        })
    }

    /// The built side, building it on the first call. The caller that
    /// builds it gets the drained input in `drained` (for its profile).
    fn get(&self, drained: &mut Option<Box<dyn Operator>>) -> Result<Arc<BuildSide>> {
        let side = self.side.get_or_init(|| {
            let mut input = self
                .input
                .lock()
                .take()
                .expect("a build side is built once");
            let side = BuildSide::drain(input.as_mut(), &self.keys).map(Arc::new);
            *drained = Some(input);
            side
        });
        side.clone()
    }
}

/// The hash join operator. Left child = probe, right child = build.
pub struct HashJoin {
    probe: Box<dyn Operator>,
    build: Arc<SharedBuild>,
    probe_keys: Vec<usize>,
    kind: JoinKind,
    built: Option<Arc<BuildSide>>,
    /// The build input, when this join is the one that drained it.
    drained: Option<Box<dyn Operator>>,
    out_schema: Arc<Schema>,
    bufs: ProbeBuffers,
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
        HashJoin::shared(probe, SharedBuild::new(build, build_keys), probe_keys, kind)
    }

    /// A join over a build side other joins may share.
    pub fn shared(
        probe: Box<dyn Operator>,
        build: Arc<SharedBuild>,
        probe_keys: Vec<usize>,
        kind: JoinKind,
    ) -> Result<HashJoin> {
        // Empty key lists are allowed for inner joins only: every build row
        // hashes to the bare seed and the key compare is vacuously true, so
        // the normal probe path degenerates into a cross product. The
        // planner emits this for uncorrelated scalar subqueries (one-row
        // build side).
        if probe_keys.len() != build.keys.len()
            || (probe_keys.is_empty() && kind != JoinKind::Inner)
        {
            return Err(VhError::Exec("mismatched join keys".into()));
        }
        let out_schema = match kind {
            JoinKind::Inner => Arc::new(probe.schema().join(&build.schema)),
            JoinKind::LeftOuter => {
                let mut s = probe.schema().join(&build.schema);
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
            drained: None,
            out_schema,
            bufs: ProbeBuffers::default(),
            counters: Counters::default(),
        })
    }

    /// The output for one probe vector, or `None` when no row of it
    /// survives.
    fn join_vector(&mut self, side: &BuildSide, batch: Batch) -> Result<Option<Batch>> {
        let n = batch.len();
        let s = &mut self.bufs;
        let (mut pidx, mut bidx) = (Vec::new(), Vec::new());
        {
            let cols: Vec<&ColumnData> = batch.columns.iter().collect();
            match self.kind {
                JoinKind::Inner | JoinKind::LeftOuter => {
                    let outer = self.kind == JoinKind::LeftOuter;
                    side.pairs(&cols, &self.probe_keys, s, outer, &mut pidx, &mut bidx);
                }
                JoinKind::Semi | JoinKind::Anti => {
                    side.matched(&cols, &self.probe_keys, s);
                    let want = self.kind == JoinKind::Semi;
                    pidx.extend((0..n as u32).filter(|&i| s.matched[i as usize] == want));
                }
            }
        }
        if pidx.is_empty() {
            return Ok(None);
        }
        let mut columns = if is_identity(&pidx, n) {
            batch.columns
        } else {
            batch.columns.iter().map(|c| c.gather(&pidx)).collect()
        };
        match self.kind {
            JoinKind::Inner => columns.extend(side.data.iter().map(|c| c.gather(&bidx))),
            JoinKind::LeftOuter => {
                columns.extend(side.data.iter().map(|c| gather_or_default(c, &bidx)));
                columns.push(ColumnData::I32(
                    bidx.iter().map(|&b| (b != EMPTY) as i32).collect(),
                ));
            }
            JoinKind::Semi | JoinKind::Anti => {}
        }
        Batch::new(self.out_schema.clone(), columns).map(Some)
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = std::time::Instant::now();
        if self.built.is_none() {
            self.built = Some(self.build.get(&mut self.drained)?);
        }
        let side = self.built.clone().expect("built above");
        let out = loop {
            let Some(batch) = self.probe.next()? else {
                break None;
            };
            self.counters.rows_in += batch.len() as u64;
            if let Some(out) = self.join_vector(&side, batch)? {
                break Some(out);
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
        let mut children = vec![self.probe.as_ref()];
        children.extend(self.drained.as_deref());
        children
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
    fn the_two_float_zeros_join_as_one_key() {
        let schema = Arc::new(Schema::of(&[("x", DataType::F64)]));
        let mk = |vals: Vec<f64>| -> Box<dyn Operator> {
            let batch = Batch::new(schema.clone(), vec![ColumnData::F64(vals)]).unwrap();
            Box::new(BatchSource::from_batch(batch, VECTOR_SIZE))
        };
        let rows = |kind| {
            let mut j = HashJoin::new(
                mk(vec![0.0, 1.5, 2.0]),
                mk(vec![-0.0, 1.5]),
                vec![0],
                vec![0],
                kind,
            )
            .unwrap();
            crate::batch::collect_rows(&mut j).unwrap()
        };
        let f = Value::F64;
        assert_eq!(
            rows(JoinKind::Inner),
            vec![vec![f(0.0), f(-0.0)], vec![f(1.5), f(1.5)]]
        );
        assert_eq!(
            rows(JoinKind::LeftOuter),
            vec![
                vec![f(0.0), f(-0.0), Value::I32(1)],
                vec![f(1.5), f(1.5), Value::I32(1)],
                vec![f(2.0), f(0.0), Value::I32(0)],
            ]
        );
        assert_eq!(rows(JoinKind::Semi), vec![vec![f(0.0)], vec![f(1.5)]]);
        assert_eq!(rows(JoinKind::Anti), vec![vec![f(2.0)]]);
    }

    /// A build input that counts how often it is drained.
    struct Counted(Box<dyn Operator>, Arc<std::sync::atomic::AtomicUsize>);

    impl Operator for Counted {
        fn schema(&self) -> Arc<Schema> {
            self.0.schema()
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            let out = self.0.next()?;
            if out.is_none() {
                self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(out)
        }
        fn profile(&self) -> OpProfile {
            self.0.profile()
        }
        fn children(&self) -> Vec<&dyn Operator> {
            vec![]
        }
    }

    #[test]
    fn a_shared_build_is_built_once_for_all_its_joins() {
        let drains = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let build = SharedBuild::new(
            Box::new(Counted(
                table("r", vec![2, 3, 4], vec![20, 30, 40]),
                drains.clone(),
            )),
            vec![0],
        );
        let joins: Vec<HashJoin> = (0..4)
            .map(|t| {
                let probe = table("l", vec![t, t + 1, t + 2], vec![0, 0, 0]);
                HashJoin::shared(probe, build.clone(), vec![0], JoinKind::Inner).unwrap()
            })
            .collect();
        let counts: Vec<usize> = std::thread::scope(|scope| {
            let runs: Vec<_> = joins
                .into_iter()
                .map(|mut j| {
                    scope.spawn(move || {
                        let rows = crate::batch::collect_rows(&mut j).unwrap().len();
                        // Only the join that drained the input shows it.
                        (rows, j.children().len())
                    })
                })
                .collect();
            let done: Vec<(usize, usize)> = runs.into_iter().map(|h| h.join().unwrap()).collect();
            let builders = done.iter().filter(|(_, children)| *children == 2).count();
            assert_eq!(builders, 1, "one join builds and profiles the build");
            done.into_iter().map(|(rows, _)| rows).collect()
        });
        assert_eq!(counts, vec![1, 2, 3, 2]);
        assert_eq!(drains.load(std::sync::atomic::Ordering::SeqCst), 1);
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

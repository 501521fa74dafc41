//! Typed column buffers.
//!
//! [`ColumnData`] is the unit of data movement everywhere in VectorH-rs:
//! storage blocks hold one, the vectorized engine processes slices of one,
//! codecs compress one. Logical types map onto four physical layouts:
//! `I32` (ints and dates), `I64` (bigints and scaled decimals), `F64`,
//! and `Str` (a [`StrVec`]: one byte buffer plus offsets, or dictionary
//! codes, and no `String` per value either way).

use std::cmp::Ordering;

use crate::strvec::StrVec;
use crate::types::{DataType, Value};
use crate::{Result, VhError};

/// Physical column buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(StrVec),
}

/// The physical layout a logical [`DataType`] is stored in.
pub fn physical_of(dtype: DataType) -> PhysicalType {
    match dtype {
        DataType::I32 | DataType::Date => PhysicalType::I32,
        DataType::I64 | DataType::Decimal { .. } => PhysicalType::I64,
        DataType::F64 => PhysicalType::F64,
        DataType::Str => PhysicalType::Str,
    }
}

/// Physical layout tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    I32,
    I64,
    F64,
    Str,
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

impl ColumnData {
    /// Empty buffer of the physical layout for `dtype`.
    pub fn new(dtype: DataType) -> Self {
        Self::with_capacity(dtype, 0)
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match physical_of(dtype) {
            PhysicalType::I32 => ColumnData::I32(Vec::with_capacity(cap)),
            PhysicalType::I64 => ColumnData::I64(Vec::with_capacity(cap)),
            PhysicalType::F64 => ColumnData::F64(Vec::with_capacity(cap)),
            PhysicalType::Str => ColumnData::Str(StrVec::with_capacity(cap, 0)),
        }
    }

    pub fn physical(&self) -> PhysicalType {
        match self {
            ColumnData::I32(_) => PhysicalType::I32,
            ColumnData::I64(_) => PhysicalType::I64,
            ColumnData::F64(_) => PhysicalType::F64,
            ColumnData::Str(_) => PhysicalType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed footprint in bytes (strings count their UTF-8 payload
    /// plus a 4-byte length, matching a packed on-disk layout). A coded
    /// string vector reports what the same values take flat, not its codes
    /// and dictionary, summed over its codes on each call: the exchange
    /// flushes a buffer and the `net` counters count a message by this, and
    /// neither may depend on the layout.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v.byte_len() + 4 * v.len(),
        }
    }

    /// Read one element as a [`Value`], interpreting the physical data using
    /// the logical `dtype` (so decimals keep their scale and dates print as
    /// dates).
    pub fn value_at(&self, idx: usize, dtype: DataType) -> Value {
        match (self, dtype) {
            (ColumnData::I32(v), DataType::Date) => Value::Date(v[idx]),
            (ColumnData::I32(v), _) => Value::I32(v[idx]),
            (ColumnData::I64(v), DataType::Decimal { scale }) => Value::Decimal(v[idx], scale),
            (ColumnData::I64(v), _) => Value::I64(v[idx]),
            (ColumnData::F64(v), _) => Value::F64(v[idx]),
            (ColumnData::Str(v), _) => Value::Str(v.get(idx).to_owned()),
        }
    }

    /// Order element `idx` against `v` as [`value_at`](Self::value_at)
    /// would, without cloning a string out of the column to do it.
    pub fn cmp_at(&self, idx: usize, dtype: DataType, v: &Value) -> Option<Ordering> {
        match (self, v) {
            (ColumnData::Str(c), Value::Str(s)) => Some(c.get(idx).cmp(s)),
            (ColumnData::Str(_), _) => None,
            _ => self.value_at(idx, dtype).partial_cmp(v),
        }
    }

    /// Order element `i` against element `j` of `other` in place, as their
    /// [`value_at`](Self::value_at)s would compare: no `Value` is built and
    /// no string leaves its column. Integers compare exactly (two `I64`s
    /// past 2^53 that `Value` would call equal through `f64` are ordered);
    /// what `Value` cannot order (a NaN, a string against a number) is
    /// `Equal`.
    pub fn cmp_rows(&self, i: usize, other: &ColumnData, j: usize) -> Ordering {
        use ColumnData::*;
        match (self, other) {
            (I32(a), I32(b)) => a[i].cmp(&b[j]),
            (I64(a), I64(b)) => a[i].cmp(&b[j]),
            (I32(a), I64(b)) => (a[i] as i64).cmp(&b[j]),
            (I64(a), I32(b)) => a[i].cmp(&(b[j] as i64)),
            (Str(a), Str(b)) => a.get(i).cmp(b.get(j)),
            (Str(_), _) | (_, Str(_)) => Ordering::Equal,
            (F64(a), b) => cmp_f64(a[i], b.f64_at(j)),
            (a, F64(b)) => cmp_f64(a.f64_at(i), b[j]),
        }
    }

    /// A numeric element as `f64` (`cmp_rows` across layouts).
    fn f64_at(&self, i: usize) -> f64 {
        match self {
            ColumnData::I32(v) => v[i] as f64,
            ColumnData::I64(v) => v[i] as f64,
            ColumnData::F64(v) => v[i],
            ColumnData::Str(_) => f64::NAN,
        }
    }

    /// Append a [`Value`]; must match the physical layout.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnData::I32(c), Value::I32(x)) => c.push(*x),
            (ColumnData::I32(c), Value::Date(x)) => c.push(*x),
            (ColumnData::I64(c), Value::I64(x)) => c.push(*x),
            (ColumnData::I64(c), Value::Decimal(x, _)) => c.push(*x),
            (ColumnData::I64(c), Value::I32(x)) => c.push(*x as i64),
            (ColumnData::F64(c), Value::F64(x)) => c.push(*x),
            (ColumnData::Str(c), Value::Str(x)) => c.push(x),
            (c, v) => {
                return Err(VhError::InvalidArg(format!(
                    "cannot push {v:?} into {:?} column",
                    c.physical()
                )))
            }
        }
        Ok(())
    }

    /// Append all values of `other`; physical layouts must match.
    pub fn append(&mut self, other: &ColumnData) -> Result<()> {
        self.extend_range(other, 0, other.len())
    }

    /// Append rows `[from, to)` of `src`; physical layouts must match.
    /// Numerics are one `memcpy`, strings one for the bytes and one pass
    /// over the offsets.
    pub fn extend_range(&mut self, src: &ColumnData, from: usize, to: usize) -> Result<()> {
        match (self, src) {
            (ColumnData::I32(a), ColumnData::I32(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnData::F64(a), ColumnData::F64(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_range(b, from, to),
            _ => {
                return Err(VhError::InvalidArg(
                    "column append with mismatched physical types".into(),
                ))
            }
        }
        Ok(())
    }

    /// Copy the subrange `[from, to)` into a new buffer.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::I32(v) => ColumnData::I32(v[from..to].to_vec()),
            ColumnData::I64(v) => ColumnData::I64(v[from..to].to_vec()),
            ColumnData::F64(v) => ColumnData::F64(v[from..to].to_vec()),
            ColumnData::Str(v) => {
                let mut out = StrVec::with_capacity(to - from, 0);
                out.extend_range(v, from, to);
                ColumnData::Str(out)
            }
        }
    }

    /// Gather the listed positions into a new buffer. Positions are `u32`
    /// row ids, the currency of the kernels (a selection vector, a join's
    /// matches, an exchange's partition lists, a sort permutation).
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        match self {
            ColumnData::I32(v) => ColumnData::I32(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::I64(v) => ColumnData::I64(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::F64(v) => ColumnData::F64(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => ColumnData::Str(v.gather(idx.iter().map(|&i| i as usize))),
        }
    }

    /// Borrow as `&[i32]`, if that is the physical layout.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ColumnData::I32(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_strs(&self) -> Option<&StrVec> {
        match self {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn truncate(&mut self, len: usize) {
        match self {
            ColumnData::I32(v) => v.truncate(len),
            ColumnData::I64(v) => v.truncate(len),
            ColumnData::F64(v) => v.truncate(len),
            ColumnData::Str(v) => v.truncate(len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn physical_mapping() {
        assert_eq!(physical_of(DataType::Date), PhysicalType::I32);
        assert_eq!(
            physical_of(DataType::Decimal { scale: 2 }),
            PhysicalType::I64
        );
        assert_eq!(physical_of(DataType::Str), PhysicalType::Str);
    }

    #[test]
    fn push_and_read_values() {
        let mut c = ColumnData::new(DataType::Decimal { scale: 2 });
        c.push_value(&Value::Decimal(125, 2)).unwrap();
        c.push_value(&Value::I32(3)).unwrap(); // widened to i64 raw
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.value_at(0, DataType::Decimal { scale: 2 }),
            Value::Decimal(125, 2)
        );
        assert!(c.push_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn date_column_roundtrip() {
        let mut c = ColumnData::new(DataType::Date);
        c.push_value(&Value::Date(9190)).unwrap();
        assert_eq!(c.value_at(0, DataType::Date), Value::Date(9190));
    }

    #[test]
    fn slice_and_gather() {
        let c = ColumnData::I64(vec![10, 20, 30, 40]);
        assert_eq!(c.slice(1, 3), ColumnData::I64(vec![20, 30]));
        assert_eq!(c.gather(&[3, 0]), ColumnData::I64(vec![40, 10]));
    }

    #[test]
    fn gather_all_layouts() {
        let idx = [2u32, 0, 2];
        assert_eq!(
            ColumnData::I32(vec![5, 6, 7]).gather(&idx),
            ColumnData::I32(vec![7, 5, 7])
        );
        assert_eq!(
            ColumnData::I64(vec![5, 6, 7]).gather(&idx),
            ColumnData::I64(vec![7, 5, 7])
        );
        assert_eq!(
            ColumnData::F64(vec![0.5, 1.5, 2.5]).gather(&idx),
            ColumnData::F64(vec![2.5, 0.5, 2.5])
        );
        assert_eq!(
            ColumnData::Str(["a", "b", "c"].into()).gather(&idx),
            ColumnData::Str(["c", "a", "c"].into())
        );
    }

    #[test]
    fn append_checks_types() {
        let mut a = ColumnData::I32(vec![1]);
        a.append(&ColumnData::I32(vec![2, 3])).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.append(&ColumnData::I64(vec![4])).is_err());
    }

    /// A string of 0..=3 pieces, each empty, ASCII, multi-byte or long.
    fn arbitrary_string(rng: &mut SplitMix64) -> String {
        const PIECES: [&str; 8] = [
            "",
            "a",
            "R",
            "é",
            "日本",
            "🎉",
            "flag",
            "a value well past sixteen bytes",
        ];
        (0..rng.next_bounded(4))
            .map(|_| PIECES[rng.next_bounded(PIECES.len() as u64) as usize])
            .collect()
    }

    fn arbitrary_strings(rng: &mut SplitMix64, max: u64) -> Vec<String> {
        (0..rng.next_bounded(max + 1))
            .map(|_| arbitrary_string(rng))
            .collect()
    }

    /// Does the column hold exactly the model's strings, by every way of
    /// reading it?
    fn assert_holds(col: &ColumnData, model: &[String], what: &str) {
        let v = col.as_strs().expect("a string column");
        assert_eq!(col.len(), model.len(), "{what}: len");
        assert_eq!(v.iter().len(), model.len(), "{what}: iter len");
        assert!(
            v.iter().eq(model.iter().map(String::as_str)),
            "{what}: iter"
        );
        for (i, m) in model.iter().enumerate() {
            assert_eq!(v.get(i), m, "{what}: get({i})");
            assert_eq!(
                col.value_at(i, DataType::Str),
                Value::Str(m.clone()),
                "{what}"
            );
        }
        let bytes: usize = model.iter().map(String::len).sum();
        assert_eq!(v.byte_len(), bytes, "{what}: byte_len");
        assert_eq!(
            col.byte_size(),
            bytes + 4 * model.len(),
            "{what}: byte_size"
        );
        // Equal to the flat vector of the model either way round, and
        // printed alike, whichever layout the column is in.
        let flat: StrVec = model.iter().collect();
        assert_eq!(*v, flat, "{what}: content equality");
        assert_eq!(flat, *v, "{what}: content equality, flat first");
        assert_eq!(format!("{v:?}"), format!("{model:?}"), "{what}: Debug");
    }

    /// `model` as a coded vector: a dictionary of its distinct values in
    /// random order, some twice, plus an entry of its own (as a PDICT
    /// exception) for some rows; each row takes one of the codes naming
    /// its value.
    fn coded(rng: &mut SplitMix64, model: &[String]) -> StrVec {
        let mut dict: Vec<&String> = Vec::new();
        for s in model {
            if !dict.contains(&s) {
                dict.insert(rng.next_bounded(dict.len() as u64 + 1) as usize, s);
            }
        }
        for _ in 0..rng.next_bounded(3) {
            if let Some(&s) = rng.choose(&dict) {
                dict.push(s);
            }
        }
        let codes = model
            .iter()
            .map(|s| {
                if rng.chance(0.1) {
                    dict.push(s);
                    return dict.len() as u32 - 1;
                }
                let naming: Vec<usize> = (0..dict.len()).filter(|&k| dict[k] == s).collect();
                *rng.choose(&naming).unwrap() as u32
            })
            .collect();
        StrVec::coded(dict.into_iter().collect(), codes).unwrap()
    }

    #[test]
    fn prop_string_columns_behave_like_a_vec_of_strings() {
        let mut meta = SplitMix64::new(0x0057_7EC5);
        for case in 0..1200 {
            let seed = meta.next_u64();
            let rng = &mut SplitMix64::new(seed);
            let what = format!("case {case} seed {seed:#x}");
            // Built by push, from an iterator, as codes, or empty.
            let mut model = arbitrary_strings(rng, 40);
            let mut col = match case % 4 {
                0 => ColumnData::Str(model.iter().collect()),
                1 => {
                    let mut c = ColumnData::new(DataType::Str);
                    for s in &model {
                        c.push_value(&Value::Str(s.clone())).unwrap();
                    }
                    c
                }
                2 => ColumnData::Str(coded(rng, &model)),
                _ => {
                    model.clear();
                    ColumnData::with_capacity(DataType::Str, 8)
                }
            };
            assert_holds(&col, &model, &what);
            for step in 0..8 {
                let what = format!("{what} step {step}");
                // Flat, coded against a dictionary of its own, or rows of
                // the column itself (coded against its dictionary, if any).
                let mut other = arbitrary_strings(rng, 24);
                let other_col = match rng.next_bounded(3) {
                    0 => ColumnData::Str(other.iter().collect()),
                    1 => ColumnData::Str(coded(rng, &other)),
                    _ => {
                        let rows = if model.is_empty() { 0 } else { other.len() };
                        let idx: Vec<u32> = (0..rows)
                            .map(|_| rng.next_bounded(model.len() as u64) as u32)
                            .collect();
                        other = idx.iter().map(|&i| model[i as usize].clone()).collect();
                        col.gather(&idx)
                    }
                };
                let n = model.len() as u64;
                match rng.next_bounded(7) {
                    0 => {
                        col.append(&other_col).unwrap();
                        model.extend(other.iter().cloned());
                    }
                    1 => {
                        let from = rng.next_bounded(other.len() as u64 + 1) as usize;
                        let to = from + rng.next_bounded((other.len() - from) as u64 + 1) as usize;
                        col.extend_range(&other_col, from, to).unwrap();
                        model.extend(other[from..to].iter().cloned());
                    }
                    2 => {
                        let from = rng.next_bounded(n + 1) as usize;
                        let to = from + rng.next_bounded(n - from as u64 + 1) as usize;
                        col = col.slice(from, to);
                        model = model[from..to].to_vec();
                    }
                    3 if n > 0 => {
                        // Repeats, any order, possibly nothing.
                        let idx: Vec<u32> = (0..rng.next_bounded(2 * n + 1))
                            .map(|_| rng.next_bounded(n) as u32)
                            .collect();
                        let was_coded = col.as_strs().unwrap().is_coded();
                        col = col.gather(&idx);
                        assert_eq!(col.as_strs().unwrap().is_coded(), was_coded, "{what}");
                        model = idx.iter().map(|&i| model[i as usize].clone()).collect();
                    }
                    4 => {
                        let len = rng.next_bounded(n + 3) as usize;
                        col.truncate(len);
                        model.truncate(len);
                    }
                    5 => {
                        let s = arbitrary_string(rng);
                        col.push_value(&Value::Str(s.clone())).unwrap();
                        model.push(s);
                    }
                    _ => {
                        for (i, a) in model.iter().enumerate() {
                            for (j, b) in other.iter().enumerate() {
                                let want = a.cmp(b);
                                assert_eq!(col.cmp_rows(i, &other_col, j), want, "{what}");
                                let b = Value::Str(b.clone());
                                assert_eq!(col.cmp_at(i, DataType::Str, &b), Some(want));
                                let (x, y) = (col.as_strs().unwrap(), other_col.as_strs().unwrap());
                                assert_eq!(x.eq_at(i, y, j), want == Ordering::Equal, "{what}");
                            }
                        }
                    }
                }
                assert_holds(&col, &model, &what);
            }
        }
    }

    #[test]
    fn cmp_rows_orders_like_the_values_on_every_layout() {
        use DataType::*;
        let cols = [
            (ColumnData::I32(vec![3, -1, 3, i32::MIN, i32::MAX, 0]), Date),
            (ColumnData::I32(vec![3, -1, 3, i32::MIN, i32::MAX, 0]), I32),
            (ColumnData::I64(vec![5, 5, -7, 1 << 40, -(1 << 40), 0]), I64),
            (
                ColumnData::I64(vec![125, 100, 125, -1, 0, 99]),
                Decimal { scale: 2 },
            ),
            (
                ColumnData::F64(vec![0.5, -0.0, 0.0, f64::INFINITY, -2.5, 0.5]),
                F64,
            ),
            (
                ColumnData::Str(["b", "", "ab", "abc", "ab", "é"].into()),
                Str,
            ),
        ];
        for (col, dt) in &cols {
            for i in 0..col.len() {
                for j in 0..col.len() {
                    let want = col
                        .value_at(i, *dt)
                        .partial_cmp(&col.value_at(j, *dt))
                        .unwrap();
                    assert_eq!(col.cmp_rows(i, col, j), want, "{dt:?} {i} vs {j}");
                    // What `Sort` does with a `Desc` key.
                    assert_eq!(col.cmp_rows(j, col, i), want.reverse(), "{dt:?} desc");
                }
            }
        }
        // Across integer widths and against floats, as the values compare.
        let (narrow, wide) = (ColumnData::I32(vec![-2, 7]), ColumnData::I64(vec![7, -2]));
        assert_eq!(narrow.cmp_rows(0, &wide, 1), Ordering::Equal);
        assert_eq!(narrow.cmp_rows(0, &wide, 0), Ordering::Less);
        assert_eq!(wide.cmp_rows(0, &narrow, 0), Ordering::Greater);
        let floats = ColumnData::F64(vec![6.5, f64::NAN]);
        assert_eq!(wide.cmp_rows(0, &floats, 0), Ordering::Greater);
        assert_eq!(floats.cmp_rows(0, &narrow, 1), Ordering::Less);
        // What `Value` cannot order is `Equal`: a NaN, a string against a number.
        assert_eq!(floats.cmp_rows(1, &floats, 0), Ordering::Equal);
        assert_eq!(cols[5].0.cmp_rows(0, &wide, 0), Ordering::Equal);
    }

    #[test]
    fn byte_size_counts_strings() {
        let c = ColumnData::Str(["ab", "cdef"].into());
        assert_eq!(c.byte_size(), 2 + 4 + 4 + 4);
        assert_eq!(ColumnData::I32(vec![0; 10]).byte_size(), 40);
    }
}

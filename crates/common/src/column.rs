//! Typed column buffers.
//!
//! [`ColumnData`] is the unit of data movement everywhere in VectorH-rs:
//! storage blocks hold one, the vectorized engine processes slices of one,
//! codecs compress one. Logical types map onto four physical layouts:
//! `I32` (ints and dates), `I64` (bigints and scaled decimals), `F64`,
//! and `Str`.

use std::cmp::Ordering;

use crate::types::{DataType, Value};
use crate::{Result, VhError};

/// Physical column buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
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
            PhysicalType::Str => ColumnData::Str(Vec::with_capacity(cap)),
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

    /// Uncompressed in-memory footprint in bytes (strings count their UTF-8
    /// payload plus a 4-byte length, matching a packed on-disk layout).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 4).sum(),
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
            (ColumnData::Str(v), _) => Value::Str(v[idx].clone()),
        }
    }

    /// Order element `idx` against `v` as [`value_at`](Self::value_at)
    /// would, without cloning a string out of the column to do it.
    pub fn cmp_at(&self, idx: usize, dtype: DataType, v: &Value) -> Option<Ordering> {
        match (self, v) {
            (ColumnData::Str(c), Value::Str(s)) => Some(c[idx].as_str().cmp(s)),
            (ColumnData::Str(_), _) => None,
            _ => self.value_at(idx, dtype).partial_cmp(v),
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
            (ColumnData::Str(c), Value::Str(x)) => c.push(x.clone()),
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
        match (self, other) {
            (ColumnData::I32(a), ColumnData::I32(b)) => a.extend_from_slice(b),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend_from_slice(b),
            (ColumnData::F64(a), ColumnData::F64(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend(b.iter().cloned()),
            _ => {
                return Err(VhError::InvalidArg(
                    "column append with mismatched physical types".into(),
                ))
            }
        }
        Ok(())
    }

    /// Append all values of `other` by value: strings move instead of being
    /// cloned, and an empty `self` simply becomes `other`, so a buffer that
    /// holds nothing yet costs no allocation and no copy.
    pub fn append_owned(&mut self, other: ColumnData) -> Result<()> {
        fn move_in<T>(a: &mut Vec<T>, b: Vec<T>) {
            if a.is_empty() {
                *a = b;
            } else {
                a.extend(b);
            }
        }
        match (self, other) {
            (ColumnData::I32(a), ColumnData::I32(b)) => move_in(a, b),
            (ColumnData::I64(a), ColumnData::I64(b)) => move_in(a, b),
            (ColumnData::F64(a), ColumnData::F64(b)) => move_in(a, b),
            (ColumnData::Str(a), ColumnData::Str(b)) => move_in(a, b),
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
            ColumnData::Str(v) => ColumnData::Str(v[from..to].to_vec()),
        }
    }

    /// Move the subrange `[from, to)` out into a new buffer: what
    /// [`slice`](Self::slice) returns, without a heap allocation per string.
    /// `self` keeps its length; the strings of the range are left empty, so
    /// the caller must not read that range again. Everything outside it is
    /// untouched.
    pub fn take_range(&mut self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::Str(v) => {
                ColumnData::Str(v[from..to].iter_mut().map(std::mem::take).collect())
            }
            numeric => numeric.slice(from, to),
        }
    }

    /// Gather the listed positions into a new buffer.
    pub fn gather(&self, idx: &[usize]) -> ColumnData {
        match self {
            ColumnData::I32(v) => ColumnData::I32(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::I64(v) => ColumnData::I64(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::F64(v) => ColumnData::F64(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Borrow as `&[i32]`, if that is the physical layout.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ColumnData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Copy out as `Vec<i64>` regardless of integer width (numeric kernels).
    pub fn to_i64_vec(&self) -> Option<Vec<i64>> {
        match self {
            ColumnData::I32(v) => Some(v.iter().map(|&x| x as i64).collect()),
            ColumnData::I64(v) => Some(v.clone()),
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

    pub fn as_str(&self) -> Option<&[String]> {
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
    fn append_checks_types() {
        let mut a = ColumnData::I32(vec![1]);
        a.append(&ColumnData::I32(vec![2, 3])).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.append(&ColumnData::I64(vec![4])).is_err());
    }

    #[test]
    fn take_range_moves_what_slice_copies_and_leaves_the_rest() {
        let strs = |r: std::ops::Range<usize>| -> Vec<String> {
            r.map(|i| format!("value-{i}")).collect()
        };
        // start, middle, end, empty, everything
        for (from, to) in [(0, 3), (2, 5), (5, 8), (4, 4), (0, 8)] {
            let mut s = ColumnData::Str(strs(0..8));
            let want = s.slice(from, to);
            assert_eq!(s.take_range(from, to), want, "[{from}, {to})");
            assert_eq!(s.len(), 8, "the source keeps its length");
            let left = s.as_str().unwrap();
            for (i, v) in left.iter().enumerate() {
                if (from..to).contains(&i) {
                    assert!(v.is_empty(), "[{from}, {to}): {i} was moved out");
                } else {
                    assert_eq!(*v, format!("value-{i}"), "[{from}, {to}): {i} untouched");
                }
            }
            let mut n = ColumnData::I32((0..8).collect());
            assert_eq!(n.take_range(from, to), n.slice(from, to));
            assert_eq!(n, ColumnData::I32((0..8).collect()));
        }
        let mut f = ColumnData::F64(vec![0.5, 1.5, 2.5]);
        assert_eq!(f.take_range(1, 3), ColumnData::F64(vec![1.5, 2.5]));
        let mut d = ColumnData::I64(vec![10, 20, 30]);
        assert_eq!(d.take_range(0, 1), ColumnData::I64(vec![10]));
    }

    #[test]
    fn append_owned_matches_append_and_checks_types() {
        let parts = [
            ColumnData::Str(vec![]),
            ColumnData::Str(vec!["a".into(), "bc".into()]),
            ColumnData::Str(vec![]),
            ColumnData::Str(vec!["def".into()]),
        ];
        let (mut by_ref, mut by_value) = (ColumnData::new(DataType::Str), parts[0].clone());
        for p in &parts {
            by_ref.append(p).unwrap();
            by_value.append_owned(p.clone()).unwrap();
            assert_eq!(by_value, by_ref);
        }
        assert_eq!(by_value.len(), 3);
        let mut a = ColumnData::I32(vec![]);
        a.append_owned(ColumnData::I32(vec![1, 2])).unwrap();
        a.append_owned(ColumnData::I32(vec![3])).unwrap();
        assert_eq!(a, ColumnData::I32(vec![1, 2, 3]));
        // Rejected whether or not the receiver is empty, and left as it was.
        assert!(a.append_owned(ColumnData::I64(vec![4])).is_err());
        assert!(ColumnData::new(DataType::Str)
            .append_owned(ColumnData::F64(vec![0.0]))
            .is_err());
        assert_eq!(a, ColumnData::I32(vec![1, 2, 3]));
    }

    #[test]
    fn byte_size_counts_strings() {
        let c = ColumnData::Str(vec!["ab".into(), "cdef".into()]);
        assert_eq!(c.byte_size(), 2 + 4 + 4 + 4);
        assert_eq!(ColumnData::I32(vec![0; 10]).byte_size(), 40);
    }
}

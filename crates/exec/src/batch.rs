//! Batches: the unit of data flow between operators.
//!
//! A [`Batch`] bundles equal-length [`ColumnData`] buffers with the schema
//! describing them. Operators exchange batches of at most
//! [`VECTOR_SIZE`](vectorh_common::VECTOR_SIZE) rows; the column buffers of
//! a batch are the "vectors" of the vectorized execution model.

use std::sync::Arc;

use vectorh_common::{ColumnData, Result, Schema, Value, VhError};

/// A bundle of equal-length column vectors.
#[derive(Debug, Clone)]
pub struct Batch {
    pub schema: Arc<Schema>,
    pub columns: Vec<ColumnData>,
    len: usize,
}

impl Batch {
    /// Build a batch; all columns must share one length and match the schema
    /// width.
    pub fn new(schema: Arc<Schema>, columns: Vec<ColumnData>) -> Result<Batch> {
        if columns.len() != schema.len() {
            return Err(VhError::Exec(format!(
                "batch has {} columns, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let len = columns.first().map(|c| c.len()).unwrap_or(0);
        if columns.iter().any(|c| c.len() != len) {
            return Err(VhError::Exec("ragged batch".into()));
        }
        Ok(Batch {
            schema,
            columns,
            len,
        })
    }

    /// An empty batch of the given schema.
    pub fn empty(schema: Arc<Schema>) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        Batch {
            schema,
            columns,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Read a full row as values (row-at-a-time escape hatch; used by the
    /// row-engine baseline and result collection, never in vector kernels).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns
            .iter()
            .enumerate()
            .map(|(c, col)| col.value_at(idx, self.schema.dtype(c)))
            .collect()
    }

    /// Keep only the rows at the given `u32` positions (kernel row ids).
    pub fn gather_u32(&self, positions: &[u32]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(positions)).collect(),
            len: positions.len(),
        }
    }

    /// Subrange `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(from, to)).collect(),
            len: to - from,
        }
    }

    /// Append all rows of `other` (schemas must match).
    pub fn append(&mut self, other: &Batch) -> Result<()> {
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.append(b)?;
        }
        self.len += other.len;
        Ok(())
    }

    /// Concatenate side-by-side (join output): schema and columns of `self`
    /// followed by `other`'s. Lengths must match.
    pub fn zip(&self, other: &Batch) -> Result<Batch> {
        if self.len != other.len {
            return Err(VhError::Exec("zip of unequal-length batches".into()));
        }
        let schema = Arc::new(self.schema.join(&other.schema));
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Ok(Batch {
            schema,
            columns,
            len: self.len,
        })
    }

    /// Materialize every row (testing / result collection).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.row(i)).collect()
    }
}

/// Order-sensitive 64-bit fingerprint of a result set: FNV-1a over a
/// canonical tagged byte encoding of every value, with row boundaries
/// folded in. Two result sets fingerprint equal iff their encodings are
/// byte-for-byte identical — this is what multi-process examples compare
/// across process boundaries, where shipping whole result sets through a
/// control pipe would drown the protocol.
pub fn fingerprint_rows(rows: &[Vec<Value>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for row in rows {
        eat(&[0xFE]); // row boundary: [[1],[2]] != [[1,2]]
        for v in row {
            match v {
                Value::I32(x) => {
                    eat(&[1]);
                    eat(&x.to_le_bytes());
                }
                Value::I64(x) => {
                    eat(&[2]);
                    eat(&x.to_le_bytes());
                }
                Value::Decimal(m, s) => {
                    eat(&[3, *s]);
                    eat(&m.to_le_bytes());
                }
                Value::Date(d) => {
                    eat(&[4]);
                    eat(&d.to_le_bytes());
                }
                Value::F64(x) => {
                    eat(&[5]);
                    eat(&x.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[6]);
                    eat(&(s.len() as u32).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Null => eat(&[7]),
            }
        }
    }
    h
}

/// Collect an operator's full output as rows (drives the tree to completion).
pub fn collect_rows(op: &mut dyn crate::operator::Operator) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    while let Some(batch) = op.next()? {
        out.extend(batch.rows());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::DataType;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::of(&[("a", DataType::I64), ("s", DataType::Str)]))
    }

    fn batch() -> Batch {
        Batch::new(
            schema(),
            vec![
                ColumnData::I64(vec![1, 2, 3]),
                ColumnData::Str(["x", "y", "z"].into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks() {
        assert!(Batch::new(schema(), vec![ColumnData::I64(vec![1])]).is_err());
        assert!(Batch::new(
            schema(),
            vec![ColumnData::I64(vec![1]), ColumnData::new(DataType::Str)]
        )
        .is_err());
        assert_eq!(batch().len(), 3);
        assert!(Batch::empty(schema()).is_empty());
    }

    #[test]
    fn row_access() {
        let b = batch();
        assert_eq!(b.row(1), vec![Value::I64(2), Value::Str("y".into())]);
    }

    #[test]
    fn gather_and_slice() {
        let b = batch();
        let g = b.gather_u32(&[2, 0]);
        assert_eq!(
            g.rows(),
            vec![
                vec![Value::I64(3), Value::Str("z".into())],
                vec![Value::I64(1), Value::Str("x".into())],
            ]
        );
        let s = b.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0)[0], Value::I64(2));
    }

    #[test]
    fn fingerprint_separates_shape_and_content() {
        let a = vec![vec![Value::I64(1), Value::Str("x".into())]];
        assert_eq!(fingerprint_rows(&a), fingerprint_rows(&a.clone()));
        // Same scalars, different row shape.
        let flat = vec![vec![Value::I64(1)], vec![Value::Str("x".into())]];
        assert_ne!(fingerprint_rows(&a), fingerprint_rows(&flat));
        // Same bit pattern, different type tag.
        assert_ne!(
            fingerprint_rows(&[vec![Value::I32(7)]]),
            fingerprint_rows(&[vec![Value::I64(7)]])
        );
        // Order-sensitive (callers canonicalize first).
        let ab = vec![vec![Value::I64(1)], vec![Value::I64(2)]];
        let ba = vec![vec![Value::I64(2)], vec![Value::I64(1)]];
        assert_ne!(fingerprint_rows(&ab), fingerprint_rows(&ba));
        assert_ne!(
            fingerprint_rows(&[vec![Value::Null]]),
            fingerprint_rows(&[])
        );
    }

    #[test]
    fn append_and_zip() {
        let mut a = batch();
        let b = batch();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);

        let left = batch();
        let right = batch();
        let z = left.zip(&right).unwrap();
        assert_eq!(z.schema.len(), 4);
        assert_eq!(z.len(), 3);
        assert_eq!(z.row(0).len(), 4);
    }
}

//! Vectorized expression evaluation.
//!
//! Expressions evaluate column-at-a-time over a [`Batch`]: every node
//! produces a full vector before its parent consumes it, so the per-tuple
//! interpretation cost of a tree is amortized over the whole vector (§2).
//! Numeric work happens on `Vec<i64>` / `Vec<f64>` primitive slices in
//! branch-light loops.
//!
//! Money math is decimal-exact: decimals are scaled `i64` raws; addition
//! aligns scales, multiplication goes through `i128` and rescales (capped at
//! scale 4), exactly the reason the paper gives for using decimals rather
//! than floats in business queries.

use std::sync::Arc;

use vectorh_common::types::date;
use vectorh_common::{ColumnData, DataType, Result, Schema, StrVec, Value, VhError};

use crate::batch::Batch;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Maximum decimal scale kept after multiplication.
const MAX_SCALE: u8 = 4;

/// A vectorized scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column reference.
    Col(usize),
    /// Literal value.
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// `lo <= e AND e <= hi`.
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `e IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// SQL `NOT LIKE`.
    NotLike(Box<Expr>, String),
    /// 1-based `substring(e, start, len)`.
    Substr(Box<Expr>, usize, usize),
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case(Vec<(Expr, Expr)>, Box<Expr>),
    /// `EXTRACT(YEAR FROM e)` for date expressions.
    ExtractYear(Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div build Arith nodes, not std ops
impl Expr {
    // Convenience constructors (used heavily by the planner and TPC-H).
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }
    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(a), Box::new(b))
    }
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(a), Box::new(b))
    }
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(a), Box::new(b))
    }
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(a), Box::new(b))
    }
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(a), Box::new(b))
    }
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(a), Box::new(b))
    }
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(a), Box::new(b))
    }
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(a), Box::new(b))
    }
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(a), Box::new(b))
    }
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b))
    }
    pub fn and(es: Vec<Expr>) -> Expr {
        Expr::And(es)
    }
    pub fn or(es: Vec<Expr>) -> Expr {
        Expr::Or(es)
    }

    /// The same expression with every column reference `c` replaced by
    /// `f(c)`, visited left to right. Re-bases a predicate written against
    /// one schema onto a projection of it.
    pub fn map_cols(&self, f: &mut dyn FnMut(usize) -> usize) -> Expr {
        fn bx(e: &Expr, f: &mut dyn FnMut(usize) -> usize) -> Box<Expr> {
            Box::new(e.map_cols(f))
        }
        match self {
            Expr::Col(c) => Expr::Col(f(*c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, bx(a, f), bx(b, f)),
            Expr::Arith(op, a, b) => Expr::Arith(*op, bx(a, f), bx(b, f)),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.map_cols(f)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.map_cols(f)).collect()),
            Expr::Not(e) => Expr::Not(bx(e, f)),
            Expr::Between(e, lo, hi) => Expr::Between(bx(e, f), bx(lo, f), bx(hi, f)),
            Expr::InList(e, list) => Expr::InList(bx(e, f), list.clone()),
            Expr::Like(e, pat) => Expr::Like(bx(e, f), pat.clone()),
            Expr::NotLike(e, pat) => Expr::NotLike(bx(e, f), pat.clone()),
            Expr::Substr(e, start, len) => Expr::Substr(bx(e, f), *start, *len),
            Expr::Case(arms, else_e) => Expr::Case(
                arms.iter()
                    .map(|(c, v)| (c.map_cols(f), v.map_cols(f)))
                    .collect(),
                bx(else_e, f),
            ),
            Expr::ExtractYear(e) => Expr::ExtractYear(bx(e, f)),
        }
    }

    /// Output type of this expression over inputs of `schema`.
    pub fn dtype(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Col(i) => {
                if *i >= schema.len() {
                    return Err(VhError::Exec(format!("column {i} out of range")));
                }
                schema.dtype(*i)
            }
            Expr::Lit(v) => v.data_type().unwrap_or(DataType::I64),
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Between(..)
            | Expr::InList(..)
            | Expr::Like(..)
            | Expr::NotLike(..) => DataType::I32,
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.dtype(schema)?, b.dtype(schema)?);
                arith_dtype(*op, ta, tb)
            }
            Expr::Substr(..) => DataType::Str,
            Expr::Case(arms, else_e) => arms
                .first()
                .map(|(_, v)| v.dtype(schema))
                .unwrap_or_else(|| else_e.dtype(schema))?,
            Expr::ExtractYear(_) => DataType::I32,
        })
    }

    /// Evaluate over a batch, producing one value per input row.
    pub fn eval(&self, b: &Batch) -> Result<(ColumnData, DataType)> {
        match self {
            Expr::Col(i) => Ok((b.column(*i).clone(), b.schema.dtype(*i))),
            Expr::Lit(v) => {
                let dt = v.data_type().unwrap_or(DataType::I64);
                let mut col = ColumnData::new(dt);
                for _ in 0..b.len() {
                    col.push_value(v)?;
                }
                Ok((col, dt))
            }
            Expr::Cmp(op, a, rhs) => {
                let mask = cmp_mask(*op, a, rhs, b)?;
                Ok((mask_to_col(&mask), DataType::I32))
            }
            Expr::And(es) => {
                let mut mask = vec![true; b.len()];
                for e in es {
                    let m = e.eval_mask(b)?;
                    for (x, y) in mask.iter_mut().zip(m) {
                        *x &= y;
                    }
                }
                Ok((mask_to_col(&mask), DataType::I32))
            }
            Expr::Or(es) => {
                let mut mask = vec![false; b.len()];
                for e in es {
                    let m = e.eval_mask(b)?;
                    for (x, y) in mask.iter_mut().zip(m) {
                        *x |= y;
                    }
                }
                Ok((mask_to_col(&mask), DataType::I32))
            }
            Expr::Not(e) => {
                let m = e.eval_mask(b)?;
                Ok((
                    mask_to_col(&m.iter().map(|x| !x).collect::<Vec<_>>()),
                    DataType::I32,
                ))
            }
            Expr::Between(e, lo, hi) => {
                let lo_mask = cmp_mask(CmpOp::Ge, e, lo, b)?;
                let hi_mask = cmp_mask(CmpOp::Le, e, hi, b)?;
                let m: Vec<bool> = lo_mask.iter().zip(hi_mask).map(|(a, c)| *a && c).collect();
                Ok((mask_to_col(&m), DataType::I32))
            }
            Expr::InList(e, list) => {
                let (col, dt) = e.eval(b)?;
                let m = in_list_mask(&col, dt, list)?;
                Ok((mask_to_col(&m), DataType::I32))
            }
            Expr::Like(e, pat) => {
                let (col, _) = e.eval(b)?;
                let strs = col
                    .as_strs()
                    .ok_or_else(|| VhError::Exec("LIKE over non-string".into()))?;
                let m: Vec<bool> = strs.iter().map(|s| like_match(s, pat)).collect();
                Ok((mask_to_col(&m), DataType::I32))
            }
            Expr::NotLike(e, pat) => {
                let (col, _) = e.eval(b)?;
                let strs = col
                    .as_strs()
                    .ok_or_else(|| VhError::Exec("LIKE over non-string".into()))?;
                let m: Vec<bool> = strs.iter().map(|s| !like_match(s, pat)).collect();
                Ok((mask_to_col(&m), DataType::I32))
            }
            Expr::Substr(e, start, len) => {
                let (col, _) = e.eval(b)?;
                let strs = col
                    .as_strs()
                    .ok_or_else(|| VhError::Exec("SUBSTR over non-string".into()))?;
                let out: StrVec = strs
                    .iter()
                    .map(|s| {
                        let from = (start - 1).min(s.len());
                        let to = (from + len).min(s.len());
                        &s[from..to]
                    })
                    .collect();
                Ok((ColumnData::Str(out), DataType::Str))
            }
            Expr::Arith(op, a, rhs) => arith_eval(*op, a, rhs, b),
            Expr::Case(arms, else_e) => {
                let dt = self.dtype(&b.schema)?;
                let mut decided: Vec<bool> = vec![false; b.len()];
                let mut out: Vec<Value> = vec![Value::Null; b.len()];
                for (cond, val) in arms {
                    let mask = cond.eval_mask(b)?;
                    let (vcol, vdt) = val.eval(b)?;
                    for i in 0..b.len() {
                        if !decided[i] && mask[i] {
                            decided[i] = true;
                            out[i] = vcol.value_at(i, vdt);
                        }
                    }
                }
                let (ecol, edt) = else_e.eval(b)?;
                for i in 0..b.len() {
                    if !decided[i] {
                        out[i] = ecol.value_at(i, edt);
                    }
                }
                let mut col = ColumnData::new(dt);
                for v in &out {
                    col.push_value(v)?;
                }
                Ok((col, dt))
            }
            Expr::ExtractYear(e) => {
                let (col, dt) = e.eval(b)?;
                if dt != DataType::Date {
                    return Err(VhError::Exec("EXTRACT(YEAR) over non-date".into()));
                }
                let days = col
                    .as_i32()
                    .ok_or_else(|| VhError::Exec("date layout".into()))?;
                let out: Vec<i32> = days.iter().map(|&d| date::from_days(d).0).collect();
                Ok((ColumnData::I32(out), DataType::I32))
            }
        }
    }

    /// Evaluate as a boolean mask (selection predicate).
    pub fn eval_mask(&self, b: &Batch) -> Result<Vec<bool>> {
        match self {
            // Fast paths that avoid materializing a 0/1 column.
            Expr::Cmp(op, a, rhs) => cmp_mask(*op, a, rhs, b),
            Expr::And(es) => {
                let mut mask = vec![true; b.len()];
                for e in es {
                    let m = e.eval_mask(b)?;
                    for (x, y) in mask.iter_mut().zip(m) {
                        *x &= y;
                    }
                }
                Ok(mask)
            }
            Expr::Or(es) => {
                let mut mask = vec![false; b.len()];
                for e in es {
                    let m = e.eval_mask(b)?;
                    for (x, y) in mask.iter_mut().zip(m) {
                        *x |= y;
                    }
                }
                Ok(mask)
            }
            Expr::Not(e) => Ok(e.eval_mask(b)?.into_iter().map(|x| !x).collect()),
            _ => {
                let (col, _) = self.eval(b)?;
                match col {
                    ColumnData::I32(v) => Ok(v.into_iter().map(|x| x != 0).collect()),
                    ColumnData::I64(v) => Ok(v.into_iter().map(|x| x != 0).collect()),
                    _ => Err(VhError::Exec(
                        "predicate did not evaluate to boolean".into(),
                    )),
                }
            }
        }
    }
}

fn mask_to_col(mask: &[bool]) -> ColumnData {
    ColumnData::I32(mask.iter().map(|&b| b as i32).collect())
}

/// SQL LIKE: `%` = any run, `_` = any single byte.
pub fn like_match(s: &str, pat: &str) -> bool {
    fn inner(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Try every split point (including empty).
                (0..=s.len()).any(|k| inner(&s[k..], &p[1..]))
            }
            Some(b'_') => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && inner(&s[1..], &p[1..]),
        }
    }
    inner(s.as_bytes(), pat.as_bytes())
}

// --- numeric plumbing -------------------------------------------------------

/// Uniform numeric view of a column: raw i64 with a logical type, or f64.
enum NumVec {
    Int(Vec<i64>, DataType),
    Float(Vec<f64>),
}

fn to_numeric(col: &ColumnData, dt: DataType) -> Result<NumVec> {
    Ok(match col {
        ColumnData::I32(v) => NumVec::Int(v.iter().map(|&x| x as i64).collect(), dt),
        ColumnData::I64(v) => NumVec::Int(v.clone(), dt),
        ColumnData::F64(v) => NumVec::Float(v.clone()),
        ColumnData::Str(_) => return Err(VhError::Exec("numeric op over string".into())),
    })
}

fn scale_of(dt: DataType) -> u8 {
    match dt {
        DataType::Decimal { scale } => scale,
        _ => 0,
    }
}

/// Align two int vectors to a common decimal scale; returns (a, b, scale).
fn align_scales(
    mut a: Vec<i64>,
    ta: DataType,
    mut b: Vec<i64>,
    tb: DataType,
) -> (Vec<i64>, Vec<i64>, u8) {
    let (sa, sb) = (scale_of(ta), scale_of(tb));
    let target = sa.max(sb);
    if sa < target {
        let f = 10i64.pow((target - sa) as u32);
        for x in &mut a {
            *x *= f;
        }
    }
    if sb < target {
        let f = 10i64.pow((target - sb) as u32);
        for x in &mut b {
            *x *= f;
        }
    }
    (a, b, target)
}

fn arith_dtype(op: ArithOp, ta: DataType, tb: DataType) -> DataType {
    use DataType::*;
    if ta == F64 || tb == F64 || op == ArithOp::Div {
        return F64;
    }
    let (sa, sb) = (scale_of(ta), scale_of(tb));
    match op {
        ArithOp::Add | ArithOp::Sub => {
            if sa > 0 || sb > 0 {
                Decimal { scale: sa.max(sb) }
            } else if ta == Date && (tb == I32 || tb == I64) {
                Date
            } else {
                I64
            }
        }
        ArithOp::Mul => {
            if sa > 0 || sb > 0 {
                Decimal {
                    scale: (sa + sb).min(MAX_SCALE),
                }
            } else {
                I64
            }
        }
        ArithOp::Div => F64,
    }
}

fn arith_eval(
    op: ArithOp,
    a: &Expr,
    b_expr: &Expr,
    batch: &Batch,
) -> Result<(ColumnData, DataType)> {
    let (ca, ta) = a.eval(batch)?;
    let (cb, tb) = b_expr.eval(batch)?;
    let na = to_numeric(&ca, ta)?;
    let nb = to_numeric(&cb, tb)?;
    let out_dt = arith_dtype(op, ta, tb);
    match (na, nb) {
        (NumVec::Int(va, ta), NumVec::Int(vb, tb)) if out_dt != DataType::F64 => match op {
            ArithOp::Add | ArithOp::Sub => {
                let (va, vb, scale) = align_scales(va, ta, vb, tb);
                let out: Vec<i64> = if op == ArithOp::Add {
                    va.iter().zip(&vb).map(|(x, y)| x + y).collect()
                } else {
                    va.iter().zip(&vb).map(|(x, y)| x - y).collect()
                };
                let dt = if scale > 0 {
                    DataType::Decimal { scale }
                } else {
                    out_dt
                };
                if dt == DataType::Date {
                    Ok((ColumnData::I32(out.iter().map(|&x| x as i32).collect()), dt))
                } else {
                    Ok((ColumnData::I64(out), dt))
                }
            }
            ArithOp::Mul => {
                let (sa, sb) = (scale_of(ta), scale_of(tb));
                let result_scale = (sa + sb).min(MAX_SCALE);
                let shrink = 10i128.pow((sa + sb - result_scale) as u32);
                let out: Vec<i64> = va
                    .iter()
                    .zip(&vb)
                    .map(|(&x, &y)| ((x as i128 * y as i128) / shrink) as i64)
                    .collect();
                let dt = if result_scale > 0 {
                    DataType::Decimal {
                        scale: result_scale,
                    }
                } else {
                    DataType::I64
                };
                Ok((ColumnData::I64(out), dt))
            }
            ArithOp::Div => unreachable!("division always yields F64"),
        },
        (na, nb) => {
            // Float path (including every division).
            let fa = num_to_f64(na);
            let fb = num_to_f64(nb);
            let out: Vec<f64> = match op {
                ArithOp::Add => fa.iter().zip(&fb).map(|(x, y)| x + y).collect(),
                ArithOp::Sub => fa.iter().zip(&fb).map(|(x, y)| x - y).collect(),
                ArithOp::Mul => fa.iter().zip(&fb).map(|(x, y)| x * y).collect(),
                ArithOp::Div => fa
                    .iter()
                    .zip(&fb)
                    .map(|(x, y)| if *y == 0.0 { 0.0 } else { x / y })
                    .collect(),
            };
            Ok((ColumnData::F64(out), DataType::F64))
        }
    }
}

fn num_to_f64(n: NumVec) -> Vec<f64> {
    match n {
        NumVec::Int(v, dt) => {
            let s = 10f64.powi(scale_of(dt) as i32);
            v.into_iter().map(|x| x as f64 / s).collect()
        }
        NumVec::Float(v) => v,
    }
}

fn cmp_mask(op: CmpOp, a: &Expr, b_expr: &Expr, batch: &Batch) -> Result<Vec<bool>> {
    let (ca, ta) = a.eval(batch)?;
    let (cb, tb) = b_expr.eval(batch)?;
    // String comparison path.
    if let (Some(sa), Some(sb)) = (ca.as_strs(), cb.as_strs()) {
        return Ok(sa
            .iter()
            .zip(sb.iter())
            .map(|(x, y)| apply_ord(op, x.cmp(y)))
            .collect());
    }
    let na = to_numeric(&ca, ta)?;
    let nb = to_numeric(&cb, tb)?;
    match (na, nb) {
        (NumVec::Int(va, ta), NumVec::Int(vb, tb)) => {
            let (va, vb, _) = align_scales(va, ta, vb, tb);
            Ok(va
                .iter()
                .zip(&vb)
                .map(|(x, y)| apply_ord(op, x.cmp(y)))
                .collect())
        }
        (na, nb) => {
            let fa = num_to_f64(na);
            let fb = num_to_f64(nb);
            Ok(fa
                .iter()
                .zip(&fb)
                .map(|(x, y)| x.partial_cmp(y).map(|o| apply_ord(op, o)).unwrap_or(false))
                .collect())
        }
    }
}

fn apply_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn in_list_mask(col: &ColumnData, dt: DataType, list: &[Value]) -> Result<Vec<bool>> {
    match col {
        ColumnData::Str(v) => {
            let set: std::collections::HashSet<&str> =
                list.iter().filter_map(|v| v.as_str()).collect();
            Ok(v.iter().map(|s| set.contains(s)).collect())
        }
        _ => {
            let n = to_numeric(col, dt)?;
            match n {
                NumVec::Int(v, dt) => {
                    let scale = scale_of(dt);
                    let set: std::collections::HashSet<i64> = list
                        .iter()
                        .filter_map(|x| match x {
                            Value::Decimal(raw, s) => {
                                Some(raw * 10i64.pow(scale.saturating_sub(*s) as u32))
                            }
                            other => other.as_i64().map(|i| i * 10i64.pow(scale as u32)),
                        })
                        .collect();
                    Ok(v.iter().map(|x| set.contains(x)).collect())
                }
                NumVec::Float(v) => {
                    let items: Vec<f64> = list.iter().filter_map(|x| x.as_f64()).collect();
                    Ok(v.iter().map(|x| items.iter().any(|y| y == x)).collect())
                }
            }
        }
    }
}

/// Helper: build a schema-typed literal decimal.
pub fn dec_lit(text: &str, scale: u8) -> Expr {
    Expr::Lit(vectorh_common::types::dec(text, scale))
}

/// Helper: date literal from `YYYY-MM-DD`.
pub fn date_lit(s: &str) -> Expr {
    Expr::Lit(Value::Date(date::parse(s).expect("valid date literal")))
}

/// Evaluate an expression against a one-row batch of the given schema —
/// convenience for constant folding in the planner.
pub fn eval_scalar(e: &Expr, schema: &Arc<Schema>) -> Result<Value> {
    let cols = schema
        .fields()
        .iter()
        .map(|f| {
            let mut c = ColumnData::new(f.dtype);
            let v = match f.dtype {
                DataType::Str => Value::Str(String::new()),
                DataType::F64 => Value::F64(0.0),
                DataType::Date => Value::Date(0),
                DataType::Decimal { scale } => Value::Decimal(0, scale),
                _ => Value::I64(0),
            };
            c.push_value(&v).expect("zero value");
            c
        })
        .collect();
    let b = Batch::new(schema.clone(), cols)?;
    let (col, dt) = e.eval(&b)?;
    Ok(col.value_at(0, dt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::types::dec;

    fn batch() -> Batch {
        let schema = Arc::new(Schema::of(&[
            ("qty", DataType::I64),
            ("price", DataType::Decimal { scale: 2 }),
            ("disc", DataType::Decimal { scale: 2 }),
            ("ship", DataType::Date),
            ("name", DataType::Str),
        ]));
        Batch::new(
            schema,
            vec![
                ColumnData::I64(vec![1, 2, 3, 4]),
                ColumnData::I64(vec![1000, 2000, 3000, 4000]), // 10.00 .. 40.00
                ColumnData::I64(vec![5, 10, 0, 7]),            // 0.05 0.10 0.00 0.07
                ColumnData::I32(vec![
                    date::parse("1994-01-15").unwrap(),
                    date::parse("1995-06-01").unwrap(),
                    date::parse("1996-12-31").unwrap(),
                    date::parse("1994-03-01").unwrap(),
                ]),
                ColumnData::Str(
                    [
                        "green metal box",
                        "red plastic cup",
                        "green shiny thing",
                        "blue box",
                    ]
                    .into(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let (col, dt) = Expr::col(0).eval(&b).unwrap();
        assert_eq!(col.as_i64().unwrap(), &[1, 2, 3, 4]);
        assert_eq!(dt, DataType::I64);
        let (col, dt) = Expr::lit(Value::I64(9)).eval(&b).unwrap();
        assert_eq!(col.as_i64().unwrap(), &[9, 9, 9, 9]);
        assert_eq!(dt, DataType::I64);
    }

    #[test]
    fn comparisons_and_masks() {
        let b = batch();
        let m = Expr::gt(Expr::col(0), Expr::lit(Value::I64(2)))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, false, true, true]);
        let m = Expr::and(vec![
            Expr::ge(Expr::col(0), Expr::lit(Value::I64(2))),
            Expr::le(Expr::col(0), Expr::lit(Value::I64(3))),
        ])
        .eval_mask(&b)
        .unwrap();
        assert_eq!(m, vec![false, true, true, false]);
        let m = Expr::Not(Box::new(Expr::eq(Expr::col(0), Expr::lit(Value::I64(1)))))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, true, true, true]);
    }

    #[test]
    fn decimal_scale_alignment_in_compare() {
        let b = batch();
        // disc > 0.06 — literal same scale
        let m = Expr::gt(Expr::col(2), Expr::lit(dec("0.06", 2)))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, true, false, true]);
        // price < 25 — integer literal must scale up
        let m = Expr::lt(Expr::col(1), Expr::lit(Value::I64(25)))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![true, true, false, false]);
    }

    #[test]
    fn decimal_arithmetic_is_exact() {
        let b = batch();
        // price * (1 - disc): the Q1 money expression.
        let e = Expr::mul(
            Expr::col(1),
            Expr::sub(Expr::lit(dec("1", 2)), Expr::col(2)),
        );
        let (col, dt) = e.eval(&b).unwrap();
        assert_eq!(dt, DataType::Decimal { scale: 4 });
        // 10.00 * 0.95 = 9.5000 → raw 95000 at scale 4
        assert_eq!(col.as_i64().unwrap()[0], 95_000);
        assert_eq!(col.as_i64().unwrap()[2], 300_000); // 30.00 * 1.00
    }

    #[test]
    fn division_goes_float() {
        let b = batch();
        let (col, dt) = Expr::div(Expr::col(1), Expr::lit(Value::I64(2)))
            .eval(&b)
            .unwrap();
        assert_eq!(dt, DataType::F64);
        assert_eq!(col.as_f64().unwrap()[0], 5.0);
    }

    #[test]
    fn date_compare_and_between() {
        let b = batch();
        let m = Expr::lt(Expr::col(3), date_lit("1995-01-01"))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![true, false, false, true]);
        let m = Expr::Between(
            Box::new(Expr::col(3)),
            Box::new(date_lit("1995-01-01")),
            Box::new(date_lit("1996-12-31")),
        )
        .eval_mask(&b)
        .unwrap();
        assert_eq!(m, vec![false, true, true, false]);
    }

    #[test]
    fn extract_year() {
        let b = batch();
        let (col, dt) = Expr::ExtractYear(Box::new(Expr::col(3))).eval(&b).unwrap();
        assert_eq!(dt, DataType::I32);
        assert_eq!(col.as_i32().unwrap(), &[1994, 1995, 1996, 1994]);
    }

    #[test]
    fn like_and_substr() {
        let b = batch();
        let m = Expr::Like(Box::new(Expr::col(4)), "green%".into())
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        let m = Expr::Like(Box::new(Expr::col(4)), "%box".into())
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![true, false, false, true]);
        // 'e' followed later by 'c': only "red plastic cup" qualifies.
        let m = Expr::Like(Box::new(Expr::col(4)), "%e%c%".into())
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, true, false, false]);
        let (col, _) = Expr::Substr(Box::new(Expr::col(4)), 1, 3).eval(&b).unwrap();
        assert_eq!(col.as_strs().unwrap().get(0), "gre");
        let m = Expr::NotLike(Box::new(Expr::col(4)), "%green%".into())
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, true, false, true]);
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%%c"));
        assert!(!like_match("abc", "a_b"));
        assert!(like_match("promo burnished", "promo%"));
    }

    #[test]
    fn in_list_over_types() {
        let b = batch();
        let m = Expr::InList(Box::new(Expr::col(0)), vec![Value::I64(1), Value::I64(4)])
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![true, false, false, true]);
        let m = Expr::InList(Box::new(Expr::col(4)), vec![Value::Str("blue box".into())])
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m, vec![false, false, false, true]);
    }

    #[test]
    fn case_expression() {
        let b = batch();
        // CASE WHEN qty >= 3 THEN price ELSE 0 END
        let e = Expr::Case(
            vec![(
                Expr::ge(Expr::col(0), Expr::lit(Value::I64(3))),
                Expr::col(1),
            )],
            Box::new(Expr::lit(dec("0", 2))),
        );
        let (col, dt) = e.eval(&b).unwrap();
        assert_eq!(dt, DataType::Decimal { scale: 2 });
        assert_eq!(col.as_i64().unwrap(), &[0, 0, 3000, 4000]);
    }

    #[test]
    fn eval_scalar_folds_constants() {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        let v = eval_scalar(
            &Expr::mul(Expr::lit(dec("1.10", 2)), Expr::lit(dec("2.00", 2))),
            &schema,
        )
        .unwrap();
        assert_eq!(v, Value::Decimal(22_000, 4)); // 2.2000
    }

    #[test]
    fn dtype_inference() {
        let schema = Schema::of(&[
            ("q", DataType::I64),
            ("p", DataType::Decimal { scale: 2 }),
            ("d", DataType::Date),
        ]);
        assert_eq!(
            Expr::mul(Expr::col(1), Expr::col(1))
                .dtype(&schema)
                .unwrap(),
            DataType::Decimal { scale: 4 }
        );
        assert_eq!(
            Expr::add(Expr::col(0), Expr::col(0))
                .dtype(&schema)
                .unwrap(),
            DataType::I64
        );
        assert_eq!(
            Expr::div(Expr::col(0), Expr::col(0))
                .dtype(&schema)
                .unwrap(),
            DataType::F64
        );
        assert_eq!(
            Expr::eq(Expr::col(0), Expr::col(0)).dtype(&schema).unwrap(),
            DataType::I32
        );
        assert!(Expr::col(9).dtype(&schema).is_err());
    }
}

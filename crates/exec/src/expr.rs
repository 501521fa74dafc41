//! Vectorized expression evaluation.
//!
//! An expression is evaluated a vector at a time (§2): each node runs one
//! loop over primitive slices, so what interpreting the tree costs is paid
//! per vector and not per row. There are two ways in, and they share every
//! kernel:
//!
//! * **As a value** ([`Expr::eval`]). A node evaluates to an [`Operand`]: a
//!   column *borrowed* from the batch (`Expr::Col`), a column it computed,
//!   or a *scalar* (`Expr::Lit`, or an operator over scalars). A literal is
//!   never expanded to a vector and a column is never copied to be read;
//!   the numeric kernels take column∘column, column∘scalar and
//!   scalar∘column over `&[i32]` / `&[i64]` / `&[f64]` through the [`Src`]
//!   trait, compiled once per pairing of layouts.
//! * **As a predicate** (`Expr::select`, what `Select` and `CASE` call). A
//!   predicate narrows a *selection vector* — ascending row positions as
//!   `u32` — in place: `AND` hands the survivors of one conjunct to the
//!   next, `OR` offers each disjunct only the rows no earlier one accepted,
//!   `NOT` subtracts, and a comparison, `BETWEEN`, `IN` or `LIKE` is one
//!   branch-free pass over the listed positions of its operand. A string
//!   tested against a literal (`=`, `<>`, `<` …, `IN`, `LIKE`) in a
//!   dictionary-coded column is tested once per dictionary entry and the
//!   pass reads a mask by code. No boolean mask of rows is built;
//!   [`Expr::eval_mask`] scatters the final selection into one for callers
//!   that ask for it.
//!
//! Money math is decimal-exact: decimals are scaled `i64` raws. Comparison
//! and addition bring both sides to the finer scale (a scalar once, not per
//! row); multiplication keeps at most scale 4, dividing the product back
//! only when it is finer than that, and takes the `i128` route only for a
//! row whose product overflows 64 bits — exactly the reason the paper gives
//! for using decimals rather than floats in business queries.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use vectorh_common::column::{physical_of, PhysicalType};
use vectorh_common::types::date;
use vectorh_common::{ColumnData, DataType, Result, Schema, StrVec, Value, VhError};

use crate::batch::Batch;

/// Run `$body` with `$s` bound to the slice or scalar inside an [`Ints`],
/// once per layout: the loop in `$body` is compiled for each.
macro_rules! each_int {
    ($side:expr, $s:ident => $body:expr) => {
        match $side {
            Ints::I32($s) => $body,
            Ints::I64($s) => $body,
            Ints::Scalar($s) => $body,
        }
    };
}

/// [`each_int`] for a [`Floats`].
macro_rules! each_float {
    ($side:expr, $s:ident => $body:expr) => {
        match &$side {
            Floats::Col(c) => {
                let $s: &[f64] = c;
                $body
            }
            Floats::Scalar(x) => {
                let $s: f64 = *x;
                $body
            }
        }
    };
}

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

    /// Evaluate over a batch, producing one value per input row. A column
    /// reference is copied and a scalar result repeated to `b.len()` rows:
    /// this is the boundary where an [`Operand`] becomes a column.
    pub fn eval(&self, b: &Batch) -> Result<(ColumnData, DataType)> {
        let (v, dt) = self.operand(b)?;
        Ok((v.into_column(b.len(), dt), dt))
    }

    /// Evaluate as a boolean mask, one `bool` per input row: the selection
    /// path's answer scattered into a mask, for callers that want one.
    /// `Select` works on the selection vector itself.
    pub fn eval_mask(&self, b: &Batch) -> Result<Vec<bool>> {
        let mut sel = every_row(b);
        self.select(b, &mut sel)?;
        let mut mask = vec![false; b.len()];
        for &i in &sel {
            mask[i as usize] = true;
        }
        Ok(mask)
    }

    /// Evaluate as a predicate over the rows listed in `sel` (ascending
    /// positions into `b`), keeping those where it holds. Every node looks
    /// only at the positions still in `sel` when it runs.
    pub(crate) fn select(&self, b: &Batch, sel: &mut Vec<u32>) -> Result<()> {
        match self {
            Expr::Cmp(op, x, y) => {
                let (x, tx) = x.operand(b)?;
                let (y, ty) = y.operand(b)?;
                select_cmp(*op, &x, tx, &y, ty, sel)
            }
            Expr::And(es) => es.iter().try_for_each(|e| e.select(b, sel)),
            Expr::Or(es) => {
                // `rest`: candidates no disjunct has accepted yet; `sel`
                // collects the accepted ones.
                let mut rest = std::mem::take(sel);
                for e in es {
                    let mut hit = rest.clone();
                    e.select(b, &mut hit)?;
                    if !hit.is_empty() {
                        rest = without(&rest, &hit);
                        *sel = merged(sel, &hit);
                    }
                }
                Ok(())
            }
            Expr::Not(e) => {
                let mut hit = sel.clone();
                e.select(b, &mut hit)?;
                *sel = without(sel, &hit);
                Ok(())
            }
            Expr::Between(e, lo, hi) => {
                let (v, tv) = e.operand(b)?;
                let (lo, tlo) = lo.operand(b)?;
                let (hi, thi) = hi.operand(b)?;
                let bounds = |x: &Operand, tx| match x.ints()? {
                    Ints::Scalar(x) => rescaled(x, scale_of(tx), scale_of(tv)),
                    _ => None,
                };
                if let (Some(x), Some(l), Some(h)) = (v.ints(), bounds(&lo, tlo), bounds(&hi, thi))
                {
                    // Integers between two constants: both bounds in one pass.
                    each_int!(x, x => narrow(sel, |i| (l <= x.at(i)) & (x.at(i) <= h)));
                    return Ok(());
                }
                select_cmp(CmpOp::Ge, &v, tv, &lo, tlo, sel)?;
                select_cmp(CmpOp::Le, &v, tv, &hi, thi, sel)
            }
            Expr::InList(e, list) => {
                let (v, dt) = e.operand(b)?;
                if let Some(s) = v.strs() {
                    let mut items: Vec<&str> = list.iter().filter_map(Value::as_str).collect();
                    items.sort_unstable();
                    narrow_strs(sel, s, |s| items.binary_search(&s).is_ok());
                } else if let Some(x) = v.ints() {
                    let mut items: Vec<i64> = list
                        .iter()
                        .filter_map(|item| bind_int(item, scale_of(dt)))
                        .collect();
                    items.sort_unstable();
                    each_int!(x, x => narrow(sel, |i| items.binary_search(&x.at(i)).is_ok()));
                } else {
                    let items: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
                    let x = v.floats(dt)?;
                    each_float!(x, x => narrow(sel, |i| items.contains(&x.at(i))));
                }
                Ok(())
            }
            Expr::Like(e, pat) | Expr::NotLike(e, pat) => {
                let (v, _) = e.operand(b)?;
                let s = v
                    .strs()
                    .ok_or_else(|| VhError::Exec("LIKE over non-string".into()))?;
                let want = matches!(self, Expr::Like(..));
                narrow_strs(sel, s, |s| like_match(s, pat) == want);
                Ok(())
            }
            Expr::Col(_)
            | Expr::Lit(_)
            | Expr::Arith(..)
            | Expr::Substr(..)
            | Expr::Case(..)
            | Expr::ExtractYear(_) => {
                // A value used as a predicate: non-zero integers hold.
                let (v, _) = self.operand(b)?;
                let x = v
                    .ints()
                    .ok_or_else(|| VhError::Exec("predicate did not evaluate to boolean".into()))?;
                each_int!(x, x => narrow(sel, |i| x.at(i) != 0));
                Ok(())
            }
        }
    }

    /// Evaluate as a value. Nothing here allocates or loops per literal: a
    /// column reference is borrowed and a literal stays one value.
    fn operand<'a>(&'a self, b: &'a Batch) -> Result<(Operand<'a>, DataType)> {
        match self {
            Expr::Col(i) => Ok((Operand::Col(b.column(*i)), b.schema.dtype(*i))),
            Expr::Lit(v) => literal(v),
            Expr::Arith(op, x, y) => {
                let (x, tx) = x.operand(b)?;
                let (y, ty) = y.operand(b)?;
                arith(*op, &x, tx, &y, ty, b.len())
            }
            Expr::Substr(e, start, len) => {
                let (v, _) = e.operand(b)?;
                let s = v
                    .strs()
                    .ok_or_else(|| VhError::Exec("SUBSTR over non-string".into()))?;
                Ok((
                    match s {
                        Strs::Col(s) => Operand::Owned(ColumnData::Str(
                            s.iter().map(|s| substr(s, *start, *len)).collect(),
                        )),
                        Strs::Scalar(s) => Operand::Str(Cow::Owned(substr(s, *start, *len).into())),
                    },
                    DataType::Str,
                ))
            }
            Expr::Case(arms, else_e) => self.case(arms, else_e, b),
            Expr::ExtractYear(e) => {
                let (v, dt) = e.operand(b)?;
                if dt != DataType::Date {
                    return Err(VhError::Exec("EXTRACT(YEAR) over non-date".into()));
                }
                let year = |d: i32| date::from_days(d).0;
                Ok((
                    match v.ints() {
                        Some(Ints::I32(days)) => {
                            Operand::Owned(ColumnData::I32(days.iter().map(|&d| year(d)).collect()))
                        }
                        Some(Ints::Scalar(d)) => Operand::Int(year(d as i32) as i64),
                        _ => return Err(VhError::Exec("date layout".into())),
                    },
                    DataType::I32,
                ))
            }
            // A predicate used as a value: 1 where it holds, 0 elsewhere.
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Between(..)
            | Expr::InList(..)
            | Expr::Like(..)
            | Expr::NotLike(..) => {
                let mut sel = every_row(b);
                self.select(b, &mut sel)?;
                let mut out = vec![0i32; b.len()];
                for &i in &sel {
                    out[i as usize] = 1;
                }
                Ok((Operand::Owned(ColumnData::I32(out)), DataType::I32))
            }
        }
    }

    /// `CASE`: each condition is evaluated over the rows no earlier arm has
    /// decided, then every arm that decided a row writes its value (a slice
    /// or a scalar) into those rows of one typed output column. An arm no
    /// row takes is not evaluated.
    fn case<'a>(
        &'a self,
        arms: &'a [(Expr, Expr)],
        else_e: &'a Expr,
        b: &'a Batch,
    ) -> Result<(Operand<'a>, DataType)> {
        let dt = self.dtype(&b.schema)?;
        let n = b.len();
        let mut undecided = every_row(b);
        let mut takers: Vec<(Vec<u32>, Operand, DataType)> = Vec::new();
        let mut take = |rows: Vec<u32>, value: &'a Expr| -> Result<()> {
            if !rows.is_empty() {
                let (v, vdt) = value.operand(b)?;
                // What `ColumnData::push_value` accepts into a `dt` column.
                let fits = match physical_of(dt) {
                    PhysicalType::I64 => {
                        physical_of(vdt) == PhysicalType::I64 || vdt == DataType::I32
                    }
                    layout => physical_of(vdt) == layout,
                };
                if !fits {
                    return Err(VhError::InvalidArg(format!(
                        "CASE arm of type {vdt} in a {dt} expression"
                    )));
                }
                takers.push((rows, v, vdt));
            }
            Ok(())
        };
        for (cond, value) in arms {
            let mut hit = undecided.clone();
            cond.select(b, &mut hit)?;
            undecided = without(&undecided, &hit);
            take(hit, value)?;
        }
        take(undecided, else_e)?;

        let layout = |what: &str| VhError::Internal(format!("CASE arm is not {what}"));
        let col = match physical_of(dt) {
            PhysicalType::I32 => {
                let mut out = vec![0i32; n];
                for (rows, v, _) in &takers {
                    let x = v.ints().ok_or_else(|| layout("integers"))?;
                    each_int!(x, x => rows.iter().for_each(|&i| out[i as usize] = x.at(i as usize) as i32));
                }
                ColumnData::I32(out)
            }
            PhysicalType::I64 => {
                let mut out = vec![0i64; n];
                for (rows, v, _) in &takers {
                    let x = v.ints().ok_or_else(|| layout("integers"))?;
                    each_int!(x, x => rows.iter().for_each(|&i| out[i as usize] = x.at(i as usize)));
                }
                ColumnData::I64(out)
            }
            PhysicalType::F64 => {
                let mut out = vec![0f64; n];
                for (rows, v, vdt) in &takers {
                    let x = v.floats(*vdt)?;
                    each_float!(x, x => rows.iter().for_each(|&i| out[i as usize] = x.at(i as usize)));
                }
                ColumnData::F64(out)
            }
            PhysicalType::Str => {
                // Strings cannot be written in place: note which arm each
                // row takes, then copy them out in row order.
                let mut arm_of = vec![0u32; n];
                let mut sources = Vec::with_capacity(takers.len());
                for (arm, (rows, v, _)) in takers.iter().enumerate() {
                    sources.push(v.strs().ok_or_else(|| layout("strings"))?);
                    rows.iter().for_each(|&i| arm_of[i as usize] = arm as u32);
                }
                let pick = |(i, &arm): (usize, &u32)| match sources[arm as usize] {
                    Strs::Col(s) => s.get(i),
                    Strs::Scalar(s) => s,
                };
                ColumnData::Str(arm_of.iter().enumerate().map(pick).collect())
            }
        };
        Ok((Operand::Owned(col), dt))
    }
}

// --- operands ----------------------------------------------------------------

/// What a value expression evaluates to over a batch: a column of the batch
/// itself, a computed column, or one value that stands for every row. The
/// kernels below read any of the three through [`Src`], so a literal is
/// never expanded to a vector and a column is never copied to be read.
enum Operand<'a> {
    Col(&'a ColumnData),
    Owned(ColumnData),
    /// An integer, date or decimal raw; its [`DataType`] travels beside it.
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

/// The integer view of an operand.
#[derive(Clone, Copy)]
enum Ints<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    Scalar(i64),
}

/// The float view of an operand; an integer column is converted (and
/// unscaled) into an owned one.
enum Floats<'a> {
    Col(Cow<'a, [f64]>),
    Scalar(f64),
}

/// The string view of an operand.
#[derive(Clone, Copy)]
enum Strs<'a> {
    Col(&'a StrVec),
    Scalar(&'a str),
}

impl Operand<'_> {
    fn column(&self) -> Option<&ColumnData> {
        match self {
            Operand::Col(c) => Some(c),
            Operand::Owned(c) => Some(c),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        self.column().is_none()
    }

    fn ints(&self) -> Option<Ints<'_>> {
        match (self, self.column()) {
            (Operand::Int(x), _) => Some(Ints::Scalar(*x)),
            (_, Some(ColumnData::I32(v))) => Some(Ints::I32(v)),
            (_, Some(ColumnData::I64(v))) => Some(Ints::I64(v)),
            _ => None,
        }
    }

    fn strs(&self) -> Option<Strs<'_>> {
        match (self, self.column()) {
            (Operand::Str(s), _) => Some(Strs::Scalar(s)),
            (_, Some(ColumnData::Str(v))) => Some(Strs::Col(v)),
            _ => None,
        }
    }

    /// As floats; integers of type `dt` are divided by their decimal scale.
    fn floats(&self, dt: DataType) -> Result<Floats<'_>> {
        let unit = 10f64.powi(scale_of(dt) as i32);
        Ok(match (self, self.column()) {
            (Operand::Float(x), _) => Floats::Scalar(*x),
            (Operand::Int(x), _) => Floats::Scalar(*x as f64 / unit),
            (_, Some(ColumnData::F64(v))) => Floats::Col(Cow::Borrowed(v)),
            (_, Some(ColumnData::I32(v))) => {
                Floats::Col(v.iter().map(|&x| x as f64 / unit).collect())
            }
            (_, Some(ColumnData::I64(v))) => {
                Floats::Col(v.iter().map(|&x| x as f64 / unit).collect())
            }
            _ => return Err(VhError::Exec("numeric op over string".into())),
        })
    }

    /// As a column of `n` rows of type `dt`.
    fn into_column(self, n: usize, dt: DataType) -> ColumnData {
        match self {
            Operand::Col(c) => c.clone(),
            Operand::Owned(c) => c,
            Operand::Int(x) if physical_of(dt) == PhysicalType::I32 => {
                ColumnData::I32(vec![x as i32; n])
            }
            Operand::Int(x) => ColumnData::I64(vec![x; n]),
            Operand::Float(x) => ColumnData::F64(vec![x; n]),
            Operand::Str(s) => ColumnData::Str(std::iter::repeat_n(&*s, n).collect()),
        }
    }
}

fn literal(v: &Value) -> Result<(Operand<'_>, DataType)> {
    Ok(match v {
        Value::I32(x) => (Operand::Int(*x as i64), DataType::I32),
        Value::I64(x) => (Operand::Int(*x), DataType::I64),
        Value::Decimal(raw, scale) => (Operand::Int(*raw), DataType::Decimal { scale: *scale }),
        Value::Date(d) => (Operand::Int(*d as i64), DataType::Date),
        Value::F64(x) => (Operand::Float(*x), DataType::F64),
        Value::Str(s) => (Operand::Str(Cow::Borrowed(s)), DataType::Str),
        Value::Null => return Err(VhError::InvalidArg("NULL literal in an expression".into())),
    })
}

/// One side of a kernel: a slice read by position, or a scalar that reads
/// the same at every position.
trait Src: Copy {
    type Item;
    /// Rows `0..n` of it, so a loop over `0..n` needs no bounds check.
    fn first(self, n: usize) -> Self;
    fn at(self, i: usize) -> Self::Item;
}

impl Src for &[i32] {
    type Item = i64;
    fn first(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, i: usize) -> i64 {
        self[i] as i64
    }
}

impl Src for &[i64] {
    type Item = i64;
    fn first(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, i: usize) -> i64 {
        self[i]
    }
}

impl Src for &[f64] {
    type Item = f64;
    fn first(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, i: usize) -> f64 {
        self[i]
    }
}

impl Src for i64 {
    type Item = i64;
    fn first(self, _: usize) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _: usize) -> i64 {
        self
    }
}

impl Src for f64 {
    type Item = f64;
    fn first(self, _: usize) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _: usize) -> f64 {
        self
    }
}

// --- selection vectors ---------------------------------------------------------

/// The selection that lists every row of `b`.
fn every_row(b: &Batch) -> Vec<u32> {
    (0..b.len() as u32).collect()
}

/// Keep the positions of `sel` where `keep` holds, in place and without a
/// branch on the outcome: every position is written back and the cursor
/// advances by the outcome.
fn narrow(sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut k = 0;
    for j in 0..sel.len() {
        let i = sel[j];
        sel[k] = i;
        k += keep(i as usize) as usize;
    }
    sel.truncate(k);
}

/// `a` without the positions in `b`; both ascending, `b` drawn from `a`.
fn without(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut drop = b.iter().peekable();
    let mut out = Vec::with_capacity(a.len() - b.len());
    for &x in a {
        if drop.peek() == Some(&&x) {
            drop.next();
        } else {
            out.push(x);
        }
    }
    out
}

/// Two ascending position lists as one.
fn merged(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl CmpOp {
    /// Does the operator hold for a left side that orders `ord` against
    /// the right?
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A comparison operator as the outcomes it accepts, so that one loop
/// serves all six operators without a branch per row: `x op y` is
/// `lt & (x < y) | eq & (x == y) | gt & (x > y)`. A NaN on either side
/// fails all three, so no operator holds for it (not even `<>`).
#[derive(Clone, Copy)]
struct Accepts {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl Accepts {
    fn of(op: CmpOp) -> Accepts {
        Accepts {
            lt: op.holds(Ordering::Less),
            eq: op.holds(Ordering::Equal),
            gt: op.holds(Ordering::Greater),
        }
    }

    #[inline(always)]
    fn holds<T: PartialOrd>(self, x: T, y: T) -> bool {
        (self.lt & (x < y)) | (self.eq & (x == y)) | (self.gt & (x > y))
    }
}

/// Narrow `sel` to the rows whose string satisfies `pred` (`=`, `<>`, `<`
/// … against a literal, `IN`, `LIKE`). A coded column whose dictionary is
/// no larger than the vector ([`StrVec::dict_codes`]) evaluates `pred` once
/// per entry into a mask indexed by code: an entry stands for every row
/// coded with it, and two codes naming one string get one answer twice. A
/// flat column evaluates it per selected row, a scalar once.
fn narrow_strs(sel: &mut Vec<u32>, s: Strs, pred: impl Fn(&str) -> bool) {
    match s {
        Strs::Scalar(s) => {
            if !pred(s) {
                sel.clear();
            }
        }
        Strs::Col(s) => match s.dict_codes() {
            Some((dict, codes)) => {
                let hit: Vec<bool> = dict.iter().map(&pred).collect();
                narrow(sel, |i| hit[codes[i] as usize]);
            }
            None => narrow(sel, |i| pred(s.get(i))),
        },
    }
}

/// Narrow `sel` to the rows where `x op y`. Strings compare as strings,
/// integers and decimals exactly at their common scale, anything involving
/// a float as floats.
fn select_cmp(
    op: CmpOp,
    x: &Operand,
    tx: DataType,
    y: &Operand,
    ty: DataType,
    sel: &mut Vec<u32>,
) -> Result<()> {
    if let (Some(x), Some(y)) = (x.strs(), y.strs()) {
        match (x, y) {
            (x, Strs::Scalar(y)) => narrow_strs(sel, x, |x| op.holds(x.cmp(y))),
            (Strs::Scalar(x), Strs::Col(y)) => {
                narrow_strs(sel, Strs::Col(y), |y| op.holds(x.cmp(y)))
            }
            (Strs::Col(x), Strs::Col(y)) => narrow(sel, |i| op.holds(x.get(i).cmp(y.get(i)))),
        }
        return Ok(());
    }
    let accepts = Accepts::of(op);
    let (Some(x), Some(y)) = (x.ints(), y.ints()) else {
        let (x, y) = (x.floats(tx)?, y.floats(ty)?);
        each_float!(x, x => each_float!(y, y => narrow(sel, |i| accepts.holds(x.at(i), y.at(i)))));
        return Ok(());
    };
    // The coarser side is multiplied up to the finer scale: a scalar once,
    // here; a column (or a scalar too large for that) per row and in
    // `i128`, where the product cannot overflow.
    let scale = scale_of(tx).max(scale_of(ty));
    let (x, fx) = at_scale(x, scale_of(tx), scale)?;
    let (y, fy) = at_scale(y, scale_of(ty), scale)?;
    if fx == 1 && fy == 1 {
        each_int!(x, x => each_int!(y, y => narrow(sel, |i| accepts.holds(x.at(i), y.at(i)))));
    } else {
        let (fx, fy) = (fx as i128, fy as i128);
        each_int!(x, x => each_int!(y, y => narrow(sel, |i| {
            accepts.holds(x.at(i) as i128 * fx, y.at(i) as i128 * fy)
        })));
    }
    Ok(())
}

// --- numeric plumbing -------------------------------------------------------

fn scale_of(dt: DataType) -> u8 {
    match dt {
        DataType::Decimal { scale } => scale,
        _ => 0,
    }
}

/// `10^digits`, which must fit an `i64`.
fn pow10(digits: u8) -> Result<i64> {
    10i64
        .checked_pow(digits as u32)
        .ok_or_else(|| VhError::Exec(format!("decimal scale {digits} out of range")))
}

/// The raw of a decimal at scale `from` as the raw of the same number at
/// scale `to`, if that is a whole number that fits.
fn rescaled(raw: i64, from: u8, to: u8) -> Option<i64> {
    if from <= to {
        raw.checked_mul(10i64.checked_pow((to - from) as u32)?)
    } else {
        let unit = 10i64.checked_pow((from - to) as u32)?;
        (raw % unit == 0).then_some(raw / unit)
    }
}

/// An integer side at scale `from`, and the factor that takes it to the
/// finer scale `to`: a scalar is multiplied here and now (factor 1) unless
/// that overflows, a column is left for the kernel to multiply.
fn at_scale(side: Ints<'_>, from: u8, to: u8) -> Result<(Ints<'_>, i64)> {
    if let Ints::Scalar(x) = side {
        if let Some(x) = rescaled(x, from, to) {
            return Ok((Ints::Scalar(x), 1));
        }
    }
    Ok((side, pow10(to - from)?))
}

/// An `IN` list item as a raw at the tested expression's decimal scale;
/// `None` (it matches no row) when it is not an integer or decimal, or not
/// a whole number at that scale.
fn bind_int(item: &Value, scale: u8) -> Option<i64> {
    match item {
        Value::Decimal(raw, s) => rescaled(*raw, *s, scale),
        other => rescaled(other.as_i64()?, 0, scale),
    }
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

/// `f` over rows `0..n` of two sides.
fn map2<A: Src, B: Src, R>(n: usize, a: A, b: B, f: impl Fn(A::Item, B::Item) -> R) -> Vec<R> {
    let (a, b) = (a.first(n), b.first(n));
    (0..n).map(|i| f(a.at(i), b.at(i))).collect()
}

/// `x op y` over `n` rows, or as one value when both sides are scalars.
/// Integer results wrap like the `i128` expression cut to 64 bits.
fn arith(
    op: ArithOp,
    x: &Operand,
    tx: DataType,
    y: &Operand,
    ty: DataType,
    n: usize,
) -> Result<(Operand<'static>, DataType)> {
    let scalar = x.is_scalar() && y.is_scalar();
    let n = if scalar { 1 } else { n };
    let (col, dt) = match (x.ints(), y.ints(), arith_dtype(op, tx, ty)) {
        (_, _, DataType::F64) | (None, _, _) | (_, None, _) => {
            let (x, y) = (x.floats(tx)?, y.floats(ty)?);
            let out = each_float!(x, x => each_float!(y, y => match op {
                ArithOp::Add => map2(n, x, y, |p, q| p + q),
                ArithOp::Sub => map2(n, x, y, |p, q| p - q),
                ArithOp::Mul => map2(n, x, y, |p, q| p * q),
                ArithOp::Div => map2(n, x, y, |p, q| if q == 0.0 { 0.0 } else { p / q }),
            }));
            (ColumnData::F64(out), DataType::F64)
        }
        (Some(x), Some(y), dt) => (arith_ints(op, x, scale_of(tx), y, scale_of(ty), dt, n)?, dt),
    };
    let out = match (scalar, col) {
        (false, col) => Operand::Owned(col),
        (true, ColumnData::I32(v)) => Operand::Int(v[0] as i64),
        (true, ColumnData::I64(v)) => Operand::Int(v[0]),
        (true, ColumnData::F64(v)) => Operand::Float(v[0]),
        (true, ColumnData::Str(_)) => unreachable!("arithmetic yields numbers"),
    };
    Ok((out, dt))
}

/// Integer and decimal `+`, `-`, `*` into a column of type `dt`.
fn arith_ints(
    op: ArithOp,
    x: Ints,
    sx: u8,
    y: Ints,
    sy: u8,
    dt: DataType,
    n: usize,
) -> Result<ColumnData> {
    let out: Vec<i64> = match op {
        ArithOp::Add | ArithOp::Sub => {
            // Both sides at the finer scale; a scalar is multiplied once.
            let scale = sx.max(sy);
            let pre = |side, f: i64| match side {
                Ints::Scalar(v) => (Ints::Scalar(v.wrapping_mul(f)), 1),
                col => (col, f),
            };
            let (x, fx) = pre(x, pow10(scale - sx)?);
            let (y, fy) = pre(y, pow10(scale - sy)?);
            match (fx == 1 && fy == 1, op) {
                (true, ArithOp::Add) => {
                    each_int!(x, x => each_int!(y, y => map2(n, x, y, i64::wrapping_add)))
                }
                (true, _) => each_int!(x, x => each_int!(y, y => map2(n, x, y, i64::wrapping_sub))),
                (false, _) => {
                    let fy = if op == ArithOp::Sub {
                        fy.wrapping_neg()
                    } else {
                        fy
                    };
                    each_int!(x, x => each_int!(y, y => map2(n, x, y, |p, q| {
                        p.wrapping_mul(fx).wrapping_add(q.wrapping_mul(fy))
                    })))
                }
            }
        }
        ArithOp::Mul => {
            // The product has scale `sx + sy`; past `MAX_SCALE` it is cut
            // back by `shrink`. A product that fits 64 bits is divided as
            // it is, one that does not goes through `i128`: the same number
            // either way.
            let shrink = pow10(sx + sy - (sx + sy).min(MAX_SCALE))?;
            macro_rules! cut_back_by {
                ($shrink:expr) => {
                    each_int!(x, x => each_int!(y, y => map2(n, x, y, |p, q| match p.checked_mul(q) {
                        Some(product) => product / $shrink,
                        None => ((p as i128 * q as i128) / $shrink as i128) as i64,
                    })))
                };
            }
            // Dividing by a constant is a multiply and two shifts, by a
            // variable a division an order of magnitude slower: the shrinks
            // two scales of up to `MAX_SCALE` produce get a loop each.
            match shrink {
                1 => each_int!(x, x => each_int!(y, y => map2(n, x, y, i64::wrapping_mul))),
                10 => cut_back_by!(10i64),
                100 => cut_back_by!(100i64),
                1_000 => cut_back_by!(1_000i64),
                10_000 => cut_back_by!(10_000i64),
                _ => cut_back_by!(shrink),
            }
        }
        ArithOp::Div => unreachable!("division always yields F64"),
    };
    Ok(if dt == DataType::Date {
        ColumnData::I32(out.into_iter().map(|x| x as i32).collect())
    } else {
        ColumnData::I64(out)
    })
}

/// SQL `substring(s from start for len)`, 1-based and in characters.
fn substr(s: &str, start: usize, len: usize) -> &str {
    let skip = start.saturating_sub(1);
    if s.is_ascii() {
        // Bytes are characters.
        let from = skip.min(s.len());
        return &s[from..from.saturating_add(len).min(s.len())];
    }
    let byte_of = |s: &str, chars: usize| s.char_indices().nth(chars).map_or(s.len(), |(at, _)| at);
    let rest = &s[byte_of(s, skip)..];
    &rest[..byte_of(rest, len)]
}

/// SQL LIKE: `%` = any run, `_` = any single byte.
pub fn like_match(s: &str, pat: &str) -> bool {
    like_steps(s.as_bytes(), pat.as_bytes()).0
}

/// [`like_match`] and the number of steps it took. One restart point: on a
/// mismatch the match resumes after the last `%` seen, one byte further
/// into the text, so the work is at most `s.len() * p.len()` steps however
/// many `%` the pattern has (trying every split at every `%` is
/// exponential in their number).
fn like_steps(s: &[u8], p: &[u8]) -> (bool, usize) {
    let (mut i, mut j, mut steps) = (0, 0, 0);
    // (pattern position after the last `%`, text position it matches from)
    let mut restart: Option<(usize, usize)> = None;
    while i < s.len() {
        steps += 1;
        match p.get(j) {
            Some(b'%') => {
                j += 1;
                restart = Some((j, i));
            }
            Some(&c) if c == b'_' || c == s[i] => {
                i += 1;
                j += 1;
            }
            _ => match restart {
                Some((after, from)) => {
                    restart = Some((after, from + 1));
                    i = from + 1;
                    j = after;
                }
                None => return (false, steps),
            },
        }
    }
    (p[j..].iter().all(|&c| c == b'%'), steps)
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
    fn in_list_binds_its_items_like_any_other_literal() {
        // disc is 0.05, 0.10, 0.00, 0.07 at scale 2.
        let b = batch();
        let is_in = |item: &Value| {
            Expr::InList(Box::new(Expr::col(2)), vec![item.clone()])
                .eval_mask(&b)
                .unwrap()
        };
        let equals = |item: &Value| {
            Expr::eq(Expr::col(2), Expr::lit(item.clone()))
                .eval_mask(&b)
                .unwrap()
        };
        // Finer than the column and not a whole number at its scale: no row.
        assert_eq!(is_in(&dec("0.005", 3)), vec![false; 4]);
        // Finer, but the same number as 0.05.
        assert_eq!(is_in(&dec("0.050", 3)), vec![true, false, false, false]);
        // Coarser.
        assert_eq!(is_in(&dec("0.1", 1)), vec![false, true, false, false]);
        assert_eq!(is_in(&Value::I64(0)), vec![false, false, true, false]);
        for item in [
            dec("0.005", 3),
            dec("0.050", 3),
            dec("0.0501", 4),
            dec("0.07", 2),
            dec("0.1", 1),
            Value::I64(0),
            Value::I32(1),
        ] {
            assert_eq!(is_in(&item), equals(&item), "IN ({item}) against = {item}");
        }
    }

    #[test]
    fn like_takes_steps_in_proportion_to_text_times_pattern() {
        // Ten `%` over 200 bytes: trying every split at every `%` would be
        // 200^10 steps; one restart point is at most text x pattern.
        let s = "a".repeat(200);
        for (tail, matches) in [("b", false), ("a", true), ("", true)] {
            let pat = format!("{}{tail}", "%a".repeat(10));
            let (matched, steps) = like_steps(s.as_bytes(), pat.as_bytes());
            assert_eq!(matched, matches, "{pat}");
            assert!(
                steps <= (s.len() + 1) * (pat.len() + 1),
                "{steps} steps for {pat:?} over {} bytes",
                s.len()
            );
        }
        // The shape from the wire: '%a%a%a%a%a%a%ab' over forty `a`s.
        let (matched, steps) = like_steps("a".repeat(40).as_bytes(), b"%a%a%a%a%a%a%ab");
        assert!(!matched && steps <= 41 * 16, "{steps} steps");
    }

    #[test]
    fn substr_counts_characters_and_never_splits_one() {
        let schema = Arc::new(Schema::of(&[("s", DataType::Str)]));
        let strs = [
            "h\u{e9}llo",
            "\u{65e5}\u{672c}\u{8a9e}",
            "a\u{1f980}b",
            "abc",
            "",
        ];
        let b = Batch::new(schema, vec![ColumnData::Str(strs.into())]).unwrap();
        let sub = |start: usize, len: usize| -> Vec<String> {
            let (col, dt) = Expr::Substr(Box::new(Expr::col(0)), start, len)
                .eval(&b)
                .unwrap();
            assert_eq!(dt, DataType::Str);
            col.as_strs().unwrap().iter().map(str::to_owned).collect()
        };
        // A 2-, 3- and 4-byte character at `to`, at `from`, and past the end.
        assert_eq!(
            sub(1, 2),
            ["h\u{e9}", "\u{65e5}\u{672c}", "a\u{1f980}", "ab", ""]
        );
        assert_eq!(sub(2, 1), ["\u{e9}", "\u{672c}", "\u{1f980}", "b", ""]);
        assert_eq!(
            sub(2, 9),
            ["\u{e9}llo", "\u{672c}\u{8a9e}", "\u{1f980}b", "bc", ""]
        );
        assert_eq!(sub(3, 0), ["", "", "", "", ""]);
        assert_eq!(sub(4, 2), ["lo", "", "", "", ""]);
        assert_eq!(sub(9, 2), ["", "", "", "", ""]);
        assert_eq!(sub(0, usize::MAX), strs);
        // A literal is a scalar all the way through.
        let (col, _) = Expr::Substr(Box::new(Expr::lit(Value::Str("h\u{e9}llo".into()))), 1, 2)
            .eval(&b)
            .unwrap();
        assert_eq!(col.as_strs().unwrap().get(4), "h\u{e9}");
    }

    #[test]
    fn literals_stay_scalars_and_rescale_once() {
        let b = batch();
        // A constant subtree is one value, whatever the batch length.
        let one_minus = Expr::sub(Expr::lit(dec("1", 2)), Expr::lit(dec("0.05", 2)));
        assert!(matches!(
            one_minus.operand(&b).unwrap(),
            (Operand::Int(95), _)
        ));
        // price * 0.95, the literal on either side.
        for e in [
            Expr::mul(Expr::col(1), one_minus.clone()),
            Expr::mul(one_minus.clone(), Expr::col(1)),
        ] {
            let (col, dt) = e.eval(&b).unwrap();
            assert_eq!(dt, DataType::Decimal { scale: 4 });
            assert_eq!(col.as_i64().unwrap(), &[95_000, 190_000, 285_000, 380_000]);
        }
        // A product past 64 bits takes the i128 route and cuts back the same.
        let schema = Arc::new(Schema::of(&[("d", DataType::Decimal { scale: 4 })]));
        let big = Batch::new(schema, vec![ColumnData::I64(vec![i64::MAX / 10, 20_000])]).unwrap();
        let (col, dt) = Expr::mul(Expr::col(0), Expr::lit(dec("2.5", 4)))
            .eval(&big)
            .unwrap();
        assert_eq!(dt, DataType::Decimal { scale: 4 });
        let wide = |x: i64| ((x as i128 * 25_000) / 10_000) as i64;
        assert_eq!(col.as_i64().unwrap(), &[wide(i64::MAX / 10), 50_000]);
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

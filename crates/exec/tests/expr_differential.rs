//! An oracle for the expression evaluator that shares no code with it.
//!
//! `reference` interprets an [`Expr`] one row at a time over [`Value`]s, with
//! decimal arithmetic in `i128` and SQL comparison worked out from the two
//! values; the engine's answers must equal its answers on generated
//! expression trees (every `Expr` variant, depth up to 4, literals on either
//! side, decimal scales 0/2/4 mixed, values near `i64::MAX / 10^k` so the
//! multiply's overflow fallback runs) over batches of 0, 1, 1,023, 1,024,
//! 1,025 and 5,000 rows, through `Expr::eval`, `Expr::eval_mask`, `Select`
//! and `Project`. Each tree runs twice, over the batch's string columns flat
//! and as dictionary codes (duplicate and exception entries, dictionaries
//! smaller and larger than the vector): the two layouts must give the same
//! answers to the bit.
//!
//! A failure prints the tree's seed and the expression;
//! `EXPR_DIFF_SEED=<seed>` replays that one tree on every batch size.

use std::cmp::Ordering;
use std::sync::Arc;

use vectorh_common::rng::SplitMix64;
use vectorh_common::types::date;
use vectorh_common::{ColumnData, DataType, Schema, StrVec, Value, VECTOR_SIZE};
use vectorh_exec::batch::{collect_rows, Batch};
use vectorh_exec::expr::{like_match, ArithOp, CmpOp, Expr};
use vectorh_exec::filter::Select;
use vectorh_exec::operator::BatchSource;
use vectorh_exec::project::Project;

// --- the reference interpreter ---------------------------------------------

/// An integer, date or decimal as `(raw, scale)`.
fn int_of(v: &Value) -> Option<(i128, u8)> {
    match v {
        Value::I32(x) => Some((*x as i128, 0)),
        Value::I64(x) => Some((*x as i128, 0)),
        Value::Date(x) => Some((*x as i128, 0)),
        Value::Decimal(raw, s) => Some((*raw as i128, *s)),
        _ => None,
    }
}

fn pow10(digits: u8) -> i128 {
    10i128.pow(digits as u32)
}

/// SQL comparison of two values: strings as strings, integers and decimals
/// exactly at their common scale, anything with a float as floats (`None`
/// for a NaN, for which no operator holds).
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    if let (Value::Str(a), Value::Str(b)) = (a, b) {
        return Some(a.cmp(b));
    }
    match (int_of(a), int_of(b)) {
        (Some((x, sx)), Some((y, sy))) => {
            let s = sx.max(sy);
            Some((x * pow10(s - sx)).cmp(&(y * pow10(s - sy))))
        }
        _ => a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap()),
    }
}

fn holds(op: CmpOp, a: &Value, b: &Value) -> bool {
    compare(a, b).is_some_and(|ord| match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Value {
    let float = matches!(a, Value::F64(_)) || matches!(b, Value::F64(_)) || op == ArithOp::Div;
    if float {
        let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
        return Value::F64(match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div if y == 0.0 => 0.0,
            ArithOp::Div => x / y,
        });
    }
    let ((x, sx), (y, sy)) = (int_of(a).unwrap(), int_of(b).unwrap());
    if op == ArithOp::Mul {
        let scale = (sx + sy).min(4);
        let raw = ((x * y) / pow10(sx + sy - scale)) as i64;
        return if scale > 0 {
            Value::Decimal(raw, scale)
        } else {
            Value::I64(raw)
        };
    }
    let scale = sx.max(sy);
    let (x, y) = (x * pow10(scale - sx), y * pow10(scale - sy));
    let raw = (if op == ArithOp::Add { x + y } else { x - y }) as i64;
    match (a, b) {
        _ if scale > 0 => Value::Decimal(raw, scale),
        (Value::Date(_), Value::I32(_) | Value::I64(_)) => Value::Date(raw as i32),
        _ => Value::I64(raw),
    }
}

/// The recursive matcher the engine used to have (exponential in the number
/// of `%`, so only ever run on short patterns here).
fn like_reference(s: &[u8], p: &[u8]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some(b'%') => (0..=s.len()).any(|k| like_reference(&s[k..], &p[1..])),
        Some(b'_') => !s.is_empty() && like_reference(&s[1..], &p[1..]),
        Some(&c) => s.first() == Some(&c) && like_reference(&s[1..], &p[1..]),
    }
}

fn like_of(v: &Value, pat: &str) -> bool {
    let Value::Str(s) = v else {
        panic!("LIKE over {v:?}")
    };
    like_reference(s.as_bytes(), pat.as_bytes())
}

fn truth(b: bool) -> Value {
    Value::I32(b as i32)
}

fn is_true(v: &Value) -> bool {
    int_of(v).expect("a predicate is an integer").0 != 0
}

/// `e` over one row.
fn reference(e: &Expr, row: &[Value]) -> Value {
    let at = |e: &Expr| reference(e, row);
    match e {
        Expr::Col(i) => row[*i].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => truth(holds(*op, &at(a), &at(b))),
        Expr::Arith(op, a, b) => arith(*op, &at(a), &at(b)),
        Expr::And(es) => truth(es.iter().all(|e| is_true(&at(e)))),
        Expr::Or(es) => truth(es.iter().any(|e| is_true(&at(e)))),
        Expr::Not(e) => truth(!is_true(&at(e))),
        Expr::Between(e, lo, hi) => {
            let v = at(e);
            truth(holds(CmpOp::Ge, &v, &at(lo)) && holds(CmpOp::Le, &v, &at(hi)))
        }
        Expr::InList(e, items) => {
            let v = at(e);
            truth(items.iter().any(|item| match (&v, item) {
                (Value::F64(x), item) => item.as_f64() == Some(*x),
                // A number is never in a list of strings, nor the reverse.
                (Value::Str(_), item) => {
                    matches!(item, Value::Str(_)) && holds(CmpOp::Eq, &v, item)
                }
                (_, item) => int_of(item).is_some() && holds(CmpOp::Eq, &v, item),
            }))
        }
        Expr::Like(e, pat) => truth(like_of(&at(e), pat)),
        Expr::NotLike(e, pat) => truth(!like_of(&at(e), pat)),
        Expr::Substr(e, start, len) => {
            let Value::Str(s) = at(e) else {
                panic!("SUBSTR over {e:?}")
            };
            Value::Str(s.chars().skip(start.saturating_sub(1)).take(*len).collect())
        }
        Expr::Case(arms, else_e) => {
            let taken = arms.iter().find(|(cond, _)| is_true(&at(cond)));
            let v = at(taken.map_or(else_e, |(_, value)| value));
            // The result has the first arm's type; an integer of another
            // integer type keeps its raw.
            match (at(&arms[0].1), &v) {
                (Value::Decimal(_, s), Value::I64(raw)) => Value::Decimal(*raw, s),
                (Value::I64(_), Value::I32(raw)) => Value::I64(*raw as i64),
                _ => v,
            }
        }
        Expr::ExtractYear(e) => {
            let Value::Date(d) = at(e) else {
                panic!("EXTRACT(YEAR) over {e:?}")
            };
            Value::I32(date::from_days(d).0)
        }
    }
}

// --- data --------------------------------------------------------------------

const I32_COL: usize = 0;
const I64_COL: usize = 1;
const DATE_COL: usize = 2;
const DEC2_COL: usize = 3;
const DEC4_COL: usize = 4;
const BIG_COL: usize = 5;
const BIG_DEC2_COL: usize = 6;
const F64_COL: usize = 7;
const STR_COL: usize = 8;
const STR2_COL: usize = 9;
/// 0, 1, 0, 1, ...: `Col(FLAG_COL)` as a predicate passes every other row.
const FLAG_COL: usize = 10;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::of(&[
        ("i32", DataType::I32),
        ("i64", DataType::I64),
        ("date", DataType::Date),
        ("dec2", DataType::Decimal { scale: 2 }),
        ("dec4", DataType::Decimal { scale: 4 }),
        ("big", DataType::I64),
        ("big_dec2", DataType::Decimal { scale: 2 }),
        ("f64", DataType::F64),
        ("str", DataType::Str),
        ("str2", DataType::Str),
        ("flag", DataType::I64),
    ]))
}

const STRINGS: &[&str] = &[
    "",
    "a",
    "ab",
    "abc",
    "aXbXc",
    "XXaXX",
    "héllo",
    "日本語テキスト",
    "🦀 crab",
    "%_",
    "13-ASIA",
    "PROMO BRUSHED TIN",
    "MEDIUM POLISHED BRASS",
    "forest green metal",
    "wake special handling requests",
    "Customer slyly Complaints",
];

const PATTERNS: &[&str] = &[
    "%special%requests%",
    "PROMO%",
    "%BRASS",
    "MEDIUM POLISHED%",
    "%Customer%Complaints%",
    "forest%",
    "%green%",
    "%",
    "",
    "_",
    "a_c",
    "%X%X%",
    "__llo",
    "%é%",
];

/// A value near `±i64::MAX / 10^k`: products of two overflow 64 bits, and
/// so does rescaling one by a few digits.
fn big(rng: &mut SplitMix64) -> i64 {
    let v = i64::MAX / 10i64.pow(rng.next_bounded(8) as u32) - rng.range_i64(0, 99);
    if rng.chance(0.5) {
        v
    } else {
        -v
    }
}

fn batch(rng: &mut SplitMix64, n: usize) -> Batch {
    let pick = |rng: &mut SplitMix64| *rng.choose(STRINGS).unwrap();
    let mut ints =
        |lo: i64, hi: i64| -> Vec<i64> { (0..n).map(|_| rng.range_i64(lo, hi)).collect() };
    let columns = vec![
        ColumnData::I32(ints(-50, 50).into_iter().map(|x| x as i32).collect()),
        ColumnData::I64(ints(-1000, 1000)),
        ColumnData::I32(ints(8000, 10_500).into_iter().map(|x| x as i32).collect()),
        ColumnData::I64(ints(-100_000, 100_000)),
        ColumnData::I64(ints(-5_000_000, 5_000_000)),
        ColumnData::I64((0..n).map(|_| big(rng)).collect()),
        ColumnData::I64((0..n).map(|_| big(rng)).collect()),
        ColumnData::F64(
            (0..n)
                .map(|_| match rng.next_bounded(4) {
                    0 => 0.0,
                    1 => rng.range_i64(-20, 20) as f64,
                    _ => (rng.next_f64() - 0.5) * 1e4,
                })
                .collect(),
        ),
        ColumnData::Str((0..n).map(|_| pick(rng)).collect()),
        ColumnData::Str((0..n).map(|_| pick(rng)).collect()),
        ColumnData::I64((0..n as i64).map(|i| i % 2).collect()),
    ];
    Batch::new(schema(), columns).unwrap()
}

/// `b` with its two string columns as dictionary codes, as PDICT decode
/// hands them on. `STR_COL`'s dictionary is `STRINGS` shuffled, a few of
/// them twice (two codes, one string), and one entry of its own (as a PDICT
/// exception, possibly equal to an entry) for one row in ten: no larger than
/// a vector of 1,024 rows, so it is read once per entry. `STR2_COL` gives
/// every row an entry of its own, a dictionary larger than any vector,
/// which is read row by row.
fn coded_twin(rng: &mut SplitMix64, b: &Batch) -> Batch {
    let mut columns = b.columns.clone();
    for (col, own_entry) in [(STR_COL, 0.1), (STR2_COL, 1.0)] {
        let mut dict: Vec<&str> = STRINGS.to_vec();
        for i in (1..dict.len()).rev() {
            dict.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        for _ in 0..4 {
            let s = *rng.choose(STRINGS).unwrap();
            dict.push(s);
        }
        let values = b.column(col).as_strs().unwrap();
        let codes = values
            .iter()
            .map(|s| {
                if rng.chance(own_entry) {
                    dict.push(s);
                    return dict.len() as u32 - 1;
                }
                let naming: Vec<usize> = (0..dict.len()).filter(|&k| dict[k] == s).collect();
                *rng.choose(&naming).unwrap() as u32
            })
            .collect();
        let coded = StrVec::coded(dict.into_iter().collect(), codes).unwrap();
        assert!(coded.is_coded() && coded == *values);
        columns[col] = ColumnData::Str(coded);
    }
    Batch::new(b.schema.clone(), columns).unwrap()
}

// --- expression trees ----------------------------------------------------------

/// What a generated value expression evaluates to.
#[derive(Clone, Copy, PartialEq)]
enum Ty {
    I32,
    I64,
    Date,
    Dec(u8),
    F64,
    Str,
}

struct Gen {
    rng: SplitMix64,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_bounded(n)
    }

    fn any_number(&mut self) -> Ty {
        [
            Ty::I32,
            Ty::I64,
            Ty::Dec(0),
            Ty::Dec(2),
            Ty::Dec(4),
            Ty::F64,
        ][self.below(6) as usize]
    }

    /// A column or a literal of exactly type `ty`.
    fn leaf(&mut self, ty: Ty) -> Expr {
        let literal = self.rng.chance(0.4);
        let small = self.rng.range_i64(-60, 60);
        let wide = if self.rng.chance(0.2) {
            big(&mut self.rng)
        } else {
            small * 997
        };
        match (ty, literal) {
            (Ty::I32, false) => Expr::Col(I32_COL),
            (Ty::I32, true) => Expr::Lit(Value::I32(small as i32)),
            (Ty::I64, false) => Expr::Col([I64_COL, BIG_COL, FLAG_COL][self.below(3) as usize]),
            (Ty::I64, true) => Expr::Lit(Value::I64(wide)),
            (Ty::Date, false) => Expr::Col(DATE_COL),
            (Ty::Date, true) => Expr::Lit(Value::Date(9_000 + small as i32 * 20)),
            (Ty::Dec(2), false) => Expr::Col([DEC2_COL, BIG_DEC2_COL][self.below(2) as usize]),
            (Ty::Dec(4), false) => Expr::Col(DEC4_COL),
            (Ty::Dec(scale), _) => Expr::Lit(Value::Decimal(wide, scale)),
            (Ty::F64, false) => Expr::Col(F64_COL),
            (Ty::F64, true) => Expr::Lit(Value::F64(small as f64 / 4.0)),
            (Ty::Str, false) => Expr::Col([STR_COL, STR2_COL][self.below(2) as usize]),
            (Ty::Str, true) => Expr::Lit(Value::Str(self.rng.choose(STRINGS).unwrap().to_string())),
        }
    }

    /// The type of `a op b`, as the engine's `arith_dtype` has it.
    fn arith_ty(op: ArithOp, a: Ty, b: Ty) -> Ty {
        let scale = |t| if let Ty::Dec(s) = t { s } else { 0 };
        match op {
            _ if a == Ty::F64 || b == Ty::F64 || op == ArithOp::Div => Ty::F64,
            ArithOp::Mul if scale(a) + scale(b) > 0 => Ty::Dec((scale(a) + scale(b)).min(4)),
            ArithOp::Mul => Ty::I64,
            _ if scale(a).max(scale(b)) > 0 => Ty::Dec(scale(a).max(scale(b))),
            _ if a == Ty::Date => Ty::Date,
            _ => Ty::I64,
        }
    }

    /// A value expression and its type.
    fn value(&mut self, depth: u32) -> (Expr, Ty) {
        let ty = [
            Ty::I32,
            Ty::I64,
            Ty::Date,
            Ty::Dec(2),
            Ty::Dec(4),
            Ty::F64,
            Ty::Str,
        ][self.below(7) as usize];
        if depth == 0 {
            return (self.leaf(ty), ty);
        }
        match self.below(8) {
            0 => (self.leaf(ty), ty),
            1..=3 => {
                // Arithmetic over numbers, or a date plus or minus days.
                let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]
                    [self.below(4) as usize];
                if self.rng.chance(0.15) && matches!(op, ArithOp::Add | ArithOp::Sub) {
                    let days_ty = [Ty::I32, Ty::I64][self.below(2) as usize];
                    let days = self.leaf(days_ty);
                    return (
                        Expr::Arith(op, Box::new(self.leaf(Ty::Date)), Box::new(days)),
                        Ty::Date,
                    );
                }
                let (a, ta) = self.number(depth - 1);
                let (b, tb) = self.number(depth - 1);
                (
                    Expr::Arith(op, Box::new(a), Box::new(b)),
                    Self::arith_ty(op, ta, tb),
                )
            }
            4 => {
                let (s, _) = self.string(depth - 1);
                let (start, len) = (self.below(5) as usize, self.below(6) as usize);
                (Expr::Substr(Box::new(s), start, len), Ty::Str)
            }
            5 => {
                // Arms of one type; sometimes an integer of another type
                // where the first arm fixed the result's.
                let arms: Vec<(Expr, Expr)> = (0..1 + self.below(3))
                    .map(|_| (self.predicate(depth - 1), self.leaf(ty)))
                    .collect();
                let else_e = match ty {
                    Ty::Dec(_) if self.rng.chance(0.3) => Expr::Lit(Value::I64(0)),
                    Ty::I64 if self.rng.chance(0.3) => self.leaf(Ty::I32),
                    _ => self.leaf(ty),
                };
                (Expr::Case(arms, Box::new(else_e)), ty)
            }
            6 => (Expr::ExtractYear(Box::new(self.leaf(Ty::Date))), Ty::I32),
            _ => (self.predicate(depth - 1), Ty::I32),
        }
    }

    fn number(&mut self, depth: u32) -> (Expr, Ty) {
        loop {
            let ty = self.any_number();
            if depth == 0 || self.rng.chance(0.5) {
                return (self.leaf(ty), ty);
            }
            let (e, ty) = self.value(depth);
            if !matches!(ty, Ty::Str | Ty::Date) {
                return (e, ty);
            }
        }
    }

    fn string(&mut self, depth: u32) -> (Expr, Ty) {
        if depth > 0 && self.rng.chance(0.3) {
            let (start, len) = (self.below(5) as usize, self.below(6) as usize);
            let (s, _) = self.string(depth - 1);
            return (Expr::Substr(Box::new(s), start, len), Ty::Str);
        }
        (self.leaf(Ty::Str), Ty::Str)
    }

    /// Two expressions that compare: numbers, dates or strings, a literal
    /// on the left, the right, both sides or neither.
    fn comparable(&mut self, depth: u32) -> (Expr, Expr, Ty) {
        match self.below(5) {
            0 => {
                let (a, _) = self.string(depth);
                let (b, _) = self.string(depth);
                (a, b, Ty::Str)
            }
            1 => (self.leaf(Ty::Date), self.leaf(Ty::Date), Ty::Date),
            _ => {
                let (a, ty) = self.number(depth);
                let (b, _) = self.number(depth);
                (a, b, ty)
            }
        }
    }

    fn predicate(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(0.15) {
            // Every other row, every row, no row.
            return match self.below(5) {
                0 => Expr::Col(FLAG_COL),
                1 => Expr::ge(Expr::Col(I64_COL), Expr::Lit(Value::I64(-1000))),
                2 => Expr::lt(Expr::Col(I64_COL), Expr::Lit(Value::I64(-1000))),
                _ => {
                    let (a, b, _) = self.comparable(0);
                    Expr::Cmp(self.cmp_op(), Box::new(a), Box::new(b))
                }
            };
        }
        match self.below(10) {
            0..=2 => {
                let (a, b, _) = self.comparable(depth - 1);
                Expr::Cmp(self.cmp_op(), Box::new(a), Box::new(b))
            }
            3 => Expr::And(
                (0..self.below(4))
                    .map(|_| self.predicate(depth - 1))
                    .collect(),
            ),
            4 => Expr::Or(
                (0..self.below(4))
                    .map(|_| self.predicate(depth - 1))
                    .collect(),
            ),
            5 => Expr::Not(Box::new(self.predicate(depth - 1))),
            6 => {
                let (e, lo, ty) = self.comparable(depth - 1);
                let hi = match ty {
                    Ty::Str => self.string(depth - 1).0,
                    Ty::Date => self.leaf(Ty::Date),
                    _ => self.number(depth - 1).0,
                };
                Expr::Between(Box::new(e), Box::new(lo), Box::new(hi))
            }
            7 => {
                let (e, ty) = match self.below(3) {
                    0 => self.string(depth - 1),
                    1 => (self.leaf(Ty::Date), Ty::Date),
                    _ => self.number(depth - 1),
                };
                let items = (0..self.below(5))
                    .map(|_| {
                        // Coarser, equal and finer than the tested expression.
                        let item_ty = match ty {
                            Ty::Str | Ty::Date | Ty::F64 => ty,
                            _ => [Ty::I32, Ty::I64, Ty::Dec(2), Ty::Dec(4)][self.below(4) as usize],
                        };
                        loop {
                            if let Expr::Lit(v) = self.leaf(item_ty) {
                                return v;
                            }
                        }
                    })
                    .collect();
                Expr::InList(Box::new(e), items)
            }
            _ => {
                let pat = if self.rng.chance(0.5) {
                    self.rng.choose(PATTERNS).unwrap().to_string()
                } else {
                    (0..self.below(6))
                        .map(|_| *self.rng.choose(&['a', 'b', 'X', '%', '_', 'é']).unwrap())
                        .collect()
                };
                let (s, _) = self.string(depth - 1);
                if self.rng.chance(0.5) {
                    Expr::Like(Box::new(s), pat)
                } else {
                    Expr::NotLike(Box::new(s), pat)
                }
            }
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][self.below(6) as usize]
    }
}

// --- the comparison --------------------------------------------------------------

/// Equal in type and to the bit (`Value`'s own `==` goes through `f64`).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I32(x), Value::I32(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Decimal(x, sx), Value::Decimal(y, sy)) => x == y && sx == sy,
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn assert_same_rows(what: &str, got: &[Vec<Value>], want: &[Vec<Value>], context: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count; {context}");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.len() == w.len() && g.iter().zip(w).all(|(g, w)| same(g, w)),
            "{what}: row {r} is {g:?}, the reference says {w:?}; {context}"
        );
    }
}

/// Hold the engine to the reference for one predicate and one value
/// expression over one batch.
fn check(pred: &Expr, value: &Expr, b: &Batch, rows: &[Vec<Value>], context: &str) {
    // A predicate is a value too (0 or 1, or the column itself).
    let want_pred: Vec<Value> = rows.iter().map(|r| reference(pred, r)).collect();
    let want_pass: Vec<bool> = want_pred.iter().map(is_true).collect();
    let want_value: Vec<Value> = rows.iter().map(|r| reference(value, r)).collect();

    let mask = pred
        .eval_mask(b)
        .unwrap_or_else(|e| panic!("eval_mask: {e}; {context}"));
    assert_eq!(mask, want_pass, "eval_mask; {context}");

    let (col, dt) = pred
        .eval(b)
        .unwrap_or_else(|e| panic!("eval of the predicate: {e}; {context}"));
    let got: Vec<Vec<Value>> = (0..b.len()).map(|i| vec![col.value_at(i, dt)]).collect();
    let want: Vec<Vec<Value>> = want_pred.iter().map(|v| vec![v.clone()]).collect();
    assert_same_rows("eval of the predicate", &got, &want, context);

    let (col, dt) = value
        .eval(b)
        .unwrap_or_else(|e| panic!("eval: {e}; {context}"));
    assert_eq!(col.len(), b.len(), "eval: length; {context}");
    let got: Vec<Vec<Value>> = (0..b.len()).map(|i| vec![col.value_at(i, dt)]).collect();
    let want: Vec<Vec<Value>> = want_value.iter().map(|v| vec![v.clone()]).collect();
    assert_same_rows("eval", &got, &want, context);

    let source = || Box::new(BatchSource::from_batch(b.clone(), VECTOR_SIZE));
    let mut select = Select::new(source(), pred.clone());
    let got = collect_rows(&mut select).unwrap_or_else(|e| panic!("Select: {e}; {context}"));
    let want: Vec<Vec<Value>> = rows
        .iter()
        .zip(&want_pass)
        .filter(|(_, &p)| p)
        .map(|(r, _)| r.clone())
        .collect();
    assert_same_rows("Select", &got, &want, context);

    // The value, a column passed through twice with a use in between, the
    // predicate as a value, and a column passed through once.
    let items = vec![
        (Expr::Col(STR_COL), "s".to_string()),
        (value.clone(), "v".to_string()),
        (Expr::Col(STR_COL), "s_again".to_string()),
        (pred.clone(), "p".to_string()),
        (Expr::Col(DEC2_COL), "d".to_string()),
    ];
    let mut project =
        Project::new(source(), items).unwrap_or_else(|e| panic!("Project::new: {e}; {context}"));
    let got = collect_rows(&mut project).unwrap_or_else(|e| panic!("Project: {e}; {context}"));
    let want: Vec<Vec<Value>> = (0..rows.len())
        .map(|i| {
            let s = rows[i][STR_COL].clone();
            vec![
                s.clone(),
                want_value[i].clone(),
                s,
                want_pred[i].clone(),
                rows[i][DEC2_COL].clone(),
            ]
        })
        .collect();
    assert_same_rows("Project", &got, &want, context);
}

const SIZES: [usize; 6] = [0, 1, 1023, 1024, 1025, 5000];
const TREES: u64 = 2_400;

#[test]
fn the_evaluator_agrees_with_a_row_at_a_time_reference_on_generated_trees() {
    let replay = std::env::var("EXPR_DIFF_SEED").ok().map(|s| {
        let s = s.trim_start_matches("0x");
        u64::from_str_radix(s, 16).expect("EXPR_DIFF_SEED is a hex seed")
    });
    let mut data_rng = SplitMix64::new(0xE21);
    let batches: Vec<Batch> = SIZES.iter().map(|&n| batch(&mut data_rng, n)).collect();
    let coded: Vec<Batch> = batches
        .iter()
        .map(|b| coded_twin(&mut data_rng, b))
        .collect();
    let rows: Vec<Vec<Vec<Value>>> = batches.iter().map(Batch::rows).collect();
    let mut seeds = SplitMix64::new(0x5EED_0E21);
    for tree in 0..TREES {
        let seed = replay.unwrap_or_else(|| seeds.next_u64());
        let mut gen = Gen {
            rng: SplitMix64::new(seed),
        };
        let pred = gen.predicate(4);
        let (value, _) = gen.value(4);
        // Each tree runs on one batch size, the sizes taking turns, with its
        // strings flat and as codes; a replayed tree runs on all of them.
        for (k, b) in batches.iter().enumerate() {
            if replay.is_some() || k as u64 == tree % SIZES.len() as u64 {
                for (layout, b) in [("flat", b), ("coded", &coded[k])] {
                    let context = format!(
                        "EXPR_DIFF_SEED={seed:#x}, {} rows, strings {layout}, predicate {pred:?}, value {value:?}",
                        b.len()
                    );
                    check(&pred, &value, b, &rows[k], &context);
                }
            }
        }
        if replay.is_some() {
            break;
        }
    }
}

/// The three predicates a filter meets most, on every batch size: every row
/// passes (the input is handed on untouched), none does, every other one
/// does — alone and under `AND`/`OR` with each other.
#[test]
fn all_pass_none_pass_and_alternating_predicates_on_every_batch_size() {
    let all = Expr::ge(Expr::Col(I64_COL), Expr::Lit(Value::I64(-1000)));
    let none = Expr::lt(Expr::Col(I64_COL), Expr::Lit(Value::I64(-1000)));
    let alternating = Expr::eq(Expr::Col(FLAG_COL), Expr::Lit(Value::I64(1)));
    let value = Expr::mul(Expr::Col(BIG_DEC2_COL), Expr::Col(DEC4_COL));
    let mut rng = SplitMix64::new(0xA11);
    for n in SIZES {
        let b = batch(&mut rng, n);
        let rows = b.rows();
        for pred in [
            all.clone(),
            none.clone(),
            alternating.clone(),
            Expr::and(vec![all.clone(), alternating.clone()]),
            Expr::and(vec![alternating.clone(), none.clone(), all.clone()]),
            Expr::or(vec![none.clone(), alternating.clone()]),
            Expr::or(vec![alternating.clone(), all.clone()]),
            Expr::Not(Box::new(alternating.clone())),
        ] {
            check(
                &pred,
                &value,
                &b,
                &rows,
                &format!("{n} rows, predicate {pred:?}"),
            );
        }
    }
}

/// `like_match` against the recursive matcher on short generated strings and
/// patterns, and on the patterns and kinds of strings of Q9, Q13, Q14 and Q16.
#[test]
fn like_agrees_with_the_recursive_matcher() {
    let mut rng = SplitMix64::new(0x11CE);
    let alphabet = ['a', 'b', 'X', '%', '_', 'é'];
    let word = |rng: &mut SplitMix64, max: u64| -> String {
        (0..rng.next_bounded(max + 1))
            .map(|_| *rng.choose(&alphabet).unwrap())
            .collect()
    };
    for _ in 0..20_000 {
        let (s, pat) = (word(&mut rng, 8), word(&mut rng, 6));
        assert_eq!(
            like_match(&s, &pat),
            like_reference(s.as_bytes(), pat.as_bytes()),
            "{s:?} LIKE {pat:?}"
        );
    }
    for s in STRINGS {
        for pat in PATTERNS {
            assert_eq!(
                like_match(s, pat),
                like_reference(s.as_bytes(), pat.as_bytes()),
                "{s:?} LIKE {pat:?}"
            );
        }
    }
}

//! The value and type system.
//!
//! VectorH-rs supports the types needed to run TPC-H faithfully:
//! 32/64-bit integers, fixed-point decimals (stored as scaled i64, avoiding
//! the floating-point rounding the paper calls unacceptable for monetary
//! values), dates (days since 1970-01-01, like Vectorwise's internal date),
//! and strings.

use std::cmp::Ordering;
use std::fmt;

/// Physical data types of column values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Fixed-point decimal stored as `i64` scaled by 10^scale.
    Decimal {
        /// Digits after the decimal point.
        scale: u8,
    },
    /// Calendar date as days since the Unix epoch.
    Date,
    /// 64-bit IEEE float (used only where TPC-H permits).
    F64,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Fixed-width types pack into integer codes; strings do not.
    pub fn is_fixed_width(self) -> bool {
        !matches!(self, DataType::Str)
    }

    /// Width in bytes of the in-memory representation (strings report
    /// pointer-ish width 16: offset + length).
    pub fn width(self) -> usize {
        match self {
            DataType::I32 | DataType::Date => 4,
            DataType::I64 | DataType::Decimal { .. } | DataType::F64 => 8,
            DataType::Str => 16,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::I32 => write!(f, "int32"),
            DataType::I64 => write!(f, "int64"),
            DataType::Decimal { scale } => write!(f, "decimal({scale})"),
            DataType::Date => write!(f, "date"),
            DataType::F64 => write!(f, "float64"),
            DataType::Str => write!(f, "string"),
        }
    }
}

/// A single scalar value.
///
/// `Decimal` carries its scale so values stay self-describing; arithmetic on
/// decimals of equal scale is exact integer arithmetic.
#[derive(Debug, Clone)]
pub enum Value {
    I32(i32),
    I64(i64),
    Decimal(i64, u8),
    Date(i32),
    F64(f64),
    Str(String),
    /// SQL NULL. VectorH-rs columns are non-nullable in storage (TPC-H has
    /// no NULLs) but expressions such as outer-join probes produce NULLs.
    Null,
}

impl Value {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::I32(_) => Some(DataType::I32),
            Value::I64(_) => Some(DataType::I64),
            Value::Decimal(_, s) => Some(DataType::Decimal { scale: *s }),
            Value::Date(_) => Some(DataType::Date),
            Value::F64(_) => Some(DataType::F64),
            Value::Str(_) => Some(DataType::Str),
            Value::Null => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as i64 where sensible (ints, decimals' raw value, dates).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I32(v) => Some(*v as i64),
            Value::I64(v) => Some(*v),
            Value::Decimal(v, _) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Interpret as f64 (decimals are unscaled to their real value).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I32(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::Decimal(v, s) => Some(*v as f64 / 10f64.powi(*s as i32)),
            Value::Date(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) | (_, Null) => None,
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (F64(a), F64(b)) => a.partial_cmp(b),
            (Decimal(a, sa), Decimal(b, sb)) if sa == sb => Some(a.cmp(b)),
            // Mixed numerics compare through f64; exactness only matters for
            // equal-scale decimals, handled above.
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Decimal(v, s) => {
                let scale = 10i64.pow(*s as u32);
                let sign = if *v < 0 { "-" } else { "" };
                let v = v.unsigned_abs() as i64;
                write!(
                    f,
                    "{sign}{}.{:0width$}",
                    v / scale,
                    v % scale,
                    width = *s as usize
                )
            }
            Value::Date(v) => {
                let (y, m, d) = date::from_days(*v);
                write!(f, "{y:04}-{m:02}-{d:02}")
            }
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// Proleptic-Gregorian date math on "days since 1970-01-01".
///
/// TPC-H only needs dates between 1992 and 1998 but the conversion is exact
/// over the full i32 day range used here.
pub mod date {
    /// Days in each month of a non-leap year.
    const MDAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

    fn is_leap(y: i64) -> bool {
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }

    /// Convert `(year, month, day)` to days since 1970-01-01.
    pub fn to_days(year: i32, month: u32, day: u32) -> i32 {
        // Count days from year 1 to `year`, then to the month/day,
        // then rebase to the 1970 epoch (which is day 719162 from year 1).
        let y = year as i64 - 1;
        let mut days = y * 365 + y / 4 - y / 100 + y / 400;
        for (m, &md) in MDAYS.iter().enumerate().take(month as usize - 1) {
            days += md;
            if m == 1 && is_leap(year as i64) {
                days += 1;
            }
        }
        days += day as i64 - 1;
        (days - 719_162) as i32
    }

    /// Convert days since 1970-01-01 back to `(year, month, day)`, in closed
    /// form: no loop over years or months (`EXTRACT(YEAR)` calls this per
    /// row). Years are counted from March 1st, so the leap day is the last
    /// day of its year: a 400-year era is 146,097 days, and within it the
    /// year, the day of that year and the month (five-month runs of
    /// 31/30 days, 153 days each) follow by division.
    pub fn from_days(days: i32) -> (i32, u32, u32) {
        let z = days as i64 + 719_468; // days since 0000-03-01
        let era = z.div_euclid(146_097);
        let day_of_era = z.rem_euclid(146_097); // [0, 146096]
        let year_of_era =
            (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
        let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
        let month_from_march = (5 * day_of_year + 2) / 153; // [0, 11]
        let day = day_of_year - (153 * month_from_march + 2) / 5 + 1;
        let month = if month_from_march < 10 {
            month_from_march + 3
        } else {
            month_from_march - 9
        };
        let year = year_of_era + 400 * era + (month <= 2) as i64;
        (year as i32, month as u32, day as u32)
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<i32> {
        let mut it = s.split('-');
        let y: i32 = it.next()?.parse().ok()?;
        let m: u32 = it.next()?.parse().ok()?;
        let d: u32 = it.next()?.parse().ok()?;
        if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(to_days(y, m, d))
    }
}

/// Construct a decimal value from a human-readable literal, e.g. `dec("1.25", 2)`.
pub fn dec(text: &str, scale: u8) -> Value {
    let neg = text.starts_with('-');
    let t = text.trim_start_matches('-');
    let (int_part, frac_part) = match t.split_once('.') {
        Some((i, f)) => (i, f),
        None => (t, ""),
    };
    let mut raw: i64 = int_part.parse::<i64>().unwrap_or(0) * 10i64.pow(scale as u32);
    let mut frac = String::from(frac_part);
    frac.truncate(scale as usize);
    while frac.len() < scale as usize {
        frac.push('0');
    }
    if !frac.is_empty() {
        raw += frac.parse::<i64>().unwrap_or(0);
    }
    Value::Decimal(if neg { -raw } else { raw }, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_widths() {
        assert_eq!(DataType::I32.width(), 4);
        assert_eq!(DataType::Decimal { scale: 2 }.width(), 8);
        assert!(DataType::I64.is_fixed_width());
        assert!(!DataType::Str.is_fixed_width());
    }

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(date::to_days(1970, 1, 1), 0);
        assert_eq!(date::to_days(1970, 1, 2), 1);
        assert_eq!(date::to_days(1969, 12, 31), -1);
        // TPC-H boundary dates.
        assert_eq!(date::from_days(date::to_days(1992, 1, 1)), (1992, 1, 1));
        assert_eq!(date::from_days(date::to_days(1998, 12, 31)), (1998, 12, 31));
        assert_eq!(date::from_days(date::to_days(1996, 2, 29)), (1996, 2, 29));
    }

    #[test]
    fn date_roundtrip_exhaustive_range() {
        // Every day across several leap boundaries.
        for d in date::to_days(1991, 12, 1)..=date::to_days(2001, 2, 1) {
            let (y, m, dd) = date::from_days(d);
            assert_eq!(date::to_days(y, m, dd), d, "day {d} -> {y}-{m}-{dd}");
        }
    }

    #[test]
    fn from_days_is_the_inverse_of_to_days_and_agrees_with_the_year_loop_it_replaced() {
        /// The year-by-year conversion `from_days` used to be.
        fn by_year_loop(days: i32) -> (i32, u32, u32) {
            const MDAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
            let leap = |y: i64| (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
            let mut rem = days as i64 + 719_162;
            let mut year = 1 + 400 * (rem / 146_097);
            rem %= 146_097;
            while rem >= if leap(year) { 366 } else { 365 } {
                rem -= if leap(year) { 366 } else { 365 };
                year += 1;
            }
            let mut month = 0;
            while rem >= MDAYS[month] + (month == 1 && leap(year)) as i64 {
                rem -= MDAYS[month] + (month == 1 && leap(year)) as i64;
                month += 1;
            }
            (year as i32, month as u32 + 1, rem as u32 + 1)
        }
        let (first, last) = (date::to_days(1, 1, 1), date::to_days(9999, 12, 31));
        let modern = date::to_days(1900, 1, 1)..=date::to_days(2100, 12, 31);
        for d in first..=last {
            let ymd = date::from_days(d);
            assert_eq!(date::to_days(ymd.0, ymd.1, ymd.2), d, "day {d} -> {ymd:?}");
            // The loop walks up to 399 years a call: every day of two
            // centuries around TPC-H's, and every 97th day elsewhere.
            if modern.contains(&d) || d % 97 == 0 {
                assert_eq!(ymd, by_year_loop(d), "day {d}");
            }
        }
        assert_eq!(date::from_days(first), (1, 1, 1));
        assert_eq!(date::from_days(last), (9999, 12, 31));
    }

    #[test]
    fn date_parse() {
        assert_eq!(date::parse("1995-03-05"), Some(date::to_days(1995, 3, 5)));
        assert_eq!(date::parse("1995-13-05"), None);
        assert_eq!(date::parse("nope"), None);
    }

    #[test]
    fn decimal_literal_and_display() {
        assert_eq!(dec("1.25", 2), Value::Decimal(125, 2));
        assert_eq!(dec("-0.07", 2), Value::Decimal(-7, 2));
        assert_eq!(dec("3", 2), Value::Decimal(300, 2));
        assert_eq!(dec("1.259", 2), Value::Decimal(125, 2)); // truncation
        assert_eq!(Value::Decimal(125, 2).to_string(), "1.25");
        assert_eq!(Value::Decimal(-7, 2).to_string(), "-0.07");
    }

    #[test]
    fn value_ordering() {
        assert!(Value::I32(3) < Value::I32(5));
        assert!(Value::I32(3) < Value::I64(5)); // mixed numerics
        assert_eq!(Value::Decimal(100, 2), Value::Decimal(100, 2));
        assert!(Value::Str("abc".into()) < Value::Str("abd".into()));
        assert_eq!(Value::Null.partial_cmp(&Value::I32(1)), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn value_display() {
        assert_eq!(
            Value::Date(date::parse("1997-03-05").unwrap()).to_string(),
            "1997-03-05"
        );
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn as_f64_unscales_decimals() {
        assert_eq!(Value::Decimal(125, 2).as_f64(), Some(1.25));
        assert_eq!(Value::I64(4).as_f64(), Some(4.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}

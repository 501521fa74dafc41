//! vwload-style CSV parsing (§7).
//!
//! "It allows to specify custom delimiters, load only a subset of columns
//! from the input file, perform character set conversion, use custom date
//! formats, skip a number of errors, log rejected tuples to a file."
//! The options here mirror that feature list (sans charsets — inputs are
//! UTF-8).

use vectorh_common::types::date;
use vectorh_common::{ColumnData, DataType, Result, Schema, Value, VhError};

/// Loader options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    pub delimiter: char,
    /// Load only these file columns (by position), in schema order.
    /// `None` = all columns in order.
    pub column_subset: Option<Vec<usize>>,
    /// Tolerate up to this many malformed rows.
    pub max_errors: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: '|',
            column_subset: None,
            max_errors: 0,
        }
    }
}

/// Parse result: typed columns + rejected lines (line number, reason).
#[derive(Debug)]
pub struct CsvResult {
    pub columns: Vec<ColumnData>,
    pub rows: usize,
    pub rejected: Vec<(usize, String)>,
}

fn parse_field(text: &str, dtype: DataType) -> Result<Value> {
    let bad = |what: &str| VhError::InvalidArg(format!("bad {what}: '{text}'"));
    Ok(match dtype {
        DataType::I32 => Value::I32(text.trim().parse().map_err(|_| bad("int32"))?),
        DataType::I64 => Value::I64(text.trim().parse().map_err(|_| bad("int64"))?),
        DataType::F64 => Value::F64(text.trim().parse().map_err(|_| bad("float"))?),
        DataType::Date => Value::Date(date::parse(text.trim()).ok_or_else(|| bad("date"))?),
        DataType::Decimal { scale } => {
            let t = text.trim();
            if t.is_empty() || t.chars().any(|c| !matches!(c, '0'..='9' | '.' | '-')) {
                return Err(bad("decimal"));
            }
            vectorh_common::types::dec(t, scale)
        }
        DataType::Str => Value::Str(text.to_string()),
    })
}

/// Parse CSV text into columns of `schema`.
pub fn parse_csv(text: &str, schema: &Schema, opts: &CsvOptions) -> Result<CsvResult> {
    let mut columns: Vec<ColumnData> = schema
        .fields()
        .iter()
        .map(|f| ColumnData::new(f.dtype))
        .collect();
    let mut rejected = Vec::new();
    let mut rows = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(opts.delimiter).collect();
        let picked: Vec<&str> = match &opts.column_subset {
            Some(subset) => {
                let mut v = Vec::with_capacity(subset.len());
                let mut ok = true;
                for &c in subset {
                    match fields.get(c) {
                        Some(f) => v.push(*f),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    rejected.push((lineno, "missing column".into()));
                    if rejected.len() > opts.max_errors {
                        return Err(VhError::InvalidArg(format!(
                            "line {lineno}: missing column (error limit exceeded)"
                        )));
                    }
                    continue;
                }
                v
            }
            None => fields.clone(),
        };
        if picked.len() < schema.len() {
            rejected.push((
                lineno,
                format!("{} fields, need {}", picked.len(), schema.len()),
            ));
            if rejected.len() > opts.max_errors {
                return Err(VhError::InvalidArg(format!(
                    "line {lineno}: too few fields (error limit exceeded)"
                )));
            }
            continue;
        }
        // Two-phase: validate the whole row before pushing any column so a
        // bad row never leaves ragged columns behind.
        let parsed: std::result::Result<Vec<Value>, VhError> = (0..schema.len())
            .map(|c| parse_field(picked[c], schema.dtype(c)))
            .collect();
        match parsed {
            Ok(values) => {
                for (c, v) in values.iter().enumerate() {
                    columns[c].push_value(v)?;
                }
                rows += 1;
            }
            Err(e) => {
                rejected.push((lineno, e.to_string()));
                if rejected.len() > opts.max_errors {
                    return Err(VhError::InvalidArg(format!(
                        "line {lineno}: {e} (error limit exceeded)"
                    )));
                }
            }
        }
    }
    Ok(CsvResult {
        columns,
        rows,
        rejected,
    })
}

/// Render columns as CSV (for generating test inputs and ExternalDump).
pub fn to_csv(columns: &[ColumnData], schema: &Schema, delimiter: char) -> String {
    let n = columns.first().map(|c| c.len()).unwrap_or(0);
    let mut out = String::new();
    for i in 0..n {
        for (c, col) in columns.iter().enumerate() {
            if c > 0 {
                out.push(delimiter);
            }
            out.push_str(&col.value_at(i, schema.dtype(c)).to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::I64),
            ("price", DataType::Decimal { scale: 2 }),
            ("day", DataType::Date),
            ("name", DataType::Str),
        ])
    }

    #[test]
    fn parses_typed_rows() {
        let text = "1|10.50|1995-03-05|widget\n2|3.99|1996-01-01|gadget\n";
        let r = parse_csv(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(r.rows, 2);
        assert!(r.rejected.is_empty());
        assert_eq!(r.columns[0].as_i64().unwrap(), &[1, 2]);
        assert_eq!(r.columns[1].as_i64().unwrap(), &[1050, 399]);
        assert_eq!(
            r.columns[2].as_i32().unwrap()[0],
            date::parse("1995-03-05").unwrap()
        );
        assert_eq!(r.columns[3].as_strs().unwrap().get(1), "gadget");
    }

    #[test]
    fn custom_delimiter_and_subset() {
        let text = "x,1,99.00,1995-01-01,extra,name\n";
        let opts = CsvOptions {
            delimiter: ',',
            column_subset: Some(vec![1, 2, 3, 5]),
            max_errors: 0,
        };
        let r = parse_csv(text, &schema(), &opts).unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.columns[3].as_strs().unwrap().get(0), "name");
    }

    #[test]
    fn error_limit_honoured() {
        let text = "1|bad|1995-01-01|a\n2|2.00|1995-01-01|b\n";
        // Zero tolerance: fail.
        assert!(parse_csv(text, &schema(), &CsvOptions::default()).is_err());
        // One allowed: row logged, parse continues.
        let opts = CsvOptions {
            max_errors: 1,
            ..Default::default()
        };
        let r = parse_csv(text, &schema(), &opts).unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.rejected.len(), 1);
        assert_eq!(r.rejected[0].0, 0);
        // No ragged columns from the rejected row.
        assert!(r.columns.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn short_rows_rejected() {
        let text = "1|2.00\n";
        let opts = CsvOptions {
            max_errors: 5,
            ..Default::default()
        };
        let r = parse_csv(text, &schema(), &opts).unwrap();
        assert_eq!(r.rows, 0);
        assert_eq!(r.rejected.len(), 1);
    }

    #[test]
    fn roundtrip_via_to_csv() {
        let text = "7|1.25|1994-06-15|thing\n";
        let r = parse_csv(text, &schema(), &CsvOptions::default()).unwrap();
        let back = to_csv(&r.columns, &schema(), '|');
        assert_eq!(back, text);
    }
}

//! "ORC-like" and "Parquet-like" baseline codecs.
//!
//! The Figure 1 micro-benchmarks of the paper compare VectorH's storage
//! against ORC and Parquet and attribute the gap to three properties of the
//! Hadoop formats, all reproduced here:
//!
//! 1. **Value-at-a-time decoding** — the decoders below materialize one value
//!    per loop iteration through a varint/RLE state machine, instead of the
//!    branch-free group-wise inflate PFOR uses.
//! 2. **Routine general-purpose compression** — every encoded stream gets an
//!    extra LZ ("snappy") pass that must be undone on every read.
//! 3. **Weak 64-bit integer handling** (Parquet) — `i64` columns are stored
//!    as plain fixed-width bytes, which is why the paper's Figure 1c shows
//!    Parquet losing on `l_ep`/`l_ok`-style columns.
//!
//! These are *honest* codecs: they roundtrip byte-exactly, so the baseline
//! engines built on them produce correct query answers — just more slowly
//! and with more bytes touched.

use vectorh_common::{ColumnData, StrVec};

use crate::lz;

/// Zigzag-encode a signed value so small magnitudes get small varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128 varint append.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// LEB128 varint read; returns `(value, bytes_consumed)`.
fn get_varint(bytes: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut i = pos;
    loop {
        let b = *bytes.get(i)?;
        i += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((v, i - pos));
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// ORC-like: RLE-v2-style runs of zigzag varints, then a snappy-like pass.
// ---------------------------------------------------------------------------

const RUN_TOKEN: u8 = 0;
const LITERAL_TOKEN: u8 = 1;
/// Minimum length for a (base, delta) run to pay off.
const MIN_RUN: usize = 3;

/// Encode integers ORC-style (before the general-purpose pass).
fn orc_encode_ints_raw(values: &[i64], out: &mut Vec<u8>) {
    put_varint(values.len() as u64, out);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < values.len() {
        // Detect a constant-delta run starting at i.
        let mut run_len = 1usize;
        if i + 1 < values.len() {
            let delta = values[i + 1].wrapping_sub(values[i]);
            run_len = 2;
            while i + run_len < values.len()
                && values[i + run_len].wrapping_sub(values[i + run_len - 1]) == delta
            {
                run_len += 1;
            }
            if run_len < MIN_RUN {
                run_len = 1;
            }
        }
        if run_len >= MIN_RUN {
            // Flush pending literals, then emit the run.
            if lit_start < i {
                out.push(LITERAL_TOKEN);
                put_varint((i - lit_start) as u64, out);
                for &v in &values[lit_start..i] {
                    put_varint(zigzag(v), out);
                }
            }
            let delta = values[i + 1].wrapping_sub(values[i]);
            out.push(RUN_TOKEN);
            put_varint(run_len as u64, out);
            put_varint(zigzag(values[i]), out);
            put_varint(zigzag(delta), out);
            i += run_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    if lit_start < values.len() {
        out.push(LITERAL_TOKEN);
        put_varint((values.len() - lit_start) as u64, out);
        for &v in &values[lit_start..] {
            put_varint(zigzag(v), out);
        }
    }
}

fn orc_decode_ints_raw(bytes: &[u8]) -> Option<Vec<i64>> {
    let (n, mut pos) = get_varint(bytes, 0)?;
    let mut out = Vec::with_capacity(n as usize);
    // Deliberately value-at-a-time: each value goes through the token state
    // machine and a varint decode.
    while (out.len() as u64) < n {
        let token = *bytes.get(pos)?;
        pos += 1;
        let (len, c) = get_varint(bytes, pos)?;
        pos += c;
        match token {
            RUN_TOKEN => {
                let (base, c) = get_varint(bytes, pos)?;
                pos += c;
                let (delta, c) = get_varint(bytes, pos)?;
                pos += c;
                let mut v = unzigzag(base);
                let d = unzigzag(delta);
                for k in 0..len {
                    if k > 0 {
                        v = v.wrapping_add(d);
                    }
                    out.push(v);
                }
            }
            LITERAL_TOKEN => {
                for _ in 0..len {
                    let (z, c) = get_varint(bytes, pos)?;
                    pos += c;
                    out.push(unzigzag(z));
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Parquet-like: plain fixed-width (64-bit weakness!) / varint32, then LZ.
// ---------------------------------------------------------------------------

fn parquet_encode_ints_raw(values: &[i64], wide: bool, out: &mut Vec<u8>) {
    put_varint(values.len() as u64, out);
    if wide {
        // PLAIN encoding: the 64-bit ints go out uncompressed, as real
        // Parquet writers of the era did.
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    } else {
        for &v in values {
            put_varint(zigzag(v), out);
        }
    }
}

fn parquet_decode_ints_raw(bytes: &[u8], wide: bool) -> Option<Vec<i64>> {
    let (n, mut pos) = get_varint(bytes, 0)?;
    let mut out = Vec::with_capacity(n as usize);
    if wide {
        for _ in 0..n {
            let chunk = bytes.get(pos..pos + 8)?;
            out.push(i64::from_le_bytes(chunk.try_into().ok()?));
            pos += 8;
        }
    } else {
        for _ in 0..n {
            let (z, c) = get_varint(bytes, pos)?;
            pos += c;
            out.push(unzigzag(z));
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Strings: length-prefixed plain for both formats.
// ---------------------------------------------------------------------------

fn encode_strings_raw(values: &StrVec, out: &mut Vec<u8>) {
    put_varint(values.len() as u64, out);
    for v in values.iter() {
        put_varint(v.len() as u64, out);
        out.extend_from_slice(v.as_bytes());
    }
}

fn decode_strings_raw(bytes: &[u8]) -> Option<StrVec> {
    let (n, mut pos) = get_varint(bytes, 0)?;
    let mut out = StrVec::with_capacity((n as usize).min(bytes.len()), 0);
    for _ in 0..n {
        let (len, c) = get_varint(bytes, pos)?;
        pos += c;
        let s = bytes.get(pos..pos + len as usize)?;
        pos += len as usize;
        out.push(std::str::from_utf8(s).ok()?);
    }
    Some(out)
}

/// Which Hadoop-format baseline to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineFormat {
    OrcLike,
    ParquetLike,
}

/// Encode a column in the baseline format (including the general-purpose
/// "snappy" pass both real formats routinely apply).
pub fn encode(format: BaselineFormat, col: &ColumnData) -> Vec<u8> {
    let mut raw = Vec::new();
    let tag: u8;
    match col {
        ColumnData::I32(v) => {
            tag = 0;
            let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            match format {
                BaselineFormat::OrcLike => orc_encode_ints_raw(&wide, &mut raw),
                BaselineFormat::ParquetLike => parquet_encode_ints_raw(&wide, false, &mut raw),
            }
        }
        ColumnData::I64(v) => {
            tag = 1;
            match format {
                BaselineFormat::OrcLike => orc_encode_ints_raw(v, &mut raw),
                BaselineFormat::ParquetLike => parquet_encode_ints_raw(v, true, &mut raw),
            }
        }
        ColumnData::F64(v) => {
            tag = 2;
            // Both formats store doubles plain.
            put_varint(v.len() as u64, &mut raw);
            for &x in v {
                raw.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Str(v) => {
            tag = 3;
            encode_strings_raw(v, &mut raw);
        }
    }
    let mut out = vec![tag];
    lz::compress(&raw, &mut out);
    out
}

/// Decode a baseline-format column (value-at-a-time, with the mandatory
/// general-purpose decompression pass first).
pub fn decode(format: BaselineFormat, bytes: &[u8]) -> Option<ColumnData> {
    let tag = *bytes.first()?;
    let mut raw = Vec::new();
    lz::decompress(&bytes[1..], &mut raw)?;
    match tag {
        0 => {
            let wide = match format {
                BaselineFormat::OrcLike => orc_decode_ints_raw(&raw)?,
                BaselineFormat::ParquetLike => parquet_decode_ints_raw(&raw, false)?,
            };
            Some(ColumnData::I32(
                wide.into_iter().map(|x| x as i32).collect(),
            ))
        }
        1 => {
            let v = match format {
                BaselineFormat::OrcLike => orc_decode_ints_raw(&raw)?,
                BaselineFormat::ParquetLike => parquet_decode_ints_raw(&raw, true)?,
            };
            Some(ColumnData::I64(v))
        }
        2 => {
            let (n, mut pos) = get_varint(&raw, 0)?;
            let mut out = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let chunk = raw.get(pos..pos + 8)?;
                out.push(f64::from_le_bytes(chunk.try_into().ok()?));
                pos += 8;
            }
            Some(ColumnData::F64(out))
        }
        3 => Some(ColumnData::Str(decode_strings_raw(&raw)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn roundtrip(format: BaselineFormat, col: &ColumnData) -> usize {
        let enc = encode(format, col);
        let dec = decode(format, &enc).expect("decode");
        assert_eq!(&dec, col);
        enc.len()
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35] {
            let mut b = Vec::new();
            put_varint(v, &mut b);
            assert_eq!(get_varint(&b, 0), Some((v, b.len())));
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -9876] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn orc_run_detection() {
        // Sequential data becomes one run.
        let vals: Vec<i64> = (100..200).collect();
        let mut raw = Vec::new();
        orc_encode_ints_raw(&vals, &mut raw);
        assert!(
            raw.len() < 12,
            "one run token expected, got {} bytes",
            raw.len()
        );
        assert_eq!(orc_decode_ints_raw(&raw).unwrap(), vals);
    }

    #[test]
    fn all_formats_roundtrip_all_types() {
        let mut rng = SplitMix64::new(3);
        let i32c = ColumnData::I32(
            (0..500)
                .map(|_| rng.range_i64(-1000, 1000) as i32)
                .collect(),
        );
        let i64c = ColumnData::I64((0..500).map(|_| rng.next_u64() as i64).collect());
        let f64c = ColumnData::F64((0..100).map(|_| rng.next_f64()).collect());
        let strc = ColumnData::Str((0..100).map(|i| format!("value-{}", i % 7)).collect());
        for f in [BaselineFormat::OrcLike, BaselineFormat::ParquetLike] {
            roundtrip(f, &i32c);
            roundtrip(f, &i64c);
            roundtrip(f, &f64c);
            roundtrip(f, &strc);
        }
    }

    #[test]
    fn parquet_weak_on_random_i64() {
        // The paper's Fig 1c: Parquet's 64-bit handling is inefficient.
        let mut rng = SplitMix64::new(4);
        // Moderate-range values: varints (ORC) beat plain 8-byte (Parquet).
        let col = ColumnData::I64((0..2000).map(|_| rng.range_i64(0, 1 << 20)).collect());
        let orc = roundtrip(BaselineFormat::OrcLike, &col);
        let parquet = roundtrip(BaselineFormat::ParquetLike, &col);
        assert!(orc < parquet, "orc {orc} should beat parquet {parquet}");
    }

    #[test]
    fn empty_columns() {
        for f in [BaselineFormat::OrcLike, BaselineFormat::ParquetLike] {
            roundtrip(f, &ColumnData::I64(vec![]));
            roundtrip(f, &ColumnData::Str(StrVec::new()));
        }
    }

    #[test]
    fn prop_orc_ints_roundtrip() {
        let mut meta = SplitMix64::new(0x06C5);
        for _ in 0..64 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(1000) as usize;
            let mut rng = SplitMix64::new(seed);
            let vals: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.chance(0.3) {
                        rng.range_i64(0, 10)
                    } else {
                        rng.next_u64() as i64
                    }
                })
                .collect();
            let mut raw = Vec::new();
            orc_encode_ints_raw(&vals, &mut raw);
            assert_eq!(orc_decode_ints_raw(&raw), Some(vals), "seed {seed}");
        }
    }

    #[test]
    fn prop_baseline_column_roundtrip() {
        let mut meta = SplitMix64::new(0xBA5E);
        for case in 0..64 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(500) as usize;
            let format = if case % 2 == 0 {
                BaselineFormat::OrcLike
            } else {
                BaselineFormat::ParquetLike
            };
            let mut rng = SplitMix64::new(seed);
            let col = ColumnData::I64((0..n).map(|_| rng.range_i64(-50, 50)).collect());
            let enc = encode(format, &col);
            assert_eq!(decode(format, &enc), Some(col), "seed {seed}");
        }
    }
}

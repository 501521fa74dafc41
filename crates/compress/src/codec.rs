//! Per-block scheme selection and wire format.
//!
//! Vectorwise chooses a compression scheme per block based on the data it
//! sees (§2). [`encode_column`] does the same, and returns a
//! self-describing byte block that [`decode_column`] can decode without
//! external context. It keeps the smallest applicable scheme but writes
//! only that one: PFOR and PFOR-DELTA are planned from the block minimum
//! and a histogram of bit widths, which give each one's exact size; PDICT
//! from the distinct values and their counts, which give its exact size
//! too, and whose counting stops as soon as the distinct values alone
//! would make it lose. LZ has no bound cheaper than compressing, so a
//! string block is compressed in full and PDICT-STR planned against it.

use vectorh_common::bytes::{put_bytes, Format, Reader};
use vectorh_common::{ColumnData, Result, StrVec, VhError};

use crate::lz;
use crate::pdict::{PdictI64, PdictStr};
use crate::pfor::{Pfor, PforDelta};

/// Compression scheme tags (also the on-wire discriminator byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    Pfor = 0,
    PforDelta = 1,
    PdictI64 = 2,
    PdictStr = 3,
    LzStr = 4,
    PlainF64 = 5,
}

impl Scheme {
    fn from_tag(tag: u8) -> Result<Scheme> {
        Ok(match tag {
            0 => Scheme::Pfor,
            1 => Scheme::PforDelta,
            2 => Scheme::PdictI64,
            3 => Scheme::PdictStr,
            4 => Scheme::LzStr,
            5 => Scheme::PlainF64,
            t => return Err(VhError::Codec(format!("unknown scheme tag {t}"))),
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Pfor => "PFOR",
            Scheme::PforDelta => "PFOR-DELTA",
            Scheme::PdictI64 => "PDICT",
            Scheme::PdictStr => "PDICT-STR",
            Scheme::LzStr => "LZ-STR",
            Scheme::PlainF64 => "PLAIN-F64",
        }
    }
}

/// An encoded block plus bookkeeping for the benchmark harnesses.
#[derive(Debug, Clone)]
pub struct EncodedBlock {
    pub scheme: Scheme,
    pub bytes: Vec<u8>,
}

/// Compression statistics for reporting (Figure 1c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecStats {
    pub scheme: Scheme,
    pub raw_bytes: usize,
    pub encoded_bytes: usize,
}

impl CodecStats {
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            f64::INFINITY
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

// --- tiny wire helpers -----------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(tag: Scheme) -> Writer {
        Writer {
            buf: vec![tag as u8],
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        put_bytes(&mut self.buf, b);
    }
    /// A count, then each value as `u32` length + bytes.
    fn strs(&mut self, v: &StrVec) {
        self.u32(v.len() as u32);
        v.write_len_prefixed(&mut self.buf);
    }
}

/// How a block reports bytes it cannot read.
const BLOCK: Format = Format {
    error: VhError::Codec,
    truncated: "truncated block",
};

// --- per-scheme serialization ----------------------------------------------

fn write_pfor_body(w: &mut Writer, p: &Pfor) {
    w.i64(p.base);
    w.u8(p.width);
    w.u32(p.n);
    w.u32(p.first_exc);
    w.bytes(&p.codes);
    w.u32(p.exceptions.len() as u32);
    for &e in &p.exceptions {
        w.i64(e);
    }
}

fn read_pfor_body(r: &mut Reader) -> Result<Pfor> {
    Ok(Pfor {
        base: r.i64()?,
        width: r.u8()?,
        n: r.u32()?,
        first_exc: r.u32()?,
        codes: r.bytes()?.to_vec(),
        exceptions: read_i64s(r)?,
    })
}

/// A count, then that many `i64`s.
fn read_i64s(r: &mut Reader) -> Result<Vec<i64>> {
    let n = r.u32()? as usize;
    Ok(r.arrays(n)?.map(i64::from_le_bytes).collect())
}

/// What [`Writer::strs`] wrote.
fn read_strs(r: &mut Reader) -> Result<StrVec> {
    let n = r.u32()? as usize;
    r.strs(n)
}

fn encode_pfor(p: &Pfor) -> Vec<u8> {
    let mut w = Writer::new(Scheme::Pfor);
    write_pfor_body(&mut w, p);
    w.buf
}

fn encode_pfor_delta(p: &PforDelta) -> Vec<u8> {
    let mut w = Writer::new(Scheme::PforDelta);
    w.i64(p.seed);
    write_pfor_body(&mut w, &p.inner);
    w.buf
}

fn encode_pdict_i64(p: &PdictI64) -> Vec<u8> {
    let mut w = Writer::new(Scheme::PdictI64);
    w.u32(p.dict.len() as u32);
    for &d in &p.dict {
        w.i64(d);
    }
    w.u8(p.width);
    w.u32(p.n);
    w.u32(p.first_exc);
    w.bytes(&p.codes);
    w.u32(p.exceptions.len() as u32);
    for &e in &p.exceptions {
        w.i64(e);
    }
    w.buf
}

fn encode_pdict_str(p: &PdictStr) -> Vec<u8> {
    let mut w = Writer::new(Scheme::PdictStr);
    w.strs(&p.dict);
    w.u8(p.width);
    w.u32(p.n);
    w.u32(p.first_exc);
    w.bytes(&p.codes);
    w.strs(&p.exceptions);
    w.buf
}

fn encode_lz_str(values: &StrVec) -> Vec<u8> {
    let mut raw = Vec::new();
    values.write_len_prefixed(&mut raw);
    let mut w = Writer::new(Scheme::LzStr);
    w.u32(values.len() as u32);
    let mut compressed = Vec::new();
    lz::compress(&raw, &mut compressed);
    w.bytes(&compressed);
    w.buf
}

fn encode_plain_f64(values: &[f64]) -> Vec<u8> {
    let mut w = Writer::new(Scheme::PlainF64);
    w.u32(values.len() as u32);
    for &v in values {
        w.f64(v);
    }
    w.buf
}

// --- public API --------------------------------------------------------------

/// Bytes of a PFOR block besides its body: the tag, base, width, count,
/// first exception, code length and exception count (PFOR-DELTA's seed is
/// part of its body).
const PFOR_HEADER: usize = 1 + 8 + 1 + 4 + 4 + 4 + 4;
/// Bytes of a PDICT block, integer or string, besides its body: the tag,
/// dictionary count, width, count, first exception, code length and
/// exception count.
const PDICT_HEADER: usize = 1 + 4 + 1 + 4 + 4 + 4 + 4;

/// Encode a column buffer in the smallest applicable scheme, sized exactly
/// before one is written (see the module header). Ties go to the scheme
/// tried first: PFOR, then PFOR-DELTA, then PDICT for integers, and PDICT-STR
/// before LZ for strings.
pub fn encode_column(col: &ColumnData) -> EncodedBlock {
    match col {
        ColumnData::I32(v) => {
            let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            encode_ints(&wide, true)
        }
        ColumnData::I64(v) => encode_ints(v, false),
        ColumnData::F64(v) => EncodedBlock {
            scheme: Scheme::PlainF64,
            bytes: encode_plain_f64(v),
        },
        ColumnData::Str(v) => encode_strs(v),
    }
}

/// Integer contest: PFOR vs PFOR-DELTA vs PDICT, PDICT planned only as far
/// as it can still come in under both.
///
/// The narrow flag is carried in the block so i32 columns decode back to i32.
fn encode_ints(values: &[i64], narrow: bool) -> EncodedBlock {
    let pfor = Pfor::plan(values);
    let diffs = PforDelta::diffs(values);
    let delta = Pfor::plan(&diffs);
    let pfor_len = PFOR_HEADER + pfor.body_size();
    let delta_len = PFOR_HEADER + 8 + delta.body_size();
    let best = pfor_len.min(delta_len);
    let pdict = PdictI64::plan(values, best - 1 - PDICT_HEADER)
        .map(|plan| (PDICT_HEADER + plan.body_size(), plan))
        .filter(|(len, _)| *len < best);
    let (scheme, len, mut bytes) = match pdict {
        Some((len, plan)) => (
            Scheme::PdictI64,
            len,
            encode_pdict_i64(&PdictI64::encode_planned(values, plan)),
        ),
        None if delta_len < pfor_len => (
            Scheme::PforDelta,
            delta_len,
            encode_pfor_delta(&PforDelta::encode_planned(values, &diffs, delta)),
        ),
        None => (
            Scheme::Pfor,
            pfor_len,
            encode_pfor(&Pfor::encode_planned(values, pfor)),
        ),
    };
    debug_assert_eq!(bytes.len(), len, "{} block size", scheme.name());
    // Narrowness marker byte appended at the end (read by decode_column).
    bytes.push(narrow as u8);
    EncodedBlock { scheme, bytes }
}

/// String contest: PDICT-STR unless LZ is smaller, LZ compressed in full
/// and PDICT-STR planned only as far as it can still tie.
fn encode_strs(values: &StrVec) -> EncodedBlock {
    let lz = encode_lz_str(values);
    match PdictStr::plan(values, lz.len().saturating_sub(PDICT_HEADER)) {
        Some(plan) if PDICT_HEADER + plan.body_size() <= lz.len() => {
            let len = PDICT_HEADER + plan.body_size();
            let bytes = encode_pdict_str(&PdictStr::encode_planned(values, plan));
            debug_assert_eq!(bytes.len(), len, "PDICT-STR block size");
            EncodedBlock {
                scheme: Scheme::PdictStr,
                bytes,
            }
        }
        _ => EncodedBlock {
            scheme: Scheme::LzStr,
            bytes: lz,
        },
    }
}

/// Decode a block produced by [`encode_column`]. A block whose parts do not
/// fit each other is a `VhError::Codec`, never a panic.
pub fn decode_column(bytes: &[u8]) -> Result<ColumnData> {
    let mut r = Reader::new(bytes, &BLOCK);
    let scheme = Scheme::from_tag(r.u8()?)?;
    match scheme {
        Scheme::Pfor | Scheme::PforDelta | Scheme::PdictI64 => {
            let (&narrow, body) = r
                .rest()
                .split_last()
                .ok_or_else(|| r.error(BLOCK.truncated))?;
            let mut r = Reader::new(body, &BLOCK);
            let mut out: Vec<i64> = Vec::new();
            match scheme {
                Scheme::Pfor => read_pfor_body(&mut r)?.try_decode(&mut out)?,
                Scheme::PforDelta => PforDelta {
                    seed: r.i64()?,
                    inner: read_pfor_body(&mut r)?,
                }
                .try_decode(&mut out)?,
                Scheme::PdictI64 => PdictI64 {
                    dict: read_i64s(&mut r)?,
                    width: r.u8()?,
                    n: r.u32()?,
                    first_exc: r.u32()?,
                    codes: r.bytes()?.to_vec(),
                    exceptions: read_i64s(&mut r)?,
                }
                .try_decode(&mut out)?,
                _ => unreachable!(),
            }
            if narrow == 1 {
                Ok(ColumnData::I32(out.into_iter().map(|v| v as i32).collect()))
            } else {
                Ok(ColumnData::I64(out))
            }
        }
        Scheme::PdictStr => {
            // The dictionary and the exceptions are each validated once as
            // they are parsed, the codes once in `decode`; a decoded row is
            // then a code into valid bytes.
            let block = PdictStr {
                dict: read_strs(&mut r)?,
                width: r.u8()?,
                n: r.u32()?,
                first_exc: r.u32()?,
                codes: r.bytes()?.to_vec(),
                exceptions: read_strs(&mut r)?,
            };
            Ok(ColumnData::Str(block.decode()?))
        }
        Scheme::LzStr => {
            let n = r.u32()? as usize;
            let compressed = r.bytes()?;
            let mut raw = Vec::new();
            lz::decompress(compressed, &mut raw)
                .ok_or_else(|| VhError::Codec("lz stream corrupt".into()))?;
            Ok(ColumnData::Str(StrVec::read_len_prefixed(&raw, n)?.0))
        }
        Scheme::PlainF64 => {
            let n = r.u32()? as usize;
            Ok(ColumnData::F64(
                r.arrays(n)?.map(f64::from_le_bytes).collect(),
            ))
        }
    }
}

/// Encode and report statistics.
pub fn encode_with_stats(col: &ColumnData) -> (EncodedBlock, CodecStats) {
    let raw = col.byte_size();
    let block = encode_column(col);
    let stats = CodecStats {
        scheme: block.scheme,
        raw_bytes: raw,
        encoded_bytes: block.bytes.len(),
    };
    (block, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn roundtrip(col: &ColumnData) -> EncodedBlock {
        let enc = encode_column(col);
        let dec = decode_column(&enc.bytes).expect("decode");
        assert_eq!(&dec, col);
        enc
    }

    #[test]
    fn i32_stays_i32() {
        let col = ColumnData::I32(vec![1, -5, 1000, 7]);
        let enc = roundtrip(&col);
        assert!(matches!(
            decode_column(&enc.bytes).unwrap(),
            ColumnData::I32(_)
        ));
    }

    #[test]
    fn sorted_picks_delta() {
        let col = ColumnData::I64((0..5000).map(|i| 1_000_000 + i * 7).collect());
        let enc = roundtrip(&col);
        assert_eq!(enc.scheme, Scheme::PforDelta);
    }

    #[test]
    fn low_cardinality_picks_pdict() {
        // Large spread but few distinct values: PDICT should win over PFOR.
        let col = ColumnData::I64((0..5000).map(|i| [0i64, 1 << 60, -42][i % 3]).collect());
        let enc = roundtrip(&col);
        assert_eq!(enc.scheme, Scheme::PdictI64);
    }

    #[test]
    fn small_range_unsorted_picks_pfor() {
        let mut rng = SplitMix64::new(8);
        let col = ColumnData::I64((0..5000).map(|_| rng.range_i64(0, 100_000)).collect());
        let enc = roundtrip(&col);
        assert_eq!(enc.scheme, Scheme::Pfor);
    }

    #[test]
    fn strings_roundtrip_both_schemes() {
        // Low cardinality in random order (periodic order would let LZ win
        // by matching whole repeating stretches) → PDICT-STR.
        let mut rng = SplitMix64::new(21);
        let col = ColumnData::Str(
            (0..1000)
                .map(|_| format!("category-{}", rng.next_bounded(5)))
                .collect(),
        );
        let enc = roundtrip(&col);
        assert_eq!(enc.scheme, Scheme::PdictStr);
        // High cardinality but LZ-compressible prefixes → LZ-STR.
        let col = ColumnData::Str(
            (0..1000)
                .map(|i| format!("customer-comment-text-number-{i:08}"))
                .collect(),
        );
        let enc = roundtrip(&col);
        assert_eq!(enc.scheme, Scheme::LzStr);
    }

    #[test]
    fn floats_roundtrip() {
        roundtrip(&ColumnData::F64(vec![
            1.5,
            -0.25,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]));
    }

    #[test]
    fn empty_columns_roundtrip() {
        roundtrip(&ColumnData::I64(vec![]));
        roundtrip(&ColumnData::I32(vec![]));
        roundtrip(&ColumnData::Str(StrVec::new()));
        roundtrip(&ColumnData::F64(vec![]));
    }

    #[test]
    fn stats_report_compression() {
        let col = ColumnData::I64((0..10_000).map(|i| i % 50).collect());
        let (_, stats) = encode_with_stats(&col);
        assert!(stats.ratio() > 4.0, "ratio {}", stats.ratio());
        assert_eq!(stats.raw_bytes, 80_000);
    }

    #[test]
    fn corrupt_blocks_rejected() {
        assert!(decode_column(&[]).is_err());
        assert!(decode_column(&[99, 0, 0]).is_err());
        let enc = encode_column(&ColumnData::I64(vec![1, 2, 3]));
        assert!(decode_column(&enc.bytes[..3]).is_err());

        // Integer blocks whose parts do not fit each other: one case per
        // rule, each a `VhError::Codec` where it used to be a panic.
        for tag in [Scheme::Pfor, Scheme::PforDelta, Scheme::PdictI64] {
            let err = decode_column(&[tag as u8]).err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{tag:?}: {err:?}");
        }
        let skewed: Vec<i64> = (0..64)
            .map(|i| if i % 9 == 4 { 1 << 40 } else { i % 5 })
            .collect();
        let pfor = Pfor::encode(&skewed);
        assert!(pfor.exceptions.len() > 1);
        let pdict = PdictI64::encode(&[7, 7, 9, 7, 9, 7]);
        let narrow = |mut body: Vec<u8>| {
            body.push(0);
            body
        };
        let mut exc_count_past_the_block = Writer::new(Scheme::Pfor);
        write_pfor_body(
            &mut exc_count_past_the_block,
            &Pfor {
                exceptions: vec![],
                ..pfor.clone()
            },
        );
        let at = exc_count_past_the_block.buf.len() - 4;
        exc_count_past_the_block.buf[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        for (what, block) in [
            ("no body", vec![Scheme::Pfor as u8]),
            (
                "width past 64, with room for its codes",
                encode_pfor(&Pfor {
                    width: 70,
                    codes: vec![0; crate::bitpack::packed_size(pfor.n as usize, 70)],
                    ..pfor.clone()
                }),
            ),
            (
                "code section short of its values",
                encode_pfor(&Pfor {
                    codes: pfor.codes[..pfor.codes.len() - 1].to_vec(),
                    ..pfor.clone()
                }),
            ),
            (
                "more exceptions than values",
                encode_pfor(&Pfor {
                    n: 1,
                    ..pfor.clone()
                }),
            ),
            (
                "exception count past the block",
                exc_count_past_the_block.buf,
            ),
            (
                "chain starting past the block",
                encode_pfor(&Pfor {
                    first_exc: pfor.n,
                    ..pfor.clone()
                }),
            ),
            (
                "chain with exceptions but no start",
                encode_pfor(&Pfor {
                    first_exc: u32::MAX,
                    ..pfor.clone()
                }),
            ),
            (
                "chain hopping past the block",
                encode_pfor(&Pfor {
                    first_exc: pfor.n - 1,
                    ..pfor.clone()
                }),
            ),
            (
                "PFOR-DELTA over a broken PFOR",
                encode_pfor_delta(&PforDelta {
                    seed: 3,
                    inner: Pfor {
                        width: 70,
                        ..pfor.clone()
                    },
                }),
            ),
            (
                "PDICT width past 64",
                encode_pdict_i64(&PdictI64 {
                    width: 65,
                    ..pdict.clone()
                }),
            ),
            (
                "PDICT with an empty dictionary",
                encode_pdict_i64(&PdictI64 {
                    dict: vec![],
                    ..pdict.clone()
                }),
            ),
        ] {
            let err = decode_column(&narrow(block)).err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{what}: {err:?}");
        }
        // The untouched blocks decode.
        for block in [encode_pfor(&pfor), encode_pdict_i64(&pdict)] {
            assert!(decode_column(&narrow(block)).is_ok());
        }
    }

    /// A PDICT-STR block over "é" whose dictionary or exception bytes are
    /// given raw.
    fn pdict_str_block(dict: &[u8], exception: Option<&[u8]>) -> Vec<u8> {
        let mut w = Writer::new(Scheme::PdictStr);
        w.u32(1);
        w.bytes(dict);
        w.u8(1); // width
        w.u32(8); // n
        w.u32(if exception.is_some() { 3 } else { u32::MAX });
        w.bytes(&[0]); // eight 1-bit codes, all entry 0
        w.u32(exception.is_some() as u32);
        if let Some(e) = exception {
            w.bytes(e);
        }
        w.buf
    }

    fn lz_str_block(n: u32, raw: &[u8]) -> Vec<u8> {
        let mut w = Writer::new(Scheme::LzStr);
        w.u32(n);
        let mut compressed = Vec::new();
        lz::compress(raw, &mut compressed);
        w.bytes(&compressed);
        w.buf
    }

    #[test]
    fn strings_that_are_not_utf8_are_a_codec_error() {
        let e_acute = "é".as_bytes();
        // The hand-built blocks decode when their bytes are sound ...
        let ok = decode_column(&pdict_str_block(e_acute, Some(b"x"))).unwrap();
        let want: StrVec = ["é", "é", "é", "x", "é", "é", "é", "é"].into();
        assert_eq!(ok, ColumnData::Str(want));
        let ok = decode_column(&lz_str_block(2, &[2, 0, 0, 0, 0xC3, 0xA9, 0, 0, 0, 0])).unwrap();
        assert_eq!(ok, ColumnData::Str(["é", ""].into()));
        // ... and are refused, not trusted, when they are not.
        for (what, block) in [
            ("dictionary entry", pdict_str_block(&[b'a', 0xFF], None)),
            (
                "dictionary entry cut short",
                pdict_str_block(&e_acute[..1], None),
            ),
            ("exception", pdict_str_block(e_acute, Some(&[0xC0, 0x80]))),
            ("lz payload", lz_str_block(1, &[2, 0, 0, 0, b'a', 0xFF])),
            // "é" split over two values: the whole is UTF-8, the parts are not.
            (
                "lz length inside a character",
                lz_str_block(2, &[1, 0, 0, 0, 0xC3, 1, 0, 0, 0, 0xA9]),
            ),
            (
                "lz length past the payload",
                lz_str_block(1, &[9, 0, 0, 0, b'a']),
            ),
            (
                "lz count past the payload",
                lz_str_block(3, &[1, 0, 0, 0, b'a']),
            ),
        ] {
            let got = decode_column(&block);
            // Only the error is printed: a vector that should not exist may
            // not be readable.
            let err = got.err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn prop_codec_roundtrip_ints() {
        let mut meta = SplitMix64::new(0xC0DEC);
        for case in 0..60 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(1200) as usize;
            let mut rng = SplitMix64::new(seed);
            let vals: Vec<i64> = match case % 3 {
                0 => (0..n).map(|_| rng.next_u64() as i64).collect(),
                1 => {
                    let mut acc = 0i64;
                    (0..n)
                        .map(|_| {
                            acc += rng.range_i64(0, 9);
                            acc
                        })
                        .collect()
                }
                _ => (0..n)
                    .map(|_| rng.next_bounded(5) as i64 * 1_000_000_007)
                    .collect(),
            };
            let col = ColumnData::I64(vals);
            let enc = encode_column(&col);
            assert_eq!(decode_column(&enc.bytes).unwrap(), col, "seed {seed}");
        }
    }

    #[test]
    fn prop_codec_roundtrip_strings() {
        let mut meta = SplitMix64::new(0x57C0DEC);
        for _ in 0..40 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(400) as usize;
            let mut rng = SplitMix64::new(seed);
            let vals: Vec<String> = (0..n)
                .map(|_| {
                    let len = rng.next_bounded(20) as usize;
                    (0..len)
                        .map(|_| (b'a' + rng.next_bounded(26) as u8) as char)
                        .collect()
                })
                .collect();
            let col = ColumnData::Str(vals.into());
            let enc = encode_column(&col);
            assert_eq!(decode_column(&enc.bytes).unwrap(), col, "seed {seed}");
        }
    }
}

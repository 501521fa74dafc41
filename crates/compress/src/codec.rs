//! Per-block scheme selection and wire format.
//!
//! Vectorwise chooses a compression scheme per block based on the data it
//! sees (§2). [`encode_column`] does the same: it tries every applicable
//! scheme and keeps the smallest encoding, returning a self-describing byte
//! block that [`decode_column`] can decode without external context.

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
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    /// A count, then each value as `u32` length + bytes.
    fn strs(&mut self, v: &StrVec) {
        self.u32(v.len() as u32);
        v.write_len_prefixed(&mut self.buf);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| VhError::Codec("truncated block".into()))?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// What [`Writer::strs`] wrote, validated as a whole.
    fn strs(&mut self) -> Result<StrVec> {
        let n = self.u32()? as usize;
        let (v, used) = StrVec::read_len_prefixed(&self.buf[self.pos..], n)?;
        self.pos += used;
        Ok(v)
    }
}

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
    let base = r.i64()?;
    let width = r.u8()?;
    let n = r.u32()?;
    let first_exc = r.u32()?;
    let codes = r.bytes()?.to_vec();
    let exc_n = r.u32()? as usize;
    let mut exceptions = Vec::with_capacity(exc_n);
    for _ in 0..exc_n {
        exceptions.push(r.i64()?);
    }
    Ok(Pfor {
        base,
        width,
        n,
        first_exc,
        codes,
        exceptions,
    })
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

/// Encode a column buffer, choosing the smallest applicable scheme.
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
        ColumnData::Str(v) => {
            let dict = PdictStr::encode(v);
            let dict_bytes = encode_pdict_str(&dict);
            let lz_bytes = encode_lz_str(v);
            if dict_bytes.len() <= lz_bytes.len() {
                EncodedBlock {
                    scheme: Scheme::PdictStr,
                    bytes: dict_bytes,
                }
            } else {
                EncodedBlock {
                    scheme: Scheme::LzStr,
                    bytes: lz_bytes,
                }
            }
        }
    }
}

/// Integer scheme contest: PFOR vs PFOR-DELTA vs PDICT.
///
/// The narrow flag is carried in the block so i32 columns decode back to i32.
fn encode_ints(values: &[i64], narrow: bool) -> EncodedBlock {
    let pfor = Pfor::encode(values);
    let pfor_bytes = encode_pfor(&pfor);
    let delta = PforDelta::encode(values);
    let delta_bytes = encode_pfor_delta(&delta);
    let pdict = PdictI64::encode(values);
    let pdict_bytes = encode_pdict_i64(&pdict);
    let (scheme, mut bytes) = [
        (Scheme::Pfor, pfor_bytes),
        (Scheme::PforDelta, delta_bytes),
        (Scheme::PdictI64, pdict_bytes),
    ]
    .into_iter()
    .min_by_key(|(_, b)| b.len())
    .expect("three candidates");
    // Narrowness marker byte appended at the end (read by decode_column).
    bytes.push(narrow as u8);
    EncodedBlock { scheme, bytes }
}

/// Decode a block produced by [`encode_column`].
pub fn decode_column(bytes: &[u8]) -> Result<ColumnData> {
    if bytes.is_empty() {
        return Err(VhError::Codec("empty block".into()));
    }
    let scheme = Scheme::from_tag(bytes[0])?;
    let mut r = Reader::new(&bytes[1..]);
    match scheme {
        Scheme::Pfor | Scheme::PforDelta | Scheme::PdictI64 => {
            let narrow = *bytes.last().unwrap() == 1;
            let body = &bytes[1..bytes.len() - 1];
            let mut r = Reader::new(body);
            let mut out: Vec<i64> = Vec::new();
            match scheme {
                Scheme::Pfor => read_pfor_body(&mut r)?.decode(&mut out),
                Scheme::PforDelta => {
                    let seed = r.i64()?;
                    let inner = read_pfor_body(&mut r)?;
                    PforDelta { seed, inner }.decode(&mut out);
                }
                Scheme::PdictI64 => {
                    let dict_n = r.u32()? as usize;
                    let mut dict = Vec::with_capacity(dict_n);
                    for _ in 0..dict_n {
                        dict.push(r.i64()?);
                    }
                    let width = r.u8()?;
                    let n = r.u32()?;
                    let first_exc = r.u32()?;
                    let codes = r.bytes()?.to_vec();
                    let exc_n = r.u32()? as usize;
                    let mut exceptions = Vec::with_capacity(exc_n);
                    for _ in 0..exc_n {
                        exceptions.push(r.i64()?);
                    }
                    PdictI64 {
                        dict,
                        width,
                        n,
                        first_exc,
                        codes,
                        exceptions,
                    }
                    .decode(&mut out);
                }
                _ => unreachable!(),
            }
            if narrow {
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
                dict: r.strs()?,
                width: r.u8()?,
                n: r.u32()?,
                first_exc: r.u32()?,
                codes: r.bytes()?.to_vec(),
                exceptions: r.strs()?,
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
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(r.f64()?);
            }
            Ok(ColumnData::F64(out))
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

//! The encoder against the scheme contest it replaced: identical bytes on
//! every block.
//!
//! `encode_column` sizes each applicable scheme exactly from one pass of
//! statistics and serializes only the winner. Before that it encoded the
//! column in every scheme in full and kept the smallest; [`reference`] is a
//! verbatim copy of that contest (its encoders, its serialization, its
//! tie-breaks), and every test here asserts `encode_column(c).bytes ==
//! reference::encode_column(c)`: generated integer and string columns, the
//! byte boundaries where PDICT wins, ties or loses by one byte, the inputs of
//! `simd_equivalence.rs`, and every column of every chunk of a TPC-H load,
//! as a scan reads it, before and after a forced propagation. A failure
//! prints the seed (or the table and chunk) and the column.

use vectorh::{ClusterConfig, VectorH};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{ColumnData, StrVec, Value};
use vectorh_compress::{decode_column, encode_column};
use vectorh_tpch::refresh;

/// The scheme contest as it stood before one-pass sizing, copied verbatim
/// with the bit packing and the LZ compressor it ran on, so nothing here
/// runs the code under test.
mod reference {
    use std::collections::HashMap;
    use vectorh_common::util::bits_needed;
    use vectorh_common::{ColumnData, StrVec};

    // --- bitpack.rs --------------------------------------------------------

    mod bitpack {
        pub fn pack(values: &[u64], width: u8, out: &mut Vec<u8>) {
            assert!(width as usize <= 64);
            if width == 0 {
                return;
            }
            let width = width as u32;
            let mut acc: u128 = 0;
            let mut acc_bits: u32 = 0;
            for &v in values {
                acc |= (v as u128) << acc_bits;
                acc_bits += width;
                while acc_bits >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    acc_bits -= 8;
                }
            }
            if acc_bits > 0 {
                out.push(acc as u8);
            }
        }

        pub fn packed_size(count: usize, width: u8) -> usize {
            (count * width as usize).div_ceil(8)
        }
    }

    // --- lz.rs -------------------------------------------------------------

    mod lz {
        const HASH_BITS: u32 = 14;
        const MIN_MATCH: usize = 4;
        const MAX_MATCH: usize = 131;
        const MAX_LITERAL: usize = 128;
        const MAX_OFFSET: usize = u16::MAX as usize;

        #[inline]
        fn hash4(bytes: &[u8]) -> usize {
            let w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        }

        pub fn compress(input: &[u8], out: &mut Vec<u8>) -> usize {
            let start_len = out.len();
            let mut table = vec![usize::MAX; 1 << HASH_BITS];
            let mut i = 0usize;
            let mut lit_start = 0usize;

            let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
                let mut p = from;
                while p < to {
                    let run = (to - p).min(MAX_LITERAL);
                    out.push((run - 1) as u8);
                    out.extend_from_slice(&input[p..p + run]);
                    p += run;
                }
            };

            while i + MIN_MATCH <= input.len() {
                let h = hash4(&input[i..]);
                let cand = table[h];
                table[h] = i;
                if cand != usize::MAX
                    && i - cand <= MAX_OFFSET
                    && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH]
                {
                    let mut len = MIN_MATCH;
                    let limit = (input.len() - i).min(MAX_MATCH);
                    while len < limit && input[cand + len] == input[i + len] {
                        len += 1;
                    }
                    flush_literals(out, lit_start, i);
                    out.push((128 + (len - MIN_MATCH)) as u8);
                    out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                    i += len;
                    lit_start = i;
                } else {
                    i += 1;
                }
            }
            flush_literals(out, lit_start, input.len());
            out.len() - start_len
        }
    }

    // --- pfor.rs -----------------------------------------------------------

    pub struct Pfor {
        pub base: i64,
        pub width: u8,
        pub n: u32,
        pub first_exc: u32,
        pub codes: Vec<u8>,
        pub exceptions: Vec<i64>,
    }

    fn body_size(n: usize, width: u8, exceptions: usize) -> usize {
        bitpack::packed_size(n, width) + exceptions * 8
    }

    fn choose_width(deltas: &[u64]) -> u8 {
        if deltas.is_empty() {
            return 0;
        }
        let mut hist = [0usize; 65];
        for &d in deltas {
            hist[bits_needed(d) as usize] += 1;
        }
        let mut best_w = 64u8;
        let mut best_size = usize::MAX;
        let mut exceptions = 0usize;
        for w in (0..=64u8).rev() {
            let forced = if exceptions == 0 || w == 0 || w >= 32 {
                0
            } else {
                (deltas.len() >> w).saturating_sub(exceptions)
            };
            let exc = exceptions + forced;
            if !(w == 0 && exc > 0) {
                let size = body_size(deltas.len(), w, exc);
                if size < best_size {
                    best_size = size;
                    best_w = w;
                }
            }
            exceptions += hist[w as usize];
        }
        best_w
    }

    impl Pfor {
        pub fn encode(values: &[i64]) -> Pfor {
            let n = values.len();
            if n == 0 {
                return Pfor {
                    base: 0,
                    width: 0,
                    n: 0,
                    first_exc: u32::MAX,
                    codes: vec![],
                    exceptions: vec![],
                };
            }
            let base = *values.iter().min().expect("non-empty");
            let deltas: Vec<u64> = values
                .iter()
                .map(|&v| v.wrapping_sub(base) as u64)
                .collect();
            let width = choose_width(&deltas);
            Self::encode_with_width(values, base, width, &deltas)
        }

        fn encode_with_width(values: &[i64], base: i64, width: u8, deltas: &[u64]) -> Pfor {
            let n = values.len();
            let mask = if width == 0 {
                0u64
            } else if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let max_gap = mask as usize;
            let mut exc_pos: Vec<usize> = Vec::new();
            let mut last_exc: Option<usize> = None;
            for (i, &d) in deltas.iter().enumerate() {
                let natural = width < 64 && d > mask;
                let forced = match last_exc {
                    Some(j) => {
                        !exc_pos.is_empty() && i - j > max_gap && {
                            i - j - 1 == max_gap && has_later_exception(deltas, i, mask, width)
                        }
                    }
                    None => false,
                };
                if natural || forced {
                    exc_pos.push(i);
                    last_exc = Some(i);
                }
            }
            let mut slots: Vec<u64> = Vec::with_capacity(n);
            let mut exceptions: Vec<i64> = Vec::with_capacity(exc_pos.len());
            let mut next_exc_iter = exc_pos.iter().copied().peekable();
            let mut exc_idx = 0usize;
            for (i, &d) in deltas.iter().enumerate() {
                if next_exc_iter.peek() == Some(&i) {
                    next_exc_iter.next();
                    let hop = match exc_pos.get(exc_idx + 1) {
                        Some(&nj) => (nj - i - 1) as u64,
                        None => 0,
                    };
                    slots.push(hop & mask);
                    exceptions.push(values[i]);
                    exc_idx += 1;
                } else {
                    slots.push(d);
                }
            }
            let mut codes = Vec::with_capacity(bitpack::packed_size(n, width));
            bitpack::pack(&slots, width, &mut codes);
            Pfor {
                base,
                width,
                n: n as u32,
                first_exc: exc_pos.first().map(|&i| i as u32).unwrap_or(u32::MAX),
                codes,
                exceptions,
            }
        }
    }

    fn has_later_exception(deltas: &[u64], from: usize, mask: u64, width: u8) -> bool {
        width < 64 && deltas[from..].iter().any(|&d| d > mask)
    }

    pub struct PforDelta {
        pub seed: i64,
        pub inner: Pfor,
    }

    impl PforDelta {
        pub fn encode(values: &[i64]) -> PforDelta {
            if values.is_empty() {
                return PforDelta {
                    seed: 0,
                    inner: Pfor::encode(&[]),
                };
            }
            let seed = values[0];
            let mut diffs = Vec::with_capacity(values.len());
            diffs.push(0i64);
            for w in values.windows(2) {
                diffs.push(w[1].wrapping_sub(w[0]));
            }
            PforDelta {
                seed,
                inner: Pfor::encode(&diffs),
            }
        }
    }

    // --- pdict.rs ----------------------------------------------------------

    fn plan_exceptions(codeable: &[bool], mask: u64) -> Vec<usize> {
        let max_gap = mask as usize;
        let mut exc = Vec::new();
        let mut last: Option<usize> = None;
        let mut later_natural: Vec<bool> = vec![false; codeable.len() + 1];
        for i in (0..codeable.len()).rev() {
            later_natural[i] = later_natural[i + 1] || !codeable[i];
        }
        for i in 0..codeable.len() {
            let natural = !codeable[i];
            let forced = match last {
                Some(j) => i - j - 1 == max_gap && later_natural[i],
                None => false,
            };
            if natural || forced {
                exc.push(i);
                last = Some(i);
            }
        }
        exc
    }

    pub struct PdictI64 {
        pub dict: Vec<i64>,
        pub width: u8,
        pub n: u32,
        pub first_exc: u32,
        pub codes: Vec<u8>,
        pub exceptions: Vec<i64>,
    }

    pub struct PdictStr {
        pub dict: StrVec,
        pub width: u8,
        pub n: u32,
        pub first_exc: u32,
        pub codes: Vec<u8>,
        pub exceptions: StrVec,
    }

    fn encode_slots(codes_opt: &[Option<u64>], width: u8) -> (Vec<u8>, u32, Vec<usize>) {
        let mask = if width == 0 {
            0
        } else if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let codeable: Vec<bool> = codes_opt.iter().map(|c| c.is_some()).collect();
        let exc_pos = plan_exceptions(&codeable, mask);
        let mut slots = Vec::with_capacity(codes_opt.len());
        let mut exc_iter = exc_pos.iter().copied().enumerate().peekable();
        for (i, c) in codes_opt.iter().enumerate() {
            if let Some(&(k, pos)) = exc_iter.peek() {
                if pos == i {
                    exc_iter.next();
                    let hop = match exc_pos.get(k + 1) {
                        Some(&nj) => (nj - i - 1) as u64,
                        None => 0,
                    };
                    slots.push(hop & mask);
                    continue;
                }
            }
            slots.push(c.expect("non-exception slot must be codeable"));
        }
        let mut packed = Vec::new();
        bitpack::pack(&slots, width, &mut packed);
        let first = exc_pos.first().map(|&i| i as u32).unwrap_or(u32::MAX);
        (packed, first, exc_pos)
    }

    fn choose_dict_size(
        freqs: &[usize],
        n: usize,
        entry_costs: &[usize],
        exc_cost_per_value: usize,
    ) -> usize {
        let mut best_k = 0usize;
        let mut best_size = usize::MAX;
        let mut dict_cost = 0usize;
        let mut covered = 0usize;
        for k in 1..=freqs.len() {
            dict_cost += entry_costs[k - 1];
            covered += freqs[k - 1];
            let width = bits_needed((k - 1) as u64).max(1);
            let size =
                bitpack::packed_size(n, width) + dict_cost + (n - covered) * exc_cost_per_value;
            if size < best_size {
                best_size = size;
                best_k = k;
            }
        }
        best_k
    }

    impl PdictI64 {
        pub fn encode(values: &[i64]) -> PdictI64 {
            if values.is_empty() {
                return PdictI64 {
                    dict: vec![],
                    width: 0,
                    n: 0,
                    first_exc: u32::MAX,
                    codes: vec![],
                    exceptions: vec![],
                };
            }
            let mut freq: HashMap<i64, usize> = HashMap::new();
            for &v in values {
                *freq.entry(v).or_insert(0) += 1;
            }
            let mut by_freq: Vec<(i64, usize)> = freq.into_iter().collect();
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let freqs: Vec<usize> = by_freq.iter().map(|&(_, f)| f).collect();
            let costs: Vec<usize> = vec![8; by_freq.len()];
            let k = choose_dict_size(&freqs, values.len(), &costs, 8).max(1);
            let dict: Vec<i64> = by_freq[..k].iter().map(|&(v, _)| v).collect();
            let width = bits_needed((k - 1) as u64).max(1);
            let index: HashMap<i64, u64> = dict
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u64))
                .collect();
            let codes_opt: Vec<Option<u64>> =
                values.iter().map(|v| index.get(v).copied()).collect();
            let (codes, first_exc, exc_pos) = encode_slots(&codes_opt, width);
            let exceptions = exc_pos.iter().map(|&i| values[i]).collect();
            PdictI64 {
                dict,
                width,
                n: values.len() as u32,
                first_exc,
                codes,
                exceptions,
            }
        }
    }

    impl PdictStr {
        pub fn encode(values: &StrVec) -> PdictStr {
            if values.is_empty() {
                return PdictStr {
                    dict: StrVec::new(),
                    width: 0,
                    n: 0,
                    first_exc: u32::MAX,
                    codes: vec![],
                    exceptions: StrVec::new(),
                };
            }
            let mut freq: HashMap<&str, usize> = HashMap::new();
            for v in values.iter() {
                *freq.entry(v).or_insert(0) += 1;
            }
            let mut by_freq: Vec<(&str, usize)> = freq.into_iter().collect();
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let freqs: Vec<usize> = by_freq.iter().map(|&(_, f)| f).collect();
            let costs: Vec<usize> = by_freq.iter().map(|&(s, _)| s.len() + 4).collect();
            let avg_len = (values.byte_len() + 4 * values.len()) / values.len();
            let k = choose_dict_size(&freqs, values.len(), &costs, avg_len).max(1);
            let dict: StrVec = by_freq[..k].iter().map(|&(v, _)| v).collect();
            let width = bits_needed((k - 1) as u64).max(1);
            let index: HashMap<&str, u64> = dict.iter().zip(0u64..).collect();
            let codes_opt: Vec<Option<u64>> =
                values.iter().map(|v| index.get(v).copied()).collect();
            let (codes, first_exc, exc_pos) = encode_slots(&codes_opt, width);
            let exceptions = values.gather(exc_pos.iter().copied());
            PdictStr {
                dict,
                width,
                n: values.len() as u32,
                first_exc,
                codes,
                exceptions,
            }
        }
    }

    // --- codec.rs ----------------------------------------------------------

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scheme {
        Pfor = 0,
        PforDelta = 1,
        PdictI64 = 2,
        PdictStr = 3,
        LzStr = 4,
        PlainF64 = 5,
    }

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
        fn strs(&mut self, v: &StrVec) {
            self.u32(v.len() as u32);
            v.write_len_prefixed(&mut self.buf);
        }
    }

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

    pub fn encode_column(col: &ColumnData) -> Vec<u8> {
        match col {
            ColumnData::I32(v) => {
                let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
                encode_ints(&wide, true)
            }
            ColumnData::I64(v) => encode_ints(v, false),
            ColumnData::F64(v) => encode_plain_f64(v),
            ColumnData::Str(v) => {
                let [dict_bytes, lz_bytes] = str_candidates(v);
                if dict_bytes.len() <= lz_bytes.len() {
                    dict_bytes
                } else {
                    lz_bytes
                }
            }
        }
    }

    fn encode_ints(values: &[i64], narrow: bool) -> Vec<u8> {
        let (_, mut bytes) = int_candidates(values)
            .into_iter()
            .min_by_key(|(_, b)| b.len())
            .expect("three candidates");
        bytes.push(narrow as u8);
        bytes
    }

    /// The three integer encodings in contest order, each in full.
    pub fn int_candidates(values: &[i64]) -> [(Scheme, Vec<u8>); 3] {
        let pfor = Pfor::encode(values);
        let pfor_bytes = encode_pfor(&pfor);
        let delta = PforDelta::encode(values);
        let delta_bytes = encode_pfor_delta(&delta);
        let pdict = PdictI64::encode(values);
        let pdict_bytes = encode_pdict_i64(&pdict);
        [
            (Scheme::Pfor, pfor_bytes),
            (Scheme::PforDelta, delta_bytes),
            (Scheme::PdictI64, pdict_bytes),
        ]
    }

    /// PDICT-STR and LZ, each in full.
    pub fn str_candidates(values: &StrVec) -> [Vec<u8>; 2] {
        let dict = PdictStr::encode(values);
        [encode_pdict_str(&dict), encode_lz_str(values)]
    }
}

/// Up to 24 values of a column, for a failure message.
fn show(col: &ColumnData) -> String {
    let n = col.len();
    let head = match col {
        ColumnData::I32(v) => format!("I32 {:?}", &v[..n.min(24)]),
        ColumnData::I64(v) => format!("I64 {:?}", &v[..n.min(24)]),
        ColumnData::F64(v) => format!("F64 {:?}", &v[..n.min(24)]),
        ColumnData::Str(v) => format!(
            "Str (coded: {}) {:?}",
            v.is_coded(),
            v.iter().take(24).collect::<Vec<_>>()
        ),
    };
    format!("{n} values, {head}{}", if n > 24 { " …" } else { "" })
}

/// `encode_column` writes what the contest wrote, and it decodes back.
fn assert_same(what: &str, col: &ColumnData) {
    let want = reference::encode_column(col);
    let got = encode_column(col).bytes;
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        panic!(
            "{what}: {} bytes (scheme tag {}) where the contest wrote {} (tag {}), \
             first difference at byte {at:?}; column: {}",
            got.len(),
            got[0],
            want.len(),
            want[0],
            show(col)
        );
    }
    assert_eq!(&decode_column(&got).unwrap(), col, "{what}: roundtrip");
}

/// Both integer widths of the same values.
fn assert_ints(what: &str, values: &[i64]) {
    assert_same(what, &ColumnData::I64(values.to_vec()));
    if values.iter().all(|&v| i32::try_from(v).is_ok()) {
        assert_same(
            &format!("{what} (I32)"),
            &ColumnData::I32(values.iter().map(|&v| v as i32).collect()),
        );
    }
}

/// The strings flat and, as a scan hands them on, dictionary-coded.
fn assert_strs(what: &str, values: &StrVec) {
    assert_same(what, &ColumnData::Str(values.clone()));
    assert_same(&format!("{what} (coded)"), &ColumnData::Str(coded(values)));
}

/// `values` as codes over a dictionary with every distinct value once, in
/// order of first appearance.
fn coded(values: &StrVec) -> StrVec {
    let mut dict: Vec<&str> = Vec::new();
    let codes = values
        .iter()
        .map(|s| match dict.iter().position(|d| *d == s) {
            Some(c) => c as u32,
            None => {
                dict.push(s);
                dict.len() as u32 - 1
            }
        })
        .collect();
    StrVec::coded(dict.into(), codes).unwrap()
}

#[test]
fn generated_integer_columns_encode_as_the_contest_did() {
    let mut meta = SplitMix64::new(0xE4C0_DE01);
    for case in 0..240 {
        let seed = meta.next_u64();
        let n = match case % 4 {
            0 => meta.next_bounded(40) as usize,
            1 => meta.next_bounded(600) as usize,
            _ => meta.next_bounded(5000) as usize,
        };
        let mut rng = SplitMix64::new(seed);
        let kind = case % 8;
        let values: Vec<i64> = match kind {
            // Random over a random spread, full 64-bit included.
            0 => {
                let bits = rng.next_bounded(65) as u32;
                let mask = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                (0..n).map(|_| (rng.next_u64() & mask) as i64).collect()
            }
            // Sorted with small steps: PFOR-DELTA's case.
            1 => {
                let mut acc = rng.range_i64(-1 << 40, 1 << 40);
                (0..n)
                    .map(|_| {
                        acc += rng.range_i64(0, 12);
                        acc
                    })
                    .collect()
            }
            // Low cardinality, values far apart: PDICT's case.
            2 => {
                let card = 1 + rng.next_bounded(60);
                let spread = rng.next_u64() >> rng.next_bounded(40);
                (0..n)
                    .map(|_| (rng.next_bounded(card) as i64).wrapping_mul(spread as i64))
                    .collect()
            }
            // Skewed: thin values with sparse outliers, so the chains need
            // forced exceptions at the chosen width.
            3 => {
                let p = [0.0005, 0.002, 0.01, 0.05][rng.next_bounded(4) as usize];
                let thin = rng.range_i64(1, 255);
                (0..n)
                    .map(|_| {
                        if rng.chance(p) {
                            rng.range_i64(1 << 40, 1 << 50)
                        } else {
                            rng.range_i64(0, thin)
                        }
                    })
                    .collect()
            }
            // Skewed dictionary: a few frequent values and a tail of rare ones
            // (PDICT exceptions, natural and forced).
            4 => {
                let common = 1 + rng.next_bounded(8) as i64;
                (0..n)
                    .map(|_| {
                        if rng.chance(0.03) {
                            rng.next_u64() as i64
                        } else {
                            rng.range_i64(0, common - 1) * 1_000_003
                        }
                    })
                    .collect()
            }
            // All equal.
            5 => vec![rng.next_u64() as i64; n],
            // Wrapping differences: the extremes next to each other.
            6 => (0..n)
                .map(|_| match rng.next_bounded(4) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => i64::MIN + rng.range_i64(0, 3),
                    _ => rng.next_u64() as i64,
                })
                .collect(),
            // Dates and prices as TPC-H has them.
            _ => (0..n)
                .map(|_| {
                    if rng.chance(0.5) {
                        rng.range_i64(8035, 10591)
                    } else {
                        rng.range_i64(90_000, 210_000) / 100 * 100
                    }
                })
                .collect(),
        };
        assert_ints(&format!("case {case} kind {kind} seed {seed:#x}"), &values);
    }
    for (what, values) in [
        ("empty", vec![]),
        ("one value", vec![42]),
        ("one negative value", vec![-7]),
        ("i64::MIN alone", vec![i64::MIN]),
        ("MIN then MAX", vec![i64::MIN, i64::MAX]),
        ("MAX then MIN", vec![i64::MAX, i64::MIN, i64::MAX]),
        ("two outliers far apart", {
            let mut v = vec![0i64; 40_000];
            v[10] = 1 << 60;
            v[39_990] = 1 << 60;
            v
        }),
    ] {
        assert_ints(what, &values);
    }
}

#[test]
fn pdict_winning_tying_and_losing_by_one_byte_encode_as_the_contest_did() {
    // Two values 256 apart in alternation: PFOR takes 9 bits a value
    // (26 + ⌈9n/8⌉ bytes), PFOR-DELTA 10, PDICT 1 plus two 8-byte entries
    // (22 + 16 + ⌈n/8⌉): one byte more than PFOR at n = 11, equal at 12, one
    // byte less at 13. A tie goes to PFOR.
    for (n, margin) in [(11usize, 1i64), (12, 0), (13, -1)] {
        let values: Vec<i64> = (0..n).map(|i| 256 * (i % 2) as i64).collect();
        let [pfor, delta, pdict] = reference::int_candidates(&values).map(|(_, b)| b.len());
        assert_eq!(pdict as i64 - pfor.min(delta) as i64, margin, "n = {n}");
        assert_ints(&format!("two values, n = {n}"), &values);
    }
    // The same boundaries found in a sweep: count the margins met.
    let mut met = [0usize; 3];
    let mut meta = SplitMix64::new(0xB0DE);
    for n in 1..160usize {
        for _ in 0..6 {
            let seed = meta.next_u64();
            let mut rng = SplitMix64::new(seed);
            let card = 1 + rng.next_bounded(4);
            let gap = 1i64 << rng.next_bounded(20);
            let values: Vec<i64> = (0..n)
                .map(|_| rng.next_bounded(card) as i64 * gap + rng.range_i64(0, 1))
                .collect();
            let [pfor, delta, pdict] = reference::int_candidates(&values).map(|(_, b)| b.len());
            let margin = pdict as i64 - pfor.min(delta) as i64;
            if let Ok(m) = usize::try_from(margin + 1) {
                if m < 3 {
                    met[m] += 1;
                }
            }
            assert_ints(&format!("sweep n = {n} seed {seed:#x}"), &values);
        }
    }
    assert!(
        met.iter().all(|&m| m > 0),
        "margins -1 / 0 / +1 met {met:?}"
    );
}

/// `n` strings: a handful of tags in random order, a rare tail, or a period.
fn strings(rng: &mut SplitMix64, n: usize, kind: u64) -> StrVec {
    let card = 1 + rng.next_bounded(12);
    let period = 1 + rng.next_bounded(9) as usize;
    (0..n)
        .map(|i| match kind {
            0 => format!("tag-{}", rng.next_bounded(card)),
            // A skewed tail: exceptions, natural and forced.
            1 if rng.chance(0.04) => format!("rare-{}", rng.next_u64()),
            1 => format!("c{}", rng.next_bounded(card)),
            // Periodic: LZ matches whole stretches and wins.
            2 => format!("periodic-value-{}", i % period),
            // Every value distinct, with shared prefixes.
            3 => format!("comment number {i} of {n}"),
            // Short random strings, UTF-8 past one byte included.
            _ => (0..rng.next_bounded(6))
                .map(|_| ['a', 'b', 'é', '日', ' '][rng.next_bounded(5) as usize])
                .collect(),
        })
        .collect()
}

#[test]
fn generated_string_columns_encode_as_the_contest_did() {
    let mut meta = SplitMix64::new(0x57E4_C0DE);
    let mut pdict_ties = 0;
    for case in 0..200u64 {
        let seed = meta.next_u64();
        let n = match case % 3 {
            0 => meta.next_bounded(30) as usize,
            1 => meta.next_bounded(400) as usize,
            _ => meta.next_bounded(3000) as usize,
        };
        let mut rng = SplitMix64::new(seed);
        let values = strings(&mut rng, n, case % 5);
        let [dict, lz] = reference::str_candidates(&values).map(|b| b.len());
        pdict_ties += (dict == lz) as usize;
        assert_strs(&format!("case {case} seed {seed:#x}"), &values);
    }
    // A tie goes to PDICT-STR; search for a few to be sure they are met.
    let mut meta = SplitMix64::new(0x71E5);
    for _ in 0..4000 {
        if pdict_ties >= 3 {
            break;
        }
        let seed = meta.next_u64();
        let mut rng = SplitMix64::new(seed);
        let (n, kind) = (1 + rng.next_bounded(24) as usize, rng.next_bounded(5));
        let values = strings(&mut rng, n, kind);
        let [dict, lz] = reference::str_candidates(&values).map(|b| b.len());
        if dict == lz {
            pdict_ties += 1;
            assert_strs(&format!("tie seed {seed:#x}"), &values);
        }
    }
    assert!(pdict_ties >= 3, "only {pdict_ties} PDICT-STR/LZ ties met");
}

#[test]
fn coded_strings_with_duplicate_and_unused_entries_encode_as_the_contest_did() {
    let mut meta = SplitMix64::new(0xD1C7_C0DE);
    for case in 0..120 {
        let seed = meta.next_u64();
        let mut rng = SplitMix64::new(seed);
        let n = rng.next_bounded(2000) as usize;
        // A decoded PDICT block's shape: entries, then exceptions appended,
        // some of which repeat an entry or each other; some entries unused.
        let entries = 1 + rng.next_bounded(20) as usize;
        let mut dict: Vec<String> = (0..entries).map(|e| format!("entry-{e}")).collect();
        for _ in 0..rng.next_bounded(12) {
            let again = if rng.chance(0.5) {
                dict[rng.next_bounded(dict.len() as u64) as usize].clone()
            } else {
                format!("exception-{}", rng.next_bounded(4))
            };
            dict.push(again);
        }
        // Usually no larger than the vector (counted per code), sometimes
        // larger (read value by value).
        let used = if case % 4 == 0 {
            dict.len()
        } else {
            1 + rng.next_bounded(dict.len() as u64) as usize
        };
        let codes: Vec<u32> = (0..n)
            .map(|_| {
                if rng.chance(0.9) {
                    rng.next_bounded(used.min(3) as u64) as u32
                } else {
                    rng.next_bounded(used as u64) as u32
                }
            })
            .collect();
        let values = StrVec::coded(dict.into(), codes).unwrap();
        let what = format!("case {case} seed {seed:#x}");
        assert_same(&what, &ColumnData::Str(values.clone()));
        let flat: StrVec = values.iter().collect();
        assert_same(&format!("{what} (flat)"), &ColumnData::Str(flat));
    }
}

#[test]
fn the_simd_equivalence_inputs_encode_as_the_contest_did() {
    // `pfor_exception_dense_blocks_roundtrip_on_all_arms`
    let mut rng = SplitMix64::new(0x9F0E);
    for density in [0.0, 0.01, 0.1, 0.3, 0.5, 0.9] {
        for n in [1usize, 8, 63, 64, 500, 4096] {
            let values: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.chance(density) {
                        rng.next_u64() as i64
                    } else {
                        1000 + rng.range_i64(0, 255)
                    }
                })
                .collect();
            assert_ints(&format!("pfor d={density} n={n}"), &values);
        }
    }
    let values: Vec<i64> = (0..256)
        .map(|i| {
            if i % 2 == 0 {
                i64::MIN + i
            } else {
                i64::MAX - i
            }
        })
        .collect();
    assert_ints("pfor alternating extremes", &values);
    // `pfor_delta_prefix_sum_matches_on_all_arms`
    let mut rng = SplitMix64::new(0xDE17A);
    for n in [0usize, 1, 3, 4, 5, 100, 1023, 4096] {
        let mut v = rng.range_i64(-1_000_000, 1_000_000);
        let values: Vec<i64> = (0..n)
            .map(|_| {
                v += if rng.chance(0.05) {
                    rng.range_i64(-1_000_000_000, 1_000_000_000)
                } else {
                    rng.range_i64(0, 100)
                };
                v
            })
            .collect();
        assert_ints(&format!("pfor-delta n={n}"), &values);
    }
    // `pdict_gather_matches_on_all_arms`
    let mut rng = SplitMix64::new(0x9D1C7);
    for (distinct, n) in [(1u64, 50usize), (7, 300), (250, 4096), (5000, 2000)] {
        let values: Vec<i64> = (0..n)
            .map(|_| {
                if rng.chance(0.05) {
                    rng.next_u64() as i64
                } else {
                    rng.next_bounded(distinct) as i64
                }
            })
            .collect();
        assert_ints(&format!("pdict distinct={distinct} n={n}"), &values);
    }
}

/// Every column of every chunk of every table, as a scan reads it (PDICT
/// strings coded), and flat; and the bytes on disk, written by the load or
/// by a propagation from merged columns, equal the contest's for the values
/// they hold. Returns the columns checked.
fn check_every_stored_column(vh: &VectorH, when: &str) -> usize {
    let mut checked = 0;
    for table in vectorh_tpch::table_names() {
        let rt = vh.table(table).unwrap();
        for (p, store) in rt.stores.iter().enumerate() {
            let store = store.read();
            let names: Vec<String> = store
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            for c in 0..store.n_chunks() {
                let meta = store.chunk_meta(c);
                for (col, name) in names.iter().enumerate() {
                    let what = format!("{when}: {table} partition {p} chunk {c} {name}");
                    let read = store.read_column(c, col, None).unwrap();
                    assert_same(&what, &read);
                    if let ColumnData::Str(v) = &read {
                        let flat: StrVec = v.iter().collect();
                        assert_same(&format!("{what} (flat)"), &ColumnData::Str(flat));
                    }
                    let on_disk = vh
                        .fs()
                        .read(
                            &meta.path,
                            meta.offsets[col],
                            meta.col_bytes(col) as usize,
                            None,
                        )
                        .unwrap();
                    assert!(
                        on_disk == reference::encode_column(&read),
                        "{what}: the stored block is not the contest's; column: {}",
                        show(&read)
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn every_tpch_block_encodes_as_the_contest_did_before_and_after_propagation() {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 2048,
        ..Default::default()
    })
    .unwrap();
    let data = vectorh_tpch::schema::setup(&vh, 0.01, 3, 4).unwrap();
    let loaded = check_every_stored_column(&vh, "after load");
    assert!(loaded > 300, "only {loaded} columns checked");

    // New orders inserted where they cluster, old ones deleted and a string
    // and a price updated: the propagation's merged chunks hold pushed
    // values, so their string columns reach the encoder flat.
    let set = refresh::refresh_set(&data, 40, 5);
    refresh::rf1(&vh, &set).unwrap();
    refresh::rf2(&vh, &set).unwrap();
    let pred = vectorh::Expr::InList(
        Box::new(vectorh::Expr::Col(0)),
        data.orders[..200]
            .iter()
            .step_by(7)
            .map(|r| r[0].clone())
            .collect(),
    );
    vh.update_where("orders", &pred, 2, Value::Str("P".into()))
        .unwrap();
    vh.update_where("orders", &pred, 3, Value::Decimal(1, 2))
        .unwrap();
    let mut rewritten = 0;
    for table in ["orders", "lineitem"] {
        rewritten += vh.propagate_table(table, true).unwrap();
    }
    assert!(rewritten > 0, "the propagation rewrote nothing");
    let propagated = check_every_stored_column(&vh, "after propagation");
    assert!(
        propagated >= loaded,
        "{propagated} columns after, {loaded} before"
    );
}

//! PDICT: patched dictionary compression.
//!
//! Frequent values get thin fixed-width dictionary codes; infrequent values
//! are *exceptions* stored verbatim after the code section, linked through
//! their code slots exactly like PFOR (see [`crate::pfor`]). This keeps the
//! hot decode path a branch-free inflate + dictionary gather even for skewed
//! value distributions — the property the paper credits for VectorH's
//! decompression speed. A string block does not even gather: it decodes to
//! its codes, a coded `StrVec` over the dictionary with the exceptions
//! appended, and the strings stay codes until an operator needs bytes.

use std::collections::HashMap;
use vectorh_common::util::bits_needed;
use vectorh_common::{Result, StrVec, VhError};

use crate::bitpack;

/// Plan exception positions given per-position "codeable" flags and the code
/// mask. Inserts forced exceptions so consecutive exceptions are never more
/// than `mask + 1` slots apart (the chain-hop limit).
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

/// PDICT over 64-bit integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdictI64 {
    pub dict: Vec<i64>,
    pub width: u8,
    pub n: u32,
    pub first_exc: u32,
    pub codes: Vec<u8>,
    pub exceptions: Vec<i64>,
}

/// PDICT over strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdictStr {
    pub dict: StrVec,
    pub width: u8,
    pub n: u32,
    pub first_exc: u32,
    pub codes: Vec<u8>,
    pub exceptions: StrVec,
}

/// Shared encode: given per-value dictionary codes (`None` = not in dict),
/// produce the packed slot stream and exception position list.
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

/// Choose how many dictionary entries to keep, minimizing
/// `n*width/8 + dict_cost + exceptions*exc_cost`.
///
/// `freqs` must be sorted descending by frequency; `entry_cost(i)` is the
/// dictionary-storage cost of entry `i`.
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
    // k = 0 means "dictionary useless"; caller falls back to another scheme.
    for k in 1..=freqs.len() {
        dict_cost += entry_costs[k - 1];
        covered += freqs[k - 1];
        let width = bits_needed((k - 1) as u64).max(1);
        let size = bitpack::packed_size(n, width) + dict_cost + (n - covered) * exc_cost_per_value;
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
        let codes_opt: Vec<Option<u64>> = values.iter().map(|v| index.get(v).copied()).collect();
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

    pub fn decode(&self, out: &mut Vec<i64>) {
        let n = self.n as usize;
        if n == 0 {
            return;
        }
        let start = out.len();
        out.resize(start + n, 0);
        let dst = &mut out[start..];
        // Unpack codes straight into the output buffer (u64 slot view).
        crate::simd::unpack_into(&self.codes, self.width, crate::simd::i64_as_u64_mut(dst));
        // Walk the patch chain while slots are raw, then gather in place.
        let mut exc_pos: Vec<usize> = Vec::with_capacity(self.exceptions.len());
        if self.first_exc != u32::MAX {
            let mut j = self.first_exc as usize;
            for k in 0..self.exceptions.len() {
                exc_pos.push(j);
                if k + 1 < self.exceptions.len() {
                    j += dst[j] as usize + 1;
                }
            }
        }
        // Phase 1: dictionary gather. Exception slots hold chain hops which
        // may exceed the dictionary; the unsigned clamp keeps the gather
        // in-bounds (they get patched in phase 2).
        crate::simd::pdict_gather_inplace_i64(&self.dict, dst);
        // Phase 2: patch.
        for (&pos, e) in exc_pos.iter().zip(&self.exceptions) {
            dst[pos] = *e;
        }
    }

    pub fn body_size(&self) -> usize {
        self.dict.len() * 8 + self.codes.len() + self.exceptions.len() * 8
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
        let codes_opt: Vec<Option<u64>> = values.iter().map(|v| index.get(v).copied()).collect();
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

    /// The `n` decoded values as a coded [`StrVec`]: the dictionary with the
    /// block's exceptions appended, so every row has a code (exception `k`
    /// is entry `dict.len() + k`), and one code per row. No value's bytes
    /// are copied. A block whose parts do not fit each other (off a corrupt
    /// file) is an error, a code past the dictionary included.
    pub fn decode(self) -> Result<StrVec> {
        let n = self.n as usize;
        if n == 0 {
            return Ok(StrVec::new());
        }
        let corrupt = |what: &str| VhError::Codec(format!("PDICT-STR block: {what}"));
        if self.width > 64 || self.codes.len() < bitpack::packed_size(n, self.width) {
            return Err(corrupt("code section too short"));
        }
        if self.dict.is_empty() {
            return Err(corrupt("empty dictionary"));
        }
        let mut slots = Vec::with_capacity(n);
        bitpack::unpack(&self.codes, n, self.width, &mut slots);
        // An exception's slot holds the hop to the next one: read it, then
        // point the slot at the exception's entry.
        let (n_dict, n_exc) = (self.dict.len(), self.exceptions.len());
        let mut j = self.first_exc as usize;
        for k in 0..n_exc {
            let slot = slots.get_mut(j).ok_or_else(|| corrupt("exception chain"))?;
            let hop = std::mem::replace(slot, (n_dict + k) as u64);
            j = j.saturating_add(hop as usize).saturating_add(1);
        }
        // A code too wide for `u32` is past any dictionary: `coded` refuses it.
        let codes = slots
            .iter()
            .map(|&c| u32::try_from(c).unwrap_or(u32::MAX))
            .collect();
        let mut dict = self.dict;
        dict.extend_range(&self.exceptions, 0, n_exc);
        StrVec::coded(dict, codes).map_err(|_| corrupt("code past the dictionary"))
    }

    pub fn body_size(&self) -> usize {
        self.dict.byte_len()
            + 4 * self.dict.len()
            + self.codes.len()
            + self.exceptions.byte_len()
            + 4 * self.exceptions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn roundtrip_i64(values: &[i64]) -> PdictI64 {
        let enc = PdictI64::encode(values);
        let mut out = Vec::new();
        enc.decode(&mut out);
        assert_eq!(out, values);
        enc
    }

    fn roundtrip_str(values: &[String]) -> PdictStr {
        let values: StrVec = values.iter().collect();
        let enc = PdictStr::encode(&values);
        let out = enc.clone().decode().unwrap();
        assert_eq!(out, values);
        assert_eq!(out.byte_len(), values.byte_len());
        // Every row a code, the exceptions entries past the dictionary.
        assert_eq!(out.is_coded(), !values.is_empty());
        // Onto something, as a scan appends chunk after chunk.
        let mut onto = StrVec::from(["before"]);
        onto.extend_range(&out, 0, out.len());
        assert!(onto.iter().skip(1).eq(values.iter()));
        enc
    }

    #[test]
    fn empty_and_single() {
        roundtrip_i64(&[]);
        roundtrip_i64(&[99]);
        roundtrip_str(&[]);
        roundtrip_str(&["x".to_string()]);
    }

    #[test]
    fn low_cardinality_ints_pack_thin() {
        let vals: Vec<i64> = (0..4096).map(|i| [10i64, 20, 30, 40][i % 4]).collect();
        let enc = roundtrip_i64(&vals);
        assert_eq!(enc.dict.len(), 4);
        assert_eq!(enc.width, 2);
        assert!(enc.exceptions.is_empty());
        assert!(enc.body_size() < vals.len()); // ~0.25 B/value + dict
    }

    #[test]
    fn skewed_strings_use_exceptions() {
        let mut rng = SplitMix64::new(7);
        let vals: Vec<String> = (0..2000)
            .map(|_| {
                if rng.chance(0.02) {
                    format!("rare-{}", rng.next_u64())
                } else {
                    format!("common-{}", rng.next_bounded(8))
                }
            })
            .collect();
        let enc = roundtrip_str(&vals);
        assert!(
            enc.dict.len() <= 16 + 40,
            "dict stays small: {}",
            enc.dict.len()
        );
        assert!(!enc.exceptions.is_empty());
        let raw: usize = vals.iter().map(|s| s.len() + 4).sum();
        assert!(enc.body_size() < raw / 2);
    }

    #[test]
    fn a_block_whose_parts_do_not_fit_is_an_error_not_a_panic() {
        let vals: StrVec = (0..200)
            .map(|i| {
                if i % 50 == 7 {
                    format!("rare-{i}")
                } else {
                    format!("tag{}", i % 3)
                }
            })
            .collect();
        let good = PdictStr::encode(&vals);
        assert!(!good.exceptions.is_empty());
        let broken = [
            PdictStr {
                dict: StrVec::new(),
                ..good.clone()
            },
            PdictStr {
                codes: good.codes[..good.codes.len() / 2].to_vec(),
                ..good.clone()
            },
            PdictStr {
                first_exc: 1_000_000,
                ..good.clone()
            },
            PdictStr {
                width: 65,
                ..good.clone()
            },
        ];
        for b in broken {
            let what = format!("{b:?}");
            assert!(matches!(b.decode(), Err(VhError::Codec(_))), "{what}");
        }
        // Codes past the dictionary: a block without exceptions whose
        // dictionary lost its last entry, and one whose codes name a fourth
        // entry of three. Exceptions count as entries, so neither would be
        // caught by a block that had enough of them.
        let plain: StrVec = (0..64).map(|i| format!("tag{}", i % 3)).collect();
        let good = PdictStr::encode(&plain);
        assert!(good.exceptions.is_empty() && good.dict.len() == 3);
        assert_eq!(good.clone().decode().unwrap(), plain);
        let mut codes = Vec::new();
        bitpack::pack(&[0, 1, 2, 3, 1], 2, &mut codes);
        for b in [
            PdictStr {
                dict: good.dict.gather(0..2),
                ..good.clone()
            },
            PdictStr {
                n: 5,
                codes,
                ..good
            },
        ] {
            let what = format!("{b:?}");
            let err = b.decode().err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn all_distinct_strings_still_roundtrip() {
        let vals: Vec<String> = (0..500).map(|i| format!("v{i}")).collect();
        roundtrip_str(&vals);
    }

    #[test]
    fn plan_exceptions_inserts_forced_patches() {
        // naturals at 0 and 20, mask 3 => max hop 3 slots between exceptions
        let mut codeable = vec![true; 21];
        codeable[0] = false;
        codeable[20] = false;
        let exc = plan_exceptions(&codeable, 3);
        assert_eq!(exc.first(), Some(&0));
        assert_eq!(exc.last(), Some(&20));
        for w in exc.windows(2) {
            assert!(w[1] - w[0] - 1 <= 3, "gap too wide: {exc:?}");
        }
    }

    #[test]
    fn no_forced_patch_after_last_natural() {
        let mut codeable = vec![true; 100];
        codeable[1] = false;
        let exc = plan_exceptions(&codeable, 1);
        assert_eq!(exc, vec![1], "no trailing forced exceptions");
    }

    #[test]
    fn prop_pdict_i64_roundtrip() {
        let mut meta = SplitMix64::new(0x0D1C_7164);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(1500) as usize;
            let card = 1 + meta.next_bounded(39);
            let mut rng = SplitMix64::new(seed);
            let vals: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.chance(0.03) {
                        rng.next_u64() as i64
                    } else {
                        rng.next_bounded(card) as i64
                    }
                })
                .collect();
            let enc = PdictI64::encode(&vals);
            let mut out = Vec::new();
            enc.decode(&mut out);
            assert_eq!(out, vals, "seed {seed}");
        }
    }

    #[test]
    fn prop_pdict_str_roundtrip() {
        let mut meta = SplitMix64::new(0x0D1C_7572);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(800) as usize;
            let mut rng = SplitMix64::new(seed);
            let vals: Vec<String> = (0..n)
                .map(|_| {
                    if rng.chance(0.05) {
                        format!("unique-{}", rng.next_u64())
                    } else {
                        format!("tag{}", rng.next_bounded(6))
                    }
                })
                .collect();
            let vals: StrVec = vals.into();
            let enc = PdictStr::encode(&vals);
            assert_eq!(enc.decode().unwrap(), vals, "seed {seed}");
        }
    }
}

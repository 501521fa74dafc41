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
//!
//! A block is planned before it is written ([`PdictI64::plan`],
//! [`PdictStr::plan`]): one pass counts the distinct values in a flat
//! open-addressing [`Counter`], the dictionary and the exceptions follow from
//! the counts, and the count gives up as soon as the distinct values alone
//! would make the block bigger than the caller can use.

use vectorh_common::util::{bits_needed, hash_bytes};
use vectorh_common::{Result, StrVec, VhError};

use crate::bitpack;
use crate::pfor::{chain, check_slots, first_exception, link, walk_chain};

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

/// Distinct keys and how often each occurs: open addressing with linear
/// probing over a flat array of slots kept at most a quarter full, the
/// slot taken from the top bits of a hash the caller gives. The hash is
/// unkeyed, as in the engine's join and aggregation tables; a block's row
/// count bounds what colliding values can cost.
struct Counter<K> {
    /// 0 for a free slot, else its entry's index + 1.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash's slot is `hash >> shift`.
    shift: u32,
    /// In order of first appearance.
    entries: Vec<Entry<K>>,
}

struct Entry<K> {
    key: K,
    hash: u64,
    count: usize,
}

impl<K: Copy + Eq> Counter<K> {
    fn new() -> Self {
        Counter {
            slots: vec![0; 16],
            shift: 64 - 4,
            entries: Vec::new(),
        }
    }

    /// Count `weight` more of `key`, whose hash is `hash`; returns its entry.
    #[inline]
    fn add(&mut self, key: K, hash: u64, weight: usize) -> u32 {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while let Some(e) = self.slots[at].checked_sub(1) {
            let entry = &mut self.entries[e as usize];
            if entry.hash == hash && entry.key == key {
                entry.count += weight;
                return e;
            }
            at = (at + 1) & mask;
        }
        let e = self.entries.len() as u32;
        self.slots[at] = e + 1;
        self.entries.push(Entry {
            key,
            hash,
            count: weight,
        });
        if 4 * self.entries.len() > self.slots.len() {
            self.grow();
        }
        e
    }

    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (e, entry) in self.entries.iter().enumerate() {
            let mut at = (entry.hash >> self.shift) as usize;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = e as u32 + 1;
        }
    }
}

/// A PDICT block decided but not yet written.
pub(crate) struct DictPlan<K> {
    /// The kept values in code order: frequency descending, then value
    /// ascending.
    dict: Vec<K>,
    /// Each position's value's rank in that order; a rank past the
    /// dictionary marks a natural exception.
    ranks: Vec<u32>,
    width: u8,
    /// Exception positions, natural and forced, ascending.
    exceptions: Vec<usize>,
    body_size: usize,
}

impl<K> DictPlan<K> {
    /// The written block's `body_size()`.
    pub(crate) fn body_size(&self) -> usize {
        self.body_size
    }

    /// The packed code section, each exception's slot linked to the next,
    /// and the first exception.
    fn pack(&self) -> (Vec<u8>, u32) {
        let mut slots: Vec<u64> = self.ranks.iter().map(|&r| r as u64).collect();
        link(&mut slots, &self.exceptions);
        let mut codes = Vec::with_capacity(bitpack::packed_size(slots.len(), self.width));
        bitpack::pack(&slots, self.width, &mut codes);
        (codes, first_exception(&self.exceptions))
    }
}

/// Plan the dictionary over the distinct values `counter` holds, `ids`
/// naming each position's entry. The values are ranked by frequency
/// descending, then value ascending; [`choose_dict_size`] keeps a prefix of
/// at least one (entry costs from `entry_cost`, a value left out costing
/// `exc_cost`), and the exceptions are found at the width its codes need.
/// `exc_size(i)` is the stored size of position `i`'s value as an exception.
fn plan_dict<K: Copy + Ord>(
    counter: Counter<K>,
    mut ids: Vec<u32>,
    entry_cost: impl Fn(K) -> usize,
    exc_cost: usize,
    exc_size: impl Fn(usize) -> usize,
) -> DictPlan<K> {
    let n = ids.len();
    if n == 0 {
        return DictPlan {
            dict: Vec::new(),
            ranks: ids,
            width: 0,
            exceptions: Vec::new(),
            body_size: 0,
        };
    }
    let entries = counter.entries;
    let mut order: Vec<u32> = (0..entries.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (&entries[a as usize], &entries[b as usize]);
        b.count.cmp(&a.count).then(a.key.cmp(&b.key))
    });
    let freqs: Vec<usize> = order.iter().map(|&e| entries[e as usize].count).collect();
    let costs: Vec<usize> = order
        .iter()
        .map(|&e| entry_cost(entries[e as usize].key))
        .collect();
    let k = choose_dict_size(&freqs, n, &costs, exc_cost).max(1);
    let width = bits_needed((k - 1) as u64).max(1);
    let mut rank = vec![0u32; entries.len()];
    for (r, &e) in order.iter().enumerate() {
        rank[e as usize] = r as u32;
    }
    for id in &mut ids {
        *id = rank[*id as usize];
    }
    let mut exceptions = Vec::new();
    if k < entries.len() {
        let naturals = ids
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r as usize >= k)
            .map(|(i, _)| i);
        exceptions.extend(chain(naturals, width));
    }
    let body_size = costs[..k].iter().sum::<usize>()
        + bitpack::packed_size(n, width)
        + exceptions.iter().map(|&i| exc_size(i)).sum::<usize>();
    DictPlan {
        dict: order[..k]
            .iter()
            .map(|&e| entries[e as usize].key)
            .collect(),
        ranks: ids,
        width,
        exceptions,
        body_size,
    }
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
    /// Plan the block for `values`, or `None` as soon as its body is sure
    /// to exceed `max_body` bytes: every distinct value is stored once, as
    /// an entry or an exception, at 8 bytes, beside a code of at least one
    /// bit per value, so counting stops when the distinct values pass that.
    pub(crate) fn plan(values: &[i64], max_body: usize) -> Option<DictPlan<i64>> {
        let max_distinct = max_body.checked_sub(bitpack::packed_size(values.len(), 1))? / 8;
        let mut counter = Counter::new();
        let mut ids = Vec::with_capacity(values.len());
        for &v in values {
            // Multiplying by an odd constant is a bijection whose top bits mix
            // every bit of the value.
            ids.push(counter.add(v, (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), 1));
            if counter.entries.len() > max_distinct {
                return None;
            }
        }
        Some(plan_dict(counter, ids, |_| 8, 8, |_| 8))
    }

    /// Write the block `plan` describes for the `values` it was made from.
    pub(crate) fn encode_planned(values: &[i64], plan: DictPlan<i64>) -> PdictI64 {
        let (codes, first_exc) = plan.pack();
        PdictI64 {
            exceptions: plan.exceptions.iter().map(|&i| values[i]).collect(),
            dict: plan.dict,
            width: plan.width,
            n: values.len() as u32,
            first_exc,
            codes,
        }
    }

    pub fn encode(values: &[i64]) -> PdictI64 {
        Self::encode_planned(
            values,
            Self::plan(values, usize::MAX).expect("a plan with no size limit"),
        )
    }

    /// Panics on a block whose parts do not fit each other, which
    /// [`encode`](Self::encode) never writes; a block read off a disk is
    /// decoded through [`try_decode`](Self::try_decode).
    pub fn decode(&self, out: &mut Vec<i64>) {
        self.try_decode(out)
            .expect("a PDICT block whose parts fit each other");
    }

    /// [`decode`](Self::decode), or a `VhError::Codec` for a block whose
    /// parts do not fit each other.
    pub(crate) fn try_decode(&self, out: &mut Vec<i64>) -> Result<()> {
        let n = self.n as usize;
        if n == 0 {
            return Ok(());
        }
        let corrupt = |what| VhError::Codec(format!("PDICT block: {what}"));
        check_slots(n, self.width, &self.codes, self.exceptions.len()).map_err(corrupt)?;
        if self.dict.is_empty() {
            return Err(corrupt("empty dictionary"));
        }
        let start = out.len();
        out.resize(start + n, 0);
        let dst = &mut out[start..];
        // Unpack codes straight into the output buffer (u64 slot view).
        crate::simd::unpack_into(&self.codes, self.width, crate::simd::i64_as_u64_mut(dst));
        // Walk the patch chain while slots are raw, then gather in place.
        let exc_pos = walk_chain(
            crate::simd::i64_as_u64_mut(dst),
            self.first_exc,
            self.exceptions.len(),
        )
        .map_err(corrupt)?;
        // Phase 1: dictionary gather. Exception slots hold chain hops which
        // may exceed the dictionary; the unsigned clamp keeps the gather
        // in-bounds (they get patched in phase 2).
        crate::simd::pdict_gather_inplace_i64(&self.dict, dst);
        // Phase 2: patch.
        for (&pos, e) in exc_pos.iter().zip(&self.exceptions) {
            dst[pos] = *e;
        }
        Ok(())
    }

    pub fn body_size(&self) -> usize {
        self.dict.len() * 8 + self.codes.len() + self.exceptions.len() * 8
    }
}

impl PdictStr {
    /// Plan the block for `values`, or `None` as soon as its body is sure
    /// to exceed `max_body` bytes: every distinct string is stored once, as
    /// an entry or an exception, at its length + 4, beside a code of at
    /// least one bit per value, so counting stops when the distinct strings
    /// pass that. A coded vector is counted per code, and the counts of
    /// codes that name one string (a dictionary may hold it twice) merged.
    pub(crate) fn plan<'a>(values: &'a StrVec, max_body: usize) -> Option<DictPlan<&'a str>> {
        let n = values.len();
        let mut room = max_body.checked_sub(bitpack::packed_size(n, 1))?;
        let mut counter = Counter::new();
        let mut add = |s: &'a str, weight| {
            let known = counter.entries.len();
            let e = counter.add(s, hash_bytes(s.as_bytes()), weight);
            if counter.entries.len() > known {
                room = room.checked_sub(s.len() + 4)?;
            }
            Some(e)
        };
        let ids: Vec<u32> = match values.dict_codes() {
            Some((dict, codes)) => {
                let mut per_code = vec![0usize; dict.len()];
                for &c in codes {
                    per_code[c as usize] += 1;
                }
                let mut entry = vec![0u32; dict.len()];
                for (c, &count) in per_code.iter().enumerate() {
                    if count > 0 {
                        entry[c] = add(dict.get(c), count)?;
                    }
                }
                codes.iter().map(|&c| entry[c as usize]).collect()
            }
            None => values.iter().map(|s| add(s, 1)).collect::<Option<_>>()?,
        };
        let avg_len = (values.byte_len() + 4 * n).checked_div(n).unwrap_or(0);
        Some(plan_dict(
            counter,
            ids,
            |s| s.len() + 4,
            avg_len,
            |i| values.get(i).len() + 4,
        ))
    }

    /// Write the block `plan` describes for the `values` it was made from.
    pub(crate) fn encode_planned(values: &StrVec, plan: DictPlan<&str>) -> PdictStr {
        let (codes, first_exc) = plan.pack();
        PdictStr {
            dict: plan.dict.iter().collect(),
            width: plan.width,
            n: values.len() as u32,
            first_exc,
            codes,
            exceptions: values.gather(plan.exceptions.iter().copied()),
        }
    }

    pub fn encode(values: &StrVec) -> PdictStr {
        Self::encode_planned(
            values,
            Self::plan(values, usize::MAX).expect("a plan with no size limit"),
        )
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
        let corrupt = |what| VhError::Codec(format!("PDICT-STR block: {what}"));
        check_slots(n, self.width, &self.codes, self.exceptions.len()).map_err(corrupt)?;
        if self.dict.is_empty() {
            return Err(corrupt("empty dictionary"));
        }
        let mut slots = Vec::with_capacity(n);
        bitpack::unpack(&self.codes, n, self.width, &mut slots);
        // An exception's slot holds the hop to the next one: read them all,
        // then point each slot at its exception's entry.
        let (n_dict, n_exc) = (self.dict.len(), self.exceptions.len());
        let exc_pos = walk_chain(&slots, self.first_exc, n_exc).map_err(corrupt)?;
        for (k, at) in exc_pos.into_iter().enumerate() {
            slots[at] = (n_dict + k) as u64;
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
        // naturals at 0 and 20, width 2 => max hop 3 slots between exceptions
        let exc: Vec<usize> = chain([0, 20].into_iter(), 2).collect();
        assert_eq!(exc, [0, 4, 8, 12, 16, 20]);
        // A gap the hop spans needs nothing.
        let exc: Vec<usize> = chain([5, 9, 10].into_iter(), 2).collect();
        assert_eq!(exc, [5, 9, 10]);
    }

    #[test]
    fn no_forced_patch_after_last_natural() {
        let exc: Vec<usize> = chain([1].into_iter(), 1).collect();
        assert_eq!(exc, vec![1], "no trailing forced exceptions");
        let exc: Vec<usize> = chain([60].into_iter(), 1).collect();
        assert_eq!(exc, vec![60], "no leading forced exceptions");
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

//! PFOR and PFOR-DELTA: patched frame-of-reference coding.
//!
//! Values are represented as unsigned deltas from a per-block *base* (the
//! block minimum), packed at a fixed bit width chosen to make most values
//! fit. Values that do not fit become **exceptions**: their original value is
//! appended uncompressed after the code section, and their code slot instead
//! holds the distance to the *next* exception, forming a linked chain
//! starting at `first_exc`. Decompression therefore has two phases, exactly
//! as the paper describes: a branch-free inflate of all codes, then a short
//! data-dependent patch walk that "hops over the decompressed codes treating
//! them as next pointers".
//!
//! When exceptions are further apart than the chain can express at the
//! chosen width, the encoder inserts *forced exceptions* to keep the chain
//! connected (standard PFOR practice). [`chain`] places them, for PDICT too.
//!
//! An encoding is planned before it is written: [`Pfor::plan`] takes the
//! frame from the block minimum, the width from a histogram of bit widths
//! and the exceptions from one pass at that width, so
//! [`crate::codec`] can weigh PFOR against the other schemes by its exact
//! size and write only the scheme it keeps.

use vectorh_common::util::bits_needed;
use vectorh_common::{Result, VhError};

use crate::bitpack;

/// An encoded PFOR block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pfor {
    /// Frame of reference: decoded value = base + code (wrapping).
    pub base: i64,
    /// Bits per packed code.
    pub width: u8,
    /// Number of values.
    pub n: u32,
    /// Index of the first exception, or `u32::MAX` when there are none.
    pub first_exc: u32,
    /// Bit-packed code section.
    pub codes: Vec<u8>,
    /// Exception values (originals), in position order.
    pub exceptions: Vec<i64>,
}

/// A PFOR block decided but not yet written.
pub(crate) struct PforPlan {
    n: usize,
    base: i64,
    width: u8,
    /// Exception positions, natural and forced, ascending.
    exceptions: Vec<usize>,
}

impl PforPlan {
    /// The written block's [`Pfor::body_size`].
    pub(crate) fn body_size(&self) -> usize {
        body_size(self.n, self.width, self.exceptions.len())
    }
}

/// Size in bytes an encoding with these parameters will occupy on disk
/// (excluding the fixed header the storage layer adds).
fn body_size(n: usize, width: u8, exceptions: usize) -> usize {
    bitpack::packed_size(n, width) + exceptions * 8
}

/// The largest code `width` bits hold.
pub(crate) fn mask(width: u8) -> u64 {
    match width {
        0 => 0,
        w => u64::MAX >> (64 - w),
    }
}

/// The exception positions of a patched block (PFOR, PDICT) coded at
/// `width` bits: every natural exception, ascending, and a forced one
/// wherever the next natural exception lies further past the previous
/// exception than a slot can hop ([`mask`]`(width)` slots between two).
/// Nothing is forced before the first natural exception or after the last.
pub(crate) fn chain(
    naturals: impl Iterator<Item = usize>,
    width: u8,
) -> impl Iterator<Item = usize> {
    let stride = (mask(width) as usize).saturating_add(1);
    let mut last: Option<usize> = None;
    naturals.flat_map(move |at| {
        let forced_from = last.map_or(at, |prev| prev.saturating_add(stride));
        last = Some(at);
        (forced_from..at).step_by(stride).chain(std::iter::once(at))
    })
}

/// Point each exception's slot at the next exception: the hop
/// `next − this − 1`, and 0 (unused) for the last.
pub(crate) fn link(slots: &mut [u64], exceptions: &[usize]) {
    for (k, &at) in exceptions.iter().enumerate() {
        slots[at] = exceptions
            .get(k + 1)
            .map_or(0, |&next| (next - at - 1) as u64);
    }
}

/// The `first_exc` field for these exception positions.
pub(crate) fn first_exception(exceptions: &[usize]) -> u32 {
    exceptions.first().map_or(u32::MAX, |&at| at as u32)
}

/// Can the `n` slots of a patched block (PFOR, PDICT) be unpacked? Its
/// width is at most 64 bits, its code section holds `n` slots, and it has
/// no more exceptions than slots.
pub(crate) fn check_slots(
    n: usize,
    width: u8,
    codes: &[u8],
    exceptions: usize,
) -> std::result::Result<(), &'static str> {
    if width > 64 {
        Err("width past 64 bits")
    } else if codes.len() < bitpack::packed_size(n, width) {
        Err("code section too short")
    } else if exceptions > n {
        Err("more exceptions than values")
    } else {
        Ok(())
    }
}

/// The positions of a patched block's `exceptions`, walked from `first`
/// along the hops its raw `slots` hold; an error when the chain leaves the
/// block.
pub(crate) fn walk_chain(
    slots: &[u64],
    first: u32,
    exceptions: usize,
) -> std::result::Result<Vec<usize>, &'static str> {
    let mut at = Vec::with_capacity(exceptions);
    let mut j = first as usize;
    for _ in 0..exceptions {
        let hop = *slots.get(j).ok_or("exception chain leaves the block")?;
        at.push(j);
        j = j.saturating_add(hop as usize).saturating_add(1);
    }
    Ok(at)
}

/// Pick the code width minimizing encoded size, from `hist[b]`, the number
/// of the `n` deltas that need `b` bits.
///
/// Natural exceptions per width come from the histogram; forced exceptions
/// (chain gaps) are charged pessimistically as `n >> width`.
fn choose_width(hist: &[usize; 65], n: usize) -> u8 {
    if n == 0 {
        return 0;
    }
    // suffix[w] = number of values needing more than w bits = natural exceptions at width w.
    let mut best_w = 64u8;
    let mut best_size = usize::MAX;
    let mut exceptions = 0usize;
    for w in (0..=64u8).rev() {
        // Forced exceptions only arise between natural ones; charge the
        // chain-density bound only when natural exceptions exist at all.
        let forced = if exceptions == 0 || w == 0 || w >= 32 {
            0
        } else {
            (n >> w).saturating_sub(exceptions)
        };
        let exc = exceptions + forced;
        // width 0 cannot host an exception chain.
        if !(w == 0 && exc > 0) {
            let size = body_size(n, w, exc);
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
    /// Plan the block for `values`: the minimum as the frame, the width
    /// from the histogram of the deltas' bit widths, and the exceptions at
    /// that width (none when the histogram shows no delta too wide for it).
    pub(crate) fn plan(values: &[i64]) -> PforPlan {
        let Some(&base) = values.iter().min() else {
            return PforPlan {
                n: 0,
                base: 0,
                width: 0,
                exceptions: Vec::new(),
            };
        };
        let mut hist = [0usize; 65];
        for &v in values {
            hist[bits_needed(v.wrapping_sub(base) as u64) as usize] += 1;
        }
        let width = choose_width(&hist, values.len());
        let mut exceptions = Vec::new();
        if hist[width as usize + 1..].iter().any(|&c| c > 0) {
            let mask = mask(width);
            let naturals = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v.wrapping_sub(base) as u64 > mask)
                .map(|(i, _)| i);
            exceptions.extend(chain(naturals, width));
        }
        PforPlan {
            n: values.len(),
            base,
            width,
            exceptions,
        }
    }

    /// Write the block `plan` describes for the `values` it was made from.
    pub(crate) fn encode_planned(values: &[i64], plan: PforPlan) -> Pfor {
        let PforPlan {
            n,
            base,
            width,
            exceptions: at,
        } = plan;
        let mut slots: Vec<u64> = values
            .iter()
            .map(|&v| v.wrapping_sub(base) as u64)
            .collect();
        link(&mut slots, &at);
        let mut codes = Vec::with_capacity(bitpack::packed_size(n, width));
        bitpack::pack(&slots, width, &mut codes);
        Pfor {
            base,
            width,
            n: n as u32,
            first_exc: first_exception(&at),
            codes,
            exceptions: at.iter().map(|&i| values[i]).collect(),
        }
    }

    /// Encode a slice of values.
    pub fn encode(values: &[i64]) -> Pfor {
        Self::encode_planned(values, Self::plan(values))
    }

    /// Decode into `out` (appended). Two phases: inflate, then patch.
    ///
    /// Codes are unpacked by the SIMD kernels straight into the output
    /// buffer (no staging vector); the exception chain is walked over the
    /// raw slots *before* the vectorized frame-of-reference add, so the
    /// inflate stays branch-free and the patch is a short scatter.
    ///
    /// Panics on a block whose parts do not fit each other, which
    /// [`encode`](Self::encode) never writes; a block read off a disk is
    /// decoded through [`try_decode`](Self::try_decode).
    pub fn decode(&self, out: &mut Vec<i64>) {
        self.try_decode(out)
            .expect("a PFOR block whose parts fit each other");
    }

    /// [`decode`](Self::decode), or a `VhError::Codec` for a block whose
    /// parts do not fit each other.
    pub(crate) fn try_decode(&self, out: &mut Vec<i64>) -> Result<()> {
        let corrupt = |what| VhError::Codec(format!("PFOR block: {what}"));
        let n = self.n as usize;
        check_slots(n, self.width, &self.codes, self.exceptions.len()).map_err(corrupt)?;
        let start = out.len();
        out.resize(start + n, 0);
        let dst = &mut out[start..];
        crate::simd::unpack_into(&self.codes, self.width, crate::simd::i64_as_u64_mut(dst));
        // Walk the next-pointer chain while slots are still raw hops.
        let exc_at = walk_chain(
            crate::simd::i64_as_u64_mut(dst),
            self.first_exc,
            self.exceptions.len(),
        )
        .map_err(corrupt)?;
        // Phase 1: branch-free inflate of every slot.
        crate::simd::add_base_i64(dst, self.base);
        // Phase 2: patch exceptions at the recorded positions.
        for (&j, &e) in exc_at.iter().zip(&self.exceptions) {
            dst[j] = e;
        }
        Ok(())
    }

    /// Encoded body size in bytes.
    pub fn body_size(&self) -> usize {
        body_size(self.n as usize, self.width, self.exceptions.len())
    }
}

/// PFOR-DELTA: PFOR applied to consecutive differences.
///
/// `seed` is the first value; slot `i` holds `v[i] - v[i-1]` (slot 0 holds 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PforDelta {
    pub seed: i64,
    pub inner: Pfor,
}

impl PforDelta {
    /// What the inner PFOR codes: 0, then each value less the one before it
    /// (wrapping).
    pub(crate) fn diffs(values: &[i64]) -> Vec<i64> {
        let mut diffs = Vec::with_capacity(values.len());
        diffs.extend(values.first().map(|_| 0));
        diffs.extend(values.windows(2).map(|w| w[1].wrapping_sub(w[0])));
        diffs
    }

    /// Write the block for `values` whose [`diffs`](Self::diffs) `plan`
    /// was made from.
    pub(crate) fn encode_planned(values: &[i64], diffs: &[i64], plan: PforPlan) -> PforDelta {
        PforDelta {
            seed: values.first().copied().unwrap_or(0),
            inner: Pfor::encode_planned(diffs, plan),
        }
    }

    pub fn encode(values: &[i64]) -> PforDelta {
        let diffs = Self::diffs(values);
        let plan = Pfor::plan(&diffs);
        Self::encode_planned(values, &diffs, plan)
    }

    /// Panics where [`Pfor::decode`] does.
    pub fn decode(&self, out: &mut Vec<i64>) {
        self.try_decode(out)
            .expect("a PFOR-DELTA block whose parts fit each other");
    }

    pub(crate) fn try_decode(&self, out: &mut Vec<i64>) -> Result<()> {
        let start = out.len();
        self.inner.try_decode(out)?;
        // Log-step SIMD scan reconstructs the running sums from the deltas.
        crate::simd::prefix_sum_i64(&mut out[start..], self.seed);
        Ok(())
    }

    pub fn body_size(&self) -> usize {
        8 + self.inner.body_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn roundtrip(values: &[i64]) -> Pfor {
        let enc = Pfor::encode(values);
        let mut out = Vec::new();
        enc.decode(&mut out);
        assert_eq!(out, values, "pfor roundtrip failed");
        enc
    }

    fn roundtrip_delta(values: &[i64]) -> PforDelta {
        let enc = PforDelta::encode(values);
        let mut out = Vec::new();
        enc.decode(&mut out);
        assert_eq!(out, values, "pfor-delta roundtrip failed");
        enc
    }

    #[test]
    fn empty_and_singleton() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip_delta(&[]);
        roundtrip_delta(&[42]);
    }

    #[test]
    fn constant_column_is_nearly_free() {
        let vals = vec![7i64; 5000];
        let enc = roundtrip(&vals);
        assert_eq!(enc.width, 0);
        assert_eq!(enc.body_size(), 0);
    }

    #[test]
    fn small_range_packs_thin() {
        let vals: Vec<i64> = (0..4096).map(|i| 1_000_000 + (i % 16)).collect();
        let enc = roundtrip(&vals);
        assert_eq!(enc.width, 4);
        assert!(enc.exceptions.is_empty());
        assert_eq!(enc.body_size(), 4096 * 4 / 8);
    }

    #[test]
    fn skewed_with_outliers_uses_exceptions() {
        // 99% small values, 1% huge outliers: the paper's motivating case.
        let mut rng = SplitMix64::new(1);
        let vals: Vec<i64> = (0..8192)
            .map(|_| {
                if rng.chance(0.01) {
                    rng.range_i64(1 << 40, 1 << 41)
                } else {
                    rng.range_i64(0, 255)
                }
            })
            .collect();
        let enc = roundtrip(&vals);
        assert!(enc.width <= 16, "width {} should stay thin", enc.width);
        assert!(!enc.exceptions.is_empty());
        // Must beat raw 8-byte storage comfortably.
        assert!(enc.body_size() < vals.len() * 8 / 3);
    }

    #[test]
    fn negative_values_and_extremes() {
        roundtrip(&[i64::MIN, i64::MAX, 0, -1, 1]);
        roundtrip(&[-5, -4, -3, -100, -5]);
    }

    #[test]
    fn adjacent_exceptions() {
        // Exceptions in consecutive slots exercise hop=0.
        let mut vals = vec![1i64; 100];
        vals[50] = 1 << 50;
        vals[51] = 1 << 51;
        vals[52] = 1 << 52;
        let enc = roundtrip(&vals);
        assert_eq!(enc.exceptions.len(), 3);
    }

    #[test]
    fn exception_at_block_edges() {
        let mut vals = vec![3i64; 64];
        vals[0] = i64::MAX;
        vals[63] = i64::MIN;
        roundtrip(&vals);
    }

    #[test]
    fn sorted_data_much_smaller_with_delta() {
        let vals: Vec<i64> = (0..10_000).map(|i| i * 3 + (i % 2)).collect();
        let plain = Pfor::encode(&vals);
        let delta = roundtrip_delta(&vals);
        assert!(
            delta.body_size() < plain.body_size(),
            "delta {} should beat plain {}",
            delta.body_size(),
            plain.body_size()
        );
    }

    #[test]
    fn distant_exceptions_forced_chain() {
        // Two outliers separated by far more than 2^width slots at thin width.
        let mut vals = vec![0i64; 40_000];
        vals[10] = 1 << 60;
        vals[39_990] = 1 << 60;
        roundtrip(&vals);
    }

    #[test]
    fn prop_pfor_roundtrip() {
        let mut meta = SplitMix64::new(0x9F02);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(2000) as usize;
            let spread = meta.next_bounded(60) as u32;
            let mut rng = SplitMix64::new(seed);
            let bound = 1i64 << spread;
            let vals: Vec<i64> = (0..n)
                .map(|_| {
                    if rng.chance(0.05) {
                        rng.next_u64() as i64
                    } else {
                        rng.range_i64(-bound, bound)
                    }
                })
                .collect();
            let enc = Pfor::encode(&vals);
            let mut out = Vec::new();
            enc.decode(&mut out);
            assert_eq!(out, vals, "seed {seed}");
        }
    }

    #[test]
    fn prop_pfordelta_roundtrip() {
        let mut meta = SplitMix64::new(0x9F02_DE17A);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(2000) as usize;
            let mut rng = SplitMix64::new(seed);
            let mut acc = rng.next_u64() as i64;
            let vals: Vec<i64> = (0..n)
                .map(|_| {
                    acc = acc.wrapping_add(rng.range_i64(-1000, 1000));
                    acc
                })
                .collect();
            let enc = PforDelta::encode(&vals);
            let mut out = Vec::new();
            enc.decode(&mut out);
            assert_eq!(out, vals, "seed {seed}");
        }
    }
}

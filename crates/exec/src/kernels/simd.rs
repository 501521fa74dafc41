//! SIMD arms for the execution-side hot loops: hash folding and the
//! compaction of a boolean mask into a selection vector.
//!
//! Same dispatch policy as the decompression kernels
//! (`vectorh_common::simd`): an AVX2 arm behind runtime detection, a
//! portable unrolled arm, and the original scalar loops kept bit-identical
//! as the oracle. The hash kernels implement the engine's
//! `hash_u64`/`hash_combine` mix on four 64-bit lanes — AVX2 has no 64×64
//! multiply, so it is synthesized from three 32×32→64 products
//! (`lo·lo + ((lo·hi + hi·lo) << 32)`), which still beats four scalar
//! multiply chains because the three xorshift-multiply rounds per value
//! run on independent lanes.

use vectorh_common::simd::{simd_mode, SimdMode};
use vectorh_common::util::{hash_combine, hash_u64};

/// `acc[i] = hash_combine(acc[i], hash_u64(vals[i] as u64))` for i64 keys.
pub fn fold_hash_i64(vals: &[i64], acc: &mut [u64]) {
    debug_assert_eq!(vals.len(), acc.len());
    #[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
    {
        if simd_mode() == SimdMode::Avx2 {
            // SAFETY: mode Avx2 implies runtime detection succeeded.
            unsafe { avx2::fold_i64(vals, acc) };
            return;
        }
    }
    fold_hash_words_portable(vals.iter().map(|&x| x as u64), acc);
}

/// `acc[i] = hash_combine(acc[i], hash_u64(vals[i] as i64 as u64))` —
/// i32 keys are sign-extended so they hash identically to i64 keys.
pub fn fold_hash_i32(vals: &[i32], acc: &mut [u64]) {
    debug_assert_eq!(vals.len(), acc.len());
    #[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
    {
        if simd_mode() == SimdMode::Avx2 {
            // SAFETY: mode Avx2 implies runtime detection succeeded.
            unsafe { avx2::fold_i32(vals, acc) };
            return;
        }
    }
    fold_hash_words_portable(vals.iter().map(|&x| x as i64 as u64), acc);
}

/// `acc[i] = hash_combine(acc[i], hash_u64((vals[i] + 0.0).to_bits()))` for
/// f64 keys: adding `+0.0` turns `-0.0` into `+0.0`, so the two zeros, which
/// compare equal, hash equal (a NaN stays a NaN and equals nothing).
pub fn fold_hash_f64(vals: &[f64], acc: &mut [u64]) {
    debug_assert_eq!(vals.len(), acc.len());
    #[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
    {
        if simd_mode() == SimdMode::Avx2 {
            // SAFETY: mode Avx2 implies runtime detection succeeded.
            unsafe { avx2::fold_f64(vals, acc) };
            return;
        }
    }
    fold_hash_words_portable(vals.iter().map(|&x| (x + 0.0).to_bits()), acc);
}

/// Portable arm: four independent accumulator lanes per unrolled step so
/// the three multiply rounds of consecutive rows overlap instead of
/// serializing behind one accumulator. In `Scalar` mode the plain loop
/// runs instead (the oracle the unrolled arm is tested against).
fn fold_hash_words_portable(words: impl Iterator<Item = u64>, acc: &mut [u64]) {
    if simd_mode() == SimdMode::Scalar {
        for (h, w) in acc.iter_mut().zip(words) {
            *h = hash_combine(*h, hash_u64(w));
        }
        return;
    }
    let mut words = words;
    let mut i = 0usize;
    let n = acc.len();
    while i + 4 <= n {
        // Four independent chains; sunk back to memory each step.
        let (w0, w1, w2, w3) = (
            words.next().expect("len checked"),
            words.next().expect("len checked"),
            words.next().expect("len checked"),
            words.next().expect("len checked"),
        );
        let h0 = hash_combine(acc[i], hash_u64(w0));
        let h1 = hash_combine(acc[i + 1], hash_u64(w1));
        let h2 = hash_combine(acc[i + 2], hash_u64(w2));
        let h3 = hash_combine(acc[i + 3], hash_u64(w3));
        acc[i] = h0;
        acc[i + 1] = h1;
        acc[i + 2] = h2;
        acc[i + 3] = h3;
        i += 4;
    }
    for h in acc[i..].iter_mut() {
        *h = hash_combine(*h, hash_u64(words.next().expect("len checked")));
    }
}

/// Compact a boolean mask into a selection vector of row indices:
/// `out = [i for i, m in mask if m]`, as `u32`. Clears and refills `out`.
/// For a caller that holds a mask (`Expr::eval_mask`'s, as the benchmark's
/// filter rung does); `Select` builds no mask, its predicate narrows the
/// selection vector directly.
///
/// AVX2 compares 32 mask bytes at a time into a movemask and peels set
/// bits; the portable arm writes every candidate index unconditionally and
/// bumps the cursor by the mask byte (branchless, no mispredicts on random
/// selectivity); the scalar oracle is the obvious branchy loop.
pub fn compact_mask(mask: &[bool], out: &mut Vec<u32>) {
    out.clear();
    out.resize(mask.len(), 0);
    let k = match simd_mode() {
        #[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
        // SAFETY: mode Avx2 implies runtime detection succeeded.
        SimdMode::Avx2 => unsafe { avx2::compact(mask, out) },
        SimdMode::Scalar => {
            let mut k = 0usize;
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    out[k] = i as u32;
                    k += 1;
                }
            }
            k
        }
        _ => compact_branchless(mask, out, 0, 0),
    };
    out.truncate(k);
}

/// Branchless compaction of `mask[start..]` writing from `out[k]`;
/// returns the updated `k`. `out` must have room for every candidate.
fn compact_branchless(mask: &[bool], out: &mut [u32], start: usize, mut k: usize) -> usize {
    for (i, &m) in mask.iter().enumerate().skip(start) {
        out[k] = i as u32;
        k += m as usize;
    }
    k
}

#[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
mod avx2 {
    use std::arch::x86_64::*;

    const K1: i64 = 0xFF51_AFD7_ED55_8CCDu64 as i64;
    const K2: i64 = 0xC4CE_B9FE_1A85_EC53u64 as i64;
    const M: i64 = 0x9E37_79B9_7F4A_7C15u64 as i64;

    /// Full 64×64→64 wrapping multiply from 32×32→64 products.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))
    }

    /// Four-lane `vectorh_common::util::hash_u64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hash4(h: __m256i) -> __m256i {
        let k1 = _mm256_set1_epi64x(K1);
        let k2 = _mm256_set1_epi64x(K2);
        let h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
        let h = mul64(h, k1);
        let h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
        let h = mul64(h, k2);
        _mm256_xor_si256(h, _mm256_srli_epi64(h, 33))
    }

    /// Four-lane `hash_combine(a, b)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine4(a: __m256i, b: __m256i) -> __m256i {
        let rot = _mm256_or_si256(_mm256_slli_epi64(b, 31), _mm256_srli_epi64(b, 33));
        hash4(_mm256_xor_si256(a, mul64(rot, _mm256_set1_epi64x(M))))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_words(acc: &mut [u64], n: usize, mut load: impl FnMut(usize) -> __m256i) {
        let chunks = n / 4;
        for c in 0..chunks {
            let w = load(c * 4);
            let p = acc.as_mut_ptr().add(c * 4) as *mut __m256i;
            let a = _mm256_loadu_si256(p);
            _mm256_storeu_si256(p, combine4(a, hash4(w)));
        }
    }

    /// # Safety: AVX2 available; `vals.len() == acc.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_i64(vals: &[i64], acc: &mut [u64]) {
        let n = vals.len();
        fold_words(acc, n, |i| {
            _mm256_loadu_si256(vals.as_ptr().add(i) as *const __m256i)
        });
        for (h, &x) in acc[n - n % 4..].iter_mut().zip(&vals[n - n % 4..]) {
            *h = super::hash_combine(*h, super::hash_u64(x as u64));
        }
    }

    /// # Safety: AVX2 available; `vals.len() == acc.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_i32(vals: &[i32], acc: &mut [u64]) {
        let n = vals.len();
        fold_words(acc, n, |i| {
            // Sign-extend so i32 keys hash identically to i64 keys.
            _mm256_cvtepi32_epi64(_mm_loadu_si128(vals.as_ptr().add(i) as *const __m128i))
        });
        for (h, &x) in acc[n - n % 4..].iter_mut().zip(&vals[n - n % 4..]) {
            *h = super::hash_combine(*h, super::hash_u64(x as i64 as u64));
        }
    }

    /// # Safety: AVX2 available; `vals.len() == acc.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_f64(vals: &[f64], acc: &mut [u64]) {
        let n = vals.len();
        fold_words(acc, n, |i| {
            // `+ 0.0` turns -0.0 into +0.0; the cast of the sum is `to_bits`.
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            _mm256_castpd_si256(_mm256_add_pd(v, _mm256_setzero_pd()))
        });
        for (h, &x) in acc[n - n % 4..].iter_mut().zip(&vals[n - n % 4..]) {
            *h = super::hash_combine(*h, super::hash_u64((x + 0.0).to_bits()));
        }
    }

    /// Movemask-and-peel compaction; returns the number of indices written.
    ///
    /// # Safety: AVX2 available; `out.len() >= mask.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compact(mask: &[bool], out: &mut [u32]) -> usize {
        let zero = _mm256_setzero_si256();
        let n = mask.len();
        let chunks = n / 32;
        let mut k = 0usize;
        for c in 0..chunks {
            // `bool` is guaranteed 0x00/0x01 in memory.
            let v = _mm256_loadu_si256(mask.as_ptr().add(c * 32) as *const __m256i);
            let mut m = _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, zero)) as u32;
            let base = (c * 32) as u32;
            while m != 0 {
                out[k] = base + m.trailing_zeros();
                k += 1;
                m &= m - 1;
            }
        }
        super::compact_branchless(mask, out, chunks * 32, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;
    use vectorh_common::simd::force_mode;

    fn scalar_fold_ref(words: &[u64], acc0: &[u64]) -> Vec<u64> {
        acc0.iter()
            .zip(words)
            .map(|(&a, &w)| hash_combine(a, hash_u64(w)))
            .collect()
    }

    #[test]
    fn folds_match_scalar_reference_on_all_arms() {
        let mut rng = SplitMix64::new(0xF01D);
        for n in [0usize, 1, 3, 4, 5, 7, 8, 100, 1023] {
            let i64s: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            let i32s: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
            let f64s: Vec<f64> = (0..n).map(|_| rng.next_u64() as f64 / 3.0).collect();
            let acc0: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let want_i64 =
                scalar_fold_ref(&i64s.iter().map(|&x| x as u64).collect::<Vec<_>>(), &acc0);
            let want_i32 = scalar_fold_ref(
                &i32s.iter().map(|&x| x as i64 as u64).collect::<Vec<_>>(),
                &acc0,
            );
            let want_f64 = scalar_fold_ref(
                &f64s.iter().map(|&x| x.to_bits()).collect::<Vec<_>>(),
                &acc0,
            );
            for mode in [
                vectorh_common::simd::SimdMode::Avx2,
                vectorh_common::simd::SimdMode::Swar,
                vectorh_common::simd::SimdMode::Scalar,
            ] {
                force_mode(Some(mode));
                let mut a = acc0.clone();
                fold_hash_i64(&i64s, &mut a);
                assert_eq!(a, want_i64, "i64 {mode:?} n={n}");
                let mut a = acc0.clone();
                fold_hash_i32(&i32s, &mut a);
                assert_eq!(a, want_i32, "i32 {mode:?} n={n}");
                let mut a = acc0.clone();
                fold_hash_f64(&f64s, &mut a);
                assert_eq!(a, want_f64, "f64 {mode:?} n={n}");
            }
            force_mode(None);
        }
    }

    #[test]
    fn the_two_zeros_hash_alike_on_all_arms() {
        // Nine values so the AVX2 arm covers both zeros in its four-lane
        // body and in its scalar tail.
        let neg = [-0.0, 1.5, -0.0, 2.0, -0.0, -0.0, 3.0, 4.0, -0.0];
        let pos: Vec<f64> = neg
            .iter()
            .map(|&x| if x == 0.0 { 0.0 } else { x })
            .collect();
        let acc0: Vec<u64> = (0..neg.len() as u64).collect();
        for mode in [
            vectorh_common::simd::SimdMode::Avx2,
            vectorh_common::simd::SimdMode::Swar,
            vectorh_common::simd::SimdMode::Scalar,
        ] {
            force_mode(Some(mode));
            let (mut a, mut b) = (acc0.clone(), acc0.clone());
            fold_hash_f64(&neg, &mut a);
            fold_hash_f64(&pos, &mut b);
            assert_eq!(a, b, "{mode:?}");
        }
        force_mode(None);
    }

    #[test]
    fn compact_matches_reference_on_all_arms() {
        let mut rng = SplitMix64::new(0xC0DE);
        for n in [0usize, 1, 31, 32, 33, 64, 100, 1000] {
            for density in [0.0, 0.01, 0.5, 0.99, 1.0] {
                let mask: Vec<bool> = (0..n).map(|_| rng.chance(density)).collect();
                let want: Vec<u32> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| i as u32)
                    .collect();
                for mode in [
                    vectorh_common::simd::SimdMode::Avx2,
                    vectorh_common::simd::SimdMode::Swar,
                    vectorh_common::simd::SimdMode::Scalar,
                ] {
                    force_mode(Some(mode));
                    let mut got = vec![9u32; 3];
                    compact_mask(&mask, &mut got);
                    assert_eq!(got, want, "{mode:?} n={n} density={density}");
                }
                force_mode(None);
            }
        }
    }
}

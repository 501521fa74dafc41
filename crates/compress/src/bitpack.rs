//! Fixed-bitwidth packing kernels.
//!
//! PFOR and PDICT represent values as thin codes of `width` bits packed
//! back-to-back. The unpack path is the hot loop of every scan, so it is
//! written to process values in groups of 32 with no per-value branches —
//! the scalar analogue of the AVX2 kernels the paper mentions (which
//! decompress "64 or 128 consecutive values in typically less than half a
//! CPU cycle per value").

/// Pack `values` (each `< 2^width`) into `out` at `width` bits per value.
///
/// `width == 0` encodes a run of zeros and emits no bytes.
/// Panics in debug builds if a value does not fit.
pub fn pack(values: &[u64], width: u8, out: &mut Vec<u8>) {
    assert!(width as usize <= 64);
    if width == 0 {
        return;
    }
    out.reserve(packed_size(values.len(), width));
    let width = width as u32;
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        debug_assert!(
            width == 64 || v < (1u64 << width),
            "value {v} exceeds width {width}"
        );
        acc |= (v as u128) << acc_bits;
        acc_bits += width;
        // Whole words out: the same little-endian bit stream as byte by
        // byte, at one store per 64 bits.
        if acc_bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            acc_bits -= 64;
        }
    }
    let tail = acc.to_le_bytes();
    out.extend_from_slice(&tail[..(acc_bits as usize).div_ceil(8)]);
}

/// Unpack `count` values of `width` bits from `bytes` into `out`.
///
/// Returns the number of bytes consumed.
///
/// `out` is pre-sized once from the count hint and the kernels write
/// through the resulting chunk — no per-value `Vec` growth checks in the
/// hot loop. The actual decode dispatches to the AVX2 / SWAR / scalar arms
/// in [`crate::simd`].
pub fn unpack(bytes: &[u8], count: usize, width: u8, out: &mut Vec<u64>) -> usize {
    assert!(width as usize <= 64);
    let start = out.len();
    out.resize(start + count, 0);
    crate::simd::unpack_into(bytes, width, &mut out[start..])
}

/// Bytes needed to pack `count` values at `width` bits.
pub fn packed_size(count: usize, width: u8) -> usize {
    (count * width as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u8) {
        let mut bytes = Vec::new();
        pack(values, width, &mut bytes);
        assert_eq!(bytes.len(), packed_size(values.len(), width));
        let mut out = Vec::new();
        let consumed = unpack(&bytes, values.len(), width, &mut out);
        assert_eq!(consumed, bytes.len());
        assert_eq!(out, values);
    }

    #[test]
    fn zero_width_is_free() {
        roundtrip(&[0, 0, 0, 0, 0], 0);
        assert_eq!(packed_size(1000, 0), 0);
    }

    #[test]
    fn narrow_widths() {
        roundtrip(&[1, 0, 1, 1, 0, 0, 1, 0, 1], 1);
        roundtrip(&[3, 1, 2, 0, 3, 3], 2);
        roundtrip(&[7, 0, 5], 3);
    }

    #[test]
    fn widths_crossing_byte_boundaries() {
        let vals: Vec<u64> = (0..100).map(|i| (i * 37) % (1 << 13)).collect();
        roundtrip(&vals, 13);
        let vals: Vec<u64> = (0..100).map(|i| (i * 97) % (1 << 23)).collect();
        roundtrip(&vals, 23);
    }

    #[test]
    fn full_width() {
        roundtrip(&[u64::MAX, 0, 42, u64::MAX - 1], 64);
    }

    #[test]
    fn group_boundary_counts() {
        // counts around the 32-value group boundary
        for n in [31usize, 32, 33, 63, 64, 65, 96] {
            let vals: Vec<u64> = (0..n as u64).collect();
            roundtrip(&vals, 7);
        }
    }

    #[test]
    fn prop_roundtrip_any_width() {
        let mut meta = vectorh_common::rng::SplitMix64::new(0xB17);
        // Sweep every width; draw random lengths/payloads per width.
        for width in 0u8..=64 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(300) as usize;
            let mut rng = vectorh_common::rng::SplitMix64::new(seed);
            let mask = if width == 0 {
                0
            } else if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let vals: Vec<u64> = (0..n).map(|_| rng.next_u64() & mask).collect();
            let mut bytes = Vec::new();
            pack(&vals, width, &mut bytes);
            let mut out = Vec::new();
            unpack(&bytes, vals.len(), width, &mut out);
            assert_eq!(out, vals, "width {width} seed {seed}");
        }
    }
}

//! Small numeric and hashing utilities shared across crates.

/// FxHash-style multiply-xor hash for 64-bit keys: the engine's hash joins
/// and hash aggregations need speed, not HashDoS resistance.
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    // xorshift-multiply mix (same family as FxHash / splitmix finalizer).
    let mut h = x;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Combine two hashes (for multi-column keys).
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash_u64(a ^ b.rotate_left(31).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Up to eight bytes as a zero-padded little-endian word, assembled byte by
/// byte: for the 1-7 bytes of a flag or a code a `memcpy` or `memcmp` call
/// costs more than the work on the word.
#[inline]
pub fn le_word(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= 8);
    bytes
        .iter()
        .rev()
        .fold(0, |word, &b| (word << 8) | b as u64)
}

/// Hash a byte slice (strings).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = hash_combine(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = hash_combine(h, le_word(tail));
    }
    hash_combine(h, bytes.len() as u64)
}

/// Geometric mean of strictly positive samples; the paper's update-impact
/// metric ("GeoDiff") is a ratio of geometric means over the 22 queries.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive samples");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Number of bits needed to represent `v` (0 needs 0 bits).
#[inline]
pub fn bits_needed(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Round `n` up to a multiple of `m`.
#[inline]
pub fn round_up(n: usize, m: usize) -> usize {
    n.div_ceil(m) * m
}

/// Format a byte count for human-readable reports.
pub fn fmt_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Format a duration in seconds with sensible precision for report tables.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_spread() {
        assert_eq!(hash_u64(1), hash_u64(1));
        assert_ne!(hash_u64(1), hash_u64(2));
        // Cheap avalanche check: flipping one input bit flips many output bits.
        let a = hash_u64(0x1234);
        let b = hash_u64(0x1235);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn hash_bytes_distinguishes_lengths() {
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
    }

    #[test]
    fn hash_bytes_is_the_fold_of_zero_padded_le_words_then_the_length() {
        // The definition exchange partitioning is built on (every node must
        // route a key alike), spelled out word by word.
        let reference = |bytes: &[u8]| {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = hash_combine(h, u64::from_le_bytes(word));
            }
            hash_combine(h, bytes.len() as u64)
        };
        let text: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=text.len() {
            assert_eq!(hash_bytes(&text[..len]), reference(&text[..len]), "{len}");
        }
        assert_eq!(hash_bytes(b"R"), 0x5a63_e6fa_b6d6_cb8c);
    }

    #[test]
    fn hash_combine_is_order_sensitive() {
        assert_ne!(hash_combine(1, 2), hash_combine(2, 1));
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 8), 0);
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 8), 16);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(123.4), "123");
    }
}

//! A byte-oriented LZ77 codec.
//!
//! Stands in for LZ4/Snappy. VectorH applies it only to string data that
//! dictionary compression cannot handle (the paper: "VectorH uses LZ4 in
//! this case"), while the ORC/Parquet baselines in [`crate::baseline`] run it
//! over *all* data — the "routine use of expensive general-purpose
//! compression" the paper criticises. Reproducing both behaviours needs a
//! real working codec, so this is one: greedy hash-table matching, token
//! format `[0..=127]` = literal run of `t+1` bytes, `[128..=255]` = match of
//! length `t-124` at a 16-bit back-offset.

const HASH_BITS: u32 = 14;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131; // (255-128) + MIN_MATCH
const MAX_LITERAL: usize = 128;
const MAX_OFFSET: usize = u16::MAX as usize;

#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The little-endian word of the `N` bytes at `at`.
#[inline]
fn word<const N: usize>(input: &[u8], at: usize) -> [u8; N] {
    input[at..at + N].try_into().expect("N bytes")
}

/// How far the match of `i` against the earlier `cand` runs, its first
/// `MIN_MATCH` bytes known equal, up to `limit` bytes: eight bytes a
/// compare while eight remain.
#[inline]
fn match_len(input: &[u8], cand: usize, i: usize, limit: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= limit {
        let diff =
            u64::from_le_bytes(word(input, cand + len)) ^ u64::from_le_bytes(word(input, i + len));
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    while len < limit && input[cand + len] == input[i + len] {
        len += 1;
    }
    len
}

/// Compress `input` (shorter than 4 GiB, as a block's `u32` lengths
/// require), appending to `out`. Returns compressed length.
pub fn compress(input: &[u8], out: &mut Vec<u8>) -> usize {
    assert!(input.len() < u32::MAX as usize, "LZ input of 4 GiB or more");
    let start_len = out.len();
    // Each hash's latest position + 1; 0 for none yet.
    let mut table = vec![0u32; 1 << HASH_BITS];
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
        let head = u32::from_le_bytes(word(input, i));
        let h = hash4(head);
        let seen = table[h] as usize;
        table[h] = i as u32 + 1;
        if let Some(cand) = seen
            .checked_sub(1)
            .filter(|&cand| i - cand <= MAX_OFFSET && u32::from_le_bytes(word(input, cand)) == head)
        {
            let len = match_len(input, cand, i, (input.len() - i).min(MAX_MATCH));
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

/// Decompress `input` (must be a full compressed stream), appending to `out`.
///
/// Returns `None` on malformed input.
pub fn decompress(input: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    let start_len = out.len();
    let mut i = 0usize;
    while i < input.len() {
        let t = input[i];
        i += 1;
        if t < 128 {
            let run = t as usize + 1;
            if i + run > input.len() {
                return None;
            }
            out.extend_from_slice(&input[i..i + run]);
            i += run;
        } else {
            let len = (t as usize - 128) + MIN_MATCH;
            if i + 2 > input.len() {
                return None;
            }
            let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            let produced = out.len() - start_len;
            if offset == 0 || offset > produced {
                return None;
            }
            // Byte-by-byte copy: offsets smaller than the length implement
            // run repetition, as in LZ4.
            let from = out.len() - offset;
            for k in 0..len {
                let b = out[from + k];
                out.push(b);
            }
        }
    }
    Some(out.len() - start_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn roundtrip(data: &[u8]) -> usize {
        let mut c = Vec::new();
        compress(data, &mut c);
        let mut d = Vec::new();
        assert_eq!(decompress(&c, &mut d), Some(data.len()));
        assert_eq!(d, data);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(roundtrip(b""), 0);
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd".repeat(32);
        let csize = roundtrip(&data);
        assert!(csize < data.len() / 4, "{csize} vs {}", data.len());
    }

    #[test]
    fn run_of_single_byte() {
        let data = vec![7u8; 10_000];
        // Match tokens cover at most MAX_MATCH bytes each (3 bytes per token).
        let csize = roundtrip(&data);
        assert!(csize < 10_000 * 3 / MAX_MATCH + 16, "csize = {csize}");
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        let mut rng = SplitMix64::new(5);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let csize = roundtrip(&data);
        // Worst case literal overhead: 1 control byte per 128 literals.
        assert!(csize <= data.len() + data.len() / 128 + 2);
    }

    #[test]
    fn text_like_data() {
        let text = "the quick brown fox jumps over the lazy dog; \
                    the quick brown fox jumps again and again and again. "
            .repeat(40);
        let csize = roundtrip(text.as_bytes());
        assert!(csize < text.len() / 2);
    }

    #[test]
    fn long_matches_split_correctly() {
        // Longer than MAX_MATCH forces multiple match tokens.
        let mut data = Vec::new();
        data.extend_from_slice(b"0123456789abcdef");
        for _ in 0..100 {
            data.extend_from_slice(b"0123456789abcdef");
        }
        roundtrip(&data);
    }

    #[test]
    fn rejects_malformed() {
        let mut out = Vec::new();
        // match token with no produced bytes
        assert_eq!(decompress(&[200, 1, 0], &mut out), None);
        // literal run past end
        assert_eq!(decompress(&[10, 1, 2], &mut out), None);
        // truncated offset
        assert_eq!(decompress(&[0, b'x', 130, 1], &mut out), None);
    }

    #[test]
    fn prop_roundtrip_structured() {
        let mut meta = SplitMix64::new(0x1_2277);
        for _ in 0..40 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(5000) as usize;
            let alphabet = 1 + meta.next_bounded(19);
            let mut rng = SplitMix64::new(seed);
            let data: Vec<u8> = (0..n)
                .map(|_| b'a' + rng.next_bounded(alphabet) as u8)
                .collect();
            let mut c = Vec::new();
            compress(&data, &mut c);
            let mut d = Vec::new();
            assert_eq!(decompress(&c, &mut d), Some(data.len()), "seed {seed}");
            assert_eq!(d, data, "seed {seed}");
        }
    }

    #[test]
    fn prop_roundtrip_random() {
        let mut meta = SplitMix64::new(0x1_24A2);
        for _ in 0..40 {
            let seed = meta.next_u64();
            let n = meta.next_bounded(3000) as usize;
            let mut rng = SplitMix64::new(seed);
            let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let mut c = Vec::new();
            compress(&data, &mut c);
            let mut d = Vec::new();
            assert_eq!(decompress(&c, &mut d), Some(data.len()), "seed {seed}");
            assert_eq!(d, data, "seed {seed}");
        }
    }
}

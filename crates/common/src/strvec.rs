//! A vector of strings as one byte buffer plus offsets.
//!
//! [`StrVec`] is the payload of [`ColumnData::Str`](crate::ColumnData): the
//! UTF-8 bytes of all values concatenated in one `Vec<u8>`, and `n + 1`
//! offsets into it, value `i` being `bytes[offsets[i]..offsets[i + 1]]`. A
//! range copy is two `memcpy`s, a gather is one pass over the indices, and
//! no operation allocates per value.
//!
//! The fields are private because [`StrVec::get`] trusts them: `bytes` is
//! valid UTF-8 and every offset lies on a character boundary of it, so each
//! value is valid UTF-8 on its own. Every constructor either copies `&str`s
//! (valid by type) or goes through [`StrVec::from_parts`], which checks.

use std::fmt;

use crate::util::le_word;
use crate::{Result, VhError};

/// Strings stored back to back; see the module comment.
#[derive(Clone, PartialEq, Eq)]
pub struct StrVec {
    bytes: Vec<u8>,
    /// `len() + 1` ascending offsets into `bytes`, the first 0 and the last
    /// `bytes.len()`, so equal contents have equal fields.
    offsets: Vec<usize>,
}

impl Default for StrVec {
    fn default() -> Self {
        StrVec::new()
    }
}

impl StrVec {
    pub fn new() -> StrVec {
        StrVec::with_capacity(0, 0)
    }

    /// Room for `values` strings of `bytes` bytes in total.
    pub fn with_capacity(values: usize, bytes: usize) -> StrVec {
        let mut offsets = Vec::with_capacity(values + 1);
        offsets.push(0);
        StrVec {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Adopt a byte buffer and its `n + 1` offsets, e.g. as a decoder built
    /// them from bytes off a disk or a socket. Rejects offsets that do not
    /// start at 0, descend or do not end at `bytes.len()`, bytes that are
    /// not UTF-8, and an offset inside a multi-byte character.
    pub fn from_parts(bytes: Vec<u8>, offsets: Vec<usize>) -> Result<StrVec> {
        let bad = |what: &str| Err(VhError::Codec(format!("string vector: {what}")));
        if offsets.first() != Some(&0) {
            return bad("offsets do not start at 0");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return bad("offsets descend");
        }
        if offsets.last() != Some(&bytes.len()) {
            return bad("last offset is not the byte length");
        }
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return bad("invalid utf8");
        };
        if !offsets.iter().all(|&o| text.is_char_boundary(o)) {
            return bad("offset splits a character");
        }
        Ok(StrVec { bytes, offsets })
    }

    /// Read `n` values laid out as `u32` little-endian length + bytes each —
    /// how chunk files and exchange buffers store strings — from the front
    /// of `buf`. Returns the vector and the bytes consumed. One pass, one
    /// UTF-8 validation over the whole payload.
    pub fn read_len_prefixed(buf: &[u8], n: usize) -> Result<(StrVec, usize)> {
        let truncated = || VhError::Codec("string vector: truncated".into());
        // Neither count comes from a trusted place: bound both by the input.
        let mut bytes = Vec::with_capacity(buf.len().saturating_sub(n.saturating_mul(4)));
        let mut offsets = Vec::with_capacity(n.min(buf.len() / 4) + 1);
        offsets.push(0);
        let mut pos = 0usize;
        for _ in 0..n {
            let head = buf.get(pos..pos + 4).ok_or_else(truncated)?;
            let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
            pos += 4;
            let end = pos.checked_add(len).ok_or_else(truncated)?;
            bytes.extend_from_slice(buf.get(pos..end).ok_or_else(truncated)?);
            offsets.push(bytes.len());
            pos = end;
        }
        Ok((StrVec::from_parts(bytes, offsets)?, pos))
    }

    /// Append every value as `u32` little-endian length + bytes (the inverse
    /// of [`read_len_prefixed`](Self::read_len_prefixed)).
    pub fn write_len_prefixed(&self, out: &mut Vec<u8>) {
        out.reserve(self.bytes.len() + 4 * self.len());
        for s in self.iter() {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total UTF-8 bytes held.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Value `i`; panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.piece(self.offsets[i], self.offsets[i + 1])
    }

    /// The bytes between two of `offsets`, as the string they are.
    #[inline]
    fn piece(&self, lo: usize, hi: usize) -> &str {
        // SAFETY: `bytes` is valid UTF-8 and `lo`, `hi` are two of `offsets`,
        // all character boundaries of it (the type's invariant: `push` and
        // `extend_range` copy whole `&str`s, `from_parts` checks), so the
        // bytes between them are valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[lo..hi]) }
    }

    /// Is value `i` equal to value `j` of `other`? Short values (flags,
    /// codes: the usual group and join keys) compare as one word.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &StrVec, j: usize) -> bool {
        let (a, b) = (self.get(i).as_bytes(), other.get(j).as_bytes());
        a.len() == b.len()
            && if a.len() > 8 {
                a == b
            } else {
                le_word(a) == le_word(b)
            }
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        self.offsets.windows(2).map(|w| self.piece(w[0], w[1]))
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len());
    }

    /// Append values `[from, to)` of `src`: one copy of their bytes, one
    /// pass re-basing their offsets.
    pub fn extend_range(&mut self, src: &StrVec, from: usize, to: usize) {
        let (lo, hi) = (src.offsets[from], src.offsets[to]);
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&src.bytes[lo..hi]);
        self.offsets
            .extend(src.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
    }

    /// The listed positions, in order, as a new vector sized exactly.
    pub fn gather(&self, idx: impl Iterator<Item = usize> + Clone) -> StrVec {
        let mut out = StrVec::with_capacity(idx.size_hint().0, 0);
        out.extend_gather(self, idx);
        out
    }

    /// Append the listed positions of `src`, in order (a dictionary decode,
    /// a selection, a join's output). Two passes, offsets then bytes, so both
    /// buffers are sized once.
    pub fn extend_gather(&mut self, src: &StrVec, idx: impl Iterator<Item = usize> + Clone) {
        let (values, start) = (self.offsets.len(), self.bytes.len());
        let mut end = start;
        self.offsets.extend(idx.clone().map(|i| {
            end += src.offsets[i + 1] - src.offsets[i];
            end
        }));
        let count = self.offsets.len() - values;
        /// Bytes moved at once for a short value.
        const WORD: usize = 16;
        if end - start > WORD * count {
            // Long values: a `memcpy` each.
            self.bytes.reserve(end - start);
            for i in idx {
                self.bytes
                    .extend_from_slice(&src.bytes[src.offsets[i]..src.offsets[i + 1]]);
            }
            return;
        }
        // Short values (flags, codes, names): a `memcpy` call costs more than
        // the copy, so a value of up to `WORD` bytes moves as `WORD` bytes,
        // those past its end overwritten by the next value. That needs a
        // word to read at every value, so a source no bigger than what is
        // gathered from it (a dictionary) is read through a padded copy, and
        // a word of room past the last value written, cut off again below.
        let padded: Vec<u8>;
        let from = if src.bytes.len() <= WORD * count {
            padded = [&src.bytes[..], &[0; WORD]].concat();
            &padded
        } else {
            &src.bytes
        };
        self.bytes.resize(end + WORD, 0);
        let mut at = start;
        for i in idx {
            let (lo, hi) = (src.offsets[i], src.offsets[i + 1]);
            match from.get(lo..lo + WORD) {
                Some(word) if hi - lo <= WORD => {
                    self.bytes[at..at + WORD].copy_from_slice(word);
                }
                _ => self.bytes[at..at + hi - lo].copy_from_slice(&from[lo..hi]),
            }
            at += hi - lo;
        }
        self.bytes.truncate(end);
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.offsets.truncate(len + 1);
            self.bytes.truncate(self.offsets[len]);
        }
    }
}

impl fmt::Debug for StrVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> StrVec {
        let iter = iter.into_iter();
        let mut out = StrVec::with_capacity(iter.size_hint().0, 0);
        for s in iter {
            out.push(s.as_ref());
        }
        out
    }
}

impl<S: AsRef<str>> From<Vec<S>> for StrVec {
    fn from(values: Vec<S>) -> StrVec {
        values.into_iter().collect()
    }
}

impl<S: AsRef<str>, const N: usize> From<[S; N]> for StrVec {
    fn from(values: [S; N]) -> StrVec {
        values.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_iterate() {
        let mut v = StrVec::new();
        assert!(v.is_empty());
        for s in ["a", "", "héllo", "日本"] {
            v.push(s);
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(1), "");
        assert_eq!(v.get(2), "héllo");
        assert_eq!(v.iter().collect::<Vec<_>>(), ["a", "", "héllo", "日本"]);
        assert_eq!(v.byte_len(), 1 + 6 + 6);
        assert_eq!(v, StrVec::from(["a", "", "héllo", "日本"]));
        assert_eq!(format!("{v:?}"), r#"["a", "", "héllo", "日本"]"#);
    }

    #[test]
    fn gather_copies_short_and_long_values_alike() {
        let short = StrVec::from(["a", "", "bc", "é", "0123456789abcdef", "x"]);
        let long = StrVec::from([
            "a value well past sixteen bytes",
            "",
            "another one, longer than a word",
            "z",
        ]);
        let mixed: StrVec = short.iter().chain(long.iter()).collect();
        for src in [&short, &long, &mixed] {
            let n = src.len();
            let patterns: [Vec<usize>; 6] = [
                (0..n).collect(),
                (0..n).rev().collect(),
                vec![],
                vec![n - 1], // the source's last word, unpadded
                vec![0],     // one value of a bigger source
                (0..40 * n).map(|i| i * 7 % n).collect(), // far more than the source holds
            ];
            for idx in patterns {
                let want: Vec<&str> = idx.iter().map(|&i| src.get(i)).collect();
                let got = src.gather(idx.iter().copied());
                assert_eq!(got.iter().collect::<Vec<_>>(), want, "{idx:?} of {src:?}");
                let mut onto = StrVec::from(["kept"]);
                onto.extend_gather(src, idx.iter().copied());
                assert_eq!(onto.get(0), "kept");
                assert!(onto.iter().skip(1).eq(want.iter().copied()));
                assert_eq!(onto.byte_len(), 4 + got.byte_len());
            }
        }
    }

    #[test]
    fn from_parts_accepts_what_push_builds_and_rejects_the_rest() {
        let ok = StrVec::from_parts("aé日".into(), vec![0, 1, 3, 6]).unwrap();
        assert_eq!(ok, StrVec::from(["a", "é", "日"]));
        assert_eq!(StrVec::from_parts(vec![], vec![0]).unwrap(), StrVec::new());
        let bytes = || "aé日".as_bytes().to_vec();
        for (what, bytes, offsets) in [
            ("no offsets", bytes(), vec![]),
            ("first offset not 0", bytes(), vec![1, 6]),
            ("descending", bytes(), vec![0, 3, 1, 6]),
            ("last offset short", bytes(), vec![0, 1, 3]),
            ("last offset past the end", bytes(), vec![0, 1, 7]),
            ("wrapped offset", bytes(), vec![0, usize::MAX, 6]),
            ("inside é", bytes(), vec![0, 2, 6]),
            ("inside 日", bytes(), vec![0, 1, 3, 5, 6]),
            ("invalid utf8", vec![b'a', 0xFF, b'b'], vec![0, 1, 3]),
            ("truncated character", vec![0xE6, 0x97], vec![0, 2]),
        ] {
            let got = StrVec::from_parts(bytes, offsets);
            // Only the error is printed: a vector that should not exist may
            // not be readable.
            let err = got.err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn len_prefixed_roundtrip_and_corruptions() {
        let v = StrVec::from(["x", "", "héllo"]);
        let mut buf = vec![];
        v.write_len_prefixed(&mut buf);
        assert_eq!(buf.len(), 3 * 4 + 1 + 6);
        buf.extend_from_slice(b"tail");
        let (back, used) = StrVec::read_len_prefixed(&buf, 3).unwrap();
        assert_eq!((back, used), (v, buf.len() - 4));
        assert_eq!(
            StrVec::read_len_prefixed(&[], 0).unwrap(),
            (StrVec::new(), 0)
        );
        // One value too many, a length past the end, a huge count.
        assert!(StrVec::read_len_prefixed(&buf[..used], 4).is_err());
        assert!(StrVec::read_len_prefixed(&[9, 0, 0, 0, b'a'], 1).is_err());
        assert!(StrVec::read_len_prefixed(&[0xFF; 4], usize::MAX / 2).is_err());
        // "é" cut in two by the lengths, and a byte that is no UTF-8.
        let split = [1, 0, 0, 0, 0xC3, 1, 0, 0, 0, 0xA9];
        assert!(StrVec::read_len_prefixed(&split, 2).is_err());
        assert!(StrVec::read_len_prefixed(&[1, 0, 0, 0, 0xFF], 1).is_err());
    }
}

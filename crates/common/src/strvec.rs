//! A vector of strings, flat or as dictionary codes.
//!
//! [`StrVec`] is the payload of [`ColumnData::Str`](crate::ColumnData). It
//! holds its values in one of two layouts, and every public method means the
//! same on both:
//!
//! * **Flat**: the UTF-8 bytes of all values concatenated in one `Vec<u8>`,
//!   and `n + 1` offsets into it, value `i` being
//!   `bytes[offsets[i]..offsets[i + 1]]`. A range copy is two `memcpy`s, a
//!   gather is one pass over the indices, and no operation allocates per
//!   value.
//! * **Coded**: a dictionary shared behind an `Arc` (itself a flat
//!   `StrVec`) and one `u32` code per value, value `i` being entry
//!   `codes[i]`. PDICT decode builds it ([`StrVec::coded`]); a range copy or
//!   a gather moves codes and shares the dictionary. Consumers that can work
//!   once per dictionary entry instead of once per row read the codes
//!   through [`StrVec::dict_codes`]. **Equal codes mean equal strings, never
//!   the converse**: a dictionary may hold one string twice (two exceptions
//!   of a PDICT block), so a code may save work but never tells two values
//!   apart.
//!
//! A coded vector turns flat where two dictionaries meet (a range copy or a
//! gather from a vector coded against another dictionary, or from a flat
//! one) and where a value is pushed onto it. Flattening is an
//! `extend_gather` from the dictionary, what a flat PDICT decode costs.
//!
//! The fields are private because [`StrVec::get`] trusts them: flat `bytes`
//! are valid UTF-8, every offset lies on a character boundary of them, and
//! every code is below its dictionary's length. Every constructor either
//! copies `&str`s (valid by type) or goes through [`StrVec::from_parts`] or
//! [`StrVec::coded`], which check.

use std::fmt;
use std::sync::Arc;

use crate::util::le_word;
use crate::{Result, VhError};

/// Strings in one of two layouts; see the module comment.
#[derive(Clone)]
pub struct StrVec {
    layout: Layout,
}

#[derive(Clone)]
enum Layout {
    Flat(Flat),
    Coded {
        /// Always flat: [`StrVec::coded`] flattens a coded dictionary.
        dict: Arc<StrVec>,
        /// Each below `dict.len()`.
        codes: Vec<u32>,
    },
}

/// The flat layout.
#[derive(Clone, PartialEq)]
struct Flat {
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

    /// Room for `values` strings of `bytes` bytes in total (flat).
    pub fn with_capacity(values: usize, bytes: usize) -> StrVec {
        StrVec {
            layout: Layout::Flat(Flat::with_capacity(values, bytes)),
        }
    }

    /// An empty vector coded against `dict`, with room for `values` codes.
    fn coded_empty(dict: &Arc<StrVec>, values: usize) -> StrVec {
        StrVec {
            layout: Layout::Coded {
                dict: dict.clone(),
                codes: Vec::with_capacity(values),
            },
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
        Ok(StrVec {
            layout: Layout::Flat(Flat { bytes, offsets }),
        })
    }

    /// A coded vector: value `i` is entry `codes[i]` of `dict`. Rejects a
    /// code that is not below `dict.len()`: the one check codes need, made
    /// once where they are built (a decoder's block). A coded `dict` is
    /// flattened first, so a dictionary is always flat.
    pub fn coded(mut dict: StrVec, codes: Vec<u32>) -> Result<StrVec> {
        let entries = dict.flat_mut().len();
        if let Some(&c) = codes.iter().find(|&&c| c as usize >= entries) {
            return Err(VhError::Codec(format!(
                "string vector: code {c} past a dictionary of {entries}"
            )));
        }
        Ok(StrVec {
            layout: Layout::Coded {
                dict: Arc::new(dict),
                codes,
            },
        })
    }

    /// The dictionary and the codes of a coded vector whose dictionary is
    /// no larger than the vector, so that work done once per entry costs no
    /// more than once per row. `None` for a flat vector, and for a coded one
    /// whose dictionary outnumbers its values (a few rows gathered out of a
    /// chunk): read those row by row. Equal codes mean equal strings; two
    /// codes may still name one string.
    pub fn dict_codes(&self) -> Option<(&StrVec, &[u32])> {
        match &self.layout {
            Layout::Coded { dict, codes, .. } if dict.len() <= codes.len() => Some((dict, codes)),
            _ => None,
        }
    }

    /// The codes of `self` and of `other` when both are coded against one
    /// dictionary (the same `Arc`), whatever their sizes. Equal codes mean
    /// equal strings; unequal codes may still name one string.
    pub fn shared_codes<'a>(&'a self, other: &'a StrVec) -> Option<(&'a [u32], &'a [u32])> {
        match (&self.layout, &other.layout) {
            (Layout::Coded { dict: a, codes: x }, Layout::Coded { dict: b, codes: y })
                if Arc::ptr_eq(a, b) =>
            {
                Some((x, y))
            }
            _ => None,
        }
    }

    /// Is the vector held as dictionary codes?
    pub fn is_coded(&self) -> bool {
        matches!(self.layout, Layout::Coded { .. })
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
    /// of [`read_len_prefixed`](Self::read_len_prefixed)); the same bytes
    /// from either layout.
    pub fn write_len_prefixed(&self, out: &mut Vec<u8>) {
        out.reserve(self.byte_len() + 4 * self.len());
        for s in self.iter() {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }

    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Flat(f) => f.len(),
            Layout::Coded { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total UTF-8 bytes of the values, what the flat layout holds, whichever
    /// layout the vector is in: read off a flat vector, summed over the codes
    /// of a coded one (a pass paid by whoever asks, not by every copy and
    /// gather of codes).
    pub fn byte_len(&self) -> usize {
        match &self.layout {
            Layout::Flat(f) => f.bytes.len(),
            Layout::Coded { dict, codes } => {
                let offsets = &entries(dict).offsets;
                codes
                    .iter()
                    .map(|&c| offsets[c as usize + 1] - offsets[c as usize])
                    .sum()
            }
        }
    }

    /// Value `i`; panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        match &self.layout {
            Layout::Flat(f) => f.get(i),
            Layout::Coded { dict, codes, .. } => entries(dict).get(codes[i] as usize),
        }
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
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Append `s`; a coded vector turns flat first.
    pub fn push(&mut self, s: &str) {
        self.flat_mut().push(s);
    }

    /// Append values `[from, to)` of `src`: flat from flat, one copy of their
    /// bytes and one pass re-basing their offsets; codes from codes of one
    /// dictionary (onto an empty vector, or one coded against the same).
    pub fn extend_range(&mut self, src: &StrVec, from: usize, to: usize) {
        match &src.layout {
            Layout::Flat(s) => self.flat_mut().extend_range(s, from, to),
            Layout::Coded { dict, codes, .. } => {
                self.extend_codes(dict, codes[from..to].iter().copied())
            }
        }
    }

    /// The listed positions, in order, as a new vector sized exactly, in
    /// `self`'s layout.
    pub fn gather(&self, idx: impl Iterator<Item = usize> + Clone) -> StrVec {
        let mut out = match &self.layout {
            Layout::Flat(_) => StrVec::with_capacity(idx.size_hint().0, 0),
            Layout::Coded { dict, .. } => StrVec::coded_empty(dict, idx.size_hint().0),
        };
        out.extend_gather(self, idx);
        out
    }

    /// Append the listed positions of `src`, in order (a selection, a join's
    /// output): codes where [`extend_range`](Self::extend_range) would keep
    /// them, bytes otherwise.
    pub fn extend_gather(&mut self, src: &StrVec, idx: impl Iterator<Item = usize> + Clone) {
        match &src.layout {
            Layout::Flat(s) => self.flat_mut().extend_gather(s, idx),
            Layout::Coded { dict, codes, .. } => self.extend_codes(dict, idx.map(|i| codes[i])),
        }
    }

    pub fn truncate(&mut self, len: usize) {
        match &mut self.layout {
            Layout::Flat(f) => f.truncate(len),
            Layout::Coded { codes, .. } => codes.truncate(len),
        }
    }

    /// Append the entries of `dict` that `more` names: as codes when the
    /// vector is empty or coded against `dict` already, flat otherwise (two
    /// dictionaries meet).
    fn extend_codes(&mut self, dict: &Arc<StrVec>, more: impl Iterator<Item = u32> + Clone) {
        let shares = matches!(&self.layout, Layout::Coded { dict: d, .. } if Arc::ptr_eq(d, dict));
        if !shares && self.is_empty() {
            *self = StrVec::coded_empty(dict, more.size_hint().0);
        }
        match &mut self.layout {
            Layout::Coded { dict: d, codes } if Arc::ptr_eq(d, dict) => codes.extend(more),
            _ => self
                .flat_mut()
                .extend_gather(entries(dict), more.map(|c| c as usize)),
        }
    }

    /// The flat layout, built from the dictionary first if the vector is
    /// coded.
    fn flat_mut(&mut self) -> &mut Flat {
        if let Layout::Coded { dict, codes } = &self.layout {
            let mut flat = Flat::with_capacity(codes.len(), 0);
            flat.extend_gather(entries(dict), codes.iter().map(|&c| c as usize));
            self.layout = Layout::Flat(flat);
        }
        match &mut self.layout {
            Layout::Flat(f) => f,
            Layout::Coded { .. } => unreachable!("flattened above"),
        }
    }
}

/// The entries of a dictionary, which is always flat.
#[inline]
fn entries(dict: &StrVec) -> &Flat {
    match &dict.layout {
        Layout::Flat(f) => f,
        Layout::Coded { .. } => unreachable!("a dictionary is flat"),
    }
}

impl Flat {
    fn with_capacity(values: usize, bytes: usize) -> Flat {
        let mut offsets = Vec::with_capacity(values + 1);
        offsets.push(0);
        Flat {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn get(&self, i: usize) -> &str {
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

    fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len());
    }

    /// Append values `[from, to)` of `src`: one copy of their bytes, one
    /// pass re-basing their offsets.
    fn extend_range(&mut self, src: &Flat, from: usize, to: usize) {
        let (lo, hi) = (src.offsets[from], src.offsets[to]);
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&src.bytes[lo..hi]);
        self.offsets
            .extend(src.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
    }

    /// Append the listed positions of `src`, in order (codes flattened from
    /// a dictionary, a selection, a join's output). Two passes, offsets then
    /// bytes, so both buffers are sized once.
    fn extend_gather(&mut self, src: &Flat, idx: impl Iterator<Item = usize> + Clone) {
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

    fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.offsets.truncate(len + 1);
            self.bytes.truncate(self.offsets[len]);
        }
    }
}

/// Equal values in equal order, whatever the layouts.
impl PartialEq for StrVec {
    fn eq(&self, other: &StrVec) -> bool {
        match (&self.layout, &other.layout) {
            (Layout::Flat(a), Layout::Flat(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for StrVec {}

impl fmt::Debug for StrVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> StrVec {
        let iter = iter.into_iter();
        let mut out = Flat::with_capacity(iter.size_hint().0, 0);
        for s in iter {
            out.push(s.as_ref());
        }
        StrVec {
            layout: Layout::Flat(out),
        }
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

    #[test]
    fn codes_keep_their_dictionary_until_two_dictionaries_meet() {
        // "x" twice in the dictionary: codes 0 and 2 name one string.
        let dict = StrVec::from(["x", "héllo", "x"]);
        let v = StrVec::coded(dict.clone(), vec![0, 2, 1, 2, 0]).unwrap();
        let flat = StrVec::from(["x", "x", "héllo", "x", "x"]);
        assert!(v.is_coded());
        assert_eq!(v, flat);
        assert_eq!(flat, v);
        assert_eq!(format!("{v:?}"), format!("{flat:?}"));
        assert_eq!(v.byte_len(), flat.byte_len());
        assert!(v.eq_at(0, &v, 1), "two codes, one string");
        let (mut on_wire, mut flat_wire) = (vec![], vec![]);
        v.write_len_prefixed(&mut on_wire);
        flat.write_len_prefixed(&mut flat_wire);
        assert_eq!(on_wire, flat_wire);

        // A range copy onto an empty vector, a gather, and a range copy of
        // the same dictionary keep the codes.
        let mut onto = StrVec::new();
        onto.extend_range(&v, 1, 4);
        let gathered = v.gather([4, 2].into_iter());
        onto.extend_gather(&gathered, [1, 0].into_iter());
        assert!(onto.is_coded() && gathered.is_coded());
        assert_eq!(onto, StrVec::from(["x", "héllo", "x", "héllo", "x"]));
        onto.truncate(2);
        assert_eq!((onto.len(), onto.byte_len()), (2, 7));
        // Another dictionary, equal contents: bytes from here on.
        let other = StrVec::coded(dict, vec![1]).unwrap();
        onto.extend_range(&other, 0, 1);
        assert!(!onto.is_coded());
        assert_eq!(onto, StrVec::from(["x", "héllo", "héllo"]));
        // A push turns a coded vector flat.
        let mut pushed = v.clone();
        pushed.push("new");
        assert!(!pushed.is_coded());
        assert_eq!(pushed.get(5), "new");
        assert_eq!(pushed.byte_len(), flat.byte_len() + 3);
    }

    #[test]
    fn a_code_past_the_dictionary_is_a_codec_error() {
        let dict = || StrVec::from(["a", "b"]);
        assert!(StrVec::coded(dict(), vec![0, 1, 1]).is_ok());
        for codes in [vec![2], vec![0, u32::MAX], vec![1, 0, 7]] {
            let err = StrVec::coded(dict(), codes.clone()).err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{codes:?}: {err:?}");
        }
        assert!(StrVec::coded(StrVec::new(), vec![0]).is_err());
        assert_eq!(StrVec::coded(StrVec::new(), vec![]).unwrap(), StrVec::new());
    }

    #[test]
    fn codes_are_offered_per_entry_only_when_the_dictionary_is_no_larger_than_the_vector() {
        let dict = StrVec::from(["a", "b", "c"]);
        let three = StrVec::coded(dict.clone(), vec![2, 0, 2]).unwrap();
        let (d, codes) = three.dict_codes().expect("3 entries for 3 rows");
        assert_eq!((d.len(), codes), (3, &[2, 0, 2][..]));
        let two = three.gather([0, 1].into_iter());
        assert!(two.is_coded() && two.dict_codes().is_none());
        assert!(StrVec::from(["a"]).dict_codes().is_none());
        // A coded dictionary is flattened, so an entry is always bytes.
        let nested = StrVec::coded(three, vec![1, 0]).unwrap();
        assert_eq!(nested, StrVec::from(["a", "c"]));
    }
}

//! Bytes that come back off a disk or a socket: one bounded [`Reader`], the
//! one tagged [`Value`] encoding, and the [`crc32`] that WAL and transport
//! frames carry.
//!
//! Every format the engine reads back — WAL frames, chunk headers,
//! compressed blocks, exchange messages, wire payloads, transport frames —
//! goes through [`Reader`]. Nothing it reads is trusted: a read past the end
//! is the format's own typed error, and a count taken from the bytes is
//! checked against the bytes left ([`Reader::count`]) before anything is
//! allocated for it. Errors are built on the failure path only.

use crate::{Result, StrVec, Value, VhError};

/// How one format reports bytes it cannot read: its error variant, and the
/// text of running out of bytes.
pub struct Format {
    pub error: fn(String) -> VhError,
    pub truncated: &'static str,
}

/// A cursor over untrusted bytes, little-endian throughout.
///
/// What the hot decoders call per value is `#[inline(always)]`: one such
/// method left out of line takes the reader's address, and the decoder's
/// loop then keeps the reader in memory instead of registers.
pub struct Reader<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    /// Of all the bytes, read or not.
    len: usize,
    format: &'static Format,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8], format: &'static Format) -> Reader<'a> {
        Reader {
            rest: buf,
            len: buf.len(),
            format,
        }
    }

    /// An error of this reader's format.
    #[inline(always)]
    pub fn error(&self, msg: impl Into<String>) -> VhError {
        (self.format.error)(msg.into())
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Everything not read yet.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    #[inline(always)]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(truncated(self.format));
        }
        let (s, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(s)
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.rest.split_first_chunk::<N>() {
            Some((&a, rest)) => {
                self.rest = rest;
                Ok(a)
            }
            None => Err(truncated(self.format)),
        }
    }

    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    #[inline(always)]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline(always)]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// `n`, if the bytes left can hold `n` items of at least
    /// `min_elem_bytes` each: check a count read from the bytes with this
    /// before allocating for it.
    #[inline]
    pub fn count(&self, n: usize, min_elem_bytes: usize) -> Result<usize> {
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(truncated(self.format)),
        }
    }

    /// `n` fixed-width items of `N` bytes each, taken as one slice before
    /// anything is allocated for them (map with `i64::from_le_bytes` etc.).
    #[inline]
    pub fn arrays<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a> {
        let bytes = self.take(self.count(n, N)? * N)?;
        Ok(bytes.as_chunks::<N>().0.iter().copied())
    }

    /// A `u32` length, then that many bytes.
    #[inline(always)]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// [`bytes`](Self::bytes) that must be UTF-8.
    #[inline(always)]
    pub fn str(&mut self) -> Result<&'a str> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map_err(|_| self.error("string is not UTF-8"))
    }

    /// `n` strings as [`StrVec::write_len_prefixed`] wrote them, validated
    /// as a whole.
    pub fn strs(&mut self, n: usize) -> Result<StrVec> {
        let (v, used) =
            StrVec::read_len_prefixed(self.rest, n).map_err(|e| self.error(e.message()))?;
        self.rest = &self.rest[used..];
        Ok(v)
    }

    /// One value as [`put_value`] wrote it.
    #[inline(always)]
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            tag::I32 => Value::I32(i32::from_le_bytes(self.array()?)),
            tag::I64 => Value::I64(self.i64()?),
            tag::DECIMAL => Value::Decimal(self.i64()?, self.u8()?),
            tag::DATE => Value::Date(i32::from_le_bytes(self.array()?)),
            tag::F64 => Value::F64(f64::from_le_bytes(self.array()?)),
            tag::STR => Value::Str(self.str()?.to_string()),
            tag::NULL => Value::Null,
            t => return Err(self.error(format!("bad value tag {t}"))),
        })
    }
}

/// The error of a read that ran out of bytes. Neither `#[cold]` nor
/// `#[inline(never)]`: each made the wire's `decode_rows` loop over
/// [`Reader::value`] measurably slower.
fn truncated(format: &'static Format) -> VhError {
    (format.error)(format.truncated.to_string())
}

/// The tag byte of each [`Value`] arm, in every format that carries values
/// (WAL records, wire rows).
mod tag {
    pub const I32: u8 = 0;
    pub const I64: u8 = 1;
    pub const DECIMAL: u8 = 2;
    pub const DATE: u8 = 3;
    pub const F64: u8 = 4;
    pub const STR: u8 = 5;
    pub const NULL: u8 = 6;
}

/// A `u32` length, then the bytes (what [`Reader::bytes`] reads).
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// One value: its tag, then its payload, fixed-width arms little-endian and
/// strings as [`put_bytes`].
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I32(x) => {
            out.push(tag::I32);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(tag::I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Decimal(x, scale) => {
            out.push(tag::DECIMAL);
            out.extend_from_slice(&x.to_le_bytes());
            out.push(*scale);
        }
        Value::Date(x) => {
            out.push(tag::DATE);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(tag::F64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(tag::STR);
            put_bytes(out, s.as_bytes());
        }
        Value::Null => out.push(tag::NULL),
    }
}

static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the zlib/ethernet polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        error: VhError::Codec,
        truncated: "truncated test bytes",
    };

    #[test]
    fn crc32_known_vectors() {
        // Classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn values_roundtrip_and_bad_tags_are_the_formats_error() {
        let values = [
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::Decimal(12345, 2),
            Value::Date(9000),
            Value::F64(2.5),
            Value::Str("héllo".into()),
            Value::Str(String::new()),
            Value::Null,
        ];
        let mut out = Vec::new();
        for v in &values {
            put_value(&mut out, v);
        }
        let mut r = Reader::new(&out, &TEST);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        for bad in [&[7][..], &[tag::STR, 1, 0, 0, 0, 0xFF], &[tag::I64, 1]] {
            let err = Reader::new(bad, &TEST).value().err();
            assert!(matches!(err, Some(VhError::Codec(_))), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn counts_past_the_bytes_are_refused_before_allocation() {
        let r = Reader::new(&[0; 16], &TEST);
        assert_eq!(r.count(4, 4).unwrap(), 4);
        assert!(r.count(5, 4).is_err());
        assert!(r.count(usize::MAX, 2).is_err());
        assert_eq!(r.count(usize::MAX, 0).unwrap(), usize::MAX);
        let mut r = Reader::new(&[1, 0, 2, 0, 3], &TEST);
        let got: Vec<u16> = r.arrays(2).unwrap().map(u16::from_le_bytes).collect();
        assert_eq!(got, [1, 2]);
        assert!(r.arrays::<2>(1).is_err());
        assert_eq!(r.rest(), [3]);
        let err = Reader::new(&[], &TEST).u32().unwrap_err();
        assert_eq!(err, VhError::Codec("truncated test bytes".into()));
    }
}

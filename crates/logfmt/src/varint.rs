//! LEB128 variable-length integers.
//!
//! All integer fields on the wire are unsigned LEB128: 7 payload bits
//! per byte, continuation in the high bit, at most 10 bytes for a `u64`.

use core::fmt;

/// Maximum encoded size of a `u64` varint.
pub const MAX_LEN: usize = 10;

/// Error decoding a varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended before the terminating byte.
    Truncated,
    /// More than 10 bytes, or bits beyond the 64th set.
    Overflow,
}

impl fmt::Display for VarintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "varint truncated"),
            VarintError::Overflow => write!(f, "varint overflows u64"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Writes the LEB128 encoding of `v` into the tail of `buf`, ending
/// exactly at its end, and returns the index the encoding starts at —
/// for a length prefix laid down in front of data already in place.
///
/// # Panics
/// If `buf` is shorter than the encoding (at most [`MAX_LEN`] bytes).
pub(crate) fn encode_u64_at_end(buf: &mut [u8], v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    let len = bits.div_ceil(7);
    let start = buf.len() - len;
    for (i, byte) in buf[start..].iter_mut().enumerate() {
        let more = if i + 1 < len { 0x80 } else { 0 };
        *byte = (v >> (7 * i)) as u8 & 0x7F | more;
    }
    start
}

/// Appends the LEB128 encoding of `v` to `buf`.
pub fn encode_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 `u64` from the front of `buf`, advancing it.
pub fn decode_u64(buf: &mut &[u8]) -> Result<u64, VarintError> {
    let mut value: u64 = 0;
    for shift in (0..MAX_LEN as u32).map(|i| i * 7) {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(VarintError::Truncated);
        };
        *buf = rest;
        let payload = (byte & 0x7F) as u64;
        if shift == 63 && payload > 1 {
            return Err(VarintError::Overflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(VarintError::Overflow)
}

/// Decodes the LEB128 `u64` at the front of `buf` a word at a time,
/// returning it with the bytes it occupies: the same value, over the
/// same bytes, as [`decode_u64`]. `None` where that fails and also
/// where fewer than eight bytes (or than a nine- or ten-byte form
/// needs) are buffered — the caller falls back to `decode_u64` for the
/// verdict. Bytes behind the varint never reach the value.
#[inline]
pub(crate) fn decode_u64_word(buf: &[u8]) -> Option<(u64, usize)> {
    const CONTINUES: u64 = 0x8080_8080_8080_8080;
    let word = u64::from_le_bytes(buf.get(..8)?.try_into().ok()?);
    // A day or week always fits one byte, and a count often does.
    if word & 0x80 == 0 {
        return Some((word & 0x7F, 1));
    }
    // The lowest byte without a continuation bit ends the varint.
    let stops = !word & CONTINUES;
    let len = if stops == 0 { 8 } else { (stops.trailing_zeros() as usize + 1) / 8 };
    let groups = word & (u64::MAX >> (64 - 8 * len)) & !CONTINUES;
    // Seven-bit groups closed up pairwise: 8 × 7 → 4 × 14 → 2 × 28 → 56 bits.
    let x = (groups & 0x007F_007F_007F_007F) | (groups & 0x7F00_7F00_7F00_7F00) >> 1;
    let x = (x & 0x0000_3FFF_0000_3FFF) | (x & 0x3FFF_0000_3FFF_0000) >> 2;
    let low = (x & 0x0000_0000_0FFF_FFFF) | (x & 0x0FFF_FFFF_0000_0000) >> 4;
    if stops != 0 {
        return Some((low, len));
    }
    let ninth = *buf.get(8)?;
    if ninth & 0x80 == 0 {
        return Some((low | u64::from(ninth) << 56, 9));
    }
    // The tenth byte holds bit 63 and nothing else: more payload is an
    // overflow, a continuation bit an eleventh byte.
    match *buf.get(9)? {
        tenth @ 0..=1 => Some((low | u64::from(ninth & 0x7F) << 56 | u64::from(tenth) << 63, 10)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> usize {
        let mut buf = Vec::new();
        encode_u64(&mut buf, v);
        let len = buf.len();
        let mut slice = &buf[..];
        assert_eq!(decode_u64(&mut slice).unwrap(), v);
        assert!(slice.is_empty(), "decoder must consume exactly the varint");
        len
    }

    #[test]
    fn roundtrip_boundaries() {
        assert_eq!(roundtrip(0), 1);
        assert_eq!(roundtrip(127), 1);
        assert_eq!(roundtrip(128), 2);
        assert_eq!(roundtrip(16_383), 2);
        assert_eq!(roundtrip(16_384), 3);
        assert_eq!(roundtrip(u32::MAX as u64), 5);
        assert_eq!(roundtrip(u64::MAX), 10);
    }

    #[test]
    fn encoding_at_end_matches_appending() {
        for v in [0, 1, 127, 128, 300, 16_383, 16_384, 65_536, u32::MAX as u64, u64::MAX] {
            let mut appended = Vec::new();
            encode_u64(&mut appended, v);
            let mut buf = [0xEEu8; MAX_LEN + 2];
            let start = encode_u64_at_end(&mut buf, v);
            assert_eq!(&buf[start..], &appended[..], "{v}");
            assert!(buf[..start].iter().all(|&b| b == 0xEE), "{v}: wrote before its start");
        }
    }

    #[test]
    fn truncated_input() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert_eq!(decode_u64(&mut slice), Err(VarintError::Truncated));
        }
    }

    #[test]
    fn overflow_detected() {
        // 10 continuation bytes then more.
        let buf = [0xFFu8; 11];
        let mut slice = &buf[..];
        assert_eq!(decode_u64(&mut slice), Err(VarintError::Overflow));
        // Exactly 10 bytes but top bits beyond 64 set (last byte 0x7F).
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x7F);
        let mut slice = &buf[..];
        assert_eq!(decode_u64(&mut slice), Err(VarintError::Overflow));
    }

    #[test]
    fn word_decode_agrees_with_the_byte_loop_whatever_follows() {
        let edges = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, (1 << 56) - 1, 1 << 56];
        for v in edges.into_iter().chain([(1 << 63) - 1, 1 << 63, u64::MAX]) {
            for slack in [0x00u8, 0x7F, 0x80, 0xFF] {
                let mut buf = Vec::new();
                encode_u64(&mut buf, v);
                let len = buf.len();
                buf.resize(len + MAX_LEN, slack);
                assert_eq!(decode_u64_word(&buf), Some((v, len)), "{v} before {slack:#04x}");
            }
        }
        // Overlong forms decode as the byte loop decodes them.
        assert_eq!(decode_u64_word(&[0x80, 0x00, 9, 9, 9, 9, 9, 9]), Some((0, 2)));
        // Too little buffered to tell; bits beyond the 64th; an
        // eleventh byte.
        assert_eq!(decode_u64_word(&[0x01; 7]), None);
        assert_eq!(decode_u64_word(&[0xFF; 9]), None);
        for tenth in [0x02, 0x7F, 0x81] {
            let mut buf = [0xFF; 12];
            buf[9] = tenth;
            assert_eq!(decode_u64_word(&buf), None, "tenth byte {tenth:#04x}");
            assert_eq!(decode_u64(&mut &buf[..]), Err(VarintError::Overflow));
        }
    }

    #[test]
    fn max_u64_is_valid() {
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x01);
        let mut slice = &buf[..];
        assert_eq!(decode_u64(&mut slice), Ok(u64::MAX));
    }
}

//! LEB128-style variable-length integer coding for postings compression.

use bytes::{Buf, BufMut};

/// Encodes `value` as a varint into `out`.
pub fn encode_u32<B: BufMut>(out: &mut B, mut value: u32) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Decodes a u32 varint from `buf`. Returns `None` on truncation or
/// overflow.
pub fn decode_u32<B: Buf>(buf: &mut B) -> Option<u32> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return None;
        }
        let byte = buf.get_u8();
        let payload = (byte & 0x7F) as u32;
        if shift >= 32 || (shift == 28 && payload > 0x0F) {
            return None; // overflow
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip32(v: u32) -> u32 {
        let mut buf = Vec::new();
        encode_u32(&mut buf, v);
        let mut slice = buf.as_slice();
        decode_u32(&mut slice).expect("decodes")
    }

    #[test]
    fn u32_roundtrip_boundaries() {
        for v in [
            0u32,
            1,
            127,
            128,
            16_383,
            16_384,
            2_097_151,
            2_097_152,
            268_435_455,
            268_435_456,
            u32::MAX,
        ] {
            assert_eq!(roundtrip32(v), v);
        }
    }

    #[test]
    fn truncated_input_fails() {
        let mut buf = Vec::new();
        encode_u32(&mut buf, 1_000_000);
        let mut slice = &buf[..buf.len() - 1];
        assert_eq!(decode_u32(&mut slice), None);
        let mut empty: &[u8] = &[];
        assert_eq!(decode_u32(&mut empty), None);
    }

    #[test]
    fn overlong_input_fails() {
        // Six continuation bytes cannot be a valid u32.
        let bytes = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let mut slice = bytes.as_slice();
        assert_eq!(decode_u32(&mut slice), None);
    }

    #[test]
    fn sequences_decode_in_order() {
        let mut buf = Vec::new();
        for v in 0..1000u32 {
            encode_u32(&mut buf, v * 7);
        }
        let mut slice = buf.as_slice();
        for v in 0..1000u32 {
            assert_eq!(decode_u32(&mut slice), Some(v * 7));
        }
        assert!(!slice.has_remaining());
    }
}

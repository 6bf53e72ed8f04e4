//! QUIC variable-length integers (RFC 9000 §16).
//!
//! Two-bit length prefix, big-endian payload, maximum value 2^62 − 1.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

/// Maximum encodable value.
pub const VARINT_MAX: u64 = (1 << 62) - 1;

/// Encodes `value` into `out`, appending 1, 2, 4 or 8 bytes.
///
/// Returns `false` (and appends nothing) when the value exceeds
/// [`VARINT_MAX`].
///
/// ```
/// let mut buf = Vec::new();
/// assert!(tectonic_quic::encode_varint(15_293, &mut buf));
/// assert_eq!(buf, vec![0x7b, 0xbd]); // RFC 9000 Appendix A
/// assert_eq!(tectonic_quic::decode_varint(&buf), Some((15_293, 2)));
/// ```
pub fn encode_varint(value: u64, out: &mut Vec<u8>) -> bool {
    if value < 1 << 6 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "branch guard proves value < 2^6"
        )]
        out.push(value as u8);
    } else if value < 1 << 14 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "branch guard proves value < 2^14"
        )]
        out.extend_from_slice(&((value as u16) | 0x4000).to_be_bytes());
    } else if value < 1 << 30 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "branch guard proves value < 2^30"
        )]
        out.extend_from_slice(&((value as u32) | 0x8000_0000).to_be_bytes());
    } else if value <= VARINT_MAX {
        out.extend_from_slice(&(value | 0xC000_0000_0000_0000).to_be_bytes());
    } else {
        return false;
    }
    true
}

/// Decodes a varint from the start of `data`, returning `(value, consumed)`.
pub fn decode_varint(data: &[u8]) -> Option<(u64, usize)> {
    let first = *data.first()?;
    let len = 1usize << (first >> 6);
    if data.len() < len {
        return None;
    }
    let mut value = u64::from(first & 0x3F);
    for b in data.get(1..len)? {
        // Shift amount is the constant 8; wrapping_shl spells out that the
        // accumulator (≤ 54 significant bits here) cannot overflow-panic.
        value = value.wrapping_shl(8) | u64::from(*b);
    }
    Some((value, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        assert!(encode_varint(v, &mut buf));
        decode_varint(&buf).unwrap()
    }

    #[test]
    fn rfc_9000_appendix_a_vectors() {
        // The four canonical examples from RFC 9000 Appendix A.1.
        let cases: [(&[u8], u64); 4] = [
            (&[0x25], 37),
            (&[0x7b, 0xbd], 15_293),
            (&[0x9d, 0x7f, 0x3e, 0x7d], 494_878_333),
            (
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
                151_288_809_941_952_652,
            ),
        ];
        for (bytes, want) in cases {
            let (got, used) = decode_varint(bytes).unwrap();
            assert_eq!(got, want);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        for v in [
            0,
            63,
            64,
            16_383,
            16_384,
            (1 << 30) - 1,
            1 << 30,
            VARINT_MAX,
        ] {
            let (got, _) = round_trip(v);
            assert_eq!(got, v);
        }
    }

    #[test]
    fn encoding_lengths() {
        let len_of = |v: u64| {
            let mut b = Vec::new();
            encode_varint(v, &mut b);
            b.len()
        };
        assert_eq!(len_of(0), 1);
        assert_eq!(len_of(63), 1);
        assert_eq!(len_of(64), 2);
        assert_eq!(len_of(16_383), 2);
        assert_eq!(len_of(16_384), 4);
        assert_eq!(len_of(1 << 30), 8);
    }

    #[test]
    fn overflow_rejected() {
        let mut buf = Vec::new();
        assert!(!encode_varint(VARINT_MAX + 1, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn short_input_rejected() {
        assert!(decode_varint(&[]).is_none());
        assert!(decode_varint(&[0x40]).is_none()); // 2-byte form, 1 byte given
        assert!(decode_varint(&[0x80, 0, 0]).is_none()); // 4-byte form, 3 given
        assert!(decode_varint(&[0xC0; 7]).is_none()); // 8-byte form, 7 given
    }
}

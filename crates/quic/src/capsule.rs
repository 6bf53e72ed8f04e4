//! HTTP/3 capsules and HTTP Datagrams for the CONNECT-UDP data plane.
//!
//! MASQUE's `connect-udp` (RFC 9298) moves UDP payloads through an HTTP/3
//! tunnel in two framings the paper's relay traffic uses:
//!
//! * **HTTP Datagrams** (RFC 9297 §2): a varint *context ID* followed by
//!   the raw UDP payload, carried in QUIC DATAGRAM frames. Context ID 0 is
//!   the UDP-proxying payload context; other contexts must be negotiated
//!   and are dropped by this model.
//! * **Capsules** (RFC 9297 §3): `type varint + length varint + value`, the
//!   reliable fallback stream framing. When the client is on the TCP/HTTP-2
//!   fallback (`mask-h2.icloud.com`, no QUIC DATAGRAM support), datagrams
//!   ride inside DATAGRAM capsules instead.
//!
//! Decoding is total — every read goes through `get`/`split_at_checked`-
//! style bounds checks and any malformed input returns [`CapsuleError`],
//! never a panic.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use crate::varint::{decode_varint, encode_varint, VARINT_MAX};

/// The DATAGRAM capsule type (RFC 9297 §3.1).
pub const CAPSULE_DATAGRAM: u64 = 0x00;

/// The HTTP Datagram context ID carrying raw UDP payloads (RFC 9298 §5).
pub const CONTEXT_UDP_PAYLOAD: u64 = 0x00;

/// One capsule: a typed, length-prefixed value on the request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capsule {
    /// The capsule type (varint space; unknown types must be skippable).
    pub capsule_type: u64,
    /// The capsule value bytes.
    pub payload: Vec<u8>,
}

/// One HTTP Datagram: a context ID plus the contextual payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpDatagram {
    /// The context ID (0 = raw UDP payload for `connect-udp`).
    pub context_id: u64,
    /// The payload carried under that context.
    pub payload: Vec<u8>,
}

/// Errors from the capsule/datagram codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapsuleError {
    /// Ran out of bytes mid-varint or mid-value.
    Truncated,
    /// A declared length exceeded the remaining buffer.
    BadLength,
    /// A value (type or context ID) exceeded the varint range on encode.
    OutOfRange,
}

impl std::fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapsuleError::Truncated => write!(f, "capsule truncated"),
            CapsuleError::BadLength => write!(f, "bad capsule length"),
            CapsuleError::OutOfRange => write!(f, "varint out of range"),
        }
    }
}

impl std::error::Error for CapsuleError {}

/// Encodes one capsule (`type varint + length varint + value`).
///
/// Fails only when the type or the payload length exceeds the 62-bit
/// varint space.
pub fn encode_capsule(capsule: &Capsule) -> Result<Vec<u8>, CapsuleError> {
    let mut out = Vec::with_capacity(capsule.payload.len().saturating_add(16));
    if !encode_varint(capsule.capsule_type, &mut out) {
        return Err(CapsuleError::OutOfRange);
    }
    let len = capsule.payload.len() as u64;
    if len > VARINT_MAX || !encode_varint(len, &mut out) {
        return Err(CapsuleError::OutOfRange);
    }
    out.extend_from_slice(&capsule.payload);
    Ok(out)
}

/// Decodes one capsule from the start of `data`, returning the capsule and
/// the bytes consumed (capsules are concatenated on the stream).
pub fn decode_capsule(data: &[u8]) -> Result<(Capsule, usize), CapsuleError> {
    let (capsule_type, used_type) = decode_varint(data).ok_or(CapsuleError::Truncated)?;
    let rest = data.get(used_type..).ok_or(CapsuleError::Truncated)?;
    let (len, used_len) = decode_varint(rest).ok_or(CapsuleError::Truncated)?;
    let header = used_type
        .checked_add(used_len)
        .ok_or(CapsuleError::BadLength)?;
    let len = usize::try_from(len).map_err(|_| CapsuleError::BadLength)?;
    let end = header.checked_add(len).ok_or(CapsuleError::BadLength)?;
    let payload = data
        .get(header..end)
        .ok_or(CapsuleError::BadLength)?
        .to_vec();
    Ok((
        Capsule {
            capsule_type,
            payload,
        },
        end,
    ))
}

/// Encodes one HTTP Datagram (`context ID varint + payload`).
pub fn encode_datagram(datagram: &HttpDatagram) -> Result<Vec<u8>, CapsuleError> {
    let mut out = Vec::with_capacity(datagram.payload.len().saturating_add(8));
    if !encode_varint(datagram.context_id, &mut out) {
        return Err(CapsuleError::OutOfRange);
    }
    out.extend_from_slice(&datagram.payload);
    Ok(out)
}

/// Decodes one HTTP Datagram. The payload is everything after the context
/// ID — datagrams are not length-prefixed (the QUIC DATAGRAM frame bounds
/// them).
pub fn decode_datagram(data: &[u8]) -> Result<HttpDatagram, CapsuleError> {
    let (context_id, used) = decode_varint(data).ok_or(CapsuleError::Truncated)?;
    let payload = data.get(used..).ok_or(CapsuleError::Truncated)?.to_vec();
    Ok(HttpDatagram {
        context_id,
        payload,
    })
}

/// Wraps a UDP payload as a context-0 HTTP Datagram on the QUIC path.
pub fn udp_datagram(payload: &[u8]) -> HttpDatagram {
    HttpDatagram {
        context_id: CONTEXT_UDP_PAYLOAD,
        payload: payload.to_vec(),
    }
}

/// Wraps an HTTP Datagram in a DATAGRAM capsule — the framing the TCP
/// fallback uses when QUIC DATAGRAM frames are unavailable.
pub fn datagram_capsule(datagram: &HttpDatagram) -> Result<Capsule, CapsuleError> {
    Ok(Capsule {
        capsule_type: CAPSULE_DATAGRAM,
        payload: encode_datagram(datagram)?,
    })
}

/// Unwraps a DATAGRAM capsule back into its HTTP Datagram. Non-DATAGRAM
/// capsule types return `None` (unknown capsules are skipped, not fatal).
pub fn open_datagram_capsule(capsule: &Capsule) -> Option<HttpDatagram> {
    if capsule.capsule_type != CAPSULE_DATAGRAM {
        return None;
    }
    decode_datagram(&capsule.payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capsule_round_trips() {
        let capsule = Capsule {
            capsule_type: 0x2B0C,
            payload: b"close reason".to_vec(),
        };
        let wire = encode_capsule(&capsule).unwrap();
        let (back, used) = decode_capsule(&wire).unwrap();
        assert_eq!(back, capsule);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn capsules_concatenate_on_the_stream() {
        let a = Capsule {
            capsule_type: CAPSULE_DATAGRAM,
            payload: vec![0, 1, 2],
        };
        let b = Capsule {
            capsule_type: 0x17,
            payload: vec![],
        };
        let mut wire = encode_capsule(&a).unwrap();
        wire.extend(encode_capsule(&b).unwrap());
        let (first, used) = decode_capsule(&wire).unwrap();
        let (second, used2) = decode_capsule(wire.get(used..).unwrap()).unwrap();
        assert_eq!(first, a);
        assert_eq!(second, b);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn datagram_round_trips_both_framings() {
        let datagram = udp_datagram(b"ip echo request");
        // QUIC path: bare HTTP Datagram.
        let wire = encode_datagram(&datagram).unwrap();
        assert_eq!(decode_datagram(&wire).unwrap(), datagram);
        // TCP fallback: the same datagram inside a DATAGRAM capsule.
        let capsule = datagram_capsule(&datagram).unwrap();
        let capsule_wire = encode_capsule(&capsule).unwrap();
        let (back, _) = decode_capsule(&capsule_wire).unwrap();
        assert_eq!(open_datagram_capsule(&back).unwrap(), datagram);
    }

    #[test]
    fn non_datagram_capsules_do_not_unwrap() {
        let capsule = Capsule {
            capsule_type: 0x1F,
            payload: vec![0x00, 0xAA],
        };
        assert!(open_datagram_capsule(&capsule).is_none());
    }

    #[test]
    fn truncated_and_overlong_inputs_error() {
        assert_eq!(decode_capsule(&[]), Err(CapsuleError::Truncated));
        assert_eq!(decode_datagram(&[]), Err(CapsuleError::Truncated));
        // Declared length runs past the buffer.
        let capsule = Capsule {
            capsule_type: 1,
            payload: vec![7; 40],
        };
        let wire = encode_capsule(&capsule).unwrap();
        assert_eq!(
            decode_capsule(wire.get(..wire.len() - 1).unwrap()),
            Err(CapsuleError::BadLength)
        );
        // A type beyond the varint space cannot be encoded.
        let bad = Capsule {
            capsule_type: VARINT_MAX + 1,
            payload: vec![],
        };
        assert_eq!(encode_capsule(&bad), Err(CapsuleError::OutOfRange));
    }

    #[test]
    fn empty_payload_datagram_is_valid() {
        let datagram = udp_datagram(&[]);
        let wire = encode_datagram(&datagram).unwrap();
        assert_eq!(wire, vec![0x00]);
        assert_eq!(decode_datagram(&wire).unwrap(), datagram);
    }
}

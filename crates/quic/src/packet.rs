//! QUIC long-header packets: Initial and Version Negotiation.
//!
//! Only the fields the probing experiment needs are modelled; payload
//! protection is out of scope (the paper could not complete handshakes
//! anyway — the pinned raw public key rejects unintended clients).

use crate::varint::{decode_varint, encode_varint};

/// Errors from the QUIC wire subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicWireError {
    /// Not enough bytes.
    Truncated,
    /// First byte does not carry the long-header form bit.
    NotLongHeader,
    /// Connection ID longer than 20 bytes.
    CidTooLong,
    /// A length field was inconsistent with the buffer.
    BadLength,
}

impl std::fmt::Display for QuicWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuicWireError::Truncated => write!(f, "packet truncated"),
            QuicWireError::NotLongHeader => write!(f, "not a long-header packet"),
            QuicWireError::CidTooLong => write!(f, "connection ID exceeds 20 bytes"),
            QuicWireError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for QuicWireError {}

/// Long-header packet types (from the two type bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    /// Initial packet.
    Initial,
    /// 0-RTT.
    ZeroRtt,
    /// Handshake.
    Handshake,
    /// Retry.
    Retry,
}

impl PacketType {
    fn from_bits(b: u8) -> PacketType {
        match b & 0x03 {
            0 => PacketType::Initial,
            1 => PacketType::ZeroRtt,
            2 => PacketType::Handshake,
            _ => PacketType::Retry,
        }
    }
}

/// A parsed long header (common part of all long-header packets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LongHeader {
    /// Packet type from the type bits (meaningless for version 0).
    pub packet_type: PacketType,
    /// Wire version field. Zero identifies a Version Negotiation packet.
    pub version: u32,
    /// Destination connection ID.
    pub dcid: Vec<u8>,
    /// Source connection ID.
    pub scid: Vec<u8>,
}

/// A decoded long-header packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicPacket {
    /// An Initial packet (header + opaque payload length).
    Initial {
        /// The header.
        header: LongHeader,
        /// Token bytes (usually empty for client Initials).
        token: Vec<u8>,
        /// Declared payload length.
        payload_len: u64,
    },
    /// A Version Negotiation packet.
    VersionNegotiation(VersionNegotiation),
    /// Any other long-header packet, header only.
    Other(LongHeader),
}

/// A Version Negotiation packet (version field = 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionNegotiation {
    /// DCID (echoes the client's SCID).
    pub dcid: Vec<u8>,
    /// SCID (echoes the client's DCID).
    pub scid: Vec<u8>,
    /// Versions the server supports.
    pub supported_versions: Vec<u32>,
}

/// Builds a client Initial packet for `version` with the given connection
/// IDs and a padded payload of `payload_len` bytes (QUIC requires client
/// Initials to be at least 1200 bytes on the wire; the caller picks).
pub fn encode_initial(
    version: u32,
    dcid: &[u8],
    scid: &[u8],
    payload_len: usize,
) -> Result<Vec<u8>, QuicWireError> {
    if dcid.len() > 20 || scid.len() > 20 {
        return Err(QuicWireError::CidTooLong);
    }
    let mut out = Vec::with_capacity(payload_len + 64);
    // Form (1) | fixed (1) | type Initial (00) | reserved/pn-len (0000+01).
    out.push(0b1100_0001);
    out.extend_from_slice(&version.to_be_bytes());
    out.push(dcid.len() as u8);
    out.extend_from_slice(dcid);
    out.push(scid.len() as u8);
    out.extend_from_slice(scid);
    encode_varint(0, &mut out); // token length
    encode_varint(payload_len as u64, &mut out);
    out.extend(std::iter::repeat_n(0u8, payload_len)); // PADDING frames
    Ok(out)
}

/// Builds a Version Negotiation packet echoing the client's CIDs.
pub fn encode_version_negotiation(
    client_dcid: &[u8],
    client_scid: &[u8],
    supported: &[u32],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + supported.len() * 4);
    out.push(0b1000_0000); // form bit set, rest unused
    out.extend_from_slice(&0u32.to_be_bytes()); // version 0
                                                // VN swaps the roles: its DCID is the client's SCID.
    out.push(client_scid.len() as u8);
    out.extend_from_slice(client_scid);
    out.push(client_dcid.len() as u8);
    out.extend_from_slice(client_dcid);
    for v in supported {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

/// Parses any long-header packet.
pub fn decode_packet(data: &[u8]) -> Result<QuicPacket, QuicWireError> {
    let &first = data.first().ok_or(QuicWireError::Truncated)?;
    if first & 0x80 == 0 {
        return Err(QuicWireError::NotLongHeader);
    }
    // Seven bytes is the smallest long header: first byte, version, and two
    // zero-length CID markers.
    let [_, v0, v1, v2, v3, _, _, ..] = data else {
        return Err(QuicWireError::Truncated);
    };
    let version = u32::from_be_bytes([*v0, *v1, *v2, *v3]);
    let mut pos = 5;
    let take_cid = |pos: &mut usize| -> Result<Vec<u8>, QuicWireError> {
        let len = *data.get(*pos).ok_or(QuicWireError::Truncated)? as usize;
        if len > 20 {
            return Err(QuicWireError::CidTooLong);
        }
        *pos += 1;
        let end = *pos + len;
        let cid = data
            .get(*pos..end)
            .ok_or(QuicWireError::Truncated)?
            .to_vec();
        *pos = end;
        Ok(cid)
    };
    let dcid = take_cid(&mut pos)?;
    let scid = take_cid(&mut pos)?;
    if version == 0 {
        // Version Negotiation: remaining bytes are 4-byte versions.
        let rest = data.get(pos..).ok_or(QuicWireError::Truncated)?;
        if rest.is_empty() || !rest.len().is_multiple_of(4) {
            return Err(QuicWireError::BadLength);
        }
        let supported_versions = rest
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().unwrap_or_default()))
            .collect();
        return Ok(QuicPacket::VersionNegotiation(VersionNegotiation {
            dcid,
            scid,
            supported_versions,
        }));
    }
    let header = LongHeader {
        packet_type: PacketType::from_bits((first >> 4) & 0x03),
        version,
        dcid,
        scid,
    };
    if header.packet_type == PacketType::Initial {
        let (token_len, used) = data
            .get(pos..)
            .and_then(decode_varint)
            .ok_or(QuicWireError::Truncated)?;
        pos += used;
        let end = pos + token_len as usize;
        let token = data.get(pos..end).ok_or(QuicWireError::Truncated)?.to_vec();
        pos = end;
        let (payload_len, used) = data
            .get(pos..)
            .and_then(decode_varint)
            .ok_or(QuicWireError::Truncated)?;
        pos += used;
        if data.len() < pos + payload_len as usize {
            return Err(QuicWireError::BadLength);
        }
        return Ok(QuicPacket::Initial {
            header,
            token,
            payload_len,
        });
    }
    Ok(QuicPacket::Other(header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{INGRESS_SUPPORTED_VERSIONS, VERSION_FORCE_NEGOTIATION, VERSION_V1};

    #[test]
    fn initial_round_trips() {
        let wire = encode_initial(VERSION_V1, b"destcid0", b"srccid", 1200).unwrap();
        assert!(wire.len() >= 1200);
        match decode_packet(&wire).unwrap() {
            QuicPacket::Initial {
                header,
                token,
                payload_len,
            } => {
                assert_eq!(header.version, VERSION_V1);
                assert_eq!(header.packet_type, PacketType::Initial);
                assert_eq!(header.dcid, b"destcid0");
                assert_eq!(header.scid, b"srccid");
                assert!(token.is_empty());
                assert_eq!(payload_len, 1200);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_negotiation_round_trips_and_swaps_cids() {
        let wire =
            encode_version_negotiation(b"client-dcid", b"client-scid", &INGRESS_SUPPORTED_VERSIONS);
        match decode_packet(&wire).unwrap() {
            QuicPacket::VersionNegotiation(vn) => {
                assert_eq!(vn.dcid, b"client-scid");
                assert_eq!(vn.scid, b"client-dcid");
                assert_eq!(vn.supported_versions, INGRESS_SUPPORTED_VERSIONS.to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_version_initial_parses() {
        let wire = encode_initial(VERSION_FORCE_NEGOTIATION, b"d", b"s", 100).unwrap();
        match decode_packet(&wire).unwrap() {
            QuicPacket::Initial { header, .. } => {
                assert_eq!(header.version, VERSION_FORCE_NEGOTIATION);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn short_header_rejected() {
        assert_eq!(
            decode_packet(&[0x40, 1, 2, 3, 4, 5, 6, 7]),
            Err(QuicWireError::NotLongHeader)
        );
    }

    #[test]
    fn truncation_and_length_errors() {
        assert_eq!(decode_packet(&[]), Err(QuicWireError::Truncated));
        assert_eq!(
            decode_packet(&[0xC1, 0, 0, 0]),
            Err(QuicWireError::Truncated)
        );
        // VN with a ragged version list length.
        let mut vn = encode_version_negotiation(b"d", b"s", &[VERSION_V1]);
        vn.push(0xAA);
        assert_eq!(decode_packet(&vn), Err(QuicWireError::BadLength));
        // Initial whose declared payload exceeds the buffer.
        let mut init = encode_initial(VERSION_V1, b"d", b"s", 50).unwrap();
        init.truncate(init.len() - 10);
        assert_eq!(decode_packet(&init), Err(QuicWireError::BadLength));
    }

    #[test]
    fn cid_length_limits() {
        assert_eq!(
            encode_initial(VERSION_V1, &[0u8; 21], b"s", 10),
            Err(QuicWireError::CidTooLong)
        );
        // Hand-craft a packet with a 21-byte DCID length marker.
        let mut wire = vec![0xC1, 0, 0, 0, 1, 21];
        wire.extend_from_slice(&[0u8; 30]);
        assert_eq!(decode_packet(&wire), Err(QuicWireError::CidTooLong));
    }

    #[test]
    fn empty_vn_version_list_rejected() {
        let wire = encode_version_negotiation(b"d", b"s", &[]);
        assert_eq!(decode_packet(&wire), Err(QuicWireError::BadLength));
    }

    #[test]
    fn other_packet_types_surface_as_other() {
        // Handshake-type long header: type bits 10.
        let mut wire = vec![0b1110_0000];
        wire.extend_from_slice(&VERSION_V1.to_be_bytes());
        wire.push(1);
        wire.push(0xAB);
        wire.push(0);
        match decode_packet(&wire).unwrap() {
            QuicPacket::Other(h) => assert_eq!(h.packet_type, PacketType::Handshake),
            other => panic!("unexpected {other:?}"),
        }
    }
}

//! # tectonic-quic
//!
//! A QUIC v1 wire-format subset sized for the paper's §3 probing
//! experiment. The authors observed that iCloud Private Relay ingress nodes
//!
//! * do **not** respond to standard QUIC Initials (QScanner/curl time out —
//!   the pinned raw-public-key handshake rejects unintended clients), but
//! * **do** answer Version Negotiation triggers (a long-header packet with
//!   an unknown version), revealing support for QUIC v1 and drafts 29–27.
//!
//! [`packet`] implements the long-header encoding both sides need;
//! [`probe`] implements the scanner and the ingress responder model;
//! [`capsule`] adds the HTTP/3 capsule + HTTP Datagram framing the
//! CONNECT-UDP data plane (§4 traffic) rides on.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing,
        clippy::iter_over_hash_type
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod capsule;
pub mod h3;
pub mod packet;
pub mod probe;
pub mod varint;

pub use capsule::{
    datagram_capsule, decode_capsule, decode_datagram, encode_capsule, encode_datagram,
    open_datagram_capsule, udp_datagram, Capsule, CapsuleError, HttpDatagram, CAPSULE_DATAGRAM,
    CONTEXT_UDP_PAYLOAD,
};
pub use h3::{decode_frame, encode_frame, Frame, FrameType, Headers};
pub use packet::{LongHeader, PacketType, QuicPacket, QuicWireError, VersionNegotiation};
pub use probe::{IngressQuicBehavior, ProbeOutcome, QuicProber};
pub use varint::{decode_varint, encode_varint};

/// QUIC version 1 (RFC 9000).
pub const VERSION_V1: u32 = 0x0000_0001;
/// Draft-29 version number.
pub const VERSION_DRAFT_29: u32 = 0xff00_001d;
/// Draft-28 version number.
pub const VERSION_DRAFT_28: u32 = 0xff00_001c;
/// Draft-27 version number.
pub const VERSION_DRAFT_27: u32 = 0xff00_001b;

/// The version set the paper observed ingress nodes advertising.
pub const INGRESS_SUPPORTED_VERSIONS: [u32; 4] = [
    VERSION_V1,
    VERSION_DRAFT_29,
    VERSION_DRAFT_28,
    VERSION_DRAFT_27,
];

/// A version number reserved to force negotiation (pattern `0x?a?a?a?a`).
pub const VERSION_FORCE_NEGOTIATION: u32 = 0x1a2a_3a4a;

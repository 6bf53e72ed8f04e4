//! A minimal HTTP/3-flavoured framing layer for the MASQUE model.
//!
//! iCloud Private Relay tunnels traffic with the MASQUE working group's
//! QUIC-aware proxying over HTTP/3 (§2). The reproduction needs the
//! request framing both relay hops exchange — enough to express
//! `CONNECT`-style requests with authority and capsule-protocol headers —
//! without a full QPACK implementation. Headers are therefore encoded as
//! varint-length-prefixed name/value pairs inside a real HTTP/3 frame
//! layout (frame type varint + length varint + payload), which keeps the
//! codec honest while documenting the simplification.

use crate::varint::{decode_varint, encode_varint};

/// HTTP/3 frame types used by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// DATA (0x0).
    Data,
    /// HEADERS (0x1).
    Headers,
    /// Any other frame type, kept by number.
    Other(u64),
}

impl FrameType {
    fn number(&self) -> u64 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::Other(n) => *n,
        }
    }

    fn from_number(n: u64) -> FrameType {
        match n {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            other => FrameType::Other(other),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub frame_type: FrameType,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Errors from the framing codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H3Error {
    /// Ran out of bytes.
    Truncated,
    /// A length exceeded the remaining buffer.
    BadLength,
    /// Header block failed to parse.
    BadHeaders,
}

impl std::fmt::Display for H3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H3Error::Truncated => write!(f, "frame truncated"),
            H3Error::BadLength => write!(f, "bad frame length"),
            H3Error::BadHeaders => write!(f, "bad header block"),
        }
    }
}

impl std::error::Error for H3Error {}

/// Encodes one frame.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.payload.len() + 8);
    encode_varint(frame.frame_type.number(), &mut out);
    encode_varint(frame.payload.len() as u64, &mut out);
    out.extend_from_slice(&frame.payload);
    out
}

/// Decodes one frame from the start of `data`, returning the frame and the
/// bytes consumed.
pub fn decode_frame(data: &[u8]) -> Result<(Frame, usize), H3Error> {
    let (ftype, used1) = decode_varint(data).ok_or(H3Error::Truncated)?;
    let rest = data.get(used1..).ok_or(H3Error::Truncated)?;
    let (len, used2) = decode_varint(rest).ok_or(H3Error::Truncated)?;
    let start = used1 + used2;
    let end = start + len as usize;
    let payload = data.get(start..end).ok_or(H3Error::BadLength)?;
    Ok((
        Frame {
            frame_type: FrameType::from_number(ftype),
            payload: payload.to_vec(),
        },
        end,
    ))
}

/// A header list (simplified QPACK stand-in: varint-length-prefixed pairs).
pub type Headers = Vec<(String, String)>;

/// Encodes a header list into a HEADERS frame payload.
pub fn encode_headers(headers: &Headers) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, value) in headers {
        encode_varint(name.len() as u64, &mut out);
        out.extend_from_slice(name.as_bytes());
        encode_varint(value.len() as u64, &mut out);
        out.extend_from_slice(value.as_bytes());
    }
    out
}

/// Decodes a HEADERS frame payload.
pub fn decode_headers(payload: &[u8]) -> Result<Headers, H3Error> {
    let mut headers = Vec::new();
    let mut pos = 0;
    while pos < payload.len() {
        let take = |pos: &mut usize| -> Result<String, H3Error> {
            let rest = payload.get(*pos..).ok_or(H3Error::BadHeaders)?;
            let (len, used) = decode_varint(rest).ok_or(H3Error::BadHeaders)?;
            *pos += used;
            let end = *pos + len as usize;
            let bytes = payload.get(*pos..end).ok_or(H3Error::BadHeaders)?;
            let s = String::from_utf8(bytes.to_vec()).map_err(|_| H3Error::BadHeaders)?;
            *pos = end;
            Ok(s)
        };
        let name = take(&mut pos)?;
        let value = take(&mut pos)?;
        headers.push((name, value));
    }
    Ok(headers)
}

/// Convenience: build a HEADERS frame from a header list.
pub fn headers_frame(headers: &Headers) -> Frame {
    Frame {
        frame_type: FrameType::Headers,
        payload: encode_headers(headers),
    }
}

/// Looks up a pseudo-header or header value.
pub fn header<'a>(headers: &'a Headers, name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect_headers() -> Headers {
        vec![
            (":method".into(), "CONNECT".into()),
            (":protocol".into(), "connect-udp".into()),
            (":authority".into(), "egress.example.net:443".into()),
            (
                "proxy-authorization".into(),
                "PrivateToken token=abc".into(),
            ),
        ]
    }

    #[test]
    fn frame_round_trip() {
        let frame = headers_frame(&connect_headers());
        let wire = encode_frame(&frame);
        let (back, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back, frame);
        let headers = decode_headers(&back.payload).unwrap();
        assert_eq!(header(&headers, ":method"), Some("CONNECT"));
        assert_eq!(header(&headers, ":protocol"), Some("connect-udp"));
        assert_eq!(header(&headers, "missing"), None);
    }

    #[test]
    fn data_frame_round_trip() {
        let frame = Frame {
            frame_type: FrameType::Data,
            payload: b"tunnelled bytes".to_vec(),
        };
        let wire = encode_frame(&frame);
        let (back, _) = decode_frame(&wire).unwrap();
        assert_eq!(back.frame_type, FrameType::Data);
        assert_eq!(back.payload, b"tunnelled bytes");
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let f1 = headers_frame(&connect_headers());
        let f2 = Frame {
            frame_type: FrameType::Data,
            payload: vec![1, 2, 3],
        };
        let mut wire = encode_frame(&f1);
        wire.extend(encode_frame(&f2));
        let (a, used) = decode_frame(&wire).unwrap();
        let (b, used2) = decode_frame(&wire[used..]).unwrap();
        assert_eq!(a, f1);
        assert_eq!(b, f2);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn truncation_and_length_errors() {
        let wire = encode_frame(&headers_frame(&connect_headers()));
        assert_eq!(decode_frame(&[]), Err(H3Error::Truncated));
        assert_eq!(decode_frame(&wire[..3]), Err(H3Error::BadLength));
        // Header block cut mid-value.
        let payload = encode_headers(&connect_headers());
        assert!(decode_headers(&payload[..payload.len() - 2]).is_err());
    }

    #[test]
    fn unknown_frame_types_survive() {
        let frame = Frame {
            frame_type: FrameType::Other(0x4242),
            payload: vec![9; 5],
        };
        let (back, _) = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(back.frame_type, FrameType::Other(0x4242));
    }

    #[test]
    fn empty_headers_round_trip() {
        let headers: Headers = vec![];
        assert_eq!(decode_headers(&encode_headers(&headers)).unwrap(), headers);
    }
}

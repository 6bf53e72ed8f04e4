//! EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).
//!
//! ECS is the paper's key instrument: the authoritative servers for
//! `mask.icloud.com` honour the client subnet attached by the resolver, so
//! iterating `/24` subnets through the ECS option enumerates the ingress
//! fleet from a single vantage point. This module implements the option
//! including the truncation rule (only `ceil(source_len / 8)` address octets
//! are transmitted, spare low bits zero) and the *scope* semantics the
//! ethical scanner honours: a response scope shorter than the query source
//! declares the answer valid for the whole shorter prefix, letting the
//! scanner skip redundant queries (§7 of the paper).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};

use tectonic_net::{IpNet, Ipv4Net, Ipv6Net};

/// RFC 7871 address family codes.
const FAMILY_V4: u16 = 1;
const FAMILY_V6: u16 = 2;

/// An EDNS0 Client Subnet option.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct EcsOption {
    /// Client address with bits beyond `source_len` zeroed.
    pub addr: IpAddr,
    /// Prefix length the client (or scanner) asserts.
    pub source_len: u8,
    /// Prefix length the answer is valid for; 0 in queries. For IPv6 queries
    /// the simulated Route 53 always answers scope 0 — the behaviour that
    /// forces the paper onto RIPE Atlas for AAAA enumeration.
    pub scope_len: u8,
}

impl EcsOption {
    /// The EDNS0 option code of Client Subnet.
    pub const CODE: u16 = 8;

    /// Builds a query option for an IPv4 subnet (scope 0 as required by the
    /// RFC for queries). Host bits below `source_len` are cleared.
    pub fn for_v4_net(net: Ipv4Net) -> EcsOption {
        EcsOption {
            addr: IpAddr::V4(net.network()),
            source_len: net.len(),
            scope_len: 0,
        }
    }

    /// Builds a query option for an IPv6 subnet.
    pub fn for_v6_net(net: Ipv6Net) -> EcsOption {
        EcsOption {
            addr: IpAddr::V6(net.network()),
            source_len: net.len(),
            scope_len: 0,
        }
    }

    /// The RFC 7871 family code.
    pub fn family(&self) -> u16 {
        match self.addr {
            IpAddr::V4(_) => FAMILY_V4,
            IpAddr::V6(_) => FAMILY_V6,
        }
    }

    /// The query subnet as a prefix.
    pub fn source_net(&self) -> IpNet {
        match self.addr {
            IpAddr::V4(a) => IpNet::V4(Ipv4Net::clamped(a, self.source_len)),
            IpAddr::V6(a) => IpNet::V6(Ipv6Net::clamped(a, self.source_len)),
        }
    }

    /// The prefix the *answer* covers: the scope if non-zero, otherwise the
    /// whole address space of the family (scope 0 = "valid everywhere").
    pub fn scope_net(&self) -> IpNet {
        match self.addr {
            IpAddr::V4(a) => IpNet::V4(Ipv4Net::clamped(a, self.scope_len)),
            IpAddr::V6(a) => IpNet::V6(Ipv6Net::clamped(a, self.scope_len)),
        }
    }

    /// Number of address octets transmitted on the wire.
    pub fn wire_addr_octets(&self) -> usize {
        (self.source_len as usize).div_ceil(8)
    }

    /// Encodes the option payload (family, lengths, truncated address) into
    /// a fixed buffer, returning the bytes and the payload length. The
    /// payload is at most 4 header bytes + 16 address octets, so the hot
    /// wire-encode path can write it without touching the heap.
    pub fn wire_bytes(&self) -> ([u8; 20], usize) {
        let wire = self.wire_addr_octets();
        let (mut addr, n): ([u8; 16], usize) = match self.addr {
            IpAddr::V4(a) => (padded(&a.octets(), wire), wire.min(4)),
            IpAddr::V6(a) => (padded(&a.octets(), wire), wire.min(16)),
        };
        // Zero spare low bits of the last transmitted octet.
        let spare = (8 - (self.source_len % 8) % 8) % 8;
        if let Some(last) = n.checked_sub(1).and_then(|i| addr.get_mut(i)) {
            *last &= 0xFFu8 << spare;
        }
        let mut out = [0u8; 20];
        let [family_hi, family_lo, source_len, scope_len, out_addr @ ..] = &mut out;
        [*family_hi, *family_lo] = self.family().to_be_bytes();
        (*source_len, *scope_len) = (self.source_len, self.scope_len);
        *out_addr = addr;
        (out, 4 + n)
    }

    /// Encodes the option payload (family, lengths, truncated address).
    pub fn encode(&self) -> Vec<u8> {
        let (bytes, len) = self.wire_bytes();
        bytes.into_iter().take(len).collect()
    }

    /// Decodes an option payload. Returns `None` on malformed input
    /// (unknown family, address octets inconsistent with `source_len`).
    pub fn decode(payload: &[u8]) -> Option<EcsOption> {
        let [f0, f1, source_len, scope_len, addr_bytes @ ..] = payload else {
            return None;
        };
        let family = u16::from_be_bytes([*f0, *f1]);
        let (source_len, scope_len) = (*source_len, *scope_len);
        let needed = (source_len as usize).div_ceil(8);
        if addr_bytes.len() < needed {
            return None;
        }
        let addr = match family {
            FAMILY_V4 => {
                if source_len > 32 || needed > 4 {
                    return None;
                }
                IpAddr::V4(Ipv4Addr::from(padded::<4>(addr_bytes, needed)))
            }
            FAMILY_V6 => {
                if source_len > 128 || needed > 16 {
                    return None;
                }
                IpAddr::V6(Ipv6Addr::from(padded::<16>(addr_bytes, needed)))
            }
            _ => return None,
        };
        Some(EcsOption {
            addr,
            source_len,
            scope_len,
        })
    }
}

/// An EDNS0 option.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EdnsOption {
    /// RFC 7871 Client Subnet.
    ClientSubnet(EcsOption),
    /// Any other option, kept as `(code, payload)`.
    Other(u16, Vec<u8>),
}

impl EdnsOption {
    /// The option code (ECS is 8).
    pub fn code(&self) -> u16 {
        match self {
            EdnsOption::ClientSubnet(_) => EcsOption::CODE,
            EdnsOption::Other(code, _) => *code,
        }
    }
}

/// The EDNS0 OPT pseudo-record.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OptRecord {
    /// Advertised UDP payload size.
    pub udp_size: u16,
    /// Extended rcode high bits (unused here, kept for fidelity).
    pub ext_rcode: u8,
    /// EDNS version (0).
    pub version: u8,
    /// The options list.
    pub options: Vec<EdnsOption>,
}

impl Default for OptRecord {
    fn default() -> Self {
        OptRecord {
            udp_size: 1232,
            ext_rcode: 0,
            version: 0,
            options: Vec::new(),
        }
    }
}

impl OptRecord {
    /// An OPT record carrying a single ECS option.
    pub fn with_ecs(ecs: EcsOption) -> OptRecord {
        OptRecord {
            options: vec![EdnsOption::ClientSubnet(ecs)],
            ..OptRecord::default()
        }
    }

    /// The ECS option, if present.
    pub fn ecs(&self) -> Option<&EcsOption> {
        self.options.iter().find_map(|o| match o {
            EdnsOption::ClientSubnet(e) => Some(e),
            EdnsOption::Other(..) => None,
        })
    }

    /// Replaces (or inserts) the ECS option.
    pub fn set_ecs(&mut self, ecs: EcsOption) {
        self.options
            .retain(|o| !matches!(o, EdnsOption::ClientSubnet(_)));
        self.options.push(EdnsOption::ClientSubnet(ecs));
    }
}

/// The first `n` bytes of `bytes`, zero-padded to `N`.
fn padded<const N: usize>(bytes: &[u8], n: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes).take(n) {
        *dst = *src;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    #[test]
    fn ecs_for_slash24() {
        let e = EcsOption::for_v4_net(v4net("100.64.3.0/24"));
        assert_eq!(e.family(), 1);
        assert_eq!(e.source_len, 24);
        assert_eq!(e.scope_len, 0);
        assert_eq!(e.wire_addr_octets(), 3);
    }

    #[test]
    fn encode_truncates_address() {
        let e = EcsOption::for_v4_net(v4net("203.0.113.0/24"));
        let w = e.encode();
        assert_eq!(w, vec![0, 1, 24, 0, 203, 0, 113]);
    }

    #[test]
    fn encode_zeroes_spare_bits() {
        // /22 transmits 3 octets; the third octet keeps only its top 6 bits.
        let e = EcsOption {
            addr: IpAddr::V4(Ipv4Addr::new(10, 20, 0b1111_1100, 0)),
            source_len: 22,
            scope_len: 0,
        };
        let w = e.encode();
        assert_eq!(w[6], 0b1111_1100);
        let e2 = EcsOption {
            addr: IpAddr::V4(Ipv4Addr::new(10, 20, 0b1111_1111, 0)),
            source_len: 22,
            scope_len: 0,
        };
        assert_eq!(e2.encode()[6], 0b1111_1100);
    }

    #[test]
    fn decode_round_trip_v4_and_v6() {
        let e = EcsOption::for_v4_net(v4net("198.51.100.0/24"));
        assert_eq!(EcsOption::decode(&e.encode()), Some(e));
        let e6 = EcsOption::for_v6_net("2001:db8:77::/48".parse().unwrap());
        let back = EcsOption::decode(&e6.encode()).unwrap();
        assert_eq!(back.family(), 2);
        assert_eq!(back.source_len, 48);
        assert_eq!(back.addr, "2001:db8:77::".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(EcsOption::decode(&[]).is_none());
        assert!(EcsOption::decode(&[0, 1, 24]).is_none()); // too short
        assert!(EcsOption::decode(&[0, 9, 8, 0, 1]).is_none()); // bad family
        assert!(EcsOption::decode(&[0, 1, 24, 0, 1, 2]).is_none()); // missing octet
        assert!(EcsOption::decode(&[0, 1, 40, 0, 1, 2, 3, 4, 5]).is_none()); // v4 len > 32
    }

    #[test]
    fn scope_net_zero_means_everything() {
        let mut e = EcsOption::for_v4_net(v4net("100.64.3.0/24"));
        e.scope_len = 0;
        assert!(e.scope_net().is_default());
        e.scope_len = 16;
        assert_eq!(e.scope_net().to_string(), "100.64.0.0/16");
        assert_eq!(e.source_net().to_string(), "100.64.3.0/24");
    }

    #[test]
    fn opt_record_ecs_accessors() {
        let mut opt = OptRecord::default();
        assert!(opt.ecs().is_none());
        let e = EcsOption::for_v4_net(v4net("192.0.2.0/24"));
        opt.set_ecs(e.clone());
        assert_eq!(opt.ecs(), Some(&e));
        let e2 = EcsOption::for_v4_net(v4net("198.51.100.0/24"));
        opt.set_ecs(e2.clone());
        assert_eq!(opt.options.len(), 1);
        assert_eq!(opt.ecs(), Some(&e2));
        let viactor = OptRecord::with_ecs(e2.clone());
        assert_eq!(viactor.ecs(), Some(&e2));
    }

    #[test]
    fn option_codes() {
        let e = EcsOption::for_v4_net(v4net("192.0.2.0/24"));
        assert_eq!(EdnsOption::ClientSubnet(e).code(), 8);
        assert_eq!(EdnsOption::Other(10, vec![]).code(), 10);
    }

    #[test]
    fn default_opt_is_ednsv0() {
        let opt = OptRecord::default();
        assert_eq!(opt.version, 0);
        assert!(opt.udp_size >= 512);
    }
}

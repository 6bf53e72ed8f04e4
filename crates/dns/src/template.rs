//! Pre-encoded query templates for the ECS scan hot loop.
//!
//! The scanner sends millions of near-identical queries: same domain, same
//! qtype, same EDNS0 shape — only the query ID and the three ECS address
//! octets change between consecutive /24 subnets. A [`QueryTemplate`]
//! encodes the message once, locates those mutable bytes, and proves the
//! location correct by diffing two sentinel encodings and re-checking a
//! patched copy against the general encoder byte-for-byte. Construction
//! returns `None` whenever that proof fails, so callers can always fall
//! back to [`encode_message`] with identical results.
//!
//! [`encode_message`]: crate::wire::encode_message

use std::net::Ipv4Addr;

use tectonic_net::Ipv4Net;

use crate::edns::EcsOption;
use crate::message::{Message, QType};
use crate::name::DomainName;
use crate::wire::encode_message;

/// Builds the exact query message the scanner sends for one /24.
fn scan_query(id: u16, domain: &DomainName, qtype: QType, subnet: Ipv4Net) -> Message {
    let mut query = Message::query(id, domain.clone(), qtype);
    query.ensure_edns().set_ecs(EcsOption::for_v4_net(subnet));
    query
}

/// Two /24 sentinels (TEST-NET-2 / TEST-NET-3) whose first three octets
/// differ pairwise, so the diff exposes every address byte.
const SENTINEL_A: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 0);
const SENTINEL_B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 0);

/// An immutable pre-encoded /24 ECS query for one domain and qtype.
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    wire: Vec<u8>,
    ecs_addr_off: usize,
}

impl QueryTemplate {
    /// Byte offset of the big-endian query ID (always the first two bytes).
    pub const ID_OFFSET: usize = 0;

    /// Builds and verifies a template, or `None` if in-place patching could
    /// not be proven byte-identical to the general encoder.
    pub fn new_v4_24(domain: &DomainName, qtype: QType) -> Option<QueryTemplate> {
        let net_a = Ipv4Net::slash24_of(SENTINEL_A);
        let net_b = Ipv4Net::slash24_of(SENTINEL_B);
        let wire_a = encode_message(&scan_query(0, domain, qtype, net_a));
        let wire_b = encode_message(&scan_query(0, domain, qtype, net_b));
        if wire_a.len() != wire_b.len() {
            return None;
        }
        let diff: Vec<usize> = wire_a
            .iter()
            .zip(wire_b.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        // Expect exactly the three ECS address octets, contiguous.
        let [d0, d1, d2] = diff.as_slice() else {
            return None;
        };
        if *d1 != d0 + 1 || *d2 != d0 + 2 {
            return None;
        }
        let off = *d0;
        if wire_a.get(off..off + 3) != SENTINEL_A.octets().get(..3)
            || wire_b.get(off..off + 3) != SENTINEL_B.octets().get(..3)
        {
            return None;
        }
        let template = QueryTemplate {
            wire: wire_a,
            ecs_addr_off: off,
        };
        // End-to-end check: a patched copy must equal a fresh encoding,
        // including a non-zero ID.
        let mut probe = template.instantiate();
        let check_id = 0xA55A;
        if probe.patch(check_id, net_b)
            != encode_message(&scan_query(check_id, domain, qtype, net_b))
        {
            return None;
        }
        Some(template)
    }

    /// The template bytes (sentinel ID and subnet still in place).
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Byte offset of the three ECS address octets.
    pub fn ecs_addr_offset(&self) -> usize {
        self.ecs_addr_off
    }

    /// A mutable copy to patch per query — create one per worker, reuse
    /// across the whole scan.
    pub fn instantiate(&self) -> PatchedQuery {
        PatchedQuery {
            wire: self.wire.clone(),
            ecs_addr_off: self.ecs_addr_off,
        }
    }
}

/// A worker-owned instantiation of a [`QueryTemplate`]; each [`patch`]
/// rewrites five bytes in place and returns the query, with no allocation
/// or encoding work.
///
/// [`patch`]: PatchedQuery::patch
#[derive(Debug, Clone)]
pub struct PatchedQuery {
    wire: Vec<u8>,
    ecs_addr_off: usize,
}

impl PatchedQuery {
    /// Sets the query ID and the /24 subnet, returning the wire bytes.
    pub fn patch(&mut self, id: u16, subnet: Ipv4Net) -> &[u8] {
        debug_assert_eq!(subnet.len(), 24, "template is specialised to /24 subnets");
        if let Some([hi, lo, ..]) = self.wire.get_mut(QueryTemplate::ID_OFFSET..) {
            [*hi, *lo] = id.to_be_bytes();
        }
        let [a, b, c, _] = subnet.network().octets();
        if let Some([o0, o1, o2, ..]) = self.wire.get_mut(self.ecs_addr_off..) {
            [*o0, *o1, *o2] = [a, b, c];
        }
        &self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::mask_domain;
    use crate::wire::decode_message;

    #[test]
    fn template_builds_for_mask_domain() {
        let t = QueryTemplate::new_v4_24(&mask_domain(), QType::A).expect("template");
        assert!(t.ecs_addr_offset() > 12, "ECS bytes live past the header");
    }

    #[test]
    fn patched_queries_match_general_encoder() {
        let domain = mask_domain();
        let t = QueryTemplate::new_v4_24(&domain, QType::A).unwrap();
        let mut patched = t.instantiate();
        for (id, net) in [
            (1u16, "10.0.0.0/24"),
            (0xFFFF, "223.255.255.0/24"),
            (42, "1.2.3.0/24"),
            (42, "1.2.3.0/24"), // repeat: patching must be idempotent
        ] {
            let subnet: Ipv4Net = net.parse().unwrap();
            let want = encode_message(&scan_query(id, &domain, QType::A, subnet));
            assert_eq!(patched.patch(id, subnet), &want[..], "id={id} net={net}");
        }
    }

    #[test]
    fn patched_query_decodes_to_the_intended_message() {
        let domain = mask_domain();
        let t = QueryTemplate::new_v4_24(&domain, QType::A).unwrap();
        let mut patched = t.instantiate();
        let subnet: Ipv4Net = "192.0.2.0/24".parse().unwrap();
        let m = decode_message(patched.patch(7, subnet)).unwrap();
        assert_eq!(m.id, 7);
        let ecs = m.edns.as_ref().and_then(|o| o.ecs()).unwrap();
        assert_eq!(ecs.addr, std::net::IpAddr::V4(subnet.network()));
        assert_eq!(ecs.source_len, 24);
    }

    #[test]
    fn works_for_other_qtypes_and_domains() {
        for domain in [crate::name::mask_h2_domain(), crate::name::whoami_domain()] {
            for qtype in [QType::A, QType::AAAA] {
                assert!(
                    QueryTemplate::new_v4_24(&domain, qtype).is_some(),
                    "{domain} {qtype}"
                );
            }
        }
    }
}

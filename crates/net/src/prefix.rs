//! CIDR prefixes for IPv4 and IPv6.
//!
//! The paper's datasets are all subnet-indexed: ECS queries carry `/24`
//! client subnets, Apple's egress list is a set of subnets with geolocation,
//! and the BGP analyses operate on routed prefixes. [`Ipv4Net`], [`Ipv6Net`]
//! and the family-erased [`IpNet`] are the common currency for all of them.
//!
//! Prefixes are always stored in *canonical* form: host bits below the prefix
//! length are zero. [`Ipv4Net::new`] rejects out-of-range lengths;
//! constructors never panic.

use std::cmp::Ordering;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::NetError;

/// Writes `Debug` through `Display` — prefixes read better as `10.0.0.0/8`
/// than as a struct dump.
macro_rules! fmt_debug_as_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self}")
        }
    };
}

/// Masks the low `128 - len` bits off a u128 value.
#[inline]
fn mask_u128(bits: u128, len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        bits & (u128::MAX << (128 - len as u32))
    }
}

/// Masks the low `32 - len` bits off a u32 value.
#[inline]
fn mask_u32(bits: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        bits & (u32::MAX << (32 - len as u32))
    }
}

/// An IPv4 CIDR prefix in canonical form (host bits zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    len: u8,
}

impl Ipv4Net {
    /// Creates a prefix from a network address and length, canonicalising the
    /// address (host bits are zeroed).
    ///
    /// Returns [`NetError::PrefixLenOutOfRange`] when `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, NetError> {
        if len > 32 {
            return Err(NetError::PrefixLenOutOfRange { len, max: 32 });
        }
        Ok(Self {
            addr: Ipv4Addr::from(mask_u32(u32::from(addr), len)),
            len,
        })
    }

    /// The `/24` prefix covering `addr` — the granularity used for ECS
    /// client subnets throughout the paper.
    pub fn slash24_of(addr: Ipv4Addr) -> Self {
        Self {
            addr: Ipv4Addr::from(mask_u32(u32::from(addr), 24)),
            len: 24,
        }
    }

    /// Creates a prefix with `len` clamped to 32 — a total constructor for
    /// lengths that arrive pre-validated or semantically capped (e.g. ECS
    /// source/scope lengths).
    pub fn clamped(addr: Ipv4Addr, len: u8) -> Self {
        let len = len.min(32);
        Self {
            addr: Ipv4Addr::from(mask_u32(u32::from(addr), len)),
            len,
        }
    }

    /// Parses a compile-time prefix literal, panicking on invalid input.
    ///
    /// For embedding well-known prefixes in source (`Ipv4Net::literal(
    /// "17.0.0.0/8")`); every call site is covered by construction the
    /// first time it runs. Never call this on runtime input — use
    /// [`FromStr`] and handle the error.
    #[expect(
        clippy::expect_used,
        reason = "documented literal-only constructor; the single sanctioned panic site for static prefixes"
    )]
    pub fn literal(s: &str) -> Self {
        s.parse().expect("invalid Ipv4Net literal")
    }

    /// The single-address `/32` prefix for `addr`.
    pub fn host(addr: Ipv4Addr) -> Self {
        Self { addr, len: 32 }
    }

    /// Network address (lowest address in the prefix).
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Always `false`: a prefix covers at least one address. Present for
    /// clippy's `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` only for `0.0.0.0/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Number of addresses covered by the prefix.
    pub fn addr_count(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// Highest address in the prefix.
    pub fn broadcast(&self) -> Ipv4Addr {
        let host_bits = 32 - self.len as u32;
        let hi = if host_bits == 32 {
            u32::MAX
        } else {
            u32::from(self.addr) | ((1u32 << host_bits) - 1)
        };
        Ipv4Addr::from(hi)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        mask_u32(u32::from(addr), self.len) == u32::from(self.addr)
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub fn contains_net(&self, other: &Ipv4Net) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The immediate supernet (one bit shorter), or `None` for `/0`.
    pub fn supernet(&self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv4Net {
                addr: Ipv4Addr::from(mask_u32(u32::from(self.addr), len)),
                len,
            })
        }
    }

    /// Splits the prefix into its two halves, or errors on a `/32`.
    pub fn split(&self) -> Result<(Ipv4Net, Ipv4Net), NetError> {
        if self.len >= 32 {
            return Err(NetError::CannotSplit(self.to_string()));
        }
        let left = Ipv4Net {
            addr: self.addr,
            len: self.len + 1,
        };
        let right_bits = u32::from(self.addr) | (1u32 << (32 - (self.len as u32 + 1)));
        let right = Ipv4Net {
            addr: Ipv4Addr::from(right_bits),
            len: self.len + 1,
        };
        Ok((left, right))
    }

    /// Iterates over all sub-prefixes of length `new_len`.
    ///
    /// Returns an error if `new_len` is shorter than the current length or
    /// longer than 32.
    pub fn subnets(&self, new_len: u8) -> Result<Ipv4Subnets, NetError> {
        if new_len > 32 {
            return Err(NetError::PrefixLenOutOfRange {
                len: new_len,
                max: 32,
            });
        }
        if new_len < self.len {
            return Err(NetError::CannotSplit(format!(
                "{self} into shorter /{new_len}"
            )));
        }
        let count = 1u64 << (new_len - self.len) as u32;
        Ok(Ipv4Subnets {
            base: u32::from(self.addr),
            step: 1u64 << (32 - new_len as u32),
            len: new_len,
            next: 0,
            count,
        })
    }

    /// Iterates over every address in the prefix.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> {
        let base = u32::from(self.addr) as u64;
        let count = self.addr_count();
        (0..count).map(move |i| Ipv4Addr::from((base + i) as u32))
    }

    /// The `n`-th address in the prefix, wrapping modulo the prefix size.
    pub fn nth_addr(&self, n: u64) -> Ipv4Addr {
        let off = n % self.addr_count();
        Ipv4Addr::from((u32::from(self.addr) as u64 + off) as u32)
    }

    /// The raw `(bits, len)` pair the compiled prefix tables key on.
    pub fn bits(&self) -> (u32, u8) {
        (u32::from(self.addr), self.len)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv4Net {
    fmt_debug_as_display!();
}

impl FromStr for Ipv4Net {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| NetError::InvalidCidr(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| NetError::InvalidAddress(addr_s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| NetError::InvalidCidr(s.to_string()))?;
        Ipv4Net::new(addr, len)
    }
}

impl Ord for Ipv4Net {
    fn cmp(&self, other: &Self) -> Ordering {
        u32::from(self.addr)
            .cmp(&u32::from(other.addr))
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv4Net {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TryFrom<String> for Ipv4Net {
    type Error = NetError;
    fn try_from(s: String) -> Result<Self, NetError> {
        s.parse()
    }
}

impl From<Ipv4Net> for String {
    fn from(n: Ipv4Net) -> String {
        n.to_string()
    }
}

/// Iterator over fixed-length subnets of an [`Ipv4Net`].
#[derive(Debug, Clone)]
pub struct Ipv4Subnets {
    base: u32,
    step: u64,
    len: u8,
    next: u64,
    count: u64,
}

impl Iterator for Ipv4Subnets {
    type Item = Ipv4Net;

    fn next(&mut self) -> Option<Ipv4Net> {
        if self.next >= self.count {
            return None;
        }
        let bits = self.base as u64 + self.next * self.step;
        self.next += 1;
        Some(Ipv4Net {
            addr: Ipv4Addr::from(bits as u32),
            len: self.len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.count - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Ipv4Subnets {}

/// An IPv6 CIDR prefix in canonical form (host bits zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Ipv6Net {
    addr: Ipv6Addr,
    len: u8,
}

impl Ipv6Net {
    /// Creates a prefix from a network address and length, canonicalising the
    /// address. Returns an error when `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self, NetError> {
        if len > 128 {
            return Err(NetError::PrefixLenOutOfRange { len, max: 128 });
        }
        Ok(Self {
            addr: Ipv6Addr::from(mask_u128(u128::from(addr), len)),
            len,
        })
    }

    /// Creates a prefix with `len` clamped to 128 — the total counterpart
    /// of [`Ipv6Net::new`], for pre-validated or semantically capped lengths.
    pub fn clamped(addr: Ipv6Addr, len: u8) -> Self {
        let len = len.min(128);
        Self {
            addr: Ipv6Addr::from(mask_u128(u128::from(addr), len)),
            len,
        }
    }

    /// The single-address `/128` prefix for `addr`.
    pub fn host(addr: Ipv6Addr) -> Self {
        Self { addr, len: 128 }
    }

    /// Parses a compile-time prefix literal, panicking on invalid input.
    ///
    /// See [`Ipv4Net::literal`]; never call this on runtime input.
    #[expect(
        clippy::expect_used,
        reason = "documented literal-only constructor; the single sanctioned panic site for static v6 prefixes"
    )]
    pub fn literal(s: &str) -> Self {
        s.parse().expect("invalid Ipv6Net literal")
    }

    /// Network address (lowest address in the prefix).
    pub fn network(&self) -> Ipv6Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Always `false`: a prefix covers at least one address. Present for
    /// clippy's `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` only for `::/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        mask_u128(u128::from(addr), self.len) == u128::from(self.addr)
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub fn contains_net(&self, other: &Ipv6Net) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The immediate supernet (one bit shorter), or `None` for `::/0`.
    pub fn supernet(&self) -> Option<Ipv6Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv6Net {
                addr: Ipv6Addr::from(mask_u128(u128::from(self.addr), len)),
                len,
            })
        }
    }

    /// The `n`-th sub-prefix of length `new_len`, wrapping modulo the number
    /// of such subnets. Errors when `new_len` is out of range.
    pub fn nth_subnet(&self, new_len: u8, n: u128) -> Result<Ipv6Net, NetError> {
        if new_len > 128 {
            return Err(NetError::PrefixLenOutOfRange {
                len: new_len,
                max: 128,
            });
        }
        if new_len < self.len {
            return Err(NetError::CannotSplit(format!(
                "{self} into shorter /{new_len}"
            )));
        }
        let slots = if new_len - self.len >= 128 {
            u128::MAX
        } else {
            1u128 << (new_len - self.len) as u32
        };
        let idx = n % slots;
        let bits = u128::from(self.addr) | (idx << (128 - new_len as u32).min(127));
        Ipv6Net::new(Ipv6Addr::from(mask_u128(bits, new_len)), new_len)
    }

    /// The `n`-th address in the prefix (wrapping), for host allocation.
    pub fn nth_addr(&self, n: u128) -> Ipv6Addr {
        let host_bits = 128 - self.len as u32;
        let slots = if host_bits >= 128 {
            u128::MAX
        } else {
            1u128 << host_bits
        };
        Ipv6Addr::from(u128::from(self.addr) | (n % slots))
    }

    /// The raw `(bits, len)` pair the compiled prefix tables key on.
    pub fn bits(&self) -> (u128, u8) {
        (u128::from(self.addr), self.len)
    }
}

impl fmt::Display for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv6Net {
    fmt_debug_as_display!();
}

impl FromStr for Ipv6Net {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| NetError::InvalidCidr(s.to_string()))?;
        let addr: Ipv6Addr = addr_s
            .parse()
            .map_err(|_| NetError::InvalidAddress(addr_s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| NetError::InvalidCidr(s.to_string()))?;
        Ipv6Net::new(addr, len)
    }
}

impl Ord for Ipv6Net {
    fn cmp(&self, other: &Self) -> Ordering {
        u128::from(self.addr)
            .cmp(&u128::from(other.addr))
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv6Net {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TryFrom<String> for Ipv6Net {
    type Error = NetError;
    fn try_from(s: String) -> Result<Self, NetError> {
        s.parse()
    }
}

impl From<Ipv6Net> for String {
    fn from(n: Ipv6Net) -> String {
        n.to_string()
    }
}

/// A CIDR prefix of either address family.
///
/// Apple's egress list mixes IPv4 and IPv6 subnets in one file; [`IpNet`]
/// lets the egress analyses treat them uniformly while still splitting per
/// family where the paper does (Tables 3 and 4 report them separately).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum IpNet {
    /// An IPv4 prefix.
    V4(Ipv4Net),
    /// An IPv6 prefix.
    V6(Ipv6Net),
}

impl IpNet {
    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        match self {
            IpNet::V4(n) => n.len(),
            IpNet::V6(n) => n.len(),
        }
    }

    /// Always `false`: a prefix covers at least one address. Present for
    /// clippy's `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` for the all-zero default route of either family.
    pub fn is_default(&self) -> bool {
        match self {
            IpNet::V4(n) => n.is_default(),
            IpNet::V6(n) => n.is_default(),
        }
    }

    /// `true` when this is an IPv4 prefix.
    pub fn is_v4(&self) -> bool {
        matches!(self, IpNet::V4(_))
    }

    /// `true` when this is an IPv6 prefix.
    pub fn is_v6(&self) -> bool {
        matches!(self, IpNet::V6(_))
    }

    /// The network address as a family-erased [`IpAddr`].
    pub fn network(&self) -> IpAddr {
        match self {
            IpNet::V4(n) => IpAddr::V4(n.network()),
            IpNet::V6(n) => IpAddr::V6(n.network()),
        }
    }

    /// Whether `addr` falls inside this prefix. Always `false` across
    /// families.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self, addr) {
            (IpNet::V4(n), IpAddr::V4(a)) => n.contains(a),
            (IpNet::V6(n), IpAddr::V6(a)) => n.contains(a),
            _ => false,
        }
    }

    /// Whether `other` is fully contained in this prefix (same family only).
    pub fn contains_net(&self, other: &IpNet) -> bool {
        match (self, other) {
            (IpNet::V4(a), IpNet::V4(b)) => a.contains_net(b),
            (IpNet::V6(a), IpNet::V6(b)) => a.contains_net(b),
            _ => false,
        }
    }

    /// Borrows the IPv4 prefix, if this is one.
    pub fn as_v4(&self) -> Option<&Ipv4Net> {
        match self {
            IpNet::V4(n) => Some(n),
            IpNet::V6(_) => None,
        }
    }

    /// Borrows the IPv6 prefix, if this is one.
    pub fn as_v6(&self) -> Option<&Ipv6Net> {
        match self {
            IpNet::V6(n) => Some(n),
            IpNet::V4(_) => None,
        }
    }
}

impl fmt::Display for IpNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpNet::V4(n) => n.fmt(f),
            IpNet::V6(n) => n.fmt(f),
        }
    }
}

impl fmt::Debug for IpNet {
    fmt_debug_as_display!();
}

impl FromStr for IpNet {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            Ok(IpNet::V6(s.parse()?))
        } else {
            Ok(IpNet::V4(s.parse()?))
        }
    }
}

impl From<Ipv4Net> for IpNet {
    fn from(n: Ipv4Net) -> Self {
        IpNet::V4(n)
    }
}

impl From<Ipv6Net> for IpNet {
    fn from(n: Ipv6Net) -> Self {
        IpNet::V6(n)
    }
}

impl TryFrom<String> for IpNet {
    type Error = NetError;
    fn try_from(s: String) -> Result<Self, NetError> {
        s.parse()
    }
}

impl From<IpNet> for String {
    fn from(n: IpNet) -> String {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    fn v6(s: &str) -> Ipv6Net {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        let n = Ipv4Net::new(Ipv4Addr::new(10, 1, 2, 3), 8).unwrap();
        assert_eq!(n.to_string(), "10.0.0.0/8");
        let n6 = Ipv6Net::new("2001:db8::dead:beef".parse().unwrap(), 32).unwrap();
        assert_eq!(n6.to_string(), "2001:db8::/32");
    }

    #[test]
    fn rejects_out_of_range_lengths() {
        assert!(Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 33).is_err());
        assert!(Ipv6Net::new(Ipv6Addr::UNSPECIFIED, 129).is_err());
        assert!("1.2.3.0/33".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "0.0.0.0/0",
            "17.0.0.0/8",
            "203.0.113.0/24",
            "198.51.100.7/32",
        ] {
            assert_eq!(v4(s).to_string(), s);
        }
        for s in ["::/0", "2620:149::/32", "2001:db8:1:2::/64"] {
            assert_eq!(v6(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/ab".parse::<Ipv4Net>().is_err());
        assert!("zz/24".parse::<Ipv4Net>().is_err());
        assert!("::1".parse::<Ipv6Net>().is_err());
    }

    #[test]
    fn contains_addr() {
        let n = v4("192.0.2.0/24");
        assert!(n.contains(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!n.contains(Ipv4Addr::new(192, 0, 3, 0)));
        let d = v4("0.0.0.0/0");
        assert!(d.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    fn contains_net_ordering() {
        assert!(v4("10.0.0.0/8").contains_net(&v4("10.5.0.0/16")));
        assert!(v4("10.0.0.0/8").contains_net(&v4("10.0.0.0/8")));
        assert!(!v4("10.5.0.0/16").contains_net(&v4("10.0.0.0/8")));
        assert!(!v4("10.0.0.0/8").contains_net(&v4("11.0.0.0/16")));
        assert!(v6("2620:149::/32").contains_net(&v6("2620:149:a::/48")));
    }

    #[test]
    fn broadcast_and_count() {
        let n = v4("192.0.2.0/24");
        assert_eq!(n.broadcast(), Ipv4Addr::new(192, 0, 2, 255));
        assert_eq!(n.addr_count(), 256);
        assert_eq!(v4("0.0.0.0/0").addr_count(), 1 << 32);
        assert_eq!(v4("1.1.1.1/32").broadcast(), Ipv4Addr::new(1, 1, 1, 1));
    }

    #[test]
    fn split_halves() {
        let (l, r) = v4("10.0.0.0/8").split().unwrap();
        assert_eq!(l, v4("10.0.0.0/9"));
        assert_eq!(r, v4("10.128.0.0/9"));
        assert!(v4("1.2.3.4/32").split().is_err());
    }

    #[test]
    fn supernet_chain_reaches_default() {
        let mut n = v4("203.0.113.64/26");
        let mut steps = 0;
        while let Some(s) = n.supernet() {
            assert!(s.contains_net(&n));
            n = s;
            steps += 1;
        }
        assert_eq!(steps, 26);
        assert!(n.is_default());
    }

    #[test]
    fn subnets_iterates_in_order() {
        let subs: Vec<_> = v4("198.51.100.0/24").subnets(26).unwrap().collect();
        assert_eq!(
            subs,
            vec![
                v4("198.51.100.0/26"),
                v4("198.51.100.64/26"),
                v4("198.51.100.128/26"),
                v4("198.51.100.192/26"),
            ]
        );
        assert_eq!(v4("10.0.0.0/8").subnets(24).unwrap().len(), 65536);
        assert!(v4("10.0.0.0/24").subnets(8).is_err());
    }

    #[test]
    fn subnets_same_len_is_identity() {
        let n = v4("10.0.0.0/8");
        let subs: Vec<_> = n.subnets(8).unwrap().collect();
        assert_eq!(subs, vec![n]);
    }

    #[test]
    fn addrs_enumerates_all() {
        let addrs: Vec<_> = v4("192.0.2.252/30").addrs().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], Ipv4Addr::new(192, 0, 2, 252));
        assert_eq!(addrs[3], Ipv4Addr::new(192, 0, 2, 255));
    }

    #[test]
    fn nth_addr_wraps() {
        let n = v4("192.0.2.0/30");
        assert_eq!(n.nth_addr(0), Ipv4Addr::new(192, 0, 2, 0));
        assert_eq!(n.nth_addr(5), Ipv4Addr::new(192, 0, 2, 1));
        let n6 = v6("2001:db8::/126");
        assert_eq!(n6.nth_addr(4), "2001:db8::".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn v6_nth_subnet() {
        let n = v6("2001:db8::/32");
        let s0 = n.nth_subnet(48, 0).unwrap();
        let s1 = n.nth_subnet(48, 1).unwrap();
        assert_eq!(s0, v6("2001:db8::/48"));
        assert_eq!(s1, v6("2001:db8:1::/48"));
        assert!(n.contains_net(&n.nth_subnet(64, 123456).unwrap()));
        assert!(n.nth_subnet(16, 0).is_err());
    }

    #[test]
    fn ipnet_family_dispatch() {
        let a: IpNet = "10.0.0.0/8".parse().unwrap();
        let b: IpNet = "2620:149::/32".parse().unwrap();
        assert!(a.is_v4() && !a.is_v6());
        assert!(b.is_v6() && !b.is_v4());
        assert!(a.contains("10.1.2.3".parse().unwrap()));
        assert!(!a.contains("2620:149::1".parse().unwrap()));
        assert!(!a.contains_net(&b));
        assert_eq!(a.as_v4().unwrap().len(), 8);
        assert!(b.as_v4().is_none());
    }

    #[test]
    fn ordering_is_by_address_then_len() {
        let mut v = vec![v4("10.0.0.0/16"), v4("9.0.0.0/8"), v4("10.0.0.0/8")];
        v.sort();
        assert_eq!(
            v,
            vec![v4("9.0.0.0/8"), v4("10.0.0.0/8"), v4("10.0.0.0/16")]
        );
    }

    #[test]
    fn serde_as_string() {
        let n: IpNet = "203.0.113.0/24".parse().unwrap();
        let j = serde_json::to_string(&n).unwrap();
        assert_eq!(j, "\"203.0.113.0/24\"");
        let back: IpNet = serde_json::from_str(&j).unwrap();
        assert_eq!(back, n);
        assert!(serde_json::from_str::<IpNet>("\"nope\"").is_err());
    }

    #[test]
    fn slash24_of_covers_addr() {
        let a = Ipv4Addr::new(100, 64, 3, 77);
        let n = Ipv4Net::slash24_of(a);
        assert_eq!(n.to_string(), "100.64.3.0/24");
        assert!(n.contains(a));
    }
}

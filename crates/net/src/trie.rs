//! A binary prefix trie with longest-prefix-match lookup.
//!
//! [`PrefixTrie`] maps CIDR prefixes of either family to values and answers
//! the three questions the reproduction keeps asking:
//!
//! * *exact*: is this precise prefix present?
//! * *longest match*: which stored prefix covers this address?
//! * *covering set*: every stored prefix that contains an address
//!   (ECS scope bookkeeping).
//!
//! The trie stores IPv4 and IPv6 under separate roots, so cross-family
//! lookups can never alias. Bits are walked most-significant first; the
//! structure is a plain pointer trie — simple, allocation-per-node, and fast
//! enough that the RIB ablation bench shows it beating a linear scan by
//! orders of magnitude on realistic table sizes. The large load-once tables
//! (RIB, geolocation) live in a [`PrefixTable`](crate::PrefixTable)
//! instead; the trie serves small mutable indexes (scan scopes, overlay
//! patches, egress indexes before [`freeze`](PrefixTrie::freeze)) and is
//! the reference implementation the compiled tables are tested against.

use std::net::IpAddr;

use crate::prefix::{IpNet, Ipv4Net, Ipv6Net};

#[derive(Debug, Clone)]
struct Node<V> {
    /// Child on the 0 bit.
    zero: Option<Box<Node<V>>>,
    /// Child on the 1 bit.
    one: Option<Box<Node<V>>>,
    /// Value stored at this depth, together with the original prefix.
    value: Option<(IpNet, V)>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            zero: None,
            one: None,
            value: None,
        }
    }

    fn child(&self, one: bool) -> Option<&Node<V>> {
        if one {
            self.one.as_deref()
        } else {
            self.zero.as_deref()
        }
    }

    fn child_mut(&mut self, one: bool) -> Option<&mut Node<V>> {
        if one {
            self.one.as_deref_mut()
        } else {
            self.zero.as_deref_mut()
        }
    }

    fn child_slot_mut(&mut self, one: bool) -> &mut Option<Box<Node<V>>> {
        if one {
            &mut self.one
        } else {
            &mut self.zero
        }
    }
}

/// Normalised key: prefix bits left-aligned in a `u128`, plus length.
#[derive(Clone, Copy)]
struct Key {
    bits: u128,
    len: u8,
    v4: bool,
}

impl Key {
    fn of_net(net: &IpNet) -> Key {
        match net {
            IpNet::V4(n) => {
                let (bits, len) = n.bits();
                Key {
                    bits: (bits as u128) << 96,
                    len,
                    v4: true,
                }
            }
            IpNet::V6(n) => {
                let (bits, len) = n.bits();
                Key {
                    bits,
                    len,
                    v4: false,
                }
            }
        }
    }

    fn of_addr(addr: &IpAddr) -> Key {
        match addr {
            IpAddr::V4(a) => Key {
                bits: (u32::from(*a) as u128) << 96,
                len: 32,
                v4: true,
            },
            IpAddr::V6(a) => Key {
                bits: u128::from(*a),
                len: 128,
                v4: false,
            },
        }
    }

    /// Bit at depth `d` (0 = most significant).
    #[inline]
    fn bit(&self, d: u8) -> bool {
        (self.bits >> (127 - d as u32)) & 1 == 1
    }
}

/// A map from CIDR prefixes to values with longest-prefix-match lookup.
///
/// ```
/// use tectonic_net::PrefixTrie;
///
/// let mut rib = PrefixTrie::new();
/// rib.insert("17.0.0.0/8".parse::<tectonic_net::IpNet>().unwrap(), "apple");
/// rib.insert("17.5.0.0/16".parse::<tectonic_net::IpNet>().unwrap(), "apple-dc");
/// let (prefix, value) = rib.longest_match("17.5.1.2".parse().unwrap()).unwrap();
/// assert_eq!(prefix.to_string(), "17.5.0.0/16");
/// assert_eq!(*value, "apple-dc");
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root_v4: Node<V>,
    root_v6: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root_v4: Node::new(),
            root_v6: Node::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes (both families).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn root(&self, v4: bool) -> &Node<V> {
        if v4 {
            &self.root_v4
        } else {
            &self.root_v6
        }
    }

    fn root_mut(&mut self, v4: bool) -> &mut Node<V> {
        if v4 {
            &mut self.root_v4
        } else {
            &mut self.root_v6
        }
    }

    /// Inserts `value` under `net`, returning the previous value if the
    /// exact prefix was already present.
    pub fn insert(&mut self, net: impl Into<IpNet>, value: V) -> Option<V> {
        let net = net.into();
        let key = Key::of_net(&net);
        let mut node = self.root_mut(key.v4);
        for d in 0..key.len {
            let b = key.bit(d);
            node = node
                .child_slot_mut(b)
                .get_or_insert_with(|| Box::new(Node::new()));
        }
        let prev = node.value.replace((net, value));
        match prev {
            Some((_, v)) => Some(v),
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Looks up the exact prefix.
    pub fn exact(&self, net: &IpNet) -> Option<&V> {
        let key = Key::of_net(net);
        let mut node = self.root(key.v4);
        for d in 0..key.len {
            node = node.child(key.bit(d))?;
        }
        node.value.as_ref().map(|(_, v)| v)
    }

    /// Mutable exact-prefix lookup.
    pub fn exact_mut(&mut self, net: &IpNet) -> Option<&mut V> {
        let key = Key::of_net(net);
        let mut node = self.root_mut(key.v4);
        for d in 0..key.len {
            node = node.child_mut(key.bit(d))?;
        }
        node.value.as_mut().map(|(_, v)| v)
    }

    /// Whether the exact prefix is stored.
    pub fn contains(&self, net: &IpNet) -> bool {
        self.exact(net).is_some()
    }

    /// Removes the exact prefix, returning its value.
    ///
    /// Nodes are not pruned; for the simulation's insert-heavy workloads the
    /// memory difference is irrelevant and removals are rare (BGP withdraws).
    pub fn remove(&mut self, net: &IpNet) -> Option<V> {
        let key = Key::of_net(net);
        let mut node = self.root_mut(key.v4);
        for d in 0..key.len {
            node = node.child_mut(key.bit(d))?;
        }
        let prev = node.value.take();
        prev.map(|(_, v)| {
            self.len -= 1;
            v
        })
    }

    /// Longest-prefix match for an address: the most specific stored prefix
    /// containing `addr`, with its value.
    pub fn longest_match(&self, addr: IpAddr) -> Option<(IpNet, &V)> {
        let key = Key::of_addr(&addr);
        let mut node = self.root(key.v4);
        let mut best: Option<(IpNet, &V)> = node.value.as_ref().map(|(n, v)| (*n, v));
        for d in 0..key.len {
            match node.child(key.bit(d)) {
                Some(child) => {
                    node = child;
                    if let Some((n, v)) = node.value.as_ref() {
                        best = Some((*n, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Longest-prefix match for a whole prefix: the most specific stored
    /// prefix that fully contains `net`.
    pub fn longest_match_net(&self, net: &IpNet) -> Option<(IpNet, &V)> {
        let key = Key::of_net(net);
        let mut node = self.root(key.v4);
        let mut best: Option<(IpNet, &V)> = node.value.as_ref().map(|(n, v)| (*n, v));
        for d in 0..key.len {
            match node.child(key.bit(d)) {
                Some(child) => {
                    node = child;
                    if let Some((n, v)) = node.value.as_ref() {
                        best = Some((*n, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// All stored prefixes containing `addr`, shortest first.
    pub fn covering(&self, addr: IpAddr) -> Vec<(IpNet, &V)> {
        let key = Key::of_addr(&addr);
        let mut node = self.root(key.v4);
        let mut out = Vec::new();
        if let Some((n, v)) = node.value.as_ref() {
            out.push((*n, v));
        }
        for d in 0..key.len {
            match node.child(key.bit(d)) {
                Some(child) => {
                    node = child;
                    if let Some((n, v)) = node.value.as_ref() {
                        out.push((*n, v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Iterates over all `(prefix, value)` pairs, IPv4 first, in bit order.
    pub fn iter(&self) -> impl Iterator<Item = (IpNet, &V)> {
        // lintkit: allow(alloc-in-hot-path) -- reporting/setup code; the hot-path edge is a name collision (the graph links `labels.iter()` in the DNS encoder to this inherent `iter`)
        let mut out = Vec::with_capacity(self.len);
        collect(&self.root_v4, &mut out);
        collect(&self.root_v6, &mut out);
        out.into_iter()
    }

    /// Convenience: iterate only the IPv4 prefixes.
    pub fn iter_v4(&self) -> impl Iterator<Item = (Ipv4Net, &V)> {
        let mut out = Vec::new();
        collect(&self.root_v4, &mut out);
        out.into_iter().filter_map(|(n, v)| match n {
            IpNet::V4(n4) => Some((n4, v)),
            IpNet::V6(_) => None,
        })
    }

    /// Convenience: iterate only the IPv6 prefixes.
    pub fn iter_v6(&self) -> impl Iterator<Item = (Ipv6Net, &V)> {
        let mut out = Vec::new();
        collect(&self.root_v6, &mut out);
        out.into_iter().filter_map(|(n, v)| match n {
            IpNet::V6(n6) => Some((n6, v)),
            IpNet::V4(_) => None,
        })
    }
}

fn collect<'a, V>(node: &'a Node<V>, out: &mut Vec<(IpNet, &'a V)>) {
    if let Some((n, v)) = node.value.as_ref() {
        out.push((*n, v));
    }
    for child in [node.zero.as_deref(), node.one.as_deref()]
        .into_iter()
        .flatten()
    {
        collect(child, out);
    }
}

impl<V> FromIterator<(IpNet, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (IpNet, V)>>(iter: T) -> Self {
        let mut t = PrefixTrie::new();
        for (n, v) in iter {
            t.insert(n, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    fn net(s: &str) -> IpNet {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_exact() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(net("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(net("10.0.0.0/16"), 2), None);
        assert_eq!(t.insert(net("10.0.0.0/8"), 3), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.exact(&net("10.0.0.0/8")), Some(&3));
        assert_eq!(t.exact(&net("10.0.0.0/16")), Some(&2));
        assert_eq!(t.exact(&net("10.0.0.0/24")), None);
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(net("0.0.0.0/0"), "default");
        t.insert(net("17.0.0.0/8"), "apple8");
        t.insert(net("17.5.0.0/16"), "apple16");
        let (n, v) = t.longest_match(addr("17.5.1.2")).unwrap();
        assert_eq!(n, net("17.5.0.0/16"));
        assert_eq!(*v, "apple16");
        let (n, v) = t.longest_match(addr("17.9.9.9")).unwrap();
        assert_eq!(n, net("17.0.0.0/8"));
        assert_eq!(*v, "apple8");
        let (n, _) = t.longest_match(addr("8.8.8.8")).unwrap();
        assert_eq!(n, net("0.0.0.0/0"));
    }

    #[test]
    fn no_match_without_default() {
        let mut t = PrefixTrie::new();
        t.insert(net("192.0.2.0/24"), ());
        assert!(t.longest_match(addr("198.51.100.1")).is_none());
    }

    #[test]
    fn families_do_not_alias() {
        let mut t = PrefixTrie::new();
        // ::/96-embedded bit patterns must not collide with IPv4.
        t.insert(net("10.0.0.0/8"), "v4");
        t.insert(net("a00::/8"), "v6");
        assert_eq!(t.longest_match(addr("10.1.1.1")).unwrap().1, &"v4");
        assert_eq!(t.longest_match(addr("a00::1")).unwrap().1, &"v6");
        // The v4-mapped v6 address must not hit the v4 entry.
        assert!(t.longest_match(addr("::ffff:10.0.0.1")).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn default_routes_per_family() {
        let mut t = PrefixTrie::new();
        t.insert(net("0.0.0.0/0"), "v4d");
        t.insert(net("::/0"), "v6d");
        assert_eq!(t.longest_match(addr("1.2.3.4")).unwrap().1, &"v4d");
        assert_eq!(t.longest_match(addr("2001:db8::1")).unwrap().1, &"v6d");
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut t = PrefixTrie::new();
        t.insert(net("10.0.0.0/8"), 8);
        t.insert(net("10.0.0.0/16"), 16);
        assert_eq!(t.remove(&net("10.0.0.0/16")), Some(16));
        assert_eq!(t.remove(&net("10.0.0.0/16")), None);
        assert_eq!(t.len(), 1);
        let (n, _) = t.longest_match(addr("10.0.0.1")).unwrap();
        assert_eq!(n, net("10.0.0.0/8"));
    }

    #[test]
    fn covering_lists_shortest_first() {
        let mut t = PrefixTrie::new();
        t.insert(net("0.0.0.0/0"), 0);
        t.insert(net("100.0.0.0/8"), 8);
        t.insert(net("100.64.0.0/10"), 10);
        t.insert(net("100.64.3.0/24"), 24);
        t.insert(net("200.0.0.0/8"), 99);
        let cov: Vec<u8> = t
            .covering(addr("100.64.3.9"))
            .into_iter()
            .map(|(_, v)| *v as u8)
            .collect();
        assert_eq!(cov, vec![0, 8, 10, 24]);
    }

    #[test]
    fn longest_match_net_containment() {
        let mut t = PrefixTrie::new();
        t.insert(net("203.0.0.0/8"), "short");
        t.insert(net("203.0.113.0/24"), "long");
        let (n, v) = t.longest_match_net(&net("203.0.113.128/25")).unwrap();
        assert_eq!(n, net("203.0.113.0/24"));
        assert_eq!(*v, "long");
        // A /16 is only contained by the /8.
        let (n, _) = t.longest_match_net(&net("203.0.0.0/16")).unwrap();
        assert_eq!(n, net("203.0.0.0/8"));
        // Equal prefix matches itself.
        let (n, _) = t.longest_match_net(&net("203.0.113.0/24")).unwrap();
        assert_eq!(n, net("203.0.113.0/24"));
    }

    #[test]
    fn iter_yields_everything() {
        let nets = [
            "0.0.0.0/0",
            "17.0.0.0/8",
            "2620:149::/32",
            "17.5.0.0/16",
            "::/0",
        ];
        let t: PrefixTrie<usize> = nets.iter().enumerate().map(|(i, s)| (net(s), i)).collect();
        assert_eq!(t.len(), nets.len());
        let mut seen: Vec<String> = t.iter().map(|(n, _)| n.to_string()).collect();
        seen.sort();
        let mut want: Vec<String> = nets.iter().map(|s| net(s).to_string()).collect();
        want.sort();
        assert_eq!(seen, want);
        assert_eq!(t.iter_v4().count(), 3);
        assert_eq!(t.iter_v6().count(), 2);
    }

    #[test]
    fn exact_mut_updates_in_place() {
        let mut t = PrefixTrie::new();
        t.insert(net("192.0.2.0/24"), 1);
        *t.exact_mut(&net("192.0.2.0/24")).unwrap() += 10;
        assert_eq!(t.exact(&net("192.0.2.0/24")), Some(&11));
        assert!(t.exact_mut(&net("192.0.3.0/24")).is_none());
    }

    #[test]
    fn host_prefixes_work() {
        let mut t = PrefixTrie::new();
        t.insert(net("198.51.100.7/32"), "host");
        t.insert(net("2001:db8::1/128"), "host6");
        assert_eq!(t.longest_match(addr("198.51.100.7")).unwrap().1, &"host");
        assert!(t.longest_match(addr("198.51.100.8")).is_none());
        assert_eq!(t.longest_match(addr("2001:db8::1")).unwrap().1, &"host6");
    }
}

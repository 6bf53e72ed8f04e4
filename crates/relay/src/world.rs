//! The client-side Internet: eyeball ASes and the service split.
//!
//! Table 2 of the paper classifies client ASes by which ingress operator
//! serves them: ~34.6 k ASes exclusively by Akamai&#8239;PR (1.1 M /24s,
//! 994 M users), ~20.8 k exclusively by Apple (0.2 M /24s, 105 M users),
//! and ~17.3 k — the large eyeball networks — by *both*, split per subnet
//! with Apple taking 76 % of their /24s. [`ClientWorld::generate`] builds a
//! synthetic Internet with exactly that structure; the ECS zone consults it
//! to decide which operator answers a given client subnet.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use serde::{Deserialize, Serialize};
use tectonic_net::{Asn, FrozenLpm, IpNet, Ipv4Net, SimRng};

use tectonic_geo::country::{all_countries, CountryCode};

use crate::config::ClientWorldConfig;

/// Which ingress operator serves an AS.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ServiceSplit {
    /// All the AS's subnets are served by Akamai&#8239;PR relays.
    AkamaiOnly,
    /// All the AS's subnets are served by Apple relays.
    AppleOnly,
    /// Subnets are split between the operators (Apple ≈ 76 %).
    Both,
}

/// One client (eyeball) AS.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClientAs {
    /// The AS number (synthetic, from 100 000 upward).
    pub asn: Asn,
    /// Service-split category.
    pub category: ServiceSplit,
    /// Country the AS predominantly serves.
    pub cc: CountryCode,
    /// Number of routed /24 subnets.
    pub slash24_count: u64,
    /// Estimated users (APNIC-style).
    pub users: u64,
    /// The announced CIDRs covering exactly `slash24_count` /24s.
    pub prefixes: Vec<Ipv4Net>,
}

impl ClientAs {
    /// Iterates the AS's /24 subnets, in address order.
    pub fn slash24s(&self) -> impl Iterator<Item = Ipv4Net> + '_ {
        self.prefixes
            .iter()
            .flat_map(|p| p.subnets(24).into_iter().flatten())
    }

    /// A representative host address (used for resolvers and probes).
    pub fn host_addr(&self, n: u64) -> Ipv4Addr {
        // Generated ASes always carry at least one prefix; an empty one
        // falls back to TEST-NET-1 rather than panicking.
        let first = self
            .prefixes
            .first()
            .copied()
            .unwrap_or_else(|| Ipv4Net::slash24_of(Ipv4Addr::new(192, 0, 2, 0)));
        // Skip .0 so the address does not collide with a subnet base.
        first.nth_addr(1 + n)
    }
}

/// /8 blocks available for client allocation: everything unicast except
/// reserved ranges and the /8s hosting relay/egress pools.
const CLIENT_SLASH8S: &[u8] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 24, 25, 26, 27, 28, 29,
    30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
    54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77,
    78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 101,
    102, 103, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121,
    122, 123, 124, 125, 126, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141,
    142, 143, 144, 145, 147, 148, 149, 150, 151, 152, 153, 154, 155, 156, 157, 158, 159, 160, 161,
    162, 163, 164, 165, 166, 167, 168, 170, 171, 173, 174, 175, 176, 177, 178, 179, 180, 181, 182,
    183, 184, 185, 186, 187, 188, 189, 190, 191, 193, 194, 195, 196, 197, 199, 200, 201, 202, 204,
    205, 206, 207, 208, 209, 210, 211, 212, 213, 214, 215, 216, 217, 218, 219, 220, 221, 222, 223,
];

/// Maps a global /24 index to its network address.
fn slash24_for_index(idx: u64) -> Option<Ipv4Net> {
    let slash8 = CLIENT_SLASH8S.get((idx / 65_536) as usize)?;
    let within = (idx % 65_536) as u32;
    let bits = (u32::from(*slash8) << 24) | (within << 8);
    Some(Ipv4Net::slash24_of(Ipv4Addr::from(bits)))
}

/// Decomposes a /24-index range `[start, start+count)` into minimal CIDRs.
fn range_to_cidrs(start: u64, count: u64) -> Vec<Ipv4Net> {
    let mut out = Vec::new();
    let mut cur = start;
    let mut remaining = count;
    while remaining > 0 {
        // Largest aligned power-of-two block at `cur` not exceeding
        // `remaining` and not crossing a /8 boundary of the index space.
        let align = if cur == 0 { 64 } else { cur.trailing_zeros() };
        let mut block_log = align.min(63 - remaining.leading_zeros());
        // Do not cross the 65 536-/24 boundary of one /8 slot.
        let to_boundary = 65_536 - (cur % 65_536);
        while (1u64 << block_log) > to_boundary {
            block_log -= 1;
        }
        let block = 1u64 << block_log;
        let Some(base) = slash24_for_index(cur) else {
            break; // caller asked past the allocatable space; asserted above
        };
        let len = 24 - block_log as u8;
        out.push(Ipv4Net::clamped(base.network(), len));
        cur += block;
        remaining -= block;
    }
    out
}

/// The synthesised client Internet.
#[derive(Debug)]
pub struct ClientWorld {
    ases: Vec<ClientAs>,
    by_asn: HashMap<Asn, usize>,
    /// Maps announced client CIDRs to indices into `ases`. The world is
    /// immutable once generated, so the index is compiled once from its
    /// pairs.
    lpm: FrozenLpm<usize>,
    apple_share_in_both: f64,
    split_seed: u64,
}

impl ClientWorld {
    /// Generates the client world from a config.
    ///
    /// Subnet counts per AS are heavy-tailed within each category and then
    /// adjusted so the category totals are met exactly. Address space is
    /// assigned contiguously per AS from the non-reserved /8 pool.
    pub fn generate(rng: &SimRng, config: &ClientWorldConfig) -> ClientWorld {
        let mut gen_rng = rng.fork("client-world");
        let countries = all_countries();
        let cc_weights: Vec<f64> = countries.iter().map(|c| c.weight).collect();

        let capacity = CLIENT_SLASH8S.len() as u64 * 65_536;
        assert!(
            config.total_slash24() <= capacity,
            "client world ({} /24s) exceeds allocatable space ({capacity})",
            config.total_slash24()
        );

        let mut ases = Vec::with_capacity(config.total_ases());
        let mut cursor: u64 = 0;
        let mut next_asn: u32 = 100_000;

        let mut build_category = |category: ServiceSplit,
                                  as_count: usize,
                                  slash24_total: u64,
                                  user_total: u64,
                                  rng: &mut SimRng,
                                  ases: &mut Vec<ClientAs>,
                                  cursor: &mut u64| {
            if as_count == 0 {
                return;
            }
            // Heavy-tailed subnet counts per AS, normalised to the total.
            let raw: Vec<f64> = (0..as_count).map(|_| rng.pareto(1.0, 1.1)).collect();
            let raw_total: f64 = raw.iter().sum();
            let mut counts: Vec<u64> = raw
                .iter()
                .map(|r| ((r / raw_total) * slash24_total as f64).floor().max(1.0) as u64)
                .collect();
            // Fix rounding drift on the largest AS.
            let assigned: u64 = counts.iter().sum();
            let largest = counts
                .iter_mut()
                .zip(&raw)
                .max_by(|(_, a), (_, b)| a.total_cmp(b));
            if let Some((largest, _)) = largest {
                if assigned < slash24_total {
                    *largest += slash24_total - assigned;
                } else if assigned > slash24_total {
                    let excess = assigned - slash24_total;
                    *largest = largest.saturating_sub(excess).max(1);
                }
            }
            // Users proportional to subnet counts within the category.
            let count_total: u64 = counts.iter().sum();
            for count in counts {
                let Some(country) = countries.get(rng.pick_weighted(&cc_weights).unwrap_or(0))
                else {
                    continue;
                };
                let users = ((count as f64 / count_total as f64) * user_total as f64)
                    .round()
                    .max(1.0) as u64;
                let prefixes = range_to_cidrs(*cursor, count);
                ases.push(ClientAs {
                    asn: Asn(next_asn),
                    category,
                    cc: country.code,
                    slash24_count: count,
                    users,
                    prefixes,
                });
                next_asn += 1;
                *cursor += count;
            }
        };

        build_category(
            ServiceSplit::AkamaiOnly,
            config.akamai_only_ases,
            config.akamai_only_slash24,
            config.akamai_only_users,
            &mut gen_rng,
            &mut ases,
            &mut cursor,
        );
        build_category(
            ServiceSplit::AppleOnly,
            config.apple_only_ases,
            config.apple_only_slash24,
            config.apple_only_users,
            &mut gen_rng,
            &mut ases,
            &mut cursor,
        );
        build_category(
            ServiceSplit::Both,
            config.both_ases,
            config.both_slash24,
            config.both_users,
            &mut gen_rng,
            &mut ases,
            &mut cursor,
        );

        let mut pairs = Vec::new();
        let mut by_asn = HashMap::with_capacity(ases.len());
        for (i, client_as) in ases.iter().enumerate() {
            by_asn.insert(client_as.asn, i);
            pairs.extend(client_as.prefixes.iter().map(|p| (IpNet::V4(*p), i)));
        }
        ClientWorld {
            ases,
            by_asn,
            lpm: FrozenLpm::from_pairs(pairs),
            apple_share_in_both: config.both_apple_subnet_share,
            split_seed: gen_rng.next_u64_raw(),
        }
    }

    /// All client ASes.
    pub fn ases(&self) -> &[ClientAs] {
        &self.ases
    }

    /// A client AS by number.
    pub fn by_asn(&self, asn: Asn) -> Option<&ClientAs> {
        self.by_asn.get(&asn).and_then(|i| self.ases.get(*i))
    }

    /// The client AS owning an address, if any.
    pub fn as_of_addr(&self, addr: IpAddr) -> Option<&ClientAs> {
        self.lpm
            .longest_match(addr)
            .and_then(|(_, i)| self.ases.get(*i))
    }

    /// The announced client CIDR covering `addr`, if any.
    pub fn prefix_of_addr(&self, addr: IpAddr) -> Option<Ipv4Net> {
        self.lpm
            .longest_match(addr)
            .and_then(|(net, _)| net.as_v4().copied())
    }

    /// Which ingress operator serves this client /24 — the quantity Table 2
    /// aggregates. `None` for addresses outside the client world.
    pub fn serving_operator(&self, subnet: Ipv4Net) -> Option<Asn> {
        let client_as = self.as_of_addr(IpAddr::V4(subnet.network()))?;
        Some(match client_as.category {
            ServiceSplit::AkamaiOnly => Asn::AKAMAI_PR,
            ServiceSplit::AppleOnly => Asn::APPLE,
            ServiceSplit::Both => self.split_operator(subnet),
        })
    }

    /// The per-subnet operator inside a "both" AS: a keyed hash of the /24
    /// lands on Apple with probability ≈ 76 %.
    pub fn split_operator(&self, subnet: Ipv4Net) -> Asn {
        let key = u32::from(subnet.network()) as u64 ^ self.split_seed;
        let mut h = key;
        // SplitMix64 finaliser as a stateless hash.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.apple_share_in_both {
            Asn::APPLE
        } else {
            Asn::AKAMAI_PR
        }
    }

    /// Total /24 subnets across the world.
    pub fn total_slash24(&self) -> u64 {
        self.ases.iter().map(|a| a.slash24_count).sum()
    }

    /// All announced client CIDRs with their AS, for RIB population.
    pub fn announcements(&self) -> impl Iterator<Item = (Ipv4Net, Asn)> + '_ {
        self.ases
            .iter()
            .flat_map(|a| a.prefixes.iter().map(move |p| (*p, a.asn)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ClientWorldConfig {
        ClientWorldConfig::paper().scaled_down(256)
    }

    fn world() -> ClientWorld {
        ClientWorld::generate(&SimRng::new(42), &small_config())
    }

    #[test]
    fn range_to_cidrs_covers_exactly() {
        for (start, count) in [(0u64, 1u64), (3, 5), (0, 256), (100, 613), (65_530, 12)] {
            let cidrs = range_to_cidrs(start, count);
            let total: u64 = cidrs.iter().map(|c| 1u64 << (24 - c.len() as u32)).sum();
            assert_eq!(total, count, "range ({start},{count})");
            // No overlaps: successive CIDRs are strictly increasing.
            for w in cidrs.windows(2) {
                assert!(w[0] < w[1]);
                assert!(!w[0].contains_net(&w[1]));
            }
        }
    }

    #[test]
    fn range_to_cidrs_is_minimal_for_aligned_ranges() {
        assert_eq!(range_to_cidrs(0, 256).len(), 1);
        assert_eq!(range_to_cidrs(0, 256)[0].len(), 16);
        assert_eq!(range_to_cidrs(0, 1)[0].len(), 24);
    }

    #[test]
    fn slash24_index_mapping_skips_reserved() {
        let first = slash24_for_index(0).unwrap();
        assert_eq!(first.to_string(), "1.0.0.0/24");
        // Index 9 × 65536 lands in the 11.0.0.0/8 slot (10/8 is skipped).
        let net = slash24_for_index(9 * 65_536).unwrap();
        assert_eq!(net.to_string(), "11.0.0.0/24");
        assert!(slash24_for_index(u64::MAX / 2).is_none());
    }

    #[test]
    fn category_totals_match_config() {
        let cfg = small_config();
        let w = world();
        let total_for = |cat: ServiceSplit| -> (usize, u64) {
            let ases: Vec<_> = w.ases().iter().filter(|a| a.category == cat).collect();
            (ases.len(), ases.iter().map(|a| a.slash24_count).sum())
        };
        let (n_ak, s_ak) = total_for(ServiceSplit::AkamaiOnly);
        assert_eq!(n_ak, cfg.akamai_only_ases);
        assert_eq!(s_ak, cfg.akamai_only_slash24);
        let (n_ap, s_ap) = total_for(ServiceSplit::AppleOnly);
        assert_eq!(n_ap, cfg.apple_only_ases);
        assert_eq!(s_ap, cfg.apple_only_slash24);
        let (n_b, s_b) = total_for(ServiceSplit::Both);
        assert_eq!(n_b, cfg.both_ases);
        assert_eq!(s_b, cfg.both_slash24);
        assert_eq!(w.total_slash24(), cfg.total_slash24());
    }

    #[test]
    fn prefixes_are_disjoint_across_ases() {
        let w = world();
        let mut all: Vec<Ipv4Net> = w.announcements().map(|(p, _)| p).collect();
        all.sort();
        for pair in all.windows(2) {
            assert!(
                !pair[0].contains_net(&pair[1]) && pair[0] != pair[1],
                "overlap: {} and {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn addr_resolution_round_trips() {
        let w = world();
        for client_as in w.ases().iter().step_by(37) {
            let addr = client_as.host_addr(5);
            let found = w.as_of_addr(IpAddr::V4(addr)).unwrap();
            assert_eq!(found.asn, client_as.asn);
            assert_eq!(w.by_asn(client_as.asn).unwrap().asn, client_as.asn);
        }
        assert!(w.as_of_addr("192.0.2.1".parse().unwrap()).is_none());
    }

    #[test]
    fn serving_operator_respects_categories() {
        let w = world();
        for client_as in w.ases() {
            let subnet = client_as.slash24s().next().unwrap();
            let op = w.serving_operator(subnet).unwrap();
            match client_as.category {
                ServiceSplit::AkamaiOnly => assert_eq!(op, Asn::AKAMAI_PR),
                ServiceSplit::AppleOnly => assert_eq!(op, Asn::APPLE),
                ServiceSplit::Both => {
                    assert!(op == Asn::APPLE || op == Asn::AKAMAI_PR)
                }
            }
        }
    }

    #[test]
    fn both_split_is_near_76_percent_apple() {
        let w = world();
        let mut apple = 0u64;
        let mut total = 0u64;
        for client_as in w.ases().iter().filter(|a| a.category == ServiceSplit::Both) {
            for subnet in client_as.slash24s() {
                total += 1;
                if w.split_operator(subnet) == Asn::APPLE {
                    apple += 1;
                }
            }
        }
        let share = apple as f64 / total as f64;
        assert!(
            (0.74..0.78).contains(&share),
            "Apple share in both-ASes: {share:.4}"
        );
    }

    #[test]
    fn subnet_counts_are_heavy_tailed() {
        let w = world();
        let mut counts: Vec<u64> = w.ases().iter().map(|a| a.slash24_count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top_decile: u64 = counts.iter().take(counts.len() / 10).sum();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "top-decile share {:.3}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ClientWorld::generate(&SimRng::new(7), &small_config());
        let b = ClientWorld::generate(&SimRng::new(7), &small_config());
        assert_eq!(a.ases().len(), b.ases().len());
        assert_eq!(a.ases()[3].prefixes, b.ases()[3].prefixes);
        assert_eq!(a.ases()[3].cc, b.ases()[3].cc);
        let subnet = a.ases().last().unwrap().slash24s().next().unwrap();
        assert_eq!(a.serving_operator(subnet), b.serving_operator(subnet));
    }

    #[test]
    fn prefix_of_addr_contains_addr() {
        let w = world();
        let client_as = &w.ases()[0];
        let addr = client_as.host_addr(0);
        let covering = w.prefix_of_addr(IpAddr::V4(addr)).unwrap();
        assert!(covering.contains(addr));
        assert!(client_as.prefixes.contains(&covering));
    }
}

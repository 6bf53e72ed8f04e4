//! Egress operator and address selection.
//!
//! §4.3's findings, implemented from the service side:
//!
//! * the egress *operator* for a client location is sticky — over a scan
//!   day only a handful of changes appear (Figure 3),
//! * the egress *address* rotates per connection, drawn from a small pool
//!   of addresses representing the client's geohash cell (the authors saw
//!   six addresses from four subnets over 48 h, >66 % change rate),
//! * parallel connections (curl + Safari) get independent draws,
//! * operators without presence at the client's location (Fastly at the
//!   authors' vantage point) are never selected.
//!
//! [`EgressSelector::draw`] is the one address selector: the session
//! layer's egress and the client device both call it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::IpAddr;

use tectonic_net::{Asn, FrozenLpm, IpNet, Ipv4Net, SimDuration, SimRng, SimTime};

use tectonic_geo::country::{nearest_country, CountryCode};
use tectonic_geo::egress::{EgressList, OperatorFootprint};
use tectonic_geo::geohash;

use crate::session::CELL_POOL_SIZE;

/// The represented country the egress derives from a CONNECT's geohash
/// cell: the country whose centroid lies nearest the cell's centre, or
/// the US when the cell does not decode.
pub fn cell_country(cell: &str) -> CountryCode {
    geohash::decode(cell)
        .map(|c| nearest_country(c.lat, c.lon).code)
        .unwrap_or(CountryCode::US)
}

/// The outcome of one egress selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EgressSelection {
    /// The operator whose relay egresses the connection.
    pub operator: Asn,
    /// The egress subnet the address was drawn from.
    pub subnet: IpNet,
    /// The concrete egress address the target server observes.
    pub addr: IpAddr,
}

/// The sticky egress operator and the per-connection address draw.
#[derive(Debug, Clone)]
pub struct EgressSelector {
    /// `(operator, cc)` → the location's IPv4 subnets, in list order. A
    /// location whose subnets are all IPv6 keeps its (empty) entry: the
    /// keys are the operator's presence.
    pools: HashMap<(Asn, CountryCode), Vec<Ipv4Net>>,
    /// Country → the operators with a `pools` entry there, in first-seen
    /// order: the operator choice reads presence with one probe.
    present: HashMap<CountryCode, Vec<Asn>>,
    /// Operator → all its IPv4 subnets, the fallback pool when an operator
    /// has no presence at the client's country in a (scaled-down) list.
    global_pools: HashMap<Asn, Vec<Ipv4Net>>,
    operators: Vec<Asn>,
    /// Mean time between operator switches.
    operator_stickiness: SimDuration,
    seed: u64,
}

impl EgressSelector {
    /// Indexes the egress list's IPv4 subnets per (operator, country) and
    /// per operator, attributing each subnet through the footprints. The
    /// draw reads these lists in place, so a session copies none of them.
    pub fn build(list: &EgressList, footprints: &[OperatorFootprint], seed: u64) -> EgressSelector {
        let mut pools: HashMap<(Asn, CountryCode), Vec<Ipv4Net>> = HashMap::new();
        let mut present: HashMap<CountryCode, Vec<Asn>> = HashMap::new();
        let mut global_pools: HashMap<Asn, Vec<Ipv4Net>> = HashMap::new();
        // Index the footprints once and compile the index; per-entry
        // attribution is then a flat longest-prefix match instead of a
        // linear scan (the full list has ~240 k subnets against ~1.5 k
        // prefixes).
        let index = FrozenLpm::from_pairs(footprints.iter().flat_map(|f| {
            let v4 = f.bgp_v4.iter().map(|p| IpNet::V4(*p));
            let v6 = f.bgp_v6.iter().map(|p| IpNet::V6(*p));
            v4.chain(v6).map(move |p| (p, f.asn))
        }));
        for entry in list.entries() {
            let Some((_, op)) = index.longest_match_net(&entry.subnet) else {
                continue;
            };
            let op = *op;
            let v4 = entry.subnet.as_v4().copied();
            let pool = match pools.entry((op, entry.cc)) {
                Entry::Occupied(pool) => pool.into_mut(),
                Entry::Vacant(slot) => {
                    present.entry(entry.cc).or_default().push(op);
                    slot.insert(Vec::new())
                }
            };
            pool.extend(v4);
            global_pools.entry(op).or_default().extend(v4);
        }
        let mut operators: Vec<Asn> = footprints.iter().map(|f| f.asn).collect();
        operators.sort();
        EgressSelector {
            pools,
            present,
            global_pools,
            operators,
            operator_stickiness: SimDuration::from_hours(3),
            seed,
        }
    }

    /// Restricts which operators can be chosen (models the paper's vantage
    /// point where Fastly had no presence).
    pub fn with_operators(mut self, operators: Vec<Asn>) -> EgressSelector {
        self.operators = operators;
        self
    }

    fn mix(&self, key: u64) -> u64 {
        let mut h = self.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// The draw seed of a client device: its key folded into the
    /// selector's seed, so two devices in one cell draw independently and
    /// every deployment draws afresh.
    pub(crate) fn client_seed(&self, client_key: u64) -> u64 {
        self.mix(client_key)
    }

    /// The sticky operator for `(client, now)`: changes only when the
    /// stickiness window rolls over, and only among operators present at
    /// the client's country.
    ///
    /// The candidates are counted and then walked to the pick, so the
    /// choice allocates nothing.
    pub fn operator_for(&self, client_key: u64, cc: CountryCode, now: SimTime) -> Option<Asn> {
        let window = now.as_millis() / self.operator_stickiness.as_millis().max(1);
        let h = self.mix(client_key ^ window.wrapping_mul(0x1000_0000_01b3));
        // Of the operators `admits` accepts, the `h`-th (mod their count).
        let pick = |admits: &dyn Fn(Asn) -> bool| {
            let mut candidates = self.operators.iter().copied().filter(|op| admits(*op));
            let count = candidates.clone().count();
            candidates.nth((h as usize).checked_rem(count)?)
        };
        let here = self.present.get(&cc).map_or(&[][..], Vec::as_slice);
        pick(&|op| here.contains(&op))
            // No operator represents this country (possible in scaled-down
            // lists): any operator with subnets at all can still serve,
            // preserving only the country/time zone (§4.2's no-region mode).
            .or_else(|| pick(&|op| self.global_pools.contains_key(&op)))
    }

    /// Draws the egress address for one connection: the `(operator,
    /// cell)` pool of [`CELL_POOL_SIZE`] addresses, then one of them picked
    /// by the seed's `"egress-draw"` fork indexed by `connection_id`.
    ///
    /// `cc` is the cell's represented country ([`cell_country`]). The draw
    /// is a pure function of its inputs, so it depends on neither arrival
    /// order nor shard partition; `None` when the operator has no IPv4
    /// footprint at all.
    pub fn draw(
        &self,
        operator: Asn,
        cc: CountryCode,
        cell: &str,
        seed: u64,
        connection_id: u64,
    ) -> Option<EgressSelection> {
        let pool = self.geohash_pool(operator, cc, cell, CELL_POOL_SIZE);
        let mut rng = SimRng::new(seed).fork_indexed("egress-draw", connection_id);
        let &(subnet, addr) = pool.get(rng.index(pool.len()))?;
        Some(EgressSelection {
            operator,
            subnet,
            addr,
        })
    }

    /// The small, stable pool of egress addresses representing one client
    /// geohash cell at one operator (§4.3: the authors saw six addresses
    /// from four subnets over 48 h at a fixed vantage point).
    ///
    /// The pool is a pure function of `(seed, operator, cc, geohash)` — no
    /// interior state — so every engine shard derives the identical pool
    /// and per-connection draws from it stay worker-invariant. Prefers the
    /// operator's footprint at the client's country, topping up from the
    /// operator-wide footprint when the local one is too small (a client
    /// in a one-`/32` country still sees the paper's small multi-address
    /// pool). Returns up to `pool_size` distinct IPv4 addresses, each with
    /// its egress subnet; fewer only when the operator's entire footprint
    /// is smaller than that.
    pub fn geohash_pool(
        &self,
        operator: Asn,
        cc: CountryCode,
        geohash: &str,
        pool_size: usize,
    ) -> Vec<(IpNet, IpAddr)> {
        // FNV over the geohash, then the selector's mixer, anchors the
        // pool to the cell rather than to any single client.
        let mut key = 0xCBF2_9CE4_8422_2325u64;
        for b in geohash.bytes() {
            key = (key ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
        }
        let base = self.mix(key ^ u64::from(operator.value()).rotate_left(23)) as usize;
        // Hosts to walk per subnet: enough that even a single-subnet
        // footprint can fill the pool, capped by the subnet's usable host
        // span so the walk never revisits an address within one subnet.
        let span = |n: &Ipv4Net| -> u64 {
            let count = n.addr_count();
            let usable = if count > 2 { count - 2 } else { count.max(1) };
            (pool_size as u64).min(usable)
        };
        let local = self.pools.get(&(operator, cc));
        let global = self.global_pools.get(&operator);
        let mut pool: Vec<(IpNet, IpAddr)> = Vec::with_capacity(pool_size);
        for family in [local, global].into_iter().flatten() {
            if pool.len() >= pool_size {
                break;
            }
            if family.is_empty() {
                continue;
            }
            // Walk (subnet, host) pairs in a cell-deterministic order until
            // the pool is full or every pair has been tried; distinct pairs
            // yield distinct addresses because the egress-list subnets do
            // not overlap, and the global top-up pass dedups anything the
            // local pass already picked. Every subnet spans at least one
            // host, so the pair count can only end the walk once it has gone
            // round the whole family, and is summed only then: the
            // operator-wide list runs to tens of thousands of subnets at
            // paper scale, and most cells fill the pool in a few steps.
            let mut candidates = u64::MAX;
            for i in 0u64.. {
                if pool.len() >= pool_size {
                    break;
                }
                if i == family.len() as u64 {
                    candidates = family.iter().map(span).sum();
                }
                if i >= candidates {
                    break;
                }
                let Some(n) = family.get((base + i as usize) % family.len()) else {
                    break;
                };
                let host = (base as u64 / family.len() as u64 + i / family.len() as u64) % span(n);
                // Skip the network address when the subnet has room.
                let host = if n.addr_count() > 2 { 1 + host } else { host };
                let addr = IpAddr::V4(n.nth_addr(host));
                if !pool.iter().any(|(_, a)| *a == addr) {
                    pool.push((IpNet::V4(*n), addr));
                }
            }
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tectonic_geo::city::CityUniverse;
    use tectonic_geo::egress::{generate, EgressEntry, OperatorEgressSpec};
    use tectonic_net::Ipv6Net;

    type Lists = (
        HashMap<(Asn, CountryCode), Vec<IpNet>>,
        HashMap<Asn, Vec<IpNet>>,
    );

    /// The per-location and operator-wide lists of every attributed
    /// subnet, IPv4 and IPv6 alike, in list order: what the selector filed
    /// before it kept only the IPv4 subnets.
    fn oracle_lists(list: &EgressList, footprints: &[OperatorFootprint]) -> Lists {
        let mut lists: Lists = Default::default();
        let prefixes: Vec<(IpNet, Asn)> = footprints
            .iter()
            .flat_map(|f| {
                let v4 = f.bgp_v4.iter().map(|p| IpNet::V4(*p));
                let v6 = f.bgp_v6.iter().map(|p| IpNet::V6(*p));
                v4.chain(v6).map(move |p| (p, f.asn))
            })
            .collect();
        for entry in list.entries() {
            let Some(&(_, op)) = prefixes
                .iter()
                .filter(|(p, _)| p.contains_net(&entry.subnet))
                .max_by_key(|(p, _)| p.len())
            else {
                continue;
            };
            lists
                .0
                .entry((op, entry.cc))
                .or_default()
                .push(entry.subnet);
            lists.1.entry(op).or_default().push(entry.subnet);
        }
        lists
    }

    /// [`EgressSelector::geohash_pool`] as it was before the selector
    /// filed IPv4 slices: each call collects the family's IPv4 subnets out
    /// of the mixed lists and bounds the walk by the sum of their spans up
    /// front.
    fn oracle_pool(
        s: &EgressSelector,
        (pools, global_pools): &Lists,
        operator: Asn,
        cc: CountryCode,
        geohash: &str,
        pool_size: usize,
    ) -> Vec<(IpNet, IpAddr)> {
        let mut key = 0xCBF2_9CE4_8422_2325u64;
        for b in geohash.bytes() {
            key = (key ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
        }
        let base = s.mix(key ^ u64::from(operator.value()).rotate_left(23)) as usize;
        let span = |n: &Ipv4Net| -> u64 {
            let count = n.addr_count();
            let usable = if count > 2 { count - 2 } else { count.max(1) };
            (pool_size as u64).min(usable)
        };
        let local = pools.get(&(operator, cc));
        let global = global_pools.get(&operator);
        let mut pool: Vec<(IpNet, IpAddr)> = Vec::with_capacity(pool_size);
        for subnets in [local, global] {
            if pool.len() >= pool_size {
                break;
            }
            let family: Vec<&Ipv4Net> = subnets
                .into_iter()
                .flatten()
                .filter_map(IpNet::as_v4)
                .collect();
            if family.is_empty() {
                continue;
            }
            let candidates: u64 = family.iter().map(|n| span(n)).sum();
            for i in 0..candidates {
                if pool.len() >= pool_size {
                    break;
                }
                let n = family[(base + i as usize) % family.len()];
                let host = (base as u64 / family.len() as u64 + i / family.len() as u64) % span(n);
                let host = if n.addr_count() > 2 { 1 + host } else { host };
                let addr = IpAddr::V4(n.nth_addr(host));
                if !pool.iter().any(|(_, a)| *a == addr) {
                    pool.push((IpNet::V4(*n), addr));
                }
            }
        }
        pool
    }

    fn inputs() -> (EgressList, Vec<OperatorFootprint>) {
        let mut specs = OperatorEgressSpec::paper_defaults();
        for s in &mut specs {
            for (_, c) in &mut s.v4_mask_plan {
                *c /= 40;
            }
            s.v6_subnets /= 40;
            s.cities_v4 /= 20;
            s.cities_v6 /= 20;
        }
        let universe = CityUniverse::generate(&mut SimRng::new(1), 8_000);
        generate(&SimRng::new(2), &universe, &specs, 1.0)
    }

    fn selector() -> EgressSelector {
        let (list, footprints) = inputs();
        EgressSelector::build(&list, &footprints, 77)
    }

    /// Compares the pool with the oracle's at every location of `keys`, on
    /// several cells, at pool sizes 1–4.
    fn assert_pools_match(s: &EgressSelector, lists: &Lists, keys: &[(Asn, CountryCode)]) {
        for &(op, cc) in keys {
            for cell in ["9q8y", "u281", "dr5r", "gcpvj", "s00"] {
                for size in 1..=4 {
                    assert_eq!(
                        s.geohash_pool(op, cc, cell, size),
                        oracle_pool(s, lists, op, cc, cell, size),
                        "{op:?} {cc:?} {cell} {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn geohash_pool_matches_the_collecting_oracle() {
        let (list, footprints) = inputs();
        let s = EgressSelector::build(&list, &footprints, 77);
        let lists = oracle_lists(&list, &footprints);
        // The selector files every location the lists have, IPv6-only ones
        // too (an empty entry), with its IPv4 subnets in list order.
        let v4 = |l: &Vec<IpNet>| -> Vec<Ipv4Net> {
            l.iter().filter_map(IpNet::as_v4).copied().collect()
        };
        assert_eq!(s.pools.len(), lists.0.len());
        assert_eq!(s.global_pools.len(), lists.1.len());
        let mut keys: Vec<(Asn, CountryCode)> = lists.0.keys().copied().collect();
        keys.sort();
        assert!(
            keys.iter().any(|k| lists.0[k].iter().all(IpNet::is_v6)),
            "an IPv6-only location"
        );
        for key in &keys {
            assert_eq!(s.pools.get(key), Some(&v4(&lists.0[key])), "{key:?}");
            assert_eq!(s.global_pools.get(&key.0), Some(&v4(&lists.1[&key.0])));
        }
        assert_pools_match(&s, &lists, &keys);
    }

    #[test]
    fn a_footprint_smaller_than_the_pool_ends_on_the_pair_bound() {
        // Fastly holds a /30 in DE (2 usable hosts), a /31 in the US (2
        // addresses) and only IPv6 in FR. At pool sizes 3 and 4 the DE and
        // US walks run out of pairs and stop at their bound before the
        // operator-wide top-up; FR keeps an empty entry and draws from the
        // operator-wide list alone.
        let v4 = |a: [u8; 4], len| IpNet::V4(Ipv4Net::new(a.into(), len).unwrap());
        let entry = |subnet, cc| EgressEntry {
            subnet,
            cc,
            region: String::new(),
            city: None,
        };
        let v6 = IpNet::V6(Ipv6Net::new("2001:db8:1::".parse().unwrap(), 64).unwrap());
        let fr = CountryCode::literal("FR");
        let list = EgressList::from_entries(vec![
            entry(v4([192, 0, 2, 0], 30), CountryCode::DE),
            entry(v6, fr),
            entry(v4([192, 0, 2, 8], 31), CountryCode::US),
        ]);
        let footprints = [OperatorFootprint {
            asn: Asn::FASTLY,
            bgp_v4: vec![Ipv4Net::new([192, 0, 2, 0].into(), 24).unwrap()],
            bgp_v6: vec![Ipv6Net::new("2001:db8::".parse().unwrap(), 32).unwrap()],
        }];
        let s = EgressSelector::build(&list, &footprints, 77);
        let lists = oracle_lists(&list, &footprints);
        assert_eq!(s.pools.get(&(Asn::FASTLY, fr)), Some(&vec![]));
        assert_eq!(s.operator_for(1, fr, SimTime::EPOCH), Some(Asn::FASTLY));
        let keys = [CountryCode::DE, fr, CountryCode::US].map(|cc| (Asn::FASTLY, cc));
        assert_pools_match(&s, &lists, &keys);
        // A 5-address pool takes the whole 4-address footprint and stops.
        let pool = s.geohash_pool(Asn::FASTLY, CountryCode::DE, "9q8y", 5);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn operator_is_sticky_within_window() {
        let s = selector();
        let start = SimTime::from_ymd(2022, 5, 10);
        let op0 = s.operator_for(42, CountryCode::US, start).unwrap();
        // Five minutes later: same operator (window is hours long).
        let later = start + SimDuration::from_mins(5);
        assert_eq!(s.operator_for(42, CountryCode::US, later).unwrap(), op0);
        // Over a full day, changes are rare.
        let mut changes = 0;
        let mut prev = op0;
        for round in 0..288 {
            let t = start + SimDuration::from_mins(5).times(round);
            let op = s.operator_for(42, CountryCode::US, t).unwrap();
            if op != prev {
                changes += 1;
            }
            prev = op;
        }
        assert!(changes <= 8, "too many operator changes: {changes}");
    }

    #[test]
    fn restricted_operators_exclude_fastly() {
        let s = selector().with_operators(vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR]);
        let start = SimTime::from_ymd(2022, 5, 10);
        for client in 0..100 {
            let t = start + SimDuration::from_hours(1).times(client);
            let op = s.operator_for(client, CountryCode::DE, t).unwrap();
            assert_ne!(op, Asn::FASTLY);
            assert_ne!(op, Asn::AKAMAI_EG);
        }
    }

    /// The collecting pick `operator_for` replaced: the operators present
    /// at `cc`, else those with any subnet, then the `h`-th of them.
    fn oracle_operator(
        s: &EgressSelector,
        client_key: u64,
        cc: CountryCode,
        now: SimTime,
    ) -> Option<Asn> {
        let mut present: Vec<Asn> = s
            .operators
            .iter()
            .copied()
            .filter(|op| s.pools.contains_key(&(*op, cc)))
            .collect();
        if present.is_empty() {
            present = s
                .operators
                .iter()
                .copied()
                .filter(|op| s.global_pools.contains_key(op))
                .collect();
        }
        if present.is_empty() {
            return None;
        }
        let window = now.as_millis() / s.operator_stickiness.as_millis().max(1);
        let h = s.mix(client_key ^ window.wrapping_mul(0x1000_0000_01b3));
        present.get((h as usize) % present.len()).copied()
    }

    #[test]
    fn operator_choice_matches_the_collecting_oracle() {
        let full = selector();
        let mut countries: Vec<CountryCode> = full.pools.keys().map(|(_, cc)| *cc).collect();
        countries.sort();
        countries.dedup();
        // A country no operator represents takes the global fallback.
        let nowhere = CountryCode::literal("ZZ");
        assert!(!countries.contains(&nowhere));
        countries.push(nowhere);
        let start = SimTime::from_ymd(2022, 5, 10);
        for s in [
            full.clone(),
            full.clone()
                .with_operators(vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR]),
            full.with_operators(vec![]),
        ] {
            for &cc in &countries {
                for client in 0..20 {
                    let t = start + SimDuration::from_hours(2).times(client);
                    let picked = s.operator_for(client, cc, t);
                    assert_eq!(
                        picked,
                        oracle_operator(&s, client, cc, t),
                        "{cc:?} {client}"
                    );
                    assert_eq!(picked.is_none(), s.operators.is_empty());
                }
            }
        }
    }

    #[test]
    fn unknown_location_yields_none() {
        let s = selector().with_operators(vec![]);
        assert!(s.operator_for(1, CountryCode::US, SimTime::EPOCH).is_none());
    }

    #[test]
    fn geohash_pool_is_stable_small_and_distinct() {
        let s = selector();
        let pool = s.geohash_pool(Asn::CLOUDFLARE, CountryCode::US, "9q8y", 3);
        assert_eq!(pool.len(), 3, "US footprint supports a full pool");
        let distinct: HashSet<_> = pool.iter().map(|(_, addr)| addr).collect();
        assert_eq!(
            distinct.len(),
            pool.len(),
            "pool addresses must be distinct"
        );
        for (subnet, addr) in &pool {
            assert!(subnet.contains(*addr), "{addr} ∉ {subnet}");
        }
        // Pure function of (seed, operator, cc, geohash): identical on
        // every recomputation, as the sharded engine requires.
        assert_eq!(
            pool,
            s.geohash_pool(Asn::CLOUDFLARE, CountryCode::US, "9q8y", 3)
        );
        // A different cell gets a different pool (overwhelmingly likely).
        let other = s.geohash_pool(Asn::CLOUDFLARE, CountryCode::US, "u281", 3);
        assert_ne!(pool, other);
        // An operator with no footprint at all yields an empty pool, and
        // no draw.
        assert!(s
            .geohash_pool(Asn(64_512), CountryCode::US, "9q8y", 3)
            .is_empty());
        assert!(s.draw(Asn(64_512), CountryCode::US, "9q8y", 5, 1).is_none());
    }

    #[test]
    fn draws_rotate_within_the_cell_pool() {
        let s = selector();
        let pool = s.geohash_pool(Asn::CLOUDFLARE, CountryCode::US, "9q8y", CELL_POOL_SIZE);
        let draws: Vec<EgressSelection> = (0..300)
            .map(|id| {
                s.draw(Asn::CLOUDFLARE, CountryCode::US, "9q8y", 42, id)
                    .unwrap()
            })
            .collect();
        for d in &draws {
            assert!(
                pool.contains(&(d.subnet, d.addr)),
                "{} not in the pool",
                d.addr
            );
        }
        let seen: HashSet<IpAddr> = draws.iter().map(|d| d.addr).collect();
        assert_eq!(seen.len(), CELL_POOL_SIZE, "every pool address gets drawn");
        // Independent uniform draws from three addresses: consecutive
        // connections change address about 1 − 1/3 of the time.
        let changes = draws.windows(2).filter(|w| w[0].addr != w[1].addr).count();
        let rate = changes as f64 / (draws.len() - 1) as f64;
        assert!((0.55..0.8).contains(&rate), "change rate {rate:.3}");
        // Another seed (another client) draws a different sequence.
        let other: Vec<IpAddr> = (0..300)
            .map(|id| {
                s.draw(Asn::CLOUDFLARE, CountryCode::US, "9q8y", 43, id)
                    .unwrap()
                    .addr
            })
            .collect();
        assert_ne!(other, draws.iter().map(|d| d.addr).collect::<Vec<_>>());
    }

    #[test]
    fn cell_country_maps_to_the_nearest_centroid() {
        assert_eq!(cell_country("9q8y"), CountryCode::US);
        // Undecodable cells fall back to the US.
        assert_eq!(cell_country("!!"), CountryCode::US);
    }
}

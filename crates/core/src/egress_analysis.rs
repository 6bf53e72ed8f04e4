//! Egress-list analyses (§4.2): Tables 3–4, Figures 2/4/5.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};
use tectonic_bgp::{NetBatchScratch, Rib};
use tectonic_net::{Asn, IpNet};

use tectonic_geo::city::CityUniverse;
use tectonic_geo::country::CountryCode;
use tectonic_geo::egress::{EgressEntry, EgressList};
use tectonic_geo::mmdb::GeoDb;

/// One Table 3 row (per egress operator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Operator AS.
    pub asn: Asn,
    /// IPv4 subnets.
    pub v4_subnets: usize,
    /// Distinct routed BGP prefixes covering the IPv4 subnets.
    pub v4_bgp_prefixes: usize,
    /// Total IPv4 addresses across the subnets.
    pub v4_addresses: u64,
    /// IPv6 subnets.
    pub v6_subnets: usize,
    /// Distinct routed BGP prefixes covering the IPv6 subnets.
    pub v6_bgp_prefixes: usize,
    /// Countries covered (either family).
    pub countries: usize,
}

/// Table 3 — egress subnets per operating AS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Rows in the paper's order.
    pub rows: Vec<Table3Row>,
}

/// One Table 4 row (covered cities).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Operator AS.
    pub asn: Asn,
    /// Cities covered by any subnet.
    pub cities: usize,
    /// Cities covered by IPv4 subnets.
    pub cities_v4: usize,
    /// Cities covered by IPv6 subnets.
    pub cities_v6: usize,
}

/// Table 4 — city coverage per operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4 {
    /// Rows in the paper's order.
    pub rows: Vec<Table4Row>,
}

/// One point of the Figure 2/5 maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
    /// Operator the subnet belongs to.
    pub asn: Asn,
    /// IPv4 (`false` = IPv6).
    pub v4: bool,
}

/// A CDF series for Figure 4: entity index (sorted by subnet count) vs
/// cumulative share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdfSeries {
    /// Operator the series belongs to.
    pub asn: Asn,
    /// Cumulative shares, one per entity in descending-count order.
    pub cumulative: Vec<f64>,
}

/// The four egress operators in the paper's row order; an operator's index
/// here picks its tallies.
const OPERATORS: [Asn; 4] = Asn::EGRESS_OPERATORS;

/// Subnets attributed per batched RIB walk: enough to amortise the walk,
/// few enough that its lanes stay in cache.
const BURST: usize = 4096;

/// A set of two-letter country codes, one bit per code (26 × 26).
#[derive(Debug, Default)]
struct CountrySet([u64; 11]);

impl CountrySet {
    fn insert(&mut self, cc: CountryCode) {
        let [a, b] = cc.as_str().as_bytes() else {
            return;
        };
        let bit = usize::from(a.saturating_sub(b'A')) * 26 + usize::from(b.saturating_sub(b'A'));
        if let Some(word) = self.0.get_mut(bit / 64) {
            *word |= 1 << (bit % 64);
        }
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One operator's Table 3 tallies.
#[derive(Debug, Default)]
struct Tally {
    v4_subnets: usize,
    v4_addresses: u64,
    v6_subnets: usize,
    /// Distinct covering BGP prefixes of the operator's subnets, IPv4
    /// before IPv6 (`IpNet`'s order).
    prefixes: BTreeSet<IpNet>,
    countries: CountrySet,
}

/// The combined egress analysis over one list snapshot.
#[derive(Debug)]
pub struct EgressAnalysis<'a> {
    list: &'a EgressList,
    /// Subnet → (covering BGP prefix, operator) attribution via the RIB,
    /// computed once up front so no analysis method re-queries the table.
    attribution: Vec<Option<(IpNet, Asn)>>,
    /// Per operator, in [`OPERATORS`] order: Table 3's counts and the
    /// covering prefixes the §6 census reads.
    tallies: [Tally; 4],
}

impl<'a> EgressAnalysis<'a> {
    /// Prepares the analysis: attributes every subnet through batched RIB
    /// walks, then tallies Table 3 in one pass over the attribution.
    pub fn new(list: &'a EgressList, rib: &Rib) -> EgressAnalysis<'a> {
        let mut attribution = Vec::with_capacity(list.len());
        let mut scratch = NetBatchScratch::default();
        let (mut nets, mut burst) = (Vec::new(), Vec::new());
        for rows in list.entries().chunks(BURST) {
            nets.clear();
            nets.extend(rows.iter().map(|e| e.subnet));
            rib.lookup_net_batch_in(&mut scratch, &nets, &mut burst);
            attribution.extend_from_slice(&burst);
        }
        let mut analysis = EgressAnalysis {
            list,
            attribution,
            tallies: Default::default(),
        };
        analysis.tallies = analysis.tally();
        analysis
    }

    /// Table 3's per-operator tallies, in one pass over the attribution.
    fn tally(&self) -> [Tally; 4] {
        let mut tallies: [Tally; 4] = Default::default();
        for (e, prefix, op) in self.by_operator() {
            let Some(t) = tallies.get_mut(op) else {
                continue;
            };
            t.countries.insert(e.cc);
            match &e.subnet {
                IpNet::V4(n) => {
                    t.v4_subnets += 1;
                    t.v4_addresses += n.addr_count();
                }
                IpNet::V6(_) => t.v6_subnets += 1,
            }
            t.prefixes.insert(prefix);
        }
        tallies
    }

    /// The rows attributed to one of the four operators, each with its
    /// covering prefix and the operator's index in [`OPERATORS`].
    fn by_operator(&self) -> impl Iterator<Item = (&'a EgressEntry, IpNet, usize)> + '_ {
        self.list
            .entries()
            .iter()
            .zip(&self.attribution)
            .filter_map(|(e, attr)| {
                let (prefix, asn) = (*attr)?;
                let op = OPERATORS.iter().position(|o| *o == asn)?;
                Some((e, prefix, op))
            })
    }

    /// The rows attributed to `asn`, in list order.
    pub fn entries_of(&self, asn: Asn) -> impl Iterator<Item = &'a EgressEntry> + '_ {
        self.list
            .entries()
            .iter()
            .zip(&self.attribution)
            .filter(move |(_, a)| matches!(a, Some((_, origin)) if *origin == asn))
            .map(|(e, _)| e)
    }

    /// The distinct BGP prefixes covering `asn`'s subnets: IPv4 first, each
    /// family ascending. Empty unless `asn` is one of the four egress
    /// operators. Table 3's prefix columns count these; the §6 census reads
    /// AkamaiPR's.
    pub fn covering_prefixes(&self, asn: Asn) -> impl Iterator<Item = &IpNet> {
        OPERATORS
            .iter()
            .position(|o| *o == asn)
            .and_then(|op| self.tallies.get(op))
            .into_iter()
            .flat_map(|t| &t.prefixes)
    }

    /// Builds Table 3 from the tallies taken by [`new`](Self::new).
    pub fn table3(&self) -> Table3 {
        let rows = OPERATORS
            .iter()
            .zip(&self.tallies)
            .map(|(asn, t)| {
                let v4_bgp_prefixes = t.prefixes.iter().filter(|p| p.is_v4()).count();
                Table3Row {
                    asn: *asn,
                    v4_subnets: t.v4_subnets,
                    v4_bgp_prefixes,
                    v4_addresses: t.v4_addresses,
                    v6_subnets: t.v6_subnets,
                    v6_bgp_prefixes: t.prefixes.len() - v4_bgp_prefixes,
                    countries: t.countries.len(),
                }
            })
            .collect();
        Table3 { rows }
    }

    /// Builds Table 4 in one pass over the attributed rows.
    pub fn table4(&self) -> Table4 {
        let mut cities: [[BTreeSet<&str>; 2]; 4] = Default::default();
        for (e, _, op) in self.by_operator() {
            let (Some(city), Some([v4, v6])) = (e.city.as_deref(), cities.get_mut(op)) else {
                continue;
            };
            if e.subnet.is_v4() {
                v4.insert(city);
            } else {
                v6.insert(city);
            }
        }
        let rows = OPERATORS
            .iter()
            .zip(&cities)
            .map(|(asn, [v4, v6])| Table4Row {
                asn: *asn,
                cities: v4.union(v6).count(),
                cities_v4: v4.len(),
                cities_v6: v6.len(),
            })
            .collect();
        Table4 { rows }
    }

    /// Country-share distribution across the whole list: `(cc, share)`
    /// sorted descending (the 58 % US / 3.6 % DE headline).
    pub fn country_shares(&self) -> Vec<(CountryCode, f64)> {
        let mut counts: BTreeMap<CountryCode, usize> = BTreeMap::new();
        for e in self.list.entries() {
            *counts.entry(e.cc).or_insert(0) += 1;
        }
        let total = self.list.len().max(1) as f64;
        let mut shares: Vec<(CountryCode, f64)> = counts
            .into_iter()
            .map(|(cc, c)| (cc, c as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Number of countries with fewer than `threshold` subnets (the paper:
    /// 123 countries below 50).
    pub fn countries_below(&self, threshold: usize) -> usize {
        let mut counts: BTreeMap<CountryCode, usize> = BTreeMap::new();
        for e in self.list.entries() {
            *counts.entry(e.cc).or_insert(0) += 1;
        }
        counts.values().filter(|c| **c < threshold).count()
    }

    /// Share of rows with a blank city (paper: 1.6 %).
    pub fn blank_city_share(&self) -> f64 {
        let blank = self
            .list
            .entries()
            .iter()
            .filter(|e| e.city.is_none())
            .count();
        blank as f64 / self.list.len().max(1) as f64
    }

    /// Countries covered by exactly one operator (paper: 11, all
    /// Cloudflare).
    pub fn uniquely_covered_countries(&self) -> Vec<(CountryCode, Asn)> {
        let mut coverage: BTreeMap<CountryCode, BTreeSet<Asn>> = BTreeMap::new();
        for (e, attr) in self.list.entries().iter().zip(&self.attribution) {
            if let Some((_, asn)) = attr {
                coverage.entry(e.cc).or_default().insert(*asn);
            }
        }
        coverage
            .into_iter()
            .filter(|(_, ops)| ops.len() == 1)
            .filter_map(|(cc, ops)| ops.iter().next().map(|asn| (cc, *asn)))
            .collect()
    }

    /// Figure 2/5 data: one point per subnet with a located city.
    pub fn geo_points(&self, universe: &CityUniverse) -> Vec<GeoPoint> {
        let by_name: HashMap<&str, (f64, f64)> = universe
            .cities()
            .iter()
            .map(|c| (c.name.as_str(), (c.lat, c.lon)))
            .collect();
        self.list
            .entries()
            .iter()
            .zip(&self.attribution)
            .filter_map(|(e, attr)| {
                let (_, asn) = (*attr)?;
                let city = e.city.as_deref()?;
                let (lat, lon) = by_name.get(city)?;
                Some(GeoPoint {
                    lat: *lat,
                    lon: *lon,
                    asn,
                    v4: e.subnet.is_v4(),
                })
            })
            .collect()
    }

    /// Figure 4 CDFs: cumulative subnet share over entities (cities or
    /// countries) sorted by descending subnet count, per operator.
    pub fn cdf(&self, by_city: bool, v4: bool) -> Vec<CdfSeries> {
        let mut counts: [BTreeMap<&str, usize>; 4] = Default::default();
        for (e, _, op) in self.by_operator() {
            if e.subnet.is_v4() != v4 {
                continue;
            }
            let key = if by_city {
                match e.city.as_deref() {
                    Some(c) => c,
                    None => continue,
                }
            } else {
                e.cc.as_str()
            };
            if let Some(counts) = counts.get_mut(op) {
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        OPERATORS
            .iter()
            .zip(counts)
            .map(|(asn, counts)| {
                let mut sorted: Vec<usize> = counts.into_values().collect();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let total: usize = sorted.iter().sum();
                let mut acc = 0.0;
                let cumulative = sorted
                    .iter()
                    .map(|c| {
                        acc += *c as f64 / total.max(1) as f64;
                        acc
                    })
                    .collect();
                CdfSeries {
                    asn: *asn,
                    cumulative,
                }
            })
            .collect()
    }

    /// §4.2's PoP comparison: countries the egress list *represents* for
    /// `asn` that are absent from the operator's physical PoP footprint —
    /// the Saint-Kitts-and-Nevis finding. A non-empty result proves the
    /// published location describes the client, not the relay.
    pub fn phantom_locations(&self, asn: Asn, pop_countries: &[CountryCode]) -> Vec<CountryCode> {
        let pops: BTreeSet<&CountryCode> = pop_countries.iter().collect();
        let covered: BTreeSet<CountryCode> = self.entries_of(asn).map(|e| e.cc).collect();
        covered
            .into_iter()
            .filter(|cc| !pops.contains(cc))
            .collect()
    }

    /// The MaxMind check (§4.2): fraction of egress subnets whose GeoDb
    /// lookup equals the list's own mapping — evidence that the database
    /// adopted Apple's list and therefore cannot locate the relays.
    pub fn mmdb_adoption_share(&self, db: &GeoDb) -> f64 {
        let mut matches = 0usize;
        let mut total = 0usize;
        for e in self.list.entries() {
            total += 1;
            if let Some(loc) = db.lookup(e.subnet.network()) {
                if loc.cc == e.cc && loc.city == e.city {
                    matches += 1;
                }
            }
        }
        matches as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::{Deployment, DeploymentConfig};

    fn deployment() -> Deployment {
        Deployment::build(55, DeploymentConfig::scaled(16))
    }

    /// Table 3 as computed before the one-pass tally: a `lookup_net` per
    /// row, then one scan of the list per operator into `String`-keyed
    /// prefix sets. The oracle for [`EgressAnalysis::table3`].
    fn oracle_table3(list: &EgressList, rib: &Rib) -> Table3 {
        let attribution: Vec<_> = list
            .entries()
            .iter()
            .map(|e| rib.lookup_net(&e.subnet))
            .collect();
        let rows = OPERATORS
            .iter()
            .map(|asn| {
                let mut v4_subnets = 0usize;
                let mut v4_addresses = 0u64;
                let mut v6_subnets = 0usize;
                let mut v4_prefixes: BTreeSet<String> = BTreeSet::new();
                let mut v6_prefixes: BTreeSet<String> = BTreeSet::new();
                let mut countries: BTreeSet<CountryCode> = BTreeSet::new();
                for (e, attr) in list.entries().iter().zip(&attribution) {
                    let Some((prefix, origin)) = attr else {
                        continue;
                    };
                    if origin != asn {
                        continue;
                    }
                    countries.insert(e.cc);
                    match &e.subnet {
                        IpNet::V4(n) => {
                            v4_subnets += 1;
                            v4_addresses += n.addr_count();
                            v4_prefixes.insert(prefix.to_string());
                        }
                        IpNet::V6(_) => {
                            v6_subnets += 1;
                            v6_prefixes.insert(prefix.to_string());
                        }
                    }
                }
                Table3Row {
                    asn: *asn,
                    v4_subnets,
                    v4_bgp_prefixes: v4_prefixes.len(),
                    v4_addresses,
                    v6_subnets,
                    v6_bgp_prefixes: v6_prefixes.len(),
                    countries: countries.len(),
                }
            })
            .collect();
        Table3 { rows }
    }

    /// Table 4 as computed before the one-pass walk: a `lookup_net` per
    /// row, then one scan of the list per operator. The oracle for
    /// [`EgressAnalysis::table4`].
    fn oracle_table4(list: &EgressList, rib: &Rib) -> Table4 {
        let rows = OPERATORS
            .iter()
            .map(|asn| {
                let mut all: BTreeSet<&str> = BTreeSet::new();
                let mut v4: BTreeSet<&str> = BTreeSet::new();
                let mut v6: BTreeSet<&str> = BTreeSet::new();
                let attributed = list
                    .entries()
                    .iter()
                    .filter(|e| matches!(rib.lookup_net(&e.subnet), Some((_, o)) if o == *asn));
                for e in attributed {
                    if let Some(city) = e.city.as_deref() {
                        all.insert(city);
                        if e.subnet.is_v4() {
                            v4.insert(city);
                        } else {
                            v6.insert(city);
                        }
                    }
                }
                Table4Row {
                    asn: *asn,
                    cities: all.len(),
                    cities_v4: v4.len(),
                    cities_v6: v6.len(),
                }
            })
            .collect();
        Table4 { rows }
    }

    #[test]
    fn one_pass_tables_match_the_per_operator_oracle() {
        // The paper-scale egress list and RIB; the client world, which
        // neither table reads, scaled down.
        let mut config = DeploymentConfig::paper();
        config.client_world = config.client_world.scaled_down(128);
        let mut d = Deployment::build(55, config);
        assert_eq!(d.egress_list.len(), 240_079, "the full paper-scale list");
        assert!(d.rib.is_frozen());
        let check = |d: &Deployment, state: &str| {
            let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
            let t3 = analysis.table3();
            assert_eq!(
                t3,
                oracle_table3(&d.egress_list, &d.rib),
                "Table 3, {state}"
            );
            assert_eq!(
                analysis.table4(),
                oracle_table4(&d.egress_list, &d.rib),
                "Table 4, {state}"
            );
            t3
        };
        let frozen = check(&d, "frozen");
        // Mid-flap: withdrawing every 2nd egress-origin prefix from the
        // frozen table leaves tombstones pending in the overlay.
        let flap: Vec<(IpNet, Asn)> = d
            .rib
            .iter()
            .filter(|(_, origin)| OPERATORS.contains(origin))
            .step_by(2)
            .collect();
        for (net, _) in &flap {
            d.rib.withdraw(net);
        }
        assert!(d.rib.pending_patches() > 0, "the flap must leave patches");
        assert_ne!(check(&d, "mid-flap"), frozen);
        for (net, origin) in &flap {
            d.rib.announce(*net, *origin);
        }
        assert_eq!(check(&d, "restored"), frozen);
    }

    #[test]
    fn table3_shape_matches_paper() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let t3 = analysis.table3();
        let row = |asn: Asn| t3.rows.iter().find(|r| r.asn == asn).unwrap();
        let cf = row(Asn::CLOUDFLARE);
        // Cloudflare: most IPv4 subnets, one address each (/32s).
        assert_eq!(cf.v4_addresses, cf.v4_subnets as u64);
        assert!(cf.v4_subnets > row(Asn::AKAMAI_PR).v4_subnets);
        // Fastly: exactly two addresses per subnet (/31s).
        let fastly = row(Asn::FASTLY);
        assert_eq!(fastly.v4_addresses, 2 * fastly.v4_subnets as u64);
        // AkamaiPR: most IPv4 addresses despite fewer subnets than CF.
        let akpr = row(Asn::AKAMAI_PR);
        assert!(akpr.v4_addresses > cf.v4_addresses);
        // AkamaiEG: a single BGP prefix for both families.
        let akeg = row(Asn::AKAMAI_EG);
        assert_eq!(akeg.v4_bgp_prefixes, 1);
        assert_eq!(akeg.v6_bgp_prefixes, 1);
        // AkamaiPR provides the most IPv6 subnets.
        assert!(akpr.v6_subnets > cf.v6_subnets);
        assert!(akpr.v6_subnets > fastly.v6_subnets);
        // Country coverage: CF > AkPR ≥ Fastly > AkEG.
        assert!(cf.countries > akpr.countries);
        assert!(akpr.countries > akeg.countries);
    }

    #[test]
    fn table4_shape_matches_paper() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let t4 = analysis.table4();
        let row = |asn: Asn| t4.rows.iter().find(|r| r.asn == asn).unwrap();
        // AkamaiPR covers the most cities overall (driven by IPv6).
        let akpr = row(Asn::AKAMAI_PR);
        let fastly = row(Asn::FASTLY);
        assert!(akpr.cities > fastly.cities);
        assert!(akpr.cities_v6 > akpr.cities_v4);
        // Fastly's v4 and v6 coverage is (nearly) identical — same city
        // pool for both families.
        let ratio = fastly.cities_v4 as f64 / fastly.cities_v6.max(1) as f64;
        assert!((0.7..1.4).contains(&ratio), "fastly v4/v6 ratio {ratio:.2}");
    }

    #[test]
    fn us_share_and_long_tail() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let shares = analysis.country_shares();
        assert_eq!(shares[0].0, CountryCode::US);
        assert!(
            (0.5..0.66).contains(&shares[0].1),
            "US share {:.3}",
            shares[0].1
        );
        // DE in the top few, far behind the US.
        let de = shares
            .iter()
            .find(|(cc, _)| *cc == CountryCode::DE)
            .expect("DE present");
        assert!(de.1 < 0.10);
        // Long tail: many countries under 50 subnets.
        assert!(analysis.countries_below(50) > 80);
    }

    #[test]
    fn blank_city_share_near_paper() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let share = analysis.blank_city_share();
        assert!((0.008..0.03).contains(&share), "blank share {share:.4}");
    }

    #[test]
    fn unique_coverage_is_cloudflare() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        for (cc, asn) in analysis.uniquely_covered_countries() {
            assert_eq!(asn, Asn::CLOUDFLARE, "{cc} uniquely covered by {asn}");
        }
    }

    #[test]
    fn geo_points_cover_all_operators() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let points = analysis.geo_points(&d.universe);
        assert!(!points.is_empty());
        for asn in [Asn::AKAMAI_PR, Asn::AKAMAI_EG, Asn::CLOUDFLARE, Asn::FASTLY] {
            assert!(points.iter().any(|p| p.asn == asn), "no points for {asn}");
        }
        for p in &points {
            assert!((-90.0..=90.0).contains(&p.lat));
            assert!((-180.0..=180.0).contains(&p.lon));
        }
    }

    #[test]
    fn cdfs_are_monotone_and_end_at_one() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        for by_city in [true, false] {
            for v4 in [true, false] {
                for series in analysis.cdf(by_city, v4) {
                    let c = &series.cumulative;
                    if c.is_empty() {
                        continue;
                    }
                    for w in c.windows(2) {
                        assert!(w[1] >= w[0] - 1e-12);
                    }
                    assert!((c.last().unwrap() - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn phantom_locations_expose_represented_not_physical() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let pops = tectonic_geo::country::pop_countries(130);
        let phantoms = analysis.phantom_locations(Asn::AKAMAI_PR, &pops);
        // AkamaiPR represents 236 countries but has PoPs in ~130: dozens of
        // represented countries have no physical presence.
        assert!(
            phantoms.len() > 50,
            "only {} phantom locations",
            phantoms.len()
        );
        // Every phantom really is covered by the egress list.
        for cc in phantoms.iter().take(10) {
            assert!(d.egress_list.entries().iter().any(|e| e.cc == *cc));
        }
        // With the full country set as PoPs, nothing is phantom.
        let all: Vec<_> = tectonic_geo::country::all_countries()
            .iter()
            .map(|c| c.code)
            .collect();
        assert!(analysis.phantom_locations(Asn::AKAMAI_PR, &all).is_empty());
    }

    #[test]
    fn mmdb_adoption_is_total_when_built_from_list() {
        let d = deployment();
        let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
        let db = GeoDb::from_egress_list(&d.egress_list);
        let share = analysis.mmdb_adoption_share(&db);
        assert!(share > 0.99, "adoption share {share:.4}");
    }
}

//! A MaxMind-GeoLite2-style geolocation database.
//!
//! §4.2 of the paper checks the egress addresses against MaxMind and finds
//! the database has *adopted Apple's egress mapping* for most subnets —
//! i.e. it reports the represented client location, not the relay's
//! physical location. [`GeoDb::from_egress_list`] models exactly that
//! adoption; the egress analysis then demonstrates why such a database
//! cannot be used to locate relay nodes.

use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use tectonic_net::PrefixTable;

use crate::country::CountryCode;
use crate::egress::EgressList;

/// A geolocation result.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Location {
    /// Country code.
    pub cc: CountryCode,
    /// Region identifier.
    pub region: String,
    /// City, when known.
    pub city: Option<String>,
}

/// A longest-prefix-match geolocation database.
///
/// The mappings live in one [`PrefixTable`]: staged while ingesting,
/// compiled by [`freeze`](GeoDb::freeze) for the query-heavy analyses.
/// Inserting after a freeze patches the compiled table through its delta
/// overlay, so lookups are always correct — freezing is purely a fast
/// path.
#[derive(Debug, Default)]
pub struct GeoDb {
    table: PrefixTable<Location>,
}

impl GeoDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped prefixes.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no prefix is mapped.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Inserts a mapping. A live compiled table is patched through the
    /// delta overlay rather than dropped.
    pub fn insert(&mut self, net: impl Into<tectonic_net::IpNet>, loc: Location) {
        self.table.insert(net.into(), loc);
    }

    /// Compiles the current mappings for steady-state lookups.
    pub fn freeze(&mut self) {
        self.table.freeze();
    }

    /// `true` when the mappings have been compiled.
    pub fn is_frozen(&self) -> bool {
        self.table.is_frozen()
    }

    /// Builds the database by adopting an egress list's represented
    /// locations — the behaviour the paper observed in GeoLite2.
    pub fn from_egress_list(list: &EgressList) -> GeoDb {
        let mut db = GeoDb::new();
        for e in list.entries() {
            db.insert(
                e.subnet,
                Location {
                    cc: e.cc,
                    region: e.region.clone(),
                    city: e.city.clone(),
                },
            );
        }
        db.freeze();
        db
    }

    /// Looks up an address.
    pub fn lookup(&self, addr: IpAddr) -> Option<&Location> {
        self.table.lookup(addr).map(|(_, loc)| loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egress::EgressEntry;
    use tectonic_net::IpNet;

    fn sample_list() -> EgressList {
        EgressList::from_entries(vec![
            EgressEntry {
                subnet: "172.224.0.0/27".parse().unwrap(),
                cc: CountryCode::US,
                region: "US-CA".into(),
                city: Some("US-City-0001".into()),
            },
            EgressEntry {
                subnet: "172.224.0.32/27".parse().unwrap(),
                cc: CountryCode::DE,
                region: "DE-R01".into(),
                city: None,
            },
            EgressEntry {
                subnet: "2a02:26f7::/64".parse().unwrap(),
                cc: CountryCode::US,
                region: "US-NY".into(),
                city: Some("US-City-0002".into()),
            },
        ])
    }

    #[test]
    fn adopts_egress_mapping() {
        let db = GeoDb::from_egress_list(&sample_list());
        assert_eq!(db.len(), 3);
        let loc = db.lookup("172.224.0.5".parse().unwrap()).unwrap();
        assert_eq!(loc.cc, CountryCode::US);
        assert_eq!(loc.city.as_deref(), Some("US-City-0001"));
        let loc = db.lookup("172.224.0.40".parse().unwrap()).unwrap();
        assert_eq!(loc.cc, CountryCode::DE);
        assert_eq!(loc.city, None);
        let loc6 = db.lookup("2a02:26f7::1234".parse().unwrap()).unwrap();
        assert_eq!(loc6.region, "US-NY");
    }

    #[test]
    fn miss_outside_mapped_space() {
        let db = GeoDb::from_egress_list(&sample_list());
        assert!(db.lookup("8.8.8.8".parse().unwrap()).is_none());
        assert!(db.lookup("2001:db8::1".parse().unwrap()).is_none());
    }

    #[test]
    fn insert_after_freeze_patches_and_stays_correct() {
        let mut db = GeoDb::from_egress_list(&sample_list());
        assert!(db.is_frozen());
        db.insert(
            "172.224.0.0/24".parse::<IpNet>().unwrap(),
            Location {
                cc: CountryCode::literal("GB"),
                region: "GB-R00".into(),
                city: None,
            },
        );
        // The compiled snapshot survives: the insert went through the
        // delta overlay instead of invalidating.
        assert!(db.is_frozen());
        // More-specific /27 from the egress list still wins...
        let loc = db.lookup("172.224.0.5".parse().unwrap()).unwrap();
        assert_eq!(loc.cc, CountryCode::US);
        // ...and the new covering /24 answers the gap between the /27s.
        let loc = db.lookup("172.224.0.200".parse().unwrap()).unwrap();
        assert_eq!(loc.cc, CountryCode::literal("GB"));
        // Re-freezing gives the same answers from the compiled table.
        db.freeze();
        assert!(db.is_frozen());
        assert_eq!(
            db.lookup("172.224.0.200".parse().unwrap()).unwrap().cc,
            CountryCode::literal("GB")
        );
        assert_eq!(
            db.lookup("172.224.0.40".parse().unwrap()).unwrap().cc,
            CountryCode::DE
        );
    }

    #[test]
    fn manual_insert_longest_match() {
        let mut db = GeoDb::new();
        db.insert(
            "10.0.0.0/8".parse::<IpNet>().unwrap(),
            Location {
                cc: CountryCode::US,
                region: "US-R00".into(),
                city: None,
            },
        );
        db.insert(
            "10.1.0.0/16".parse::<IpNet>().unwrap(),
            Location {
                cc: CountryCode::DE,
                region: "DE-R00".into(),
                city: None,
            },
        );
        assert_eq!(
            db.lookup("10.1.2.3".parse().unwrap()).unwrap().cc,
            CountryCode::DE
        );
        assert_eq!(
            db.lookup("10.9.9.9".parse().unwrap()).unwrap().cc,
            CountryCode::US
        );
        assert!(!db.is_empty());
    }
}

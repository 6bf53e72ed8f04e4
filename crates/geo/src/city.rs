//! A deterministic city universe.
//!
//! The egress list maps subnets to `(country, region, city)` triples; the
//! paper's Table 4 counts covered cities per operator (up to 14 k for
//! Akamai&#8239;PR). [`CityUniverse::generate`] synthesises a fixed universe
//! of named cities per country — sized by population weight, coordinates
//! jittered around the country centroid — from which the egress generator
//! samples.

use serde::{Deserialize, Serialize};
use tectonic_net::SimRng;

use crate::country::{all_countries, CountryCode};

/// One city.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct City {
    /// City name, unique within the universe.
    pub name: String,
    /// Country the city is in.
    pub cc: CountryCode,
    /// Region identifier in Apple's `CC-Region` style (e.g. `US-CA`).
    pub region: String,
    /// Latitude, degrees.
    pub lat: f64,
    /// Longitude, degrees.
    pub lon: f64,
}

/// The full set of cities available to the simulation.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CityUniverse {
    cities: Vec<City>,
    /// Index ranges into `cities` per country (start, len).
    index: Vec<(CountryCode, usize, usize)>,
}

impl CityUniverse {
    /// Generates roughly `target_total` cities across all countries,
    /// proportional to population weight with a minimum of 2 per country.
    ///
    /// City coordinates are jittered within a few degrees of the country
    /// centroid; latitudes are clamped to the valid range. Names are
    /// synthetic (`"US-City-0017"`) — the analyses only need identity, not
    /// toponymy.
    pub fn generate(rng: &mut SimRng, target_total: usize) -> CityUniverse {
        let countries = all_countries();
        let total_weight: f64 = countries.iter().map(|c| c.weight).sum();
        let mut cities = Vec::new();
        let mut index = Vec::new();
        for info in &countries {
            let share = info.weight / total_weight;
            let count = ((target_total as f64 * share).round() as usize).max(2);
            let start = cities.len();
            let mut crng = rng.fork(&format!("cities-{}", info.code));
            for i in 0..count {
                // Spread scales gently with city count so big countries
                // occupy more of the map.
                let spread = 2.0 + (count as f64).log10();
                let lat = (info.lat + (crng.unit() - 0.5) * spread).clamp(-89.9, 89.9);
                let mut lon = info.lon + (crng.unit() - 0.5) * spread * 1.5;
                if lon > 180.0 {
                    lon -= 360.0;
                }
                if lon < -180.0 {
                    lon += 360.0;
                }
                let region = format!("{}-R{:02}", info.code, i % 50);
                cities.push(City {
                    name: format!("{}-City-{:04}", info.code, i),
                    cc: info.code,
                    region,
                    lat,
                    lon,
                });
            }
            index.push((info.code, start, count));
        }
        CityUniverse { cities, index }
    }

    /// Total number of cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// `true` when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Cities of one country.
    pub fn cities_of(&self, cc: CountryCode) -> &[City] {
        self.index
            .iter()
            .find(|(c, _, _)| *c == cc)
            .and_then(|(_, start, len)| self.cities.get(*start..*start + *len))
            .unwrap_or(&[])
    }

    /// The countries present, in table order.
    pub fn countries(&self) -> Vec<CountryCode> {
        self.index.iter().map(|(c, _, _)| *c).collect()
    }

    /// A specific city by name.
    pub fn by_name(&self, name: &str) -> Option<&City> {
        self.cities.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn universe() -> CityUniverse {
        CityUniverse::generate(&mut SimRng::new(42), 25_000)
    }

    #[test]
    fn generates_roughly_target_count() {
        let u = universe();
        assert!(
            (20_000..35_000).contains(&u.len()),
            "unexpected size {}",
            u.len()
        );
    }

    #[test]
    fn every_country_has_cities() {
        let u = universe();
        for cc in u.countries() {
            assert!(u.cities_of(cc).len() >= 2, "{cc} has too few cities");
        }
    }

    #[test]
    fn us_has_many_more_cities_than_small_countries() {
        let u = universe();
        let us = u.cities_of(CountryCode::US).len();
        let kn = u.cities_of(CountryCode::new("KN").unwrap()).len();
        assert!(us > 500, "US only has {us} cities");
        assert!(kn < 20, "KN has {kn} cities");
        assert!(us > kn * 10);
    }

    #[test]
    fn names_are_unique_and_typed() {
        let u = universe();
        let names: HashSet<_> = u.cities().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), u.len());
        let c = &u.cities_of(CountryCode::DE)[0];
        assert!(c.name.starts_with("DE-City-"));
        assert!(c.region.starts_with("DE-R"));
    }

    #[test]
    fn coordinates_near_country_centroid() {
        let u = universe();
        let info = crate::country::country_info(CountryCode::DE).unwrap();
        for c in u.cities_of(CountryCode::DE) {
            assert!((c.lat - info.lat).abs() < 10.0);
            assert!((c.lon - info.lon).abs() < 15.0);
            assert!((-90.0..=90.0).contains(&c.lat));
            assert!((-180.0..=180.0).contains(&c.lon));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CityUniverse::generate(&mut SimRng::new(9), 5_000);
        let b = CityUniverse::generate(&mut SimRng::new(9), 5_000);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.cities()[10], b.cities()[10]);
    }

    #[test]
    fn by_name_lookup() {
        let u = universe();
        let first = &u.cities()[0];
        assert_eq!(u.by_name(&first.name), Some(first));
        assert!(u.by_name("Atlantis").is_none());
    }
}

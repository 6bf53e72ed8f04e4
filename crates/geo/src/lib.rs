//! # tectonic-geo
//!
//! Geography for the reproduction of the paper's egress analyses (§4.2,
//! Tables 3–4, Figures 2/4/5):
//!
//! * [`country`] — ISO-style country codes with centroid coordinates and
//!   population weights used to synthesise realistic location skews,
//! * [`city`] — a deterministic city universe (every country gets a set of
//!   cities with jittered coordinates),
//! * [`geohash`] — standard geohash encoding, the mechanism iCloud Private
//!   Relay uses to carry approximate client location to the egress,
//! * [`egress`] — the `egress-ip-ranges.csv` data model: parser/serialiser
//!   for Apple's published format plus a generator calibrated to the
//!   paper's per-operator subnet structure,
//! * [`mmdb`] — a MaxMind-GeoLite2-style lookup database; the paper found
//!   MaxMind had adopted Apple's egress mapping, which is modelled by
//!   building the DB straight from the egress list.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

pub mod city;
pub mod coords;
pub mod country;
pub mod csv;
pub mod egress;
pub mod geohash;
pub mod mmdb;

pub use city::{City, CityUniverse};
pub use coords::haversine_km;
pub use country::{nearest_country, CountryCode, CountryInfo};
pub use csv::{CsvParseStats, EgressParseError};
pub use egress::{EgressEntry, EgressList, OperatorEgressSpec};
pub use mmdb::{GeoDb, Location};

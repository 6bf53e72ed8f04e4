//! Egress address rotation statistics (§4.3, R4).
//!
//! Computed from a fine-grained through-relay scan: distinct addresses and
//! subnets observed, the consecutive-request change rate (the paper: >66 %
//! over 48 h at 30-second rounds, six addresses from four subnets; the
//! three-address cell pool predicts 1 − 1/3), and how often the parallel
//! Safari/curl pair diverges.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::relay_scan::RelayScanSeries;

/// Rotation statistics over one scan series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RotationReport {
    /// Rounds analysed.
    pub rounds: usize,
    /// Distinct egress addresses observed (curl series).
    pub distinct_addresses: usize,
    /// Distinct egress subnets observed (curl series).
    pub distinct_subnets: usize,
    /// Share of consecutive rounds whose egress address changed.
    pub change_rate: f64,
    /// Share of rounds where Safari and curl observed different egress
    /// addresses.
    pub parallel_divergence: f64,
    /// Distinct operators observed.
    pub operators: usize,
}

impl RotationReport {
    /// Computes the statistics from a scan series.
    pub fn from_series(series: &RelayScanSeries) -> RotationReport {
        let curl = series.curl_requests();
        let addresses: BTreeSet<&str> = curl.iter().map(|r| r.egress_addr.as_str()).collect();
        let subnets: BTreeSet<&str> = curl.iter().map(|r| r.egress_subnet.as_str()).collect();
        let changes = curl
            .windows(2)
            .filter(|w| matches!(w, [a, b] if a.egress_addr != b.egress_addr))
            .count();
        let divergent = series
            .rounds
            .iter()
            .filter(|r| r.safari.egress_addr != r.curl.egress_addr)
            .count();
        RotationReport {
            rounds: series.rounds.len(),
            distinct_addresses: addresses.len(),
            distinct_subnets: subnets.len(),
            change_rate: changes as f64 / curl.len().saturating_sub(1).max(1) as f64,
            parallel_divergence: divergent as f64 / series.rounds.len().max(1) as f64,
            operators: series.operators_seen().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay_scan::RelayScanConfig;
    use tectonic_geo::country::CountryCode;
    use tectonic_net::Epoch;
    use tectonic_relay::session::CELL_POOL_SIZE;
    use tectonic_relay::{Deployment, DeploymentConfig, DnsMode};

    fn report() -> RotationReport {
        let d = Deployment::build(66, DeploymentConfig::scaled(128));
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
        let series = crate::relay_scan::RelayScanSeries::run(
            &device,
            &auth,
            &RelayScanConfig::rotation_series(),
            Epoch::May2022.start(),
        );
        RotationReport::from_series(&series)
    }

    #[test]
    fn change_rate_matches_the_cell_pool() {
        let r = report();
        assert_eq!(r.rounds, 5760);
        // Independent draws from a three-address pool change address on
        // 2/3 of consecutive requests (the paper: >66 %).
        assert!(
            (0.60..=0.74).contains(&r.change_rate),
            "change rate {:.3}",
            r.change_rate
        );
    }

    #[test]
    fn small_address_pool() {
        let r = report();
        // The paper saw 6 addresses from 4 subnets; each operator serves
        // the device's cell from one small pool, not an open-ended set.
        assert!(
            (3..=CELL_POOL_SIZE * r.operators).contains(&r.distinct_addresses),
            "addresses {} from {} operators",
            r.distinct_addresses,
            r.operators
        );
        assert!(r.distinct_subnets >= 2);
    }

    #[test]
    fn parallel_requests_diverge_frequently() {
        let r = report();
        assert!(
            (0.60..=0.74).contains(&r.parallel_divergence),
            "divergence {:.3}",
            r.parallel_divergence
        );
    }

    #[test]
    fn empty_series_yields_zeroes() {
        let empty = RelayScanSeries {
            rounds: vec![],
            failures: 0,
        };
        let r = RotationReport::from_series(&empty);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.distinct_addresses, 0);
        assert_eq!(r.change_rate, 0.0);
    }
}

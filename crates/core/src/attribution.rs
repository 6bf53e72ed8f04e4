//! Client-AS attribution and the APNIC-population join (Table 2).
//!
//! Groups the client ASes observed in an ECS scan by which ingress operator
//! serves them (Akamai-only / Apple-only / both), then joins each group
//! with the per-AS user populations — the paper's answer to "who actually
//! serves the users?". The scan report's per-address operator attribution
//! is one [`Rib::lookup`](tectonic_bgp::Rib::lookup) per distinct answered
//! address, taken by each scan shard the first time it sees the address.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tectonic_bgp::AsPopulation;

use crate::ecs_scan::{EcsScanReport, ServingCategory};

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// The serving category.
    pub category: ServingCategory,
    /// Estimated users across the category's ASes.
    pub users: u64,
    /// Number of client ASes in the category.
    pub ases: usize,
    /// Number of answered /24 subnets in the category.
    pub slash24: u64,
    /// Apple's subnet share within the category (only meaningful for
    /// `Both`; the paper's footnote reports 76 %).
    pub apple_subnet_share: f64,
}

/// The full Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Rows in the paper's order: Akamai PR, Apple, Both.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Builds the table from a scan report and a population dataset.
    pub fn build(report: &EcsScanReport, aspop: &AsPopulation) -> Table2 {
        let mut grouped: BTreeMap<ServingCategory, (u64, usize, u64, u64)> = BTreeMap::new();
        for (asn, serving) in &report.per_client_as {
            let Some(category) = serving.category() else {
                continue;
            };
            let entry = grouped.entry(category).or_insert((0, 0, 0, 0));
            entry.0 += aspop.get(*asn);
            entry.1 += 1;
            entry.2 += serving.apple_subnets + serving.akamai_subnets;
            entry.3 += serving.apple_subnets;
        }
        let rows = [
            ServingCategory::AkamaiOnly,
            ServingCategory::AppleOnly,
            ServingCategory::Both,
        ]
        .iter()
        .map(|category| {
            let (users, ases, slash24, apple) =
                grouped.get(category).copied().unwrap_or((0, 0, 0, 0));
            Table2Row {
                category: *category,
                users,
                ases,
                slash24,
                apple_subnet_share: apple as f64 / slash24.max(1) as f64,
            }
        })
        .collect();
        Table2 { rows }
    }

    /// Row lookup.
    #[expect(
        clippy::expect_used,
        reason = "the constructor emits one row per category unconditionally"
    )]
    pub fn row(&self, category: ServingCategory) -> &Table2Row {
        self.rows
            .iter()
            .find(|r| r.category == category)
            .expect("all categories present")
    }

    /// §4.1's headline share: subnets served by Apple across all
    /// categories.
    pub fn apple_subnet_share_overall(&self) -> f64 {
        let apple: f64 = self
            .rows
            .iter()
            .map(|r| r.slash24 as f64 * r.apple_subnet_share)
            .sum();
        let total: u64 = self.rows.iter().map(|r| r.slash24).sum();
        apple / total.max(1) as f64
    }
}

/// Ordering for serde/BTreeMap use.
impl Ord for ServingCategory {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(c: &ServingCategory) -> u8 {
            match c {
                ServingCategory::AkamaiOnly => 0,
                ServingCategory::AppleOnly => 1,
                ServingCategory::Both => 2,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl PartialOrd for ServingCategory {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The label the paper's table uses for a category.
pub fn category_label(category: ServingCategory) -> &'static str {
    match category {
        ServingCategory::AkamaiOnly => "AkamaiPR",
        ServingCategory::AppleOnly => "Apple",
        ServingCategory::Both => "Both",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecs_scan::{AsServing, EcsScanner};
    use tectonic_net::{Epoch, SimClock};
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    fn scan_report() -> (Deployment, EcsScanReport) {
        let d = Deployment::build(21, DeploymentConfig::scaled(1024));
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let report = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
        (d, report)
    }

    #[test]
    fn categories_from_serving_counts() {
        assert_eq!(
            AsServing {
                apple_subnets: 3,
                akamai_subnets: 0
            }
            .category(),
            Some(ServingCategory::AppleOnly)
        );
        assert_eq!(
            AsServing {
                apple_subnets: 0,
                akamai_subnets: 1
            }
            .category(),
            Some(ServingCategory::AkamaiOnly)
        );
        assert_eq!(
            AsServing {
                apple_subnets: 1,
                akamai_subnets: 1
            }
            .category(),
            Some(ServingCategory::Both)
        );
        assert_eq!(AsServing::default().category(), None);
    }

    #[test]
    fn table2_from_real_scan_has_paper_shape() {
        let (d, report) = scan_report();
        let table = Table2::build(&report, &d.aspop);
        let both = table.row(ServingCategory::Both);
        let akamai = table.row(ServingCategory::AkamaiOnly);
        let apple = table.row(ServingCategory::AppleOnly);
        // The both-category holds the bulk of subnets and users.
        assert!(both.slash24 > akamai.slash24);
        assert!(both.slash24 > apple.slash24);
        assert!(both.users > akamai.users);
        // Akamai-only has more ASes than Apple-only (34.6k vs 20.8k).
        assert!(
            akamai.ases > apple.ases,
            "{} !> {}",
            akamai.ases,
            apple.ases
        );
        // Apple's subnet share inside both-ASes ≈ 76 %.
        assert!(
            (0.70..0.82).contains(&both.apple_subnet_share),
            "share {:.3}",
            both.apple_subnet_share
        );
        // Overall Apple share ≈ 69 %.
        let overall = table.apple_subnet_share_overall();
        assert!((0.63..0.75).contains(&overall), "overall {overall:.3}");
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(category_label(ServingCategory::AkamaiOnly), "AkamaiPR");
        assert_eq!(category_label(ServingCategory::AppleOnly), "Apple");
        assert_eq!(category_label(ServingCategory::Both), "Both");
    }

    #[test]
    fn empty_report_yields_zero_rows() {
        let d = Deployment::build(5, DeploymentConfig::scaled(2048));
        let empty = EcsScanReport {
            domain: "mask.icloud.com".parse().unwrap(),
            discovered: Default::default(),
            by_ingress_as: Default::default(),
            per_client_as: Default::default(),
            ingress_prefixes: Default::default(),
            subnets_served: Default::default(),
            queries_sent: 0,
            skipped_by_scope: 0,
            skipped_unrouted: 0,
            rate_limited: 0,
            retries: 0,
            exhausted: 0,
            decode_errors: 0,
            duration: tectonic_net::SimDuration::ZERO,
        };
        let table = Table2::build(&empty, &d.aspop);
        assert_eq!(table.rows.len(), 3);
        assert!(table.rows.iter().all(|r| r.ases == 0 && r.users == 0));
    }

    #[test]
    fn category_ordering() {
        assert!(ServingCategory::AkamaiOnly < ServingCategory::AppleOnly);
        assert!(ServingCategory::AppleOnly < ServingCategory::Both);
    }
}

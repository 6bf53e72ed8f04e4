//! Longitudinal scan monitoring (§6 future work: "How does the system
//! evolve, and where is it available?").
//!
//! The authors committed to regular re-scans published at
//! `relay-networks.github.io`. This module is the tooling for that: diff
//! two scan snapshots (added/removed addresses, per-AS deltas, churn) and
//! fold a sequence of scans into an evolution timeline.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};
use tectonic_net::{Asn, Epoch};

use crate::ecs_scan::EcsScanReport;

/// Differences between two scan snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanDiff {
    /// Addresses present only in the newer scan.
    pub added: BTreeSet<Ipv4Addr>,
    /// Addresses present only in the older scan.
    pub removed: BTreeSet<Ipv4Addr>,
    /// Addresses present in both.
    pub stable: usize,
    /// `removed / old_total` — how much of the old fleet vanished.
    pub churn_rate: f64,
    /// `(new_total - old_total) / old_total`.
    pub growth_rate: f64,
    /// Per-AS `(old, new)` counts.
    pub by_as: Vec<(Asn, usize, usize)>,
}

impl ScanDiff {
    /// Diffs `new` against `old`.
    pub fn between(old: &EcsScanReport, new: &EcsScanReport) -> ScanDiff {
        let added: BTreeSet<Ipv4Addr> = new
            .discovered
            .difference(&old.discovered)
            .copied()
            .collect();
        let removed: BTreeSet<Ipv4Addr> = old
            .discovered
            .difference(&new.discovered)
            .copied()
            .collect();
        let stable = old.discovered.intersection(&new.discovered).count();
        let old_total = old.total().max(1) as f64;
        let mut asns: BTreeSet<Asn> = old.by_ingress_as.keys().copied().collect();
        asns.extend(new.by_ingress_as.keys().copied());
        let by_as = asns
            .into_iter()
            .map(|asn| (asn, old.count_for(asn), new.count_for(asn)))
            .collect();
        let churn_rate = removed.len() as f64 / old_total;
        ScanDiff {
            added,
            removed,
            stable,
            churn_rate,
            growth_rate: (new.total() as f64 - old.total() as f64) / old_total,
            by_as,
        }
    }
}

/// One point of the evolution timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionPoint {
    /// The scan epoch.
    pub epoch: Epoch,
    /// Total addresses.
    pub total: usize,
    /// Per-AS counts.
    pub by_as: Vec<(Asn, usize)>,
    /// Diff against the previous point (`None` for the first).
    pub diff: Option<ScanDiff>,
}

/// Folds a chronological scan sequence into a timeline.
pub fn evolution(scans: &[(Epoch, EcsScanReport)]) -> Vec<EvolutionPoint> {
    let mut out = Vec::with_capacity(scans.len());
    let mut previous: Option<&EcsScanReport> = None;
    for (epoch, scan) in scans {
        let diff = previous.map(|prev| ScanDiff::between(prev, scan));
        previous = Some(scan);
        out.push(EvolutionPoint {
            epoch: *epoch,
            total: scan.total(),
            by_as: Asn::INGRESS_OPERATORS
                .iter()
                .map(|asn| (*asn, scan.count_for(*asn)))
                .collect(),
            diff,
        });
    }
    out
}

/// Renders the timeline.
pub fn render_evolution(points: &[EvolutionPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Ingress fleet evolution");
    let _ = writeln!(
        out,
        "{:<6} | {:>6} | {:>7} {:>7} | {:>6} {:>7} {:>7}",
        "epoch", "total", "Apple", "Akamai", "added", "removed", "churn"
    );
    for p in points {
        let apple = p
            .by_as
            .iter()
            .find(|(a, _)| *a == Asn::APPLE)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let akamai = p
            .by_as
            .iter()
            .find(|(a, _)| *a == Asn::AKAMAI_PR)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        match &p.diff {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "{:<6} | {:>6} | {:>7} {:>7} | {:>6} {:>7} {:>6.1}%",
                    p.epoch.label(),
                    p.total,
                    apple,
                    akamai,
                    d.added.len(),
                    d.removed.len(),
                    d.churn_rate * 100.0
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<6} | {:>6} | {:>7} {:>7} | {:>6} {:>7} {:>7}",
                    p.epoch.label(),
                    p.total,
                    apple,
                    akamai,
                    "-",
                    "-",
                    "-"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecs_scan::EcsScanner;
    use tectonic_net::SimClock;
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    fn scans() -> Vec<(Epoch, EcsScanReport)> {
        let d = Deployment::build(21, DeploymentConfig::scaled(512));
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        Epoch::SCANS
            .iter()
            .map(|epoch| {
                let mut clock = SimClock::new(epoch.start());
                (
                    *epoch,
                    scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock),
                )
            })
            .collect()
    }

    #[test]
    fn diff_partitions_addresses() {
        let scans = scans();
        let diff = ScanDiff::between(&scans[0].1, &scans[3].1);
        assert_eq!(
            diff.stable + diff.removed.len(),
            scans[0].1.total(),
            "old = stable + removed"
        );
        assert_eq!(
            diff.stable + diff.added.len(),
            scans[3].1.total(),
            "new = stable + added"
        );
        // Fleets grow as prefix windows: low churn, positive growth.
        assert!(diff.growth_rate > 0.2, "growth {:.3}", diff.growth_rate);
        assert!(diff.churn_rate < 0.1, "churn {:.3}", diff.churn_rate);
    }

    #[test]
    fn per_as_deltas_match_totals() {
        let scans = scans();
        let diff = ScanDiff::between(&scans[0].1, &scans[3].1);
        let old_sum: usize = diff.by_as.iter().map(|(_, o, _)| o).sum();
        let new_sum: usize = diff.by_as.iter().map(|(_, _, n)| n).sum();
        assert_eq!(old_sum, scans[0].1.total());
        assert_eq!(new_sum, scans[3].1.total());
        // Akamai grows; Apple roughly steady (Table 1's pattern).
        let akamai = diff
            .by_as
            .iter()
            .find(|(a, _, _)| *a == Asn::AKAMAI_PR)
            .unwrap();
        assert!(akamai.2 > akamai.1);
    }

    #[test]
    fn evolution_timeline_is_chronological() {
        let scans = scans();
        let points = evolution(&scans);
        assert_eq!(points.len(), 4);
        assert!(points[0].diff.is_none());
        for p in &points[1..] {
            assert!(p.diff.is_some());
        }
        // Totals never shrink drastically in the observation window.
        for pair in points.windows(2) {
            assert!(pair[1].total as f64 > pair[0].total as f64 * 0.95);
        }
        let text = render_evolution(&points);
        assert!(text.contains("Jan"));
        assert!(text.contains("Apr"));
    }

    #[test]
    fn identical_scans_diff_to_zero() {
        let scans = scans();
        let diff = ScanDiff::between(&scans[2].1, &scans[2].1);
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        assert_eq!(diff.churn_rate, 0.0);
        assert_eq!(diff.growth_rate, 0.0);
    }
}

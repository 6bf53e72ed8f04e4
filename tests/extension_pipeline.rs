//! Integration: the §6 future-work extensions working together — scan,
//! monitor the evolution, locate bottlenecks, archive everything, reload
//! and diff.

use tectonic::core::dataset::{Archive, ArchiveMeta};
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::core::load::LoadReport;
use tectonic::core::monitor::{evolution, ScanDiff};
use tectonic::core::qoe::qoe_experiment;
use tectonic::net::{Asn, Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, Domain, LatencyModel};

fn deployment() -> Deployment {
    Deployment::build(777, DeploymentConfig::scaled(512))
}

fn scans(d: &Deployment) -> Vec<(Epoch, tectonic::core::ecs_scan::EcsScanReport)> {
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
fn monitoring_pipeline_tracks_table1_growth() {
    let d = deployment();
    let scans = scans(&d);
    let timeline = evolution(&scans);
    // The April point reflects Table 1's headline.
    let apr = timeline.last().unwrap();
    assert_eq!(apr.epoch, Epoch::Apr2022);
    let akamai = apr
        .by_as
        .iter()
        .find(|(a, _)| *a == Asn::AKAMAI_PR)
        .map(|(_, c)| *c)
        .unwrap();
    assert!(akamai > 1200, "AkamaiPR April count {akamai}");
    // Every diff in the timeline conserves addresses.
    for point in &timeline[1..] {
        let diff = point.diff.as_ref().unwrap();
        assert!(diff.churn_rate < 0.1);
    }
}

#[test]
fn load_follows_the_serving_split() {
    let d = deployment();
    let scans = scans(&d);
    let april = &scans[3].1;
    let load = LoadReport::build(april, &|a| d.fleets.asn_of(std::net::IpAddr::V4(a)), 10);
    let apple = load.operators.iter().find(|o| o.asn == Asn::APPLE).unwrap();
    let akamai = load
        .operators
        .iter()
        .find(|o| o.asn == Asn::AKAMAI_PR)
        .unwrap();
    // Apple's total served subnets ≈ 69 % of everything (Table 2), carried
    // by far fewer addresses.
    let total = apple.subnets + akamai.subnets;
    let apple_share = apple.subnets as f64 / total as f64;
    assert!((0.6..0.8).contains(&apple_share), "share {apple_share:.3}");
    assert!(apple.addresses < akamai.addresses);
    assert!(apple.mean > 3.0 * akamai.mean);
    // Hotspots are real scan addresses.
    for (addr, _) in &load.hotspots {
        assert!(april.discovered.contains(addr));
    }
}

#[test]
fn archive_reload_supports_future_monitoring() {
    let d = deployment();
    let scan_list = scans(&d);
    let mut archive = Archive::new(ArchiveMeta {
        seed: 777,
        scale: 512,
        version: "test".into(),
    });
    for (epoch, report) in &scan_list {
        archive.add_scan(*epoch, report.clone());
    }
    let dir = std::env::temp_dir().join(format!(
        "tectonic-extension-pipeline-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    archive.write_to_dir(&dir, Some(&d.egress_list)).unwrap();
    // A "future session" loads the archive and diffs a fresh scan against
    // the stored April snapshot.
    let loaded = Archive::load_from_dir(&dir).unwrap();
    let stored_apr = loaded.scans.get("Apr").unwrap();
    let fresh = &scan_list[3].1;
    let diff = ScanDiff::between(stored_apr, fresh);
    assert!(diff.added.is_empty());
    assert!(diff.removed.is_empty());
    // The archived egress list round-trips.
    let (egress, stats) = Archive::load_egress(&dir).unwrap().unwrap();
    assert_eq!(egress.len(), d.egress_list.len());
    assert_eq!(stats.rows_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn qoe_shapes_are_stable_across_seeds() {
    let d = deployment();
    let optimised = qoe_experiment(&d, &LatencyModel::default(), 2_000, 1);
    let optimised2 = qoe_experiment(&d, &LatencyModel::default(), 2_000, 2);
    // Different workload seeds, same conclusion: the optimised backbone
    // keeps most connections near the direct path.
    for r in [&optimised, &optimised2] {
        assert!(
            r.within_10pct > 0.5,
            "within-10% share {:.3}",
            r.within_10pct
        );
        assert!(
            r.p95_overhead_ms < 60.0,
            "p95 overhead {:.1}",
            r.p95_overhead_ms
        );
    }
}

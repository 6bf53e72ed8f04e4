//! The research data archive.
//!
//! The paper publishes its datasets (ingress address lists, scan results)
//! as a citable archive and keeps current results on a companion website.
//! [`Archive`] is that artefact as a typed object: collect the experiment
//! outputs, write them as a directory of JSON files plus the Apple-format
//! egress CSV, and load them back for longitudinal comparison.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::Ipv4Addr;
use std::path::Path;

use serde::{Deserialize, Serialize};
use tectonic_net::Epoch;

use tectonic_geo::egress::{CsvParseStats, EgressList};

use crate::attribution::Table2;
use crate::blocking::BlockingReport;
use crate::correlation::CorrelationReport;
use crate::ecs_scan::EcsScanReport;
use crate::egress_analysis::{Table3, Table4};
use crate::rotation::RotationReport;

/// Archive metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchiveMeta {
    /// The deployment seed the results were produced from.
    pub seed: u64,
    /// The client-world scale divisor.
    pub scale: u64,
    /// Tool version (the crate version at write time).
    pub version: String,
}

/// The collected research artefact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Archive {
    /// Metadata, if set.
    pub meta: Option<ArchiveMeta>,
    /// Per-epoch ECS scan reports (default domain).
    pub scans: BTreeMap<String, EcsScanReport>,
    /// Table 2, if produced.
    pub table2: Option<Table2>,
    /// Table 3, if produced.
    pub table3: Option<Table3>,
    /// Table 4, if produced.
    pub table4: Option<Table4>,
    /// The blocking survey, if produced.
    pub blocking: Option<BlockingReport>,
    /// Rotation statistics, if produced.
    pub rotation: Option<RotationReport>,
    /// The correlation audit, if produced.
    pub correlation: Option<CorrelationReport>,
}

impl Archive {
    /// An empty archive with metadata.
    pub fn new(meta: ArchiveMeta) -> Archive {
        Archive {
            meta: Some(meta),
            ..Archive::default()
        }
    }

    /// Adds one epoch's scan.
    pub fn add_scan(&mut self, epoch: Epoch, report: EcsScanReport) {
        self.scans.insert(epoch.label().to_string(), report);
    }

    /// The published ingress-address list for an epoch (the dataset the
    /// paper's §1 promises to fellow researchers).
    pub fn ingress_list(&self, epoch: Epoch) -> Option<Vec<Ipv4Addr>> {
        self.scans
            .get(epoch.label())
            .map(|r| r.discovered.iter().copied().collect())
    }

    /// Writes the archive as `archive.json` (plus `egress-ip-ranges.csv`
    /// when an egress list is supplied) into `dir`.
    pub fn write_to_dir(&self, dir: &Path, egress: Option<&EgressList>) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::write(dir.join("archive.json"), json)?;
        if let Some(list) = egress {
            fs::write(dir.join("egress-ip-ranges.csv"), list.to_csv())?;
        }
        Ok(())
    }

    /// Loads an archive written by [`Archive::write_to_dir`].
    pub fn load_from_dir(dir: &Path) -> io::Result<Archive> {
        let json = fs::read_to_string(dir.join("archive.json"))?;
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Loads the egress CSV next to an archive, if present. The file comes
    /// from outside the program, so the parse is lossy: malformed rows are
    /// skipped and counted in the returned [`CsvParseStats`], and one
    /// corrupt row cannot abort a Table 3/4 run.
    pub fn load_egress(dir: &Path) -> io::Result<Option<(EgressList, CsvParseStats)>> {
        let path = dir.join("egress-ip-ranges.csv");
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(path)?;
        Ok(Some(EgressList::parse_csv_lossy(&text)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecs_scan::EcsScanner;
    use tectonic_net::SimClock;
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tectonic-archive-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn build_archive() -> (Deployment, Archive) {
        let d = Deployment::build(21, DeploymentConfig::scaled(1024));
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let mut archive = Archive::new(ArchiveMeta {
            seed: 21,
            scale: 1024,
            version: env!("CARGO_PKG_VERSION").to_string(),
        });
        for epoch in [Epoch::Jan2022, Epoch::Apr2022] {
            let mut clock = SimClock::new(epoch.start());
            let report = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
            archive.add_scan(epoch, report);
        }
        let april = archive.scans.get("Apr").unwrap().clone();
        archive.table2 = Some(Table2::build(&april, &d.aspop));
        (d, archive)
    }

    #[test]
    fn archive_round_trips_through_disk() {
        let (d, archive) = build_archive();
        let dir = tempdir("roundtrip");
        archive
            .write_to_dir(&dir, Some(&d.egress_list))
            .expect("write archive");
        let loaded = Archive::load_from_dir(&dir).expect("load archive");
        assert_eq!(loaded.meta, archive.meta);
        assert_eq!(loaded.scans.len(), 2);
        assert_eq!(
            loaded.scans.get("Apr").unwrap().discovered,
            archive.scans.get("Apr").unwrap().discovered
        );
        assert_eq!(loaded.table2, archive.table2);
        let (egress, stats) = Archive::load_egress(&dir)
            .expect("load csv")
            .expect("csv present");
        assert_eq!(egress.len(), d.egress_list.len());
        assert_eq!(stats.rows_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingress_list_exports_the_dataset() {
        let (d, archive) = build_archive();
        let list = archive.ingress_list(Epoch::Apr2022).expect("April scanned");
        assert!(!list.is_empty());
        for addr in &list {
            assert!(d.fleets.is_ingress(std::net::IpAddr::V4(*addr)));
        }
        assert!(archive.ingress_list(Epoch::May2022).is_none());
    }

    #[test]
    fn loading_missing_archive_errors_cleanly() {
        let dir = tempdir("missing");
        assert!(Archive::load_from_dir(&dir).is_err());
        // A missing egress CSV is not an error, just absent.
        assert!(Archive::load_egress(&dir).unwrap().is_none());
    }

    #[test]
    fn corrupt_egress_row_is_skipped_and_counted() {
        let dir = tempdir("corrupt-egress");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("egress-ip-ranges.csv"),
            "172.224.0.0/27,US,US-CA,Los Angeles\n\
             172.224.0.32/27,US,US-CA\n\
             2a02:26f7::/64,DE,DE-BE,Berlin\n",
        )
        .unwrap();
        let (egress, stats) = Archive::load_egress(&dir)
            .expect("a corrupt row must not fail the load")
            .expect("csv present");
        assert_eq!(egress.len(), 2);
        assert_eq!((stats.rows_ok, stats.rows_skipped), (2, 1));
        assert_eq!(stats.errors.first().map(|e| e.line()), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn longitudinal_comparison_across_archives() {
        // Diff the loaded January scan against the loaded April scan —
        // the companion-website workflow.
        let (d, archive) = build_archive();
        let dir = tempdir("longitudinal");
        archive.write_to_dir(&dir, None).unwrap();
        let loaded = Archive::load_from_dir(&dir).unwrap();
        let jan = loaded.scans.get("Jan").unwrap();
        let apr = loaded.scans.get("Apr").unwrap();
        let diff = crate::monitor::ScanDiff::between(jan, apr);
        assert!(diff.growth_rate > 0.2);
        assert!(diff.churn_rate < 0.1);
        let _ = fs::remove_dir_all(&dir);
        let _ = d;
    }
}

//! `tectonic` — command-line front end to the reproduction toolchain.
//!
//! ```text
//! tectonic scan      [--scale N] [--epoch jan|feb|mar|apr] [--domain default|fallback] [--rate-limited]
//! tectonic egress    [--scale N]
//! tectonic atlas     [--scale N] [--probes N]
//! tectonic relay-scan[--scale N] [--rounds N] [--interval-secs N]
//! tectonic audit     [--scale N]
//! tectonic monitor   [--scale N]
//! tectonic qoe       [--scale N] [--samples N]
//! ```
//!
//! Every subcommand builds the deterministic deployment (seed 2022 unless
//! `--seed` is given) and prints the corresponding paper artefact.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::HashMap;

use tectonic::core::attribution::Table2;
use tectonic::core::correlation::CorrelationReport;
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::core::egress_analysis::EgressAnalysis;
use tectonic::core::load::{render_load, LoadReport};
use tectonic::core::monitor::{evolution, render_evolution};
use tectonic::core::qoe::{qoe_experiment, render_qoe};
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::report;
use tectonic::core::rotation::RotationReport;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimClock, SimDuration};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain, LatencyModel};

/// Minimal `--key value` / `--flag` argument parser.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(key) = arg.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    values.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { values, flags }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn epoch_of_str(s: &str) -> Epoch {
    match s.to_ascii_lowercase().as_str() {
        "jan" => Epoch::Jan2022,
        "feb" => Epoch::Feb2022,
        "mar" => Epoch::Mar2022,
        "may" => Epoch::May2022,
        _ => Epoch::Apr2022,
    }
}

fn build(args: &Args) -> Deployment {
    let scale: u64 = args.get("scale", 64);
    let seed: u64 = args.get("seed", 2022);
    eprintln!("building deployment (scale 1/{scale}, seed {seed})…");
    Deployment::build(seed, DeploymentConfig::scaled(scale))
}

fn usage() -> ! {
    eprintln!(
        "usage: tectonic <scan|egress|atlas|relay-scan|audit|monitor|qoe> [options]\n\
         common options: --scale N (default 64), --seed N (default 2022)\n\
         scan      : --epoch jan|feb|mar|apr, --domain default|fallback, --rate-limited\n\
         atlas     : --probes N (default 11700)\n\
         relay-scan: --rounds N (default 288), --interval-secs N (default 300)\n\
         qoe       : --samples N (default 5000)"
    );
    std::process::exit(2);
}

fn cmd_scan(args: &Args) {
    let d = build(args);
    let epoch = epoch_of_str(&args.get_str("epoch", "apr"));
    let domain = if args.get_str("domain", "default") == "fallback" {
        Domain::MaskH2
    } else {
        Domain::MaskQuic
    };
    let auth = if args.has("rate-limited") {
        d.auth_server()
    } else {
        d.auth_server_unlimited()
    };
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(epoch.start());
    let report = scanner.scan(domain.name(), &auth, &d.rib, &mut clock);
    println!(
        "{} {} scan: {} addresses ({} Apple, {} AkamaiPR) in {} BGP prefixes",
        epoch,
        domain.label(),
        report.total(),
        report.count_for(Asn::APPLE),
        report.count_for(Asn::AKAMAI_PR),
        report.ingress_prefixes.len(),
    );
    println!(
        "{} queries sent, {} skipped by scope, {} dropped ({} retried, {} exhausted), \
         {} decode errors, {} simulated hours",
        report.queries_sent,
        report.skipped_by_scope,
        report.rate_limited,
        report.retries,
        report.exhausted,
        report.decode_errors,
        report.duration.as_secs() / 3600,
    );
    let table2 = Table2::build(&report, &d.aspop);
    print!("{}", report::render_table2(&table2));
    let load = LoadReport::build(&report, &|a| d.fleets.asn_of(std::net::IpAddr::V4(a)), 3);
    print!("{}", render_load(&load));
}

fn cmd_egress(args: &Args) {
    let d = build(args);
    // Round-trip the list through its CSV form so the run reports the same
    // rows-ok/rows-skipped statistics a real egress-list download would.
    let (parsed, stats) =
        tectonic::geo::egress::EgressList::parse_csv_lossy(&d.egress_list.to_csv());
    println!(
        "egress CSV: {} rows ok, {} rows skipped",
        stats.rows_ok, stats.rows_skipped,
    );
    let analysis = EgressAnalysis::new(&parsed, &d.rib);
    print!("{}", report::render_table3(&analysis.table3()));
    print!("{}", report::render_table4(&analysis.table4()));
    let shares = analysis.country_shares();
    println!(
        "top countries: {} {:.1}%, {} {:.1}%; blank city {:.1}%",
        shares[0].0,
        shares[0].1 * 100.0,
        shares[1].0,
        shares[1].1 * 100.0,
        analysis.blank_city_share() * 100.0,
    );
}

fn cmd_atlas(args: &Args) {
    use std::net::Ipv4Addr;
    use tectonic::atlas::population::PopulationConfig;
    use tectonic::core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
    use tectonic::core::blocking::survey;
    use tectonic::dns::server::AuthoritativeServer;
    use tectonic::dns::{DomainName, QType, RData, Record, Zone};
    let d = build(args);
    let probes: usize = args.get("probes", 11_700);
    let atlas = AtlasSetup::build(&d, &PopulationConfig::paper().with_probes(probes), 99);
    println!(
        "{} probes, public-resolver share {:.1}%",
        atlas.probes.len(),
        atlas.public_resolver_share() * 100.0
    );
    let a = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 1);
    let aaaa = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::AAAA, Epoch::Apr2022, 2);
    let a_report = AtlasCampaignReport::aggregate(&d, &a);
    let aaaa_report = AtlasCampaignReport::aggregate(&d, &aaaa);
    println!(
        "A: {} addresses; AAAA: {} addresses (Apple {}, AkamaiPR {})",
        a_report.v4_addresses.len(),
        aaaa_report.v6_addresses.len(),
        aaaa_report.v6_count_for(Asn::APPLE),
        aaaa_report.v6_count_for(Asn::AKAMAI_PR),
    );
    let mut control_zone = Zone::new(DomainName::literal("atlas-measurements.net"));
    control_zone.add_record(Record::new(
        DomainName::literal("control.atlas-measurements.net"),
        300,
        RData::A(Ipv4Addr::new(93, 184, 216, 34)),
    ));
    let control_auth = AuthoritativeServer::new().with_zone(control_zone);
    let control = atlas.run_control_campaign(&control_auth, Epoch::Apr2022, 3);
    let blocking = survey(&a, &control, &|addr| d.fleets.is_ingress(addr));
    print!("{}", report::render_blocking(&blocking));
}

fn cmd_relay_scan(args: &Args) {
    let d = build(args);
    let auth = d.auth_server_unlimited();
    let interval: u64 = args.get("interval-secs", 300);
    let rounds: u64 = args.get("rounds", 288);
    let config = RelayScanConfig {
        interval: SimDuration::from_secs(interval),
        duration: SimDuration::from_secs(interval * rounds),
    };
    let device = d.vantage_device(
        CountryCode::DE,
        DnsMode::Open,
        vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR],
    );
    let series = RelayScanSeries::run(&device, &auth, &config, Epoch::May2022.start());
    println!(
        "{} rounds, {} failures, operators {:?}, {} operator changes",
        series.rounds.len(),
        series.failures,
        series
            .operators_seen()
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>(),
        series.operator_changes().len(),
    );
    print!(
        "{}",
        report::render_rotation(&RotationReport::from_series(&series))
    );
}

fn cmd_audit(args: &Args) {
    let d = build(args);
    let audit = CorrelationReport::audit(&d, Epoch::Apr2022);
    print!("{}", report::render_correlation(&audit));
    let quic = tectonic::core::quic_probe::QuicProbeReport::probe(&d, 100);
    print!("{}", report::render_quic(&quic));
}

fn cmd_monitor(args: &Args) {
    let d = build(args);
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let scans: Vec<_> = Epoch::SCANS
        .iter()
        .map(|epoch| {
            let mut clock = SimClock::new(epoch.start());
            (
                *epoch,
                scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock),
            )
        })
        .collect();
    print!("{}", render_evolution(&evolution(&scans)));
}

fn cmd_qoe(args: &Args) {
    let d = build(args);
    let samples: usize = args.get("samples", 5_000);
    let optimised = qoe_experiment(&d, &LatencyModel::default(), samples, 7);
    let plain = qoe_experiment(
        &d,
        &LatencyModel {
            backbone_factor: 1.25,
            ..LatencyModel::default()
        },
        samples,
        7,
    );
    print!("{}", render_qoe(&optimised, &plain));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else { usage() };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "scan" => cmd_scan(&args),
        "egress" => cmd_egress(&args),
        "atlas" => cmd_atlas(&args),
        "relay-scan" => cmd_relay_scan(&args),
        "audit" => cmd_audit(&args),
        "monitor" => cmd_monitor(&args),
        "qoe" => cmd_qoe(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_key_values_and_flags() {
        let args = Args::parse(&argv("--scale 32 --rate-limited --epoch mar"));
        assert_eq!(args.get::<u64>("scale", 64), 32);
        assert!(args.has("rate-limited"));
        assert!(!args.has("scale"));
        assert_eq!(args.get_str("epoch", "apr"), "mar");
        assert_eq!(args.get::<u64>("missing", 7), 7);
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let args = Args::parse(&argv("--probes 100 --rate-limited"));
        assert_eq!(args.get::<usize>("probes", 0), 100);
        assert!(args.has("rate-limited"));
    }

    #[test]
    fn epoch_parsing() {
        assert_eq!(epoch_of_str("jan"), Epoch::Jan2022);
        assert_eq!(epoch_of_str("MAR"), Epoch::Mar2022);
        assert_eq!(epoch_of_str("nonsense"), Epoch::Apr2022);
        assert_eq!(epoch_of_str("may"), Epoch::May2022);
    }

    #[test]
    fn bad_numbers_fall_back_to_default() {
        let args = Args::parse(&argv("--scale banana"));
        assert_eq!(args.get::<u64>("scale", 64), 64);
    }
}

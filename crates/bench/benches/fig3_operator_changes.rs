//! Figure 3 — egress operator changes over a scan day, open vs fixed DNS.
//!
//! The device sits at a DE vantage point where (as at the authors'
//! location) only Cloudflare and Akamai PR appear as egress operators.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic_core::report::render_fig3;
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, Epoch};
use tectonic_relay::{DnsMode, Domain};

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();
    let vantage_ops = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    let open_device = d.vantage_device(CountryCode::DE, DnsMode::Open, vantage_ops.clone());
    let forced = d
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let fixed_device = d.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_ops);
    let config = RelayScanConfig::operator_series();
    let start = Epoch::May2022.start();
    let open = RelayScanSeries::run(&open_device, &auth, &config, start);
    let fixed = RelayScanSeries::run(&fixed_device, &auth, &config, start);
    banner("Figure 3: egress operator changes over the scan day");
    print!("{}", render_fig3(&open, &fixed));
    println!(
        "(paper: only Cloudflare and AkamaiPR visible; a handful of changes, no regular pattern)"
    );
}

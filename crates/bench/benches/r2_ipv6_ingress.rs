//! R2 — IPv6 ingress enumeration via Atlas AAAA measurements (§4.1):
//! 1575 addresses in the paper, split 346 Apple / 1229 Akamai PR, because
//! ECS over IPv6 always answers with scope 0.

use tectonic_atlas::population::PopulationConfig;
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use tectonic_dns::server::{NameServer, QueryContext, ServerReply};
use tectonic_dns::{decode_message, encode_message, EcsOption, Message, QType};
use tectonic_net::{Asn, Epoch};
use tectonic_relay::Domain;

/// Demonstrates why ECS cannot enumerate IPv6: the scope comes back 0.
fn show_v6_scope_zero(d: &tectonic_relay::Deployment) {
    let auth = d.auth_server_unlimited();
    let mut q = Message::query(1, Domain::MaskQuic.name(), QType::AAAA);
    q.edns
        .as_mut()
        .unwrap()
        .set_ecs(EcsOption::for_v4_net("100.64.0.0/24".parse().unwrap()));
    let ctx = QueryContext {
        src: d.world.ases()[0].host_addr(1).into(),
        now: Epoch::Apr2022.start(),
    };
    if let ServerReply::Response(bytes) = auth.handle_query(&encode_message(&q), &ctx) {
        let r = decode_message(&bytes).unwrap();
        let scope = r.edns.as_ref().and_then(|o| o.ecs()).map(|e| e.scope_len);
        println!(
            "AAAA ECS response: {} records, scope {:?} (scope 0 ⇒ ECS enumeration impossible)",
            r.aaaa_answers().len(),
            scope
        );
    }
}

fn main() {
    let d = &bench_deployment();
    banner("R2: IPv6 ingress enumeration via Atlas AAAA campaign (April)");
    show_v6_scope_zero(d);
    let atlas = AtlasSetup::build(d, &PopulationConfig::paper().with_probes(3_000), 9);
    let results = atlas.run_mask_campaign(d, Domain::MaskQuic, QType::AAAA, Epoch::Apr2022, 9);
    let report = AtlasCampaignReport::aggregate(d, &results);
    println!(
        "distinct IPv6 ingress addresses: {} — Apple {}, AkamaiPR {}",
        report.v6_addresses.len(),
        report.v6_count_for(Asn::APPLE),
        report.v6_count_for(Asn::AKAMAI_PR),
    );
    println!("(paper: 1575 total = 346 Apple + 1229 AkamaiPR)");
}

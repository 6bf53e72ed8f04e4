//! Ablation — the zero-allocation wire fast path against the general
//! per-query encoder.
//!
//! The ECS scan sends one near-identical query per routed /24 (~11 M at
//! Internet scale), so per-query constant factors dominate the simulated
//! campaign's real runtime. This ablation times two kernels:
//!
//! * **encode** — building the query bytes: template patch (5 bytes
//!   rewritten in place) vs `Message` construction + `encode_message`,
//! * **query** — the full round trip the scanner performs per subnet:
//!   encode, serve, decode; the fast path also writes the reply into a
//!   reused scratch buffer via `handle_query_into`.
//!
//! The scanner always takes the fast path; the general encoder is only its
//! fallback for a template that fails its self-check. Byte equality of the
//! two encodings is a unit test in `tectonic_core::ecs_scan`.

use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tectonic_bench::banner;
use tectonic_dns::server::{NameServer, QueryContext, ReplyOutcome, ServerReply};
use tectonic_dns::{decode_message, encode_message, EcsOption, Message, QType, QueryTemplate};
use tectonic_net::{Epoch, Ipv4Net};
use tectonic_relay::{Deployment, DeploymentConfig, Domain};

fn bench(c: &mut Criterion) {
    let d = Deployment::build(tectonic_bench::BENCH_SEED, DeploymentConfig::scaled(256));
    let auth = d.auth_server_unlimited();
    let domain = Domain::MaskQuic.name();
    let subnet: Ipv4Net = "17.64.3.0/24".parse().unwrap();
    let ctx = QueryContext {
        src: "138.246.253.10".parse().unwrap(),
        now: Epoch::Apr2022.start(),
    };

    banner("Ablation: wire fast path (template patch + scratch reply)");

    let mut group = c.benchmark_group("ablation_wire_fastpath");
    group.sample_size(10);

    // Encode kernel: query bytes only.
    group.bench_function("encode_general", |b| {
        let mut id = 0u16;
        b.iter(|| {
            id = id.wrapping_add(1);
            let mut query = Message::query(id, domain.clone(), QType::A);
            query
                .edns
                .as_mut()
                .expect("query has EDNS")
                .set_ecs(EcsOption::for_v4_net(subnet));
            black_box(encode_message(&query))
        })
    });
    group.bench_function("encode_template_patch", |b| {
        let template = QueryTemplate::new_v4_24(&domain, QType::A).expect("template");
        let mut patched = template.instantiate();
        let mut id = 0u16;
        b.iter(|| {
            id = id.wrapping_add(1);
            black_box(patched.patch(id, subnet).len())
        })
    });

    // Query kernel: encode + serve + decode, as the scanner does per /24.
    group.bench_function("query_general", |b| {
        let mut id = 0u16;
        b.iter(|| {
            id = id.wrapping_add(1);
            let mut query = Message::query(id, domain.clone(), QType::A);
            query
                .edns
                .as_mut()
                .expect("query has EDNS")
                .set_ecs(EcsOption::for_v4_net(subnet));
            let wire = encode_message(&query);
            match auth.handle_query(&wire, &ctx) {
                ServerReply::Response(bytes) => decode_message(&bytes).ok(),
                ServerReply::Dropped => None,
            }
        })
    });
    group.bench_function("query_fast_path", |b| {
        let template = QueryTemplate::new_v4_24(&domain, QType::A).expect("template");
        let mut patched = template.instantiate();
        let mut reply = BytesMut::new();
        let mut id = 0u16;
        b.iter(|| {
            id = id.wrapping_add(1);
            let wire = patched.patch(id, subnet);
            match auth.handle_query_into(wire, &ctx, &mut reply) {
                ReplyOutcome::Written => decode_message(&reply).ok(),
                ReplyOutcome::Dropped => None,
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

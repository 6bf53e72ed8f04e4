//! Ablation — the sharded discrete-event scan engine at eight shards
//! against the serial scanner, which is the engine's one-shard run.
//!
//! The engine's contract is that worker count is unobservable in the
//! report, so the only thing left to measure is wall-clock: the `serial_*`
//! rows time `scan` (one shard, one worker), the `engine_w*` rows
//! `scan_engine_sharded` on eight shards at 1/4/8 workers, on a small
//! (~10 k clients) and a large (~1 M clients) deployment. `xtask
//! bench-report --suite scan` distils the medians into `BENCH_scan.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use tectonic_bench::{banner, bench_deployment, BENCH_SEED};
use tectonic_core::ecs_scan::EcsScanner;
use tectonic_engine::EngineConfig;
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::{Deployment, DeploymentConfig, Domain};

fn bench(c: &mut Criterion) {
    let scanner = EcsScanner::default();
    let start = Epoch::Apr2022.start();
    let large = bench_deployment();
    let small = Deployment::build(BENCH_SEED, DeploymentConfig::scaled(256));

    // The full comparison once, at the large scale: the engine must
    // discover exactly what the serial scan discovers.
    let large_auth = large.auth_server_unlimited();
    let mut clock = SimClock::new(start);
    let serial = scanner.scan(Domain::MaskQuic.name(), &large_auth, &large.rib, &mut clock);
    let engine8 = scanner.scan_engine_sharded(
        Domain::MaskQuic.name(),
        &[&large_auth],
        &large.rib,
        start,
        &EngineConfig::new(8, 8),
    );
    banner("Ablation: serial (one shard) vs discrete-event engine (8 shards)");
    println!(
        "large scan : {} /24 subnets queried (~{} clients), {} addresses",
        serial.queries_sent,
        serial.queries_sent * 256,
        serial.total()
    );
    println!(
        "engine(8w8): identical discovery: {}, identical counters: {}",
        serial.discovered == engine8.discovered,
        serial.queries_sent == engine8.queries_sent
            && serial.skipped_by_scope == engine8.skipped_by_scope
    );

    let small_auth = small.auth_server_unlimited();
    let mut group = c.benchmark_group("ablation_scan_engine");
    group.sample_size(10);
    for (label, d, auth) in [
        ("small", &small, &small_auth),
        ("large", large, &large_auth),
    ] {
        group.bench_function(format!("serial_{label}"), |b| {
            b.iter(|| {
                let mut clock = SimClock::new(start);
                scanner.scan(Domain::MaskQuic.name(), auth, &d.rib, &mut clock)
            })
        });
        for workers in [1usize, 4, 8] {
            group.bench_function(format!("engine_w{workers}_{label}"), |b| {
                b.iter(|| {
                    scanner.scan_engine_sharded(
                        Domain::MaskQuic.name(),
                        &[auth],
                        &d.rib,
                        start,
                        &EngineConfig::new(8, workers),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

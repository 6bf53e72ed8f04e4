//! Shared setup for the paper-artefact targets.
//!
//! Every bench target regenerates one of the paper's tables or figures,
//! prints it and exits, so `cargo bench -p tectonic-bench` output is the
//! reproduction record used in `EXPERIMENTS.md`. Nothing here is timed:
//! perfbench (`BENCHMARK.json`) is the repository's only timing harness.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing,
        clippy::iter_over_hash_type
    )
)]
#![deny(rust_2018_idioms)]

use tectonic_relay::{Deployment, DeploymentConfig};

/// The scale divisor used by the benchmark deployments: client world and
/// egress list are 1/16 of paper scale, ingress fleets and prefix censuses
/// stay at paper scale (they are small).
pub const BENCH_SCALE: u64 = 16;

/// The client world of [`paper_deployment`] is 1/`PAPER_WORLD_SCALE` of
/// paper scale.
const PAPER_WORLD_SCALE: u64 = 128;

/// The deterministic seed every bench uses.
pub const BENCH_SEED: u64 = 2022;

/// The 1/16-scale deployment.
pub fn bench_deployment() -> Deployment {
    Deployment::build(BENCH_SEED, DeploymentConfig::scaled(BENCH_SCALE))
}

/// A deployment with paper-scale ingress fleets, egress list and prefix
/// structure, but a reduced client world (the censuses and fleet analyses
/// don't touch it, so the memory cost would be wasted).
pub fn paper_deployment() -> Deployment {
    let mut config = DeploymentConfig::paper();
    config.client_world = config.client_world.scaled_down(PAPER_WORLD_SCALE);
    Deployment::build(BENCH_SEED, config)
}

/// Prints the banner that opens the output of an artefact built on
/// [`bench_deployment`].
pub fn banner(title: &str) {
    print_banner(title, &format!("scale 1/{BENCH_SCALE}"));
}

/// Prints the banner that opens the output of an artefact built on
/// [`paper_deployment`].
pub fn paper_banner(title: &str) {
    print_banner(
        title,
        &format!("paper scale, client world 1/{PAPER_WORLD_SCALE}"),
    );
}

/// The banner: a title and the deployment it was measured on.
#[expect(
    clippy::print_stdout,
    reason = "bench harness banner; stdout IS the reproduction record here"
)]
fn print_banner(title: &str, deployment: &str) {
    let rule = "================================================================";
    println!(
        "\n{rule}\n== {title}\n== (simulated deployment, {deployment}, seed {BENCH_SEED})\n{rule}"
    );
}

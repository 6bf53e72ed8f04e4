//! Shared setup for the tectonic benchmark suite.
//!
//! Every bench target regenerates one of the paper's tables or figures.
//! Deployments are cached per scale so targets that share a scale don't pay
//! the build cost repeatedly within one process.
//!
//! The benches print their regenerated artefact once, before timing the
//! computational kernel, so `cargo bench` output doubles as the
//! reproduction record used in `EXPERIMENTS.md`.

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
        clippy::indexing_slicing
    )
)]
#![deny(rust_2018_idioms)]

use std::sync::OnceLock;

use tectonic_relay::{Deployment, DeploymentConfig};

/// The scale divisor used by the benchmark deployments: client world and
/// egress list are 1/16 of paper scale, ingress fleets and prefix censuses
/// stay at paper scale (they are small).
pub const BENCH_SCALE: u64 = 16;

/// The deterministic seed every bench uses.
pub const BENCH_SEED: u64 = 2022;

static DEPLOYMENT: OnceLock<Deployment> = OnceLock::new();
static PAPER_DEPLOYMENT: OnceLock<Deployment> = OnceLock::new();

/// The shared 1/16-scale deployment.
pub fn bench_deployment() -> &'static Deployment {
    DEPLOYMENT.get_or_init(|| Deployment::build(BENCH_SEED, DeploymentConfig::scaled(BENCH_SCALE)))
}

/// A deployment with paper-scale ingress fleets, egress list and prefix
/// structure, but a reduced client world (the censuses and fleet analyses
/// don't touch it, so the memory cost would be wasted).
pub fn paper_deployment() -> &'static Deployment {
    PAPER_DEPLOYMENT.get_or_init(|| {
        let mut config = DeploymentConfig::paper();
        config.client_world = config.client_world.scaled_down(128);
        Deployment::build(BENCH_SEED, config)
    })
}

/// Prints a banner separating artefact output from criterion noise.
#[expect(
    clippy::print_stdout,
    reason = "bench harness banner; stdout IS the reproduction record here"
)]
pub fn banner(title: &str) {
    let rule = "================================================================";
    println!("\n{rule}\n== {title}\n== (simulated deployment, scale 1/{BENCH_SCALE}, seed {BENCH_SEED})\n{rule}");
}

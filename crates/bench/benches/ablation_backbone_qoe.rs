//! Ablation — the CDN backbone optimisation (§2's Argo discussion):
//! does the two-hop relay equalise its latency drawback?

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::qoe::{qoe_experiment, render_qoe};
use tectonic_relay::LatencyModel;

fn main() {
    let d = &bench_deployment();
    let optimised = qoe_experiment(d, &LatencyModel::default(), 5_000, 7);
    let plain = qoe_experiment(
        d,
        &LatencyModel {
            backbone_factor: 1.25,
            ..LatencyModel::default()
        },
        5_000,
        7,
    );
    banner("Ablation: CDN backbone optimisation vs plain routing (QoE)");
    print!("{}", render_qoe(&optimised, &plain));
    println!(
        "(the paper's §2 hypothesis: backbone measures \"might be enough to \
         equalize any latency drawbacks due to the two-hop relay system\")"
    );
}

//! # tectonic-core
//!
//! The paper's measurement toolchain — the primary contribution of the
//! reproduction. Each module implements one methodological piece and its
//! analysis; `report` renders the paper's tables and figures from the
//! results.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`ecs_scan`] | §3/§4.1 ECS enumeration of ingress relays (Tables 1–2 input) |
//! | [`atlas_campaign`] | §4.1 RIPE Atlas validation, IPv6 enumeration (R1/R2) |
//! | [`blocking`] | §4.1 service-blocking survey (R3) |
//! | [`attribution`] | Table 2 client-AS / population attribution |
//! | [`egress_analysis`] | §4.2 Tables 3–4, Figures 2/4/5 |
//! | [`relay_scan`] | §4.3 through-relay scans (Figure 3) |
//! | [`rotation`] | §4.3 egress address rotation statistics (R4) |
//! | [`correlation`] | §6 prefix census, last-hop sharing, BGP first-seen (R5/R6) |
//! | [`quic_probe`] | §3 QUIC probing of ingress nodes (R7) |
//! | [`report`] | text rendering + JSON export of every artefact |
//!
//! The paper's §6 future-work questions are implemented as extensions:
//!
//! | module | §6 question |
//! |---|---|
//! | [`load`] | "does the system have bottlenecks?" — per-relay load concentration |
//! | [`monitor`] | "how does the system evolve?" — longitudinal scan diffing |
//! | [`qoe`] | "how does the service impact QoE?" — two-hop latency experiment |
//! | [`passive`] | §6's passive-measurement / IDS discussion — flow classification, session fragmentation |
//! | [`correlation_attack`] | §6's Tor-style timing correlation, dual-role vs split operators |
//! | [`masque_load`] | §4 findings rerun as a traffic-scale CONNECT-UDP session load test |

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
#![warn(missing_docs)]

pub mod atlas_campaign;
pub mod attribution;
pub mod blocking;
pub mod correlation;
pub mod correlation_attack;
pub mod dataset;
pub mod ecs_scan;
pub mod egress_analysis;
pub mod load;
pub mod masque_load;
pub mod monitor;
pub mod passive;
pub mod qoe;
pub mod quic_probe;
pub mod relay_scan;
pub mod report;
pub mod rotation;

pub use atlas_campaign::{AtlasCampaignReport, AtlasSetup};
pub use attribution::Table2;
pub use blocking::BlockingReport;
pub use correlation::CorrelationReport;
pub use correlation_attack::{run_attack, AttackConfig, AttackReport};
pub use dataset::{Archive, ArchiveMeta};
pub use ecs_scan::{EcsScanConfig, EcsScanReport, EcsScanner};
pub use egress_analysis::{EgressAnalysis, Table3, Table4};
pub use load::LoadReport;
pub use masque_load::{
    run_engine as run_masque_engine, run_serial as run_masque_serial, DatagramChannel,
    PerfectChannel, RotationStats, StormConfig, StormReport,
};
pub use monitor::{evolution, ScanDiff};
pub use passive::{ids_fragmentation, PassiveMonitor, PassiveReport};
pub use qoe::{qoe_experiment, QoeReport};
pub use quic_probe::QuicProbeReport;
pub use relay_scan::{RelayScanConfig, RelayScanSeries};
pub use rotation::RotationReport;

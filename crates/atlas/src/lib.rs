//! # tectonic-atlas
//!
//! A distributed-probe measurement platform modelled on RIPE Atlas, as the
//! paper uses it (§3, §4.1):
//!
//! * [`population`] — generates a probe population with the platform's
//!   known skews: ~11 k probes, thousands of ASes, ~168 countries, heavily
//!   biased towards North America and Europe, with >50 % of probes behind
//!   the four big public resolvers,
//! * [`probe`] — one probe: host AS/country/address, resolver assignment,
//!   and a possible resolver blocking policy (the 5.5 % the paper finds),
//! * [`measurement`] — DNS measurement campaigns with transient-failure
//!   injection (the paper's 10 % baseline timeouts),
//! * [`whoami`] — the `whoami.akamai.net`-style service that reveals which
//!   resolver address actually queried the authoritative server.

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
#![warn(missing_docs)]

pub mod measurement;
pub mod population;
pub mod probe;
pub mod whoami;

pub use measurement::{DnsCampaign, MeasurementOutcome, ProbeResult};
pub use population::{PopulationConfig, ProbeSite};
pub use probe::Probe;
pub use whoami::WhoamiZone;

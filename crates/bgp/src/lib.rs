//! # tectonic-bgp
//!
//! The BGP-shaped substrate the paper's analyses consume:
//!
//! * [`rib`] — a routing information base with longest-prefix match. The
//!   ECS scanner uses it to skip unrouted space (the paper's §7 ethics
//!   optimisation); the egress analysis uses it to aggregate subnets into
//!   routed prefixes (Table 3); the correlation analysis counts which
//!   announced prefixes carry relays (§6, 92.2 %).
//! * [`topology`] — an AS-level graph with peering links, supporting the
//!   observation that AS36183 has a single publicly visible peering (to
//!   Akamai's AS20940).
//! * [`history`] — monthly AS-visibility snapshots (2016–2022), supporting
//!   the finding that AS36183 first appeared in June 2021, coinciding with
//!   the Private Relay launch.
//! * [`aspop`] — per-AS user populations in the style of the APNIC aspop
//!   dataset, the join key for Table 2.

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
#![warn(missing_docs)]

pub mod aspop;
pub mod history;
pub mod rib;
pub mod topology;

pub use aspop::AsPopulation;
pub use history::{Month, VisibilityHistory};
pub use rib::{NetBatchScratch, Rib, RouteEntry};
pub use topology::AsTopology;

//! # tectonic-relay
//!
//! The simulated iCloud Private Relay deployment — the "measured object" of
//! the reproduction. Everything the paper's toolchain observes from the
//! outside is produced here:
//!
//! * [`config`] — every knob of the deployment, with defaults calibrated to
//!   the paper's reported numbers (Table 1 fleet sizes, Table 2 client-AS
//!   structure, Table 3/4 egress structure, §6 prefix census),
//! * [`world`] — the client-side Internet: eyeball ASes with routed
//!   prefixes, country assignment and the Apple/Akamai&#8239;PR service
//!   split,
//! * [`deploy`] — builds the full deployment: ingress fleets per epoch,
//!   egress list and footprints, global RIB, AS topology, visibility
//!   history and AS populations,
//! * [`zone`] — the ECS-aware authoritative logic for `mask.icloud.com` /
//!   `mask-h2.icloud.com` (plugs into `tectonic-dns`),
//! * [`ingress`] — ingress node behaviour (QUIC version negotiation,
//!   connection acceptance),
//! * [`egress`] — egress operator/address selection with per-connection
//!   rotation (§4.3),
//! * [`client`] — the macOS-like device model: open vs fixed DNS, Safari +
//!   curl request pairs, ODoH resolution, the Appendix-B management
//!   connection,
//! * [`session`] — the CONNECT-UDP data plane: ingress admission, the
//!   egress `SessionTable` and per-session traffic counters (§4),
//! * [`path`] — router-level paths and traceroute (last-hop sharing, §6).

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
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod deploy;
pub mod egress;
pub mod ingress;
pub mod latency;
pub mod masque;
pub mod path;
pub mod session;
pub mod world;
pub mod zone;

pub use client::{ClientRequest, Device, DnsMode, RequestAgent};
pub use config::{DeploymentConfig, Domain, IngressFleetPlan};
pub use deploy::Deployment;
pub use egress::{EgressSelection, EgressSelector};
pub use ingress::IngressFleets;
pub use latency::{ConnectionLatency, LatencyModel};
pub use masque::{MasqueSession, TokenIssuer, Transport};
pub use path::{RouterHop, RouterTopology};
pub use session::{
    DatagramOutcome, EgressNode, IngressNode, SessionAccept, SessionCounters, SessionReport,
    SessionTable,
};
pub use world::{ClientAs, ClientWorld, ServiceSplit};
pub use zone::MaskZone;

//! # tectonic
//!
//! Umbrella crate for the reproduction of *"Towards a Tectonic Traffic
//! Shift? Investigating Apple's New Relay Network"* (Sattler, Aulbach,
//! Zirngibl, Carle — IMC 2022).
//!
//! This crate re-exports every workspace member under one roof so examples
//! and downstream users can depend on a single crate:
//!
//! * [`net`] — CIDR prefixes, prefix tries, ASNs, deterministic RNG, sim time
//! * [`dns`] — DNS wire format, EDNS0 Client Subnet, servers and resolvers
//! * [`bgp`] — RIB, AS topology, visibility history, AS populations
//! * [`geo`] — countries/cities, geohash, the Apple egress list
//! * [`quic`] — QUIC long-header subset used for ingress probing
//! * [`relay`] — the simulated iCloud Private Relay deployment
//! * [`atlas`] — the simulated RIPE-Atlas-like probe platform
//! * [`core`] — the paper's measurement toolchain and analyses
//! * [`simnet`] — deterministic fault injection between clients and servers
//! * [`engine`] — the sharded deterministic discrete-event scan engine
//!
//! On top of the re-exports, [`chaos`] wires the fault layer through the
//! full paper pipeline and checks the per-scenario invariants (see
//! `DESIGN.md` §10).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

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

pub mod chaos;

pub use tectonic_atlas as atlas;
pub use tectonic_bgp as bgp;
pub use tectonic_core as core;
pub use tectonic_dns as dns;
pub use tectonic_engine as engine;
pub use tectonic_geo as geo;
pub use tectonic_net as net;
pub use tectonic_quic as quic;
pub use tectonic_relay as relay;
pub use tectonic_simnet as simnet;

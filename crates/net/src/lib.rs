//! # tectonic-net
//!
//! Foundation types shared by every crate in the `tectonic` workspace — the
//! reproduction of *"Towards a Tectonic Traffic Shift? Investigating Apple's
//! New Relay Network"* (IMC 2022).
//!
//! The crate provides:
//!
//! * [`prefix`] — IPv4/IPv6 CIDR prefixes ([`Ipv4Net`], [`Ipv6Net`], [`IpNet`])
//!   with parsing, containment, splitting and iteration,
//! * [`lpm`] — [`FrozenLpm`], the compiled, immutable flat-layout
//!   longest-prefix-match table the steady-state lookup paths run on,
//! * [`overlay`] — [`DeltaOverlay`], a bounded patch layer that absorbs
//!   announce/withdraw churn over a frozen table, so an update is one
//!   sorted insert into a few thousand patches instead of a rebuild.
//!   Reads outside the root chunks a patch touches skip it entirely; a
//!   fold merges the patches back in linear time per family and
//!   recompiles only the dirty subtrees,
//! * [`table`] — [`PrefixTable`], the one-store owner type behind the BGP
//!   RIB and the geolocation tables: a sorted map while loading, a
//!   [`FrozenLpm`] plus [`DeltaOverlay`] once frozen,
//! * [`asn`] — autonomous-system numbers and the well-known ASes from the
//!   paper (Apple, Akamai&#8239;PR, Akamai&#8239;EG, Cloudflare, Fastly),
//! * [`rng`] — a deterministic, splittable simulation RNG so every experiment
//!   is reproducible from a single `u64` seed,
//! * [`clock`] — simulated wall-clock time and the measurement epochs used
//!   throughout the paper (January through April 2022).
//!
//! Nothing in this crate performs I/O; all higher layers build deterministic
//! simulations on top of these primitives.

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

pub mod asn;
pub mod clock;
pub mod error;
pub mod lpm;
pub mod overlay;
pub mod prefix;
pub mod rng;
pub mod table;

pub use asn::Asn;
pub use clock::{Epoch, SimClock, SimDuration, SimTime};
pub use error::NetError;
pub use lpm::{BatchScratch, FrozenLpm};
pub use overlay::DeltaOverlay;
pub use prefix::{IpNet, Ipv4Net, Ipv6Net};
pub use rng::SimRng;
pub use table::PrefixTable;

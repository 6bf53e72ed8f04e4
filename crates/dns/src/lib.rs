//! # tectonic-dns
//!
//! A self-contained DNS implementation sized for the paper's needs: the ECS
//! enumeration scan (§3/§4.1), the RIPE-Atlas-style resolution campaigns,
//! and the service-blocking survey all run on top of this crate.
//!
//! Layers, bottom up:
//!
//! * [`name`] — domain names with RFC 1035 label rules,
//! * [`message`] — messages, questions, resource records and rdata,
//! * [`wire`] — binary encoding/decoding with name compression, the
//!   server's reply writer, and the scanner's borrowed reply view
//!   ([`wire::ReplyView`]),
//! * [`edns`] — EDNS0 OPT pseudo-records and the RFC 7871 Client Subnet
//!   option, including the address-truncation rules the scanner relies on,
//! * [`zone`] — static zone data plus a hook ([`zone::EcsAnswerer`]) for
//!   dynamic, subnet-dependent answers (how the simulated Route 53 serves
//!   `mask.icloud.com`),
//! * [`server`] — an authoritative server with per-client token-bucket rate
//!   limiting (the reason the paper's ECS scan takes 40 hours),
//! * [`resolver`] — recursive resolvers with configurable *blocking
//!   policies* (NXDOMAIN, NOERROR-no-data, REFUSED, SERVFAIL, FORMERR,
//!   hijack, timeout), modelling the resolvers behind RIPE Atlas probes.
//!
//! The crate performs no network I/O: "sending" a query means calling
//! [`server::NameServer::handle_query`]. This keeps every experiment
//! deterministic while exercising real wire encoding on both sides.

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

pub mod edns;
pub mod message;
pub mod name;
pub mod resolver;
pub mod server;
pub mod template;
pub mod wire;
pub mod zone;

pub use edns::{EcsOption, EdnsOption, OptRecord};
pub use message::{Message, QClass, QType, Question, RData, Rcode, Record};
pub use name::DomainName;
pub use resolver::{ResolutionOutcome, Resolver, ResolverKind, ResolverPolicy};
pub use server::{AuthoritativeServer, NameServer, QueryContext, ReplyOutcome, ServerReply};
pub use template::{PatchedQuery, QueryTemplate};
pub use wire::{
    decode_message, encode_message, encode_message_into, DnsWireError, MessageEncoder, ReplyView,
};
pub use zone::{EcsAnswer, EcsAnswerer, Zone};

//! Deterministic sharded discrete-event engine.
//!
//! The measurement pipelines of the reproduction (ECS scans, Atlas
//! campaigns, relay rotation series) were written as straight-line loops
//! over one simulated Internet. This crate re-expresses them as
//! discrete-event simulations sharded across worker threads while keeping
//! the reproduction's core guarantee: **the result is a pure function of
//! the seed**, independent of worker count, thread scheduling, or core
//! count.
//!
//! See `DESIGN.md` §11 for the event model and the proof obligations each
//! pipeline discharges when it claims byte-equality with its serial form.
//!
//! The scheduler lives in [`sched`]; the key pieces are:
//!
//! * [`sched::Engine`] — per-shard priority queues keyed by
//!   `(SimTime, shard, seq)`, drained in conservative lookahead windows.
//! * [`sched::ShardModel`] — the per-shard state machine a pipeline
//!   implements: `handle` one event, `finish` into a local result arena.
//! * [`sched::ShardCtx`] — how a handler schedules follow-up events on its
//!   own shard and sends cross-shard events (always delivered at least one
//!   lookahead in the future, so no window ever observes a racing send).

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

pub mod sched;

pub use sched::{Engine, EngineConfig, ShardCtx, ShardModel};

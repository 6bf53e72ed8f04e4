//! `lintkit` — the vendored-shim manifest check.
//!
//! The workspace vendors its third-party dependencies as minimal shims
//! under `vendor/` (no crates.io access in the build environment). Their
//! public surface is pinned in `vendor/API_MANIFEST.txt`, and
//! **vendor-manifest** ([`manifest`]) reports any drift in either
//! direction, so a shim cannot silently widen or shrink. The lexer in
//! [`lexer`] gives the check just enough structure (no `syn`).
//!
//! The rest of the static policy is clippy's or a test's (DESIGN.md §8):
//!
//! * the panic, print, index and hash-iteration lints are denied in every
//!   library crate root, the cast and arithmetic lints in the strict
//!   files;
//! * `clippy.toml` bans the wall-clock reads, and the locks, once-cells,
//!   atomics and `thread_local!` that would let shards share mutable
//!   state;
//! * `tests/engine_equivalence.rs` checks on random shard-model graphs that
//!   the engine's output does not depend on the worker count;
//! * `tests/alloc_free.rs` counts the heap allocations of the steady-state
//!   kernels.
//!
//! Run via `cargo run -p xtask -- lint`; the same check runs as a tier-1
//! test (`tests/lint_gate.rs`) and in CI.

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
#![expect(
    clippy::indexing_slicing,
    reason = "a build-time tool over token vectors it builds itself; a bad index \
              fails the lint run, never a measurement"
)]
#![deny(rust_2018_idioms)]

pub mod lexer;
pub mod manifest;

use std::path::Path;

pub use manifest::Finding;

/// The tier-1 gate check: the vendored shims under `root/vendor` match the
/// checked-in manifest. Returns `Err` with a rendered report when there is
/// any finding.
pub fn check_workspace_gate(root: &Path) -> Result<(), String> {
    let findings =
        manifest::check(&root.join("vendor")).map_err(|e| format!("manifest check failed: {e}"))?;
    if findings.is_empty() {
        return Ok(());
    }
    Err(findings.iter().map(|f| format!("  {f}\n")).collect())
}

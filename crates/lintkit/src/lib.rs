//! `lintkit` — the workspace's call-graph analysis and vendored-shim check.
//!
//! The reproduction's pipelines parse hostile or malformed external inputs
//! (DNS wire replies, the published egress CSV, Atlas measurement dumps).
//! One stray `unwrap` turns a bad record into an aborted multi-hour scan.
//! The per-function half of that policy — no panics, no prints, no unsafe,
//! no indexing, no wall-clock reads, no lossy casts or unchecked arithmetic
//! in the kernels — is clippy's: each crate root and strict file declares
//! the lints and `clippy.toml` bans the wall-clock methods (see DESIGN.md
//! §8). This crate enforces what clippy cannot see:
//!
//! * **vendor-manifest** — the vendored dependency shims match the
//!   checked-in public-API manifest (`vendor/API_MANIFEST.txt`),
//! * **allow-needs-reason** — a `// lintkit: allow(<rule>) -- <reason>`
//!   comment must name one of lintkit's rules and give a reason.
//!
//! On top of that, the pass builds a workspace-wide symbol table
//! ([`symbols`]) and conservative call graph ([`graph`]) and runs five
//! call-graph rules ([`reach`], [`order`], [`resource`]):
//!
//! * **lock-order** — the derived `Mutex`/`RwLock` acquisition-order graph
//!   must be acyclic,
//! * **map-iter-order** — `HashMap`/`HashSet` iteration order must not
//!   reach a function's output without a sorting boundary; functions that
//!   leak it taint their callers to a fixpoint ([`order`]),
//! * **rng-fork-order** — code reachable from the sharded engine must use
//!   `SimRng::fork_indexed`, never the sibling-order-dependent `fork`,
//! * **shard-state-escape** — `ShardModel` impls must not touch shared
//!   mutable aliases (`Mutex`, `OnceLock`, atomics, `static mut`);
//!   cross-shard effects go through `ShardCtx` sends only,
//! * **alloc-in-hot-path** — no heap allocation may be reachable from a
//!   declared steady-state hot entry point, with construction/setup
//!   boundaries carved out via [`Config::warm_paths`] ([`resource`]).
//!
//! Any finding fails the gate; a reasoned allow comment at the site is the
//! only suppression. `--sarif` ([`sarif`]) exports the findings for CI
//! artifacts and code-hosting annotation UIs.
//!
//! Built without external dependencies (no crates.io access in the build
//! environment, so no `syn`): the lexer in [`lexer`] provides just enough
//! structure. Run via `cargo run -p xtask -- lint`; the same pass also runs
//! as a tier-1 test (`tests/workspace_gate.rs`) and in CI.

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
#![expect(
    clippy::indexing_slicing,
    reason = "a build-time tool over token vectors it builds itself; a bad index \
              fails the lint run, never a measurement"
)]
#![deny(rust_2018_idioms)]

pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod order;
pub mod reach;
pub mod resource;
pub mod rules;
pub mod sarif;
pub mod symbols;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, Rule};

/// What to lint.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Steady-state entry points for the `alloc-in-hot-path` rule — the
    /// per-reply / per-packet kernels that must run allocation-free — as
    /// `crate::module::name` patterns (`name` may be `*` for every
    /// function in the module). A pattern that matches nothing is itself a
    /// finding, so renames cannot silently disable the analysis.
    pub hot_paths: Vec<String>,
    /// Construction/setup boundaries for `alloc-in-hot-path`: reachability
    /// is pruned at these functions, so allocation behind them (building
    /// tables, growing buffers once) is exempt. A warm pattern matching
    /// nothing is a finding, so a rename cannot silently widen the rule.
    pub warm_paths: Vec<String>,
    /// Crates whose allow comments are checked but which stay out of the
    /// call graph. Build-time tools (lintkit itself) are never callees of
    /// product code, and their generic function names (`parse`, `resolve`,
    /// `collect`) would only add false edges. Binary targets are excluded
    /// for the same reason — a `[[bin]]` cannot be linked into a library
    /// call path.
    pub graph_skip_crates: Vec<String>,
}

impl Config {
    /// The project policy: the hot/warm boundaries of the allocation rule.
    pub fn for_workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            hot_paths: vec![
                // Query encoding runs once per probe across the whole scan.
                "dns::wire::encode_message_into".to_string(),
                // Per-reply attribution: one lookup per decoded answer.
                "net::lpm::longest_match_net".to_string(),
                "net::lpm::lookup_batch_map_in".to_string(),
                // Overlay-combined steady-state lookups must stay
                // allocation-free: churn is absorbed by patches, not by
                // per-query buffers.
                "net::overlay::longest_match".to_string(),
                "net::overlay::lookup_batch_map_in".to_string(),
                // The prefix table's per-reply reads: the scan's client-AS
                // lookup and batched ingress attribution.
                "net::table::lookup".to_string(),
                "net::table::lookup_batch_map_in".to_string(),
                // The scheduler's window drain — the inner loop of every
                // simulated scan.
                "engine::sched::run_window".to_string(),
                // The ECS reply loop (decode → classify → record).
                "core::ecs_scan::attempt_query".to_string(),
            ],
            warm_paths: vec![
                // Reply decoding materializes owned names/records by
                // design; the hot loop hands bytes over and gets a parsed
                // message back. Allocation inside the decoder is the
                // decoder's contract, not a steady-state leak.
                "dns::wire::decode_message".to_string(),
                // The ShardModel event handlers are simulation payload —
                // the code playing remote resolvers, relays, and probe
                // campaigns. The scheduler's window drain is the hot
                // kernel; what the simulated world does per event is model
                // behavior, and the scan kernels inside it are designated
                // hot roots of their own (`attempt_query`, the lpm
                // lookups, the wire encoder).
                "core::atlas_campaign::handle".to_string(),
                "core::ecs_scan::handle".to_string(),
                "core::relay_scan::handle".to_string(),
                "core::masque_load::handle".to_string(),
                // Same boundary one layer down: the simulated *server* side
                // of an exchange (zone lookup, reply synthesis) allocates
                // by design — it plays the remote resolver. The scanner's
                // reply loop proper (decode → classify → record) stays
                // hot.
                "dns::server::handle_query_into".to_string(),
                "simnet::channel::handle_query_into".to_string(),
                // Query construction: one message built per probe, before
                // the encode/send/decode cycle the hot rule watches.
                "dns::message::query".to_string(),
            ],
            graph_skip_crates: vec!["lintkit".to_string()],
        }
    }
}

/// The full result of one workspace pass: the findings plus the call graph
/// they were computed on (for `--graph` dumps and diagnostics).
pub struct Analysis {
    /// All findings, sorted by file and line.
    pub findings: Vec<Finding>,
    /// The linked workspace call graph.
    pub graph: graph::CallGraph,
}

/// One file the pass must visit, in deterministic walk order.
struct FileTask {
    crate_name: String,
    module: String,
    rel: String,
    path: PathBuf,
    /// Whether the file participates in the call graph.
    graph: bool,
}

/// Lints the whole workspace: the allow comments of every `.rs` file under
/// `crates/*/src` and the root package's `src/`, the vendored-shim
/// manifest, and the interprocedural graph rules. Findings come back
/// sorted by file and line.
pub fn lint_workspace(config: &Config) -> io::Result<Vec<Finding>> {
    Ok(analyze_workspace(config)?.findings)
}

/// [`lint_workspace`], but also returning the call graph.
pub fn analyze_workspace(config: &Config) -> io::Result<Analysis> {
    let mut findings = Vec::new();
    let mut file_symbols = Vec::new();
    for task in collect_tasks(config)? {
        let text = fs::read_to_string(&task.path)?;
        findings.extend(rules::check_allows(&task.rel, &text));
        if task.graph {
            file_symbols.push(symbols::collect(
                &task.crate_name,
                &task.module,
                &task.rel,
                &text,
            ));
        }
    }

    // Vendored-shim API drift (fixture workspaces have no vendor tree).
    let vendor = config.root.join("vendor");
    if vendor.is_dir() {
        findings.extend(manifest::check(&vendor)?);
    }

    let graph = graph::CallGraph::build(file_symbols);
    findings.extend(reach::check_graph(
        &graph,
        &config.hot_paths,
        &config.warm_paths,
    ));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Analysis { findings, graph })
}

/// The tier-1 gate check: the workspace policy, as one call usable from
/// any crate's tests. Returns `Err` with a rendered report when there is
/// any finding.
pub fn check_workspace_gate(root: &Path) -> Result<(), String> {
    let config = Config::for_workspace(root);
    let findings = lint_workspace(&config).map_err(|e| format!("lint pass failed: {e}"))?;
    if findings.is_empty() {
        return Ok(());
    }
    Err(findings.iter().map(|f| format!("  {f}\n")).collect())
}

/// Walks the workspace and lists every `.rs` file the pass must visit, in
/// deterministic (sorted) order.
fn collect_tasks(config: &Config) -> io::Result<Vec<FileTask>> {
    let mut tasks = Vec::new();
    let crates_dir = config.root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect_src_dir(config, &name, &dir.join("src"), &mut tasks)?;
    }
    // The root `tectonic` package.
    collect_src_dir(config, "tectonic", &config.root.join("src"), &mut tasks)?;
    Ok(tasks)
}

/// Lists every `.rs` file under one `src/` directory.
fn collect_src_dir(
    config: &Config,
    crate_name: &str,
    src_dir: &Path,
    tasks: &mut Vec<FileTask>,
) -> io::Result<()> {
    if !src_dir.is_dir() {
        return Ok(());
    }
    let mut files = Vec::new();
    manifest::collect_rs_files(src_dir, &mut files)?;
    files.sort();
    for file in files {
        let rel = file
            .strip_prefix(&config.root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        // Graph exclusions: build-time-tool crates and binary targets are
        // never callees of library code (see `Config::graph_skip_crates`).
        let is_bin = rel.contains("/bin/") || rel.ends_with("src/main.rs");
        let graph = !is_bin && !config.graph_skip_crates.iter().any(|c| c == crate_name);
        let module = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        tasks.push(FileTask {
            crate_name: crate_name.to_string(),
            module,
            rel,
            path: file,
            graph,
        });
    }
    Ok(())
}

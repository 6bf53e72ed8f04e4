//! `lintkit` — the workspace's call-graph analysis and vendored-shim check.
//!
//! The reproduction's pipelines parse hostile or malformed external inputs
//! (DNS wire replies, the published egress CSV, Atlas measurement dumps).
//! One stray `unwrap` turns a bad record into an aborted multi-hour scan.
//! The per-file half of that policy — no panics, no prints, no unsafe, no
//! indexing on parse paths, no lossy casts or unchecked arithmetic in the
//! kernels — is clippy's: each crate root and strict file declares the
//! lints (see DESIGN.md §8). This crate enforces what clippy cannot see:
//!
//! * **vendor-manifest** — the vendored dependency shims match the
//!   checked-in public-API manifest (`vendor/API_MANIFEST.txt`),
//! * **allow-needs-reason** — a `// lintkit: allow(<rule>) -- <reason>`
//!   comment must name one of lintkit's rules and give a reason.
//!
//! On top of that, the pass builds a workspace-wide symbol table
//! ([`symbols`]) and conservative call graph ([`graph`]) and runs seven
//! interprocedural rules ([`reach`], [`order`], [`resource`]):
//!
//! * **panic-reachability** — no panic site may be transitively reachable
//!   from a declared hostile-input entry point (unresolvable dynamic
//!   dispatch is a ⊥ node that conservatively "may panic"),
//! * **lock-order** — the derived `Mutex`/`RwLock` acquisition-order graph
//!   must be acyclic,
//! * **determinism-taint** — `SystemTime::now`/`Instant::now`/`thread_rng`
//!   sources must be unreachable from `SimClock`/`SimRng`-driven code,
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
//! Accepted findings live in the `lint-baseline.json` ratchet ([`baseline`]):
//! new findings fail, and so do stale baseline entries, so the debt only
//! burns down. `--json` and `--sarif` ([`sarif`]) export the findings for
//! CI artifacts and code-hosting annotation UIs.
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
        clippy::allow_attributes_without_reason
    )
)]
#![deny(rust_2018_idioms)]

pub mod baseline;
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
    /// Entry points for the panic-reachability rule, as
    /// `crate::module::name` patterns (`name` may be `*` for every
    /// function in the module). A pattern that matches nothing is itself a
    /// finding, so renames cannot silently disable the analysis.
    pub entry_points: Vec<String>,
    /// Steady-state entry points for the `alloc-in-hot-path` rule — the
    /// per-reply / per-packet kernels that must run allocation-free. Same
    /// pattern syntax and liveness check as `entry_points`.
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
    /// The project policy: reachability entry points on every surface that
    /// parses hostile bytes or serves the request path, and the hot/warm
    /// boundaries of the allocation rule.
    pub fn for_workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            entry_points: vec![
                // The explicit-list ECS scan: one engine shard driving the
                // query, retry and attribution kernels.
                "core::ecs_scan::scan_subnets".to_string(),
                // Batched longest-prefix matching under the scan's
                // per-reply attribution.
                "net::lpm::lookup_batch".to_string(),
                // Overlay-combined lookups: the steady-state read path under
                // BGP churn routes every query through these.
                "net::overlay::longest_match".to_string(),
                "net::overlay::longest_match_net".to_string(),
                "net::overlay::exact".to_string(),
                "net::overlay::lookup_batch_in".to_string(),
                // The prefix table's reads: every RIB and geolocation query
                // (route lookup, covering prefix, exact origin, the scan's
                // batched attribution) enters here.
                "net::table::lookup".to_string(),
                "net::table::lookup_net".to_string(),
                "net::table::get".to_string(),
                "net::table::lookup_batch_map_in".to_string(),
                // DNS wire decoding of hostile reply bytes.
                "dns::wire::decode_message".to_string(),
                // The published egress CSV (lossy parse path).
                "geo::csv::parse_csv_lossy".to_string(),
                // QUIC Version Negotiation probing (paper §6).
                "quic::probe::*".to_string(),
                // The relay client request path.
                "relay::client::request".to_string(),
                "relay::client::request_pair_with_ids".to_string(),
                "relay::client::odoh_resolve".to_string(),
                // The fault-injection delivery hot path (chaos harness).
                "simnet::channel::deliver".to_string(),
                // CONNECT-UDP codecs fed hostile tunnel bytes.
                "quic::capsule::decode_capsule".to_string(),
                "quic::capsule::decode_datagram".to_string(),
                // The session layer's receive path: unframing and opening
                // datagrams a faulted channel may have truncated or
                // corrupted.
                "relay::session::unframe_datagram".to_string(),
                "relay::session::open_payload".to_string(),
                // The sharded discrete-event engine: scheduler loop and
                // every shard-facing surface must be panic-free — a panic
                // in one worker poisons the whole scan.
                "engine::sched::*".to_string(),
            ],
            hot_paths: vec![
                // Query encoding runs once per probe across the whole scan.
                "dns::wire::encode_message_into".to_string(),
                // Per-reply attribution: one lookup per decoded answer.
                "net::lpm::longest_match_net".to_string(),
                "net::lpm::lookup_batch".to_string(),
                // Overlay-combined steady-state lookups must stay
                // allocation-free: churn is absorbed by patches, not by
                // per-query buffers.
                "net::overlay::longest_match".to_string(),
                "net::overlay::lookup_batch_in".to_string(),
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
    /// Resolved entry-point function indices into `graph.funcs`.
    pub entries: Vec<usize>,
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
        &config.entry_points,
        &config.hot_paths,
        &config.warm_paths,
    ));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let entries = config
        .entry_points
        .iter()
        .flat_map(|p| graph.resolve_entry(p))
        .collect();
    Ok(Analysis {
        findings,
        graph,
        entries,
    })
}

/// The tier-1 gate check: the workspace policy plus baseline-ratchet
/// semantics, as one call usable from any crate's tests. Returns `Err`
/// with a rendered report when there are unbaselined findings or stale
/// baseline entries.
pub fn check_workspace_gate(root: &Path) -> Result<(), String> {
    let config = Config::for_workspace(root);
    let findings = lint_workspace(&config).map_err(|e| format!("lint pass failed: {e}"))?;
    let baseline_text = fs::read_to_string(root.join(baseline::BASELINE_FILE)).unwrap_or_default();
    let entries = baseline::parse(&baseline_text).map_err(|e| format!("bad baseline: {e}"))?;
    let outcome = baseline::apply(&findings, &entries);
    if outcome.is_clean() {
        return Ok(());
    }
    let mut msg = String::new();
    for f in &outcome.unbaselined {
        msg.push_str(&format!("  {f}\n"));
    }
    for e in &outcome.stale {
        msg.push_str(&format!(
            "  stale baseline entry {}:{}: {} (regenerate with `cargo run -p xtask -- lint --update-baseline`)\n",
            e.file, e.line, e.rule
        ));
    }
    Err(msg)
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

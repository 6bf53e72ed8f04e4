//! `lintkit` — the workspace's self-contained static-analysis pass.
//!
//! The reproduction's pipelines parse hostile or malformed external inputs
//! (DNS wire replies, the published egress CSV, Atlas measurement dumps).
//! One stray `unwrap` turns a bad record into an aborted multi-hour scan,
//! which the ROADMAP's production-scale goal cannot afford. This crate
//! enforces the project's robustness invariants *statically* so they cannot
//! regress:
//!
//! * **no-panic** — no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` in library (non-test) code,
//! * **no-index** — no `expr[i]` indexing on designated hostile-input parse
//!   paths (use `.get`),
//! * **no-print** — no `println!`-family output in library code,
//! * **forbid-unsafe** — every crate root carries `#![forbid(unsafe_code)]`,
//! * **vendor-manifest** — the vendored dependency shims match the
//!   checked-in public-API manifest (`vendor/API_MANIFEST.txt`),
//! * **allow-needs-reason** — suppressions must carry a justification,
//! * **narrowing-cast** — no lossy `as` cast in the strict-arithmetic files
//!   ([`resource`]); widening casts stay silent,
//! * **unchecked-arith** — no unguarded `+`/`-`/`*`/`<<` on size/index-typed
//!   operands in the same files; `checked_*`/`saturating_*`/`wrapping_*` and
//!   bounds-dominated patterns are recognized boundaries.
//!
//! Any finding can be suppressed with
//! `// lintkit: allow(<rule>) -- <reason>`; the reason is mandatory.
//!
//! On top of the per-file rules, the pass builds a workspace-wide symbol
//! table ([`symbols`]) and conservative call graph ([`graph`]) and runs
//! seven interprocedural rules ([`reach`], [`order`], [`resource`]):
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
//! The per-file pass is parallel (`std::thread::scope` over disjoint output
//! slots, merged in deterministic order) and incremental: an on-disk cache
//! ([`cache`], `target/lintkit-cache.json`) keyed by file content hash and a
//! rule-set/config fingerprint lets warm runs skip re-analyzing unchanged
//! files while provably emitting byte-identical findings. Symbol collection
//! still runs on every file so the interprocedural pass never sees stale
//! graphs.
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
#![deny(rust_2018_idioms)]

pub mod baseline;
pub mod cache;
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
use std::time::Instant;

pub use rules::{check_file, FileContext, Finding, Rule};

/// What to lint and how strictly.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Workspace-relative paths of files where the `no-index` rule applies —
    /// the parse paths that face hostile input.
    pub strict_index: Vec<String>,
    /// Workspace-relative paths of files where the `narrowing-cast` and
    /// `unchecked-arith` rules apply — the arithmetic-dense kernels where a
    /// silent truncation or overflow corrupts results instead of crashing.
    pub strict_arith: Vec<String>,
    /// Crate directory names under `crates/` to skip entirely (dev tools
    /// such as the lint driver binary itself).
    pub skip_crates: Vec<String>,
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
    /// Crates linted per-file but excluded from the call graph. Build-time
    /// tools (lintkit itself) are never callees of product code, and their
    /// generic function names (`parse`, `resolve`, `collect`) would only
    /// add false edges. Binary targets are excluded for the same reason —
    /// a `[[bin]]` cannot be linked into a library call path.
    pub graph_skip_crates: Vec<String>,
    /// Where the incremental per-file cache lives; `None` disables caching
    /// (fixture workspaces, hermetic tests).
    pub cache: Option<PathBuf>,
}

impl Config {
    /// The project policy: every library crate, strict indexing on the
    /// hostile-input decoders, the `xtask` driver exempt (it is a pure
    /// binary dev-tool, not library code), and reachability entry points on
    /// every surface that parses hostile bytes or serves the request path.
    pub fn for_workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            strict_index: vec![
                "crates/dns/src/wire.rs".to_string(),
                // The discrete-event scheduler: event order is the whole
                // determinism contract, so no slice indexing anywhere.
                "crates/engine/src/sched.rs".to_string(),
                "crates/geo/src/csv.rs".to_string(),
                "crates/net/src/lpm.rs".to_string(),
                // The churn overlay shares the frozen table's arena-index
                // discipline: every probe goes through checked access.
                "crates/net/src/overlay.rs".to_string(),
                // The prefix-table owner type dispatches every RIB and geo
                // read between the staged map and the compiled arrays.
                "crates/net/src/table.rs".to_string(),
                "crates/quic/src/packet.rs".to_string(),
                "crates/quic/src/varint.rs".to_string(),
                // Capsule/HTTP-Datagram codecs: decoding hostile tunnel
                // bytes must be total.
                "crates/quic/src/capsule.rs".to_string(),
                // Sealed-payload and datagram framing on the session path:
                // the egress opens bytes a faulted channel may have
                // mangled.
                "crates/relay/src/session.rs".to_string(),
                "crates/simnet/src/channel.rs".to_string(),
            ],
            strict_arith: vec![
                // Wire offsets and RDLENGTH arithmetic: a silent u16 wrap
                // emits a malformed packet instead of an error.
                "crates/dns/src/wire.rs".to_string(),
                // Virtual-time and shard-index arithmetic.
                "crates/engine/src/sched.rs".to_string(),
                // Arena indices are u32 by design; every narrowing from
                // usize must be provably in range.
                "crates/net/src/lpm.rs".to_string(),
                // Patch offsets and chunk arithmetic in the churn overlay.
                "crates/net/src/overlay.rs".to_string(),
                // Live-prefix counting and the fold/rebuild thresholds.
                "crates/net/src/table.rs".to_string(),
                // RFC 9000 varints: 62-bit values through shifts and masks.
                "crates/quic/src/varint.rs".to_string(),
                // Capsule header offsets and declared-length arithmetic: a
                // silent wrap turns a truncation error into a mis-framed
                // read.
                "crates/quic/src/capsule.rs".to_string(),
            ],
            skip_crates: vec!["xtask".to_string()],
            entry_points: vec![
                // The multi-hour ECS scan drive loop.
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
                "relay::client::request_pair".to_string(),
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
            cache: Some(root.join("target").join("lintkit-cache.json")),
        }
    }
}

/// Wall-time and cache-effectiveness counters for one workspace pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Files visited by the per-file pass.
    pub files: usize,
    /// Files whose findings were served from the incremental cache.
    pub cache_hits: usize,
    /// Files that ran the full per-file rule set.
    pub cache_misses: usize,
    /// Wall time of the parallel per-file pass (lex + rules + symbols).
    pub file_pass_ns: u128,
    /// Wall time of the interprocedural graph pass.
    pub graph_ns: u128,
    /// End-to-end wall time of `analyze_workspace`.
    pub total_ns: u128,
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
    /// Timing and cache counters for this pass.
    pub stats: PassStats,
}

/// One file the per-file pass must visit, in deterministic walk order.
struct FileTask {
    crate_name: String,
    module: String,
    rel: String,
    path: PathBuf,
    ctx: FileContext,
    /// Whether the file participates in the call graph.
    graph: bool,
}

/// What one worker produced for one file.
struct FileOutcome {
    findings: Vec<Finding>,
    symbols: Option<symbols::FileSymbols>,
    hash: u64,
    cache_hit: bool,
}

/// Lints the whole workspace: every crate under `crates/*/src`, the root
/// package's `src/`, the vendored-shim manifest, and the interprocedural
/// graph rules. Findings come back sorted by file and line.
pub fn lint_workspace(config: &Config) -> io::Result<Vec<Finding>> {
    Ok(analyze_workspace(config)?.findings)
}

/// [`lint_workspace`], but also returning the call graph and pass stats.
// Wall-clock is the measurement here, as in the criterion shim: the pass
// stats time the analyzer itself, which runs outside any simulation.
#[allow(clippy::disallowed_methods)]
pub fn analyze_workspace(config: &Config) -> io::Result<Analysis> {
    let t_start = Instant::now();
    let tasks = collect_tasks(config)?;

    // Only the facets `check_file` consults go into the fingerprint: a
    // changed entry-point list affects graph findings, which are recomputed
    // every run anyway, so it must not cold-start the per-file cache.
    let fingerprint = cache::fingerprint(&[&config.strict_index, &config.strict_arith]);
    let prior = match &config.cache {
        Some(path) => {
            let loaded = cache::load(path);
            if loaded.fingerprint == fingerprint {
                loaded
            } else {
                cache::CacheFile::default()
            }
        }
        None => cache::CacheFile::default(),
    };

    let t_files = Instant::now();
    let outcomes = run_file_pass(&tasks, &prior);
    let file_pass_ns = t_files.elapsed().as_nanos();

    let mut findings = Vec::new();
    let mut file_symbols = Vec::new();
    let mut next = cache::CacheFile {
        fingerprint,
        files: std::collections::BTreeMap::new(),
    };
    let mut stats = PassStats {
        files: tasks.len(),
        file_pass_ns,
        ..PassStats::default()
    };
    for (task, outcome) in tasks.iter().zip(outcomes) {
        let outcome = outcome?;
        if outcome.cache_hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        next.files.insert(
            task.rel.clone(),
            cache::CacheEntry {
                hash: outcome.hash,
                findings: outcome.findings.clone(),
            },
        );
        findings.extend(outcome.findings);
        file_symbols.extend(outcome.symbols);
    }

    // Vendored-shim API drift (fixture workspaces have no vendor tree).
    let vendor = config.root.join("vendor");
    if vendor.is_dir() {
        findings.extend(manifest::check(&vendor)?);
    }

    // The interprocedural pass.
    let t_graph = Instant::now();
    let graph = graph::CallGraph::build(file_symbols);
    findings.extend(reach::check_graph(
        &graph,
        &config.entry_points,
        &config.hot_paths,
        &config.warm_paths,
    ));
    stats.graph_ns = t_graph.elapsed().as_nanos();

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let entries = config
        .entry_points
        .iter()
        .flat_map(|p| graph.resolve_entry(p))
        .collect();
    if let Some(path) = &config.cache {
        cache::store(path, &next);
    }
    stats.total_ns = t_start.elapsed().as_nanos();
    Ok(Analysis {
        findings,
        graph,
        entries,
        stats,
    })
}

/// Runs the per-file pass over `tasks` in parallel, one output slot per
/// task. Workers own disjoint chunks of the slot array, so output order is
/// the task order regardless of scheduling — determinism costs nothing
/// here because no worker ever contends with another.
fn run_file_pass(tasks: &[FileTask], prior: &cache::CacheFile) -> Vec<io::Result<FileOutcome>> {
    let mut slots: Vec<Option<io::Result<FileOutcome>>> = Vec::new();
    slots.resize_with(tasks.len(), || None);
    if tasks.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(tasks.len());
    let chunk = tasks.len().div_ceil(workers);
    std::thread::scope(|s| {
        for (task_chunk, slot_chunk) in tasks.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            s.spawn(move || {
                for (task, slot) in task_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(run_one_file(task, prior));
                }
            });
        }
    });
    // Every slot is filled: the chunked zip covers all indices exactly once.
    slots.into_iter().flatten().collect()
}

/// Lints one file, serving per-file findings from the cache when the
/// content hash matches. Symbols are re-collected unconditionally — the
/// call graph must reflect the workspace as it is now, and collection is
/// cheap next to the rule pass.
fn run_one_file(task: &FileTask, prior: &cache::CacheFile) -> io::Result<FileOutcome> {
    let text = fs::read_to_string(&task.path)?;
    let hash = cache::content_hash(text.as_bytes());
    let cached = prior
        .files
        .get(&task.rel)
        .filter(|entry| entry.hash == hash);
    let (findings, cache_hit) = match cached {
        Some(entry) => (entry.findings.clone(), true),
        None => (check_file(&task.rel, &text, task.ctx), false),
    };
    let symbols = task
        .graph
        .then(|| symbols::collect(&task.crate_name, &task.module, &task.rel, &text));
    Ok(FileOutcome {
        findings,
        symbols,
        hash,
        cache_hit,
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
        if config.skip_crates.contains(&name) {
            continue;
        }
        collect_src_dir(config, &name, &dir.join("src"), &mut tasks)?;
    }
    // The root `tectonic` package.
    collect_src_dir(config, "tectonic", &config.root.join("src"), &mut tasks)?;
    Ok(tasks)
}

/// Lists every `.rs` file under one `src/` directory with its lint context.
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
        let ctx = FileContext {
            is_crate_root: file.parent() == Some(src_dir)
                && file.file_name().is_some_and(|n| n == "lib.rs"),
            strict_index: config.strict_index.contains(&rel),
            // Binary targets own their stdout; libraries do not.
            allow_print: rel.contains("/bin/") || rel.ends_with("src/main.rs"),
            strict_arith: config.strict_arith.contains(&rel),
        };
        // Graph exclusions: build-time-tool crates and binary targets are
        // never callees of library code (see `Config::graph_skip_crates`).
        let graph = !config.graph_skip_crates.iter().any(|c| c == crate_name) && !ctx.allow_print;
        let module = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        tasks.push(FileTask {
            crate_name: crate_name.to_string(),
            module,
            rel,
            path: file,
            ctx,
            graph,
        });
    }
    Ok(())
}

//! Workspace automation: `cargo run -p xtask -- lint`.
//!
//! Subcommands:
//!
//! * `lint` — run the [`lintkit`] pass (allow-comment hygiene plus the
//!   call-graph rules) over every workspace crate and the vendored-shim
//!   manifest; exits non-zero on any finding. The panic, print, index,
//!   wall-clock, cast and arithmetic rules are clippy lints declared in
//!   the crate roots, the strict files and `clippy.toml`: run
//!   `cargo clippy --workspace --all-targets -- -D warnings` for those.
//! * `lint --update-manifest` — regenerate `vendor/API_MANIFEST.txt` from
//!   the current shim sources, then lint.
//! * `lint --graph[=PATH]` — dump the workspace call graph as GraphViz DOT
//!   to stdout (or PATH).
//! * `lint --sarif PATH` — write the findings as a SARIF v2.1.0 log (one
//!   result per finding) for CI artifacts and code-hosting annotation
//!   UIs.
//! * `bench-report [--suite lpm|scan|masque|all]` — run an ablation bench
//!   with the shim's `BENCH_JSON` line output enabled and distil it into
//!   `BENCH_lpm.json` / `BENCH_scan.json` / `BENCH_masque.json` (bench
//!   name → ns/op, median), the artifacts CI uploads. The scan suite
//!   appends derived `speedup_engine_w8_*` ratios; the lpm suite appends
//!   `speedup_churn_*` (full-refreeze over amortized-overlay update
//!   cost); the masque suite appends `sessions_per_sec_*` throughput and
//!   the serial/engine speedup. Default suite: `lpm`.
//! * `chaos` — run the fault-injection scenario matrix in-process:
//!   `--scenario NAME --seed N` for one cell, `--all --seeds K` for the
//!   whole registry, `--out PATH` for a JSON invariant report. Exits
//!   non-zero if any scenario violates its invariants (see DESIGN.md §10).
//!
//! The same pass runs as a tier-1 test (`tests/lint_gate.rs` and
//! `crates/lintkit/tests/workspace_gate.rs`) and as a CI job, so `xtask
//! lint` passing locally means the lintkit gates pass too.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use lintkit::{analyze_workspace, manifest, sarif, Config};

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask; CARGO_MANIFEST_DIR is compiled in,
    // so the binary finds the root regardless of the invocation directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Parsed `lint` options.
struct LintOpts {
    update_manifest: bool,
    /// `Some(None)` = DOT to stdout, `Some(Some(path))` = DOT to file.
    graph: Option<Option<String>>,
    sarif: Option<String>,
}

fn parse_lint_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts {
        update_manifest: false,
        graph: None,
        sarif: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--update-manifest" {
            opts.update_manifest = true;
        } else if arg == "--graph" {
            opts.graph = Some(None);
        } else if let Some(path) = arg.strip_prefix("--graph=") {
            opts.graph = Some(Some(path.to_string()));
        } else if arg == "--sarif" {
            i += 1;
            let path = args.get(i).ok_or("--sarif needs a path")?;
            opts.sarif = Some(path.clone());
        } else if let Some(path) = arg.strip_prefix("--sarif=") {
            opts.sarif = Some(path.to_string());
        } else {
            return Err(format!("unknown lint option `{arg}`"));
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: cargo run -p xtask -- lint \
             [--update-manifest] [--graph[=PATH]] [--sarif PATH]\n\
             \x20      cargo run -p xtask -- bench-report [--suite lpm|scan|masque|all] [--out PATH]\n\
             \x20      cargo run -p xtask -- chaos (--scenario NAME | --all) \
             [--seed N] [--seeds K] [--out PATH]"
        );
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "lint" => match parse_lint_opts(&args[1..]) {
            Ok(opts) => lint(&opts),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::FAILURE
            }
        },
        "bench-report" => bench_report(&args[1..]),
        "chaos" => chaos(&args[1..]),
        other => {
            eprintln!("unknown subcommand `{other}`; expected `lint`, `bench-report`, or `chaos`");
            ExitCode::FAILURE
        }
    }
}

/// Runs the chaos scenario matrix in-process and prints one line per
/// scenario-seed cell plus a final summary; exits non-zero on any
/// violated invariant.
fn chaos(args: &[String]) -> ExitCode {
    use tectonic::chaos::{check_invariants, run_pipeline, ChaosConfig, ChaosRun};
    use tectonic::simnet::scenarios;

    let mut scenario: Option<String> = None;
    let mut all = false;
    let mut seed: u64 = 1;
    let mut seeds: u64 = 3;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut take = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = (|| {
            if arg == "--scenario" {
                scenario = Some(take("--scenario")?);
            } else if let Some(v) = arg.strip_prefix("--scenario=") {
                scenario = Some(v.to_string());
            } else if arg == "--all" {
                all = true;
            } else if arg == "--seed" {
                seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            } else if arg == "--seeds" {
                seeds = take("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            } else if let Some(v) = arg.strip_prefix("--seeds=") {
                seeds = v.parse().map_err(|e| format!("--seeds: {e}"))?;
            } else if arg == "--out" {
                out = Some(PathBuf::from(take("--out")?));
            } else if let Some(v) = arg.strip_prefix("--out=") {
                out = Some(PathBuf::from(v));
            } else {
                return Err(format!("unknown option `{arg}`"));
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("xtask chaos: {e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let (names, run_seeds): (Vec<String>, Vec<u64>) = if all {
        (
            scenarios::ALL.iter().map(|s| s.to_string()).collect(),
            (1..=seeds.max(1)).collect(),
        )
    } else if let Some(name) = scenario {
        (vec![name], vec![seed])
    } else {
        eprintln!("xtask chaos: pass --scenario NAME or --all");
        return ExitCode::FAILURE;
    };

    let config = ChaosConfig::default();
    let mut goldens: Vec<(u64, ChaosRun)> = Vec::new();
    let golden_for = |s: u64, goldens: &mut Vec<(u64, ChaosRun)>| -> usize {
        if let Some(pos) = goldens.iter().position(|(gs, _)| *gs == s) {
            return pos;
        }
        goldens.push((s, run_pipeline(s, None, &config)));
        goldens.len() - 1
    };
    let mut report_lines: Vec<String> = Vec::new();
    let mut total_runs = 0u64;
    let mut total_violations = 0u64;
    for name in &names {
        let Some(plan) = scenarios::by_name(name) else {
            eprintln!(
                "xtask chaos: unknown scenario `{name}` (known: {})",
                scenarios::ALL.join(", ")
            );
            return ExitCode::FAILURE;
        };
        for &s in &run_seeds {
            let golden_idx = golden_for(s, &mut goldens);
            let run = run_pipeline(s, Some(&plan), &config);
            let violations = check_invariants(name, &run, &goldens[golden_idx].1);
            total_runs += 1;
            total_violations += violations.len() as u64;
            if violations.is_empty() {
                println!("chaos: scenario {name} seed {s}: OK (all invariants hold)");
            } else {
                println!(
                    "chaos: scenario {name} seed {s}: {} invariant violation(s)",
                    violations.len()
                );
                for v in &violations {
                    println!("chaos:   invariant violated: {v}");
                }
            }
            report_lines.push(format!(
                "  {{\"scenario\": \"{name}\", \"seed\": {s}, \"violations\": [{}]}}",
                violations
                    .iter()
                    .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    println!("chaos: {total_runs} scenario-runs, {total_violations} invariant violation(s)");
    if let Some(path) = out {
        let body = format!("[\n{}\n]\n", report_lines.join(",\n"));
        if let Err(e) = fs::write(&path, body) {
            eprintln!("xtask chaos: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("chaos: wrote invariant report to {}", path.display());
    }
    if total_violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `bench-report` suite: which bench target to run and which report
/// file its medians land in.
struct BenchSuite {
    name: &'static str,
    bench: &'static str,
    report: &'static str,
}

const BENCH_SUITES: [BenchSuite; 3] = [
    BenchSuite {
        name: "lpm",
        bench: "ablation_rib_lpm",
        report: "BENCH_lpm.json",
    },
    BenchSuite {
        name: "scan",
        bench: "ablation_scan_engine",
        report: "BENCH_scan.json",
    },
    BenchSuite {
        name: "masque",
        bench: "ablation_masque",
        report: "BENCH_masque.json",
    },
];

/// Sessions per storm in `ablation_masque` (clients × rounds × 2 agents);
/// mirrors the `StormConfig::sized` calls in the bench so the report can
/// derive sessions/sec from ns/op medians.
const MASQUE_STORM_SESSIONS: [(&str, f64); 2] = [("small", 256.0), ("large", 4_800.0)];

/// Runs one or more ablation benches and condenses the shim's
/// `BENCH_JSON` lines into flat bench-name → ns/op (median) reports.
/// `--suite lpm` (the default, matching the original behaviour), `--suite
/// scan`, `--suite masque`, or `--suite all`; the scan suite appends
/// derived `speedup_engine_w8_*` ratios (serial median / engine-8-worker
/// median), the lpm suite appends `speedup_churn_*` ratios (full-refreeze
/// median / amortized-overlay median, per table size), and the masque
/// suite appends `sessions_per_sec_*` throughput rows plus the
/// serial/engine speedup per storm size.
fn bench_report(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut out_path: Option<PathBuf> = None;
    let mut suite = "lpm".to_string();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--out" {
            i += 1;
            match args.get(i) {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask bench-report: --out needs a path");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(PathBuf::from(p));
        } else if arg == "--suite" {
            i += 1;
            match args.get(i) {
                Some(s) => suite = s.clone(),
                None => {
                    eprintln!("xtask bench-report: --suite needs a name");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(s) = arg.strip_prefix("--suite=") {
            suite = s.to_string();
        } else {
            eprintln!("xtask bench-report: unknown option `{arg}`");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let selected: Vec<&BenchSuite> = if suite == "all" {
        BENCH_SUITES.iter().collect()
    } else {
        match BENCH_SUITES.iter().find(|s| s.name == suite) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "xtask bench-report: unknown suite `{suite}` (known: lpm, scan, masque, all)"
                );
                return ExitCode::FAILURE;
            }
        }
    };
    if out_path.is_some() && selected.len() > 1 {
        eprintln!("xtask bench-report: --out only works with a single suite");
        return ExitCode::FAILURE;
    }
    for s in selected {
        let out = out_path.clone().unwrap_or_else(|| root.join(s.report));
        if let Err(e) = run_bench_suite(&root, s, &out) {
            eprintln!("xtask bench-report: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_bench_suite(root: &PathBuf, suite: &BenchSuite, out_path: &PathBuf) -> Result<(), String> {
    let lines_path = root
        .join("target")
        .join(format!("bench-{}-lines.jsonl", suite.name));
    let _ = fs::remove_file(&lines_path);
    let status = std::process::Command::new(env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["bench", "-p", "tectonic-bench", "--bench", suite.bench])
        .env("BENCH_JSON", &lines_path)
        .current_dir(root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("cargo bench failed: {s}")),
        Err(e) => return Err(format!("running cargo bench: {e}")),
    }
    let lines = fs::read_to_string(&lines_path)
        .map_err(|e| format!("no BENCH_JSON output at {}: {e}", lines_path.display()))?;
    let mut rows: Vec<(String, f64)> = Vec::new();
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let (Some(bench), Some(median)) = (json_str(line, "bench"), json_num(line, "median_ns"))
        else {
            return Err(format!("unparseable line: {line}"));
        };
        rows.push((bench.to_string(), median));
    }
    if rows.is_empty() {
        return Err("bench produced no measurements".to_string());
    }
    // The scan suite's headline numbers: wall-clock ratio of the serial
    // (one-shard) scan over the 8-worker engine, per deployment size.
    if suite.name == "scan" {
        let mut derived: Vec<(String, f64)> = Vec::new();
        let median = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns);
        for size in ["small", "large"] {
            if let (Some(serial), Some(engine)) = (
                median(&format!("serial_{size}")),
                median(&format!("engine_w8_{size}")),
            ) {
                if engine > 0.0 {
                    derived.push((format!("speedup_engine_w8_{size}"), serial / engine));
                }
            }
        }
        rows.extend(derived);
    }
    // The masque suite's headline numbers: session throughput of the
    // serial driver and the 8-worker engine (sessions/sec, derived from
    // the ns/op median and the storm's fixed session count), plus the
    // wall-clock ratio between them.
    if suite.name == "masque" {
        let mut derived: Vec<(String, f64)> = Vec::new();
        let median = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns);
        for (size, sessions) in MASQUE_STORM_SESSIONS {
            let serial = median(&format!("serial_{size}"));
            let engine = median(&format!("engine_w8_{size}"));
            if let Some(ns) = serial {
                if ns > 0.0 {
                    derived.push((
                        format!("sessions_per_sec_serial_{size}"),
                        sessions * 1e9 / ns,
                    ));
                }
            }
            if let Some(ns) = engine {
                if ns > 0.0 {
                    derived.push((
                        format!("sessions_per_sec_engine_w8_{size}"),
                        sessions * 1e9 / ns,
                    ));
                }
            }
            if let (Some(serial), Some(engine)) = (serial, engine) {
                if engine > 0.0 {
                    derived.push((format!("speedup_engine_w8_{size}"), serial / engine));
                }
            }
        }
        rows.extend(derived);
    }
    // The churn suite's headline numbers: per-update cost of a whole-table
    // refreeze over the amortized overlay + subtree-compaction path.
    if suite.name == "lpm" {
        let mut derived: Vec<(String, f64)> = Vec::new();
        let median = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns);
        for size in ["100k", "900k"] {
            if let (Some(full), Some(overlay)) = (
                median(&format!("update_full_refreeze_{size}")),
                median(&format!("update_overlay_{size}")),
            ) {
                if overlay > 0.0 {
                    derived.push((format!("speedup_churn_{size}"), full / overlay));
                }
            }
        }
        rows.extend(derived);
    }
    let body = rows
        .iter()
        .map(|(name, ns)| format!("  \"{name}\": {ns:.1}"))
        .collect::<Vec<_>>()
        .join(",\n");
    fs::write(out_path, format!("{{\n{body}\n}}\n"))
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!(
        "xtask bench-report: wrote {} ({} entries, ns/op medians)",
        out_path.display(),
        rows.len()
    );
    Ok(())
}

/// Extracts a string field from one flat `BENCH_JSON` line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_value(line, key)?;
    rest.strip_prefix('"')?.split('"').next()
}

/// Extracts a numeric field from one flat `BENCH_JSON` line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let rest = field_value(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    Some(&line[start..])
}

fn lint(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let vendor = root.join("vendor");
    if opts.update_manifest {
        let text = match manifest::generate(&vendor) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask lint: generating manifest: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = vendor.join(manifest::MANIFEST_FILE);
        if let Err(e) = fs::write(&path, text) {
            eprintln!("xtask lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("updated {}", path.display());
    }
    let config = Config::for_workspace(&root);
    let analysis = match analyze_workspace(&config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(target) = &opts.graph {
        let dot = analysis.graph.to_dot();
        match target {
            None => print!("{dot}"),
            Some(path) => {
                if let Err(e) = fs::write(path, dot) {
                    eprintln!("xtask lint: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote call graph to {path}");
            }
        }
    }
    if let Some(path) = &opts.sarif {
        let report = sarif::report_sarif(&analysis.findings);
        if let Err(e) = fs::write(path, report) {
            eprintln!("xtask lint: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote SARIF report to {path}");
    }
    if analysis.findings.is_empty() {
        println!(
            "xtask lint: clean — {} functions, vendored-shim manifest verified",
            analysis.graph.funcs.len(),
        );
        return ExitCode::SUCCESS;
    }
    for f in &analysis.findings {
        println!("{f}");
    }
    println!("xtask lint: {} finding(s)", analysis.findings.len());
    ExitCode::FAILURE
}

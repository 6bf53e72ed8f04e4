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
        "chaos" => chaos(&args[1..]),
        other => {
            eprintln!("unknown subcommand `{other}`; expected `lint` or `chaos`");
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

//! Workspace automation: `cargo run -p xtask -- lint`.
//!
//! Subcommands:
//!
//! * `lint` — check that the vendored shims under `vendor/` match the
//!   checked-in public-API manifest ([`lintkit`]); exits non-zero on any
//!   drift. The rest of the static policy is clippy's: run
//!   `cargo clippy --workspace --all-targets -- -D warnings`.
//! * `lint --update-manifest` — regenerate `vendor/API_MANIFEST.txt` from
//!   the current shim sources, then check.
//! * `chaos` — run the fault-injection scenario matrix in-process:
//!   `--scenario NAME --seed N` for one cell, `--all --seeds K` for the
//!   whole registry, `--out PATH` for a JSON invariant report. Exits
//!   non-zero if any scenario violates its invariants (see DESIGN.md §10).
//!
//! The manifest check also runs as a tier-1 test (`tests/lint_gate.rs`)
//! and in CI's fmt + clippy job.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use lintkit::manifest;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask; CARGO_MANIFEST_DIR is compiled in,
    // so the binary finds the root regardless of the invocation directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: cargo run -p xtask -- lint [--update-manifest]\n\
             \x20      cargo run -p xtask -- chaos (--scenario NAME | --all) \
             [--seed N] [--seeds K] [--out PATH]"
        );
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "lint" => {
            let opts = &args[1..];
            if let Some(other) = opts.iter().find(|a| *a != "--update-manifest") {
                eprintln!("xtask lint: unknown lint option `{other}`");
                return ExitCode::FAILURE;
            }
            lint(!opts.is_empty())
        }
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

fn lint(update_manifest: bool) -> ExitCode {
    let vendor = workspace_root().join("vendor");
    if update_manifest {
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
    let findings = match manifest::check(&vendor) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if findings.is_empty() {
        println!("xtask lint: clean — vendored-shim manifest verified");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("xtask lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

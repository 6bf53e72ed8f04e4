//! Tier-1 lint gate from the root package, so a plain `cargo test -q` (which
//! only runs the current package's targets) still enforces the static-analysis
//! policy:
//!
//! * lintkit's vendor-manifest check, with zero findings;
//! * the presence of the clippy policy in every crate root and in
//!   `clippy.toml`. The lints themselves (no panics, no prints, no
//!   indexing, no `for` over a hash container, no wall-clock reads, no
//!   shared mutable state, checked arithmetic) run under CI's
//!   `cargo clippy --workspace --all-targets -- -D warnings`; this gate
//!   only proves that no crate has opted out of them, and that the
//!   sanctioned exemptions stay where they are.
//!
//! What clippy cannot see is checked on the real code by two tests:
//! `engine_equivalence.rs` runs random shard-model graphs at several worker
//! counts, and `alloc_free.rs` counts the steady-state kernels'
//! allocations.

use std::fs;
use std::path::{Path, PathBuf};

/// The panic half of the policy: library crates and the CLI binary.
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The rest of the policy, library crates only: binaries own their stdout.
const LIBRARY_LINTS: [&str; 5] = [
    "clippy::print_stdout",
    "clippy::print_stderr",
    "clippy::allow_attributes_without_reason",
    "clippy::indexing_slicing",
    "clippy::iter_over_hash_type",
];

/// The library files allowed to name `clippy::disallowed_types`: the three
/// leaf locks behind `&self` APIs the benchmark harness calls, and the
/// `parking_lot` shim itself.
const LOCK_EXEMPT_FILES: [&str; 4] = [
    "crates/dns/src/server.rs",
    "crates/relay/src/masque.rs",
    "crates/simnet/src/channel.rs",
    "vendor/parking_lot/src/lib.rs",
];

/// The one crate root allowed a crate-level `#![expect]` of
/// `clippy::indexing_slicing`: lintkit, a build-time tool over token
/// vectors it builds itself.
const INDEXING_EXEMPT_ROOT: &str = "crates/lintkit/src/lib.rs";

#[test]
fn workspace_passes_lint_gate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Err(report) = lintkit::check_workspace_gate(&root) {
        panic!("workspace lint gate failed:\n{report}");
    }
}

/// The `#![cfg_attr(not(test), deny(...))]` block of the crate root at
/// `path`, after checking that the root exists and has one.
fn deny_block(path: &Path, text: &str) -> String {
    let start = text
        .find("#![cfg_attr(")
        .unwrap_or_else(|| panic!("{} has no #![cfg_attr(...)] lint block", path.display()));
    let end = text[start..]
        .find(")]\n")
        .map_or(text.len(), |len| start + len);
    let block = &text[start..end];
    assert!(
        block.contains("not(test)") && block.contains("deny("),
        "{}: the lint block must be `cfg_attr(not(test), deny(...))`:\n{block}",
        path.display()
    );
    block.to_string()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_crate_root_carries_the_clippy_policy() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut lib_roots = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.is_file() {
            lib_roots.push(lib);
        }
    }
    assert!(lib_roots.len() > 10, "found only {lib_roots:?}");
    for lib in &lib_roots {
        let text = read(lib);
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} is missing #![forbid(unsafe_code)]",
            lib.display()
        );
        let block = deny_block(lib, &text);
        for lint in PANIC_LINTS.iter().chain(&LIBRARY_LINTS) {
            assert!(
                block.contains(lint),
                "{} does not deny {lint}",
                lib.display()
            );
        }
        // Beyond the root's deny, no library file names the index lint,
        // so no module or item opts out of it; lintkit's crate-level
        // `#![expect]` is the one exemption. Binary targets (`bin/`) are
        // not library code.
        let src = lib.parent().expect("src/ dir");
        let mut files = Vec::new();
        rs_files(src, &mut files);
        files.retain(|file| !file.starts_with(src.join("bin")));
        for file in files {
            let expected = if file != *lib {
                0
            } else if lib.ends_with(INDEXING_EXEMPT_ROOT) {
                2
            } else {
                1
            };
            assert_eq!(
                read(&file).matches("clippy::indexing_slicing").count(),
                expected,
                "{}: only the crate root's deny (and lintkit's one #![expect]) may name \
                 clippy::indexing_slicing",
                file.display()
            );
        }
    }
    let cli = root.join("src/bin/tectonic.rs");
    let block = deny_block(&cli, &read(&cli));
    for lint in PANIC_LINTS {
        assert!(
            block.contains(lint),
            "{} does not deny {lint}",
            cli.display()
        );
    }
}

/// The entries of one `clippy.toml` list, from `key = [` to its closing `]`.
fn clippy_list<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has a {key} list"));
    let list = &text[start..];
    &list[..list.find("\n]").unwrap_or(list.len())]
}

/// The workspace-relative path of every `.rs` file under `dirs` that
/// contains `needle`.
fn files_naming(root: &Path, dirs: &[&str], needle: &str) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} .rs files", files.len());
    let mut naming: Vec<String> = files
        .into_iter()
        .filter(|file| read(file).contains(needle))
        .map(|file| {
            file.strip_prefix(root)
                .expect("under the root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    naming.sort();
    naming
}

#[test]
fn clippy_toml_bans_wall_clock_reads() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = read(&root.join("clippy.toml"));
    let list = clippy_list(&text, "disallowed-methods");
    for method in ["std::time::SystemTime::now", "std::time::Instant::now"] {
        assert!(
            list.contains(&format!("path = \"{method}\"")),
            "clippy.toml's disallowed-methods no longer lists {method}"
        );
    }
    // Nothing opts out of the ban: no source file, binaries and vendored
    // crates included, names the lint that enforces it.
    let naming = files_naming(
        &root,
        &["crates", "src", "examples", "vendor"],
        "clippy::disallowed_methods",
    );
    assert!(
        naming.is_empty(),
        "{naming:?} name clippy::disallowed_methods; the wall-clock ban has no exemption"
    );
}

#[test]
fn clippy_toml_bans_shared_state() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = read(&root.join("clippy.toml"));
    let types = clippy_list(&text, "disallowed-types");
    let mut banned_types = vec![
        "std::sync::Mutex".to_string(),
        "std::sync::RwLock".to_string(),
        "std::sync::OnceLock".to_string(),
        "std::sync::LazyLock".to_string(),
        "parking_lot::Mutex".to_string(),
    ];
    for width in ["8", "16", "32", "64", "size"] {
        banned_types.push(format!("std::sync::atomic::AtomicU{width}"));
        banned_types.push(format!("std::sync::atomic::AtomicI{width}"));
    }
    banned_types.push("std::sync::atomic::AtomicBool".to_string());
    banned_types.push("std::sync::atomic::AtomicPtr".to_string());
    for path in &banned_types {
        assert!(
            types.contains(&format!("path = \"{path}\"")),
            "clippy.toml's disallowed-types no longer lists {path}"
        );
    }
    assert!(
        clippy_list(&text, "disallowed-macros").contains("path = \"std::thread_local\""),
        "clippy.toml's disallowed-macros no longer lists std::thread_local"
    );
}

#[test]
fn only_the_leaf_locks_name_disallowed_types() {
    // Library code only: test targets may share per-process fixtures.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<String> = vec!["src".to_string()];
    for parent in ["crates", "vendor"] {
        let entries = fs::read_dir(root.join(parent)).expect("directory lists");
        for entry in entries {
            let src = entry.expect("directory entry").path().join("src");
            if src.is_dir() {
                dirs.push(
                    src.strip_prefix(&root)
                        .expect("under the root")
                        .to_string_lossy()
                        .into_owned(),
                );
            }
        }
    }
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    assert_eq!(
        files_naming(&root, &dirs, "clippy::disallowed_types"),
        LOCK_EXEMPT_FILES,
        "only the three leaf locks and the parking_lot shim may name clippy::disallowed_types"
    );
}

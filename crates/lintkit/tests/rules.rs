//! Vendored-shim manifest tests: drift in either direction, and a missing
//! manifest, are findings with the exact rule and message.

use std::fs;

use lintkit::{manifest, Rule};

#[test]
fn vendor_manifest_drift_is_flagged_both_ways() {
    // A miniature vendor tree: one shim with one public fn, and a manifest
    // that records a different API — drift in both directions.
    let dir = std::env::temp_dir().join(format!("lintkit-manifest-{}", std::process::id()));
    let src = dir.join("shim/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("lib.rs"), "pub fn present() {}\n").unwrap();
    fs::write(
        dir.join(manifest::MANIFEST_FILE),
        "shim/src/lib.rs: fn recorded_but_gone\n",
    )
    .unwrap();

    let findings = manifest::check(&dir).unwrap();
    fs::remove_dir_all(&dir).ok();

    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == Rule::VendorManifest));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("gained `shim/src/lib.rs: fn present`")),
        "gained-item drift reported: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("lost `shim/src/lib.rs: fn recorded_but_gone`")),
        "lost-item drift reported: {findings:?}"
    );
}

#[test]
fn missing_vendor_manifest_is_flagged() {
    let dir = std::env::temp_dir().join(format!("lintkit-nomanifest-{}", std::process::id()));
    let src = dir.join("shim/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("lib.rs"), "pub fn present() {}\n").unwrap();

    let findings = manifest::check(&dir).unwrap();
    fs::remove_dir_all(&dir).ok();

    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, Rule::VendorManifest);
    assert!(findings[0].message.contains("manifest missing"));
}

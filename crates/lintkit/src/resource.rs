//! The resource-soundness rule: **alloc-in-hot-path**.
//!
//! Allocation sites (collected per function by [`crate::symbols`]) must not
//! be reachable from a declared steady-state hot entry point
//! ([`crate::Config::hot_paths`]). "Allocates" propagates through the call
//! graph; traversal is pruned at the [`crate::Config::warm_paths`]
//! boundary, the construction/setup functions whose allocations are
//! one-time cost rather than steady state. Only workspace code is
//! analyzed: allocation inside `std` or an external trait impl is out of
//! scope.
//!
//! Integer casts and arithmetic in the kernels are clippy's job
//! (`cast_possible_truncation`, `arithmetic_side_effects`, … at the top of
//! each strict file); see DESIGN.md §13.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::graph::CallGraph;
use crate::rules::{Finding, Rule};

/// Heap-constructing type heads for path calls (`Vec::with_capacity`,
/// `Box::new`, …). Shared with the symbol collector's site classifier.
pub(crate) const HEAP_TYPES: [&str; 12] = [
    "Vec",
    "VecDeque",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "Box",
    "Arc",
    "Rc",
    "BinaryHeap",
    "PathBuf",
];

/// Methods that allocate regardless of receiver type.
pub(crate) const ALLOC_METHODS: [&str; 4] = ["to_string", "to_vec", "to_owned", "collect"];

/// **alloc-in-hot-path** — flags every allocation site reachable from a
/// `hot_paths` entry, pruning traversal at the `warm_paths` boundary.
/// Patterns that match no workspace function are findings themselves, so a
/// rename cannot silently disable the analysis.
pub(crate) fn alloc_in_hot_path(
    graph: &CallGraph,
    hot_paths: &[String],
    warm_paths: &[String],
    findings: &mut Vec<Finding>,
) {
    let mut warm: BTreeSet<usize> = BTreeSet::new();
    for pattern in warm_paths {
        let resolved = graph.resolve_entry(pattern);
        if resolved.is_empty() {
            findings.push(Finding {
                rule: Rule::AllocInHotPath,
                file: "lintkit.config".to_string(),
                line: 0,
                message: format!(
                    "warm path `{pattern}` matches no workspace function — \
                     update Config::warm_paths so the boundary stays live"
                ),
            });
        }
        warm.extend(resolved);
    }
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for pattern in hot_paths {
        let entries = graph.resolve_entry(pattern);
        if entries.is_empty() {
            findings.push(Finding {
                rule: Rule::AllocInHotPath,
                file: "lintkit.config".to_string(),
                line: 0,
                message: format!(
                    "hot path `{pattern}` matches no workspace function — \
                     update Config::hot_paths so the analysis stays live"
                ),
            });
            continue;
        }
        for entry in entries {
            let parent = bfs_pruned(graph, entry, &warm);
            let mut reached: Vec<usize> = parent.keys().copied().collect();
            reached.sort_unstable();
            for i in reached {
                let f = &graph.funcs[i];
                for site in &f.alloc_sites {
                    if seen.insert((f.file.clone(), site.line)) {
                        findings.push(Finding {
                            rule: Rule::AllocInHotPath,
                            file: f.file.clone(),
                            line: site.line,
                            message: format!(
                                "{} reachable from hot entry `{}` via {} — hoist into \
                                 setup, reuse a scratch buffer, or add a reasoned allow",
                                site.what,
                                graph.funcs[entry].path(),
                                crate::reach::path_to(graph, &parent, i),
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// [`crate::reach`]-style BFS that never enqueues a warm-boundary
/// function: a construction helper's allocations are one-time setup cost,
/// and nothing it calls counts as steady state either.
fn bfs_pruned(graph: &CallGraph, start: usize, warm: &BTreeSet<usize>) -> HashMap<usize, usize> {
    let mut parent = HashMap::new();
    parent.insert(start, start);
    let mut queue = VecDeque::from([start]);
    while let Some(i) = queue.pop_front() {
        for e in &graph.edges[i] {
            let j = e.callee;
            if warm.contains(&j) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(j) {
                slot.insert(i);
                queue.push_back(j);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use crate::graph::CallGraph;
    use crate::rules::{Finding, Rule};
    use crate::symbols::collect;

    fn run_alloc(files: &[(&str, &str, &str, &str)], hot: &[&str], warm: &[&str]) -> Vec<Finding> {
        let graph = CallGraph::build(
            files
                .iter()
                .map(|(krate, module, path, src)| collect(krate, module, path, src))
                .collect(),
        );
        let mut findings = Vec::new();
        super::alloc_in_hot_path(
            &graph,
            &hot.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &warm.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &mut findings,
        );
        findings
    }

    #[test]
    fn alloc_behind_indirection_is_reached() {
        let f = run_alloc(
            &[(
                "alpha",
                "lib",
                "crates/alpha/src/lib.rs",
                "pub fn hot() { helper(); }\n\
                 fn helper() { let v = vec![1u8]; }",
            )],
            &["alpha::lib::hot"],
            &[],
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AllocInHotPath);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("hot → helper"));
    }

    #[test]
    fn warm_boundary_prunes_traversal() {
        let f = run_alloc(
            &[(
                "alpha",
                "lib",
                "crates/alpha/src/lib.rs",
                "pub fn hot() { setup(); }\n\
                 fn setup() { let v = Vec::new(); }",
            )],
            &["alpha::lib::hot"],
            &["alpha::lib::setup"],
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unreached_alloc_is_silent() {
        let f = run_alloc(
            &[(
                "alpha",
                "lib",
                "crates/alpha/src/lib.rs",
                "pub fn hot() {}\n\
                 fn cold() { let s = String::new(); }",
            )],
            &["alpha::lib::hot"],
            &[],
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unmatched_hot_and_warm_patterns_are_config_findings() {
        let f = run_alloc(
            &[("alpha", "lib", "crates/alpha/src/lib.rs", "pub fn hot() {}")],
            &["alpha::lib::renamed"],
            &["alpha::lib::gone"],
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.file == "lintkit.config"));
        assert!(f.iter().any(|f| f.message.contains("hot path")));
        assert!(f.iter().any(|f| f.message.contains("warm path")));
    }

    #[test]
    fn alloc_allow_with_reason_suppresses_the_site() {
        let f = run_alloc(
            &[(
                "alpha",
                "lib",
                "crates/alpha/src/lib.rs",
                "pub fn hot() {\n\
                 // lintkit: allow(alloc-in-hot-path) -- one-time warmup fill\n\
                 let v = vec![1u8];\n\
                 }",
            )],
            &["alpha::lib::hot"],
            &[],
        );
        assert!(f.is_empty());
    }
}

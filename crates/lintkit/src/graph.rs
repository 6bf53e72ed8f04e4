//! The conservative workspace call graph.
//!
//! [`CallGraph::build`] links the per-file symbol tables from
//! [`crate::symbols`] into one graph. Resolution is name-based and
//! deliberately over-approximate — every plausible callee gets an edge:
//!
//! * **Path calls** (`a::b::f(..)`, `Type::new(..)`): candidates are all
//!   workspace functions named `f`, narrowed by any qualifier that matches
//!   a crate name (with or without the `tectonic_` prefix), a module (file
//!   stem) or an `impl` self-type. If narrowing empties the set, all
//!   same-name candidates stay — over-approximation beats a missed edge.
//! * **Bare calls** (`f(..)`): prefer same module, then same crate, then
//!   any workspace function named `f`.
//! * **Method calls** (`x.m(..)`): the receiver is untyped, so the call
//!   edges to every workspace method named `m` — inherent methods, trait
//!   impls and trait default bodies alike.
//! * Calls that resolve to nothing in the workspace (`std`, vendored
//!   shims, a trait method only external code implements) are leaves: the
//!   analysis boundary.
//!
//! The graph also answers "which locks does this function transitively
//! acquire" (for the lock-order rule) and renders itself as GraphViz DOT
//! (`cargo run -p xtask -- lint --graph`).

use std::collections::{BTreeSet, HashMap};

use crate::symbols::{CallSite, Event, FileSymbols, FuncDef, LockDecl};

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The callee, by index into [`CallGraph::funcs`].
    pub callee: usize,
    /// The called name as written.
    pub name: String,
    /// 1-indexed call-site line in the caller's file.
    pub line: u32,
}

/// The linked workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every analyzed function.
    pub funcs: Vec<FuncDef>,
    /// Outgoing resolved edges, indexed like `funcs`.
    pub edges: Vec<Vec<Edge>>,
    /// Every `Mutex`/`RwLock` field declaration seen.
    pub locks: Vec<LockDecl>,
    /// Known crate names (for qualifier narrowing).
    crates: BTreeSet<String>,
    /// Known module names (file stems).
    modules: BTreeSet<String>,
    /// Known `impl` self-type / trait names.
    self_types: BTreeSet<String>,
    /// Function indices by name.
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Links the per-file symbol tables into one graph.
    pub fn build(files: Vec<FileSymbols>) -> CallGraph {
        let mut g = CallGraph::default();
        for mut file in files {
            g.locks.append(&mut file.locks);
            g.funcs.append(&mut file.funcs);
        }
        for (i, f) in g.funcs.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
            g.crates.insert(f.crate_name.clone());
            g.modules.insert(f.module.clone());
            if let Some(t) = &f.self_type {
                g.self_types.insert(t.clone());
            }
        }
        g.edges = g
            .funcs
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Call(c) => Some(c),
                        Event::Acquire { .. } => None,
                    })
                    .flat_map(|c| g.resolve(f, c))
                    .collect()
            })
            .collect();
        g
    }

    /// Resolves one call site to its conservative edge set.
    fn resolve(&self, caller: &FuncDef, call: &CallSite) -> Vec<Edge> {
        let edge = |callee: usize| Edge {
            callee,
            name: call.name.clone(),
            line: call.line,
        };
        let Some(candidates) = self.by_name.get(&call.name) else {
            // No workspace function of this name: an external leaf.
            return Vec::new();
        };
        if call.is_method {
            // Only actual workspace methods qualify. A name that exists
            // only as a free function cannot be the receiver's method — the
            // call is external (iterator adapters like `.collect()` must
            // not resolve to a free `collect`).
            return candidates
                .iter()
                .copied()
                .filter(|&i| self.funcs[i].self_type.is_some())
                .map(edge)
                .collect();
        }
        // Path call: a qualified name whose innermost qualifier names
        // nothing in the workspace (`Vec::new`, `u32::from_be_bytes`) is an
        // external call — the analysis boundary. `Self` stands for the
        // caller's impl type.
        if let Some(last) = call.qualifiers.last() {
            let as_crate = last.strip_prefix("tectonic_").unwrap_or(last);
            let known = matches!(last.as_str(), "crate" | "self" | "super" | "Self")
                || self.crates.contains(as_crate)
                || self.modules.contains(last)
                || self.self_types.contains(last);
            if !known {
                return Vec::new();
            }
        }
        let mut pool: Vec<usize> = candidates.clone();
        for q in &call.qualifiers {
            if q == "Self" {
                if let Some(t) = &caller.self_type {
                    let narrowed: Vec<usize> = pool
                        .iter()
                        .copied()
                        .filter(|&i| self.funcs[i].self_type.as_deref() == Some(t.as_str()))
                        .collect();
                    if !narrowed.is_empty() {
                        pool = narrowed;
                    }
                }
                continue;
            }
            if q == "crate" || q == "self" || q == "super" {
                let crate_name = caller.crate_name.clone();
                let narrowed: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&i| self.funcs[i].crate_name == crate_name)
                    .collect();
                if !narrowed.is_empty() {
                    pool = narrowed;
                }
                continue;
            }
            let as_crate = q.strip_prefix("tectonic_").unwrap_or(q);
            let narrowed: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.funcs[i];
                    f.crate_name == as_crate
                        || f.module == *q
                        || f.self_type.as_deref() == Some(q.as_str())
                })
                .collect();
            if !narrowed.is_empty() {
                pool = narrowed;
            }
        }
        if call.qualifiers.is_empty() {
            // Bare call: prefer same module, then same crate.
            let same_module: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.funcs[i];
                    f.crate_name == caller.crate_name
                        && f.module == caller.module
                        && f.self_type.is_none()
                })
                .collect();
            if !same_module.is_empty() {
                pool = same_module;
            } else {
                let same_crate: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&i| self.funcs[i].crate_name == caller.crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    pool = same_crate;
                }
            }
        }
        pool.into_iter().map(edge).collect()
    }

    /// Resolves an entry-point pattern (`crate::module::name`, where `name`
    /// may be `*`) to function indices. An empty result means the pattern
    /// no longer matches anything — the alloc-in-hot-path rule reports that
    /// as a finding so a rename cannot silently disable it.
    pub fn resolve_entry(&self, pattern: &str) -> Vec<usize> {
        let parts: Vec<&str> = pattern.split("::").collect();
        let [crate_name, module, name] = parts.as_slice() else {
            return Vec::new();
        };
        self.funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.crate_name == *crate_name
                    && f.module == *module
                    && (*name == "*" || f.name == *name)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the graph as GraphViz DOT.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph lintkit_callgraph {\n  rankdir=LR;\n  node [fontsize=10];\n");
        for (i, f) in self.funcs.iter().enumerate() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", i, f.path()));
        }
        for (i, edges) in self.edges.iter().enumerate() {
            // One DOT edge per distinct target, not per call site.
            let mut seen = BTreeSet::new();
            for e in edges {
                if seen.insert(e.callee) {
                    out.push_str(&format!("  n{i} -> n{};\n", e.callee));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::collect;

    fn graph(files: &[(&str, &str, &str, &str)]) -> CallGraph {
        CallGraph::build(
            files
                .iter()
                .map(|(krate, module, path, src)| collect(krate, module, path, src))
                .collect(),
        )
    }

    fn edges_of(g: &CallGraph, path: &str) -> Vec<String> {
        let (i, _) = g
            .funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.path() == path)
            .expect("function in graph");
        g.edges[i]
            .iter()
            .map(|e| g.funcs[e.callee].path())
            .collect()
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let g = graph(&[
            (
                "alpha",
                "lib",
                "crates/alpha/src/lib.rs",
                "pub fn entry() { beta::helper(); }",
            ),
            (
                "beta",
                "lib",
                "crates/beta/src/lib.rs",
                "pub fn helper() {}",
            ),
        ]);
        assert_eq!(edges_of(&g, "alpha::lib::entry"), vec!["beta::lib::helper"]);
    }

    #[test]
    fn bare_call_prefers_same_module() {
        let g = graph(&[
            (
                "alpha",
                "a",
                "crates/alpha/src/a.rs",
                "pub fn entry() { helper(); }\nfn helper() {}",
            ),
            ("beta", "b", "crates/beta/src/b.rs", "pub fn helper() {}"),
        ]);
        assert_eq!(edges_of(&g, "alpha::a::entry"), vec!["alpha::a::helper"]);
    }

    #[test]
    fn trait_method_call_edges_to_the_impl() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "trait Server { fn handle(&self); }\n\
             struct S;\n\
             impl Server for S { fn handle(&self) {} }\n\
             pub fn entry(s: &dyn Server) { s.handle(); }",
        )]);
        assert_eq!(
            edges_of(&g, "alpha::lib::entry"),
            vec!["alpha::lib::handle"]
        );
    }

    #[test]
    fn inherent_method_call_resolves_to_the_method() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "struct S;\n\
             impl S { fn go(&self) {} }\n\
             pub fn entry(s: &S) { s.go(); }",
        )]);
        assert_eq!(edges_of(&g, "alpha::lib::entry"), vec!["alpha::lib::go"]);
    }

    #[test]
    fn external_calls_are_leaves() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "pub fn entry() { std::mem::drop(1); format(); }",
        )]);
        assert!(edges_of(&g, "alpha::lib::entry").is_empty());
    }

    #[test]
    fn type_qualified_call_narrows_to_impl() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn new() -> A { A } }\n\
             impl B { fn new() -> B { B } }\n\
             pub fn entry() { A::new(); }",
        )]);
        let edges = edges_of(&g, "alpha::lib::entry");
        assert_eq!(edges.len(), 1);
        let target = g
            .funcs
            .iter()
            .find(|f| f.self_type.as_deref() == Some("A"))
            .map(|f| f.path());
        assert_eq!(edges[0], target.expect("A::new in graph"));
    }

    #[test]
    fn entry_patterns_resolve_with_wildcard() {
        let g = graph(&[(
            "quic",
            "probe",
            "crates/quic/src/probe.rs",
            "pub fn a() {}\npub fn b() {}",
        )]);
        assert_eq!(g.resolve_entry("quic::probe::a").len(), 1);
        assert_eq!(g.resolve_entry("quic::probe::*").len(), 2);
        assert!(g.resolve_entry("quic::probe::gone").is_empty());
    }

    #[test]
    fn dot_output_has_nodes_and_edges() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "pub fn entry() { helper(); }\nfn helper() {}",
        )]);
        let dot = g.to_dot();
        assert!(dot.contains("digraph lintkit_callgraph"));
        assert!(dot.contains("n0 [label=\"alpha::lib::entry\"]"));
        assert!(dot.contains("n0 -> n1;"));
    }
}

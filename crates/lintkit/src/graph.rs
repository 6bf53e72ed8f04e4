//! The conservative workspace call graph.
//!
//! [`CallGraph::build`] links the per-file symbol tables from
//! [`crate::symbols`] into one graph. Resolution is name-based and
//! deliberately over-approximate — every plausible callee gets an edge —
//! with one designed escape hatch for dynamic dispatch:
//!
//! * **Path calls** (`a::b::f(..)`, `Type::new(..)`): candidates are all
//!   workspace functions named `f`, narrowed by any qualifier that matches
//!   a crate name (with or without the `tectonic_` prefix), a module (file
//!   stem) or an `impl` self-type. If narrowing empties the set, all
//!   same-name candidates stay — over-approximation beats a missed edge.
//! * **Bare calls** (`f(..)`): prefer same module, then same crate, then
//!   any workspace function named `f`.
//! * **Method calls** (`x.m(..)`): if `m` is declared by any workspace
//!   `trait`, the receiver may be a `dyn`/`impl` object the analysis cannot
//!   type, so the call edges to *every* workspace implementation of `m`
//!   **plus the ⊥ node** — the "unknown callee" that propagates *may
//!   panic*. Otherwise the call edges to every inherent method named `m`.
//! * Calls that resolve to nothing in the workspace (`std`, vendored
//!   shims) are non-panicking leaves. This is the analysis boundary: `std`
//!   panics (`Vec::push` on OOM, arithmetic in debug) are out of scope,
//!   matching clippy's panic lints, which flag call sites only.
//!
//! The graph also answers "which locks does this function transitively
//! acquire" (for the lock-order rule) and renders itself as GraphViz DOT
//! (`cargo run -p xtask -- lint --graph`).

use std::collections::{BTreeSet, HashMap};

use crate::symbols::{CallSite, Event, FileSymbols, FuncDef, LockDecl};

/// The callee of one resolved call-site edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// A workspace function, by index into [`CallGraph::funcs`].
    Func(usize),
    /// The ⊥ node: a dynamically-dispatched callee the analysis cannot
    /// resolve. Conservatively assumed to panic.
    Bottom,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Where the edge lands.
    pub callee: Callee,
    /// The called name as written (for ⊥ diagnostics).
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
    /// Method names declared in workspace `trait` blocks.
    pub trait_methods: BTreeSet<String>,
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
            g.trait_methods.extend(file.trait_methods.drain(..));
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
        let edge = |callee: Callee| Edge {
            callee,
            name: call.name.clone(),
            line: call.line,
        };
        let Some(candidates) = self.by_name.get(&call.name) else {
            // No workspace function of this name: for a statically-named
            // call that is the analysis boundary (external leaf), but a
            // trait-*declared* method may still dispatch to code the
            // workspace never wrote (an external impl): keep ⊥.
            return if call.is_method && self.trait_methods.contains(&call.name) {
                vec![edge(Callee::Bottom)]
            } else {
                Vec::new()
            };
        };
        if call.is_method {
            if self.trait_methods.contains(&call.name) {
                // Dynamic dispatch: every impl (and trait default body),
                // plus ⊥ for the impl the workspace cannot see.
                let mut out: Vec<Edge> = candidates
                    .iter()
                    .filter(|&&i| self.funcs[i].self_type.is_some())
                    .map(|&i| edge(Callee::Func(i)))
                    .collect();
                out.push(edge(Callee::Bottom));
                return out;
            }
            // Inherent method: only actual workspace methods qualify. A
            // name that exists only as a free function cannot be the
            // receiver's method — the call is external (iterator adapters
            // like `.collect()` must not resolve to a free `collect`).
            return candidates
                .iter()
                .copied()
                .filter(|&i| self.funcs[i].self_type.is_some())
                .map(|i| edge(Callee::Func(i)))
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
        pool.into_iter().map(|i| edge(Callee::Func(i))).collect()
    }

    /// Resolves an entry-point pattern (`crate::module::name`, where `name`
    /// may be `*`) to function indices. An empty result means the pattern
    /// no longer matches anything — the caller reports that as a finding so
    /// a rename cannot silently disable the analysis.
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

    /// Renders the graph as GraphViz DOT. Entry functions are boxed, ⊥ is a
    /// double circle, and functions with intrinsic panic sites are shaded.
    pub fn to_dot(&self, entries: &[usize]) -> String {
        let mut out =
            String::from("digraph lintkit_callgraph {\n  rankdir=LR;\n  node [fontsize=10];\n");
        out.push_str("  bottom [label=\"⊥\", shape=doublecircle];\n");
        for (i, f) in self.funcs.iter().enumerate() {
            let mut attrs = vec![format!("label=\"{}\"", f.path())];
            if entries.contains(&i) {
                attrs.push("shape=box".to_string());
            }
            if !f.panic_sites.is_empty() {
                attrs.push("style=filled".to_string());
                attrs.push("fillcolor=lightpink".to_string());
            }
            out.push_str(&format!("  n{} [{}];\n", i, attrs.join(", ")));
        }
        for (i, edges) in self.edges.iter().enumerate() {
            // One DOT edge per distinct target, not per call site.
            let mut seen = BTreeSet::new();
            for e in edges {
                let target = match e.callee {
                    Callee::Func(j) => format!("n{j}"),
                    Callee::Bottom => "bottom".to_string(),
                };
                if seen.insert(target.clone()) {
                    out.push_str(&format!("  n{i} -> {target};\n"));
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
            .map(|e| match e.callee {
                Callee::Func(j) => g.funcs[j].path(),
                Callee::Bottom => format!("⊥({})", e.name),
            })
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
    fn trait_method_call_gets_bottom_edge() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "trait Server { fn handle(&self); }\n\
             struct S;\n\
             impl Server for S { fn handle(&self) {} }\n\
             pub fn entry(s: &dyn Server) { s.handle(); }",
        )]);
        let edges = edges_of(&g, "alpha::lib::entry");
        assert!(edges.contains(&"alpha::lib::handle".to_string()));
        assert!(edges.contains(&"⊥(handle)".to_string()));
    }

    #[test]
    fn inherent_method_call_has_no_bottom() {
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
    fn dot_output_has_nodes_and_bottom() {
        let g = graph(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "trait T { fn m(&self); }\npub fn entry(t: &dyn T) { t.m(); }",
        )]);
        let entries = g.resolve_entry("alpha::lib::entry");
        let dot = g.to_dot(&entries);
        assert!(dot.contains("digraph lintkit_callgraph"));
        assert!(dot.contains("alpha::lib::entry"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("-> bottom"));
    }
}

//! The `map-iter-order` dataflow: unordered iteration must not reach a
//! function's output.
//!
//! `std::collections::HashMap`/`HashSet` iterate in a per-instance random
//! order (SipHash keys are seeded per map), so any artifact byte that
//! depends on that order breaks the repo's headline guarantee — serial ≡
//! engine(workers=N), byte for byte, run after run. The rule is a
//! *dataflow-lite* taint analysis over the statement IR that
//! [`crate::symbols`] retains per function ([`OrderStmt`]):
//!
//! * **Sources** — iterating a place typed `HashMap`/`HashSet` (a local
//!   bound from `HashMap::new()`/a `collect` into a hash container, a
//!   parameter, a `self.<field>` declared in the same file, or a callee
//!   returning one), via `for … in m`, `.iter()`, `.iter_mut()`,
//!   `.into_iter()`, `.keys()`, `.values()`, `.values_mut()`,
//!   `.into_keys()`, `.into_values()` or `.drain()`; plus calls to any
//!   function whose own analysis says it returns unordered iteration
//!   results (the interprocedural half).
//! * **Boundaries** — collecting into a `BTreeMap`/`BTreeSet` (sorted by
//!   key) or back into a `HashMap`/`HashSet` (the new container absorbs
//!   the order and becomes a source itself), `.sort*()` on a collected
//!   `Vec`, commutative reductions (`count`, `sum`, `product`, `min`,
//!   `max`, `min_by*`, `max_by*`, `any`, `all`, `contains*`), and
//!   compound assignments (`+=` accumulation). Caveats are documented in
//!   DESIGN.md §12: float `sum` and `min_by_key` ties are treated as
//!   order-free, which is only true up to rounding/tie-breaks.
//! * **Escapes** — a tainted value reaching `return`, the tail
//!   expression, a write through a `&mut` parameter, or a `self.<field>`
//!   assignment/push. An escaping function is marked *returns-unordered*
//!   and taints every caller that lets the result reach its own output,
//!   to a fixpoint over the call graph.
//!
//! Findings anchor at the **seed** (the iteration or the tainted call),
//! the line a fix or a reasoned `// lintkit: allow(map-iter-order)`
//! belongs on. The rule checks known sources: code outside the workspace
//! (an external trait impl) propagates no order-taint.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::CallGraph;
use crate::rules::{Finding, Rule};
use crate::symbols::{FuncDef, Site};

/// Iterator-producing methods on hash containers.
const ITER_OPS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-free reductions: the result does not depend on visit order.
const COMMUTATIVE_OPS: [&str; 12] = [
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "any",
    "all",
    "contains",
];

/// Methods that append into their receiver, preserving argument order.
const PUSH_OPS: [&str; 6] = [
    "push",
    "push_back",
    "push_front",
    "extend",
    "append",
    "insert",
];

/// What one intra-function analysis pass concluded.
#[derive(Debug, Default)]
struct FnOrder {
    /// The function's return value carries unordered iteration order.
    ret_tainted: bool,
    /// Escape witnesses: the seed site plus the escaping line.
    escapes: Vec<(Site, u32)>,
}

/// Runs the rule over the linked graph: intra-function passes iterated to
/// an interprocedural fixpoint on the returns-unordered summary bit.
pub fn map_iter_order(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let n = graph.funcs.len();
    let mut ret_tainted = vec![false; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if ret_tainted[i] {
                continue;
            }
            if analyze(graph, i, &ret_tainted).ret_tainted {
                ret_tainted[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for i in 0..n {
        let f = &graph.funcs[i];
        for (seed, escape_line) in analyze(graph, i, &ret_tainted).escapes {
            if seen.insert((f.file.clone(), seed.line)) {
                findings.push(Finding {
                    rule: Rule::MapIterOrder,
                    file: f.file.clone(),
                    line: seed.line,
                    message: format!(
                        "{} escapes `{}` at line {} without a sorting boundary — \
                         collect into a BTree container or sort before emitting",
                        seed.what,
                        f.path(),
                        escape_line,
                    ),
                });
            }
        }
    }
}

/// Replays the statement IR of `graph.funcs[i]` under the current callee
/// summaries.
fn analyze(graph: &CallGraph, i: usize, ret_tainted: &[bool]) -> FnOrder {
    let f = &graph.funcs[i];
    let mut out = FnOrder::default();
    // Places currently typed as unordered hash containers.
    let mut containers: BTreeSet<String> = f.unordered_params.iter().cloned().collect();
    for field in &f.map_fields {
        containers.insert(format!("self.{field}"));
    }
    // Tainted places, with the seed that tainted them.
    let mut tainted: BTreeMap<String, Site> = BTreeMap::new();
    for stmt in &f.order_stmts {
        if stmt.compound_assign {
            // `acc += …` — commutative accumulation is a boundary.
            continue;
        }
        let allowed = |line: u32| f.order_allows.contains(&line);
        // Callee summaries for this statement's resolved calls.
        let mut call_container = false;
        let mut call_taint: Option<Site> = None;
        for (name, line) in &stmt.calls {
            for e in &graph.edges[i] {
                if e.line != *line || &e.name != name {
                    continue;
                }
                let j = e.callee;
                if graph.funcs[j].ret_unordered_container {
                    call_container = true;
                }
                if ret_tainted[j] && !allowed(*line) && call_taint.is_none() {
                    call_taint = Some(Site {
                        line: *line,
                        what: format!(
                            "unordered iteration order returned by `{}`",
                            graph.funcs[j].path()
                        ),
                    });
                }
            }
        }
        let mut stmt_taint: Option<Site> = call_taint;
        // Tainted reads propagate into the statement's value.
        for r in &stmt.reads {
            if let Some(site) = tainted.get(r) {
                stmt_taint.get_or_insert_with(|| site.clone());
            }
        }
        // A `for` header *iterates* what it reads.
        if !stmt.for_vars.is_empty() && !allowed(stmt.line) {
            for r in &stmt.reads {
                if containers.contains(r) {
                    stmt_taint.get_or_insert_with(|| Site {
                        line: stmt.line,
                        what: format!("iteration over unordered `{r}`"),
                    });
                }
            }
        }
        // Walk the method chains.
        let mut chain_taint: Option<Site> = None;
        let mut chain_container = false;
        let mut chain_active = false;
        let mut collect_unordered = false;
        let mut push_targets: Vec<(String, u32)> = Vec::new();
        for m in &stmt.methods {
            if let Some(recv) = &m.recv {
                // A named root starts a fresh chain; a previous chain that
                // ended tainted taints the whole statement.
                if let Some(site) = chain_taint.take() {
                    stmt_taint.get_or_insert(site);
                }
                chain_container = containers.contains(recv);
                chain_taint = tainted.get(recv).cloned();
                chain_active = true;
            } else if !chain_active {
                // Chain from a call/index result.
                chain_container = call_container;
                chain_taint = None;
                chain_active = true;
            }
            let name = m.name.as_str();
            if ITER_OPS.contains(&name) {
                if chain_container && chain_taint.is_none() && !allowed(m.line) {
                    let over = m.recv.as_deref().unwrap_or("hash container");
                    chain_taint = Some(Site {
                        line: m.line,
                        what: format!("iteration over unordered `{over}`"),
                    });
                }
                chain_container = false;
            } else if name.starts_with("sort") {
                chain_taint = None;
                if let Some(recv) = &m.recv {
                    tainted.remove(recv);
                }
            } else if COMMUTATIVE_OPS.contains(&name) || name == "contains_key" || name == "len" {
                chain_taint = None;
                chain_container = false;
            } else if name == "collect" {
                let ordered = m
                    .turbofish
                    .iter()
                    .any(|t| t == "BTreeMap" || t == "BTreeSet");
                let unordered = m.turbofish.iter().any(|t| t == "HashMap" || t == "HashSet");
                if ordered || unordered {
                    chain_taint = None;
                }
                if unordered {
                    chain_container = true;
                    collect_unordered = true;
                }
            } else if PUSH_OPS.contains(&name) {
                if let Some(recv) = &m.recv {
                    push_targets.push((recv.clone(), m.line));
                }
                chain_taint = None;
            } else if matches!(name, "clone" | "to_owned" | "cloned" | "copied") {
                // Type-preserving: keep both container and taint state.
            } else {
                // A workspace callee's summary can re-seed the chain.
                let mut callee_container = false;
                for e in &graph.edges[i] {
                    if e.line != m.line || e.name != m.name {
                        continue;
                    }
                    let j = e.callee;
                    if graph.funcs[j].ret_unordered_container {
                        callee_container = true;
                    }
                    if ret_tainted[j] && chain_taint.is_none() && !allowed(m.line) {
                        chain_taint = Some(Site {
                            line: m.line,
                            what: format!(
                                "unordered iteration order returned by `{}`",
                                graph.funcs[j].path()
                            ),
                        });
                    }
                }
                chain_container = callee_container;
            }
        }
        if let Some(site) = chain_taint {
            stmt_taint.get_or_insert(site);
        }
        // Pure alias/move (`let n = m;`) keeps the container typing.
        let alias_container = stmt.methods.is_empty()
            && stmt.calls.is_empty()
            && stmt.reads.iter().any(|r| containers.contains(r));
        // Apply pushes: appending tainted data into an output place escapes;
        // into a local makes the local tainted; into a hash container the
        // order is absorbed.
        for (target, line) in push_targets {
            if containers.contains(&target) {
                continue;
            }
            let Some(site) = stmt_taint.clone() else {
                continue;
            };
            if allowed(line) {
                continue;
            }
            if is_output_place(f, &target) {
                out.escapes.push((site, line));
            } else {
                let root = target.split('.').next().unwrap_or(&target).to_string();
                tainted.entry(root).or_insert(site);
            }
        }
        // Returns and the tail expression.
        if (stmt.is_return || stmt.is_tail) && !allowed(stmt.line) {
            if let Some(site) = &stmt_taint {
                out.escapes.push((site.clone(), stmt.line));
                out.ret_tainted = true;
            }
        }
        // Loop variables inherit the header's taint.
        for v in &stmt.for_vars {
            if let Some(site) = &stmt_taint {
                tainted.insert(v.clone(), site.clone());
            } else {
                tainted.remove(v);
            }
        }
        // Assignment destinations.
        let dest_unordered = collect_unordered
            || call_container
            || alias_container
            || chain_container
            || stmt
                .dest_type
                .iter()
                .chain(stmt.quals.iter())
                .any(|t| t == "HashMap" || t == "HashSet");
        let dest_ordered = stmt
            .dest_type
            .iter()
            .chain(stmt.quals.iter())
            .any(|t| t == "BTreeMap" || t == "BTreeSet");
        for d in &stmt.dests {
            if d.contains('.') || is_output_place(f, d) {
                // Write into a field or through a `&mut` parameter.
                if dest_unordered || dest_ordered {
                    continue;
                }
                if let Some(site) = stmt_taint.clone() {
                    if is_output_place(f, d) && !allowed(stmt.line) {
                        out.escapes.push((site, stmt.line));
                    } else {
                        let root = d.split('.').next().unwrap_or(d).to_string();
                        tainted.entry(root).or_insert(site);
                    }
                }
                continue;
            }
            if dest_unordered {
                containers.insert(d.clone());
                tainted.remove(d);
            } else if dest_ordered {
                tainted.remove(d);
                containers.remove(d);
            } else if let Some(site) = stmt_taint.clone() {
                tainted.insert(d.clone(), site);
                containers.remove(d);
            } else if stmt.is_let {
                tainted.remove(d);
                containers.remove(d);
            }
        }
    }
    out
}

/// Whether writing into `place` escapes the function: `self` fields and
/// `&mut` parameters belong to the caller.
fn is_output_place(f: &FuncDef, place: &str) -> bool {
    if place.starts_with("self.") {
        return true;
    }
    let root = place.split('.').next().unwrap_or(place);
    f.ref_mut_params.iter().any(|p| p == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::collect;

    fn run(src: &str) -> Vec<Finding> {
        let graph = CallGraph::build(vec![collect(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            src,
        )]);
        let mut findings = Vec::new();
        map_iter_order(&graph, &mut findings);
        findings
    }

    #[test]
    fn direct_keys_escape_is_flagged() {
        let f = run("use std::collections::HashMap;\n\
             pub fn names(m: &HashMap<u32, String>) -> Vec<u32> {\n\
             m.keys().copied().collect::<Vec<u32>>()\n\
             }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::MapIterOrder);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("iteration over unordered `m`"));
    }

    #[test]
    fn sorted_collection_is_clean() {
        let f = run("pub fn names(m: &HashMap<u32, String>) -> Vec<u32> {\n\
             let mut v: Vec<u32> = m.keys().copied().collect();\n\
             v.sort_unstable();\n\
             v\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn btree_collect_is_a_boundary() {
        let f = run("pub fn names(m: &HashMap<u32, String>) -> Vec<u32> {\n\
             m.keys().copied().collect::<BTreeSet<u32>>().into_iter().collect::<Vec<u32>>()\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_loop_push_escape_is_flagged() {
        let f = run("pub fn pairs(m: &HashMap<u32, u32>) -> Vec<(u32, u32)> {\n\
             let mut out = Vec::new();\n\
             for (k, v) in m {\n\
             out.push((k, v));\n\
             }\n\
             out\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn for_loop_then_sort_is_clean() {
        let f = run("pub fn pairs(m: &HashMap<u32, u32>) -> Vec<(u32, u32)> {\n\
             let mut out = Vec::new();\n\
             for (k, v) in m {\n\
             out.push((k, v));\n\
             }\n\
             out.sort_unstable();\n\
             out\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn commutative_reduction_is_clean() {
        let f = run("pub fn total(m: &HashMap<u32, u64>) -> u64 {\n\
             m.values().copied().sum::<u64>()\n\
             }\n\
             pub fn biggest(m: &HashMap<u32, u64>) -> Option<u64> {\n\
             m.values().copied().max()\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_propagates_through_callee() {
        let f = run("fn inner(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             m.keys().copied().collect::<Vec<u32>>()\n\
             }\n\
             pub fn outer(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             inner(m)\n\
             }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 5);
        assert!(f[1].message.contains("alpha::lib::inner"));
    }

    #[test]
    fn caller_sorting_callee_result_is_clean() {
        let f = run("fn inner(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             m.keys().copied().collect::<Vec<u32>>() // lintkit: allow(map-iter-order) -- fixture\n\
             }\n\
             pub fn outer(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             let mut v = inner(m);\n\
             v.sort_unstable();\n\
             v\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_with_reason_suppresses_seed() {
        let f = run("pub fn names(m: &HashMap<u32, String>) -> Vec<u32> {\n\
             // lintkit: allow(map-iter-order) -- consumer sorts downstream\n\
             m.keys().copied().collect::<Vec<u32>>()\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn locally_built_map_is_tracked() {
        let f = run("pub fn build() -> Vec<u32> {\n\
             let mut m = HashMap::new();\n\
             m.insert(1u32, 2u32);\n\
             m.keys().copied().collect::<Vec<u32>>()\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn map_returned_by_callee_is_tracked() {
        let f = run("fn make() -> HashMap<u32, u32> { HashMap::new() }\n\
             pub fn use_it() -> Vec<u32> {\n\
             let m = make();\n\
             m.keys().copied().collect::<Vec<u32>>()\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn self_field_iteration_is_tracked() {
        let f = run("struct S { table: HashMap<u32, u32> }\n\
             impl S {\n\
             pub fn dump(&self) -> Vec<u32> {\n\
             self.table.keys().copied().collect::<Vec<u32>>()\n\
             }\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn write_through_mut_param_escapes() {
        let f = run("pub fn emit(m: &HashMap<u32, u32>, out: &mut Vec<u32>) {\n\
             for k in m.keys() {\n\
             out.push(*k);\n\
             }\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn rekeying_into_hash_container_absorbs_order() {
        let f = run(
            "pub fn invert(m: &HashMap<u32, u32>) -> HashMap<u32, u32> {\n\
             m.iter().map(|(k, v)| (*v, *k)).collect::<HashMap<u32, u32>>()\n\
             }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn counting_loop_is_clean() {
        let f = run("pub fn total(m: &HashMap<u32, u64>) -> u64 {\n\
             let mut acc = 0u64;\n\
             for v in m.values() {\n\
             acc += v;\n\
             }\n\
             acc\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }
}

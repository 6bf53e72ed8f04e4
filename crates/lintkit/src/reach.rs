//! The call-graph rules, run over [`crate::graph::CallGraph`]:
//!
//! * **lock-order** — the derived lock-acquisition-order graph must be
//!   acyclic. An order edge `A → B` exists when `B` is acquired (directly
//!   or via a callee) while `A` is held; guards are conservatively assumed
//!   held until the end of the acquiring function.
//! * **rng-fork-order** and **shard-state-escape** — the engine's
//!   order-free RNG and shard-isolation contracts (see each function).
//!
//! Findings deduplicate by `(rule, file, line)`, keeping the first
//! (shortest-path) witness, and come back in deterministic order.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::graph::CallGraph;
use crate::rules::{Finding, Rule};
use crate::symbols::Event;

/// Runs the five call-graph rules: lock-order, map-iter-order
/// ([`crate::order`]), rng-fork-order, shard-state-escape and
/// alloc-in-hot-path ([`crate::resource`], which shares this module's BFS
/// shape).
pub fn check_graph(graph: &CallGraph, hot_paths: &[String], warm_paths: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    lock_order(graph, &mut findings);
    crate::order::map_iter_order(graph, &mut findings);
    rng_fork_order(graph, &mut findings);
    shard_state_escape(graph, &mut findings);
    crate::resource::alloc_in_hot_path(graph, hot_paths, warm_paths, &mut findings);
    findings
}

/// **rng-fork-order** — within code reachable from the sharded engine
/// (`engine::sched::*` plus every `ShardModel` impl), the order-dependent
/// `SimRng::fork` is forbidden: the stream it yields depends on *when* the
/// fork happens relative to its siblings, which worker interleaving must
/// not influence. `fork_indexed(label, stable_id)` derives an order-free
/// stream family instead. The entry set is structural (trait-impl
/// detection by name), so a workspace without an engine crate simply has
/// fewer entries.
fn rng_fork_order(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut entries: Vec<usize> = graph.resolve_entry("engine::sched::*");
    for (i, f) in graph.funcs.iter().enumerate() {
        if f.impl_trait.as_deref() == Some("ShardModel") {
            entries.push(i);
        }
    }
    entries.sort_unstable();
    entries.dedup();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for entry in entries {
        let parent = bfs(graph, entry);
        let mut reached: Vec<usize> = parent.keys().copied().collect();
        reached.sort_unstable();
        for i in reached {
            let f = &graph.funcs[i];
            for site in &f.fork_sites {
                if seen.insert((f.file.clone(), site.line)) {
                    findings.push(Finding {
                        rule: Rule::RngForkOrder,
                        file: f.file.clone(),
                        line: site.line,
                        message: format!(
                            "order-dependent SimRng::fork reachable from engine entry `{}` \
                             via {} — use fork_indexed keyed by a stable id",
                            graph.funcs[entry].path(),
                            path_to(graph, &parent, i),
                        ),
                    });
                }
            }
        }
    }
}

/// **shard-state-escape** — functions defined directly inside a
/// `ShardModel` impl block must not touch shared mutable aliases
/// (`Mutex`/`RwLock`, `OnceLock`/`OnceCell`/`LazyLock`, atomics,
/// `thread_local!`, `static mut`, `.lock()`): a shard observing state
/// another shard wrote breaks worker-count unobservability. Cross-shard
/// effects go through `ShardCtx` sends only. The check is deliberately
/// direct (not transitive): helpers shared with serial code may lock, but
/// the shard entry surface itself must stay alias-free.
fn shard_state_escape(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for f in &graph.funcs {
        if f.impl_trait.as_deref() != Some("ShardModel") {
            continue;
        }
        for site in &f.shared_sites {
            if seen.insert((f.file.clone(), site.line)) {
                findings.push(Finding {
                    rule: Rule::ShardStateEscape,
                    file: f.file.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` touches shared mutable state (`{}`) inside a ShardModel \
                         impl — route cross-shard effects through ShardCtx sends",
                        f.path(),
                        site.what,
                    ),
                });
            }
        }
    }
}

/// Breadth-first reachability from `start`, returning for every reached
/// function the index of the function it was first reached from (`start`
/// maps to itself).
fn bfs(graph: &CallGraph, start: usize) -> HashMap<usize, usize> {
    let mut parent = HashMap::new();
    parent.insert(start, start);
    let mut queue = VecDeque::from([start]);
    while let Some(i) = queue.pop_front() {
        for e in &graph.edges[i] {
            let j = e.callee;
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(j) {
                slot.insert(i);
                queue.push_back(j);
            }
        }
    }
    parent
}

/// The call path `entry → … → target`, rendered with function names.
pub(crate) fn path_to(graph: &CallGraph, parent: &HashMap<usize, usize>, target: usize) -> String {
    let mut chain = vec![target];
    let mut cur = target;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&i| graph.funcs[i].name.as_str())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// One edge of the derived lock-order graph: `B` acquired while `A` held.
#[derive(Debug, Clone)]
struct OrderSite {
    file: String,
    line: u32,
}

fn lock_order(graph: &CallGraph, findings: &mut Vec<Finding>) {
    // Transitive lock sets: which locks can each function acquire, itself
    // or through its callees (an external impl cannot reach
    // workspace-private lock fields).
    let n = graph.funcs.len();
    let mut trans: Vec<BTreeSet<String>> = graph
        .funcs
        .iter()
        .map(|f| {
            f.events
                .iter()
                .filter_map(|e| match e {
                    Event::Acquire { lock, .. } => Some(lock.clone()),
                    Event::Call(_) => None,
                })
                .collect()
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for e in &graph.edges[i] {
                let j = e.callee;
                if j == i {
                    continue;
                }
                let add: Vec<String> = trans[j].difference(&trans[i]).cloned().collect();
                if !add.is_empty() {
                    trans[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Order edges, first witness site wins (BTreeMap for determinism).
    let mut order: BTreeMap<(String, String), OrderSite> = BTreeMap::new();
    for (i, f) in graph.funcs.iter().enumerate() {
        let mut held: Vec<String> = Vec::new();
        // Pair body events with resolved call edges by matching lines: the
        // events list interleaves acquisitions and calls in source order.
        for ev in &f.events {
            match ev {
                Event::Acquire { lock, line } => {
                    for a in &held {
                        if a != lock {
                            order.entry((a.clone(), lock.clone())).or_insert(OrderSite {
                                file: f.file.clone(),
                                line: *line,
                            });
                        }
                    }
                    if !held.contains(lock) {
                        held.push(lock.clone());
                    }
                }
                Event::Call(call) => {
                    if held.is_empty() {
                        continue;
                    }
                    for e in graph.edges[i]
                        .iter()
                        .filter(|e| e.line == call.line && e.name == call.name)
                    {
                        let j = e.callee;
                        for b in &trans[j] {
                            for a in &held {
                                if a != b {
                                    order.entry((a.clone(), b.clone())).or_insert(OrderSite {
                                        file: f.file.clone(),
                                        line: call.line,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the order graph.
    let nodes: BTreeSet<String> = order
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let succ: BTreeMap<&String, Vec<&String>> = nodes
        .iter()
        .map(|a| {
            (
                a,
                order
                    .keys()
                    .filter(|(x, _)| x == a)
                    .map(|(_, b)| b)
                    .collect(),
            )
        })
        .collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        // DFS from each node, looking for a path back to `start`.
        let mut stack = vec![(start, vec![start.clone()])];
        let mut visited: BTreeSet<&String> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for &next in succ.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if next == start {
                    let mut cycle = path.clone();
                    // Normalize: rotate so the smallest lock leads, so each
                    // cycle is reported exactly once.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if reported.insert(cycle.clone()) {
                        report_cycle(&cycle, &order, findings);
                    }
                } else if !path.contains(next) && visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next, p));
                }
            }
        }
    }
}

/// Emits one finding for a normalized lock cycle, anchored at the
/// acquisition site of the first edge (smallest lock name first).
fn report_cycle(
    cycle: &[String],
    order: &BTreeMap<(String, String), OrderSite>,
    findings: &mut Vec<Finding>,
) {
    let mut legs = Vec::new();
    let mut anchor: Option<&OrderSite> = None;
    for (k, a) in cycle.iter().enumerate() {
        let b = &cycle[(k + 1) % cycle.len()];
        if let Some(site) = order.get(&(a.clone(), b.clone())) {
            if anchor.is_none() {
                anchor = Some(site);
            }
            legs.push(format!("{} → {} ({}:{})", a, b, site.file, site.line));
        }
    }
    let Some(site) = anchor else { return };
    findings.push(Finding {
        rule: Rule::LockOrder,
        file: site.file.clone(),
        line: site.line,
        message: format!("lock-order cycle: {}", legs.join(", ")),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::symbols::collect;

    fn run(files: &[(&str, &str, &str, &str)]) -> Vec<Finding> {
        let graph = CallGraph::build(
            files
                .iter()
                .map(|(krate, module, path, src)| collect(krate, module, path, src))
                .collect(),
        );
        check_graph(&graph, &[], &[])
    }

    #[test]
    fn lock_order_cycle_detected_with_exact_site() {
        let f = run(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                 impl S {\n\
                 fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
                 }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LockOrder);
        assert_eq!(f[0].file, "crates/alpha/src/lib.rs");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("S.a → S.b"));
        assert!(f[0].message.contains("S.b → S.a"));
    }

    #[test]
    fn lock_order_cycle_through_callee() {
        let f = run(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                 impl S {\n\
                 fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                 fn inner(&self) { let h = self.b.lock(); }\n\
                 fn reversed(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
                 }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LockOrder);
        // The A→B leg comes from the call site in `outer`.
        assert!(f[0]
            .message
            .contains("S.a → S.b (crates/alpha/src/lib.rs:3)"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let f = run(&[(
            "alpha",
            "lib",
            "crates/alpha/src/lib.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                 impl S {\n\
                 fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 }",
        )]);
        assert!(f.is_empty());
    }
}

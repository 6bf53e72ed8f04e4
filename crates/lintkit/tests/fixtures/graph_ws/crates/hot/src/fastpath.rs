//! Hot-path fixture: the steady-state `drain_window` entry must stay
//! allocation-free. Seeds exactly one violation plus a warm-boundary and
//! an allowed counterpart.

/// Warm boundary (`Config::warm_paths`): builds the lookup tables once
/// at startup, so its allocations are setup cost, not steady state.
pub fn setup_tables() -> Vec<u64> {
    let mut t = Vec::new();
    t.push(1);
    t
}

/// The declared hot entry (`Config::hot_paths`).
pub fn drain_window(acc: u64, width: u32) -> u64 {
    let tables = setup_tables();
    let labeled = label(acc);
    let scratch = scratch_allowed();
    let total = labeled.saturating_add(scratch);
    let floor = u64::from(width);
    let capped = total.max(floor);
    tables.first().copied().unwrap_or(capped)
}

/// One call of indirection between the hot entry and the allocation.
fn label(acc: u64) -> u64 {
    let s = format!("acc={acc}");
    if s.is_empty() {
        0
    } else {
        acc
    }
}

/// A reasoned allow keeps this deliberate scratch allocation silent.
fn scratch_allowed() -> u64 {
    // lintkit: allow(alloc-in-hot-path) -- fixture: documented scratch buffer
    let v = vec![0u64; 4];
    v.first().copied().unwrap_or(0)
}

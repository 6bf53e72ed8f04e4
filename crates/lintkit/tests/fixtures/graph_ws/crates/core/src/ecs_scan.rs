//! Scan-loop fixture: the entry point reaches the dns decoder cross-crate,
//! behind one local call of indirection.

pub fn scan_subnets() -> u32 {
    step()
}

fn step() -> u32 {
    wire::decode_entry(7)
}

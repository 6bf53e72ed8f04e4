//! Decoder fixture: the far end of the scan loop's cross-crate call.

pub fn decode_entry(x: u32) -> u32 {
    x + 1
}

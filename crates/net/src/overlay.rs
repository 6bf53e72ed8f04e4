//! Delta overlay and partial re-freeze for [`FrozenLpm`].
//!
//! A [`DeltaOverlay`] absorbs announce/withdraw churn as exact-prefix
//! patches layered *over* a frozen base, so a mutation is one sorted
//! insert into at most a few thousand patches instead of an O(table)
//! rebuild. Every combined query is result-identical to freezing
//! `base ∪ announces ∖ withdraws` from scratch (property-tested in
//! `tests/prop_prefix_trie.rs`):
//!
//! - Every patch lives in one vector sorted by `(family, bits, len)`. An
//!   **announce** stores its value there (and, if it shadows a base prefix,
//!   simply wins the length tie — exactly what a re-insert into the source
//!   table would do).
//! - A **withdraw** of a base prefix becomes a *tombstone*, a patch without
//!   a value: the frozen walk still finds the prefix, so the combined
//!   lookup must reject it and fall back to the next-best surviving
//!   covering prefix via [`FrozenLpm::longest_match_where`]. Withdrawing an
//!   overlay-only announce just removes the patch.
//! - A **dirty-chunk index** keeps one bit per 16-bit root chunk per
//!   family, set for every chunk a patch touches (a patch shorter than /16
//!   marks its whole chunk range). A read whose address falls in a clean
//!   chunk is answered by the base alone. A read in a dirty chunk pays one
//!   binary search to the chunk's run of patches and a scan of that run;
//!   only when the run holds no covering patch does it also probe once per
//!   patch length shorter than /16.
//!
//! Steady-state combined lookups are allocation-free, and when the overlay
//! is empty every query is a single delegated call to the base — which is
//! how the overlay keeps the ≤ 10% lookup-regression budget.
//!
//! Once the overlay crosses [`DeltaOverlay::should_compact`],
//! [`FrozenLpm::refreeze_subtree`] folds the patches into the base. The
//! fold re-merges each patched family's whole sorted key list, then
//! rebuilds only the root-stride subtrees the dirty prefixes fall under:
//! fresh node/entry segments are appended to the arenas and spliced in
//! through the existing `u32`-index indirection, leaving the untouched
//! subtrees (the overwhelming majority under realistic churn) exactly where
//! they were. The superseded segments and value slots stay behind as
//! garbage; [`FrozenLpm::garbage`] counts only the value slots.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::net::IpAddr;

use crate::lpm::{
    addr_bits, arena_idx, build_node, chunk_of, distinct_lens, mask_bits, net_bits, BatchScratch,
    FrozenLpm, KeyRec, NONE,
};
use crate::prefix::IpNet;

/// One pending mutation against the frozen base, in the compiled key
/// space: `bits` left-aligned as in [`KeyRec`], `value` the announced
/// value, or `None` for a tombstone (a withdraw of a base prefix).
#[derive(Debug, Clone)]
struct Patch<V> {
    v4: bool,
    bits: u128,
    len: u8,
    net: IpNet,
    value: Option<V>,
}

impl<V> Patch<V> {
    /// The announced `(prefix, value)`, or `None` for a tombstone.
    fn live(&self) -> Option<(IpNet, &V)> {
        self.value.as_ref().map(|v| (self.net, v))
    }
}

/// Hard patch-count ceiling: past this the overlay's own probe costs start
/// to show, so [`DeltaOverlay::should_compact`] fires regardless of base
/// size.
const MAX_PATCHES: usize = 4096;
/// Don't bother compacting below this many patches — a subtree rebuild has
/// fixed costs that a handful of patches never amortise.
const MIN_COMPACT: usize = 64;
/// Between the two bounds, compact once patches exceed 1/RATIO of the base.
const COMPACT_RATIO: usize = 8;

/// Width of a dirty-index chunk: the top 16 bits of an address.
const CHUNK_LEN: u8 = 16;
/// Shift that brings a left-aligned key's top [`CHUNK_LEN`] bits down.
const CHUNK_SHIFT: u32 = 128 - CHUNK_LEN as u32;
/// Words of the dirty-chunk index per family (8 KiB each).
const CHUNK_WORDS: usize = (1 << CHUNK_LEN) / 64;

/// A bounded set of exact-prefix patches (announces + withdraw tombstones)
/// consulted after the frozen walk. See the [module docs](self) for the
/// combine semantics; see [`FrozenLpm::refreeze_subtree`] for how the
/// patches are eventually folded back into the base.
#[derive(Debug, Clone)]
pub struct DeltaOverlay<V> {
    /// All patches — announces and tombstones — sorted by
    /// `(v4, bits, len)`, so membership and chunk-run scans are binary
    /// searches.
    patches: Vec<Patch<V>>,
    /// Number of tombstones in `patches`; reads test a base match against
    /// them only when this is non-zero.
    tombs: usize,
    /// One bit per root chunk, IPv6 chunks first, then IPv4: set for every
    /// chunk a patch recorded since the last [`clear`](DeltaOverlay::clear)
    /// touches. Empty until the first patch.
    dirty: Vec<u64>,
    /// Bit `l` is set when a patch of length `l` < [`CHUNK_LEN`] was
    /// recorded in that family since the last clear.
    short_v4: u16,
    short_v6: u16,
}

impl<V> Default for DeltaOverlay<V> {
    fn default() -> Self {
        DeltaOverlay::new()
    }
}

impl<V> DeltaOverlay<V> {
    /// An empty overlay: every combined query delegates straight to the
    /// base.
    pub fn new() -> DeltaOverlay<V> {
        DeltaOverlay {
            patches: Vec::new(),
            tombs: 0,
            dirty: Vec::new(),
            short_v4: 0,
            short_v6: 0,
        }
    }

    /// Number of pending patches (announces + tombstones).
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// `true` when no patch is pending — the overlay is transparent.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Number of pending withdraw tombstones.
    pub fn tombstones(&self) -> usize {
        self.tombs
    }

    /// Drops all pending patches (after they have been folded into the
    /// base, or when the base itself is rebuilt from source).
    pub fn clear(&mut self) {
        self.patches.clear();
        self.dirty.fill(0);
        self.short_v4 = 0;
        self.short_v6 = 0;
        self.tombs = 0;
    }

    /// Whether the owner should fold this overlay into its base now:
    /// either the hard patch ceiling is hit, or the overlay has grown past
    /// a fixed fraction of a `base_len`-prefix table (never below the
    /// minimum worth a subtree rebuild).
    pub fn should_compact(&self, base_len: usize) -> bool {
        let n = self.patches.len();
        n >= MAX_PATCHES || (n >= MIN_COMPACT && n.saturating_mul(COMPACT_RATIO) >= base_len)
    }

    /// Position of `(v4, bits, len)` in the sorted patch list.
    fn patch_pos(&self, v4: bool, bits: u128, len: u8) -> Result<usize, usize> {
        self.patches
            .binary_search_by(|p| (p.v4, p.bits, p.len).cmp(&(v4, bits, len)))
    }

    /// The patch for exactly `(v4, bits, len)`, if one is pending.
    fn find_patch(&self, v4: bool, bits: u128, len: u8) -> Option<&Patch<V>> {
        self.patch_pos(v4, bits, len)
            .ok()
            .and_then(|at| self.patches.get(at))
    }

    /// One family's patches: IPv6 sorts first (`v4 = false`).
    fn family_patches(&self, v4: bool) -> &[Patch<V>] {
        let split = self.patches.partition_point(|p| !p.v4);
        let range = if v4 {
            self.patches.get(split..)
        } else {
            self.patches.get(..split)
        };
        range.unwrap_or_default()
    }

    /// Whether a patch may touch the root chunk of left-aligned `bits`.
    #[inline]
    fn is_dirty(&self, v4: bool, bits: u128) -> bool {
        let bit = dirty_bit(v4, chunk_of(bits, CHUNK_SHIFT, CHUNK_LEN));
        self.dirty
            .get(bit / 64)
            .is_some_and(|w| (w >> (bit % 64)) & 1 != 0)
    }

    /// Inserts `patch` at its sorted position `at` and marks every root
    /// chunk it spans dirty.
    fn insert_patch(&mut self, at: usize, patch: Patch<V>) {
        if self.dirty.is_empty() {
            self.dirty = vec![0; 2 * CHUNK_WORDS];
        }
        let first = dirty_bit(patch.v4, chunk_of(patch.bits, CHUNK_SHIFT, CHUNK_LEN));
        // A prefix shorter than a chunk spans 2^(CHUNK_LEN - len) chunks,
        // aligned to that count: whole words from 64 chunks up, else a run
        // of bits inside one word.
        let span = 1usize << CHUNK_LEN.saturating_sub(patch.len);
        if span >= 64 {
            for w in self.dirty.iter_mut().skip(first / 64).take(span / 64) {
                *w = u64::MAX;
            }
        } else if let Some(w) = self.dirty.get_mut(first / 64) {
            *w |= (1u64 << span).wrapping_sub(1) << (first % 64);
        }
        if patch.len < CHUNK_LEN {
            let short = if patch.v4 {
                &mut self.short_v4
            } else {
                &mut self.short_v6
            };
            *short |= 1u16 << patch.len;
        }
        self.patches.insert(at, patch);
    }

    /// Records an announce: the prefix now maps to `value` in the combined
    /// view, whether it was new, previously withdrawn, or already present
    /// in the base (length ties resolve to the overlay).
    pub fn announce(&mut self, net: IpNet, value: V) {
        let (bits, len, v4) = net_bits(&net);
        match self.patch_pos(v4, bits, len) {
            Ok(at) => {
                if let Some(p) = self.patches.get_mut(at) {
                    if p.value.is_none() {
                        self.tombs = self.tombs.saturating_sub(1);
                    }
                    p.value = Some(value);
                }
            }
            Err(at) => self.insert_patch(
                at,
                Patch {
                    v4,
                    bits,
                    len,
                    net,
                    value: Some(value),
                },
            ),
        }
    }

    /// Records a withdraw against `base`: if the prefix exists in the base
    /// a tombstone is planted (the frozen arena can't forget it until the
    /// next compaction); an overlay-only announce is simply removed.
    /// Returns the overlay value that was dropped, if any.
    pub fn withdraw(&mut self, net: &IpNet, base: &FrozenLpm<V>) -> Option<V> {
        self.withdraw_probed(net, base.contains(net)).flatten()
    }

    /// [`withdraw`](DeltaOverlay::withdraw) for a caller that has already
    /// probed the base: `in_base` tells whether the base stores `net`.
    /// Returns `None` when no patch for `net` was pending, else the value
    /// the patch held (`None` for a tombstone).
    pub(crate) fn withdraw_probed(&mut self, net: &IpNet, in_base: bool) -> Option<Option<V>> {
        let (bits, len, v4) = net_bits(net);
        match self.patch_pos(v4, bits, len) {
            Ok(at) if in_base => {
                let p = self.patches.get_mut(at)?;
                let held = p.value.take();
                if held.is_some() {
                    self.tombs = self.tombs.saturating_add(1);
                }
                Some(held)
            }
            Ok(at) => Some(self.patches.remove(at).value),
            Err(at) => {
                if in_base {
                    self.insert_patch(
                        at,
                        Patch {
                            v4,
                            bits,
                            len,
                            net: *net,
                            value: None,
                        },
                    );
                    self.tombs = self.tombs.saturating_add(1);
                }
                None
            }
        }
    }

    /// Whether `net` is currently tombstoned in this overlay (withdrawn
    /// from the base and not re-announced since).
    pub fn is_tombstoned(&self, net: &IpNet) -> bool {
        if self.tombs == 0 {
            return false;
        }
        let (bits, len, v4) = net_bits(net);
        self.is_dirty(v4, bits)
            && matches!(self.find_patch(v4, bits, len), Some(p) if p.value.is_none())
    }

    /// The announced (or re-announced) patches, IPv4 first, each family in
    /// ascending `(address, length)` order — `IpNet`'s order, although the
    /// patch list itself sorts IPv6 first.
    pub(crate) fn announced(&self) -> impl Iterator<Item = (IpNet, &V)> {
        self.family_patches(true)
            .iter()
            .chain(self.family_patches(false))
            .filter_map(Patch::live)
    }

    /// The most specific announced patch of family `v4` covering `bits`
    /// at no more than `max` bits.
    ///
    /// A covering patch of at least [`CHUNK_LEN`] bits starts in the root
    /// chunk of `bits` and sorts at or before `(bits, max)`, so one binary
    /// search finds the end of its run and the scan walks back to the
    /// chunk's start. Covering prefixes nest, so the first live one met is
    /// the longest. Only when the run has none can a shorter patch win;
    /// those are probed once per length recorded in the family.
    fn patch_match(&self, v4: bool, bits: u128, max: u8) -> Option<(IpNet, &V)> {
        let lo = mask_bits(bits, CHUNK_LEN);
        let end = self
            .patches
            .partition_point(|p| (p.v4, p.bits, p.len) <= (v4, bits, max));
        let short = if v4 { self.short_v4 } else { self.short_v6 };
        self.patches
            .get(..end)
            .unwrap_or_default()
            .iter()
            .rev()
            .take_while(|p| p.v4 == v4 && p.bits >= lo)
            .filter(|p| p.len <= max && mask_bits(bits, p.len) == p.bits)
            .find_map(Patch::live)
            .or_else(|| {
                (0..CHUNK_LEN)
                    .rev()
                    .filter(|&l| l <= max && (short >> l) & 1 != 0)
                    .find_map(|l| self.find_patch(v4, mask_bits(bits, l), l)?.live())
            })
    }

    /// Picks the combined winner of an overlay match and a base match:
    /// more specific wins; on equal length the overlay wins (it re-announced
    /// the prefix, shadowing the stale base value).
    fn better<'a>(
        ov: Option<(IpNet, &'a V)>,
        base: Option<(IpNet, &'a V)>,
    ) -> Option<(IpNet, &'a V)> {
        match (ov, base) {
            (Some(o), Some(b)) => {
                if b.0.len() > o.0.len() {
                    Some(b)
                } else {
                    Some(o)
                }
            }
            (Some(o), None) => Some(o),
            (None, b) => b,
        }
    }

    /// Combines the base's raw longest match `bm` for `addr` with the
    /// patches. Clean chunk: `bm` stands. Dirty chunk: a tombstoned `bm`
    /// falls back to the base's best surviving match, which then competes
    /// with the best announced patch.
    #[inline]
    fn combine<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        addr: IpAddr,
        bm: Option<(IpNet, &'a V)>,
    ) -> Option<(IpNet, &'a V)> {
        let (bits, v4) = addr_bits(&addr);
        if !self.is_dirty(v4, bits) {
            return bm;
        }
        let bm = match bm {
            Some((n, _)) if self.is_tombstoned(&n) => {
                base.longest_match_where(addr, |n| !self.is_tombstoned(n))
            }
            other => other,
        };
        Self::better(self.patch_match(v4, bits, if v4 { 32 } else { 128 }), bm)
    }

    /// Combined longest-prefix match — identical to freezing the patched
    /// table and calling [`FrozenLpm::longest_match`].
    pub fn longest_match<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        addr: IpAddr,
    ) -> Option<(IpNet, &'a V)> {
        self.combine(base, addr, base.longest_match(addr))
    }

    /// Alias for [`longest_match`](DeltaOverlay::longest_match), matching
    /// [`FrozenLpm::lookup`].
    #[inline]
    pub fn lookup<'a>(&'a self, base: &'a FrozenLpm<V>, addr: IpAddr) -> Option<(IpNet, &'a V)> {
        self.longest_match(base, addr)
    }

    /// Combined exact-prefix lookup — identical to
    /// [`FrozenLpm::exact`] on the patched table.
    pub fn exact<'a>(&'a self, base: &'a FrozenLpm<V>, net: &IpNet) -> Option<&'a V> {
        let (bits, len, v4) = net_bits(net);
        if !self.is_dirty(v4, bits) {
            return base.exact(net);
        }
        match self.find_patch(v4, bits, len) {
            Some(p) => p.value.as_ref(),
            None => base.exact(net),
        }
    }

    /// Whether the exact prefix exists in the combined view.
    pub fn contains(&self, base: &FrozenLpm<V>, net: &IpNet) -> bool {
        self.exact(base, net).is_some()
    }

    /// Combined [`FrozenLpm::longest_match_net`]: the most specific
    /// surviving prefix fully containing `net`. Any patch containing `net`
    /// marks the chunk of `net`'s first address.
    pub fn longest_match_net<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        net: &IpNet,
    ) -> Option<(IpNet, &'a V)> {
        let (bits, len, v4) = net_bits(net);
        if !self.is_dirty(v4, bits) {
            return base.longest_match_net(net);
        }
        let bm = match base.longest_match_net(net) {
            Some((n, _)) if self.is_tombstoned(&n) => {
                base.longest_match_net_where(net, |n| !self.is_tombstoned(n))
            }
            other => other,
        };
        Self::better(self.patch_match(v4, bits, len), bm)
    }

    /// Combined [`FrozenLpm::covering`]: all surviving prefixes containing
    /// `addr`, shortest first (merge of the base's filtered list and the
    /// overlay's; a prefix in both contributes the overlay value).
    pub fn covering<'a>(&'a self, base: &'a FrozenLpm<V>, addr: IpAddr) -> Vec<(IpNet, &'a V)> {
        let (bits, v4) = addr_bits(&addr);
        if !self.is_dirty(v4, bits) {
            return base.covering(addr);
        }
        let mut from_base = base.covering(addr);
        from_base.retain(|(n, _)| !self.is_tombstoned(n));
        let width: u8 = if v4 { 32 } else { 128 };
        let from_ov: Vec<(IpNet, &V)> = (0..=width)
            .filter_map(|l| self.find_patch(v4, mask_bits(bits, l), l)?.live())
            .collect();
        let mut out = Vec::with_capacity(from_base.len().saturating_add(from_ov.len()));
        let mut bi = from_base.iter().peekable();
        let mut oi = from_ov.iter().peekable();
        loop {
            match (bi.peek(), oi.peek()) {
                (Some(b), Some(o)) => {
                    if b.0.len() < o.0.len() {
                        out.push(**b);
                        bi.next();
                    } else {
                        if b.0.len() == o.0.len() {
                            // Same prefix present in both: overlay shadows.
                            bi.next();
                        }
                        out.push(**o);
                        oi.next();
                    }
                }
                (Some(b), None) => {
                    out.push(**b);
                    bi.next();
                }
                (None, Some(o)) => {
                    out.push(**o);
                    oi.next();
                }
                (None, None) => break,
            }
        }
        out
    }

    /// Combined batch lookup — results are exactly
    /// `addrs.iter().map(|a| self.lookup(base, *a))`. See
    /// [`lookup_batch_in`](DeltaOverlay::lookup_batch_in) for the
    /// scratch-reusing form.
    pub fn lookup_batch<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        addrs: &[IpAddr],
        out: &mut Vec<Option<(IpNet, &'a V)>>,
    ) {
        let mut scratch = BatchScratch::new();
        self.lookup_batch_map_in(base, &mut scratch, addrs, out, |m| m);
    }

    /// Combined batch lookup against caller-owned scratch; allocation-free
    /// once the scratch and output buffers have grown to the burst size
    /// (tombstone fallbacks excepted — they probe, not allocate).
    pub fn lookup_batch_in<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<Option<(IpNet, &'a V)>>,
    ) {
        self.lookup_batch_map_in(base, scratch, addrs, out, |m| m);
    }

    /// Combined batch lookup with an inline projection, the overlay
    /// counterpart of [`FrozenLpm::lookup_batch_map_in`]. The frozen batch
    /// kernel drives the walk; each raw base match whose address falls in
    /// a dirty chunk is combined with the patches before `f` sees it.
    /// Relies on the kernel's documented contract that the projection runs
    /// exactly once per input address, in input order.
    pub fn lookup_batch_map_in<'a, T>(
        &'a self,
        base: &'a FrozenLpm<V>,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<T>,
        mut f: impl FnMut(Option<(IpNet, &'a V)>) -> T,
    ) {
        if self.patches.is_empty() {
            base.lookup_batch_map_in(scratch, addrs, out, f);
            return;
        }
        let mut i: usize = 0;
        base.lookup_batch_map_in(scratch, addrs, out, |bm| {
            let combined = match addrs.get(i) {
                Some(a) => self.combine(base, *a, bm),
                None => None,
            };
            i = i.saturating_add(1);
            f(combined)
        });
    }
}

/// Bit of the dirty-chunk index for root `chunk` of family `v4`.
#[inline]
fn dirty_bit(v4: bool, chunk: usize) -> usize {
    if v4 {
        chunk | (1 << CHUNK_LEN)
    } else {
        chunk
    }
}

impl<V: Clone> FrozenLpm<V> {
    /// Folds a [`DeltaOverlay`] into this table. Each patched family's
    /// sorted key list is re-merged whole (and its distinct lengths
    /// re-scanned), so a fold is linear in the family's size; the compiled
    /// arrays are rebuilt only under the root-stride subtrees the patches
    /// fall under. The caller owns clearing the overlay afterwards (and,
    /// per [`FrozenLpm::garbage`], deciding when accumulated superseded
    /// arena slots warrant a full rebuild).
    ///
    /// If this handle currently shares arenas with
    /// [snapshots](FrozenLpm::snapshot), they are un-shared first (one
    /// deep copy) so every snapshot keeps observing its own epoch.
    ///
    /// The root stride is fixed at freeze time and never changes here: a
    /// table that grows from below [`WIDE_ROOT_MIN`](crate::lpm) past it
    /// keeps its narrow root until the next full freeze. Lookups are
    /// correct either way; only the root fan-out differs.
    pub fn refreeze_subtree(&mut self, delta: &DeltaOverlay<V>) {
        if delta.patches.is_empty() {
            return;
        }
        let core = std::sync::Arc::make_mut(&mut self.core);
        refreeze_family(core, delta, true);
        refreeze_family(core, delta, false);
    }
}

/// Rebuilds one address family of `core` under `delta`'s patches for that
/// family. Merges the whole sorted key list with the sorted patches
/// (dropping tombstones, appending fresh value slots for inserts), then
/// patches the root node in place: in-node re-expansion only if a ≤
/// root-stride patch exists, and a fresh subtree build for each dirty root
/// chunk, spliced in through the root's entry block.
fn refreeze_family<V: Clone>(core: &mut crate::lpm::Core<V>, delta: &DeltaOverlay<V>, v4: bool) {
    let fam = delta.family_patches(v4);
    if fam.is_empty() {
        return;
    }

    // Two-pointer merge of the old sorted keys with the (sorted) patches:
    // a tombstone drops the old key, an insert supersedes it (new value
    // slot appended to the arena), anything untouched is kept verbatim.
    let old: Vec<KeyRec> = std::mem::take(if v4 {
        &mut core.keys_v4
    } else {
        &mut core.keys_v6
    });
    let mut merged: Vec<KeyRec> = Vec::with_capacity(old.len().saturating_add(fam.len()));
    let push_patch = |p: &Patch<V>, values: &mut Vec<(IpNet, V)>, merged: &mut Vec<KeyRec>| {
        if let Some(v) = &p.value {
            let idx = arena_idx(values.len());
            values.push((p.net, v.clone()));
            merged.push(KeyRec {
                bits: p.bits,
                len: p.len,
                value: idx,
            });
        }
    };
    let mut oi = 0usize;
    let mut pi = 0usize;
    loop {
        match (old.get(oi), fam.get(pi)) {
            (Some(o), Some(p)) => match (o.bits, o.len).cmp(&(p.bits, p.len)) {
                std::cmp::Ordering::Less => {
                    merged.push(*o);
                    oi = oi.saturating_add(1);
                }
                std::cmp::Ordering::Greater => {
                    push_patch(p, &mut core.values, &mut merged);
                    pi = pi.saturating_add(1);
                }
                std::cmp::Ordering::Equal => {
                    push_patch(p, &mut core.values, &mut merged);
                    oi = oi.saturating_add(1);
                    pi = pi.saturating_add(1);
                }
            },
            (Some(o), None) => {
                merged.push(*o);
                oi = oi.saturating_add(1);
            }
            (None, Some(p)) => {
                push_patch(p, &mut core.values, &mut merged);
                pi = pi.saturating_add(1);
            }
            (None, None) => break,
        }
    }

    let root = if v4 { core.root_v4 } else { core.root_v6 };
    let new_root = if merged.is_empty() {
        NONE
    } else if core.nodes.get(root as usize).is_none() {
        // The family was empty at freeze time: build it fresh.
        build_node(&mut core.nodes, &mut core.entries, &merged, 0)
    } else {
        patch_root(core, root, &merged, fam);
        root
    };
    if v4 {
        core.root_v4 = new_root;
        core.keys_v4 = merged;
        core.lens_v4 = distinct_lens(&core.keys_v4);
    } else {
        core.root_v6 = new_root;
        core.keys_v6 = merged;
        core.lens_v6 = distinct_lens(&core.keys_v6);
    }
}

/// Patches the root node of one family in place, given the fully merged
/// key list and that family's patches.
fn patch_root<V: Clone>(
    core: &mut crate::lpm::Core<V>,
    root: u32,
    merged: &[KeyRec],
    fam: &[Patch<V>],
) {
    let (off, stride) = match core.nodes.get(root as usize) {
        Some(n) => (n.entries_off as usize, n.stride),
        None => return,
    };
    let block = 1usize.checked_shl(u32::from(stride)).unwrap_or(0);
    let shift = 128u32.saturating_sub(u32::from(stride));

    // (a) If any patch terminates inside the root node, re-expand the
    // root's in-node values from scratch: reset the block's value slots and
    // replay every ≤ stride key shorter-first (the same overwrite order the
    // builder uses). O(block) — only paid when a short prefix churned.
    if fam.iter().any(|p| p.len <= stride) {
        for e in core.entries.iter_mut().skip(off).take(block) {
            e.value = NONE;
        }
        if let Some(n) = core.nodes.get_mut(root as usize) {
            n.value = NONE;
        }
        let mut in_node: Vec<&KeyRec> = merged.iter().filter(|k| k.len <= stride).collect();
        in_node.sort_by_key(|k| k.len);
        for key in in_node {
            if key.len == 0 {
                if let Some(n) = core.nodes.get_mut(root as usize) {
                    n.value = key.value;
                }
                continue;
            }
            let lo = chunk_of(key.bits, shift, stride);
            let count = 1usize
                .checked_shl(u32::from(stride.saturating_sub(key.len)))
                .unwrap_or(0);
            for entry in core
                .entries
                .iter_mut()
                .skip(off.saturating_add(lo))
                .take(count)
            {
                entry.value = key.value;
            }
        }
    }

    // (b) Rebuild the subtree under each dirty root chunk. `fam` is sorted
    // by bits, so dirty chunks appear in non-decreasing order — dedup with
    // a single "last chunk done" marker. The fresh subtree is appended to
    // the arenas and spliced in via the root entry's child index; the old
    // subtree's segments become unreachable garbage.
    let mut done: Option<usize> = None;
    for p in fam.iter().filter(|p| p.len > stride) {
        let chunk = chunk_of(p.bits, shift, stride);
        if done == Some(chunk) {
            continue;
        }
        done = Some(chunk);
        // All merged keys deeper than the root that fall in this chunk:
        // their bits share the chunk's `stride`-bit head, so they form a
        // contiguous range of the sorted list.
        let lo_bits = (chunk as u128) << shift;
        let hi_bits = lo_bits | (1u128 << shift).wrapping_sub(1);
        let from = merged.partition_point(|k| k.bits < lo_bits);
        let to = merged.partition_point(|k| k.bits <= hi_bits);
        let run: Vec<KeyRec> = match merged.get(from..to) {
            Some(range) => range.iter().filter(|k| k.len > stride).copied().collect(),
            None => Vec::new(),
        };
        let child = if run.is_empty() {
            NONE
        } else {
            build_node(&mut core.nodes, &mut core.entries, &run, stride)
        };
        if let Some(entry) = core.entries.get_mut(off.saturating_add(chunk)) {
            entry.child = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::PrefixTrie;

    fn net(s: &str) -> IpNet {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn base() -> FrozenLpm<&'static str> {
        let mut t = PrefixTrie::new();
        t.insert(net("0.0.0.0/0"), "default");
        t.insert(net("17.0.0.0/8"), "apple8");
        t.insert(net("17.5.0.0/16"), "apple16");
        t.insert(net("2620:149::/32"), "apple6");
        t.freeze()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let b = base();
        let d: DeltaOverlay<&str> = DeltaOverlay::new();
        assert!(d.is_empty());
        let a = addr("17.5.1.2");
        assert_eq!(d.longest_match(&b, a), b.longest_match(a));
        assert_eq!(d.exact(&b, &net("17.0.0.0/8")), b.exact(&net("17.0.0.0/8")));
        assert_eq!(d.covering(&b, a), b.covering(a));
    }

    #[test]
    fn announce_is_visible_and_more_specific_wins() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.3.0/24"), "patched");
        let (n, v) = d.longest_match(&b, addr("17.5.3.9")).unwrap();
        assert_eq!((n, *v), (net("17.5.3.0/24"), "patched"));
        // Other addresses keep the base answer.
        let (n, _) = d.longest_match(&b, addr("17.5.4.9")).unwrap();
        assert_eq!(n, net("17.5.0.0/16"));
    }

    #[test]
    fn reannounce_shadows_base_value() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.0.0/16"), "new16");
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.5.0.0/16"), "new16"));
        assert_eq!(d.exact(&b, &net("17.5.0.0/16")), Some(&"new16"));
    }

    #[test]
    fn withdraw_tombstones_and_falls_back() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.withdraw(&net("17.5.0.0/16"), &b);
        assert_eq!(d.tombstones(), 1);
        assert!(d.is_tombstoned(&net("17.5.0.0/16")));
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.0.0.0/8"), "apple8"));
        assert_eq!(d.exact(&b, &net("17.5.0.0/16")), None);
        // longest_match_net also skips the tombstone.
        let (n, _) = d.longest_match_net(&b, &net("17.5.3.0/24")).unwrap();
        assert_eq!(n, net("17.0.0.0/8"));
        // covering drops it too.
        let cov: Vec<_> = d
            .covering(&b, addr("17.5.1.2"))
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(cov, vec![net("0.0.0.0/0"), net("17.0.0.0/8")]);
    }

    #[test]
    fn withdraw_then_reannounce_restores() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.withdraw(&net("17.5.0.0/16"), &b);
        d.announce(net("17.5.0.0/16"), "back");
        assert_eq!(d.tombstones(), 0);
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.5.0.0/16"), "back"));
    }

    #[test]
    fn withdraw_of_overlay_only_announce_removes_patch() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("203.0.113.0/24"), "tmp");
        assert_eq!(d.len(), 1);
        d.withdraw(&net("203.0.113.0/24"), &b);
        assert!(d.is_empty());
        assert_eq!(
            d.longest_match(&b, addr("203.0.113.5")).map(|(n, _)| n),
            Some(net("0.0.0.0/0"))
        );
    }

    #[test]
    fn batch_matches_single_combined_lookups() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.3.0/24"), "patched");
        d.withdraw(&net("17.0.0.0/8"), &b);
        let addrs: Vec<IpAddr> = ["17.5.3.9", "17.9.9.9", "17.5.1.2", "2620:149::1", "8.8.8.8"]
            .iter()
            .map(|s| addr(s))
            .collect();
        let mut out = Vec::new();
        d.lookup_batch(&b, &addrs, &mut out);
        assert_eq!(out.len(), addrs.len());
        for (a, got) in addrs.iter().zip(&out) {
            assert_eq!(*got, d.lookup(&b, *a), "{a}");
        }
    }

    #[test]
    fn refreeze_subtree_matches_full_rebuild() {
        let mut t = PrefixTrie::new();
        for i in 0..64u32 {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 16));
            t.insert(crate::prefix::Ipv4Net::clamped(a, 16), i);
        }
        t.insert(net("0.0.0.0/0"), 999);
        let mut frozen = t.freeze();
        let mut d = DeltaOverlay::new();
        // Mutate: withdraw one /16, announce a /24 inside another, replace
        // the default route, and add a v6 prefix to the empty family.
        d.withdraw(&net("10.3.0.0/16"), &frozen);
        d.announce(net("10.5.9.0/24"), 777);
        d.announce(net("0.0.0.0/0"), 1000);
        d.announce(net("2620:149::/32"), 6666);
        t.remove(&net("10.3.0.0/16"));
        t.insert(net("10.5.9.0/24"), 777);
        t.insert(net("0.0.0.0/0"), 1000);
        t.insert(net("2620:149::/32"), 6666);

        frozen.refreeze_subtree(&d);
        let full = t.freeze();
        assert_eq!(frozen.len(), full.len());
        assert!(frozen.garbage() > 0, "superseded slots become garbage");
        for a in ["10.3.1.2", "10.5.9.1", "10.5.8.1", "10.40.0.1", "8.8.8.8"] {
            let a = addr(a);
            assert_eq!(
                frozen.longest_match(a).map(|(n, v)| (n, *v)),
                full.longest_match(a).map(|(n, v)| (n, *v)),
                "{a}"
            );
        }
        assert_eq!(
            frozen.longest_match(addr("2620:149::1")).map(|(_, v)| *v),
            Some(6666)
        );
        let mut got: Vec<String> = frozen.iter().map(|(n, _)| n.to_string()).collect();
        got.sort();
        let mut want: Vec<String> = full.iter().map(|(n, _)| n.to_string()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn refreeze_unshares_outstanding_snapshots() {
        let mut t = PrefixTrie::new();
        t.insert(net("10.0.0.0/8"), 1);
        t.insert(net("10.5.0.0/16"), 2);
        let mut live = t.freeze();
        let epoch0 = live.snapshot();
        assert!(live.is_shared());

        let mut d = DeltaOverlay::new();
        d.withdraw(&net("10.5.0.0/16"), &live);
        d.announce(net("10.6.0.0/16"), 3);
        live.refreeze_subtree(&d);

        // The snapshot still sees epoch 0...
        assert_eq!(
            epoch0.longest_match(addr("10.5.1.1")).map(|(_, v)| *v),
            Some(2)
        );
        assert!(epoch0.longest_match(addr("10.6.1.1")).map(|(_, v)| *v) == Some(1));
        // ...while the live table moved to epoch 1, now un-shared.
        assert_eq!(
            live.longest_match(addr("10.5.1.1")).map(|(_, v)| *v),
            Some(1)
        );
        assert_eq!(
            live.longest_match(addr("10.6.1.1")).map(|(_, v)| *v),
            Some(3)
        );
        assert!(!std::sync::Arc::ptr_eq(&live.core, &epoch0.core));
    }

    #[test]
    fn compaction_threshold_behaviour() {
        let d: DeltaOverlay<u8> = DeltaOverlay::new();
        assert!(!d.should_compact(0));
        let mut d = DeltaOverlay::new();
        for i in 0..MIN_COMPACT as u32 {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            d.announce(IpNet::V4(crate::prefix::Ipv4Net::clamped(a, 24)), 1u8);
        }
        // 64 patches vs a large base: not yet worth it.
        assert!(!d.should_compact(100_000));
        // 64 patches vs a small base: compact.
        assert!(d.should_compact(256));
    }
}

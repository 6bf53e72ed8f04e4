//! Deterministic simulation randomness.
//!
//! Every stochastic element of the reproduction — relay address allocation,
//! probe placement, egress rotation, failure injection — draws from a
//! [`SimRng`] seeded from a single `u64`. The generator is a locally
//! implemented xoshiro256++ so results cannot drift with `rand` version
//! upgrades; `rand`'s [`RngCore`] is implemented on top so the standard
//! distribution adapters still work.
//!
//! [`SimRng::fork`] derives an independent child stream from a label, which
//! lets subsystems (DNS zone, egress fleet, Atlas population, …) consume
//! randomness without perturbing each other — adding a draw in one module
//! never changes another module's results.

use rand::RngCore;

/// SplitMix64 step, used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator with labelled forking.
///
/// The four state words are named fields rather than an array so the
/// generator stays index-free on its hot paths (the ECS scan loop, the
/// fault-injection channel).
#[derive(Debug, Clone)]
pub struct SimRng {
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Seeds are expanded with SplitMix64,
    /// so nearby seeds produce unrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s0: splitmix64(&mut sm),
            s1: splitmix64(&mut sm),
            s2: splitmix64(&mut sm),
            s3: splitmix64(&mut sm),
        }
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// Forking does not consume randomness from `self`, so the set of forks
    /// taken from a generator never affects its own stream.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Mix the label hash with the current state without advancing it.
        let mut sm = self.s0 ^ self.s1.rotate_left(17) ^ h;
        SimRng {
            s0: splitmix64(&mut sm),
            s1: splitmix64(&mut sm),
            s2: splitmix64(&mut sm),
            s3: splitmix64(&mut sm),
        }
    }

    /// Derives an independent child generator identified by `label` and a
    /// numeric `index`.
    ///
    /// Equivalent to [`SimRng::fork`] with a per-index label, but without
    /// formatting a string per call. Used wherever a family of streams is
    /// keyed by a stable id (shards, probes, rounds): each member's stream
    /// depends only on `(parent state, label, index)`, never on the order in
    /// which members run — the property the sharded engine relies on.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Scramble the index through SplitMix64 so nearby indices produce
        // unrelated streams, then mix as `fork` does.
        let mut ix = index;
        let mut sm = self.s0 ^ self.s1.rotate_left(17) ^ h ^ splitmix64(&mut ix);
        SimRng {
            s0: splitmix64(&mut sm),
            s1: splitmix64(&mut sm),
            s2: splitmix64(&mut sm),
            s3: splitmix64(&mut sm),
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self
            .s0
            .wrapping_add(self.s3)
            .rotate_left(23)
            .wrapping_add(self.s0);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// unbiased for every bound.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, len)`; 0 when `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform value in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.below(hi - lo)
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.index(items.len()))
        }
    }

    /// Picks an index according to non-negative `weights`; `None` when the
    /// total weight is zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if target < *w {
                return Some(i);
            }
            target -= *w;
        }
        // Floating point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A Pareto-like heavy-tailed draw with shape `alpha` and minimum `min`.
    ///
    /// Used for AS user-population synthesis: a handful of eyeball networks
    /// hold most users, matching the APNIC dataset's skew.
    pub fn pareto(&mut self, min: f64, alpha: f64) -> f64 {
        let u = 1.0 - self.unit(); // in (0, 1]
        min / u.powf(1.0 / alpha)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            for (dst, src) in rem.iter_mut().zip(self.next_u64_raw().to_le_bytes()) {
                *dst = src;
            }
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<_> = (0..8).map(|_| a.next_u64_raw()).collect();
        let vb: Vec<_> = (0..8).map(|_| b.next_u64_raw()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut f1 = parent.fork("dns");
        let mut parent2 = SimRng::new(7);
        parent2.next_u64_raw(); // forking must not depend on draws
        let mut f2 = SimRng::new(7).fork("dns");
        assert_eq!(f1.next_u64_raw(), f2.next_u64_raw());
        let _ = parent2;
    }

    #[test]
    fn fork_labels_give_distinct_streams() {
        let parent = SimRng::new(7);
        let a = parent.fork("atlas").next_u64_raw();
        let b = parent.fork("egress").next_u64_raw();
        assert_ne!(a, b);
    }

    #[test]
    fn fork_indexed_is_order_free_and_distinct() {
        let parent = SimRng::new(7);
        // Same (label, index) → same stream, regardless of other forks taken.
        let mut a = parent.fork_indexed("probe", 41);
        let _ = parent.fork_indexed("probe", 3);
        let mut b = parent.fork_indexed("probe", 41);
        assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        // Nearby indices and different labels give unrelated streams.
        let x = parent.fork_indexed("probe", 1).next_u64_raw();
        let y = parent.fork_indexed("probe", 2).next_u64_raw();
        let z = parent.fork_indexed("shard", 1).next_u64_raw();
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.below(4) as usize] += 1;
        }
        for c in counts {
            assert!((9000..11000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn pick_weighted_respects_zero_weights() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let i = r.pick_weighted(&[0.0, 3.0, 0.0, 1.0]).unwrap();
            assert!(i == 1 || i == 3);
        }
        assert_eq!(r.pick_weighted(&[]), None);
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn pick_weighted_matches_ratios() {
        let mut r = SimRng::new(13);
        let mut c = [0u32; 2];
        for _ in 0..30_000 {
            c[r.pick_weighted(&[3.0, 1.0]).unwrap()] += 1;
        }
        let ratio = c[0] as f64 / c[1] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pareto_has_min_and_heavy_tail() {
        let mut r = SimRng::new(19);
        let draws: Vec<f64> = (0..10_000).map(|_| r.pareto(100.0, 1.2)).collect();
        assert!(draws.iter().all(|d| *d >= 100.0));
        let max = draws.iter().cloned().fold(0.0, f64::max);
        assert!(max > 10_000.0, "tail too light: max {max}");
    }

    #[test]
    fn fill_bytes_covers_remainders() {
        let mut r = SimRng::new(23);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(29);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }

    #[test]
    fn range_empty_returns_lo() {
        let mut r = SimRng::new(31);
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(9, 3), 9);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }
}

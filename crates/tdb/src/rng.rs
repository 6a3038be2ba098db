//! A small deterministic PRNG with no external dependencies.
//!
//! Workload generation and randomized tests must be reproducible and
//! must build offline, so instead of the `rand` crate the repo carries
//! its own generator: xoshiro256** (Blackman & Vigna) seeded through
//! splitmix64, the standard pairing — splitmix64 decorrelates
//! low-entropy seeds (0, 1, 2, …) before they reach the xoshiro state.
//!
//! The API mirrors the subset of `rand` the repo uses (`seed_from_u64`,
//! `gen_range`, `gen_bool`), so call sites read the same.

/// The splitmix64 step: advances `state` and returns the next output.
///
/// Public because it doubles as the repo's canonical cheap mixer: the
/// store's frame and page checksums and the spill tier's page hashes
/// fold their bytes through this function.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A xoshiro256** generator. `Clone` gives cheap stream forking;
/// equality compares states (useful in determinism tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the full 256-bit state from one `u64` via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[range.start, range.end)` (widening-multiply
    /// range reduction; the bias over 64-bit outputs is negligible).
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        let span = range.end.checked_sub(range.start).expect("empty range");
        assert!(span > 0, "gen_range over an empty range");
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`. Exact at the endpoints: `p = 0.0`
    /// never fires, `p = 1.0` always does.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_respected() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
        }
        // Small ranges hit every value.
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(0..4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_endpoints_exact() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }

    #[test]
    fn bool_roughly_fair() {
        let mut r = Rng::seed_from_u64(9);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}

//! Offline stand-in for the `rand` crate.
//!
//! Provides the API surface this workspace uses — `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range}` — backed by
//! xoshiro256** seeded through splitmix64. The stream differs from the
//! real `rand::StdRng` (ChaCha12), which is fine: every consumer seeds
//! explicitly and only relies on determinism-per-seed, not on a specific
//! stream.

// The shim is pure arithmetic; no unsafe needed.
#![forbid(unsafe_code)]
// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

use std::ops::{Range, RangeInclusive};

/// Seeding entry point (the subset the workspace uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of randomness plus the derived sampling helpers.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Samples a value from the "standard" distribution of `T`:
    /// `f64` uniform in `[0, 1)`, `bool` fair coin, ints full-range.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a range (half-open or inclusive).
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_in(self)
    }

    /// Bernoulli with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Fills `out` with independent draws — the batched hot path for
    /// consumers that need many raw values at once (e.g. one block per
    /// random-walk chunk instead of one generator call per step). The
    /// values are exactly the ones sequential `next_u64` calls would
    /// produce, in order.
    fn fill_u64(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_u64();
        }
    }
}

/// Types samplable by [`Rng::gen`].
pub trait Standard {
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// 53 random bits over `[0, 1)`.
    fn sample<R: Rng>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample_in<R: Rng>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer in `[0, span)` by Lemire's multiply-shift with a
/// rejection pass (the bias without it would be invisible at our sizes,
/// but the fix costs one branch).
#[inline]
fn uniform_below<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(span as u128);
        let lo = m as u64;
        if lo >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        // Closed on both ends: scale 53-bit values by 1/(2^53 - 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + u * (hi - lo)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256** (Blackman–Vigna),
    /// state expanded from the `u64` seed with splitmix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..4);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g = rng.gen_range(f64::MIN_POSITIVE..=1.0);
            assert!(g > 0.0 && g <= 1.0);
        }
    }

    #[test]
    fn gen_bool_balance() {
        let mut rng = StdRng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4500..5500).contains(&heads), "heads={heads}");
    }
}

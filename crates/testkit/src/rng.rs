//! Deterministic, seedable pseudo-random number generation.
//!
//! Two generators cover every need in the workspace:
//!
//! - [`SplitMix64`]: a tiny 64-bit state generator used for seeding and for
//!   deriving independent streams (one per property-test case).
//! - [`Xoshiro256pp`] (xoshiro256++): the workhorse generator behind the
//!   workload mini-apps and the property harness. Exported as [`StdRng`]
//!   so call sites read like the `rand` API they replaced.
//!
//! Both are fully deterministic functions of their seed on every platform:
//! same seed, same byte-identical stream.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: Steele, Lea & Flood's 64-bit mixing generator.
///
/// Passes BigCrush with 64 bits of state; its main roles here are seeding
/// [`Xoshiro256pp`], splitting one seed into many independent streams,
/// and the small seeded draws of the fault, ECC and traffic models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The golden-ratio increment the state advances by per output.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The `n`-th output (0-based) of the stream seeded with `seed`, in
    /// O(1): the state is a counter, so any position can be jumped to.
    pub fn output_at(seed: u64, n: u64) -> u64 {
        Self::new(seed.wrapping_add(n.wrapping_mul(Self::GAMMA))).next_u64()
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`, keeping the top 53.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ 1.0 (Blackman & Vigna): 256-bit state, 64-bit output.
///
/// The default generator for everything seeded in this workspace. The
/// `rand`-flavored surface ([`Self::seed_from_u64`], [`Self::random_range`],
/// [`Self::shuffle`]) keeps the workload apps' call sites idiomatic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// The workspace-standard RNG, by analogy with `rand::rngs::StdRng`.
pub type StdRng = Xoshiro256pp;

fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64,
    /// as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Returns a uniform integer in `[0, n)` without modulo bias
    /// (Lemire's multiply-shift with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded_u64 requires n > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples uniformly from a range, mirroring `rand`'s `random_range`.
    ///
    /// Supported: half-open and inclusive ranges over `f64` and the common
    /// integer types.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator (stream splitting).
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

/// A range that can be sampled uniformly; the `rand` trait of the same
/// name, reduced to what the workspace uses.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample(self, rng: &mut Xoshiro256pp) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Xoshiro256pp) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard the (measure-zero) rounding case v == end.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut Xoshiro256pp) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {:?}", self);
        lo + rng.next_f64() * (hi - lo)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Xoshiro256pp) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Xoshiro256pp) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {:?}", self);
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span as u64) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c reference implementation.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn splitmix_output_at_jumps_into_the_stream() {
        let mut sm = SplitMix64::new(1234567);
        for n in 0..100 {
            assert_eq!(SplitMix64::output_at(1234567, n), sm.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = rng.random_range(-0.05..0.05);
            assert!((-0.05..0.05).contains(&f));
            let i = rng.random_range(2..8);
            assert!((2..8).contains(&i));
            let u = rng.random_range(0u32..17);
            assert!(u < 17);
            let v = rng.random_range(0.0..=1.0);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.bounded_u64(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements should not shuffle to identity");
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = StdRng::seed_from_u64(11);
        let mut a = parent.split();
        let mut b = parent.split();
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}

//! Minimal offline-compatible subset of the `rand` crate API.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of `rand` 0.8's surface that the DAAKG
//! crates actually use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over integer and float ranges, and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64 — the same construction `rand`'s `SmallRng` family uses — so
//! streams are high-quality and fully deterministic for a given seed. The
//! exact streams differ from upstream `rand`, which is fine: nothing in
//! this workspace depends on upstream byte-for-byte reproducibility, only
//! on *seeded determinism within this codebase*.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Types that can seed themselves from a `u64` (subset of `rand`'s trait).
pub trait SeedableRng: Sized {
    /// Construct a generator from a 64-bit seed, expanding it with
    /// SplitMix64 exactly once per state word.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step, used to expand a small seed into full RNG state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sampling from a range; implemented for the range types the
/// workspace uses (`Range<u32>`, `Range<usize>`, `Range<f32>`, `Range<f64>`).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range using `rng`.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling (Lemire); the tiny modulo
                // bias of the plain variant is irrelevant for ML sampling
                // but the widening-multiply form is bias-free enough and
                // branch-free.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
    )*};
}

int_sample_range!(u32, u64, usize, i32, i64);

macro_rules! float_sample_range {
    ($($t:ty => $bits:expr, $mant:expr),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // Uniform in [0, 1) from the top mantissa bits.
                let unit = (rng.next_u64() >> (64 - $mant)) as $t
                    / (1u64 << $mant) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32 => 32, 24, f64 => 64, 53);

/// The user-facing random-number trait (subset of `rand::Rng`).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform sample from `range` (e.g. `0..n`, `-a..a`).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A uniform `bool` with probability `p` of `true`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen_range(0.0f64..1.0) < p
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence helpers (subset of `rand::seq`).

    use super::Rng;

    /// Slice shuffling and random selection.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` when empty.
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..100 {
            let v: u32 = rng.gen_range(5..6);
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for _ in 0..1000 {
            let v: f32 = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&v));
            min = min.min(v);
            max = max.max(v);
        }
        // The samples should spread across most of the range.
        assert!(min < -1.0 && max > 2.0, "poor spread: [{min}, {max}]");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = [10, 20, 30];
        for _ in 0..20 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}

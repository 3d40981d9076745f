//! Deterministic randomness helpers.
//!
//! TimberWolfSC deliberately randomizes the order in which segments are
//! processed ("to reduce the order dependence of the segments processed").
//! Reproducibility across runs and across rank counts requires every such
//! shuffle to be driven by an explicit, derivable seed.
//!
//! The generator is a self-contained xoshiro256++ (public-domain
//! algorithm by Blackman & Vigna) seeded through SplitMix64, so the
//! workspace carries no external RNG dependency and every stream is
//! bit-stable across platforms and toolchains.

use std::ops::{Bound, RangeBounds};

/// SplitMix64 step: the standard stateless mixer used both for seed
/// expansion and for [`derive_seed`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a per-rank (or per-phase) seed from a master seed.
///
/// Uses SplitMix64 finalization so nearby `(seed, stream)` pairs produce
/// statistically unrelated streams; `derive_seed(s, 0) != s` by design so a
/// rank-0 stream never aliases the master stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The standard deterministic RNG used throughout the router:
/// xoshiro256++ with SplitMix64 seed expansion.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Expand a 64-bit seed into the full generator state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// The raw 64-bit output of one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// An unbiased draw from `[0, span)` (`span >= 1`), via Lemire's
    /// widening-multiply rejection method.
    fn uniform_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span >= 1);
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform draw from an integer range (`lo..hi` or `lo..=hi`).
    /// Panics on an empty range, like `rand`'s `gen_range`.
    pub fn gen_range<T: UniformInt, R: RangeBounds<T>>(&mut self, range: R) -> T {
        T::sample_range(self, range.start_bound(), range.end_bound())
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (`0.0 ..= 1.0`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }
}

/// Integer types [`SmallRng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    fn sample_range(rng: &mut SmallRng, lo: Bound<&Self>, hi: Bound<&Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_range(rng: &mut SmallRng, lo: Bound<&Self>, hi: Bound<&Self>) -> Self {
                let lo = match lo {
                    Bound::Included(&x) => x,
                    Bound::Excluded(&x) => x.checked_add(1).expect("range start overflow"),
                    Bound::Unbounded => <$t>::MIN,
                };
                let hi = match hi {
                    Bound::Included(&x) => x,
                    Bound::Excluded(&x) => x.checked_sub(1).unwrap_or_else(|| panic!("empty range")),
                    Bound::Unbounded => <$t>::MAX,
                };
                assert!(lo <= hi, "empty range {lo}..={hi}");
                // Width of the inclusive range as an unsigned span; the
                // wrapping offset arithmetic is exact for signed types too.
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.uniform_u64(span + 1) as $t)
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Construct the standard deterministic RNG used throughout the router.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Fisher–Yates-shuffle `items` in place: the draws of
/// [`shuffled_indices`] for `items.len()`, so `items` ends as it would
/// mapped through that permutation.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A Fisher–Yates-shuffled permutation of `0..n`.
pub fn shuffled_indices(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut idx, rng);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_seed_differs_per_stream() {
        let s = 42;
        let seeds: HashSet<u64> = (0..64).map(|r| derive_seed(s, r)).collect();
        assert_eq!(seeds.len(), 64, "derived streams must be distinct");
        assert!(
            !seeds.contains(&s),
            "stream 0 must not alias the master seed"
        );
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(99);
        let mut b = rng_from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rng_from_seed(100);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| c.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds_all_types() {
        let mut rng = rng_from_seed(5);
        for _ in 0..2000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-50..=50i64);
            assert!((-50..=50).contains(&w));
            let u = rng.gen_range(0..7usize);
            assert!(u < 7);
        }
    }

    #[test]
    fn gen_range_single_value_range() {
        let mut rng = rng_from_seed(1);
        assert_eq!(rng.gen_range(4..5u32), 4);
        assert_eq!(rng.gen_range(-2..=-2i32), -2);
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = rng_from_seed(8);
        let seen: HashSet<u8> = (0..400).map(|_| rng.gen_range(0..8u8)).collect();
        assert_eq!(seen.len(), 8, "all 8 values appear: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut rng = rng_from_seed(1);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = rng_from_seed(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} near 1/2");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = rng_from_seed(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "≈25 %: {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rng_from_seed(123);
        let p = shuffled_indices(100, &mut rng);
        let set: HashSet<u32> = p.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert_eq!(*set.iter().max().unwrap(), 99);
    }

    #[test]
    fn shuffle_empty_and_single() {
        let mut rng = rng_from_seed(1);
        assert!(shuffled_indices(0, &mut rng).is_empty());
        assert_eq!(shuffled_indices(1, &mut rng), vec![0]);
    }

    #[test]
    fn shuffle_maps_items_through_shuffled_indices() {
        for (seed, n) in [(3, 0), (4, 1), (5, 2), (6, 17), (7, 1000)] {
            // The draws `shuffled_indices` has always made, written out.
            let mut rng = rng_from_seed(seed);
            let mut want: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                want.swap(i, j);
            }
            assert_eq!(shuffled_indices(n, &mut rng_from_seed(seed)), want);
            let items: Vec<(u64, char)> = (0..n as u64).map(|i| (i * i + 3, 'a')).collect();
            let mut shuffled = items.clone();
            shuffle(&mut shuffled, &mut rng_from_seed(seed));
            let mapped: Vec<_> = want.iter().map(|&k| items[k as usize]).collect();
            assert_eq!(shuffled, mapped, "seed {seed}, {n} items");
        }
    }

    #[test]
    fn shuffle_deterministic_per_seed() {
        let a = shuffled_indices(50, &mut rng_from_seed(9));
        let b = shuffled_indices(50, &mut rng_from_seed(9));
        let c = shuffled_indices(50, &mut rng_from_seed(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

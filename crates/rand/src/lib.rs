//! Offline, in-workspace subset of the `rand` 0.8 API.
//!
//! This workspace builds in environments with no access to crates.io, so
//! the handful of `rand` items the repo actually uses are implemented here
//! under the same paths:
//!
//! * [`RngCore`] — the object-safe generator core (`next_u32`/`next_u64`/
//!   `fill_bytes`);
//! * [`Rng`] — the ergonomic extension trait (`gen`, `gen_range`,
//!   `gen_bool`), blanket-implemented for every `RngCore`;
//! * [`SeedableRng`] — byte-seed construction plus `seed_from_u64`;
//! * [`rngs::StdRng`] — a ChaCha12-backed generator matching the upstream
//!   `StdRng` algorithm choice (the *stream* differs from upstream for the
//!   same seed; every consumer in this workspace is self-consistent).
//!
//! Bounded integer sampling uses Lemire's multiply-shift rejection method,
//! which is exact (no modulo bias) and wastes no draws in the common case.
//! Its per-word step is public as [`bounded_accept`], so a loop that
//! buffers raw words ahead of its draws can replay `gen_range` exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: raw 32/64-bit output words.
///
/// Object safe, so processes can take `&mut dyn RngCore`.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator constructible from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The byte-seed type, e.g. `[u8; 32]`.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full byte seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it into a full seed
    /// with SplitMix64 (Steele, Lea, Flood 2014) — every byte of the seed
    /// depends on every bit of `state`.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64::new(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types samplable uniformly from a range by [`Rng::gen_range`].
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)` (`inclusive = false`) or
    /// `[low, high]` (`true`).
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as i128) - (low as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "cannot sample from an empty range");
                // Spans above u64::MAX never occur in this workspace
                // (opinions and indices are far smaller).
                let span = u64::try_from(span).expect("range span fits in u64");
                let offset = bounded_u64(rng, span);
                ((low as i128) + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        _inclusive: bool,
    ) -> Self {
        assert!(low < high, "cannot sample from an empty range");
        let u = standard_f64(rng);
        low + u * (high - low)
    }
}

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_between(rng, start, end, true)
    }
}

/// Types producible by [`Rng::gen`] (the `Standard` distribution of
/// upstream `rand`).
pub trait StandardSample {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        standard_f64(rng)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ergonomic sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the standard distribution of `T` (uniform bits for
    /// integers, `[0, 1)` for `f64`, a fair coin for `bool`).
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform draw from `range` (`a..b` half-open or `a..=b` inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: SampleUniform, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        standard_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform `f64` in `[0, 1)` from the high 53 bits of one output word.
#[inline]
fn standard_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exact uniform draw from `[0, span)` (`span ≥ 1`) via Lemire's
/// multiply-shift with rejection — no modulo bias, one multiplication in
/// the common case.  A span of 1 draws no word at all.
#[inline]
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span >= 1);
    if span == 1 {
        return 0;
    }
    loop {
        if let Some(x) = bounded_accept(rng.next_u64(), span) {
            return x;
        }
    }
}

/// One word of [`Rng::gen_range`]'s integer sampling: the uniform value
/// in `[0, span)` that the raw output word `word` maps to under Lemire's
/// multiply-shift, or `None` if `word` falls in the rejection zone and
/// `gen_range` draws another word.
///
/// For `span ≥ 2`, `gen_range` over a span of `span` values draws words
/// until this accepts one; for `span == 1` it draws no word.  Loops that
/// buffer raw words ahead of their draws use it to map a buffered word to
/// the value `gen_range` will return for it.
///
/// # Examples
///
/// ```
/// use rand::{bounded_accept, Rng, RngCore, SeedableRng};
/// let mut a = rand::rngs::StdRng::seed_from_u64(1);
/// let mut b = a.clone();
/// let x: u64 = a.gen_range(0..10);
/// assert_eq!(bounded_accept(b.next_u64(), 10), Some(x));
/// ```
#[inline]
pub fn bounded_accept(word: u64, span: u64) -> Option<u64> {
    debug_assert!(span >= 1);
    let m = (word as u128) * (span as u128);
    let lo = m as u64;
    // The rejection threshold `2⁶⁴ mod span` is below `span`, so the
    // division is only paid on the rare `lo < span` branch.
    if lo < span && lo < span.wrapping_neg() % span {
        return None;
    }
    Some((m >> 64) as u64)
}

/// SplitMix64 — the seed expander (and the seeder of the workspace's fast
/// generator).  Passes through every 64-bit state exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next output word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (SplitMix64::next_u64(self) >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: ChaCha with 12 rounds — the
    /// same algorithm upstream `rand` 0.8 uses for its `StdRng`, so the
    /// reference simulation path pays a realistic cryptographic-PRNG cost.
    ///
    /// The output stream is *not* byte-identical to upstream `StdRng` for
    /// the same seed (the block-to-word plumbing differs); all consumers
    /// in this workspace only rely on self-consistency.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        /// Key (words 4..12 of the initial state).
        key: [u32; 8],
        /// 64-bit block counter (words 12..14), nonce fixed to zero.
        counter: u64,
        /// Current output block.
        block: [u32; 16],
        /// Next unread word in `block`; 16 ⇒ generate a fresh block.
        index: usize,
    }

    const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    const CHACHA_ROUNDS: usize = 12;

    impl StdRng {
        #[inline]
        fn refill(&mut self) {
            let mut s = [0u32; 16];
            s[0..4].copy_from_slice(&CHACHA_CONSTANTS);
            s[4..12].copy_from_slice(&self.key);
            s[12] = self.counter as u32;
            s[13] = (self.counter >> 32) as u32;
            // s[14], s[15]: zero nonce.
            let mut w = s;
            for _ in 0..CHACHA_ROUNDS / 2 {
                // Column round.
                quarter(&mut w, 0, 4, 8, 12);
                quarter(&mut w, 1, 5, 9, 13);
                quarter(&mut w, 2, 6, 10, 14);
                quarter(&mut w, 3, 7, 11, 15);
                // Diagonal round.
                quarter(&mut w, 0, 5, 10, 15);
                quarter(&mut w, 1, 6, 11, 12);
                quarter(&mut w, 2, 7, 8, 13);
                quarter(&mut w, 3, 4, 9, 14);
            }
            for i in 0..16 {
                self.block[i] = w[i].wrapping_add(s[i]);
            }
            self.counter = self.counter.wrapping_add(1);
            self.index = 0;
        }
    }

    #[inline(always)]
    fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut key = [0u32; 8];
            for (i, chunk) in seed.chunks_exact(4).enumerate() {
                key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            StdRng {
                key,
                counter: 0,
                block: [0; 16],
                index: 16,
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            if self.index >= 16 {
                self.refill();
            }
            let w = self.block[self.index];
            self.index += 1;
            w
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32() as u64;
            let hi = self.next_u32() as u64;
            lo | (hi << 32)
        }
    }
}

/// Re-exports mirroring `rand::prelude`.
pub mod prelude {
    pub use super::{rngs::StdRng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Canonical vectors from the published SplitMix64 algorithm
        // (cross-checked against an independent implementation).
        let mut sm = SplitMix64::new(0);
        let got: Vec<u64> = (0..5).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xe220a8397b1dcdaf,
                0x6e789e6aa1b965f4,
                0x06c45d188009454f,
                0xf88bb8a8724c81ec,
                0x1b39896a51a8749b,
            ]
        );
        let mut sm = SplitMix64::new(42);
        assert_eq!(sm.next_u64(), 0xbdd732262feb6e95);
        assert_eq!(sm.next_u64(), 0x28efe333b266f103);
    }

    #[test]
    fn std_rng_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn std_rng_output_is_balanced() {
        // Crude sanity: bit balance and mean of u01 draws.
        let mut rng = StdRng::seed_from_u64(123);
        let mut ones = 0u64;
        for _ in 0..10_000 {
            ones += rng.next_u64().count_ones() as u64;
        }
        let frac = ones as f64 / (10_000.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.01, "bit fraction {frac}");
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "u01 mean {mean}");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&v));
            let f: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!((0.0..1.0).contains(&f));
            let d: u8 = rng.gen_range(1..=6);
            assert!((1..=6).contains(&d));
        }
    }

    #[test]
    fn bounded_u64_is_unbiased_on_small_spans() {
        // Chi-square-ish check on span 3 (the worst bias case for naive
        // modulo on tiny spans).
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[bounded_u64(&mut rng, 3) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.005, "freq {f}");
        }
    }

    #[test]
    fn per_word_accept_loop_replays_gen_range() {
        // Drawing words until `bounded_accept` takes one (no word for a
        // span of 1) must return `gen_range`'s values and leave the
        // generator at the same position.  Span 2⁶³ + 1 rejects about
        // half its words, so the redraw path is exercised too.
        for span in [1u64, 2, 3, (1 << 63) + 1, u64::MAX] {
            let mut a = StdRng::seed_from_u64(span);
            let mut b = a.clone();
            let mut rejected = 0;
            for _ in 0..2_000 {
                let want: u64 = a.gen_range(0..span);
                let got = if span == 1 {
                    0
                } else {
                    loop {
                        match bounded_accept(b.next_u64(), span) {
                            Some(x) => break x,
                            None => rejected += 1,
                        }
                    }
                };
                assert_eq!(got, want, "span {span}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "span {span}");
            if span == (1 << 63) + 1 {
                assert!(rejected > 500, "only {rejected} rejections");
            }
        }
    }

    #[test]
    fn dyn_rng_core_supports_ext_methods() {
        let mut rng = StdRng::seed_from_u64(1);
        let dynrng: &mut dyn RngCore = &mut rng;
        let v: usize = dynrng.gen_range(0..10);
        assert!(v < 10);
        let _: bool = dynrng.gen();
        let f: f64 = dynrng.gen();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut rng = StdRng::seed_from_u64(2);
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} left all zero");
            }
        }
    }

    #[test]
    fn seed_from_u64_matches_splitmix_expansion() {
        // The seed bytes are the little-endian SplitMix64 stream.
        struct Capture([u8; 32]);
        impl SeedableRng for Capture {
            type Seed = [u8; 32];
            fn from_seed(seed: [u8; 32]) -> Self {
                Capture(seed)
            }
        }
        impl RngCore for Capture {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        let cap = Capture::seed_from_u64(0);
        let mut sm = SplitMix64::new(0);
        let mut expect = [0u8; 32];
        for chunk in expect.chunks_mut(8) {
            chunk.copy_from_slice(&sm.next_u64().to_le_bytes());
        }
        assert_eq!(cap.0, expect);
    }
}

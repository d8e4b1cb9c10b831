//! Property-based tests for the stochastic computing substrate.
//!
//! Deterministic property harness: each property runs over seeded random
//! cases drawn from the workspace RNG, so failures replay exactly.

use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::{basis, BernsteinPoly};
use osc_stochastic::bitstream::BitStream;
use osc_stochastic::lfsr::Lfsr;
use osc_stochastic::polynomial::Polynomial;
use osc_stochastic::resc::ReScUnit;
use osc_stochastic::sng::{
    ChaoticLaserSng, CounterSng, LfsrSng, StochasticNumberGenerator, XoshiroSng,
};

/// Runs `f` over `n` seeded cases.
fn cases(n: u64, mut f: impl FnMut(&mut Xoshiro256PlusPlus)) {
    for case in 0..n {
        let mut rng = Xoshiro256PlusPlus::new(0x5C5C_5C5C ^ case);
        f(&mut rng);
    }
}

fn random_bits(rng: &mut Xoshiro256PlusPlus, len: usize) -> BitStream {
    BitStream::from_fn(len, |_| rng.bernoulli(0.5))
}

/// Every SNG produces streams whose value converges to the requested
/// probability within 5 binomial sigma.
#[test]
fn sng_bias_converges() {
    cases(96, |rng| {
        let p = rng.next_f64();
        let seed = 1 + rng.below(500);
        let len = 8192usize;
        let sigma = (p * (1.0 - p) / len as f64).sqrt();
        let tol = 5.0 * sigma + 0.01;
        let s_l = LfsrSng::new(16, seed as u32 | 1)
            .unwrap()
            .generate(p, len)
            .unwrap();
        assert!((s_l.value() - p).abs() < tol, "lfsr {}", s_l.value());
        let s_c = CounterSng::new().generate(p, len).unwrap();
        assert!((s_c.value() - p).abs() < tol, "counter {}", s_c.value());
        let s_x = XoshiroSng::new(seed).generate(p, len).unwrap();
        assert!((s_x.value() - p).abs() < tol, "xoshiro {}", s_x.value());
    });
}

/// The word-parallel SNG fast paths are bit-identical to the per-bit
/// comparator references, for random probabilities and ragged (non
/// multiple-of-64) tail lengths, and leave the random source in the same
/// state (checked by generating a second stream from each).
#[test]
fn sng_fast_paths_bit_identical_to_reference() {
    cases(48, |rng| {
        let p = rng.next_f64();
        let len = 1 + rng.below(300) as usize;
        let seed = rng.next_u64();

        let mut fast = XoshiroSng::new(seed);
        let mut slow = XoshiroSng::new(seed);
        assert_eq!(
            (
                fast.generate(p, len).unwrap(),
                fast.generate(p, len).unwrap()
            ),
            (
                slow.generate_bitwise(p, len).unwrap(),
                slow.generate_bitwise(p, len).unwrap()
            ),
            "xoshiro p={p}, len={len}"
        );

        let width = 3 + (seed % 30) as u32;
        let mut fast = LfsrSng::new(width, seed as u32).unwrap();
        let mut slow = LfsrSng::new(width, seed as u32).unwrap();
        assert_eq!(
            (
                fast.generate(p, len).unwrap(),
                fast.generate(p, len).unwrap()
            ),
            (
                slow.generate_bitwise(p, len).unwrap(),
                slow.generate_bitwise(p, len).unwrap()
            ),
            "lfsr w={width}, p={p}, len={len}"
        );

        let mut fast = CounterSng::new();
        let mut slow = CounterSng::new();
        for stream in 0..3 {
            assert_eq!(
                fast.generate(p, len).unwrap(),
                slow.generate_bitwise(p, len).unwrap(),
                "counter stream {stream}, p={p}, len={len}"
            );
        }

        let mut fast = ChaoticLaserSng::seeded(seed);
        let mut slow = ChaoticLaserSng::seeded(seed);
        assert_eq!(
            (
                fast.generate(p, len).unwrap(),
                fast.generate(p, len).unwrap()
            ),
            (
                slow.generate_bitwise(p, len).unwrap(),
                slow.generate_bitwise(p, len).unwrap()
            ),
            "chaotic p={p}, len={len}"
        );
    });
}

/// Word-level BitStream construction round-trips against the per-bit
/// views for arbitrary lengths: words()/from_words/push_word/word_chunks
/// and the per-bit iterator all describe the same stream.
#[test]
fn bitstream_word_api_round_trips() {
    cases(64, |rng| {
        let len = 1 + rng.below(400) as usize;
        let s = random_bits(rng, len);
        // words() round-trip.
        let rebuilt = BitStream::from_words(s.words().to_vec(), len);
        assert_eq!(rebuilt, s);
        // word_chunks agrees with words().
        assert_eq!(s.word_chunks().collect::<Vec<_>>(), s.words());
        // Rebuild through randomly sized push_word splices.
        let mut spliced = BitStream::zeros(0);
        let mut bit = 0usize;
        while bit < len {
            let take = (1 + rng.below(64) as usize).min(len - bit);
            let mut w = 0u64;
            for b in 0..take {
                w |= u64::from(s.get(bit + b)) << b;
            }
            spliced.push_word(w, take);
            bit += take;
        }
        assert_eq!(spliced, s);
        // Popcount over words equals count_ones.
        assert_eq!(
            s.words()
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            s.count_ones()
        );
    });
}

/// The word-transposed ReSC datapath matches the per-bit mux reference
/// for random polynomials, inputs and ragged lengths.
#[test]
fn resc_word_kernel_matches_reference() {
    cases(48, |rng| {
        let degree = 1 + rng.below(6) as usize;
        let coeffs: Vec<f64> = (0..=degree).map(|_| rng.next_f64()).collect();
        let unit = ReScUnit::new(BernsteinPoly::new(coeffs).unwrap());
        let len = 1 + rng.below(200) as usize;
        let mut sng = XoshiroSng::new(rng.next_u64());
        let (data, z) = unit
            .generate_streams(rng.next_f64(), len, &mut sng)
            .unwrap();
        assert_eq!(
            unit.run_streams(&data, &z).unwrap(),
            unit.run_streams_bitwise(&data, &z).unwrap(),
            "degree {degree}, len {len}"
        );
    });
}

/// Bernstein evaluation stays inside the coefficient convex hull.
#[test]
fn bernstein_convex_hull() {
    cases(96, |rng| {
        let n = 2 + rng.below(8) as usize;
        let coeffs: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let x = rng.next_f64();
        let p = BernsteinPoly::new(coeffs.clone()).unwrap();
        let v = p.eval(x);
        let lo = coeffs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = coeffs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    });
}

/// Degree elevation preserves the function everywhere.
#[test]
fn elevation_preserves() {
    cases(96, |rng| {
        let n = 2 + rng.below(6) as usize;
        let coeffs: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let x = rng.next_f64();
        let extra = 1 + rng.below(3) as usize;
        let p = BernsteinPoly::new(coeffs).unwrap();
        let q = p.elevate_to(p.degree() + extra);
        assert!((p.eval(x) - q.eval(x)).abs() < 1e-10);
    });
}

/// Basis functions are a partition of unity for any degree and input.
#[test]
fn basis_partition() {
    cases(96, |rng| {
        let n = 1 + rng.below(19) as u32;
        let x = rng.next_f64();
        let sum: f64 = (0..=n).map(|i| basis(i, n, x)).sum();
        assert!((sum - 1.0).abs() < 1e-10);
    });
}

/// Power-form <-> Bernstein is exact for degree up to 6.
#[test]
fn conversion_round_trip() {
    cases(96, |rng| {
        let n = 1 + rng.below(6) as usize;
        let coeffs: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let p = Polynomial::new(coeffs).unwrap();
        let back = Polynomial::from_bernstein(&p.to_bernstein_unchecked()).unwrap();
        for (a, b) in p.coeffs().iter().zip(back.coeffs()) {
            assert!((a - b).abs() < 1e-8);
        }
    });
}

/// AND of independent streams multiplies values (within sampling noise).
#[test]
fn and_multiplies() {
    cases(96, |rng| {
        let pa = rng.range_f64(0.05, 0.95);
        let pb = rng.range_f64(0.05, 0.95);
        let n = 16_384;
        let mut sng = XoshiroSng::new(1 + rng.below(200));
        let a = sng.generate(pa, n).unwrap();
        let b = sng.generate(pb, n).unwrap();
        let prod = a.and(&b).unwrap().value();
        assert!((prod - pa * pb).abs() < 0.03, "prod {prod}");
    });
}

/// LFSR streams are balanced: ones fraction near 1/2 over a period.
#[test]
fn lfsr_balanced() {
    cases(24, |rng| {
        let width = 8 + rng.below(8) as u32;
        let seed = 1 + rng.below(1000) as u32;
        let mut l = Lfsr::new(width, seed).unwrap();
        let period = l.period() as usize;
        let ones = (0..period).filter(|_| l.step()).count();
        // Maximal sequences have 2^(w-1) ones out of 2^w - 1 bits.
        assert_eq!(ones as u64, 1u64 << (width - 1));
    });
}

/// Bit-stream mux never produces more ones than its inputs combined.
#[test]
fn mux_ones_bounded() {
    cases(96, |rng| {
        let a = random_bits(rng, 64);
        let b = random_bits(rng, 64);
        let s = random_bits(rng, 64);
        let out = a.mux(&b, &s).unwrap();
        assert!(out.count_ones() <= a.count_ones() + b.count_ones());
    });
}

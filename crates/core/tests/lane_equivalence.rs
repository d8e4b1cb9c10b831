//! Lane-blocked kernel equivalence: the `[u64; L]` register-group
//! pipeline must be unobservable.
//!
//! [`OpticalScSystem::evaluate_fused_lanes`] runs `L` evaluations in
//! lock-step; every lane must return **exactly** the [`OpticalRun`] a
//! standalone [`OpticalScSystem::evaluate_fused`] produces from the same
//! starting SNG/RNG states — and leave those generators in the same
//! final states. The sweeps cover all four stochastic number generators,
//! L ∈ {1, 2, 4, 8}, odd/ragged/word-aligned lengths, the noisy decision
//! tiers, long streams checked against the per-bit
//! [`OpticalScSystem::evaluate_bitwise`] oracle, and the statistics of
//! [`BatchEvaluator`] lane blocks against one long stream. A separate
//! sweep pins the forced-scalar SIMD dispatch against the
//! machine-detected tier word-for-word.

use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::gamma::{fit_gamma_bernstein, DISPLAY_GAMMA};
use osc_stochastic::simd::{self, SimdTier};
use osc_stochastic::sng::{
    ChaoticLaserSng, CounterSng, LfsrSng, StochasticNumberGenerator, XoshiroSng,
};
use osc_units::{Milliwatts, Nanometers};

fn poly2() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.25, 0.625, 0.75]).expect("coefficients in range")
}

/// The paper's Fig. 5 circuit — mux-exact (tier-1 kernel).
fn clean_system() -> OpticalScSystem {
    OpticalScSystem::new(CircuitParams::paper_fig5(), poly2()).expect("fig5 builds")
}

/// Starved probes — folded probabilities strictly inside (0, 1), so the
/// uniform-draw tier (and per-lane RNG consumption order) is exercised.
fn noisy_system() -> OpticalScSystem {
    let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
    OpticalScSystem::new(params, poly2()).expect("noisy fig5 builds")
}

/// The standalone run each lane of a block is compared against.
#[derive(Clone, Copy)]
enum Oracle {
    /// [`OpticalScSystem::evaluate_fused`], the `L = 1` kernel.
    Fused,
    /// [`OpticalScSystem::evaluate_bitwise`], the per-bit reference.
    Bitwise,
}

/// Runs one lane-blocked evaluation and asserts every lane equal to its
/// standalone `oracle` run — twice in a row, so diverging post-run
/// SNG/RNG states would also be caught.
fn assert_lanes_match_per_lane<const L: usize, S, F>(
    system: &OpticalScSystem,
    make_sng: F,
    len: usize,
    tag: &str,
    oracle: Oracle,
) where
    S: StochasticNumberGenerator,
    F: Fn(usize) -> S,
{
    let xs: [f64; L] = std::array::from_fn(|l| (l as f64 * 0.119 + 0.23) % 1.0);
    let mut blocked_sngs: [S; L] = std::array::from_fn(&make_sng);
    let mut blocked_rngs: [Xoshiro256PlusPlus; L] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(0xAB5EED ^ (l as u64) << 8 ^ len as u64));
    let mut block_scratch = EvalScratch::new();
    let mut lane_scratch = EvalScratch::new();
    for round in 0..2 {
        let blocked = system
            .evaluate_fused_lanes(
                &xs,
                len,
                &mut blocked_sngs,
                &mut blocked_rngs,
                &mut block_scratch,
            )
            .unwrap();
        for l in 0..L {
            // Replay lane l standalone from the same starting states by
            // re-deriving them and fast-forwarding `round` runs.
            let mut sng = make_sng(l);
            let mut rng = Xoshiro256PlusPlus::new(0xAB5EED ^ (l as u64) << 8 ^ len as u64);
            let mut standalone = || {
                match oracle {
                    Oracle::Fused => {
                        system.evaluate_fused(xs[l], len, &mut sng, &mut rng, &mut lane_scratch)
                    }
                    Oracle::Bitwise => system.evaluate_bitwise(xs[l], len, &mut sng, &mut rng),
                }
                .unwrap()
            };
            let mut want = standalone();
            for _ in 0..round {
                want = standalone();
            }
            assert_eq!(blocked[l], want, "{tag}: L={L}, lane {l}, round {round}");
        }
    }
}

/// One full sweep over the four SNGs at a given width and length,
/// every lane against its standalone `oracle` run.
fn sweep_all_sngs<const L: usize>(system: &OpticalScSystem, len: usize, tag: &str, oracle: Oracle) {
    let seed = (L * 1009 + len) as u64;
    assert_lanes_match_per_lane::<L, _, _>(
        system,
        |l| XoshiroSng::new(seed + 31 * l as u64),
        len,
        &format!("{tag} xoshiro"),
        oracle,
    );
    assert_lanes_match_per_lane::<L, _, _>(
        system,
        |l| ChaoticLaserSng::seeded(seed + 17 * l as u64),
        len,
        &format!("{tag} chaotic"),
        oracle,
    );
    assert_lanes_match_per_lane::<L, _, _>(
        system,
        |l| LfsrSng::new(16, 0xACE1 ^ (seed as u32 + 7 * l as u32)).unwrap(),
        len,
        &format!("{tag} lfsr"),
        oracle,
    );
    assert_lanes_match_per_lane::<L, _, _>(
        system,
        |l| {
            // Stagger each lane's Halton position so lanes differ.
            let mut sng = CounterSng::new();
            for _ in 0..l {
                let _ = sng.generate(0.5, 4);
            }
            sng
        },
        len,
        &format!("{tag} counter"),
        oracle,
    );
}

/// Odd, ragged and word-aligned lengths named by the satellite criteria.
const LENGTHS: [usize; 5] = [63, 64, 65, 257, 1001];

#[test]
fn lane_blocked_equals_per_lane_fused_clean() {
    let system = clean_system();
    for &len in &LENGTHS {
        sweep_all_sngs::<1>(&system, len, "clean", Oracle::Fused);
        sweep_all_sngs::<2>(&system, len, "clean", Oracle::Fused);
        sweep_all_sngs::<4>(&system, len, "clean", Oracle::Fused);
        sweep_all_sngs::<8>(&system, len, "clean", Oracle::Fused);
    }
}

#[test]
fn lane_blocked_equals_per_lane_fused_noisy() {
    let system = noisy_system();
    assert!(!system.has_deterministic_decisions());
    for &len in &[63usize, 257, 1001] {
        sweep_all_sngs::<2>(&system, len, "noisy", Oracle::Fused);
        sweep_all_sngs::<8>(&system, len, "noisy", Oracle::Fused);
    }
}

#[test]
fn lane_blocked_equals_bitwise_on_long_streams() {
    // Multi-kilobit streams, word-aligned and ragged: every lane of a
    // block must equal the per-bit oracle, clean and noisy.
    for (tag, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[8192usize, 8257] {
            sweep_all_sngs::<4>(&system, len, tag, Oracle::Bitwise);
            sweep_all_sngs::<8>(&system, len, tag, Oracle::Bitwise);
        }
    }
}

/// The paper's Section V.C gamma circuit: order 6 at 0.165 nm ring
/// spacing — the tier-3 (uniform-draw) path the image pipeline runs.
fn gamma_order6_system() -> OpticalScSystem {
    let poly = fit_gamma_bernstein(DISPLAY_GAMMA, 6).expect("gamma fit");
    OpticalScSystem::new(CircuitParams::paper_fig7(6, Nanometers::new(0.165)), poly)
        .expect("order-6 gamma builds")
}

/// A noisy order-7 circuit: past the vector decision pass's order cap,
/// so it keeps the index-assembly path.
fn noisy_order7_system() -> OpticalScSystem {
    let poly = fit_gamma_bernstein(DISPLAY_GAMMA, 7).expect("gamma fit");
    let params = CircuitParams::paper_fig7(7, Nanometers::new(0.165))
        .with_probe_power(Milliwatts::new(0.05));
    OpticalScSystem::new(params, poly).expect("noisy order-7 builds")
}

/// Runs one 8-lane blocked evaluation under a forced dispatch tier,
/// with optional per-lane faults.
fn run_lanes_under_tier_faulted<S: StochasticNumberGenerator>(
    system: &OpticalScSystem,
    tier: SimdTier,
    make_sng: impl Fn(usize) -> S,
    len: usize,
    faults: Option<&[FaultSpec; 8]>,
) -> [osc_core::system::OpticalRun; 8] {
    simd::set_tier_override(Some(tier));
    let xs: [f64; 8] = std::array::from_fn(|l| l as f64 / 8.0);
    let mut sngs: [S; 8] = std::array::from_fn(&make_sng);
    let mut rngs: [Xoshiro256PlusPlus; 8] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(99 + l as u64));
    let mut scratch = EvalScratch::new();
    let runs = system
        .evaluate_fused_lanes_faulted(&xs, len, &mut sngs, &mut rngs, faults, &mut scratch)
        .unwrap();
    simd::set_tier_override(None);
    runs
}

/// [`run_lanes_under_tier_faulted`] without faults.
fn run_lanes_under_tier<S: StochasticNumberGenerator>(
    system: &OpticalScSystem,
    tier: SimdTier,
    make_sng: impl Fn(usize) -> S,
    len: usize,
) -> [osc_core::system::OpticalRun; 8] {
    run_lanes_under_tier_faulted(system, tier, make_sng, len, None)
}

#[test]
fn forced_scalar_and_detected_simd_agree_word_for_word() {
    // The same lane-blocked workload through the forced-scalar dispatch
    // and through the machine's detected tier must produce identical
    // runs — for every SNG engine family, clean and noisy, at a short
    // length and a ragged multi-chunk one.
    // (The CI dispatch matrix pins the same property across processes
    // via OSC_SIMD; this test pins it in-process via the API switch.
    // Safe under parallel tests: every tier is bit-identical by
    // contract, so racing tests only vary which implementation runs.
    // Note the scalar tier also degrades the L = 8 block to sequential
    // per-lane runs, so this doubles as the degradation-identity check.)
    for (tag, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[257usize, 4097] {
            for tier in [SimdTier::Avx2, simd::detected_tier()] {
                let seed = len as u64;
                assert_eq!(
                    run_lanes_under_tier(
                        &system,
                        SimdTier::Scalar,
                        |l| XoshiroSng::new(seed + l as u64),
                        len
                    ),
                    run_lanes_under_tier(&system, tier, |l| XoshiroSng::new(seed + l as u64), len),
                    "{tag} xoshiro, len {len}, {tier:?}"
                );
                assert_eq!(
                    run_lanes_under_tier(
                        &system,
                        SimdTier::Scalar,
                        |l| ChaoticLaserSng::seeded(seed + l as u64),
                        len
                    ),
                    run_lanes_under_tier(
                        &system,
                        tier,
                        |l| ChaoticLaserSng::seeded(seed + l as u64),
                        len
                    ),
                    "{tag} chaotic, len {len}, {tier:?}"
                );
                assert_eq!(
                    run_lanes_under_tier(
                        &system,
                        SimdTier::Scalar,
                        |l| LfsrSng::new(16, 0xACE1 + l as u32).unwrap(),
                        len
                    ),
                    run_lanes_under_tier(
                        &system,
                        tier,
                        |l| LfsrSng::new(16, 0xACE1 + l as u32).unwrap(),
                        len
                    ),
                    "{tag} lfsr, len {len}, {tier:?}"
                );
                // Fresh counters: every stream set starts on Halton
                // base 2, the vectorized bit-reversal engine's shape.
                assert_eq!(
                    run_lanes_under_tier(&system, SimdTier::Scalar, |_| CounterSng::new(), len),
                    run_lanes_under_tier(&system, tier, |_| CounterSng::new(), len),
                    "{tag} counter, len {len}, {tier:?}"
                );
            }
        }
    }
    // The order-6 gamma circuit (the vector decision pass on tiers that
    // have it) and a noisy order-7 circuit (the index-assembly path), at
    // stream 2048, clean and faulted.
    let order6 = gamma_order6_system();
    let order7 = noisy_order7_system();
    assert!(!order6.has_deterministic_decisions());
    assert!(!order7.has_deterministic_decisions());
    let faults: [FaultSpec; 8] = std::array::from_fn(|l| FaultSpec {
        flip_probability: 0.01,
        shift_probability: 0.001,
        ..FaultSpec::with_seed(mix_seed(0xFA17, l as u64))
    });
    for (tag, system) in [("gamma order 6", &order6), ("noisy order 7", &order7)] {
        for (fault_tag, lane_faults) in [("clean", None), ("faulted", Some(&faults))] {
            let len = 2048;
            let make_sng = |l: usize| XoshiroSng::new(0x6A33A + l as u64);
            let want =
                run_lanes_under_tier_faulted(system, SimdTier::Scalar, make_sng, len, lane_faults);
            for tier in [SimdTier::Avx2, simd::detected_tier()] {
                assert_eq!(
                    run_lanes_under_tier_faulted(system, tier, make_sng, len, lane_faults),
                    want,
                    "{tag} {fault_tag}, {tier:?}"
                );
            }
        }
    }
    // And the raw dispatch primitives agree on every tier for this
    // machine (clamping makes unsupported requests safe).
    let words: Vec<u64> = (0..64u64 * 8)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut want = [0u64; 8];
    simd::popcount_lanes_accumulate_with(SimdTier::Scalar, &words, &mut want);
    for tier in [SimdTier::Avx2, SimdTier::Avx512] {
        let mut got = [0u64; 8];
        simd::popcount_lanes_accumulate_with(tier, &words, &mut got);
        assert_eq!(got, want, "{tier:?}");
    }
}

#[test]
fn parallel_lanes_match_single_lane_statistics() {
    // One item and eight lane-blocked items estimate the same value from
    // the same total bit budget; the eight split it into 1024-slot streams.
    let poly = BernsteinPoly::new(vec![0.2, 0.6, 0.9]).unwrap();
    let system = OpticalScSystem::new(CircuitParams::paper_fig5(), poly).unwrap();
    let batch = BatchEvaluator::new();
    let single = batch
        .evaluate_many(&system, &[0.4], 8192, XoshiroSng::new, 3)
        .unwrap();
    let eight = batch
        .evaluate_many(&system, &[0.4; 8], 1024, XoshiroSng::new, 3)
        .unwrap();
    let mean8 = eight.iter().map(|r| r.estimate).sum::<f64>() / 8.0;
    assert!((single[0].estimate - mean8).abs() < 0.03);
    assert!(eight.iter().all(|r| r.stream_length == 1024));
}

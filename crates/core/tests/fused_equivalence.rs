//! Draw-identity of the fused kernel and its per-bit oracle.
//!
//! [`OpticalScSystem::evaluate_fused`] (streaming, zero-materialization)
//! and [`OpticalScSystem::evaluate_bitwise`] (materialized streams,
//! per-bit decisions) must return
//! the **same** [`OpticalRun`] from the same starting SNG/RNG states —
//! same comparator draws, same receiver-noise draws, same counts. These
//! tests sweep every simulable circuit order (1 through `MAX_SIM_ORDER`),
//! all four stochastic number generators, and ragged / word-aligned /
//! multi-word stream lengths, with one shared [`EvalScratch`] reused
//! across every fused run to exercise scratch reuse between differently
//! shaped systems.

use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalScSystem};
use osc_core::CircuitError;
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{
    ChaoticLaserSng, CounterSng, LfsrSng, StochasticNumberGenerator, XoshiroSng,
};
use osc_units::{Milliwatts, Nanometers};

/// Stream lengths named by the fused-path acceptance criteria: one bit
/// short of a word, exactly one word, one bit over, a prime multi-word
/// length, and a non-multiple-of-64 "round" length.
const LENGTHS: [usize; 5] = [63, 64, 65, 257, 1000];

/// A polynomial of the given degree with varied, non-symmetric
/// coefficients in `[0, 1]`.
fn poly_for(degree: usize) -> BernsteinPoly {
    let coeffs: Vec<f64> = (0..=degree)
        .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0)
        .collect();
    BernsteinPoly::new(coeffs).expect("coefficients in range")
}

/// A simulable system of the given order (Fig. 5 exactly at order 2, the
/// Fig. 7 dense-WDM plan elsewhere).
fn system_for(order: usize) -> OpticalScSystem {
    let params = if order == 2 {
        CircuitParams::paper_fig5()
    } else {
        CircuitParams::paper_fig7(order, Nanometers::new(0.2))
    };
    OpticalScSystem::new(params, poly_for(order)).expect("simulable order builds")
}

/// Runs the fused path and the per-bit oracle from identical starting
/// states and asserts exact equality of the runs — twice in a row, so
/// diverging post-run SNG/RNG states would also be caught.
fn assert_fused_equals_bitwise<S, F>(
    system: &OpticalScSystem,
    scratch: &mut EvalScratch,
    make_sng: F,
    x: f64,
    len: usize,
    tag: &str,
) where
    S: StochasticNumberGenerator,
    F: Fn() -> S,
{
    let mut sng_fused = make_sng();
    let mut sng_bit = make_sng();
    let mut rng_fused = Xoshiro256PlusPlus::new(0xC0FFEE ^ len as u64);
    let mut rng_bit = rng_fused.clone();
    for round in 0..2 {
        let fused = system
            .evaluate_fused(x, len, &mut sng_fused, &mut rng_fused, scratch)
            .unwrap();
        let bit = system
            .evaluate_bitwise(x, len, &mut sng_bit, &mut rng_bit)
            .unwrap();
        assert_eq!(fused, bit, "{tag}: fused vs bitwise, round {round}");
    }
}

/// The full sweep for one system (possibly noisy), all four SNGs at every
/// acceptance length.
fn sweep_all_sngs(system: &OpticalScSystem, scratch: &mut EvalScratch, order: usize, x: f64) {
    for &len in &LENGTHS {
        let seed = (order * 131 + len) as u64;
        assert_fused_equals_bitwise(
            system,
            scratch,
            || XoshiroSng::new(seed),
            x,
            len,
            &format!("xoshiro order={order} len={len}"),
        );
        assert_fused_equals_bitwise(
            system,
            scratch,
            || LfsrSng::new(16, 0xACE1 ^ seed as u32).unwrap(),
            x,
            len,
            &format!("lfsr order={order} len={len}"),
        );
        assert_fused_equals_bitwise(
            system,
            scratch,
            CounterSng::new,
            x,
            len,
            &format!("counter order={order} len={len}"),
        );
        assert_fused_equals_bitwise(
            system,
            scratch,
            || ChaoticLaserSng::seeded(seed),
            x,
            len,
            &format!("chaotic order={order} len={len}"),
        );
    }
}

#[test]
fn fused_equals_materialized_equals_bitwise_across_orders() {
    // One scratch across the entire sweep: orders of different shapes
    // must not leak state through the reused buffers.
    let mut scratch = EvalScratch::new();
    for order in 1..=OpticalScSystem::MAX_SIM_ORDER {
        let system = system_for(order);
        let x = (order as f64 * 0.077 + 0.11) % 1.0;
        sweep_all_sngs(&system, &mut scratch, order, x);
    }
}

#[test]
fn fused_equals_twins_under_visible_noise() {
    // Starved probes push the folded decision probabilities strictly
    // inside (0, 1), so the uniform-draw kernel tier (and its exact RNG
    // consumption order) is exercised across all four SNGs.
    let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
    let system = OpticalScSystem::new(params, poly_for(2)).unwrap();
    assert!(
        !system.has_deterministic_decisions(),
        "noisy config should need draws"
    );
    let mut scratch = EvalScratch::new();
    sweep_all_sngs(&system, &mut scratch, 2, 0.42);
}

#[test]
fn fused_equals_bitwise_on_long_streams() {
    // Multi-kilobit streams, word-aligned and ragged: the identity must
    // hold for every source, in clean and noisy regimes.
    let mut scratch = EvalScratch::new();
    for (label, system) in [
        ("clean", system_for(2)),
        ("noisy", {
            let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
            OpticalScSystem::new(params, poly_for(2)).unwrap()
        }),
        ("order3", system_for(3)),
    ] {
        for &len in &[8192usize, 8257] {
            assert_fused_equals_bitwise(
                &system,
                &mut scratch,
                || XoshiroSng::new(0xBEEF),
                0.37,
                len,
                &format!("{label} xoshiro len={len}"),
            );
            assert_fused_equals_bitwise(
                &system,
                &mut scratch,
                || ChaoticLaserSng::seeded(0xBEEF),
                0.37,
                len,
                &format!("{label} chaotic len={len}"),
            );
            assert_fused_equals_bitwise(
                &system,
                &mut scratch,
                CounterSng::new,
                0.37,
                len,
                &format!("{label} counter len={len}"),
            );
            assert_fused_equals_bitwise(
                &system,
                &mut scratch,
                || LfsrSng::new(16, 0xACE1).unwrap(),
                0.37,
                len,
                &format!("{label} lfsr len={len}"),
            );
        }
    }
}

#[test]
fn fused_rejects_invalid_x_like_the_twins() {
    let system = system_for(2);
    let mut scratch = EvalScratch::new();
    let mut sng = XoshiroSng::new(1);
    let mut rng = Xoshiro256PlusPlus::new(1);
    assert!(system
        .evaluate_fused(1.5, 64, &mut sng, &mut rng, &mut scratch)
        .is_err());
    assert!(system
        .evaluate_fused(f64::NAN, 64, &mut sng, &mut rng, &mut scratch)
        .is_err());
    assert!(matches!(
        system.evaluate(-0.1, 64, &mut sng, &mut rng),
        Err(CircuitError::InvalidStructure(_))
    ));
    assert!(system
        .evaluate_bitwise(1.5, 64, &mut sng, &mut rng)
        .is_err());
    // Rejected before any draw: both generators are still fresh.
    let fresh = system
        .evaluate_fused(
            0.5,
            64,
            &mut XoshiroSng::new(1),
            &mut Xoshiro256PlusPlus::new(1),
            &mut scratch,
        )
        .unwrap();
    let after = system
        .evaluate_fused(0.5, 64, &mut sng, &mut rng, &mut scratch)
        .unwrap();
    assert_eq!(after, fresh);
}

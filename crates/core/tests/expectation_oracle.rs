//! Value oracle: the optical kernels' estimates against the exact
//! expectation [`OpticalScSystem::expected_output`].
//!
//! Every CI `cmp` leg proves that the serving modes, tiers and lane
//! widths *agree*; an identical-and-wrong result passes all of them.
//! This file checks *values*: for every backend, every SNG kind, orders
//! 1..=6 and a clean (saturated-decision) and a noisy (starved-probe)
//! receiver, the mean of `M` items × `N` bits through the lane-blocked
//! batch path must lie within 4σ of the exact mean. Each cycle's decided
//! bit is Bernoulli(`E`), so one item's ones count has variance
//! `N·E(1−E)` — the spread of `E[bit | streams]` (the binomial part)
//! plus the class-2 receiver draws — and σ² of the pooled mean is their
//! sum over items divided by `(M·N)²`.
//!
//! The pseudo-random SNGs (Xoshiro, chaotic laser) must also converge
//! at the Monte-Carlo rate: the RMS item error falls as ~N^-½.
//!
//! Tier 1 runs a reduced grid; the full grid is `#[ignore]`d and runs
//! in release as a CI `test` step:
//! `cargo test --release -p osc-core --test expectation_oracle -- --ignored`.

use osc_core::backend::BackendKind;
use osc_core::batch::shard::{SngKind, LFSR_WIRE_WIDTH};
use osc_core::batch::BatchEvaluator;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::{Milliwatts, Nanometers};

/// An order-`n` circuit on `kind`, clean (paper probe power) or noisy
/// (starved probes, so class-2 draws decide some cycles). The
/// coefficients are spread over the interior of `[0, 1]`, so no
/// coefficient stream is constant.
fn circuit(kind: BackendKind, order: usize, noisy: bool) -> OpticalScSystem {
    let coeffs: Vec<f64> = (0..=order)
        .map(|c| 0.1 + 0.8 * ((c as f64 * 0.618_034 + 0.37) % 1.0))
        .collect();
    let mut params = CircuitParams::paper_fig7(order, Nanometers::new(0.165)).with_backend(kind);
    if noisy {
        params = params.with_probe_power(Milliwatts::new(0.05));
    }
    let system = OpticalScSystem::new(params, BernsteinPoly::new(coeffs).unwrap()).unwrap();
    if noisy {
        assert!(
            !system.has_deterministic_decisions(),
            "{kind} order {order}: starved probes should need draws"
        );
    }
    system
}

/// `m` items spread over the interior of `[0, 1]`, evaluated at `n` bits
/// each through the lane-blocked batch path (item `i` on generators
/// seeded `mix_seed(seed, i)`, the serving tiers' derivation).
fn run_items(
    system: &OpticalScSystem,
    sng: SngKind,
    m: usize,
    n: usize,
    seed: u64,
) -> Vec<(f64, OpticalRun)> {
    let xs: Vec<f64> = (0..m)
        .map(|i| 0.05 + 0.9 * (i as f64 + 0.5) / m as f64)
        .collect();
    let eval = BatchEvaluator::with_threads(1);
    let runs = match sng {
        SngKind::Lfsr => eval.evaluate_many(
            system,
            &xs,
            n,
            |s| LfsrSng::new(LFSR_WIRE_WIDTH, s as u32).unwrap(),
            seed,
        ),
        SngKind::Counter => eval.evaluate_many(system, &xs, n, |_| CounterSng::new(), seed),
        SngKind::Xoshiro => eval.evaluate_many(system, &xs, n, XoshiroSng::new, seed),
        SngKind::Chaotic => eval.evaluate_many(system, &xs, n, ChaoticLaserSng::seeded, seed),
    }
    .unwrap();
    xs.into_iter().zip(runs).collect()
}

/// The pooled mean of `m × n` bits against the exact expectation:
/// returns `(observed − expected) / σ`.
///
/// `CounterSng` ignores the seed: every item replays the same Halton
/// streams, its coefficient streams bit for bit whatever `x` is. Its
/// items are therefore not independent draws, and its pooled mean is
/// held to the σ of one item's `n` bits rather than of `m × n`.
fn pooled_z(system: &OpticalScSystem, sng: SngKind, m: usize, n: usize, seed: u64) -> f64 {
    let (mut ones, mut expected, mut var) = (0.0, 0.0, 0.0);
    for (x, run) in run_items(system, sng, m, n, seed) {
        let e = system.expected_output(x);
        assert!((0.0..=1.0).contains(&e), "expected_output({x}) = {e}");
        ones += run.estimate * n as f64;
        expected += e * n as f64;
        var += n as f64 * e * (1.0 - e);
    }
    if sng == SngKind::Counter {
        var *= m as f64;
    }
    (ones - expected) / var.sqrt()
}

/// Asserts the 4σ bound over a grid of orders, for both backends, all
/// four SNG kinds and both receiver regimes.
fn assert_grid(orders: &[usize], m: usize, n: usize) {
    let mut worst = (0.0f64, String::new());
    for kind in BackendKind::ALL {
        for &order in orders {
            for noisy in [false, true] {
                let system = circuit(kind, order, noisy);
                for sng in SngKind::ALL {
                    let tag = format!(
                        "{kind} order {order} {} {}",
                        if noisy { "noisy" } else { "clean" },
                        sng.name()
                    );
                    let z = pooled_z(&system, sng, m, n, 0x0EAC_1E00 + order as u64);
                    assert!(
                        z.abs() <= 4.0,
                        "{tag}: mean is {z:.2}σ from expected_output"
                    );
                    if z.abs() > worst.0 {
                        worst = (z.abs(), tag);
                    }
                }
            }
        }
    }
    eprintln!("worst |z| = {:.2} ({})", worst.0, worst.1);
}

#[test]
fn expected_output_is_the_polynomial_on_a_mux_exact_circuit() {
    let system = OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap();
    assert!(system.is_mux_exact());
    for x in [0.0, 0.13, 0.5, 0.77, 1.0] {
        let want = system.polynomial().eval(x);
        let got = system.expected_output(x);
        assert!((got - want).abs() < 1e-12, "x={x}: {got} vs {want}");
    }
}

#[test]
fn kernel_means_match_expected_output_reduced_grid() {
    assert_grid(&[1, 3, 6], 16, 512);
}

/// The full grid keeps `N` at 4096 and adds items instead: an item's
/// `2n + 1 ≤ 13` streams then fit inside one period (65535 bits) of the
/// 16-bit wire LFSR. Past it the register repeats, one stream replays
/// another, and the LFSR means leave the 4σ band (at order 4 and
/// `N = 8192` they sit ~29σ off).
#[test]
#[ignore = "full grid: run in release (CI test step)"]
fn kernel_means_match_expected_output_full_grid() {
    assert_grid(&[1, 2, 3, 4, 5, 6], 256, 4096);
}

/// Log-log slope of the RMS item error against the stream length.
fn rms_error_slope(system: &OpticalScSystem, sng: SngKind, m: usize, lens: &[usize]) -> f64 {
    let points: Vec<(f64, f64)> = lens
        .iter()
        .map(|&n| {
            let items = run_items(system, sng, m, n, 0x51_09E + n as u64);
            let mse = items
                .iter()
                .map(|(x, run)| (run.estimate - system.expected_output(*x)).powi(2))
                .sum::<f64>()
                / m as f64;
            ((n as f64).ln(), 0.5 * mse.ln())
        })
        .collect();
    let k = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (mx, my) = (sx / k, sy / k);
    let (num, den) = points.iter().fold((0.0, 0.0), |(a, b), &(x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    num / den
}

#[test]
fn pseudo_random_sngs_converge_at_the_monte_carlo_rate() {
    for kind in BackendKind::ALL {
        for noisy in [false, true] {
            let system = circuit(kind, 2, noisy);
            for sng in [SngKind::Xoshiro, SngKind::Chaotic] {
                let slope = rms_error_slope(&system, sng, 48, &[128, 512, 2048]);
                assert!(
                    (-0.65..=-0.35).contains(&slope),
                    "{kind} {} noisy={noisy}: RMS error slope {slope:.3}, want ~-0.5",
                    sng.name()
                );
            }
        }
    }
}

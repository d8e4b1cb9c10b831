//! Fault-injection accuracy curves — the paper's graceful-degradation
//! story, measured on the order-6 gamma circuit (the Section V.C
//! workload) through the fault-injected fused kernel. The `fault_sweep`
//! binary writes them as CSV; [`check_monotone`] is its
//! `--check-monotone` gate, also run as a test below.
//!
//! Every evaluation derives its fault universe by rebasing one base
//! [`FaultSpec`] per grid index, so a curve is bit-reproducible
//! run-to-run, across dispatch tiers, and independent of iteration
//! order.

use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalScSystem};
use osc_core::CircuitError;
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::gamma::{gamma_exact, DISPLAY_GAMMA};
use osc_stochastic::sng::XoshiroSng;
use osc_units::Nanometers;

/// Bit-flip rates of the `rate` curve, clean baseline first.
pub const RATES: &[f64] = &[0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];

/// Stream lengths of the `length` curve.
pub const LENGTHS: &[usize] = &[256, 512, 1024, 2048, 4096, 8192];

/// The fault rate the `length` curve's faulty leg runs at.
pub const LENGTH_CURVE_RATE: f64 = 0.01;

/// Base seed every grid point's fault universe is rebased from.
const FAULT_SEED: u64 = 0xFA07;

/// Absolute slack the monotonicity check allows between consecutive
/// rate points — covers the sampling noise of a finite MAE estimate
/// without masking a real inversion (the rate-to-rate error growth is
/// an order of magnitude larger on the default grid).
pub const MONOTONE_TOLERANCE: f64 = 5e-4;

/// One curve point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// `rate` or `length`.
    pub curve: &'static str,
    /// Bit-flip probability.
    pub fault_rate: f64,
    /// Bits per stream.
    pub stream_length: usize,
    /// Mean absolute error against exact gamma.
    pub mae: f64,
}

/// The 6th-order paper gamma circuit the curves run on.
///
/// # Errors
///
/// The polynomial fit or the circuit build failing (library invariant).
pub fn gamma_system() -> Result<OpticalScSystem, CircuitError> {
    let poly = osc_apps::gamma_app::paper_gamma_polynomial()
        .map_err(|e| CircuitError::InvalidStructure(format!("gamma fit: {e}")))?;
    OpticalScSystem::new(CircuitParams::paper_fig7(6, Nanometers::new(0.165)), poly)
}

/// Mean absolute error of the fault-injected circuit against exact
/// gamma over `xs` interior inputs × `seeds` seeds at one (rate, stream)
/// point.
///
/// # Errors
///
/// An evaluation failing (invalid stream length).
pub fn sweep_point(
    system: &OpticalScSystem,
    rate: f64,
    stream: usize,
    xs: usize,
    seeds: usize,
) -> Result<f64, CircuitError> {
    let base = FaultSpec::flips(rate, FAULT_SEED);
    let mut scratch = EvalScratch::new();
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..xs {
        // Strictly interior grid: the fitted polynomial's domain.
        let x = (i + 1) as f64 / (xs + 1) as f64;
        let exact = gamma_exact(x, DISPLAY_GAMMA);
        for s in 0..seeds {
            let item = (i * seeds + s) as u64;
            let spec = base.rebased(item);
            let fault = if rate > 0.0 { Some(&spec) } else { None };
            let mut sng = XoshiroSng::new(0xBEEF + item);
            let mut rng = Xoshiro256PlusPlus::new(0xCAFE + item);
            let run = system.evaluate_fused_faulted(
                x,
                stream,
                &mut sng,
                &mut rng,
                fault,
                &mut scratch,
            )?;
            total += (run.estimate - exact).abs();
            count += 1;
        }
    }
    Ok(total / count as f64)
}

/// The `rate` curve: one point per [`RATES`] entry at `stream` bits.
///
/// # Errors
///
/// As [`sweep_point`].
pub fn rate_curve(
    system: &OpticalScSystem,
    stream: usize,
    xs: usize,
    seeds: usize,
) -> Result<Vec<Point>, CircuitError> {
    RATES
        .iter()
        .map(|&rate| {
            Ok(Point {
                curve: "rate",
                fault_rate: rate,
                stream_length: stream,
                mae: sweep_point(system, rate, stream, xs, seeds)?,
            })
        })
        .collect()
}

/// The `length` curve: every [`LENGTHS`] entry at rates 0 and
/// [`LENGTH_CURVE_RATE`].
///
/// # Errors
///
/// As [`sweep_point`].
pub fn length_curve(
    system: &OpticalScSystem,
    xs: usize,
    seeds: usize,
) -> Result<Vec<Point>, CircuitError> {
    let mut points = Vec::new();
    for &length in LENGTHS {
        for rate in [0.0, LENGTH_CURVE_RATE] {
            points.push(Point {
                curve: "length",
                fault_rate: rate,
                stream_length: length,
                mae: sweep_point(system, rate, length, xs, seeds)?,
            });
        }
    }
    Ok(points)
}

/// Checks that the `rate` points of `points` are non-decreasing within
/// [`MONOTONE_TOLERANCE`] — "more faults, more error, never chaos".
///
/// # Errors
///
/// The first inversion, described.
pub fn check_monotone(points: &[Point]) -> Result<(), String> {
    let rate_curve: Vec<&Point> = points.iter().filter(|p| p.curve == "rate").collect();
    for pair in rate_curve.windows(2) {
        if pair[1].mae < pair[0].mae - MONOTONE_TOLERANCE {
            return Err(format!(
                "rate curve not monotone: mae {:.6} at rate {} > mae {:.6} at rate {}",
                pair[0].mae, pair[0].fault_rate, pair[1].mae, pair[1].fault_rate
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_curve_degrades_monotonically() {
        // A reduced grid of the CI sweep (17 inputs × 2 seeds at 1024
        // bits instead of 33 × 8 at 2048), under the same tolerance.
        let system = gamma_system().unwrap();
        let curve = rate_curve(&system, 1024, 17, 2).unwrap();
        check_monotone(&curve).unwrap();
        // The curve actually rises: the worst rate costs real accuracy.
        assert!(curve[RATES.len() - 1].mae > 2.0 * curve[0].mae, "{curve:?}");
    }

    #[test]
    fn check_monotone_rejects_an_inversion() {
        let point = |rate: f64, mae: f64| Point {
            curve: "rate",
            fault_rate: rate,
            stream_length: 64,
            mae,
        };
        assert!(check_monotone(&[point(0.0, 0.01), point(0.1, 0.0101)]).is_ok());
        assert!(check_monotone(&[point(0.0, 0.01), point(0.1, 0.0097)]).is_ok());
        let err = check_monotone(&[point(0.0, 0.01), point(0.1, 0.009)]).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }
}

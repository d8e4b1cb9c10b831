//! # osc-math
//!
//! Numerics substrate for the optical stochastic computing reproduction.
//!
//! The Rust standard library intentionally ships no special functions or
//! optimizers, and the reproduction must stay dependency-light,
//! so this crate provides the small, well-tested numerical toolbox the rest
//! of the workspace builds on:
//!
//! - [`special`]: error functions (`erf`, `erfc`, inverse `erfc`), the
//!   Gaussian Q-function used by the paper's BER model (Eq. 9), and exact
//!   binomial coefficients for Bernstein bases.
//! - [`optimize`]: golden-section line search, grid-with-refinement sweeps
//!   and a compact Nelder–Mead simplex used for device calibration.
//! - [`stats`]: streaming statistics, histograms and quantiles.
//! - [`rng`]: deterministic `SplitMix64` / `Xoshiro256++` generators with
//!   uniform, Bernoulli and Gaussian sampling.
//!
//! # Example
//!
//! Solve the paper's BER target for the required signal-to-noise ratio:
//!
//! ```
//! use osc_math::special::inv_erfc;
//!
//! // BER = 0.5 * erfc(snr / (2 * sqrt(2)))  =>  snr = 2*sqrt(2)*inv_erfc(2*BER)
//! let snr = 2.0 * 2.0_f64.sqrt() * inv_erfc(2.0 * 1e-6);
//! assert!((snr - 9.507).abs() < 0.01);
//! ```

pub mod linalg;
pub mod optimize;
pub mod rng;
pub mod special;
pub mod stats;

/// Relative or absolute closeness check used across the workspace's tests
/// and iterative algorithms.
///
/// Returns `true` when `a` and `b` differ by less than `tol` either
/// absolutely or relative to the larger magnitude.
///
/// ```
/// assert!(osc_math::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!osc_math::approx_eq(1.0, 1.1, 1e-3));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

/// Clamps `x` into `[lo, hi]`.
///
/// Unlike [`f64::clamp`], this never panics: if the bounds are inverted the
/// midpoint of the two is returned, which is the safest behaviour inside
/// optimizer inner loops fed by calibrated (possibly degenerate) intervals.
///
/// ```
/// assert_eq!(osc_math::clamp(5.0, 0.0, 1.0), 1.0);
/// assert_eq!(osc_math::clamp(0.5, 0.0, 1.0), 0.5);
/// ```
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        return 0.5 * (lo + hi);
    }
    x.max(lo).min(hi)
}

/// Linearly spaced grid of `n` points covering `[start, end]` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// ```
/// let g = osc_math::linspace(0.0, 1.0, 5);
/// assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace requires at least one point");
    if n == 1 {
        return vec![start];
    }
    let step = (end - start) / (n - 1) as f64;
    (0..n).map(|i| start + step * i as f64).collect()
}

/// Logarithmically spaced grid of `n` points covering `[start, end]`
/// inclusive; both bounds must be strictly positive.
///
/// # Panics
///
/// Panics if `n == 0` or either bound is non-positive.
///
/// ```
/// let g = osc_math::logspace(1e-6, 1e-2, 3);
/// assert!((g[1] - 1e-4).abs() < 1e-12);
/// ```
pub fn logspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && end > 0.0,
        "logspace requires positive bounds"
    );
    linspace(start.ln(), end.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-6));
        assert!(!approx_eq(1.0, 2.0, 1e-6));
    }

    #[test]
    fn clamp_handles_inverted_bounds() {
        assert_eq!(clamp(3.0, 2.0, 1.0), 1.5);
    }

    #[test]
    fn linspace_endpoints_exact() {
        let g = linspace(-2.0, 7.0, 10);
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], -2.0);
        assert!((g[9] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn linspace_single_point() {
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_zero_points_panics() {
        let _ = linspace(0.0, 1.0, 0);
    }

    #[test]
    fn logspace_is_geometric() {
        let g = logspace(1.0, 100.0, 3);
        assert!(approx_eq(g[1], 10.0, 1e-12));
    }
}

//! Gamma correction as a Bernstein workload (paper Section V.C).
//!
//! Gamma correction maps pixel intensity `x ∈ [0,1]` to `x^γ` (γ = 0.45
//! for standard display encoding). The map is not polynomial, so the ReSC
//! flow (after Qian et al. \[9\]) approximates it with a degree-6 Bernstein
//! polynomial — the workload the paper uses to claim a 10× speedup of the
//! 1 GHz optical circuit over the 100 MHz CMOS unit.
//!
//! The fit minimizes least-squares error over a uniform sample of `[0,1]`
//! subject to post-hoc clamping into `[0, 1]` (the coefficients must be
//! probabilities). For `x^0.45` the unclamped fit already lands inside the
//! unit interval.

use crate::bernstein::{basis, BernsteinPoly};
use crate::ScError;
use osc_math::linalg::Matrix;

/// The display-standard gamma exponent used in the paper's application.
pub const DISPLAY_GAMMA: f64 = 0.45;

/// The polynomial degree the paper quotes for gamma correction.
pub const PAPER_GAMMA_DEGREE: usize = 6;

/// Exact gamma map `x^gamma` (clamped input).
pub fn gamma_exact(x: f64, gamma: f64) -> f64 {
    x.clamp(0.0, 1.0).powf(gamma)
}

/// Least-squares Bernstein fit of `x^gamma` at the given degree, with the
/// coefficients constrained to `[0, 1]` (they must be SC-encodable
/// probabilities).
///
/// When the unconstrained solution already satisfies the box it is used
/// directly; otherwise the convex program `min ‖A b − y‖² s.t. 0 ≤ b ≤ 1`
/// is solved by projected gradient descent — naive clamping of the
/// unconstrained solution can be arbitrarily bad for higher degrees, where
/// the origin singularity of `x^γ` makes the raw coefficients oscillate
/// outside the box.
///
/// # Errors
///
/// [`ScError::Empty`] only for pathological internal states (not reachable
/// through the public parameters).
///
/// # Panics
///
/// Panics if `gamma` is not strictly positive.
pub fn fit_gamma_bernstein(gamma: f64, degree: usize) -> Result<BernsteinPoly, ScError> {
    assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
    let samples = 256usize.max(4 * (degree + 1));
    let n = degree as u32;
    let design = Matrix::from_fn(samples, degree + 1, |row, col| {
        let x = row as f64 / (samples - 1) as f64;
        basis(col as u32, n, x)
    });
    let target: Vec<f64> = (0..samples)
        .map(|row| gamma_exact(row as f64 / (samples - 1) as f64, gamma))
        .collect();
    let raw = design
        .least_squares(&target)
        .expect("gamma design matrix is full rank");
    if raw.iter().all(|c| (0.0..=1.0).contains(c)) {
        return BernsteinPoly::new(raw);
    }
    let constrained = box_constrained_least_squares(&design, &target, &raw);
    BernsteinPoly::new(constrained)
}

/// Solves `min ‖A b − y‖²` subject to `0 ≤ b ≤ 1` by projected gradient
/// descent with a power-iteration Lipschitz estimate. The problem is a
/// small convex QP (dimension = degree + 1), so a few thousand cheap
/// iterations reach machine-level stationarity.
fn box_constrained_least_squares(design: &Matrix, target: &[f64], warm_start: &[f64]) -> Vec<f64> {
    let at = design.transpose();
    let ata = at.mul(design).expect("dimensions agree");
    let atb = at.mul_vec(target).expect("dimensions agree");
    let dim = atb.len();

    // Largest eigenvalue of AᵀA by power iteration (Lipschitz constant of
    // the gradient).
    let mut v = vec![1.0 / (dim as f64).sqrt(); dim];
    let mut lipschitz = 1.0;
    for _ in 0..60 {
        let w = ata.mul_vec(&v).expect("square");
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            break;
        }
        lipschitz = norm;
        v = w.into_iter().map(|x| x / norm).collect();
    }
    let step = 1.0 / lipschitz.max(1e-12);

    let mut b: Vec<f64> = warm_start.iter().map(|c| c.clamp(0.0, 1.0)).collect();
    for _ in 0..5_000 {
        let grad: Vec<f64> = {
            let ab = ata.mul_vec(&b).expect("square");
            ab.iter().zip(&atb).map(|(p, q)| p - q).collect()
        };
        let mut moved = 0.0;
        for i in 0..dim {
            let next = (b[i] - step * grad[i]).clamp(0.0, 1.0);
            moved += (next - b[i]).abs();
            b[i] = next;
        }
        if moved < 1e-14 {
            break;
        }
    }
    b
}

/// Maximum absolute approximation error of a fitted polynomial against the
/// exact gamma map, over a dense grid on `[0, 1]`.
///
/// Note: `x^0.45` has infinite slope at the origin, so the maximum for any
/// finite-degree polynomial is pinned near `x = 0`; use
/// [`fit_error_from`] to measure the bulk-region error instead.
pub fn fit_error(poly: &BernsteinPoly, gamma: f64) -> f64 {
    fit_error_from(poly, gamma, 0.0)
}

/// Maximum absolute approximation error over `[x_min, 1]` — the metric
/// that matters for image pixels, which are quantized away from zero.
pub fn fit_error_from(poly: &BernsteinPoly, gamma: f64, x_min: f64) -> f64 {
    (0..=1000)
        .filter_map(|i| {
            let x = i as f64 / 1000.0;
            (x >= x_min).then(|| (poly.eval(x) - gamma_exact(x, gamma)).abs())
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gamma_endpoints() {
        assert_eq!(gamma_exact(0.0, DISPLAY_GAMMA), 0.0);
        assert_eq!(gamma_exact(1.0, DISPLAY_GAMMA), 1.0);
        assert!(gamma_exact(0.5, DISPLAY_GAMMA) > 0.5); // gamma < 1 brightens
        assert_eq!(gamma_exact(-2.0, DISPLAY_GAMMA), 0.0);
        assert_eq!(gamma_exact(7.0, DISPLAY_GAMMA), 1.0);
    }

    #[test]
    fn degree6_fit_is_tight_away_from_origin() {
        let p = fit_gamma_bernstein(DISPLAY_GAMMA, PAPER_GAMMA_DEGREE).unwrap();
        assert_eq!(p.degree(), 6);
        // x^0.45 has infinite slope at 0, so a degree-6 polynomial cannot
        // be uniformly tight there; check the bulk of the domain.
        for i in 5..=100 {
            let x = i as f64 / 100.0;
            let err = (p.eval(x) - gamma_exact(x, DISPLAY_GAMMA)).abs();
            assert!(err < 0.04, "x={x}: err={err}");
        }
    }

    #[test]
    fn fit_coefficients_are_probabilities() {
        let p = fit_gamma_bernstein(DISPLAY_GAMMA, PAPER_GAMMA_DEGREE).unwrap();
        for &c in p.coeffs() {
            assert!((0.0..=1.0).contains(&c), "coeffs {:?}", p.coeffs());
        }
        // Endpoint coefficients track the function endpoints: b_n ≈ 1
        // (gamma(1) = 1); b_0 stays small (gamma(0) = 0, inflated only by
        // the infinite slope at the origin).
        let coeffs = p.coeffs();
        assert!(coeffs[coeffs.len() - 1] > 0.9);
        assert!(coeffs[0] < 0.3);
    }

    #[test]
    fn higher_degree_fits_better_in_bulk() {
        // Away from the infinite-slope origin, degree helps monotonically.
        let e4 = fit_error_from(
            &fit_gamma_bernstein(DISPLAY_GAMMA, 4).unwrap(),
            DISPLAY_GAMMA,
            0.05,
        );
        let e10 = fit_error_from(
            &fit_gamma_bernstein(DISPLAY_GAMMA, 10).unwrap(),
            DISPLAY_GAMMA,
            0.05,
        );
        assert!(e10 < e4, "e10 {e10} vs e4 {e4}");
    }

    #[test]
    fn gamma_one_is_identity() {
        let p = fit_gamma_bernstein(1.0, 3).unwrap();
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((p.eval(x) - x).abs() < 1e-6, "x={x} -> {}", p.eval(x));
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn rejects_nonpositive_gamma() {
        let _ = fit_gamma_bernstein(0.0, 6);
    }

    #[test]
    fn fit_error_metric_consistency() {
        let p = fit_gamma_bernstein(DISPLAY_GAMMA, PAPER_GAMMA_DEGREE).unwrap();
        let e = fit_error(&p, DISPLAY_GAMMA);
        assert!(e > 0.0 && e < 0.25, "e = {e}");
    }
}

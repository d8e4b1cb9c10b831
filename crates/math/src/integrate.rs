//! Numerical quadrature.
//!
//! Composite Simpson rule for smooth integrands, such as the energy
//! `∫P(t)dt` of a pump pulse.

/// Composite Simpson integration of `f` over `[a, b]` with `n` panels
/// (`n` is rounded up to the next even number).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// ```
/// let v = osc_math::integrate::simpson(|x: f64| x.sin(), 0.0, std::f64::consts::PI, 64);
/// assert!((v - 2.0).abs() < 1e-6);
/// ```
pub fn simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(n > 0, "simpson needs at least one panel");
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for i in 1..n {
        let x = a + h * i as f64;
        acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    acc * h / 3.0
}

/// Trapezoid rule over tabulated samples `(x_i, y_i)`; the abscissae need
/// not be uniform but must be sorted ascending.
///
/// Returns 0 for fewer than two samples.
pub fn trapezoid_samples(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    points
        .windows(2)
        .map(|w| 0.5 * (w[1].0 - w[0].0) * (w[1].1 + w[0].1))
        .sum()
}

/// Adaptive Simpson integration to absolute tolerance `tol`.
///
/// Recursion depth is bounded; the method falls back to the best estimate
/// when the bound is hit (smooth integrands in this workspace never do).
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(f: &mut F, a: f64, b: f64, tol: f64) -> f64 {
    #[allow(clippy::too_many_arguments)] // recursion state is clearest spelled out
    fn recurse<F: FnMut(f64) -> f64>(
        f: &mut F,
        a: f64,
        fa: f64,
        b: f64,
        fb: f64,
        whole: f64,
        tol: f64,
        depth: usize,
    ) -> f64 {
        let m = 0.5 * (a + b);
        let fm = f(m);
        let lm = 0.5 * (a + m);
        let rm = 0.5 * (m + b);
        let flm = f(lm);
        let frm = f(rm);
        let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
        let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
        let split = left + right;
        if depth == 0 || (split - whole).abs() <= 15.0 * tol {
            split + (split - whole) / 15.0
        } else {
            recurse(f, a, fa, m, fm, left, tol / 2.0, depth - 1)
                + recurse(f, m, fm, b, fb, right, tol / 2.0, depth - 1)
        }
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
    recurse(f, a, fa, b, fb, whole, tol, 40)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact for cubics.
        let v = simpson(|x| x * x * x - x, 0.0, 2.0, 2);
        assert!((v - (4.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn simpson_rounds_odd_panels_up() {
        let v = simpson(|x| x, 0.0, 1.0, 3);
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simpson_gaussian_pulse_energy() {
        // A Gaussian power pulse of peak 1 and sigma s carries s*sqrt(2*pi).
        let sigma = 26e-12 / (2.0 * (2.0 * (2.0_f64).ln()).sqrt()); // FWHM 26 ps
        let energy = simpson(
            |t: f64| (-(t * t) / (2.0 * sigma * sigma)).exp(),
            -2e-10,
            2e-10,
            4000,
        );
        let expect = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!((energy - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn trapezoid_on_samples() {
        let pts = [(0.0, 0.0), (1.0, 1.0), (3.0, 1.0)];
        assert!((trapezoid_samples(&pts) - 2.5).abs() < 1e-12);
        assert_eq!(trapezoid_samples(&pts[..1]), 0.0);
    }

    #[test]
    fn adaptive_simpson_oscillatory() {
        let v = adaptive_simpson(&mut |x: f64| (10.0 * x).sin(), 0.0, 1.0, 1e-10);
        let expect = (1.0 - (10.0_f64).cos()) / 10.0;
        assert!((v - expect).abs() < 1e-8);
    }

    #[test]
    fn adaptive_simpson_matches_fixed() {
        let a = adaptive_simpson(&mut |x: f64| x.exp(), 0.0, 1.0, 1e-12);
        let b = simpson(|x: f64| x.exp(), 0.0, 1.0, 2048);
        assert!((a - b).abs() < 1e-9);
        assert!((a - (std::f64::consts::E - 1.0)).abs() < 1e-10);
    }
}

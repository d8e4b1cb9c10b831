//! Special functions: error function family, Gaussian tail probabilities,
//! and binomial coefficients.
//!
//! The BER model of the paper (Eq. 9) is `BER = 0.5 * erfc(SNR / (2*sqrt(2)))`
//! for on/off-keyed probe signals; inverting it for a target BER is the core
//! of the minimum-laser-power design methods, so [`erfc`] and [`inv_erfc`]
//! are the most heavily exercised routines in the workspace.

/// The constant `2/sqrt(pi)`, the derivative of `erf` at zero.
pub const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;

/// Chebyshev coefficients for the complementary error function fit used by
/// [`erfc`]; accurate to roughly 1e-10 relative error over the full range.
const ERFC_COF: [f64; 28] = [
    -1.3026537197817094,
    6.419_697_923_564_902e-1,
    1.9476473204185836e-2,
    -9.561_514_786_808_63e-3,
    -9.46595344482036e-4,
    3.66839497852761e-4,
    4.2523324806907e-5,
    -2.0278578112534e-5,
    -1.624290004647e-6,
    1.303655835580e-6,
    1.5626441722e-8,
    -8.5238095915e-8,
    6.529054439e-9,
    5.059343495e-9,
    -9.91364156e-10,
    -2.27365122e-10,
    9.6467911e-11,
    2.394038e-12,
    -6.886027e-12,
    8.94487e-13,
    3.13092e-13,
    -1.12708e-13,
    3.81e-16,
    7.106e-15,
    -1.523e-15,
    -9.4e-17,
    1.21e-16,
    -2.8e-17,
];

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Implemented with a Chebyshev fit on a transformed argument (the classic
/// `erfcc` routine), giving ~1e-10 relative accuracy — far tighter than any
/// device tolerance in the photonic models.
///
/// ```
/// assert!((osc_math::special::erfc(0.0) - 1.0).abs() < 1e-12);
/// assert!(osc_math::special::erfc(10.0) < 1e-40);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0_f64;
    let mut dd = 0.0_f64;
    for j in (1..ERFC_COF.len()).rev() {
        let tmp = d;
        d = ty * d - dd + ERFC_COF[j];
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (ERFC_COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x)`.
///
/// ```
/// assert!((osc_math::special::erf(1.0) - 0.8427007929497149).abs() < 1e-9);
/// ```
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Inverse complementary error function: returns `x` such that
/// `erfc(x) == p` for `p` in `(0, 2)`.
///
/// Uses a rational initial guess followed by two Halley refinement steps;
/// the result round-trips through [`erfc`] to ~1e-12 relative accuracy for
/// the BER range the paper uses (1e-2 down to 1e-9).
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 2)`.
///
/// ```
/// use osc_math::special::{erfc, inv_erfc};
/// let x = inv_erfc(2e-6);
/// assert!((erfc(x) - 2e-6).abs() / 2e-6 < 1e-9);
/// ```
pub fn inv_erfc(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 2.0,
        "inv_erfc argument must lie in (0, 2), got {p}"
    );
    let pp = if p < 1.0 { p } else { 2.0 - p };
    let t = (-2.0 * (pp / 2.0).ln()).sqrt();
    let mut x = -std::f64::consts::FRAC_1_SQRT_2
        * ((2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t);
    for _ in 0..2 {
        let err = erfc(x) - pp;
        x += err / (TWO_OVER_SQRT_PI * (-x * x).exp() - x * err);
    }
    if p < 1.0 {
        x
    } else {
        -x
    }
}

/// Gaussian tail probability `Q(x) = P[N(0,1) > x] = 0.5 * erfc(x/sqrt(2))`.
///
/// ```
/// assert!((osc_math::special::gaussian_q(0.0) - 0.5).abs() < 1e-12);
/// ```
pub fn gaussian_q(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse Gaussian tail probability: `x` such that `Q(x) == p`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn inv_gaussian_q(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inv_gaussian_q needs p in (0,1)");
    std::f64::consts::SQRT_2 * inv_erfc(2.0 * p)
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    1.0 - gaussian_q(x)
}

/// Exact binomial coefficient C(n, k) as `u128`.
///
/// Exact for every Bernstein degree the reproduction can reasonably use
/// (overflow-free well past n = 120 for central coefficients up to u128
/// limits; computed with interleaved division so intermediates stay exact).
///
/// # Panics
///
/// Panics on internal overflow (n larger than ~128 with central k).
///
/// ```
/// assert_eq!(osc_math::special::binomial(6, 3), 20);
/// assert_eq!(osc_math::special::binomial(16, 8), 12870);
/// ```
pub fn binomial(n: u32, k: u32) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k as u128 {
        acc = acc
            .checked_mul(n as u128 - i)
            .expect("binomial coefficient overflowed u128");
        acc /= i + 1;
    }
    acc
}

/// Binomial coefficient as `f64`, for use inside polynomial evaluation
/// where the result immediately multiplies other floats.
pub fn binomial_f64(n: u32, k: u32) -> f64 {
    binomial(n, k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference erf values from Abramowitz & Stegun, Table 7.1.
    const ERF_TABLE: [(f64, f64); 8] = [
        (0.0, 0.0),
        (0.1, 0.1124629160),
        (0.5, 0.5204998778),
        (1.0, 0.8427007929),
        (1.5, 0.9661051465),
        (2.0, 0.9953222650),
        (3.0, 0.9999779095),
        (4.0, 0.9999999846),
    ];

    #[test]
    fn erf_matches_reference_table() {
        for &(x, want) in &ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 5e-10, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in &ERF_TABLE {
            assert!((erf(-x) + erf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-3.0, -1.0, 0.0, 0.3, 1.7, 4.2] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_deep_tail_positive_and_tiny() {
        let v = erfc(6.0);
        assert!(v > 0.0 && v < 1e-15);
        // Known value: erfc(6) = 2.1519736712498913e-17
        assert!((v - 2.1519736712498913e-17).abs() / 2.1519736712498913e-17 < 1e-6);
    }

    #[test]
    fn inv_erfc_round_trips_across_ber_range() {
        for p in [2e-2, 2e-4, 2e-6, 2e-8, 0.5, 1.0, 1.5] {
            let x = inv_erfc(p);
            let back = erfc(x);
            assert!(
                (back - p).abs() / p < 1e-9,
                "round trip failed for p={p}: x={x}, erfc(x)={back}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 2)")]
    fn inv_erfc_rejects_out_of_range() {
        let _ = inv_erfc(2.5);
    }

    #[test]
    fn gaussian_q_known_values() {
        // Q(1.2815515655) ~= 0.10
        assert!((gaussian_q(1.2815515655) - 0.10).abs() < 1e-9);
        // Q(3.0902323062) ~= 1e-3
        assert!((gaussian_q(3.0902323062) - 1e-3).abs() < 1e-11);
    }

    #[test]
    fn inv_gaussian_q_round_trip() {
        for p in [0.4, 0.1, 1e-3, 1e-6] {
            assert!((gaussian_q(inv_gaussian_q(p)) - p).abs() / p < 1e-9);
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        for x in [0.0, 0.5, 1.0, 2.5] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_small_cases() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 6), 0);
    }

    #[test]
    fn binomial_row_sums_to_power_of_two() {
        for n in [4u32, 10, 20, 30] {
            let sum: u128 = (0..=n).map(|k| binomial(n, k)).sum();
            assert_eq!(sum, 1u128 << n);
        }
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..25u32 {
            for k in 1..n {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
        }
    }

    #[test]
    fn snr_for_ber_target_matches_paper_scale() {
        // Eq. (9): BER = 0.5*erfc(SNR/(2 sqrt 2)). For BER 1e-6 the required
        // SNR is ~9.51; for 1e-2 it is ~4.65 (the source of the paper's
        // "50% power reduction" claim in Fig. 6(b)).
        let snr6 = 2.0 * std::f64::consts::SQRT_2 * inv_erfc(2e-6);
        let snr2 = 2.0 * std::f64::consts::SQRT_2 * inv_erfc(2e-2);
        assert!((snr6 - 9.507).abs() < 0.01, "snr6={snr6}");
        assert!((snr2 - 4.652).abs() < 0.01, "snr2={snr2}");
        assert!((snr2 / snr6 - 0.489).abs() < 0.01);
    }
}

//! Bernstein polynomials (paper Eq. 1).
//!
//! `B(x) = Σ_{i=0}^{n} b_i · B_{i,n}(x)` with basis
//! `B_{i,n}(x) = C(n,i) x^i (1−x)^{n−i}`.
//!
//! The stochastic interpretation is what makes the ReSC architecture work:
//! if `n` independent bits each equal 1 with probability `x`, then the
//! *count* of ones is `i` with probability exactly `B_{i,n}(x)` — so a
//! multiplexer selecting coefficient stream `z_i` when the count is `i`
//! outputs ones with probability `B(x)`.

use crate::{check_unit, ScError};
use osc_math::special::binomial_f64;

/// Bernstein basis polynomial `B_{i,n}(x) = C(n,i) x^i (1−x)^(n−i)`.
///
/// # Panics
///
/// Panics if `i > n`.
///
/// ```
/// use osc_stochastic::bernstein::basis;
/// // B_{1,2}(0.5) = 2 * 0.5 * 0.5 = 0.5
/// assert!((basis(1, 2, 0.5) - 0.5).abs() < 1e-12);
/// ```
pub fn basis(i: u32, n: u32, x: f64) -> f64 {
    assert!(i <= n, "basis index {i} exceeds degree {n}");
    binomial_f64(n, i) * x.powi(i as i32) * (1.0 - x).powi((n - i) as i32)
}

/// Runs de Casteljau's recurrence on `beta` in place and returns the
/// value at `x`.
fn de_casteljau(beta: &mut [f64], x: f64) -> f64 {
    let n = beta.len();
    for j in 1..n {
        for k in 0..n - j {
            beta[k] = beta[k] * (1.0 - x) + beta[k + 1] * x;
        }
    }
    beta[0]
}

/// A Bernstein-form polynomial whose coefficients are probabilities,
/// i.e. directly implementable in stochastic logic.
#[derive(Debug, Clone, PartialEq)]
pub struct BernsteinPoly {
    coeffs: Vec<f64>,
}

impl BernsteinPoly {
    /// Creates a Bernstein polynomial from coefficients `b_0 … b_n`.
    ///
    /// # Errors
    ///
    /// [`ScError::Empty`] without coefficients;
    /// [`ScError::OutOfUnitRange`] if any coefficient leaves `[0, 1]` (SC
    /// streams cannot encode it).
    pub fn new(coeffs: Vec<f64>) -> Result<Self, ScError> {
        if coeffs.is_empty() {
            return Err(ScError::Empty("bernstein coefficients"));
        }
        for &c in &coeffs {
            check_unit("bernstein coefficient", c)?;
        }
        Ok(BernsteinPoly { coeffs })
    }

    /// The paper's Fig. 1(b) example with coefficients (2/8, 5/8, 3/8, 6/8).
    pub fn paper_f1() -> Self {
        BernsteinPoly {
            coeffs: vec![0.25, 0.625, 0.375, 0.75],
        }
    }

    /// Coefficients `b_0 … b_n`.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Polynomial degree `n`.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Highest degree [`BernsteinPoly::eval`] runs in a stack array; it
    /// allocates above. Covers every order the optical system simulates
    /// (`osc_core`'s `MAX_SIM_ORDER`).
    pub const MAX_STACK_DEGREE: usize = 12;

    /// Evaluates via the numerically stable de Casteljau recurrence.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.coeffs.len();
        if n <= Self::MAX_STACK_DEGREE + 1 {
            let mut beta = [0.0; Self::MAX_STACK_DEGREE + 1];
            beta[..n].copy_from_slice(&self.coeffs);
            de_casteljau(&mut beta[..n], x)
        } else {
            de_casteljau(&mut self.coeffs.clone(), x)
        }
    }

    /// Evaluates by direct basis summation (cross-check for de Casteljau).
    pub fn eval_basis_sum(&self, x: f64) -> f64 {
        let n = self.degree() as u32;
        self.coeffs
            .iter()
            .enumerate()
            .map(|(i, &b)| b * basis(i as u32, n, x))
            .sum()
    }

    /// Degree elevation: returns an equivalent polynomial of degree
    /// `n + 1`. Elevation preserves the function and keeps coefficients
    /// inside the convex hull, so the result is always SC-encodable if the
    /// input was.
    pub fn elevate(&self) -> BernsteinPoly {
        let n = self.degree();
        let mut out = Vec::with_capacity(n + 2);
        out.push(self.coeffs[0]);
        for i in 1..=n {
            let t = i as f64 / (n + 1) as f64;
            out.push(t * self.coeffs[i - 1] + (1.0 - t) * self.coeffs[i]);
        }
        out.push(self.coeffs[n]);
        BernsteinPoly { coeffs: out }
    }

    /// Elevates repeatedly until the polynomial has degree `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is below the current degree.
    pub fn elevate_to(&self, target: usize) -> BernsteinPoly {
        assert!(
            target >= self.degree(),
            "cannot lower degree {} to {target}",
            self.degree()
        );
        let mut p = self.clone();
        while p.degree() < target {
            p = p.elevate();
        }
        p
    }

    /// The convex-hull bounds of the polynomial over `[0, 1]`:
    /// `min(b_i) ≤ B(x) ≤ max(b_i)`.
    pub fn coefficient_bounds(&self) -> (f64, f64) {
        let lo = self.coeffs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .coeffs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_bit_identical_to_the_cloning_recurrence() {
        // The recurrence on a clone of the coefficients, as `eval` ran
        // before it moved to a stack array.
        fn cloned(p: &BernsteinPoly, x: f64) -> f64 {
            let mut beta = p.coeffs.clone();
            let n = beta.len();
            for j in 1..n {
                for k in 0..n - j {
                    beta[k] = beta[k] * (1.0 - x) + beta[k + 1] * x;
                }
            }
            beta[0]
        }
        let mut rng = osc_math::rng::Xoshiro256PlusPlus::new(0xB_E25);
        for degree in 0..=16 {
            let p = BernsteinPoly::new((0..=degree).map(|_| rng.next_f64()).collect()).unwrap();
            for i in 0..=64 {
                let x = i as f64 / 64.0;
                for x in [x, (x + rng.next_f64() / 64.0).min(1.0)] {
                    assert_eq!(
                        p.eval(x).to_bits(),
                        cloned(&p, x).to_bits(),
                        "degree {degree}, x {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn basis_partition_of_unity() {
        for n in [1u32, 2, 3, 6, 10] {
            for x in [0.0, 0.2, 0.5, 0.77, 1.0] {
                let sum: f64 = (0..=n).map(|i| basis(i, n, x)).sum();
                assert!((sum - 1.0).abs() < 1e-12, "n={n}, x={x}");
            }
        }
    }

    #[test]
    fn basis_endpoint_interpolation() {
        assert_eq!(basis(0, 3, 0.0), 1.0);
        assert_eq!(basis(3, 3, 1.0), 1.0);
        assert_eq!(basis(1, 3, 0.0), 0.0);
    }

    #[test]
    fn basis_is_binomial_pmf() {
        // B_{i,n}(x) equals the binomial PMF P[Bin(n, x) = i].
        let (n, x) = (6u32, 0.3);
        let pmf2: f64 = basis(2, n, x);
        let expect = 15.0 * 0.3f64.powi(2) * 0.7f64.powi(4);
        assert!((pmf2 - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds degree")]
    fn basis_index_checked() {
        let _ = basis(4, 3, 0.5);
    }

    #[test]
    fn de_casteljau_matches_basis_sum() {
        let p = BernsteinPoly::paper_f1();
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            assert!((p.eval(x) - p.eval_basis_sum(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_f1_known_values() {
        let p = BernsteinPoly::paper_f1();
        assert!((p.eval(0.0) - 0.25).abs() < 1e-12); // b0
        assert!((p.eval(1.0) - 0.75).abs() < 1e-12); // b3
        assert!((p.eval(0.5) - 0.5).abs() < 1e-12); // paper Fig. 1(b): 4/8
    }

    #[test]
    fn coefficients_validated() {
        assert!(BernsteinPoly::new(vec![0.5, 1.2]).is_err());
        assert!(BernsteinPoly::new(vec![]).is_err());
        assert!(BernsteinPoly::new(vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn elevation_preserves_values() {
        let p = BernsteinPoly::paper_f1();
        let q = p.elevate();
        assert_eq!(q.degree(), 4);
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!((p.eval(x) - q.eval(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn elevate_to_degree_8() {
        let p = BernsteinPoly::paper_f1();
        let q = p.elevate_to(8);
        assert_eq!(q.degree(), 8);
        assert!((p.eval(0.37) - q.eval(0.37)).abs() < 1e-12);
        // Coefficients stay within [0,1] (convex hull property).
        let (lo, hi) = q.coefficient_bounds();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot lower degree")]
    fn elevate_to_lower_panics() {
        let _ = BernsteinPoly::paper_f1().elevate_to(2);
    }

    #[test]
    fn convex_hull_bounds_hold() {
        let p = BernsteinPoly::new(vec![0.2, 0.9, 0.1, 0.6]).unwrap();
        let (lo, hi) = p.coefficient_bounds();
        for i in 0..=100 {
            let v = p.eval(i as f64 / 100.0);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }
}

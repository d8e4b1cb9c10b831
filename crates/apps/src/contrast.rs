//! Smoothstep contrast enhancement — a second error-tolerant workload.
//!
//! The cubic smoothstep `f(x) = 3x² − 2x³` is the canonical contrast
//! stretch and has the *exactly representable* Bernstein form
//! `b = (0, 0, 1, 1)` at degree 3 (every coefficient is a trivial
//! probability), making it an ideal stress-free workload for the optical
//! circuit: any residual error is attributable to the transmission path,
//! not to coefficient quantization.

use crate::backend::PixelBackend;
use crate::image::Image;
use crate::AppError;
use osc_stochastic::bernstein::BernsteinPoly;

/// Exact smoothstep.
pub fn smoothstep(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    3.0 * x * x - 2.0 * x * x * x
}

/// The degree-3 Bernstein representation of smoothstep: `(0, 0, 1, 1)`.
pub fn smoothstep_poly() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.0, 0.0, 1.0, 1.0]).expect("exact coefficients")
}

/// Applies contrast enhancement through a backend and reports the mean
/// absolute error against the exact map.
///
/// # Errors
///
/// Propagates backend failures.
pub fn run_contrast<B: PixelBackend>(
    image: &Image,
    backend: &mut B,
) -> Result<(Image, f64), AppError> {
    let reference = image.map(smoothstep);
    let produced = crate::gamma_app::apply_backend(image, backend)?;
    let mae = produced.mae(&reference)?;
    Ok((produced, mae))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ElectronicBackend, ExactBackend};

    /// Mean absolute error of `produced` against the exact smoothstep.
    fn contrast_mae(img: &Image, produced: &Image) -> f64 {
        produced.mae(&img.map(smoothstep)).unwrap()
    }

    #[test]
    fn bernstein_form_is_exact() {
        let p = smoothstep_poly();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!((p.eval(x) - smoothstep(x)).abs() < 1e-12, "mismatch at {x}");
        }
    }

    #[test]
    fn contrast_steepens_midtones() {
        assert!(smoothstep(0.25) < 0.25);
        assert!(smoothstep(0.75) > 0.75);
        assert_eq!(smoothstep(0.5), 0.5);
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
    }

    #[test]
    fn exact_backend_zero_error() {
        let img = Image::gradient(16, 4);
        let mut b = ExactBackend::new(smoothstep_poly());
        let (_, mae) = run_contrast(&img, &mut b).unwrap();
        assert!(mae < 1e-12);
    }

    #[test]
    fn stochastic_backend_small_error() {
        let img = Image::blobs(12, 12);
        let mut b = ElectronicBackend::new(smoothstep_poly(), 8192, 5);
        let (_, mae) = run_contrast(&img, &mut b).unwrap();
        assert!(mae < 0.02, "mae {mae}");
    }

    #[test]
    fn lane_blocked_contrast_matches_thread_counts_and_quality() {
        use crate::backend::OpticalBackend;
        use crate::gamma_app::apply_optical;
        use osc_core::batch::shard::Executor;
        use osc_core::batch::BatchEvaluator;
        use osc_core::params::CircuitParams;
        let img = Image::blobs(12, 6);
        let params = CircuitParams::paper_fig7(3, osc_units::Nanometers::new(0.2));
        let b = OpticalBackend::new(params, smoothstep_poly(), 4096, 5).unwrap();
        let on = |threads| {
            let evaluator = BatchEvaluator::with_threads(threads);
            apply_optical(&img, &b, &mut Executor::InProcess(&evaluator), None).unwrap()
        };
        let (img1, img4) = (on(1), on(4));
        assert_eq!(img1, img4);
        let mae1 = contrast_mae(&img, &img1);
        assert!(mae1 < 0.03, "mae {mae1}");
    }
}

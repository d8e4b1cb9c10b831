//! Gamma correction on stochastic backends (paper Section V.C).
//!
//! "Gamma correction application, which is a non-linear function used in
//! image processing, involves a 6th order degree. Compared to the 100MHz
//! frequency considered in \[9\], the use of integrated optics will lead to
//! a 10x speedup."
//!
//! Two pipelines apply a backend to an image: [`apply_backend`] (one
//! sequential generator chain, any [`PixelBackend`] — the per-backend
//! comparison of EXP-G) and [`apply_optical`] — the optical circuit's
//! row + lane pipeline, served through any [`Executor`] tier (in
//! process, spawned workers, a persistent pool or a TCP service) with
//! byte-identical output.

use crate::backend::{throughput_evals_per_second, OpticalBackend, PixelBackend};
use crate::image::Image;
use crate::AppError;
use osc_core::batch::shard::{Executor, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_stochastic::gamma::{fit_gamma_bernstein, gamma_exact, DISPLAY_GAMMA, PAPER_GAMMA_DEGREE};
use std::sync::OnceLock;

/// Result of running gamma correction on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaRunReport {
    /// Backend name.
    pub backend: String,
    /// PSNR against the exact gamma map, dB.
    pub psnr_db: f64,
    /// Mean absolute error against the exact gamma map.
    pub mae: f64,
    /// Modeled throughput in pixel evaluations per second.
    pub evals_per_second: f64,
}

/// Applies a backend's polynomial to every pixel.
///
/// # Errors
///
/// Propagates backend failures.
pub fn apply_backend<B: PixelBackend>(image: &Image, backend: &mut B) -> Result<Image, AppError> {
    let mut out = Vec::with_capacity(image.pixels().len());
    for &p in image.pixels() {
        out.push(backend.evaluate(p)?.clamp(0.0, 1.0));
    }
    Image::new(image.width(), image.height(), out)
}

/// Applies the optical backend's polynomial to every pixel through
/// `executor`, optionally under a per-stream fault process. Rows fan
/// across threads (and, off process, across workers), and within a row
/// pixels run through the lane-blocked fused kernel
/// ([`osc_core::system::OpticalScSystem::evaluate_fused_lanes`]) in
/// register groups of 8/4/2/1 — the image-pipeline form of the paper's
/// Section V.C lane bank.
///
/// Each pixel gets its own Xoshiro generator universe derived as
/// `mix_seed(mix_seed(backend seed, row), column)`, and a fault spec
/// rebases by row then column ([`FaultSpec::rebased`]), so the output
/// is a pure function of the backend's seed, the image and the spec —
/// byte-identical for every [`Executor`] tier, thread count, worker
/// count, lane decomposition and SIMD tier. The per-pixel seeding
/// differs from [`apply_backend`]'s one sequential generator chain, so
/// the two pipelines produce statistically equivalent but not bit-equal
/// images.
///
/// # Errors
///
/// An invalid fault spec ([`FaultSpec::validate`]) before any pixel
/// runs, otherwise the tier's evaluation or transport failures
/// ([`AppError::Circuit`] in process, [`AppError::Shard`] elsewhere).
pub fn apply_optical(
    image: &Image,
    backend: &OpticalBackend,
    executor: &mut Executor<'_>,
    faults: Option<&FaultSpec>,
) -> Result<Image, AppError> {
    let runs = executor.image(
        backend.system(),
        SngKind::Xoshiro,
        image.width(),
        image.pixels(),
        backend.stream_length(),
        backend.seed(),
        faults,
    )?;
    Image::new(
        image.width(),
        image.height(),
        runs.iter().map(|r| r.estimate.clamp(0.0, 1.0)).collect(),
    )
}

/// [`apply_optical`] in this process on `evaluator`'s threads. New code
/// calls [`apply_optical`]; this name stays because the benchmark
/// package (`perfbench/`) calls it.
///
/// # Errors
///
/// As [`apply_optical`].
pub fn apply_optical_lanes_faulted(
    image: &Image,
    backend: &OpticalBackend,
    evaluator: &BatchEvaluator,
    faults: Option<&FaultSpec>,
) -> Result<Image, AppError> {
    apply_optical(image, backend, &mut Executor::InProcess(evaluator), faults)
}

/// Runs gamma correction on a backend and reports quality + throughput
/// against the exact per-pixel map.
///
/// # Errors
///
/// Propagates backend failures.
pub fn run_gamma<B: PixelBackend>(
    image: &Image,
    backend: &mut B,
) -> Result<GammaRunReport, AppError> {
    let reference = image.map(|p| gamma_exact(p, DISPLAY_GAMMA));
    let produced = apply_backend(image, backend)?;
    Ok(GammaRunReport {
        backend: backend.name().to_string(),
        psnr_db: produced.psnr_db(&reference)?,
        mae: produced.mae(&reference)?,
        evals_per_second: throughput_evals_per_second(backend),
    })
}

/// The paper's degree-6 gamma polynomial, ready for backends.
///
/// The fit is a pure function of two constants, so it runs once per
/// process; every call hands out a clone of that one result.
///
/// # Errors
///
/// Propagates fit failures (none for standard parameters).
pub fn paper_gamma_polynomial() -> Result<osc_stochastic::bernstein::BernsteinPoly, AppError> {
    static FIT: OnceLock<Result<osc_stochastic::bernstein::BernsteinPoly, AppError>> =
        OnceLock::new();
    FIT.get_or_init(|| Ok(fit_gamma_bernstein(DISPLAY_GAMMA, PAPER_GAMMA_DEGREE)?))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ElectronicBackend, ExactBackend};
    use osc_core::batch::mix_seed;
    use osc_core::batch::shard::pool::PoolConfig;
    use osc_core::system::EvalScratch;
    use osc_math::rng::Xoshiro256PlusPlus;
    use osc_stochastic::sng::XoshiroSng;

    /// Gamma-corrects `img` in process on `evaluator`.
    fn optical(img: &Image, backend: &OpticalBackend, evaluator: &BatchEvaluator) -> Image {
        apply_optical(img, backend, &mut Executor::InProcess(evaluator), None).unwrap()
    }

    /// Mean absolute error of `produced` against the exact gamma map.
    fn gamma_mae(img: &Image, produced: &Image) -> f64 {
        produced
            .mae(&img.map(|p| gamma_exact(p, DISPLAY_GAMMA)))
            .unwrap()
    }

    #[test]
    fn cached_gamma_fit_equals_a_fresh_fit_bit_for_bit() {
        let bits = |p: &osc_stochastic::bernstein::BernsteinPoly| {
            p.coeffs().iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        };
        let fresh = fit_gamma_bernstein(DISPLAY_GAMMA, PAPER_GAMMA_DEGREE).unwrap();
        for _ in 0..2 {
            assert_eq!(bits(&paper_gamma_polynomial().unwrap()), bits(&fresh));
        }
    }

    #[test]
    fn exact_backend_matches_polynomial_not_map() {
        // The exact backend evaluates the degree-6 *fit*, so its PSNR
        // against the true gamma map is finite but high.
        let img = Image::gradient(32, 8);
        let mut b = ExactBackend::new(paper_gamma_polynomial().unwrap());
        let report = run_gamma(&img, &mut b).unwrap();
        assert!(report.psnr_db > 25.0, "psnr {}", report.psnr_db);
        assert!(report.mae < 0.03, "mae {}", report.mae);
    }

    #[test]
    fn electronic_backend_close_to_exact_fit() {
        let img = Image::blobs(16, 16);
        let mut exact = ExactBackend::new(paper_gamma_polynomial().unwrap());
        let mut sc = ElectronicBackend::new(paper_gamma_polynomial().unwrap(), 4096, 3);
        let exact_img = apply_backend(&img, &mut exact).unwrap();
        let sc_img = apply_backend(&img, &mut sc).unwrap();
        let mae = sc_img.mae(&exact_img).unwrap();
        assert!(mae < 0.02, "stochastic-vs-fit mae {mae}");
    }

    #[test]
    fn lane_blocked_image_is_thread_invariant_and_matches_per_pixel() {
        use osc_core::params::CircuitParams;
        // Width 13 exercises the 8 + 4 + 1 block decomposition per row.
        let img = Image::blobs(13, 5);
        let poly = osc_stochastic::bernstein::BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap();
        let backend = OpticalBackend::new(CircuitParams::paper_fig5(), poly, 512, 41).unwrap();
        let one = optical(&img, &backend, &BatchEvaluator::with_threads(1));
        let four = optical(&img, &backend, &BatchEvaluator::with_threads(4));
        assert_eq!(one, four, "thread-count invariance");
        // Per-pixel replay through the unblocked fused path: the lane
        // decomposition must be unobservable.
        let mut scratch = EvalScratch::new();
        for y in 0..img.height() {
            let row_seed = mix_seed(41, y as u64);
            for i in 0..img.width() {
                let pixel_seed = mix_seed(row_seed, i as u64);
                let mut sng = XoshiroSng::new(pixel_seed);
                let mut rng = Xoshiro256PlusPlus::new(mix_seed(pixel_seed, 0x0A11_D1CE));
                let run = backend
                    .system()
                    .evaluate_fused(
                        img.get(i, y).clamp(0.0, 1.0),
                        512,
                        &mut sng,
                        &mut rng,
                        &mut scratch,
                    )
                    .unwrap();
                assert_eq!(
                    one.get(i, y),
                    run.estimate.clamp(0.0, 1.0),
                    "pixel ({i}, {y})"
                );
            }
        }
    }

    #[test]
    fn lane_blocked_gamma_quality_matches_sequential() {
        use osc_core::params::CircuitParams;
        let img = Image::gradient(16, 8);
        let poly = paper_gamma_polynomial().unwrap();
        let params = CircuitParams::paper_fig7(6, osc_units::Nanometers::new(0.165));
        let mut backend = OpticalBackend::new(params, poly, 2048, 7).unwrap();
        let ev = BatchEvaluator::with_threads(3);
        let lanes = gamma_mae(&img, &optical(&img, &backend, &ev));
        let sequential = gamma_mae(&img, &apply_backend(&img, &mut backend).unwrap());
        // Different per-pixel streams, same statistics.
        assert!((lanes - sequential).abs() < 0.01, "{lanes} vs {sequential}");
    }

    #[test]
    fn sharded_apply_surfaces_missing_worker_as_value() {
        use osc_core::params::CircuitParams;
        // A spawn tier pointed at a binary that does not exist must
        // fail with a clean AppError::Shard, never a panic. The
        // byte-identity of a *working* sharded run against the lanes
        // pipeline is pinned by the osc-bench integration suite, which
        // owns the worker binary.
        let img = Image::gradient(8, 4);
        let poly = osc_stochastic::bernstein::BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap();
        let backend = OpticalBackend::new(CircuitParams::paper_fig5(), poly, 64, 5).unwrap();
        let config = PoolConfig::new("/nonexistent/shard_worker_binary", 2);
        let err = apply_optical(&img, &backend, &mut Executor::Spawn(&config), None).unwrap_err();
        assert!(
            matches!(err, crate::AppError::Shard(_)),
            "expected a shard error, got {err:?}"
        );
    }

    #[test]
    fn gamma_brightens_dark_pixels() {
        let img = Image::gradient(32, 2);
        let mut b = ExactBackend::new(paper_gamma_polynomial().unwrap());
        let out = apply_backend(&img, &mut b).unwrap();
        // Mid-gray should brighten (gamma < 1), comparing mid-image.
        assert!(out.get(16, 0) > img.get(16, 0));
    }

    #[test]
    fn report_carries_throughput() {
        let img = Image::gradient(4, 4);
        let mut e = ElectronicBackend::new(paper_gamma_polynomial().unwrap(), 1024, 1);
        let report = run_gamma(&img, &mut e).unwrap();
        // 100 MHz / 1024 bits.
        assert!((report.evals_per_second - 0.1e9 / 1024.0).abs() < 1.0);
        assert_eq!(report.backend, "electronic-resc");
    }
}

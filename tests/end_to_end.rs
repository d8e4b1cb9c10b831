//! End-to-end integration: stochastic streams through the optical circuit
//! and the application layer, spanning every workspace crate.

use optical_stochastic_computing::apps::backend::{
    ElectronicBackend, OpticalBackend, PixelBackend,
};
use optical_stochastic_computing::apps::contrast::{run_contrast, smoothstep_poly};
use optical_stochastic_computing::apps::image::Image;
use optical_stochastic_computing::core::prelude::*;
use optical_stochastic_computing::math::rng::Xoshiro256PlusPlus;
use optical_stochastic_computing::stochastic::bernstein::BernsteinPoly;
use optical_stochastic_computing::stochastic::polynomial::Polynomial;
use optical_stochastic_computing::stochastic::resc::ReScUnit;
use optical_stochastic_computing::stochastic::sng::{CounterSng, XoshiroSng};

#[test]
fn paper_f1_from_power_form_to_optical_estimate() {
    // Fig. 1(b)'s cubic: convert to Bernstein, run optically at order 3.
    let bernstein = Polynomial::paper_f1().to_bernstein().unwrap();
    assert_eq!(bernstein.degree(), 3);
    let mut params = CircuitParams::paper_fig7(3, Nanometers::new(0.4));
    params.probe_power = Milliwatts::new(1.0);
    let system = OpticalScSystem::new(params, bernstein.clone()).unwrap();
    let mut sng = XoshiroSng::new(1);
    let mut rng = Xoshiro256PlusPlus::new(2);
    for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let run = system.evaluate(x, 16_384, &mut sng, &mut rng).unwrap();
        assert!(
            run.abs_error() < 0.03,
            "x={x}: estimate {} vs exact {}",
            run.estimate,
            run.exact
        );
    }
}

#[test]
fn optical_and_electronic_agree_on_clean_channel() {
    let poly = BernsteinPoly::new(vec![0.1, 0.9, 0.4]).unwrap();
    let unit = ReScUnit::new(poly.clone());
    let system = OpticalScSystem::new(CircuitParams::paper_fig5(), poly).unwrap();
    let mut rng = Xoshiro256PlusPlus::new(5);
    for (i, x) in [0.2, 0.5, 0.8].iter().enumerate() {
        let mut sng_e = XoshiroSng::new(100 + i as u64);
        let mut sng_o = XoshiroSng::new(100 + i as u64);
        let e = unit.evaluate(*x, 8192, &mut sng_e);
        let o = system.evaluate(*x, 8192, &mut sng_o, &mut rng).unwrap();
        // Same SNG seed, negligible optical BER: estimates nearly equal.
        assert!(
            (e.estimate - o.estimate).abs() < 0.01,
            "x={x}: electronic {} vs optical {}",
            e.estimate,
            o.estimate
        );
    }
}

#[test]
fn halton_sng_drives_the_optical_system() {
    let poly = BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap();
    let system = OpticalScSystem::new(CircuitParams::paper_fig5(), poly).unwrap();
    let mut sng = CounterSng::new();
    let mut rng = Xoshiro256PlusPlus::new(3);
    let run = system.evaluate(0.5, 4096, &mut sng, &mut rng).unwrap();
    assert!(run.abs_error() < 0.03, "error {}", run.abs_error());
}

#[test]
fn contrast_app_on_optical_backend() {
    let image = Image::gradient(12, 12);
    let params = CircuitParams::paper_fig7(3, Nanometers::new(0.4));
    let mut backend = OpticalBackend::new(params, smoothstep_poly(), 4096, 7).unwrap();
    let (out, mae) = run_contrast(&image, &mut backend).unwrap();
    assert_eq!(out.width(), 12);
    assert!(mae < 0.05, "mae {mae}");
}

#[test]
fn electronic_backend_contrast_reference() {
    let image = Image::gradient(12, 12);
    let mut backend = ElectronicBackend::new(smoothstep_poly(), 8192, 3);
    let (_, mae) = run_contrast(&image, &mut backend).unwrap();
    assert!(mae < 0.02, "mae {mae}");
    assert_eq!(backend.name(), "electronic-resc");
}

#[test]
fn full_pipeline_gamma_on_noise_image() {
    // Noise image -> degree-6 gamma polynomial -> optical backend at the
    // energy-optimal spacing -> PSNR sanity.
    let poly = optical_stochastic_computing::apps::gamma_app::paper_gamma_polynomial().unwrap();
    let image = Image::noise(16, 16, 99);
    let params = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
    let mut backend = OpticalBackend::new(params, poly, 2048, 5).unwrap();
    let report =
        optical_stochastic_computing::apps::gamma_app::run_gamma(&image, &mut backend).unwrap();
    assert!(report.psnr_db > 18.0, "psnr {}", report.psnr_db);
    assert_eq!(report.backend, "optical-sc");
}

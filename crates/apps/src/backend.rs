//! Per-pixel evaluation backends.
//!
//! A [`PixelBackend`] evaluates one Bernstein polynomial on one input —
//! the primitive an image pipeline applies per pixel. Three
//! implementations cover the comparison the paper's Section V.C makes:
//!
//! - [`ExactBackend`] — double-precision reference;
//! - [`ElectronicBackend`] — the CMOS ReSC unit of \[9\] (100 MHz in the
//!   paper's comparison);
//! - [`OpticalBackend`] — the paper's optical circuit (1 GHz), including
//!   receiver noise.

use crate::AppError;
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::resc::{MuxScratch, ReScUnit};
use osc_stochastic::sng::XoshiroSng;
use osc_units::GigahertzRate;

/// A backend that evaluates the programmed polynomial at one input.
pub trait PixelBackend {
    /// Evaluates the polynomial at `x ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (invalid input, circuit errors).
    fn evaluate(&mut self, x: f64) -> Result<f64, AppError>;

    /// Derives an independent copy for parallel work item `salt`: same
    /// circuit and polynomial, but stochastic/noise streams decorrelated
    /// from both the parent and every other salt (via
    /// [`osc_core::batch::mix_seed`]). Stateless backends return a plain
    /// copy. This is what lets image pipelines fan pixels across threads
    /// while keeping the output a pure function of `(backend seed, salt)`.
    fn fork(&self, salt: u64) -> Self
    where
        Self: Sized;

    /// Bits consumed per evaluation (1 for exact backends).
    fn bits_per_evaluation(&self) -> usize;

    /// Clock rate the backend models.
    fn clock(&self) -> GigahertzRate;

    /// Human-readable name.
    fn name(&self) -> &'static str;
}

/// Double-precision reference backend.
#[derive(Debug, Clone)]
pub struct ExactBackend {
    poly: BernsteinPoly,
}

impl ExactBackend {
    /// Creates the backend.
    pub fn new(poly: BernsteinPoly) -> Self {
        ExactBackend { poly }
    }
}

impl PixelBackend for ExactBackend {
    fn evaluate(&mut self, x: f64) -> Result<f64, AppError> {
        if !(0.0..=1.0).contains(&x) {
            return Err(AppError::Invalid(format!("x = {x} outside [0, 1]")));
        }
        Ok(self.poly.eval(x))
    }

    fn fork(&self, _salt: u64) -> Self {
        self.clone()
    }

    fn bits_per_evaluation(&self) -> usize {
        1
    }

    fn clock(&self) -> GigahertzRate {
        GigahertzRate::new(1.0)
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The electronic ReSC unit at the paper's 100 MHz CMOS clock.
///
/// Evaluates through [`ReScUnit::evaluate_fused`] with a backend-resident
/// [`MuxScratch`], so the per-pixel hot loop materializes no streams and
/// performs no heap allocation at steady state.
#[derive(Debug, Clone)]
pub struct ElectronicBackend {
    unit: ReScUnit,
    stream_length: usize,
    seed: u64,
    sng: XoshiroSng,
    scratch: MuxScratch,
}

impl ElectronicBackend {
    /// Creates the backend with a stream length and RNG seed.
    pub fn new(poly: BernsteinPoly, stream_length: usize, seed: u64) -> Self {
        ElectronicBackend {
            unit: ReScUnit::new(poly),
            stream_length,
            seed,
            sng: XoshiroSng::new(seed),
            scratch: MuxScratch::new(),
        }
    }
}

impl PixelBackend for ElectronicBackend {
    fn evaluate(&mut self, x: f64) -> Result<f64, AppError> {
        Ok(self
            .unit
            .evaluate_fused(
                x.clamp(0.0, 1.0),
                self.stream_length,
                &mut self.sng,
                &mut self.scratch,
            )?
            .estimate)
    }

    fn fork(&self, salt: u64) -> Self {
        let seed = osc_core::batch::mix_seed(self.seed, salt);
        ElectronicBackend {
            unit: self.unit.clone(),
            stream_length: self.stream_length,
            seed,
            sng: XoshiroSng::new(seed),
            scratch: MuxScratch::new(),
        }
    }

    fn bits_per_evaluation(&self) -> usize {
        self.stream_length
    }

    fn clock(&self) -> GigahertzRate {
        GigahertzRate::new(0.1) // 100 MHz, after [9]
    }

    fn name(&self) -> &'static str {
        "electronic-resc"
    }
}

/// The optical SC circuit at 1 GHz with noisy detection.
///
/// Evaluates through [`OpticalScSystem::evaluate_fused`] with a
/// backend-resident [`EvalScratch`]: the image pipelines' per-pixel hot
/// loop streams SNG words straight into the decision kernel with zero
/// heap allocation once the scratch has warmed up.
pub struct OpticalBackend {
    system: OpticalScSystem,
    stream_length: usize,
    seed: u64,
    sng: XoshiroSng,
    rng: Xoshiro256PlusPlus,
    scratch: EvalScratch,
}

impl std::fmt::Debug for OpticalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpticalBackend")
            .field("stream_length", &self.stream_length)
            .finish_non_exhaustive()
    }
}

impl OpticalBackend {
    /// Creates the backend on a circuit matching the polynomial's degree.
    ///
    /// # Errors
    ///
    /// Propagates circuit construction failures (degree mismatch etc.).
    pub fn new(
        params: CircuitParams,
        poly: BernsteinPoly,
        stream_length: usize,
        seed: u64,
    ) -> Result<Self, AppError> {
        Ok(OpticalBackend {
            system: OpticalScSystem::new(params, poly)?,
            stream_length,
            seed,
            sng: XoshiroSng::new(seed),
            rng: Xoshiro256PlusPlus::new(seed ^ 0x5EED),
            scratch: EvalScratch::new(),
        })
    }

    /// The underlying optical system.
    pub fn system(&self) -> &OpticalScSystem {
        &self.system
    }

    /// The backend's base seed — the root of the per-row / per-pixel
    /// generator derivations in the lane-blocked image pipelines.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stream length per pixel evaluation.
    pub fn stream_length(&self) -> usize {
        self.stream_length
    }

    /// A same-circuit backend with a different base seed. Cloning
    /// reuses the precomputed power/decision tables, so a caller
    /// serving many requests against one circuit (e.g. the soak
    /// workloads) derives per-request backends without paying circuit
    /// construction each time. Identical to
    /// `OpticalBackend::new(params, poly, stream_length, seed)` in
    /// every observable way.
    pub fn with_seed(&self, seed: u64) -> Self {
        OpticalBackend {
            system: self.system.clone(),
            stream_length: self.stream_length,
            seed,
            sng: XoshiroSng::new(seed),
            rng: Xoshiro256PlusPlus::new(seed ^ 0x5EED),
            scratch: EvalScratch::new(),
        }
    }
}

impl PixelBackend for OpticalBackend {
    fn evaluate(&mut self, x: f64) -> Result<f64, AppError> {
        Ok(self
            .system
            .evaluate_fused(
                x.clamp(0.0, 1.0),
                self.stream_length,
                &mut self.sng,
                &mut self.rng,
                &mut self.scratch,
            )?
            .estimate)
    }

    fn fork(&self, salt: u64) -> Self {
        // Cloning reuses the precomputed power/decision tables — forking
        // is cheap even though circuit construction is not.
        let seed = osc_core::batch::mix_seed(self.seed, salt);
        OpticalBackend {
            system: self.system.clone(),
            stream_length: self.stream_length,
            seed,
            sng: XoshiroSng::new(seed),
            rng: Xoshiro256PlusPlus::new(seed ^ 0x5EED),
            scratch: EvalScratch::new(),
        }
    }

    fn bits_per_evaluation(&self) -> usize {
        self.stream_length
    }

    fn clock(&self) -> GigahertzRate {
        GigahertzRate::new(1.0) // the paper's optical modulation rate
    }

    fn name(&self) -> &'static str {
        "optical-sc"
    }
}

/// Evaluations per second a backend sustains: `clock / bits_per_eval`.
pub fn throughput_evals_per_second<B: PixelBackend>(backend: &B) -> f64 {
    backend.clock().as_bps() / backend.bits_per_evaluation() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly() -> BernsteinPoly {
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap()
    }

    #[test]
    fn exact_backend_is_exact() {
        let mut b = ExactBackend::new(poly());
        assert_eq!(b.evaluate(0.0).unwrap(), 0.25);
        assert!(b.evaluate(1.5).is_err());
        assert_eq!(b.bits_per_evaluation(), 1);
    }

    #[test]
    fn electronic_backend_approximates() {
        let mut b = ElectronicBackend::new(poly(), 16384, 7);
        let got = b.evaluate(0.5).unwrap();
        let want = poly().eval(0.5);
        assert!((got - want).abs() < 0.02, "got {got} want {want}");
    }

    #[test]
    fn optical_backend_approximates() {
        let mut b = OpticalBackend::new(CircuitParams::paper_fig5(), poly(), 8192, 11).unwrap();
        let got = b.evaluate(0.5).unwrap();
        let want = poly().eval(0.5);
        assert!((got - want).abs() < 0.03, "got {got} want {want}");
    }

    #[test]
    fn backends_fused_paths_match_materializing_twins() {
        // The backends run the fused zero-materialization paths; their
        // outputs must equal the per-bit materializing twins with the
        // same seeds, bit for bit.
        let mut ob = OpticalBackend::new(CircuitParams::paper_fig5(), poly(), 777, 21).unwrap();
        let mut sng = XoshiroSng::new(21);
        let mut rng = Xoshiro256PlusPlus::new(21 ^ 0x5EED);
        for &x in &[0.2, 0.7] {
            let got = ob.evaluate(x).unwrap();
            let want = ob
                .system
                .evaluate_bitwise(x, 777, &mut sng, &mut rng)
                .unwrap();
            assert_eq!(got, want.estimate, "optical x={x}");
        }
        let mut eb = ElectronicBackend::new(poly(), 777, 33);
        let unit = ReScUnit::new(poly());
        let mut esng = XoshiroSng::new(33);
        for &x in &[0.2, 0.7] {
            let got = eb.evaluate(x).unwrap();
            let want = unit.evaluate(x, 777, &mut esng);
            assert_eq!(got, want.estimate, "electronic x={x}");
        }
    }

    #[test]
    fn optical_clamps_out_of_range_pixels() {
        let mut b = OpticalBackend::new(CircuitParams::paper_fig5(), poly(), 1024, 3).unwrap();
        assert!(b.evaluate(1.0 + 1e-9).is_ok());
    }

    #[test]
    fn paper_speedup_10x() {
        // 1 GHz optical vs 100 MHz electronic at the same stream length.
        let e = ElectronicBackend::new(poly(), 1024, 1);
        let o = OpticalBackend::new(CircuitParams::paper_fig5(), poly(), 1024, 1).unwrap();
        let speedup = throughput_evals_per_second(&o) / throughput_evals_per_second(&e);
        assert!((speedup - 10.0).abs() < 1e-9, "speedup {speedup}");
    }

    #[test]
    fn degree_mismatch_rejected() {
        let bad = BernsteinPoly::new(vec![0.5, 0.5]).unwrap();
        assert!(OpticalBackend::new(CircuitParams::paper_fig5(), bad, 64, 1).is_err());
    }
}

//! The full parameter set of the architecture (paper Fig. 4(b)).
//!
//! The paper publishes the system-level parameters (order, wavelength
//! plan, MZI IL/ER, OTE, laser powers) but not the micro-ring geometry or
//! the detector constants; those are **calibrated** against the reported
//! operating points by [`crate::calibration`] and stored here as named
//! constants. Each `paper_*` constructor assembles the exact configuration
//! of one of the paper's experiments.

use crate::backend::BackendKind;
use crate::CircuitError;
use osc_photonics::add_drop_filter::AddDropFilter;
use osc_photonics::detector::Photodetector;
use osc_photonics::mrr_modulator::MrrModulator;
use osc_photonics::mzi::MziModulator;
use osc_photonics::ring::RingResonator;
use osc_units::{Amperes, DbRatio, Milliwatts, Nanometers};

/// Calibrated micro-ring template shared by all coefficient modulators.
///
/// `r1/r2/a` were fitted by [`crate::calibration`] so that the Fig. 5
/// operating points reproduce (`tests/model_vs_paper.rs` holds the
/// residuals within 5 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulatorTemplate {
    /// Input-bus self-coupling.
    pub r1: f64,
    /// Drop-bus self-coupling.
    pub r2: f64,
    /// Single-pass amplitude transmission.
    pub a: f64,
    /// Free spectral range.
    pub fsr: Nanometers,
    /// ON-state (z = 1) blue shift Δλ.
    pub delta_lambda: Nanometers,
}

impl ModulatorTemplate {
    /// The calibrated default used for the paper's experiments
    /// (fitted by `osc_core::calibration::fit` against the Section V.A
    /// operating points; residual 9.6e-4 in summed squared log-relative
    /// error).
    pub fn calibrated() -> Self {
        ModulatorTemplate {
            r1: 0.96528,
            r2: 0.98648,
            a: 0.999,
            fsr: Nanometers::new(10.0),
            delta_lambda: Nanometers::new(0.25),
        }
    }

    /// A higher-Q profile for dense WDM plans (spacings well below 1 nm,
    /// as in the Fig. 7 energy sweep): narrower linewidth to keep
    /// adjacent-channel attenuation workable, ON-shift scaled to half the
    /// channel spacing (a designer would re-size the modulator drive for
    /// the plan; the paper does not pin these devices for Fig. 7).
    pub fn dense_wdm(spacing: Nanometers) -> Self {
        ModulatorTemplate {
            r1: 0.9862,
            r2: 0.9943,
            a: 0.9996,
            fsr: Nanometers::new(10.0),
            delta_lambda: Nanometers::new((spacing.as_nm() * 0.5).clamp(0.01, 0.25)),
        }
    }

    /// Returns a copy with a larger FSR (smaller ring) whose linewidth and
    /// through-port extinction floor are preserved, by re-solving the
    /// coupling coefficients. Used when a wide WDM plan would otherwise
    /// alias across FSR periods.
    ///
    /// No-op when `new_fsr` does not exceed the current FSR.
    pub fn with_min_fsr(&self, new_fsr: Nanometers) -> Self {
        if new_fsr.as_nm() <= self.fsr.as_nm() {
            return *self;
        }
        let p0 = self.r1 * self.r2 * self.a;
        let floor = ((self.a * self.r2 - self.r1) / (1.0 - p0)).abs();
        // Preserve linewidth: (1−p)/√p scales with 1/FSR.
        let c1 = (1.0 - p0) / p0.sqrt() * self.fsr.as_nm() / new_fsr.as_nm();
        let q = (-c1 + (c1 * c1 + 4.0).sqrt()) / 2.0;
        let p1 = q * q;
        // Preserve the extinction floor: a·r2 − r1 = floor·(1−p1).
        let d = floor * (1.0 - p1);
        let r1 = (-d + (d * d + 4.0 * p1).sqrt()) / 2.0;
        let r2 = (p1 / self.a / r1).min(0.999_999);
        ModulatorTemplate {
            r1,
            r2,
            a: self.a,
            fsr: new_fsr,
            delta_lambda: self.delta_lambda,
        }
    }

    /// Instantiates a modulator for one channel.
    ///
    /// # Errors
    ///
    /// Propagates device validation errors.
    pub fn at_channel(&self, channel: Nanometers) -> Result<MrrModulator, CircuitError> {
        let ring = RingResonator::builder()
            .resonance(channel)
            .fsr(self.fsr)
            .self_coupling(self.r1, self.r2)
            .amplitude_transmission(self.a)
            .build()?;
        Ok(MrrModulator::new(ring, self.delta_lambda)?)
    }
}

/// Calibrated add-drop filter template (the all-optical multiplexer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterTemplate {
    /// Input-bus self-coupling.
    pub r1: f64,
    /// Drop-bus self-coupling.
    pub r2: f64,
    /// Single-pass amplitude transmission.
    pub a: f64,
    /// Free spectral range.
    pub fsr: Nanometers,
    /// Optical tuning efficiency, nm/mW (0.1 nm per 10 mW from Van et
    /// al. \[14\]).
    pub ote_nm_per_mw: f64,
}

impl FilterTemplate {
    /// The calibrated default used for the paper's experiments
    /// (fitted jointly with [`ModulatorTemplate::calibrated`]).
    pub fn calibrated() -> Self {
        FilterTemplate {
            r1: 0.97986,
            r2: 0.97986,
            a: 0.98474,
            fsr: Nanometers::new(10.0),
            ote_nm_per_mw: 0.01,
        }
    }

    /// Higher-Q filter for dense WDM plans (Fig. 7 sweep); see
    /// [`ModulatorTemplate::dense_wdm`]. Tuned so the order-2 energy
    /// optimum lands near the paper's 0.165 nm / 20.1 pJ operating point.
    pub fn dense_wdm() -> Self {
        FilterTemplate {
            r1: 0.9785,
            r2: 0.9785,
            a: 0.9871,
            fsr: Nanometers::new(10.0),
            ote_nm_per_mw: 0.01,
        }
    }

    /// Returns a copy with a larger FSR whose linewidth and drop-port peak
    /// are preserved (see [`ModulatorTemplate::with_min_fsr`]).
    ///
    /// No-op when `new_fsr` does not exceed the current FSR.
    pub fn with_min_fsr(&self, new_fsr: Nanometers) -> Self {
        if new_fsr.as_nm() <= self.fsr.as_nm() {
            return *self;
        }
        let p0 = self.r1 * self.r2 * self.a;
        let peak = self.a * (1.0 - self.r1 * self.r1) * (1.0 - self.r2 * self.r2)
            / ((1.0 - p0) * (1.0 - p0));
        let c1 = (1.0 - p0) / p0.sqrt() * self.fsr.as_nm() / new_fsr.as_nm();
        let q = (-c1 + (c1 * c1 + 4.0).sqrt()) / 2.0;
        let p1 = q * q;
        // Symmetric filter: iterate (r, a) to keep the drop peak.
        let mut a = self.a;
        let mut r2sq = self.r1 * self.r1;
        for _ in 0..40 {
            let u = (peak / a).sqrt().min(1.0) * (1.0 - p1);
            r2sq = (1.0 - u).clamp(1e-6, 1.0 - 1e-9);
            a = (p1 / r2sq).min(1.0);
        }
        let r = r2sq.sqrt();
        FilterTemplate {
            r1: r,
            r2: r,
            a,
            fsr: new_fsr,
            ote_nm_per_mw: self.ote_nm_per_mw,
        }
    }

    /// Instantiates the filter at `lambda_ref`.
    ///
    /// # Errors
    ///
    /// Propagates device validation errors.
    pub fn at_reference(&self, lambda_ref: Nanometers) -> Result<AddDropFilter, CircuitError> {
        let ring = RingResonator::builder()
            .resonance(lambda_ref)
            .fsr(self.fsr)
            .self_coupling(self.r1, self.r2)
            .amplitude_transmission(self.a)
            .build()?;
        Ok(AddDropFilter::new(ring, self.ote_nm_per_mw)?)
    }
}

/// Calibrated receiver constants (paper Eq. 8's `R` and `i_n`).
///
/// `NOISE_CURRENT` is fitted so the Fig. 6 design point (Xiao et al. MZI,
/// 0.6 W pump, BER 1e-6) needs 0.26 mW of probe power, as the paper
/// reports.
pub mod receiver_defaults {
    /// Detector responsivity, A/W.
    pub const RESPONSIVITY_A_PER_W: f64 = 1.1;
    /// Internal noise current, A (calibrated).
    pub const NOISE_CURRENT_A: f64 = 1.341e-5;
}

/// Complete parameter set for one optical SC circuit instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitParams {
    /// Polynomial order `n` (the circuit uses `n` MZIs and `n+1` probes).
    pub order: usize,
    /// Wavelength spacing between consecutive probes (paper Eq. 5).
    pub wl_spacing: Nanometers,
    /// Last (right-most) probe wavelength `λ_n`.
    pub lambda_last: Nanometers,
    /// Filter rest resonance `λ_ref` (detuned reference, `> λ_n`).
    pub lambda_ref: Nanometers,
    /// MZI insertion loss.
    pub mzi_il: DbRatio,
    /// MZI extinction ratio.
    pub mzi_er: DbRatio,
    /// Coefficient modulator template.
    pub modulator: ModulatorTemplate,
    /// Multiplexer filter template.
    pub filter: FilterTemplate,
    /// Pump laser optical power.
    pub pump_power: Milliwatts,
    /// Per-probe laser optical power.
    pub probe_power: Milliwatts,
    /// Detector responsivity, A/W.
    pub responsivity_a_per_w: f64,
    /// Detector internal noise current, A.
    pub noise_current_a: f64,
    /// Which transmission physics realizes the circuit (defaults to
    /// the paper's MRR/MZI architecture).
    pub backend: BackendKind,
}

impl CircuitParams {
    /// The paper's Section V.A / Fig. 5 design point: 2nd-order circuit,
    /// `WLspacing` = 1 nm, `λ2` = 1550 nm, `λ_ref` = 1550.1 nm, Ziebell
    /// MZI (IL 4.5 dB) with the derived ER of 13.22 dB, 591.86 mW pump,
    /// 1 mW probes.
    pub fn paper_fig5() -> Self {
        let il = DbRatio::from_db(4.5);
        // MRR-first outputs (Section V.A): pump = (λref−λ0)/(OTE·IL%),
        // ER% = (λref−λn)/(λref−λ0).
        let detuning_full = Nanometers::new(2.1);
        let ote = FilterTemplate::calibrated().ote_nm_per_mw;
        let pump = Milliwatts::new(detuning_full.as_nm() / (ote * il.as_linear()));
        let er = DbRatio::from_linear(0.1 / 2.1);
        CircuitParams {
            order: 2,
            wl_spacing: Nanometers::new(1.0),
            lambda_last: Nanometers::new(1550.0),
            lambda_ref: Nanometers::new(1550.1),
            mzi_il: il,
            mzi_er: er,
            modulator: ModulatorTemplate::calibrated(),
            filter: FilterTemplate::calibrated(),
            pump_power: pump,
            probe_power: Milliwatts::new(1.0),
            responsivity_a_per_w: receiver_defaults::RESPONSIVITY_A_PER_W,
            noise_current_a: receiver_defaults::NOISE_CURRENT_A,
            backend: BackendKind::MrrMzi,
        }
    }

    /// The Fig. 6 study configuration: a 2nd-order circuit driven MZI-first
    /// from a 0.6 W pump and the given MZI characteristics. Wavelengths
    /// are *derived* from the control power levels (see
    /// [`crate::design::mzi_first`]); this constructor stores the derived
    /// plan directly.
    pub fn paper_fig6(il: DbRatio, er: DbRatio) -> Self {
        let mut p = CircuitParams::paper_fig5();
        p.mzi_il = il;
        p.mzi_er = er;
        p.pump_power = Milliwatts::new(600.0);
        // MZI-first wavelength plan: λ_k = λ_ref − pump·OTE·T(k)/n… the
        // derived spacing follows Eq. 7; recompute via the design method.
        let ote = p.filter.ote_nm_per_mw;
        let il_lin = il.as_linear();
        let er_lin = er.as_linear();
        let n = p.order as f64;
        let d0 = 600.0 * ote * il_lin; // all-constructive detuning
        let dn = 600.0 * ote * il_lin * er_lin; // all-destructive detuning
        p.wl_spacing = Nanometers::new((d0 - dn) / n);
        p.lambda_last = p.lambda_ref - Nanometers::new(dn);
        p
    }

    /// The Fig. 7 energy-study configuration: order `n`, wavelength
    /// spacing `s`, Ziebell MZI (IL 4.5 dB), MRR-first pump sizing, probe
    /// power left at the Fig. 5 default (the energy model replaces it with
    /// the BER-minimal value).
    pub fn paper_fig7(order: usize, spacing: Nanometers) -> Self {
        let mut p = CircuitParams::paper_fig5();
        p.order = order;
        p.wl_spacing = spacing;
        // Dense-WDM device profile for sub-nm plans; at the 1 nm reference
        // point the sweep only uses relative trends, so the profile choice
        // is applied uniformly across the sweep (documented in DESIGN.md).
        // Wide plans (large n·s) force a larger FSR so channels stay
        // within one filter period; linewidth/extinction are preserved.
        let span_nm = order as f64 * spacing.as_nm() + 0.1;
        let min_fsr = Nanometers::new((1.25 * span_nm + 3.0).max(10.0));
        p.modulator = ModulatorTemplate::dense_wdm(spacing).with_min_fsr(min_fsr);
        p.filter = FilterTemplate::dense_wdm().with_min_fsr(min_fsr);
        // Keep λ_ref − λ_n = 0.1 nm as in Fig. 5.
        let delta_ref = Nanometers::new(0.1);
        p.lambda_ref = Nanometers::new(1550.1);
        p.lambda_last = p.lambda_ref - delta_ref;
        let full = Nanometers::new(order as f64 * spacing.as_nm()) + delta_ref;
        p.pump_power =
            Milliwatts::new(full.as_nm() / (p.filter.ote_nm_per_mw * p.mzi_il.as_linear()));
        p.mzi_er = DbRatio::from_linear(delta_ref.as_nm() / full.as_nm());
        p
    }

    /// Probe channel wavelengths `λ_0 … λ_n` (ascending).
    pub fn channels(&self) -> Vec<Nanometers> {
        (0..=self.order)
            .map(|i| self.lambda_last - self.wl_spacing * (self.order - i) as f64)
            .collect()
    }

    /// The MZI modulator model.
    pub fn mzi(&self) -> MziModulator {
        MziModulator::new(self.mzi_il, self.mzi_er).expect("validated in constructor")
    }

    /// The photodetector model.
    ///
    /// # Errors
    ///
    /// Propagates device validation errors for unphysical `R`/`i_n`.
    pub fn detector(&self) -> Result<Photodetector, CircuitError> {
        Ok(Photodetector::new(
            self.responsivity_a_per_w,
            Amperes::new(self.noise_current_a),
        )?)
    }

    /// Validates the structural invariants.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidStructure`] when the order is zero, the
    /// spacing non-positive, or `λ_ref ≤ λ_n`.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.order == 0 {
            return Err(CircuitError::InvalidStructure(
                "polynomial order must be at least 1".into(),
            ));
        }
        if self.wl_spacing.as_nm() <= 0.0 {
            return Err(CircuitError::InvalidStructure(format!(
                "wavelength spacing must be positive, got {}",
                self.wl_spacing
            )));
        }
        if self.lambda_ref <= self.lambda_last {
            return Err(CircuitError::InvalidStructure(format!(
                "λ_ref ({}) must exceed λ_n ({})",
                self.lambda_ref, self.lambda_last
            )));
        }
        if !self.pump_power.is_physical() || !self.probe_power.is_physical() {
            return Err(CircuitError::InvalidStructure(
                "laser powers must be non-negative and finite".into(),
            ));
        }
        Ok(())
    }

    /// Returns a copy with a different per-probe power (for sweeps).
    pub fn with_probe_power(mut self, power: Milliwatts) -> Self {
        self.probe_power = power;
        self
    }

    /// Returns a copy with a different pump power (for sweeps).
    pub fn with_pump_power(mut self, power: Milliwatts) -> Self {
        self.pump_power = power;
        self
    }

    /// Returns a copy realized by a different transmission physics.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reproduces_paper_pump_and_er() {
        let p = CircuitParams::paper_fig5();
        assert!(
            (p.pump_power.as_mw() - 591.86).abs() < 0.1,
            "pump = {}",
            p.pump_power
        );
        assert!(
            (p.mzi_er.as_db() - 13.222).abs() < 0.01,
            "er = {}",
            p.mzi_er
        );
    }

    #[test]
    fn fig5_channel_plan() {
        let p = CircuitParams::paper_fig5();
        let ch: Vec<f64> = p.channels().iter().map(|c| c.as_nm()).collect();
        assert_eq!(ch, vec![1548.0, 1549.0, 1550.0]);
        p.validate().unwrap();
    }

    #[test]
    fn fig6_derives_spacing_from_mzi() {
        // Xiao et al.: IL 6.5 dB, ER 7.5 dB at 0.6 W pump.
        let p = CircuitParams::paper_fig6(DbRatio::from_db(6.5), DbRatio::from_db(7.5));
        // d0 = 600·0.01·0.2239 = 1.3435 nm; dn = d0·0.1778 = 0.2389 nm;
        // spacing = (d0 − dn)/2 ≈ 0.552 nm.
        assert!(
            (p.wl_spacing.as_nm() - 0.552).abs() < 0.003,
            "spacing = {}",
            p.wl_spacing
        );
        p.validate().unwrap();
    }

    #[test]
    fn fig7_scales_pump_with_order_and_spacing() {
        let p2 = CircuitParams::paper_fig7(2, Nanometers::new(0.165));
        let p6 = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
        assert!(p6.pump_power > p2.pump_power);
        // n=2, s=0.165: full shift 0.43 nm -> pump = 0.43/(0.01·0.3548) ≈ 121 mW.
        assert!(
            (p2.pump_power.as_mw() - 121.2).abs() < 1.0,
            "pump = {}",
            p2.pump_power
        );
        p2.validate().unwrap();
        p6.validate().unwrap();
    }

    #[test]
    fn fig7_at_1nm_matches_fig5_pump() {
        let p = CircuitParams::paper_fig7(2, Nanometers::new(1.0));
        let f5 = CircuitParams::paper_fig5();
        assert!((p.pump_power.as_mw() - f5.pump_power.as_mw()).abs() < 0.1);
        assert!((p.mzi_er.as_db() - f5.mzi_er.as_db()).abs() < 0.01);
    }

    #[test]
    fn validation_catches_bad_structures() {
        let mut p = CircuitParams::paper_fig5();
        p.order = 0;
        assert!(p.validate().is_err());
        let mut p = CircuitParams::paper_fig5();
        p.wl_spacing = Nanometers::new(0.0);
        assert!(p.validate().is_err());
        let mut p = CircuitParams::paper_fig5();
        p.lambda_ref = Nanometers::new(1549.0);
        assert!(p.validate().is_err());
        let mut p = CircuitParams::paper_fig5();
        p.pump_power = Milliwatts::new(-1.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn templates_build_devices() {
        let p = CircuitParams::paper_fig5();
        for ch in p.channels() {
            let m = p.modulator.at_channel(ch).unwrap();
            assert_eq!(m.channel(), ch);
        }
        let f = p.filter.at_reference(p.lambda_ref).unwrap();
        assert_eq!(f.lambda_ref(), p.lambda_ref);
        let d = p.detector().unwrap();
        assert!(d.responsivity() > 0.0);
    }

    #[test]
    fn with_setters() {
        let p = CircuitParams::paper_fig5()
            .with_probe_power(Milliwatts::new(0.26))
            .with_pump_power(Milliwatts::new(600.0));
        assert_eq!(p.probe_power.as_mw(), 0.26);
        assert_eq!(p.pump_power.as_mw(), 600.0);
    }
}

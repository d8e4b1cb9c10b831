//! All-optical add-drop filter with two-photon-absorption tuning
//! (paper Fig. 2(c), Eqs. 3–4, 7.a).
//!
//! The multiplexer of the optical SC architecture is a single add-drop
//! ring filter. With no pump, it resonates at `λ_ref`. Injecting the pump
//! signal produced by the MZI adder shifts the refractive index through
//! the two-photon absorption (TPA) / free-carrier effect; the paper
//! linearizes this as an *optical tuning efficiency* (OTE, nm/mW):
//!
//! `ΔFilter = P_control × OTE`   (the power-dependent part of Eq. 7.a)
//!
//! so the effective resonance becomes `λ_ref − ΔFilter` (blue shift). The
//! physical origin (Eq. 4, `n_eff = n0 + n2·P/S`) is also modeled in
//! [`NonlinearTuning`] and validated against the linearized OTE at the
//! literature calibration point of Van et al. (0.1 nm shift @ 10 mW).

use crate::ring::RingResonator;
use crate::{check_range, DeviceError};
use osc_units::{Milliwatts, Nanometers};

/// The pump-tuned add-drop filter implementing the all-optical multiplexer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddDropFilter {
    ring: RingResonator,
    ote_nm_per_mw: f64,
}

impl AddDropFilter {
    /// Creates a filter from a ring (whose `resonance` is `λ_ref`) and the
    /// optical tuning efficiency in nm/mW.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the OTE is not strictly positive.
    pub fn new(ring: RingResonator, ote_nm_per_mw: f64) -> Result<Self, DeviceError> {
        check_range("ote_nm_per_mw", ote_nm_per_mw, 1e-12, f64::MAX, "OTE > 0")?;
        Ok(AddDropFilter {
            ring,
            ote_nm_per_mw,
        })
    }

    /// The underlying ring resonator.
    pub fn ring(&self) -> &RingResonator {
        &self.ring
    }

    /// Rest resonance `λ_ref` (no pump applied).
    pub fn lambda_ref(&self) -> Nanometers {
        self.ring.resonance()
    }

    /// Optical tuning efficiency in nm/mW.
    pub fn ote_nm_per_mw(&self) -> f64 {
        self.ote_nm_per_mw
    }

    /// Resonance blue-shift produced by a control (pump) power:
    /// `ΔFilter = P × OTE`.
    pub fn detuning_for(&self, control: Milliwatts) -> Nanometers {
        Nanometers::new(control.as_mw().max(0.0) * self.ote_nm_per_mw)
    }

    /// Effective resonance under a control power.
    pub fn effective_resonance(&self, control: Milliwatts) -> Nanometers {
        self.lambda_ref() - self.detuning_for(control)
    }

    /// Drop-port transmission of a signal when the filter is driven by
    /// `control` — the `φ_d(λ_i, λ_ref − ΔFilter)` factor of paper Eq. (6).
    pub fn drop(&self, signal: Nanometers, control: Milliwatts) -> f64 {
        self.ring
            .drop_transmission(signal, self.effective_resonance(control))
    }

    /// Through-port transmission under the same drive (light not dropped
    /// continues on the bus; useful for multi-stage extensions).
    pub fn through(&self, signal: Nanometers, control: Milliwatts) -> f64 {
        self.ring
            .through_transmission(signal, self.effective_resonance(control))
    }

    /// Drop-port transmission at an explicit detuning (bypasses the OTE
    /// map; used when the caller computes `ΔFilter` itself, e.g. Eq. 7.a
    /// with splitter bookkeeping).
    pub fn drop_at_detuning(&self, signal: Nanometers, detuning: Nanometers) -> f64 {
        self.ring
            .drop_transmission(signal, self.lambda_ref() - detuning)
    }
}

/// Physical Kerr/TPA tuning model behind the linearized OTE
/// (paper Eq. 4: `n_eff = n0 + n2 · P / S`).
///
/// The resonance shift follows from the index change:
/// `Δλ / λ = Δn_eff / n_g`, so `Δλ = λ · n2 · P / (S · n_g)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonlinearTuning {
    /// Linear effective index `n0`.
    pub n0: f64,
    /// Non-linear index coefficient `n2` in m²/W.
    pub n2_m2_per_w: f64,
    /// Effective cross-sectional area `S` in m².
    pub cross_section_m2: f64,
    /// Group index `n_g` relating index change to resonance shift.
    pub group_index: f64,
}

impl NonlinearTuning {
    /// GaAs–AlGaAs microring of Van et al. \[14\]: tuned so a 10 mW average
    /// pump produces the reported 0.1 nm resonance shift at 1550 nm.
    pub fn van_et_al_2002() -> Self {
        // With λ = 1550 nm, n_g = 3.4: Δλ = λ·(n2·P/S)/n_g. Requiring
        // Δλ = 0.1 nm at P = 10 mW gives Δn = 3.4·0.1/1550 = 2.1935e-4,
        // i.e. n2/S = 2.1935e-2 W⁻¹; with S = 1 µm² this is the effective
        // (carrier-enhanced) n2 below.
        NonlinearTuning {
            n0: 3.2,
            n2_m2_per_w: 2.1935e-14,
            cross_section_m2: 1e-12,
            group_index: 3.4,
        }
    }

    /// Effective index under a pump power (Eq. 4).
    pub fn effective_index(&self, pump: Milliwatts) -> f64 {
        self.n0 + self.n2_m2_per_w * pump.as_watts() / self.cross_section_m2
    }

    /// Resonance shift at wavelength `lambda` under a pump power.
    pub fn resonance_shift(&self, lambda: Nanometers, pump: Milliwatts) -> Nanometers {
        let dn = self.effective_index(pump) - self.n0;
        lambda * (dn / self.group_index)
    }

    /// Equivalent linearized OTE (nm/mW) at wavelength `lambda`.
    pub fn ote_nm_per_mw(&self, lambda: Nanometers) -> f64 {
        self.resonance_shift(lambda, Milliwatts::new(1.0)).as_nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> AddDropFilter {
        let ring = RingResonator::builder()
            .resonance(Nanometers::new(1550.1))
            .fsr(Nanometers::new(9.0))
            .self_coupling(0.95, 0.95)
            .amplitude_transmission(0.99)
            .build()
            .unwrap();
        AddDropFilter::new(ring, 0.01).unwrap() // 0.1 nm per 10 mW [14]
    }

    #[test]
    fn no_pump_keeps_lambda_ref() {
        let f = filter();
        assert_eq!(
            f.effective_resonance(Milliwatts::ZERO),
            Nanometers::new(1550.1)
        );
    }

    #[test]
    fn pump_blue_shifts() {
        let f = filter();
        // 591.86 mW -> 5.9186 nm... the paper's 2.1 nm shift needs 210 mW at
        // this OTE times IL chain; here we check the raw linear map.
        let d = f.detuning_for(Milliwatts::new(210.0));
        assert!((d.as_nm() - 2.1).abs() < 1e-12);
        assert!((f.effective_resonance(Milliwatts::new(210.0)).as_nm() - 1548.0).abs() < 1e-12);
    }

    #[test]
    fn drop_selects_shifted_channel() {
        let f = filter();
        // Shift the filter onto 1549.0 (detuning 1.1 nm => 110 mW).
        let control = Milliwatts::new(110.0);
        let selected = f.drop(Nanometers::new(1549.0), control);
        let rejected = f.drop(Nanometers::new(1550.0), control);
        assert!(selected > 0.5, "selected = {selected}");
        assert!(rejected < 0.1, "rejected = {rejected}");
        assert!(selected / rejected > 20.0);
    }

    #[test]
    fn negative_control_clamped() {
        let f = filter();
        assert_eq!(f.detuning_for(Milliwatts::new(-5.0)).as_nm(), 0.0);
    }

    #[test]
    fn drop_at_detuning_matches_drop() {
        let f = filter();
        let control = Milliwatts::new(55.0);
        let a = f.drop(Nanometers::new(1549.6), control);
        let b = f.drop_at_detuning(Nanometers::new(1549.6), f.detuning_for(control));
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn through_complements_drop_near_resonance() {
        let f = filter();
        let sig = Nanometers::new(1550.1);
        let t = f.through(sig, Milliwatts::ZERO);
        let d = f.drop(sig, Milliwatts::ZERO);
        assert!(t + d <= 1.0 + 1e-9);
        assert!(d > t, "on resonance the drop port dominates");
    }

    #[test]
    fn rejects_nonpositive_ote() {
        let ring = *filter().ring();
        assert!(AddDropFilter::new(ring, 0.0).is_err());
        assert!(AddDropFilter::new(ring, -0.1).is_err());
    }

    #[test]
    fn nonlinear_model_matches_van_calibration() {
        let nl = NonlinearTuning::van_et_al_2002();
        let shift = nl.resonance_shift(Nanometers::new(1550.0), Milliwatts::new(10.0));
        assert!(
            (shift.as_nm() - 0.1).abs() < 0.001,
            "shift = {} nm",
            shift.as_nm()
        );
        // Linearized OTE ~ 0.01 nm/mW, the value the paper plugs into Eq. 7.a.
        let ote = nl.ote_nm_per_mw(Nanometers::new(1550.0));
        assert!((ote - 0.01).abs() < 1e-4, "ote = {ote}");
    }

    #[test]
    fn nonlinear_index_increases_with_power() {
        let nl = NonlinearTuning::van_et_al_2002();
        let lo = nl.effective_index(Milliwatts::new(1.0));
        let hi = nl.effective_index(Milliwatts::new(100.0));
        assert!(hi > lo && lo > nl.n0);
    }
}

//! Micro-ring resonator transfer functions (paper Eqs. 2 and 3).
//!
//! Both the MRR modulators and the all-optical add-drop filter share the
//! same underlying physics: an add-drop ring with self-coupling
//! coefficients `r1`, `r2`, single-pass amplitude transmission `a`, and a
//! single-pass phase `θ` that depends on the distance between the signal
//! wavelength and the (possibly shifted) resonant wavelength:
//!
//! - through port (Eq. 2):
//!   `φ_t = (a²r2² − 2 a r1 r2 cosθ + r1²) / (1 − 2 a r1 r2 cosθ + (a r1 r2)²)`
//! - drop port (Eq. 3):
//!   `φ_d = a (1−r1²)(1−r2²) / (1 − 2 a r1 r2 cosθ + (a r1 r2)²)`
//!
//! We parameterize the phase by detuning: `θ(λ, λ_res) = 2π (λ − λ_res) / FSR`,
//! which is exact at the resonance of interest, has the correct free
//! spectral range periodicity, and avoids tracking the (large, irrelevant)
//! integer azimuthal order. The paper's evaluation operates within ±3 nm of
//! a 1550 nm resonance, where this detuning form and the order-based form
//! are indistinguishable.

use crate::{check_range, DeviceError};
use osc_units::Nanometers;

/// An add-drop micro-ring resonator characterized at one resonance.
///
/// Construct with [`RingResonator::builder`]. All transfer functions take
/// the *effective* resonant wavelength as an argument so that callers
/// (modulators, the non-linear filter) can shift the resonance without
/// rebuilding the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingResonator {
    resonance: Nanometers,
    fsr: Nanometers,
    r1: f64,
    r2: f64,
    a: f64,
}

impl RingResonator {
    /// Starts building a ring resonator.
    pub fn builder() -> RingResonatorBuilder {
        RingResonatorBuilder::default()
    }

    /// Nominal (unshifted) resonant wavelength.
    pub fn resonance(&self) -> Nanometers {
        self.resonance
    }

    /// Free spectral range.
    pub fn fsr(&self) -> Nanometers {
        self.fsr
    }

    /// Input-bus self-coupling coefficient `r1`.
    pub fn r1(&self) -> f64 {
        self.r1
    }

    /// Drop-bus self-coupling coefficient `r2`.
    pub fn r2(&self) -> f64 {
        self.r2
    }

    /// Single-pass amplitude transmission `a`.
    pub fn amplitude_transmission(&self) -> f64 {
        self.a
    }

    /// Single-pass phase for a signal at `signal` when the ring resonates
    /// at `resonance_eff`.
    pub fn phase(&self, signal: Nanometers, resonance_eff: Nanometers) -> f64 {
        2.0 * std::f64::consts::PI * (signal - resonance_eff).as_nm() / self.fsr.as_nm()
    }

    /// Through-port power transmission `φ_t` (paper Eq. 2).
    ///
    /// `signal` is the probe wavelength; `resonance_eff` is the effective
    /// (possibly detuned) resonance.
    pub fn through_transmission(&self, signal: Nanometers, resonance_eff: Nanometers) -> f64 {
        let cos_t = self.phase(signal, resonance_eff).cos();
        let (a, r1, r2) = (self.a, self.r1, self.r2);
        let num = a * a * r2 * r2 - 2.0 * a * r1 * r2 * cos_t + r1 * r1;
        let den = 1.0 - 2.0 * a * r1 * r2 * cos_t + (a * r1 * r2) * (a * r1 * r2);
        num / den
    }

    /// Drop-port power transmission `φ_d` (paper Eq. 3).
    pub fn drop_transmission(&self, signal: Nanometers, resonance_eff: Nanometers) -> f64 {
        let cos_t = self.phase(signal, resonance_eff).cos();
        let (a, r1, r2) = (self.a, self.r1, self.r2);
        let num = a * (1.0 - r1 * r1) * (1.0 - r2 * r2);
        let den = 1.0 - 2.0 * a * r1 * r2 * cos_t + (a * r1 * r2) * (a * r1 * r2);
        num / den
    }

    /// Through transmission at the nominal resonance (the modulator's
    /// OFF-state extinction floor).
    pub fn through_at_resonance(&self) -> f64 {
        self.through_transmission(self.resonance, self.resonance)
    }

    /// Whether the ring is critically coupled (`r1 == a·r2`), i.e. the
    /// through port extinguishes completely on resonance.
    pub fn is_critically_coupled(&self, tol: f64) -> bool {
        (self.r1 - self.a * self.r2).abs() < tol
    }
}

/// Builder for [`RingResonator`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct RingResonatorBuilder {
    resonance: Option<Nanometers>,
    fsr: Option<Nanometers>,
    r1: Option<f64>,
    r2: Option<f64>,
    a: Option<f64>,
}

impl RingResonatorBuilder {
    /// Sets the nominal resonant wavelength.
    pub fn resonance(mut self, wl: Nanometers) -> Self {
        self.resonance = Some(wl);
        self
    }

    /// Sets the free spectral range.
    pub fn fsr(mut self, fsr: Nanometers) -> Self {
        self.fsr = Some(fsr);
        self
    }

    /// Sets both self-coupling coefficients.
    pub fn self_coupling(mut self, r1: f64, r2: f64) -> Self {
        self.r1 = Some(r1);
        self.r2 = Some(r2);
        self
    }

    /// Sets the single-pass amplitude transmission (loss) coefficient.
    pub fn amplitude_transmission(mut self, a: f64) -> Self {
        self.a = Some(a);
        self
    }

    /// Validates the parameters and builds the resonator.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] when a field is missing or outside its
    /// physical range (`0 < r < 1`, `0 < a ≤ 1`, positive wavelengths).
    pub fn build(self) -> Result<RingResonator, DeviceError> {
        let resonance = self.resonance.ok_or(DeviceError::Missing("resonance"))?;
        let fsr = self.fsr.ok_or(DeviceError::Missing("fsr"))?;
        let r1 = self.r1.ok_or(DeviceError::Missing("r1"))?;
        let r2 = self.r2.ok_or(DeviceError::Missing("r2"))?;
        let a = self.a.ok_or(DeviceError::Missing("a"))?;
        check_range("resonance", resonance.as_nm(), 1e-6, f64::MAX, "λ > 0")?;
        check_range("fsr", fsr.as_nm(), 1e-9, f64::MAX, "FSR > 0")?;
        check_range("r1", r1, 1e-6, 1.0 - 1e-9, "0 < r1 < 1")?;
        check_range("r2", r2, 1e-6, 1.0 - 1e-9, "0 < r2 < 1")?;
        check_range("a", a, 1e-6, 1.0, "0 < a <= 1")?;
        Ok(RingResonator {
            resonance,
            fsr,
            r1,
            r2,
            a,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ring() -> RingResonator {
        RingResonator::builder()
            .resonance(Nanometers::new(1550.0))
            .fsr(Nanometers::new(5.0))
            .self_coupling(0.95, 0.95)
            .amplitude_transmission(0.99)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_all_fields() {
        let err = RingResonator::builder()
            .resonance(Nanometers::new(1550.0))
            .build()
            .unwrap_err();
        assert_eq!(err, DeviceError::Missing("fsr"));
    }

    #[test]
    fn builder_rejects_unphysical_coupling() {
        let err = RingResonator::builder()
            .resonance(Nanometers::new(1550.0))
            .fsr(Nanometers::new(5.0))
            .self_coupling(1.2, 0.9)
            .amplitude_transmission(0.99)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::OutOfRange { name: "r1", .. }));
    }

    #[test]
    fn resonance_dip_and_peak() {
        let ring = test_ring();
        let on_through = ring.through_at_resonance();
        let on_drop = ring.drop_transmission(ring.resonance(), ring.resonance());
        assert!(on_through < 0.01, "through on resonance = {on_through}");
        assert!(on_drop > 0.8, "drop on resonance = {on_drop}");
    }

    #[test]
    fn off_resonance_passes_through() {
        let ring = test_ring();
        let off = ring.through_transmission(Nanometers::new(1550.0 + 2.5), Nanometers::new(1550.0));
        assert!(off > 0.9, "anti-resonance through = {off}");
        let drop_off =
            ring.drop_transmission(Nanometers::new(1550.0 + 2.5), Nanometers::new(1550.0));
        assert!(drop_off < 0.01);
    }

    #[test]
    fn fsr_periodicity() {
        let ring = test_ring();
        let t0 = ring.through_transmission(Nanometers::new(1550.3), Nanometers::new(1550.0));
        let t1 = ring.through_transmission(Nanometers::new(1555.3), Nanometers::new(1550.0));
        assert!((t0 - t1).abs() < 1e-12);
    }

    #[test]
    fn energy_conservation_with_loss() {
        let ring = test_ring();
        for d in [-1.0, -0.2, -0.05, 0.0, 0.05, 0.2, 1.0] {
            let wl = Nanometers::new(1550.0 + d);
            let t = ring.through_transmission(wl, ring.resonance());
            let dr = ring.drop_transmission(wl, ring.resonance());
            assert!(t >= 0.0 && dr >= 0.0);
            assert!(t + dr <= 1.0 + 1e-9, "φt + φd = {} at detuning {d}", t + dr);
        }
    }

    #[test]
    fn lossless_symmetric_ring_conserves_energy_on_resonance() {
        let ring = RingResonator::builder()
            .resonance(Nanometers::new(1550.0))
            .fsr(Nanometers::new(5.0))
            .self_coupling(0.9, 0.9)
            .amplitude_transmission(1.0)
            .build()
            .unwrap();
        let t = ring.through_at_resonance();
        let d = ring.drop_transmission(ring.resonance(), ring.resonance());
        assert!(t.abs() < 1e-12, "lossless symmetric ring fully drops");
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_resonance_moves_the_dip() {
        let ring = test_ring();
        let shifted = Nanometers::new(1549.0);
        // Signal at 1550 passes when the ring is detuned to 1549.
        let t = ring.through_transmission(Nanometers::new(1550.0), shifted);
        assert!(t > 0.5);
        // And the dip is now at 1549.
        let t2 = ring.through_transmission(Nanometers::new(1549.0), shifted);
        assert!(t2 < 0.01);
    }

    #[test]
    fn critical_coupling_detection() {
        let ring = RingResonator::builder()
            .resonance(Nanometers::new(1550.0))
            .fsr(Nanometers::new(5.0))
            .self_coupling(0.95 * 0.99, 0.95)
            .amplitude_transmission(0.99)
            .build()
            .unwrap();
        assert!(ring.is_critically_coupled(1e-9));
        assert!(ring.through_at_resonance() < 1e-20);
    }

    #[test]
    fn drop_is_symmetric_in_detuning() {
        let ring = test_ring();
        let plus = ring.drop_transmission(Nanometers::new(1550.4), ring.resonance());
        let minus = ring.drop_transmission(Nanometers::new(1549.6), ring.resonance());
        assert!((plus - minus).abs() < 1e-12);
    }
}

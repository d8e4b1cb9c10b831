//! SNR and BER analysis (paper Eqs. 8–9).
//!
//! Eq. (8) defines the worst-case decision margin for probe channel `i`:
//! the transmission of `i` carrying a 1 (others 0), minus the summed
//! crosstalk of every other channel carrying a 1 while `i` carries a 0:
//!
//! `SNR = OP_probe · (R / i_n) · [ T_{z=1}(i) − Σ_{w≠i} T_{z=1}(w) ]`
//!
//! Eq. (9) then gives the on/off-keying bit error rate
//! `BER = 0.5 · erfc(SNR / (2√2))`.
//!
//! Because every transmission factor is linear in probe power, the minimum
//! probe power for a BER target follows in closed form — the computation
//! at the heart of the paper's Fig. 6.

use crate::transmission::TransmissionModel;
use crate::{params::CircuitParams, CircuitError};
use osc_photonics::detector::{ber_from_snr, snr_for_ber, Photodetector};
use osc_units::Milliwatts;

/// Per-selection-case SNR diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionSnr {
    /// Number of ones in the data word (= selected channel index).
    pub count: usize,
    /// Transmission of the selected channel carrying a 1.
    pub signal_transmission: f64,
    /// Summed crosstalk transmission of the other channels carrying 1s.
    pub crosstalk_transmission: f64,
    /// The Eq. (8) SNR at the configured probe power.
    pub snr: f64,
}

/// The Eq. (8)/(9) analysis bound to one circuit configuration.
#[derive(Debug, Clone)]
pub struct SnrModel {
    model: TransmissionModel,
    detector: Photodetector,
    probe_power: Milliwatts,
}

impl SnrModel {
    /// Builds the model from circuit parameters.
    ///
    /// # Errors
    ///
    /// Propagates validation and device construction failures.
    pub fn new(params: &CircuitParams) -> Result<Self, CircuitError> {
        Ok(SnrModel {
            model: TransmissionModel::new(params)?,
            detector: params.detector()?,
            probe_power: params.probe_power,
        })
    }

    /// Builds from an existing transmission model (avoids re-deriving the
    /// devices during sweeps).
    pub fn from_model(
        model: TransmissionModel,
        detector: Photodetector,
        probe_power: Milliwatts,
    ) -> Self {
        SnrModel {
            model,
            detector,
            probe_power,
        }
    }

    /// The underlying transmission model.
    pub fn model(&self) -> &TransmissionModel {
        &self.model
    }

    /// Probe power assumed by [`SnrModel::worst_case_snr`].
    pub fn probe_power(&self) -> Milliwatts {
        self.probe_power
    }

    /// The data word with `count` ones (ones first; the adder only sees
    /// the count, so the arrangement is irrelevant).
    fn data_word(&self, count: usize) -> Vec<bool> {
        (0..self.model.order()).map(|i| i < count).collect()
    }

    /// Eq. (8) margin terms for the selection case `count` (filter parked
    /// on channel `i = count`).
    ///
    /// # Errors
    ///
    /// Propagates arity errors (impossible for in-range counts).
    pub fn selection_snr(&self, count: usize) -> Result<SelectionSnr, CircuitError> {
        let n = self.model.order();
        assert!(count <= n, "count {count} exceeds order {n}");
        let x = self.data_word(count);
        let i = count;
        // Signal: channel i carries a 1, every other channel a 0.
        let mut z_signal = vec![false; n + 1];
        z_signal[i] = true;
        let t_signal = self.model.channel_transmission(i, &z_signal, &x)?;
        // Crosstalk: every other channel carries a 1, channel i a 0.
        let mut z_xtalk = vec![true; n + 1];
        z_xtalk[i] = false;
        let mut t_xtalk = 0.0;
        for w in 0..=n {
            if w != i {
                t_xtalk += self.model.channel_transmission(w, &z_xtalk, &x)?;
            }
        }
        let delta_t = t_signal - t_xtalk;
        let snr = self
            .detector
            .snr(self.probe_power * t_signal, self.probe_power * t_xtalk);
        Ok(SelectionSnr {
            count,
            signal_transmission: t_signal,
            crosstalk_transmission: t_xtalk,
            snr: if delta_t > 0.0 { snr } else { 0.0 },
        })
    }

    /// All selection cases, counts `0..=n`.
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn selection_snrs(&self) -> Result<Vec<SelectionSnr>, CircuitError> {
        (0..=self.model.order())
            .map(|k| self.selection_snr(k))
            .collect()
    }

    /// Worst-case Eq. (8) SNR over all selection cases.
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn worst_case_snr(&self) -> Result<f64, CircuitError> {
        Ok(self
            .selection_snrs()?
            .into_iter()
            .map(|s| s.snr)
            .fold(f64::INFINITY, f64::min))
    }

    /// Worst-case margin `ΔT = T_signal − ΣT_crosstalk` (probe-power
    /// independent).
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn worst_case_margin(&self) -> Result<f64, CircuitError> {
        Ok(self
            .selection_snrs()?
            .into_iter()
            .map(|s| s.signal_transmission - s.crosstalk_transmission)
            .fold(f64::INFINITY, f64::min))
    }

    /// BER at the configured probe power (Eq. 9 on the worst-case SNR).
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn ber(&self) -> Result<f64, CircuitError> {
        Ok(ber_from_snr(self.worst_case_snr()?))
    }

    /// Minimum probe power to reach `target_snr` (exact, by linearity).
    ///
    /// # Errors
    ///
    /// [`CircuitError::Infeasible`] when the crosstalk margin is
    /// non-positive — no power can then separate the levels.
    pub fn min_probe_power_for_snr(&self, target_snr: f64) -> Result<Milliwatts, CircuitError> {
        let margin = self.worst_case_margin()?;
        if margin <= 0.0 {
            return Err(CircuitError::Infeasible(format!(
                "crosstalk exceeds signal (margin = {margin:.4}); no probe power reaches SNR {target_snr}"
            )));
        }
        let noise_w = self.detector.noise_current().as_amps() / self.detector.responsivity();
        Ok(Milliwatts::from_watts(target_snr * noise_w / margin))
    }

    /// Minimum probe power to reach a BER target (Fig. 6's quantity).
    ///
    /// # Errors
    ///
    /// [`CircuitError::Infeasible`] when the margin is non-positive, and
    /// [`CircuitError::InvalidStructure`] when `target_ber` lies outside
    /// `(0, 0.5)` — no finite SNR reaches BER 0, and 0.5 means the
    /// levels are indistinguishable. Design sweeps carry the BER target
    /// as data, so an absurd target must come back as a value, never a
    /// panic.
    pub fn min_probe_power_for_ber(&self, target_ber: f64) -> Result<Milliwatts, CircuitError> {
        if !(target_ber > 0.0 && target_ber < 0.5) {
            return Err(CircuitError::InvalidStructure(format!(
                "target BER must lie in (0, 0.5), got {target_ber}"
            )));
        }
        self.min_probe_power_for_snr(snr_for_ber(target_ber))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CircuitParams;
    use osc_units::DbRatio;

    fn model() -> SnrModel {
        SnrModel::new(&CircuitParams::paper_fig5()).unwrap()
    }

    #[test]
    fn margins_positive_for_fig5() {
        let m = model();
        for s in m.selection_snrs().unwrap() {
            assert!(
                s.signal_transmission > s.crosstalk_transmission,
                "case {s:?}"
            );
            assert!(s.snr > 0.0);
        }
    }

    #[test]
    fn snr_linear_in_probe_power() {
        let p = CircuitParams::paper_fig5();
        let m1 = SnrModel::new(&p).unwrap();
        let m2 = SnrModel::new(&p.with_probe_power(Milliwatts::new(2.0))).unwrap();
        let s1 = m1.worst_case_snr().unwrap();
        let s2 = m2.worst_case_snr().unwrap();
        assert!((s2 / s1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_power_round_trips_through_ber() {
        let m = model();
        let p = m.min_probe_power_for_ber(1e-6).unwrap();
        let tuned = SnrModel::new(&CircuitParams::paper_fig5().with_probe_power(p)).unwrap();
        let ber = tuned.ber().unwrap();
        assert!(
            (ber.log10() - (-6.0)).abs() < 0.05,
            "achieved BER {ber:.3e}"
        );
    }

    #[test]
    fn ber_improves_with_probe_power() {
        let p = CircuitParams::paper_fig5();
        let low = SnrModel::new(&p.with_probe_power(Milliwatts::new(0.05)))
            .unwrap()
            .ber()
            .unwrap();
        let high = SnrModel::new(&p.with_probe_power(Milliwatts::new(1.0)))
            .unwrap()
            .ber()
            .unwrap();
        assert!(high < low);
    }

    #[test]
    fn tighter_ber_needs_more_power() {
        let m = model();
        let p2 = m.min_probe_power_for_ber(1e-2).unwrap();
        let p6 = m.min_probe_power_for_ber(1e-6).unwrap();
        assert!(p6 > p2);
        // Fig. 6(b): the 1e-2 target needs about half the 1e-6 power.
        let ratio = p2 / p6;
        assert!((ratio - 0.489).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn narrow_spacing_becomes_infeasible() {
        // Squeeze the channels far below the filter linewidth: crosstalk
        // swamps the signal and the design method must say so.
        let mut p = CircuitParams::paper_fig7(2, osc_units::Nanometers::new(0.02));
        p.probe_power = Milliwatts::new(1.0);
        let m = SnrModel::new(&p).unwrap();
        assert!(m.min_probe_power_for_ber(1e-6).is_err());
    }

    #[test]
    fn weak_mzi_needs_more_probe_power() {
        // Lower extinction ratio compresses the wavelength plan (channels
        // closer together) -> more crosstalk -> more probe power.
        let strong = CircuitParams::paper_fig6(DbRatio::from_db(4.0), DbRatio::from_db(7.5));
        let weak = CircuitParams::paper_fig6(DbRatio::from_db(7.4), DbRatio::from_db(4.0));
        let ps = SnrModel::new(&strong)
            .unwrap()
            .min_probe_power_for_ber(1e-6)
            .unwrap();
        let pw = SnrModel::new(&weak)
            .unwrap()
            .min_probe_power_for_ber(1e-6)
            .unwrap();
        assert!(pw > ps, "weak {pw} vs strong {ps}");
    }
}

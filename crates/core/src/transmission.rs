//! The full WDM transmission model (paper Eqs. 5–7).
//!
//! For probe signal `i` (coefficient `z_i`), data word `x` and coefficient
//! word `z`, Eq. (6) factors the end-to-end power transmission as
//!
//! `T_{s,z}[i] = φ_t(λ_i, λ_i − Δλ·z_i) · Π_{w≠i} φ_t(λ_i, λ_w − Δλ·z_w) · φ_d(λ_i, λ_ref − ΔFilter(x))`
//!
//! i.e. the signal passes its own modulator (whose resonance is blue-
//! shifted by `Δλ` when transmitting a 1), then every *other* modulator on
//! the shared bus (inter-channel attenuation), and is finally dropped by
//! the pump-tuned filter. The detector receives the sum over all probe
//! channels — including the crosstalk the SNR analysis must subtract.
//!
//! # Factored tables
//!
//! Every factor of Eq. (6) depends on less than the whole input: the
//! through-port term of modulator `w` on channel `i` only on bit `z_w`,
//! and the drop-port term only on the data word (through its control
//! power). [`PowerRows`] caches the modulator products once per
//! `(channel, z-word)` — built by extending the products of the low `k`
//! coefficient bits with modulator `k`'s two through-port values — and
//! then fills one row of `2^(n+1)` received powers per data word with
//! one drop-port factor per channel. A full `(count, z-word)` table costs
//! `O((n+1) · 2^(n+1))` multiplications per row instead of `(n+1)²` device
//! evaluations per entry.
//!
//! Every row entry is **bit-identical** to
//! [`TransmissionModel::received_power`]: the factors are the same
//! device evaluations, each channel's product is multiplied in the same
//! order (`t = 1.0`, then `t *= φ_t` modulator by modulator, then
//! `t *= φ_d`), and the channel powers `probe · t` are summed in the same
//! LSB-first channel order. Only the reuse of shared prefixes differs,
//! and reuse does not change a single rounding.

use crate::adder::OpticalAdder;
use crate::mux::OpticalMux;
use crate::{params::CircuitParams, CircuitError};
use osc_photonics::mrr_modulator::MrrModulator;
use osc_photonics::spectrum::{Channel, Spectrum};
use osc_units::{Milliwatts, Nanometers};

/// The analytical transmission model of one circuit instance.
#[derive(Debug, Clone)]
pub struct TransmissionModel {
    adder: OpticalAdder,
    mux: OpticalMux,
    modulators: Vec<MrrModulator>,
    channels: Vec<Nanometers>,
}

impl TransmissionModel {
    /// Builds the model from circuit parameters.
    ///
    /// # Errors
    ///
    /// Propagates validation and device construction failures.
    pub fn new(params: &CircuitParams) -> Result<Self, CircuitError> {
        let adder = OpticalAdder::new(params)?;
        let mux = OpticalMux::new(params)?;
        let channels = params.channels();
        let modulators = channels
            .iter()
            .map(|&ch| params.modulator.at_channel(ch))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TransmissionModel {
            adder,
            mux,
            modulators,
            channels,
        })
    }

    /// Polynomial order `n`.
    pub fn order(&self) -> usize {
        self.adder.order()
    }

    /// Probe channel wavelengths `λ_0 … λ_n`.
    pub fn channels(&self) -> &[Nanometers] {
        &self.channels
    }

    /// The stochastic adder stage.
    pub fn adder(&self) -> &OpticalAdder {
        &self.adder
    }

    /// The multiplexer stage.
    pub fn mux(&self) -> &OpticalMux {
        &self.mux
    }

    /// The coefficient modulators, channel order.
    pub fn modulators(&self) -> &[MrrModulator] {
        &self.modulators
    }

    fn check_arities(&self, x_bits: &[bool], z_bits: &[bool]) -> Result<(), CircuitError> {
        let n = self.order();
        if x_bits.len() != n {
            return Err(CircuitError::ArityMismatch {
                what: "data bits",
                expected: n,
                got: x_bits.len(),
            });
        }
        if z_bits.len() != n + 1 {
            return Err(CircuitError::ArityMismatch {
                what: "coefficient bits",
                expected: n + 1,
                got: z_bits.len(),
            });
        }
        Ok(())
    }

    /// Filter detuning `ΔFilter(x)` for a data word (Eq. 7.a).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word length.
    pub fn delta_filter(&self, x_bits: &[bool]) -> Result<Nanometers, CircuitError> {
        Ok(self.mux.detuning(self.adder.control_power(x_bits)?))
    }

    /// End-to-end transmission of probe channel `i` (Eq. 6).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths or an
    /// out-of-range channel index.
    pub fn channel_transmission(
        &self,
        i: usize,
        z_bits: &[bool],
        x_bits: &[bool],
    ) -> Result<f64, CircuitError> {
        self.check_arities(x_bits, z_bits)?;
        if i > self.order() {
            return Err(CircuitError::ArityMismatch {
                what: "channel index",
                expected: self.order(),
                got: i,
            });
        }
        let signal = self.channels[i];
        // Through every modulator: its own (bit z_i) plus the others.
        let mut t = 1.0;
        for (w, modulator) in self.modulators.iter().enumerate() {
            t *= modulator.through(signal, z_bits[w]);
        }
        // Dropped by the pump-tuned filter.
        let control = self.adder.control_power(x_bits)?;
        t *= self.mux.filter().drop(signal, control);
        Ok(t)
    }

    /// Transmission of every channel for one input combination.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths.
    pub fn all_transmissions(
        &self,
        z_bits: &[bool],
        x_bits: &[bool],
    ) -> Result<Vec<f64>, CircuitError> {
        (0..=self.order())
            .map(|i| self.channel_transmission(i, z_bits, x_bits))
            .collect()
    }

    /// Power spectrum arriving at the photodetector when every probe laser
    /// emits `probe_power`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths.
    pub fn received_spectrum(
        &self,
        z_bits: &[bool],
        x_bits: &[bool],
        probe_power: Milliwatts,
    ) -> Result<Spectrum, CircuitError> {
        let ts = self.all_transmissions(z_bits, x_bits)?;
        Ok(self
            .channels
            .iter()
            .zip(ts)
            .map(|(&wavelength, t)| Channel {
                wavelength,
                power: probe_power * t,
            })
            .collect())
    }

    /// Total power at the photodetector (the sum the de-randomizer
    /// thresholds).
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths.
    pub fn received_power(
        &self,
        z_bits: &[bool],
        x_bits: &[bool],
        probe_power: Milliwatts,
    ) -> Result<Milliwatts, CircuitError> {
        Ok(self
            .received_spectrum(z_bits, x_bits, probe_power)?
            .total_power())
    }

    /// The factored Eq. (6) row builder at `probe_power`: caches every
    /// channel's modulator product for every coefficient word, so each
    /// [`PowerRows::row`] costs one drop-port evaluation per channel.
    pub fn power_rows(&self, probe_power: Milliwatts) -> PowerRows<'_> {
        let width = self.order() + 1;
        // `products[zw * width + i]`: channel i's through-port product for
        // coefficient word zw. Level k doubles the filled prefix by
        // multiplying in modulator k's factor for z_k = 0 (in place) and
        // z_k = 1 (into the upper half) — the per-entry loop's order.
        let mut products = vec![1.0f64; width << width];
        for (k, modulator) in self.modulators.iter().enumerate() {
            let through: Vec<[f64; 2]> = self
                .channels
                .iter()
                .map(|&signal| {
                    [
                        modulator.through(signal, false),
                        modulator.through(signal, true),
                    ]
                })
                .collect();
            let (low, high) = products.split_at_mut(width << k);
            for (low_word, high_word) in low
                .chunks_exact_mut(width)
                .zip(high.chunks_exact_mut(width))
            {
                for ((t0, t1), [off, on]) in low_word.iter_mut().zip(high_word).zip(&through) {
                    *t1 = *t0 * on;
                    *t0 *= off;
                }
            }
        }
        PowerRows {
            model: self,
            probe_power,
            products,
        }
    }

    /// Sampled transmission spectra of each modulator and of the filter
    /// for a given input combination, for reproducing Fig. 5(a)/(b):
    /// returns `(wavelengths, modulator_curves, filter_curve)` over
    /// `[λ_0 − 1.5·spacing, λ_ref + 0.5]` nm.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths.
    #[allow(clippy::type_complexity)]
    pub fn spectra(
        &self,
        z_bits: &[bool],
        x_bits: &[bool],
        points: usize,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>, Vec<f64>), CircuitError> {
        self.check_arities(x_bits, z_bits)?;
        let lo = self.channels[0].as_nm() - 1.0;
        let hi = self.mux.filter().lambda_ref().as_nm() + 0.5;
        let wavelengths = osc_math::linspace(lo, hi, points);
        let control = self.adder.control_power(x_bits)?;
        let modulator_curves = self
            .modulators
            .iter()
            .enumerate()
            .map(|(w, m)| {
                wavelengths
                    .iter()
                    .map(|&wl| m.through(Nanometers::new(wl), z_bits[w]))
                    .collect()
            })
            .collect();
        let filter_curve = wavelengths
            .iter()
            .map(|&wl| self.mux.filter().drop(Nanometers::new(wl), control))
            .collect();
        Ok((wavelengths, modulator_curves, filter_curve))
    }
}

/// Eq. (6) with its modulator factors cached, from
/// [`TransmissionModel::power_rows`]: one row of received powers per data
/// word, bit-identical to [`TransmissionModel::received_power`] entry by
/// entry (see the module docs).
#[derive(Debug, Clone)]
pub struct PowerRows<'a> {
    model: &'a TransmissionModel,
    probe_power: Milliwatts,
    /// Channel modulator products, `[z_word * (n+1) + channel]`.
    products: Vec<f64>,
}

impl PowerRows<'_> {
    /// Received power for every coefficient word `z_word` (LSB-first,
    /// `2^(n+1)` entries) under the data word `x_bits`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on a wrong data word length.
    pub fn row(&self, x_bits: &[bool]) -> Result<Vec<Milliwatts>, CircuitError> {
        let model = self.model;
        let control = model.adder.control_power(x_bits)?;
        let drops: Vec<f64> = model
            .channels
            .iter()
            .map(|&signal| model.mux.filter().drop(signal, control))
            .collect();
        Ok(self
            .products
            .chunks_exact(drops.len())
            .map(|word| {
                word.iter()
                    .zip(&drops)
                    .map(|(&t, &d)| self.probe_power * (t * d))
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CircuitParams;

    fn model() -> TransmissionModel {
        TransmissionModel::new(&CircuitParams::paper_fig5()).unwrap()
    }

    #[test]
    fn fig5a_transmission_ordering() {
        // z = (0,1,0), x1 = x2 = 1: the filter sits on λ2, so channel 2
        // dominates, channel 1 is next (it carries a 1 but the filter
        // rejects it), channel 0 is deeply suppressed.
        let m = model();
        let t = m
            .all_transmissions(&[false, true, false], &[true, true])
            .unwrap();
        assert!(t[2] > 10.0 * t[1], "t = {t:?}");
        assert!(t[1] > t[0], "t = {t:?}");
    }

    #[test]
    fn fig5b_strong_one_level() {
        // z = (1,1,0), x1 = x2 = 0: filter on λ0 which carries a 1.
        let m = model();
        let t = m
            .all_transmissions(&[true, true, false], &[false, false])
            .unwrap();
        assert!(t[0] > 0.3, "t0 = {}", t[0]);
        assert!(t[0] > 20.0 * t[1]);
    }

    #[test]
    fn zero_and_one_levels_separate() {
        // For every data word, the received power when the selected
        // coefficient is 1 must clearly exceed the power when it is 0.
        let m = model();
        let words: [(&[bool], usize); 3] = [
            (&[false, false], 0),
            (&[false, true], 1),
            (&[true, true], 2),
        ];
        for (x, sel) in words {
            let mut z1 = vec![false; 3];
            z1[sel] = true;
            let z0 = vec![false; 3];
            let p1 = m.received_power(&z1, x, Milliwatts::new(1.0)).unwrap();
            let p0 = m.received_power(&z0, x, Milliwatts::new(1.0)).unwrap();
            assert!(p1.as_mw() > 3.0 * p0.as_mw(), "x={x:?}: p1={p1}, p0={p0}");
        }
    }

    #[test]
    fn received_power_scales_with_probe() {
        let m = model();
        let z = [false, true, false];
        let x = [true, true];
        let p1 = m.received_power(&z, &x, Milliwatts::new(1.0)).unwrap();
        let p2 = m.received_power(&z, &x, Milliwatts::new(2.0)).unwrap();
        assert!((p2.as_mw() - 2.0 * p1.as_mw()).abs() < 1e-12);
    }

    #[test]
    fn delta_filter_matches_paper() {
        let m = model();
        assert!((m.delta_filter(&[false, false]).unwrap().as_nm() - 2.1).abs() < 1e-6);
        assert!((m.delta_filter(&[true, false]).unwrap().as_nm() - 1.1).abs() < 1e-6);
        assert!((m.delta_filter(&[true, true]).unwrap().as_nm() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn arity_errors() {
        let m = model();
        assert!(m.channel_transmission(0, &[false], &[true, true]).is_err());
        assert!(m
            .channel_transmission(0, &[false, true, false], &[true])
            .is_err());
        assert!(m
            .channel_transmission(5, &[false, true, false], &[true, true])
            .is_err());
    }

    #[test]
    fn spectra_shapes() {
        let m = model();
        let (wl, mods, filt) = m
            .spectra(&[false, true, false], &[true, true], 200)
            .unwrap();
        assert_eq!(wl.len(), 200);
        assert_eq!(mods.len(), 3);
        assert_eq!(filt.len(), 200);
        // Each modulator curve dips near its own channel when OFF.
        let idx_of = |target: f64| {
            wl.iter()
                .enumerate()
                .min_by(|a, b| {
                    (a.1 - target)
                        .abs()
                        .partial_cmp(&(b.1 - target).abs())
                        .unwrap()
                })
                .unwrap()
                .0
        };
        let dip0 = mods[0][idx_of(1548.0)];
        let far0 = mods[0][idx_of(1550.0)];
        assert!(dip0 < 0.3 && far0 > 0.9, "dip {dip0}, far {far0}");
        // Filter curve peaks at λ2 for x = (1,1).
        let peak = filt[idx_of(1550.0)];
        let off = filt[idx_of(1548.0)];
        assert!(peak > 0.5 && off < 0.05);
    }

    #[test]
    fn spectrum_object_consistent_with_total() {
        let m = model();
        let z = [true, false, true];
        let x = [false, true];
        let spec = m.received_spectrum(&z, &x, Milliwatts::new(1.0)).unwrap();
        let total = m.received_power(&z, &x, Milliwatts::new(1.0)).unwrap();
        assert!((spec.total_power().as_mw() - total.as_mw()).abs() < 1e-15);
        assert_eq!(spec.len(), 3);
    }
}

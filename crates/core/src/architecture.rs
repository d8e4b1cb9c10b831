//! The assembled generic optical SC circuit (paper Fig. 4(a)).

use crate::snr::SnrModel;
use crate::transmission::TransmissionModel;
use crate::{params::CircuitParams, CircuitError};
use osc_photonics::detector::Photodetector;
use osc_units::Milliwatts;

/// One row of the exhaustive received-power table (paper Fig. 5(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLevelRow {
    /// Data word `x_1 … x_n`.
    pub x_bits: Vec<bool>,
    /// Coefficient word `z_0 … z_n`.
    pub z_bits: Vec<bool>,
    /// The coefficient index the multiplexer selects (count of ones in x).
    pub selected: usize,
    /// The logical bit being transmitted (`z[selected]`).
    pub transmitted_bit: bool,
    /// Optical power at the photodetector.
    pub received: Milliwatts,
}

/// Min/max received power for each logical level (the separation that
/// makes optical de-randomizing possible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBands {
    /// Lowest received power while transmitting a 0.
    pub zero_min: Milliwatts,
    /// Highest received power while transmitting a 0.
    pub zero_max: Milliwatts,
    /// Lowest received power while transmitting a 1.
    pub one_min: Milliwatts,
    /// Highest received power while transmitting a 1.
    pub one_max: Milliwatts,
}

impl PowerBands {
    /// Whether the bands are disjoint (1-band entirely above 0-band).
    pub fn separated(&self) -> bool {
        self.one_min > self.zero_max
    }

    /// Gap between the bands (negative when they overlap).
    pub fn gap(&self) -> Milliwatts {
        self.one_min - self.zero_max
    }

    /// The mid-gap decision threshold.
    pub fn midpoint_threshold(&self) -> Milliwatts {
        (self.zero_max + self.one_min) * 0.5
    }

    /// The bands of a `(count, z-word)` power table indexed
    /// `[count][z_word]`: entry `(count, zw)` transmits bit `count` of
    /// `zw`.
    pub fn from_table(table: &[Vec<Milliwatts>]) -> PowerBands {
        let mut bands = PowerBands {
            zero_min: Milliwatts::new(f64::INFINITY),
            zero_max: Milliwatts::new(f64::NEG_INFINITY),
            one_min: Milliwatts::new(f64::INFINITY),
            one_max: Milliwatts::new(f64::NEG_INFINITY),
        };
        for (count, row) in table.iter().enumerate() {
            for (zw, &received) in row.iter().enumerate() {
                if zw >> count & 1 == 1 {
                    bands.one_min = bands.one_min.min(received);
                    bands.one_max = bands.one_max.max(received);
                } else {
                    bands.zero_min = bands.zero_min.min(received);
                    bands.zero_max = bands.zero_max.max(received);
                }
            }
        }
        bands
    }
}

/// The generic `n`-th order optical stochastic computing circuit.
#[derive(Debug, Clone)]
pub struct OpticalScCircuit {
    params: CircuitParams,
    model: TransmissionModel,
    detector: Photodetector,
}

impl OpticalScCircuit {
    /// Assembles the circuit from parameters.
    ///
    /// # Errors
    ///
    /// Propagates validation and device construction failures.
    pub fn new(params: CircuitParams) -> Result<Self, CircuitError> {
        let model = TransmissionModel::new(&params)?;
        let detector = params.detector()?;
        Ok(OpticalScCircuit {
            params,
            model,
            detector,
        })
    }

    /// The circuit parameters.
    pub fn params(&self) -> &CircuitParams {
        &self.params
    }

    /// The underlying transmission model.
    pub fn model(&self) -> &TransmissionModel {
        &self.model
    }

    /// The receiver front end.
    pub fn detector(&self) -> &Photodetector {
        &self.detector
    }

    /// Polynomial order `n`.
    pub fn order(&self) -> usize {
        self.params.order
    }

    /// Power at the photodetector for one input combination, at the
    /// configured probe power.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ArityMismatch`] on wrong word lengths.
    pub fn received_power(
        &self,
        x_bits: &[bool],
        z_bits: &[bool],
    ) -> Result<Milliwatts, CircuitError> {
        self.model
            .received_power(z_bits, x_bits, self.params.probe_power)
    }

    /// The SNR analysis for this circuit.
    pub fn snr_model(&self) -> SnrModel {
        SnrModel::from_model(self.model.clone(), self.detector, self.params.probe_power)
    }

    /// The exhaustive received-power table over all `2^n · 2^(n+1)` input
    /// combinations (Fig. 5(c)). Rows are ordered by data word then
    /// coefficient word, both LSB-first.
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable — words are generated
    /// internally).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds 16 (the table would have > 2^33 rows).
    pub fn power_level_table(&self) -> Result<Vec<PowerLevelRow>, CircuitError> {
        let n = self.order();
        assert!(n <= 16, "power table infeasible for order {n}");
        let power_rows = self.model.power_rows(self.params.probe_power);
        let mut rows = Vec::with_capacity(1 << (2 * n + 1));
        for xw in 0..(1u32 << n) {
            let x_bits: Vec<bool> = (0..n).map(|b| xw >> b & 1 == 1).collect();
            let selected = x_bits.iter().filter(|&&b| b).count();
            for (zw, received) in power_rows.row(&x_bits)?.into_iter().enumerate() {
                let z_bits: Vec<bool> = (0..=n).map(|b| zw >> b & 1 == 1).collect();
                let transmitted_bit = z_bits[selected];
                rows.push(PowerLevelRow {
                    x_bits: x_bits.clone(),
                    z_bits,
                    selected,
                    transmitted_bit,
                    received,
                });
            }
        }
        Ok(rows)
    }

    /// Received power for every `(count, z-word)` pair, indexed
    /// `[count][z_word]`: `count` ones among the data bits (canonical
    /// pattern: the first `count` bits set) and the coefficient bits
    /// packed LSB-first. Each entry equals
    /// [`OpticalScCircuit::received_power`] at that pattern bit for bit.
    ///
    /// The adder's identical MZIs make received power depend on the data
    /// word only through its ones count (the pinned
    /// `control_depends_only_on_count` invariant), so `n+1` rows cover
    /// every data word.
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn power_table(&self) -> Result<Vec<Vec<Milliwatts>>, CircuitError> {
        let n = self.order();
        let power_rows = self.model.power_rows(self.params.probe_power);
        (0..=n)
            .map(|count| {
                let x_bits: Vec<bool> = (0..n).map(|i| i < count).collect();
                power_rows.row(&x_bits)
            })
            .collect()
    }

    /// The received-power bands for logical 0 and 1 across all input
    /// combinations — the paper's validation criterion ("data '0' and '1'
    /// lead to received optical power in the ranges 0.092–0.099 mW and
    /// 0.477–0.482 mW"), read off [`OpticalScCircuit::power_table`].
    ///
    /// # Errors
    ///
    /// Propagates arity errors (not reachable through the public API).
    pub fn power_bands(&self) -> Result<PowerBands, CircuitError> {
        Ok(PowerBands::from_table(&self.power_table()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CircuitParams;

    fn circuit() -> OpticalScCircuit {
        OpticalScCircuit::new(CircuitParams::paper_fig5()).unwrap()
    }

    #[test]
    fn table_has_all_combinations() {
        let rows = circuit().power_level_table().unwrap();
        assert_eq!(rows.len(), 4 * 8);
        // Every row's selected index equals its data-word popcount.
        for r in &rows {
            assert_eq!(r.selected, r.x_bits.iter().filter(|&&b| b).count());
            assert_eq!(r.transmitted_bit, r.z_bits[r.selected]);
        }
        // Each factored row equals the per-entry Eq. (6) evaluation of
        // its own data and coefficient words, bit for bit.
        for order in 1..=4 {
            let p = CircuitParams::paper_fig7(order, osc_units::Nanometers::new(0.165));
            let c = OpticalScCircuit::new(p).unwrap();
            let rows = c.power_level_table().unwrap();
            assert_eq!(rows.len(), 1 << (2 * order + 1));
            for r in &rows {
                let direct = c.received_power(&r.x_bits, &r.z_bits).unwrap();
                assert_eq!(
                    r.received.as_mw().to_bits(),
                    direct.as_mw().to_bits(),
                    "order {order}: x {:?} z {:?}",
                    r.x_bits,
                    r.z_bits
                );
            }
        }
    }

    #[test]
    fn count_collapsed_bands_match_exhaustive_table() {
        // `power_bands` visits one canonical data pattern per ones count;
        // the exhaustive table must produce exactly the same extremes
        // (the count-invariance of received power).
        let c = circuit();
        let bands = c.power_bands().unwrap();
        let mut zero: Vec<f64> = Vec::new();
        let mut one: Vec<f64> = Vec::new();
        for row in c.power_level_table().unwrap() {
            if row.transmitted_bit {
                one.push(row.received.as_mw());
            } else {
                zero.push(row.received.as_mw());
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(
            bands.zero_min.as_mw(),
            zero.iter().cloned().fold(f64::INFINITY, f64::min)
        ));
        assert!(close(
            bands.zero_max.as_mw(),
            zero.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        ));
        assert!(close(
            bands.one_min.as_mw(),
            one.iter().cloned().fold(f64::INFINITY, f64::min)
        ));
        assert!(close(
            bands.one_max.as_mw(),
            one.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        ));
    }

    #[test]
    fn bands_are_separated_like_fig5c() {
        let bands = circuit().power_bands().unwrap();
        assert!(
            bands.separated(),
            "0-band up to {} overlaps 1-band from {}",
            bands.zero_max,
            bands.one_min
        );
        // The paper's separation is roughly 5x between band centers.
        let zero_mid = (bands.zero_min + bands.zero_max) * 0.5;
        let one_mid = (bands.one_min + bands.one_max) * 0.5;
        let ratio = one_mid / zero_mid;
        assert!(ratio > 3.0, "band ratio {ratio}");
    }

    #[test]
    fn bands_width_is_small() {
        // Within each band the spread comes only from crosstalk, so it is
        // a small fraction of the band level (paper: 0.092–0.099 and
        // 0.477–0.482).
        let bands = circuit().power_bands().unwrap();
        let zero_spread = (bands.zero_max - bands.zero_min) / bands.zero_max;
        let one_spread = (bands.one_max - bands.one_min) / bands.one_max;
        assert!(zero_spread < 0.2, "zero spread {zero_spread}");
        assert!(one_spread < 0.05, "one spread {one_spread}");
    }

    #[test]
    fn midpoint_threshold_lies_between_bands() {
        let bands = circuit().power_bands().unwrap();
        let t = bands.midpoint_threshold();
        assert!(t > bands.zero_max && t < bands.one_min);
        assert!(bands.gap().as_mw() > 0.0);
    }

    #[test]
    fn received_power_uses_configured_probe() {
        let c = circuit();
        let base = c
            .received_power(&[true, true], &[false, true, false])
            .unwrap();
        let double = OpticalScCircuit::new(
            CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(2.0)),
        )
        .unwrap()
        .received_power(&[true, true], &[false, true, false])
        .unwrap();
        assert!((double.as_mw() - 2.0 * base.as_mw()).abs() < 1e-12);
    }

    #[test]
    fn snr_model_shares_configuration() {
        let c = circuit();
        let snr = c.snr_model();
        assert_eq!(snr.probe_power(), c.params().probe_power);
        assert!(snr.worst_case_snr().unwrap() > 0.0);
    }

    #[test]
    fn higher_order_circuit_builds() {
        let p = CircuitParams::paper_fig7(6, osc_units::Nanometers::new(0.3));
        let c = OpticalScCircuit::new(p).unwrap();
        assert_eq!(c.order(), 6);
        let x = vec![true, false, true, false, true, false];
        let z = vec![true; 7];
        assert!(c.received_power(&x, &z).unwrap().as_mw() > 0.0);
    }
}

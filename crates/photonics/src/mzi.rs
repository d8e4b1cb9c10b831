//! Mach-Zehnder interferometer modulator (paper Fig. 2(a), Eq. 7.b).
//!
//! The stochastic adder drives each MZI with one data bit. The paper
//! abstracts the device to two numbers:
//!
//! - insertion loss IL (dB): transmission in the *constructive* state
//!   (`x = 0`, no phase shift) is `IL% = 10^(-IL_dB/10)`;
//! - extinction ratio ER (dB): the *destructive* state (`x = 1`, π phase
//!   shift) transmits `IL% × ER%`.

use crate::{check_range, DeviceError};
use osc_units::DbRatio;

/// Logical drive state of an MZI in the stochastic adder.
///
/// The paper's convention (Eq. 7.b): data bit `0` leaves the arms in phase
/// (constructive, maximum transmission); data bit `1` applies a π shift
/// (destructive, transmission floored by the extinction ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MziState {
    /// Arms in phase; transmission `IL%`.
    Constructive,
    /// Arms in anti-phase; transmission `IL% × ER%`.
    Destructive,
}

impl MziState {
    /// Maps a stochastic data bit to the drive state (bit `1` ⇒ destructive).
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            MziState::Destructive
        } else {
            MziState::Constructive
        }
    }
}

/// A 1×1 MZI modulator characterized by insertion loss and extinction
/// ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MziModulator {
    insertion_loss: DbRatio,
    extinction_ratio: DbRatio,
}

impl MziModulator {
    /// Creates a modulator from insertion loss and extinction ratio.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if either ratio is negative (an MZI cannot
    /// amplify) or non-finite.
    pub fn new(insertion_loss: DbRatio, extinction_ratio: DbRatio) -> Result<Self, DeviceError> {
        check_range(
            "insertion_loss_db",
            insertion_loss.as_db(),
            0.0,
            f64::MAX,
            "IL >= 0 dB",
        )?;
        check_range(
            "extinction_ratio_db",
            extinction_ratio.as_db(),
            0.0,
            f64::MAX,
            "ER >= 0 dB",
        )?;
        Ok(MziModulator {
            insertion_loss,
            extinction_ratio,
        })
    }

    /// Convenience constructor from raw dB values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MziModulator::new`].
    pub fn from_db(il_db: f64, er_db: f64) -> Result<Self, DeviceError> {
        Self::new(DbRatio::from_db(il_db), DbRatio::from_db(er_db))
    }

    /// Insertion loss.
    pub fn insertion_loss(&self) -> DbRatio {
        self.insertion_loss
    }

    /// Extinction ratio.
    pub fn extinction_ratio(&self) -> DbRatio {
        self.extinction_ratio
    }

    /// Power transmission in a drive state (paper Eq. 7.b):
    /// `IL%` when constructive, `IL% × ER%` when destructive.
    pub fn transmission(&self, state: MziState) -> f64 {
        let il = self.insertion_loss.as_linear();
        match state {
            MziState::Constructive => il,
            MziState::Destructive => il * self.extinction_ratio.as_linear(),
        }
    }

    /// Power transmission for a stochastic data bit (`1` ⇒ destructive).
    pub fn transmission_for_bit(&self, bit: bool) -> f64 {
        self.transmission(MziState::from_bit(bit))
    }

    /// The ON/OFF contrast `IL% − IL%·ER%` that drives the adder's power
    /// swing (the quantity the pump-power design method divides by).
    pub fn contrast(&self) -> f64 {
        self.transmission(MziState::Constructive) - self.transmission(MziState::Destructive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ziebell() -> MziModulator {
        // Ziebell et al. [10]: IL 4.5 dB, ER 3.2 dB.
        MziModulator::from_db(4.5, 3.2).unwrap()
    }

    #[test]
    fn two_state_transmissions() {
        let mzi = ziebell();
        let con = mzi.transmission(MziState::Constructive);
        let des = mzi.transmission(MziState::Destructive);
        assert!((con - 0.354_813).abs() < 1e-5);
        assert!((des - con * 0.478_630).abs() < 1e-5);
        assert!(des < con);
    }

    #[test]
    fn bit_mapping_follows_paper_convention() {
        let mzi = ziebell();
        assert_eq!(
            mzi.transmission_for_bit(false),
            mzi.transmission(MziState::Constructive)
        );
        assert_eq!(
            mzi.transmission_for_bit(true),
            mzi.transmission(MziState::Destructive)
        );
    }

    #[test]
    fn contrast_positive() {
        assert!(ziebell().contrast() > 0.0);
    }

    #[test]
    fn ideal_mzi_contrast_is_full() {
        let ideal = MziModulator::from_db(0.0, 300.0).unwrap();
        assert!((ideal.transmission(MziState::Constructive) - 1.0).abs() < 1e-12);
        assert!(ideal.transmission(MziState::Destructive) < 1e-29);
    }

    #[test]
    fn rejects_gain() {
        assert!(MziModulator::from_db(-1.0, 3.0).is_err());
        assert!(MziModulator::from_db(3.0, -0.5).is_err());
    }

    #[test]
    fn state_from_bit() {
        assert_eq!(MziState::from_bit(true), MziState::Destructive);
        assert_eq!(MziState::from_bit(false), MziState::Constructive);
    }
}

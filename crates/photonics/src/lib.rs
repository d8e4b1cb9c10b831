//! # osc-photonics
//!
//! Silicon-photonics device models for the optical stochastic computing
//! reproduction.
//!
//! The DATE 2019 paper builds its circuit from four device families, all of
//! which are modeled here at the same level of abstraction the paper's
//! analytical evaluation uses:
//!
//! - [`mzi::MziModulator`] — 1×1 Mach-Zehnder modulators characterized by
//!   insertion loss (IL) and extinction ratio (ER), driven by data bits
//!   (paper Eq. 7.b and Fig. 2(a));
//! - [`ring::RingResonator`] — the shared micro-ring transfer functions:
//!   through-port (paper Eq. 2) and drop-port (paper Eq. 3) transmission;
//! - [`mrr_modulator::MrrModulator`] — an MRR used as an OOK modulator
//!   whose resonance blue-shifts by `Δλ` in the ON state (Fig. 2(b));
//! - [`add_drop_filter::AddDropFilter`] — the all-optical add-drop filter
//!   whose resonance is tuned by a pump through two-photon absorption
//!   (Fig. 2(c), Eq. 4), parameterized by the optical tuning efficiency
//!   (OTE, nm/mW);
//! - [`detector::Photodetector`] — responsivity + internal-noise receiver
//!   front end behind the paper's SNR definition (Eq. 8);
//! - [`coupler`] — power splitters/combiners for the MZI bank;
//! - [`spectrum`] — WDM channel bookkeeping;
//! - [`devices`] — the literature device database the paper cites
//!   (Ziebell, Xiao, Dong, Thomson, Streshinsky, Van).
//!
//! # Example
//!
//! ```
//! use osc_photonics::ring::RingResonator;
//! use osc_units::Nanometers;
//!
//! let ring = RingResonator::builder()
//!     .resonance(Nanometers::new(1550.0))
//!     .fsr(Nanometers::new(5.0))
//!     .self_coupling(0.95, 0.95)
//!     .amplitude_transmission(0.99)
//!     .build()
//!     .unwrap();
//!
//! // On resonance most power couples into the ring (low through, high drop).
//! let on = ring.through_transmission(Nanometers::new(1550.0), Nanometers::new(1550.0));
//! let off = ring.through_transmission(Nanometers::new(1552.5), Nanometers::new(1550.0));
//! assert!(on < 0.1 && off > 0.9);
//! ```

pub mod add_drop_filter;
pub mod coupler;
pub mod detector;
pub mod devices;
pub mod mrr_modulator;
pub mod mzi;
pub mod ring;
pub mod spectrum;

/// Errors produced when constructing physically invalid devices.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A parameter was outside its physical range.
    OutOfRange {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// A required builder field was missing.
    Missing(&'static str),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfRange {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} violates {constraint}"),
            DeviceError::Missing(name) => write!(f, "missing required parameter `{name}`"),
        }
    }
}

impl std::error::Error for DeviceError {}

pub(crate) fn check_range(
    name: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
    constraint: &'static str,
) -> Result<f64, DeviceError> {
    if value.is_finite() && value >= lo && value <= hi {
        Ok(value)
    } else {
        Err(DeviceError::OutOfRange {
            name,
            value,
            constraint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_error_display() {
        let e = DeviceError::OutOfRange {
            name: "r1",
            value: 1.5,
            constraint: "0 < r < 1",
        };
        assert!(e.to_string().contains("r1"));
        assert!(DeviceError::Missing("fsr").to_string().contains("fsr"));
    }

    #[test]
    fn check_range_accepts_and_rejects() {
        assert!(check_range("x", 0.5, 0.0, 1.0, "0..1").is_ok());
        assert!(check_range("x", -0.1, 0.0, 1.0, "0..1").is_err());
        assert!(check_range("x", f64::NAN, 0.0, 1.0, "0..1").is_err());
    }
}

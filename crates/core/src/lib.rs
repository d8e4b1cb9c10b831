//! # osc-core
//!
//! The optical stochastic computing architecture of *"Stochastic Computing
//! with Integrated Optics"* (El-Derhalli, Le Beux, Tahar — DATE 2019).
//!
//! The circuit evaluates an `n`-th order Bernstein polynomial over
//! stochastic bit-streams entirely in the optical domain:
//!
//! ```text
//!  pump laser ──► 1/n splitter ──► n MZIs (data bits x_i) ──► combiner ─┐
//!                                                             OP_control ▼
//!  n+1 probe lasers (λ_0…λ_n) ──► n+1 MRR modulators (z_j) ──► add-drop filter ──► BPF ──► PD
//! ```
//!
//! The MZI bank (the **stochastic adder**, [`adder`]) converts the count of
//! ones among `x_1…x_n` into one of `n+1` control power levels; the
//! TPA-tuned add-drop filter (the **all-optical multiplexer**, [`mux`])
//! blue-shifts by `OTE × OP_control` and drops exactly one coefficient
//! wavelength to the photodetector. Counting received ones de-randomizes
//! the Bernstein value.
//!
//! Modules:
//!
//! - [`batch`] — [`batch::BatchEvaluator`], deterministic multi-threaded
//!   fan-out of many evaluations (many inputs, seeds, lanes or pixels)
//!   with thread-count-independent results;
//! - [`params`] — the full system/device parameter set of paper Fig. 4(b),
//!   with calibrated defaults for each of the paper's experiments;
//! - [`adder`] — Eq. (7.b): MZI-bank control power levels;
//! - [`mux`] — Eq. (7.a): filter detuning under control power;
//! - [`transmission`] — Eqs. (5)–(6): the full WDM transmission model;
//! - [`snr`] — Eqs. (8)–(9): worst-case SNR, BER, minimum laser powers;
//! - [`architecture`] — [`architecture::OpticalScCircuit`], the assembled
//!   generic circuit;
//! - [`receiver`] — threshold de-randomizer and decision optimization;
//! - [`system`] — end-to-end stochastic execution with receiver noise;
//! - [`design`] — the MRR-first and MZI-first design methods, Fig. 6
//!   parameter-space maps, and [`design::sweep`] — the pool-scale
//!   design-space search with a deterministic Pareto frontier;
//! - [`energy`] — pulsed-pump laser energy per computed bit (Fig. 7);
//! - [`calibration`] — fits the unpublished device parameters against the
//!   paper's reported operating points;
//! - [`reconfig`] — the reconfigurable multi-order circuit sketched in the
//!   paper's conclusion.
//!
//! # Example
//!
//! ```
//! use osc_core::prelude::*;
//!
//! let circuit = OpticalScCircuit::new(CircuitParams::paper_fig5()).unwrap();
//! // x1 = x2 = 0 parks the filter on λ0; z0 = 1 so a strong "1" arrives.
//! let p = circuit
//!     .received_power(&[false, false], &[true, true, false])
//!     .unwrap();
//! assert!(p.as_mw() > 0.4);
//! ```

pub mod adder;
pub mod architecture;
pub mod backend;
pub mod batch;
pub mod calibration;
pub mod design;
pub mod energy;
pub mod fault;
pub mod mux;
pub mod nanocavity;
pub mod params;
pub mod receiver;
pub mod reconfig;
pub mod snr;
pub mod system;
pub mod transmission;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::architecture::OpticalScCircuit;
    pub use crate::backend::{BackendKind, ScBackend};
    pub use crate::batch::BatchEvaluator;
    pub use crate::design::{mrr_first::MrrFirstDesign, mzi_first::MziFirstDesign};
    pub use crate::energy::EnergyModel;
    pub use crate::params::CircuitParams;
    pub use crate::snr::SnrModel;
    pub use crate::system::OpticalScSystem;
    pub use osc_units::{DbRatio, Milliwatts, Nanometers, Picojoules, Seconds};
}

/// Errors produced by the optical SC architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A structural parameter is invalid (order 0, empty combs, …).
    InvalidStructure(String),
    /// A device model rejected its parameters.
    Device(osc_photonics::DeviceError),
    /// The number of supplied bits does not match the circuit order.
    ArityMismatch {
        /// What was being supplied.
        what: &'static str,
        /// Number expected.
        expected: usize,
        /// Number received.
        got: usize,
    },
    /// A requested operating point is physically unreachable
    /// (e.g. no probe power can meet the BER target).
    Infeasible(String),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::InvalidStructure(msg) => write!(f, "invalid circuit structure: {msg}"),
            CircuitError::Device(e) => write!(f, "device model error: {e}"),
            CircuitError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "expected {expected} {what}, got {got}"),
            CircuitError::Infeasible(msg) => write!(f, "infeasible operating point: {msg}"),
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<osc_photonics::DeviceError> for CircuitError {
    fn from(e: osc_photonics::DeviceError) -> Self {
        CircuitError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = CircuitError::ArityMismatch {
            what: "data bits",
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2 data bits"));
        let d: CircuitError = osc_photonics::DeviceError::Missing("fsr").into();
        assert!(d.source().is_some());
        assert!(CircuitError::Infeasible("x".into()).source().is_none());
    }
}

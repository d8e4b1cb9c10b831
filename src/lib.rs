//! # optical-stochastic-computing
//!
//! Facade crate for the reproduction of *"Stochastic Computing with
//! Integrated Optics"* (El-Derhalli, Le Beux, Tahar — DATE 2019).
//!
//! The paper proposes the first stochastic computing (SC) architecture
//! executed in the optical domain: an all-optical ReSC unit that evaluates
//! Bernstein polynomial functions over stochastic bit-streams using a bank
//! of Mach-Zehnder interferometers (the stochastic adder) and a non-linear
//! add-drop micro-ring filter (the all-optical multiplexer).
//!
//! This crate re-exports the workspace members under stable names:
//!
//! - [`math`] — numerics substrate (special functions, optimizers, RNG),
//! - [`units`] — type-safe physical quantities,
//! - [`photonics`] — silicon-photonics device models,
//! - [`stochastic`] — SC substrate and the electronic ReSC baseline,
//! - [`core`] — the paper's optical SC architecture, models and design
//!   methods,
//! - [`apps`] — image-processing application workloads.
//!
//! # Quickstart
//!
//! ```
//! use optical_stochastic_computing::core::prelude::*;
//!
//! // Build the paper's 2nd-order design point (Section V.A).
//! let params = CircuitParams::paper_fig5();
//! let circuit = OpticalScCircuit::new(params).unwrap();
//!
//! // Evaluate the transmission model for x1 = x2 = 1, z = (0, 1, 0).
//! let received = circuit
//!     .received_power(&[true, true], &[false, true, false])
//!     .unwrap();
//! assert!(received.as_mw() > 0.05 && received.as_mw() < 0.15);
//! ```

pub use osc_apps as apps;
pub use osc_core as core;
pub use osc_math as math;
pub use osc_photonics as photonics;
pub use osc_stochastic as stochastic;
pub use osc_units as units;

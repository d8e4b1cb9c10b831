//! # osc-apps
//!
//! Error-tolerant application workloads on stochastic computing backends.
//!
//! The paper motivates optical SC with image/signal processing (Section I)
//! and sizes its scalability argument with the gamma-correction
//! application (Section V.C: 6th-order Bernstein polynomial, 10× faster
//! at 1 GHz optics than the 100 MHz CMOS ReSC unit). This crate provides
//! those workloads end to end:
//!
//! - [`image`] — synthetic image generation (the paper's image data is
//!   not published; gradients/blobs/noise exercise the same per-pixel
//!   code path) and quality metrics (PSNR, MAE);
//! - [`backend`] — a common `PixelBackend` interface over exact
//!   evaluation, the electronic ReSC unit, and the optical circuit;
//! - [`gamma_app`] — gamma correction on each backend plus the
//!   throughput/speedup accounting of Section V.C;
//! - [`contrast`] — a second workload (smoothstep contrast enhancement,
//!   a degree-3 Bernstein polynomial with exactly representable
//!   coefficients).

pub mod backend;
pub mod contrast;
pub mod gamma_app;
pub mod image;

/// Errors from the application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// Underlying stochastic computing error.
    Stochastic(String),
    /// Underlying optical circuit error.
    Circuit(String),
    /// Invalid application parameter.
    Invalid(String),
    /// A process-sharded pipeline failed (worker spawn/death/protocol).
    Shard(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Stochastic(m) => write!(f, "stochastic error: {m}"),
            AppError::Circuit(m) => write!(f, "circuit error: {m}"),
            AppError::Invalid(m) => write!(f, "invalid parameter: {m}"),
            AppError::Shard(m) => write!(f, "shard error: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<osc_stochastic::ScError> for AppError {
    fn from(e: osc_stochastic::ScError) -> Self {
        AppError::Stochastic(e.to_string())
    }
}

impl From<osc_core::CircuitError> for AppError {
    fn from(e: osc_core::CircuitError) -> Self {
        AppError::Circuit(e.to_string())
    }
}

impl From<osc_core::batch::shard::ShardError> for AppError {
    fn from(e: osc_core::batch::shard::ShardError) -> Self {
        match e {
            osc_core::batch::shard::ShardError::Circuit(e) => e.into(),
            e => AppError::Shard(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: AppError = osc_stochastic::ScError::Empty("x").into();
        assert!(e.to_string().contains("stochastic"));
        let e: AppError = osc_core::CircuitError::Infeasible("y".into()).into();
        assert!(e.to_string().contains("circuit"));
    }
}

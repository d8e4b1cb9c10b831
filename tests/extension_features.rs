//! Integration test for the FSM stochastic elements through the facade
//! crate.

use optical_stochastic_computing::stochastic::fsm::StanhFsm;
use optical_stochastic_computing::stochastic::sng::{StochasticNumberGenerator, XoshiroSng};

#[test]
fn stanh_feeds_optical_style_streams() {
    // FSM activation over a stream produced by the standard SNG stack.
    let fsm = StanhFsm::new(8).unwrap();
    let mut sng = XoshiroSng::new(9);
    let input = sng.generate(0.75, 1 << 16).unwrap();
    let out = fsm.run(&input);
    // Bipolar 0.5 in -> tanh(4·0.5) ≈ 0.964 -> p ≈ 0.98.
    assert!(out.value() > 0.9, "got {}", out.value());
}

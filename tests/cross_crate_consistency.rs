//! Consistency checks between independent code paths in different crates:
//! the same physical quantity computed two ways must agree.

use optical_stochastic_computing::core::adder::OpticalAdder;
use optical_stochastic_computing::core::mux::OpticalMux;
use optical_stochastic_computing::core::prelude::*;
use optical_stochastic_computing::core::transmission::TransmissionModel;
use optical_stochastic_computing::photonics::detector::{ber_from_snr, snr_for_ber};
use optical_stochastic_computing::stochastic::bernstein::{basis, BernsteinPoly};
use optical_stochastic_computing::stochastic::polynomial::Polynomial;

#[test]
fn adder_levels_match_mux_selection_for_all_counts() {
    // Independent components: adder power levels and mux channel plan must
    // compose into count-k -> channel-k selection.
    for order in [1usize, 2, 3, 5] {
        let params = CircuitParams::paper_fig7(order, Nanometers::new(0.5));
        let adder = OpticalAdder::new(&params).unwrap();
        let mux = OpticalMux::new(&params).unwrap();
        for k in 0..=order {
            let control = adder.control_power_for_count(k);
            assert_eq!(mux.selected_channel(control), k, "order {order}, count {k}");
        }
    }
}

#[test]
fn snr_model_min_power_is_consistent_with_its_own_ber() {
    let params = CircuitParams::paper_fig5();
    let snr = SnrModel::new(&params).unwrap();
    for target in [1e-3, 1e-6, 1e-9] {
        let p = snr.min_probe_power_for_ber(target).unwrap();
        let achieved = SnrModel::new(&params.with_probe_power(p))
            .unwrap()
            .ber()
            .unwrap();
        assert!(
            (achieved.ln() - target.ln()).abs() < 0.05,
            "target {target:.0e} achieved {achieved:.2e}"
        );
    }
}

#[test]
fn ber_snr_inverses_round_trip() {
    for snr in [4.0, 9.5, 12.0] {
        let ber = ber_from_snr(snr);
        assert!((snr_for_ber(ber) - snr).abs() < 1e-9);
    }
}

#[test]
fn bernstein_mux_probability_equals_basis() {
    // The probability that the ReSC mux selects index k equals the
    // Bernstein basis value — the statistical heart of the architecture.
    use optical_stochastic_computing::stochastic::sng::{StochasticNumberGenerator, XoshiroSng};
    let n = 4usize;
    let x = 0.3;
    let len = 200_000;
    let mut sng = XoshiroSng::new(31);
    let streams: Vec<_> = (0..n).map(|_| sng.generate(x, len).unwrap()).collect();
    let mut counts = vec![0usize; n + 1];
    for t in 0..len {
        let k = streams.iter().filter(|s| s.get(t)).count();
        counts[k] += 1;
    }
    for (k, &c) in counts.iter().enumerate() {
        let measured = c as f64 / len as f64;
        let expected = basis(k as u32, n as u32, x);
        assert!(
            (measured - expected).abs() < 0.01,
            "k={k}: measured {measured}, basis {expected}"
        );
    }
}

#[test]
fn power_to_bernstein_to_resc_consistency() {
    // Evaluate a polynomial three ways: power form (Horner), Bernstein
    // form (de Casteljau), optical transmission weights.
    let poly = Polynomial::paper_f1();
    let bern = poly.to_bernstein().unwrap();
    for i in 0..=10 {
        let x = i as f64 / 10.0;
        assert!((poly.eval(x) - bern.eval(x)).abs() < 1e-12);
    }
}

#[test]
fn transmission_weights_reproduce_expected_power() {
    // E[received] over coefficient randomness must equal the z-weighted
    // sum of per-combination powers.
    let params = CircuitParams::paper_fig5();
    let model = TransmissionModel::new(&params).unwrap();
    let x = [true, false];
    // For fixed data word, scan all coefficient words and average with
    // the Bernoulli weights of z = (0.3, 0.6, 0.9).
    let probs = [0.3, 0.6, 0.9];
    let mut expected = 0.0;
    for zw in 0..8u32 {
        let z: Vec<bool> = (0..3).map(|b| zw >> b & 1 == 1).collect();
        let weight: f64 = z
            .iter()
            .enumerate()
            .map(|(j, &bit)| if bit { probs[j] } else { 1.0 - probs[j] })
            .product();
        expected += weight
            * model
                .received_power(&z, &x, params.probe_power)
                .unwrap()
                .as_mw();
    }
    // Monte-Carlo with the stochastic machinery.
    use optical_stochastic_computing::stochastic::sng::{StochasticNumberGenerator, XoshiroSng};
    let mut sng = XoshiroSng::new(77);
    let len = 60_000;
    let streams: Vec<_> = probs
        .iter()
        .map(|&p| sng.generate(p, len).unwrap())
        .collect();
    let mut acc = 0.0;
    for t in 0..len {
        let z: Vec<bool> = streams.iter().map(|s| s.get(t)).collect();
        acc += model
            .received_power(&z, &x, params.probe_power)
            .unwrap()
            .as_mw();
    }
    let measured = acc / len as f64;
    assert!(
        (measured - expected).abs() / expected < 0.01,
        "measured {measured} vs expected {expected}"
    );
}

#[test]
fn energy_model_uses_snr_model_probe_power() {
    use optical_stochastic_computing::core::energy::{EnergyAssumptions, EnergyModel};
    let spacing = Nanometers::new(0.2);
    let breakdown = EnergyModel::new(2, EnergyAssumptions::default())
        .breakdown(spacing)
        .unwrap();
    let params = CircuitParams::paper_fig7(2, spacing);
    let direct = SnrModel::new(&params)
        .unwrap()
        .min_probe_power_for_ber(1e-6)
        .unwrap();
    assert!((breakdown.probe_power.as_mw() - direct.as_mw()).abs() < 1e-12);
    assert!((breakdown.pump_power.as_mw() - params.pump_power.as_mw()).abs() < 1e-12);
}

#[test]
fn degree_elevated_polynomial_runs_on_larger_circuit() {
    // Elevate the 2nd-order polynomial to order 4 and verify both circuits
    // compute the same function.
    use optical_stochastic_computing::math::rng::Xoshiro256PlusPlus;
    use optical_stochastic_computing::stochastic::sng::XoshiroSng;
    let poly2 = BernsteinPoly::new(vec![0.2, 0.7, 0.5]).unwrap();
    let poly4 = poly2.elevate_to(4);
    let sys2 = OpticalScSystem::new(CircuitParams::paper_fig5(), poly2).unwrap();
    let sys4 =
        OpticalScSystem::new(CircuitParams::paper_fig7(4, Nanometers::new(0.4)), poly4).unwrap();
    let mut rng = Xoshiro256PlusPlus::new(4);
    let mut sng_a = XoshiroSng::new(8);
    let mut sng_b = XoshiroSng::new(9);
    let a = sys2.evaluate(0.4, 16_384, &mut sng_a, &mut rng).unwrap();
    let b = sys4.evaluate(0.4, 16_384, &mut sng_b, &mut rng).unwrap();
    assert!((a.exact - b.exact).abs() < 1e-12);
    assert!((a.estimate - b.estimate).abs() < 0.03);
}

//! Property-based tests for the photonic device models.
//!
//! Deterministic property harness: each property runs over seeded random
//! cases drawn from the workspace RNG, so failures replay exactly.

use osc_math::rng::Xoshiro256PlusPlus;
use osc_photonics::add_drop_filter::AddDropFilter;
use osc_photonics::detector::Photodetector;
use osc_photonics::ring::RingResonator;
use osc_units::{Amperes, Milliwatts, Nanometers};

/// Runs `f` over `n` seeded cases.
fn cases(n: u64, mut f: impl FnMut(&mut Xoshiro256PlusPlus)) {
    for case in 0..n {
        let mut rng = Xoshiro256PlusPlus::new(0x9070_70E5 ^ case);
        f(&mut rng);
    }
}

fn arb_ring(rng: &mut Xoshiro256PlusPlus) -> RingResonator {
    let r1 = rng.range_f64(0.85, 0.995);
    let r2 = rng.range_f64(0.85, 0.995);
    let a = rng.range_f64(0.95, 1.0);
    RingResonator::builder()
        .resonance(Nanometers::new(1550.0))
        .fsr(Nanometers::new(10.0))
        .self_coupling(r1, r2)
        .amplitude_transmission(a)
        .build()
        .unwrap()
}

/// Through + drop never exceeds unity for any ring and detuning.
#[test]
fn ring_passivity() {
    cases(96, |rng| {
        let ring = arb_ring(rng);
        let detuning = rng.range_f64(-6.0, 6.0);
        let wl = Nanometers::new(1550.0 + detuning);
        let t = ring.through_transmission(wl, ring.resonance());
        let d = ring.drop_transmission(wl, ring.resonance());
        assert!(t >= 0.0 && d >= 0.0);
        assert!(t + d <= 1.0 + 1e-9, "t+d = {}", t + d);
    });
}

/// The through dip is at the resonance: any detuned point transmits at
/// least as much as the on-resonance point.
#[test]
fn ring_dip_at_resonance() {
    cases(96, |rng| {
        let ring = arb_ring(rng);
        let detuning = rng.range_f64(-4.9, 4.9);
        let on = ring.through_at_resonance();
        let off = ring.through_transmission(Nanometers::new(1550.0 + detuning), ring.resonance());
        assert!(off >= on - 1e-12);
    });
}

/// Drop response decreases monotonically with |detuning| inside half an
/// FSR.
#[test]
fn drop_monotone_in_detuning() {
    cases(96, |rng| {
        let ring = arb_ring(rng);
        let a = rng.range_f64(0.0, 4.9);
        let b = rng.range_f64(0.0, 4.9);
        let (d1, d2) = if a < b { (a, b) } else { (b, a) };
        if d1 == d2 {
            return;
        }
        let near = ring.drop_transmission(Nanometers::new(1550.0 + d1), ring.resonance());
        let far = ring.drop_transmission(Nanometers::new(1550.0 + d2), ring.resonance());
        assert!(near >= far - 1e-12);
    });
}

/// Filter detuning is exactly linear in control power.
#[test]
fn filter_detuning_linear() {
    cases(96, |rng| {
        let p = rng.range_f64(0.0, 1000.0);
        let k = rng.range_f64(0.1, 5.0);
        let ring = RingResonator::builder()
            .resonance(Nanometers::new(1550.1))
            .fsr(Nanometers::new(10.0))
            .self_coupling(0.98, 0.98)
            .amplitude_transmission(0.985)
            .build()
            .unwrap();
        let f = AddDropFilter::new(ring, 0.01).unwrap();
        let d1 = f.detuning_for(Milliwatts::new(p)).as_nm();
        let dk = f.detuning_for(Milliwatts::new(k * p)).as_nm();
        assert!((dk - k * d1).abs() < 1e-9);
    });
}

/// Detector SNR is linear in the power separation.
#[test]
fn detector_snr_linear() {
    cases(96, |rng| {
        let sep = rng.range_f64(0.001, 1.0);
        let base = rng.next_f64();
        let d = Photodetector::new(1.1, Amperes::from_microamps(10.0)).unwrap();
        let s1 = d.snr(Milliwatts::new(base + sep), Milliwatts::new(base));
        let s2 = d.snr(Milliwatts::new(base + 2.0 * sep), Milliwatts::new(base));
        assert!((s2 - 2.0 * s1).abs() < 1e-9);
    });
}

/// BER is monotone decreasing in SNR and within [0, 0.5].
#[test]
fn ber_monotone() {
    cases(96, |rng| {
        use osc_photonics::detector::ber_from_snr;
        let s1 = rng.range_f64(0.0, 30.0);
        let ds = rng.range_f64(0.01, 5.0);
        let b1 = ber_from_snr(s1);
        let b2 = ber_from_snr(s1 + ds);
        assert!(b2 < b1 || (b1 == 0.5 && s1 == 0.0));
        assert!((0.0..=0.5).contains(&b1));
    });
}

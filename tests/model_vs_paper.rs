//! Integration tests pinning every headline number of the paper against
//! the model: Fig. 5–7, Section V and the Section VI reconfigurable
//! circuit.

use optical_stochastic_computing::apps::backend::{
    throughput_evals_per_second, ElectronicBackend, OpticalBackend, PixelBackend,
};
use optical_stochastic_computing::core::calibration::{predict, Fig5Targets};
use optical_stochastic_computing::core::design::mrr_first::{MrrFirstDesign, MrrFirstInputs};
use optical_stochastic_computing::core::design::mzi_first::{MziFirstDesign, MziFirstInputs};
use optical_stochastic_computing::core::energy::{scaling_study, EnergyAssumptions, EnergyModel};
use optical_stochastic_computing::core::prelude::*;
use optical_stochastic_computing::core::reconfig::ReconfigurableCircuit;
use optical_stochastic_computing::stochastic::bernstein::BernsteinPoly;

fn rel(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper
}

#[test]
fn section_va_pump_power_591_8_mw() {
    let d = MrrFirstDesign::solve(&MrrFirstInputs::paper_section_va()).unwrap();
    assert!(
        rel(d.min_pump_power.as_mw(), 591.8) < 0.001,
        "pump {} vs paper 591.8 mW",
        d.min_pump_power
    );
}

#[test]
fn section_va_extinction_ratio_13_22_db() {
    let d = MrrFirstDesign::solve(&MrrFirstInputs::paper_section_va()).unwrap();
    assert!(
        (d.required_er.as_db() - 13.22).abs() < 0.01,
        "ER {} vs paper 13.22 dB",
        d.required_er
    );
}

#[test]
fn fig5_operating_points_within_five_percent() {
    let pred = predict(&CircuitParams::paper_fig5()).unwrap();
    let paper = Fig5Targets::paper();
    assert!(rel(pred.t_lambda2_case_a, paper.t_lambda2_case_a) < 0.05);
    assert!(rel(pred.t_lambda1_case_a, paper.t_lambda1_case_a) < 0.05);
    assert!(rel(pred.t_lambda0_case_b, paper.t_lambda0_case_b) < 0.05);
    assert!(rel(pred.received_case_a_mw, paper.received_case_a_mw) < 0.05);
    assert!(rel(pred.received_case_b_mw, paper.received_case_b_mw) < 0.05);
    // The deep suppression floor is the loosest fit point.
    assert!(rel(pred.t_lambda0_case_a, paper.t_lambda0_case_a) < 0.10);
}

#[test]
fn fig5c_power_bands_match() {
    let circuit = OpticalScCircuit::new(CircuitParams::paper_fig5()).unwrap();
    let bands = circuit.power_bands().unwrap();
    assert!(bands.separated());
    // Paper: '0' in 0.092..0.099 mW, '1' in 0.477..0.482 mW.
    assert!(rel(bands.zero_min.as_mw(), 0.092) < 0.15, "{bands:?}");
    assert!(rel(bands.zero_max.as_mw(), 0.099) < 0.15, "{bands:?}");
    assert!(rel(bands.one_min.as_mw(), 0.477) < 0.05, "{bands:?}");
    assert!(rel(bands.one_max.as_mw(), 0.482) < 0.05, "{bands:?}");
}

#[test]
fn fig6_xiao_probe_power_0_26_mw() {
    let d = MziFirstDesign::solve(&MziFirstInputs::paper_fig6(
        DbRatio::from_db(6.5),
        DbRatio::from_db(7.5),
    ))
    .unwrap();
    assert!(
        rel(d.min_probe_power.as_mw(), 0.26) < 0.02,
        "probe {} vs paper 0.26 mW",
        d.min_probe_power
    );
}

#[test]
fn fig6b_fifty_percent_power_reduction() {
    let solve = |ber: f64| {
        let inputs = MziFirstInputs {
            target_ber: ber,
            ..MziFirstInputs::paper_fig6(DbRatio::from_db(6.5), DbRatio::from_db(7.5))
        };
        MziFirstDesign::solve(&inputs).unwrap().min_probe_power
    };
    let ratio = solve(1e-2) / solve(1e-6);
    assert!((ratio - 0.5).abs() < 0.02, "ratio {ratio} vs paper ~50%");
}

#[test]
fn fig7_optimal_spacing_near_0_165_nm_and_order_independent() {
    let optima: Vec<f64> = [2usize, 4, 6]
        .iter()
        .map(|&n| {
            EnergyModel::new(n, EnergyAssumptions::default())
                .optimal_spacing(0.1, 0.6)
                .unwrap()
                .wl_spacing
                .as_nm()
        })
        .collect();
    assert!(
        (optima[0] - 0.165).abs() < 0.03,
        "n=2 optimum {} vs paper 0.165 nm",
        optima[0]
    );
    let spread = optima.iter().cloned().fold(f64::MIN, f64::max)
        - optima.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.05,
        "optima {optima:?} should be order-independent"
    );
}

#[test]
fn fig7_total_energy_near_20_pj_per_bit() {
    let opt = EnergyModel::new(2, EnergyAssumptions::default())
        .optimal_spacing(0.1, 0.6)
        .unwrap();
    assert!(
        rel(opt.total().as_pj(), 20.1) < 0.2,
        "total {} vs paper 20.1 pJ/bit",
        opt.total()
    );
}

#[test]
fn fig7b_energy_saving_near_76_percent() {
    let points = scaling_study(&[2, 8, 16], EnergyAssumptions::default(), 0.1, 0.6).unwrap();
    for p in &points {
        assert!(
            (p.saving_fraction() - 0.766).abs() < 0.08,
            "order {} saving {}",
            p.order,
            p.saving_fraction()
        );
    }
    // Paper's Fig. 7(b) right edge: ~600 pJ at n=16 with 1 nm spacing.
    let p16 = points.last().unwrap();
    assert!(rel(p16.energy_at_1nm.as_pj(), 600.0) < 0.1);
}

/// Section V.C: the optical circuit runs at 1 GHz against the 100 MHz
/// CMOS ReSC unit of [9], so at equal stream length it evaluates ten
/// times as many inputs per second. The energy model charges the laser
/// over the same 1 ns bit slot the optical clock gives.
#[test]
fn section_vc_ten_x_speedup() {
    let poly = BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap();
    let optical = OpticalBackend::new(CircuitParams::paper_fig5(), poly.clone(), 1024, 1).unwrap();
    let electronic = ElectronicBackend::new(poly, 1024, 1);
    assert_eq!(optical.clock().as_gbps(), 1.0);
    assert_eq!(optical.clock().speedup_over(electronic.clock()), 10.0);
    assert_eq!(
        throughput_evals_per_second(&optical) / throughput_evals_per_second(&electronic),
        10.0
    );
    assert_eq!(
        optical.clock().bit_period(),
        EnergyAssumptions::default().bit_period
    );
}

/// Section VI: the energy-optimal spacing barely moves with the order,
/// so one wavelength plan, provisioned at the optimum of the largest
/// order, runs every smaller order at close to that order's own optimum.
/// Order 1 (a single MZI) pays the most, about 11 % at `n_max = 16`;
/// from order 2 up the cost stays below 3 %.
#[test]
fn section_vi_shared_plan_serves_every_order_near_its_optimum() {
    for n_max in [6usize, 16] {
        let rc = ReconfigurableCircuit::provision(n_max, EnergyAssumptions::default()).unwrap();
        let report = rc.sharing_report().unwrap();
        assert_eq!(report.len(), n_max);
        for p in &report {
            let bound = if p.order == 1 { 0.12 } else { 0.03 };
            let penalty = p.sharing_penalty();
            assert!(
                (-1e-9..bound).contains(&penalty),
                "n_max {n_max}, order {}: shared plan costs {:.2} % over its optimum (bound {:.0} %)",
                p.order,
                penalty * 100.0,
                bound * 100.0
            );
        }
    }
}

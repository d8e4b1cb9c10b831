//! Calibration diagnostics: re-runs the device fit and prints the derived
//! operating points next to the paper's values. Used to produce the
//! constants in `osc_core::params`.
use osc_core::calibration::{self, Fig5Targets};
use osc_core::design::mzi_first::{MziFirstDesign, MziFirstInputs};
use osc_core::energy::{EnergyAssumptions, EnergyModel};
use osc_core::params::CircuitParams;
use osc_units::{DbRatio, Nanometers};

fn main() {
    let pred = calibration::predict(&CircuitParams::paper_fig5()).unwrap();
    println!("shipped defaults predict: {pred:#?}");
    println!("paper targets:            {:#?}", Fig5Targets::paper());

    let d = MziFirstDesign::solve(&MziFirstInputs::paper_fig6(
        DbRatio::from_db(6.5),
        DbRatio::from_db(7.5),
    ))
    .unwrap();
    println!("Xiao min probe = {} (paper: 0.26 mW)", d.min_probe_power);

    for n in [2usize, 4, 6] {
        let m = EnergyModel::new(n, EnergyAssumptions::default());
        match m.optimal_spacing(0.1, 1.0) {
            Ok(b) => println!(
                "n={n}: opt spacing {:.3} nm, total {:.2} pJ (pump {:.2} + probe {:.2})",
                b.wl_spacing.as_nm(),
                b.total().as_pj(),
                b.pump_energy.as_pj(),
                b.probe_energy.as_pj()
            ),
            Err(e) => println!("n={n}: {e}"),
        }
    }
    for n in [2usize, 4, 8, 12, 16] {
        let m = EnergyModel::new(n, EnergyAssumptions::default());
        let e1 = m.breakdown(Nanometers::new(1.0)).unwrap();
        let opt = m.optimal_spacing(0.1, 1.0).unwrap();
        println!(
            "n={n}: 1nm {:.1} pJ, optimal {:.1} pJ (s={:.3}), saving {:.1}%",
            e1.total().as_pj(),
            opt.total().as_pj(),
            opt.wl_spacing.as_nm(),
            (1.0 - opt.total().as_pj() / e1.total().as_pj()) * 100.0
        );
    }
}

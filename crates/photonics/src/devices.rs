//! Literature device database.
//!
//! The paper evaluates its design methods against published silicon MZI
//! modulators (Fig. 6). The table below records, for each device the paper
//! references, the values it quotes (or that we estimated — see
//! `il_er_estimated`). The paper gives explicit IL/ER only for Xiao et al.
//! (6.5 dB / 7.5 dB, used for the 0.26 mW probe-power design point); the
//! other three devices are placed inside the ranges plotted in Fig. 6(a)
//! (IL ∈ [3, 7.4] dB, ER ∈ [4, 7.6] dB), consistent with the relative
//! ordering of the bars in Fig. 6(c). DESIGN.md documents this substitution.

use crate::mzi::MziModulator;

/// A published MZI modulator with provenance metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct MziDevice {
    /// Short citation label as used in the paper's Fig. 6.
    pub label: &'static str,
    /// Demonstrated modulation speed, Gb/s.
    pub speed_gbps: f64,
    /// Phase shifter length, mm.
    pub phase_shifter_length_mm: f64,
    /// Insertion loss, dB.
    pub il_db: f64,
    /// Extinction ratio, dB.
    pub er_db: f64,
    /// Whether IL/ER were estimated (true) or quoted by the paper (false).
    pub il_er_estimated: bool,
}

impl MziDevice {
    /// Builds the corresponding modulator model.
    pub fn modulator(&self) -> MziModulator {
        MziModulator::from_db(self.il_db, self.er_db).expect("device table entries are physical")
    }
}

/// Ziebell et al. 2012 \[10\]: the pipin-diode MZI the paper uses for its
/// Section V.A design point (40 Gb/s, IL 4.5 dB, ER 3.2 dB).
pub fn ziebell_2012() -> MziDevice {
    MziDevice {
        label: "Ziebell et al. [10]",
        speed_gbps: 40.0,
        phase_shifter_length_mm: 0.95,
        il_db: 4.5,
        er_db: 3.2,
        il_er_estimated: false,
    }
}

/// Xiao et al. 2013 \[19\]: the doping-optimized MZI used for the Fig. 6
/// design point (IL 6.5 dB, ER 7.5 dB as quoted in Section V.B;
/// 60 Gb/s with a 0.75 mm phase shifter per Fig. 6(c)).
pub fn xiao_2013() -> MziDevice {
    MziDevice {
        label: "Xiao et al. [19]",
        speed_gbps: 60.0,
        phase_shifter_length_mm: 0.75,
        il_db: 6.5,
        er_db: 7.5,
        il_er_estimated: false,
    }
}

/// Dong et al. (ref. 6 in \[19\]): 50 Gb/s, 1 mm phase shifter.
/// IL/ER estimated within the Fig. 6(a) axis ranges.
pub fn dong_ref6() -> MziDevice {
    MziDevice {
        label: "Dong et al., ref 6 in [19]",
        speed_gbps: 50.0,
        phase_shifter_length_mm: 1.0,
        il_db: 3.2,
        er_db: 5.6,
        il_er_estimated: true,
    }
}

/// Thomson et al. (ref. 12 in \[19\]): 40 Gb/s, 1 mm phase shifter.
/// IL/ER estimated within the Fig. 6(a) axis ranges.
pub fn thomson_ref12() -> MziDevice {
    MziDevice {
        label: "Thomson et al., ref 12 in [19]",
        speed_gbps: 40.0,
        phase_shifter_length_mm: 1.0,
        il_db: 4.3,
        er_db: 4.6,
        il_er_estimated: true,
    }
}

/// Dong et al. (ref. 28 in \[18\]): 40 Gb/s, 4 mm travelling-wave phase
/// shifter. IL/ER estimated within the Fig. 6(a) axis ranges.
pub fn dong_ref28() -> MziDevice {
    MziDevice {
        label: "Dong et al., ref 28 in [18]",
        speed_gbps: 40.0,
        phase_shifter_length_mm: 4.0,
        il_db: 6.0,
        er_db: 6.9,
        il_er_estimated: true,
    }
}

/// The four devices annotated in the paper's Fig. 6(a)/(c), in the order
/// the figure lists them.
pub fn fig6_devices() -> Vec<MziDevice> {
    vec![dong_ref6(), thomson_ref12(), dong_ref28(), xiao_2013()]
}

/// All catalogued MZI devices.
pub fn all_mzi_devices() -> Vec<MziDevice> {
    let mut v = fig6_devices();
    v.push(ziebell_2012());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xiao_matches_paper_quote() {
        let d = xiao_2013();
        assert_eq!(d.il_db, 6.5);
        assert_eq!(d.er_db, 7.5);
        assert!(!d.il_er_estimated);
    }

    #[test]
    fn ziebell_matches_paper_quote() {
        let d = ziebell_2012();
        assert_eq!(d.il_db, 4.5);
        assert_eq!(d.speed_gbps, 40.0);
        assert!(!d.il_er_estimated);
    }

    #[test]
    fn estimates_stay_inside_fig6a_axes() {
        for d in fig6_devices() {
            assert!(
                (3.0..=7.4).contains(&d.il_db),
                "{} IL {} outside Fig 6(a) range",
                d.label,
                d.il_db
            );
            assert!(
                (4.0..=7.6).contains(&d.er_db),
                "{} ER {} outside Fig 6(a) range",
                d.label,
                d.er_db
            );
        }
    }

    #[test]
    fn fig6c_speed_and_length_annotations() {
        let devices = fig6_devices();
        let speeds: Vec<f64> = devices.iter().map(|d| d.speed_gbps).collect();
        let lengths: Vec<f64> = devices.iter().map(|d| d.phase_shifter_length_mm).collect();
        assert_eq!(speeds, vec![50.0, 40.0, 40.0, 60.0]);
        assert_eq!(lengths, vec![1.0, 1.0, 4.0, 0.75]);
    }

    #[test]
    fn devices_build_modulators() {
        for d in all_mzi_devices() {
            let m = d.modulator();
            assert!(m.contrast() > 0.0, "{}", d.label);
        }
    }
}

//! # osc-bench
//!
//! Experiment harness regenerating **every figure** of the DATE 2019
//! paper's evaluation (Section V), plus the in-text design-point numbers.
//!
//! Each module runs one experiment and returns a serializable report;
//! [`print`]-style helpers render the same rows/series the paper plots.
//! The `experiments` binary exposes them as subcommands:
//!
//! ```text
//! cargo run -p osc-bench --bin experiments -- all
//! cargo run -p osc-bench --bin experiments -- fig7a
//! ```
//!
//! | module | paper artifact |
//! |---|---|
//! | [`exp0`] | Section V.A in-text design point |
//! | [`fig1b`] | Fig. 1(b) ReSC example (background) |
//! | [`fig5`] | Fig. 5(a)–(c) transmission and power levels |
//! | [`fig6`] | Fig. 6(a)–(c) minimum probe power studies |
//! | [`fig7`] | Fig. 7(a)–(b) laser energy per computed bit |
//! | [`gamma`] | Section V.C gamma-correction speedup |
//! | [`fault_curve`] | graceful degradation of the Section V.C circuit under bit flips |

pub mod exp0;
pub mod fault_curve;
pub mod fig1b;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod gamma;
pub mod kernels;
pub mod microbench;
pub mod soak;
pub mod sweep;

/// Renders a labelled `paper vs measured` comparison line.
pub fn compare_line(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let rel = if paper != 0.0 {
        format!("{:+.1}%", (measured / paper - 1.0) * 100.0)
    } else {
        "n/a".to_string()
    };
    format!(
        "  {label:<44} paper {paper:>10.4} {unit:<6} measured {measured:>10.4} {unit:<6} ({rel})"
    )
}

/// Simple fixed-width table printer for experiment outputs.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_line_formats() {
        let s = compare_line("pump power", 591.8, 591.86, "mW");
        assert!(s.contains("591.8"));
        assert!(s.contains("+0.0%"));
        let s0 = compare_line("zero", 0.0, 1.0, "x");
        assert!(s0.contains("n/a"));
    }
}

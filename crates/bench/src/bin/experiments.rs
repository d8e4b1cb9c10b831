//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! experiments <subcommand>
//!
//!   exp0    Section V.A design point (pump power, ER, transmissions)
//!   fig1b   Fig. 1(b) ReSC background example
//!   fig5a   Fig. 5(a) spectra, z=(0,1,0), x=(1,1)
//!   fig5b   Fig. 5(b) spectra, z=(1,1,0), x=(0,0)
//!   fig5c   Fig. 5(c) received power, all input combinations
//!   fig6a   Fig. 6(a) min probe power vs MZI IL/ER
//!   fig6b   Fig. 6(b) min probe power vs target BER
//!   fig6c   Fig. 6(c) literature device comparison
//!   fig7a   Fig. 7(a) energy vs wavelength spacing
//!   fig7b   Fig. 7(b) energy vs polynomial order
//!   gamma   Section V.C gamma-correction speedup
//!   all     run everything in order
//!
//! Add `--json <dir>` to also dump machine-readable reports.
//! ```

use osc_bench::{exp0, fig1b, fig5, fig6, fig7, gamma};

fn dump_json<T: std::fmt::Debug>(path: Option<&str>, name: &str, value: &T) {
    if let Some(dir) = path {
        let file = format!("{dir}/{name}.txt");
        let s = format!("{value:#?}\n");
        if let Err(e) = std::fs::write(&file, s) {
            eprintln!("warning: could not write {file}: {e}");
        } else {
            println!("  [report written to {file}]");
        }
    }
}

fn run_one(cmd: &str, json: Option<&str>) -> bool {
    match cmd {
        "exp0" => {
            let r = exp0::run();
            exp0::print(&r);
            dump_json(json, "exp0", &r);
        }
        "fig1b" => {
            let r = fig1b::run();
            fig1b::print(&r);
            dump_json(json, "fig1b", &r);
        }
        "fig5a" => {
            let r = fig5::run_fig5a();
            fig5::print_spectra("EXP-5A", &r);
            dump_json(json, "fig5a", &r);
        }
        "fig5b" => {
            let r = fig5::run_fig5b();
            fig5::print_spectra("EXP-5B", &r);
            dump_json(json, "fig5b", &r);
        }
        "fig5c" => {
            let r = fig5::run_fig5c();
            fig5::print_fig5c(&r);
            dump_json(json, "fig5c", &r);
        }
        "fig6a" => {
            let r = fig6::run_fig6a();
            fig6::print_fig6a(&r);
            dump_json(json, "fig6a", &r);
        }
        "fig6b" => {
            let r = fig6::run_fig6b();
            fig6::print_fig6b(&r);
            dump_json(json, "fig6b", &r);
        }
        "fig6c" => {
            let r = fig6::run_fig6c();
            fig6::print_fig6c(&r);
            dump_json(json, "fig6c", &r);
        }
        "fig7a" => {
            let r = fig7::run_fig7a();
            fig7::print_fig7a(&r);
            dump_json(json, "fig7a", &r);
        }
        "fig7b" => {
            let r = fig7::run_fig7b();
            fig7::print_fig7b(&r);
            dump_json(json, "fig7b", &r);
        }
        "gamma" => {
            let r = gamma::run();
            gamma::print(&r);
            dump_json(json, "gamma", &r);
        }
        _ => return false,
    }
    true
}

const ALL: [&str; 11] = [
    "exp0", "fig1b", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b",
    "gamma",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json: Option<String> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json = it.next();
            if json.is_none() {
                eprintln!("--json requires a directory argument");
                std::process::exit(2);
            }
        } else {
            cmds.push(a);
        }
    }
    if cmds.is_empty() {
        eprintln!("usage: experiments [--json DIR] <{}|all>", ALL.join("|"));
        std::process::exit(2);
    }
    for cmd in cmds {
        if cmd == "all" {
            for c in ALL {
                run_one(c, json.as_deref());
                println!();
            }
        } else if !run_one(&cmd, json.as_deref()) {
            eprintln!(
                "unknown experiment `{cmd}`; available: {} or all",
                ALL.join(", ")
            );
            std::process::exit(2);
        }
    }
}

//! Fault-injection accuracy sweep — the paper's robustness story,
//! measured.
//!
//! ```text
//! fault_sweep [--stream BITS] [--seeds N] [--xs N] [--out PATH]
//!             [--check-monotone]
//! ```
//!
//! Drives the order-6 gamma circuit (the Section V.C workload) through
//! the fault-injected fused kernel and emits two CSV curves
//! (`curve,fault_rate,stream_length,mae`):
//!
//! - `rate`: accuracy vs fault rate — mean absolute error against the
//!   exact gamma function over a grid of inputs × seeds, at a fixed
//!   stream length, for bit-flip rates from 0 (the clean baseline) up
//!   to 0.2. Stochastic computing degrades gracefully: each flip moves
//!   one bit, so the measured density drifts toward 0.5 as
//!   `p' = p(1-r) + (1-p)r` and the error grows smoothly with the
//!   rate instead of falling off a cliff.
//! - `length`: accuracy vs stream length at rates 0 and 0.01 — the
//!   averaging-down of both sampling noise and injected faults as the
//!   streams get longer.
//!
//! `--check-monotone` exits non-zero unless the `rate` curve is
//! non-decreasing (within a small tolerance for sampling noise) — the
//! CI hook that pins "more faults, more error, never chaos"; a reduced
//! grid of the same check runs as a unit test of
//! [`osc_bench::fault_curve`], which holds the curves themselves.

use osc_bench::fault_curve::{self, MONOTONE_TOLERANCE};

fn fail(msg: &str) -> ! {
    eprintln!("fault_sweep: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut stream = 2048usize;
    let mut seeds = 8usize;
    let mut xs = 33usize;
    let mut out_path: Option<String> = None;
    let mut check_monotone = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--stream" => {
                stream = value("--stream")
                    .parse()
                    .unwrap_or_else(|_| fail("--stream needs an integer"))
            }
            "--seeds" => {
                seeds = value("--seeds")
                    .parse()
                    .unwrap_or_else(|_| fail("--seeds needs an integer"))
            }
            "--xs" => {
                xs = value("--xs")
                    .parse()
                    .unwrap_or_else(|_| fail("--xs needs an integer"))
            }
            "--out" => out_path = Some(value("--out")),
            "--check-monotone" => check_monotone = true,
            other => fail(&format!(
                "unknown argument {other}\nusage: fault_sweep [--stream BITS] [--seeds N] \
                 [--xs N] [--out PATH] [--check-monotone]"
            )),
        }
    }
    if seeds == 0 || xs == 0 {
        fail("--seeds and --xs must be positive");
    }

    let system = fault_curve::gamma_system().unwrap_or_else(|e| fail(&e.to_string()));
    let mut points = fault_curve::rate_curve(&system, stream, xs, seeds)
        .unwrap_or_else(|e| fail(&format!("rate curve: {e}")));
    points.extend(
        fault_curve::length_curve(&system, xs, seeds)
            .unwrap_or_else(|e| fail(&format!("length curve: {e}"))),
    );

    let mut csv = String::from("curve,fault_rate,stream_length,mae\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{},{},{:.6}\n",
            p.curve, p.fault_rate, p.stream_length, p.mae
        ));
    }
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                fail(&format!("writing {path}: {e}"));
            }
            println!("[fault_sweep] wrote {} points to {path}", points.len());
        }
        None => print!("{csv}"),
    }

    if check_monotone {
        fault_curve::check_monotone(&points).unwrap_or_else(|e| fail(&e));
        println!(
            "[fault_sweep] rate curve is monotone over {} points (tolerance {MONOTONE_TOLERANCE})",
            fault_curve::RATES.len()
        );
    }
}

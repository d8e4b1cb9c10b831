//! End-to-end and per-layer benchmark of the optical stochastic
//! computing stack.
//!
//! ```text
//! perfbench --workload <image_gamma|image_contrast> --seed <n>
//!           --seconds <s> --trace <0|1> --worker <path> [--commit <id>]
//! perfbench --spec        # print BENCHMARK.json
//! ```
//!
//! With `--trace 0` a run measures one workload untraced and reports
//! the end-to-end metrics of [`END_TO_END`]. With `--trace 1` it runs
//! the workload untraced and then traced (the gap is the tracing
//! overhead), times every layer of [`layers::PER_LAYER`] in isolation,
//! and reports the per-layer metrics plus the workload's `layer_sum`.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the human-readable record, stamped with the SIMD tier, `nproc`,
//! the commit and the seed.

mod image;
mod layers;
mod service;
mod stats;
mod trace;

use stats::{LayerSum, LayerTerm, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads `BENCHMARK.json` gates on, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "image_gamma",
        "64x64 frames through the order-6 gamma circuit on a 2-thread evaluator: SNG drain, fault \
         hook, fold, decision kernel, lane blocking and the thread split do the work",
    ),
    (
        "image_contrast",
        "64x64 frames through the order-3 contrast circuit on one thread, no faults: the same \
         kernels at another order with the fault hook and the thread split bypassed",
    ),
];

/// One end-to-end metric: name, unit, better direction, bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`. What
/// each one is on each workload:
///
/// | metric | both image workloads |
/// |---|---|
/// | `setup_s` | backend + decision-table build |
/// | `p50_ms` | frame p50 (`frame_p50_ms`) |
/// | `tail_ms` | frame p90 of 100-frame windows (`frame_tail_ms`) |
/// | `throughput_per_s` | pixel × stream bits per second (`pixel_bits_per_s`) |
/// | `mean_abs_error` | image MAE vs the exact function (`image_mae`) |
///
/// Every timing is wall time ([`std::time::Instant`]); the process CPU
/// time of the same spans is printed in the record.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mean_abs_error",
        unit: "frac",
        better: "lower",
        bound: 0.05,
    },
];

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 40;

/// Renders `BENCHMARK.json` from the tables above and
/// [`layers::PER_LAYER`].
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s += "  \"paths\": [\"perfbench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = layers::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    /// Measuring budget of this phase.
    pub budget: Duration,
    pub trace: bool,
}

/// Set-up is timed in this many bursts spread evenly over the run, one
/// before the timed loop. On a shared host the speed of scalar code
/// swings by a third in spells of a few seconds; one burst lands in one
/// spell, eight spread over the run sample several.
const SETUP_BURSTS: usize = 8;
/// Each burst repeats the set-up for at least this long, and at least
/// [`SETUP_BURST_MIN`] times.
const SETUP_BURST_TIME: Duration = Duration::from_millis(200);
const SETUP_BURST_MIN: usize = 2;

/// Wall and process-CPU seconds of repeated set-ups; `setup_s` is the
/// median wall time.
pub struct SetupTimer {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    bursts: usize,
}

impl SetupTimer {
    /// Runs the first burst; returns the timer and the last set-up's
    /// product, for the workload to use.
    pub fn start<T>(
        build: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<(SetupTimer, T), String> {
        let mut timer = SetupTimer {
            wall: Vec::new(),
            cpu: Vec::new(),
            bursts: 0,
        };
        let built = timer.burst(build)?;
        Ok((timer, built))
    }

    fn burst<T>(&mut self, build: &mut impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let mut n = 0;
        loop {
            let c = stats::process_cpu();
            let t = Instant::now();
            let built = build()?;
            self.wall.push(t.elapsed().as_secs_f64());
            self.cpu.push((stats::process_cpu() - c).as_secs_f64());
            n += 1;
            if n >= SETUP_BURST_MIN && started.elapsed() >= SETUP_BURST_TIME {
                self.bursts += 1;
                return Ok(built);
            }
        }
    }

    /// Runs the next burst once `progress` (the share of the timed loop
    /// done) has reached its place. Call between timed items.
    pub fn between<T>(
        &mut self,
        progress: f64,
        build: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        if self.bursts < SETUP_BURSTS && progress * SETUP_BURSTS as f64 >= self.bursts as f64 {
            self.burst(build)?;
        }
        Ok(())
    }

    /// Runs the bursts the timed loop did not reach.
    pub fn finish<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        while self.bursts < SETUP_BURSTS {
            self.burst(build)?;
        }
        Ok(())
    }

    /// Median wall seconds of one set-up.
    pub fn wall_s(&self) -> f64 {
        stats::median(&self.wall)
    }

    /// The record line.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "setup_s {:.6} (wall; median of {} {what} in {} bursts over the run; process CPU {:.6})",
            self.wall_s(),
            self.wall.len(),
            self.bursts,
            stats::median(&self.cpu)
        )
    }
}

/// What one workload phase measured.
pub struct Outcome {
    pub tally: Tally,
    /// Every output check passed.
    pub checks_ok: bool,
    /// End-to-end metric values by [`END_TO_END`] name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable record lines (`frame_p50_ms`, `candidates_per_s`, ...).
    pub record: Vec<String>,
    /// Counts by `count.*` per-layer name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Layer ledger: per-call costs by layer metric name × calls.
    pub terms: Vec<(&'static str, f64)>,
    /// Threads the ledger's busy time is spread over.
    pub parallelism: usize,
    /// Wall time the ledger is compared against.
    pub ledger_wall: Duration,
    /// Work items per second, for the tracing-overhead comparison.
    pub rate: f64,
    /// Spans recorded (traced phase only).
    pub tracer: Option<trace::Tracer>,
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "image_gamma" => image::run(image::GAMMA, ctx),
        "image_contrast" => image::run(image::CONTRAST, ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut worker = None;
    let mut commit = "unknown".to_string();
    while let Some(flag) = argv.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--worker" => worker = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        worker: worker.ok_or("--worker is required")?,
        commit,
    }))
}

/// Formats a metric value as JSON: finite numbers with all their digits,
/// anything else as a huge sentinel (the run is then marked incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

fn result_line(
    correct: bool,
    tally: Tally,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", benchmark_json());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# record: workload {} seed {} trace {} simd_tier {} nproc {nproc} commit {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        osc_stochastic::simd::active_tier().name(),
        args.commit
    );
    let result = if args.trace {
        traced_run(&args)
    } else {
        plain_run(&args)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_record(outcome: &Outcome) {
    for line in &outcome.record {
        println!("# {line}");
    }
    println!(
        "# fail_frac {:.6} ({} failed of {} attempted)",
        outcome.tally.fail_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
}

fn plain_run(args: &Args) -> Result<String, String> {
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        trace: false,
    };
    let outcome = run_workload(&args.workload, &ctx)?;
    print_record(&outcome);
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let v = *outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("workload did not report {}", m.name))?;
        println!("# {} = {v:.6} {}", m.name, m.unit);
        metrics.push((m.name, v, m.unit));
    }
    let correct = outcome.checks_ok
        && outcome.tally.failed == 0
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(result_line(correct, outcome.tally, &metrics))
}

fn traced_run(args: &Args) -> Result<String, String> {
    // A quarter of the budget untraced, a quarter traced, half for the
    // isolated layer timings.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let mut ctx = Ctx {
        seed: args.seed,
        budget: quarter,
        trace: false,
    };
    let untraced = run_workload(&args.workload, &ctx)?;
    ctx.trace = true;
    let traced = run_workload(&args.workload, &ctx)?;
    print_record(&traced);
    let costs = layers::measure(&args.worker, Duration::from_secs_f64(args.seconds / 2.0))?;

    let tracer = traced.tracer.as_ref().ok_or("traced phase kept no spans")?;
    println!(
        "# spans: {} over {} requests",
        tracer.len(),
        tracer.requests()
    );
    for (name, stat) in tracer.summary() {
        println!(
            "# span {name}: {} calls, total {:.3} ms, self {:.3} ms",
            stat.count,
            stat.total_ns as f64 / 1e6,
            stat.self_ns as f64 / 1e6
        );
    }
    let time_ratio = untraced.rate / traced.rate;
    println!(
        "# tracing overhead {:.4} ({:.3} untraced vs {:.3} traced items/s)",
        time_ratio - 1.0,
        untraced.rate,
        traced.rate
    );

    let mut terms = Vec::new();
    for &(layer, calls) in &traced.terms {
        let value = *costs
            .get(layer)
            .ok_or_else(|| format!("ledger names unmeasured layer {layer}"))?;
        let scale = layers::PER_LAYER
            .iter()
            .find(|m| m.name == layer)
            .and_then(|m| layers::ns_per_unit(m.unit))
            .ok_or_else(|| format!("ledger layer {layer} is not a timing"))?;
        let cost_ns = value * scale;
        terms.push(LayerTerm {
            layer,
            cost_ns,
            calls,
        });
    }
    let sum = LayerSum::of(&terms, traced.ledger_wall, traced.parallelism);
    for t in &terms {
        println!(
            "# layer_sum term {}: {:.1} ns x {:.0} calls = {:.3} ms",
            t.layer,
            t.cost_ns,
            t.calls,
            t.cost_ns * t.calls / 1e6
        );
    }
    println!(
        "# layer_sum {:.4} of {:.3} ms x {} threads, unexplained {:.4}",
        sum.share(),
        sum.budget_ns / 1e6 / traced.parallelism.max(1) as f64,
        traced.parallelism,
        sum.remainder()
    );

    let mut values: BTreeMap<&'static str, f64> = costs;
    values.extend(traced.counts.iter().map(|(k, v)| (*k, *v)));
    values.insert("wl.layer_sum_share", sum.share());
    values.insert("wl.trace_time_ratio", time_ratio);
    values.insert("wl.spans", tracer.len() as f64);
    let mut metrics = Vec::new();
    for m in &layers::PER_LAYER {
        let v = *values
            .get(m.name)
            .ok_or_else(|| format!("no value for per-layer metric {}", m.name))?;
        println!("# {} = {v:.4} {} (moves {})", m.name, m.unit, m.moves);
        metrics.push((m.name, v, m.unit));
    }
    let mut tally = untraced.tally;
    tally.attempted += traced.tally.attempted;
    tally.failed += traced.tally.failed;
    let correct = untraced.checks_ok
        && traced.checks_ok
        && tally.failed == 0
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(result_line(correct, tally, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_checked_in_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench --spec`"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers::PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('"'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_line_shape() {
        let tally = Tally {
            attempted: 3,
            failed: 1,
        };
        let line = result_line(false, tally, &[("a", 1.5, "ms"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 1e300, \"unit\": \"s\"}}}"
        );
    }
}

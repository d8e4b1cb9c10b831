//! The image workloads: 64×64 `Image::blobs` frames at stream 2048
//! through `apply_optical_lanes_faulted`, in-process.
//!
//! - `image_gamma`, the paper's Section V.C application: the order-6
//!   gamma circuit on a 2-thread `BatchEvaluator`, every 4th frame
//!   carrying a seeded fault process (flip 0.01, shift 0.001).
//! - `image_contrast`: the order-3 contrast circuit on one thread with
//!   no faults, so the fault hook and the thread split are bypassed and
//!   the lane-blocked kernels run at another order.

use crate::stats::{self, Latency, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SetupTimer};
use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::{smoothstep, smoothstep_poly};
use osc_apps::gamma_app::{apply_optical_lanes_faulted, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_core::batch::{lane_blocks, mix_seed, BatchEvaluator};
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::gamma::{gamma_exact, DISPLAY_GAMMA};
use osc_units::Nanometers;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SIDE: usize = 64;
const STREAM: usize = 2048;
/// Every `FAULT_EVERY`-th frame (index ≡ FAULT_EVERY − 1) of a faulted
/// workload is faulted.
const FAULT_EVERY: usize = 4;
/// Frames the accuracy and repeat checks cover; the run always reaches
/// them.
const CHECKED_FRAMES: usize = 16;
/// Frames per tail window (so the tail is each window's p90).
const TAIL_WINDOW: usize = 100;
/// Frames per throughput window: five faulted frames and fifteen clean.
const RATE_WINDOW: usize = 5 * FAULT_EVERY;
const FAULT_SALT: u64 = 0xFA17_5EED;

/// What distinguishes one image workload from the other.
#[derive(Debug, Clone, Copy)]
pub struct Frames {
    name: &'static str,
    order: usize,
    threads: usize,
    faulted: bool,
}

pub const GAMMA: Frames = Frames {
    name: "image_gamma",
    order: 6,
    threads: 2,
    faulted: true,
};

pub const CONTRAST: Frames = Frames {
    name: "image_contrast",
    order: 3,
    threads: 1,
    faulted: false,
};

impl Frames {
    /// The circuit's device parameters.
    pub fn params(&self) -> CircuitParams {
        if self.order == GAMMA.order {
            CircuitParams::paper_fig7(self.order, Nanometers::new(0.165))
        } else {
            CircuitParams::paper_fig7(self.order, Nanometers::new(0.2))
        }
    }

    /// The Bernstein polynomial the circuit computes.
    pub fn polynomial(&self) -> Result<BernsteinPoly, String> {
        if self.order == GAMMA.order {
            paper_gamma_polynomial().map_err(|e| e.to_string())
        } else {
            Ok(smoothstep_poly())
        }
    }

    /// The exact function the circuit's polynomial approximates.
    fn exact(&self, x: f64) -> f64 {
        if self.order == GAMMA.order {
            gamma_exact(x, DISPLAY_GAMMA)
        } else {
            smoothstep(x)
        }
    }

    /// The fault process of frame `f`, if it is a faulted frame.
    fn faults(&self, seed: u64, f: usize) -> Option<FaultSpec> {
        (self.faulted && f % FAULT_EVERY == FAULT_EVERY - 1).then(|| FaultSpec {
            flip_probability: 0.01,
            shift_probability: 0.001,
            ..FaultSpec::with_seed(mix_seed(seed ^ FAULT_SALT, f as u64))
        })
    }
}

/// FNV-1a over the output pixels' bit patterns.
fn digest(image: &Image) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for p in image.pixels() {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Mean |output − exact function| of one frame.
fn frame_mae(spec: Frames, input: &Image, output: &Image) -> f64 {
    let total: f64 = input
        .pixels()
        .iter()
        .zip(output.pixels())
        .map(|(&x, &y)| (y - spec.exact(x)).abs())
        .sum();
    total / input.pixels().len() as f64
}

/// The MAE a correct clean frame stays under: the polynomial's own fit
/// error plus three binomial standard deviations of a `STREAM`-bit
/// estimate, averaged over the pixels.
fn mae_bound(spec: Frames, input: &Image, backend: &OpticalBackend) -> f64 {
    let poly = backend.system().polynomial();
    let n = STREAM as f64;
    let total: f64 = input
        .pixels()
        .iter()
        .map(|&x| {
            let q = poly.eval(x).clamp(0.0, 1.0);
            (q - spec.exact(x)).abs() + 3.0 * (q * (1.0 - q) / n).sqrt()
        })
        .sum();
    total / input.pixels().len() as f64
}

fn build(spec: Frames, seed: u64) -> Result<(OpticalBackend, BatchEvaluator), String> {
    let backend = OpticalBackend::new(spec.params(), spec.polynomial()?, STREAM, seed)
        .map_err(|e| e.to_string())?;
    Ok((backend, BatchEvaluator::with_threads(spec.threads)))
}

pub fn run(spec: Frames, ctx: &Ctx) -> Result<Outcome, String> {
    let name = spec.name;
    let threads = spec.threads;
    let order = spec.order;
    let mut rebuild = || build(spec, ctx.seed);
    let (mut setup, (backend, evaluator)) = SetupTimer::start(&mut rebuild)?;
    let image = Image::blobs(SIDE, SIDE);
    let pixels = image.pixels().len();
    let bound = mae_bound(spec, &image, &backend);

    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut frame_s = Vec::new();
    let mut busy = Duration::ZERO;
    let mut busy_cpu = Duration::ZERO;
    let mut digests = Vec::with_capacity(CHECKED_FRAMES);
    let mut clean_maes = Vec::new();
    let mut faulted = 0usize;
    let mut checks_ok = true;
    let started = Instant::now();
    let deadline = started + ctx.budget;
    let mut f = 0usize;
    while f < CHECKED_FRAMES || Instant::now() < deadline {
        setup.between(
            started.elapsed().as_secs_f64() / ctx.budget.as_secs_f64(),
            &mut rebuild,
        )?;
        let frame_backend = backend.with_seed(mix_seed(ctx.seed, f as u64));
        let faults = spec.faults(ctx.seed, f);
        let root = tracer.open("frame", f as u64, None);
        let call = tracer.open(
            "gamma_app.apply_optical_lanes_faulted",
            f as u64,
            Some(root),
        );
        let c = stats::process_cpu();
        let t = Instant::now();
        let produced =
            apply_optical_lanes_faulted(&image, &frame_backend, &evaluator, faults.as_ref());
        let took = t.elapsed();
        let cpu = stats::process_cpu() - c;
        tracer.close(call);
        let check = tracer.open("check", f as u64, Some(root));
        faulted += usize::from(faults.is_some());
        latencies.push(stats::latency_entry(produced.is_ok(), stats::ms(took)));
        tally.record(1, produced.is_ok());
        match produced {
            Ok(out) => {
                busy += took;
                busy_cpu += cpu;
                frame_s.push(took.as_secs_f64());
                cpu_ms.push(stats::ms(cpu));
                if f < CHECKED_FRAMES {
                    digests.push(digest(&out));
                    if faults.is_none() {
                        let mae = frame_mae(spec, &image, &out);
                        if mae > bound {
                            eprintln!("{name}: frame {f} MAE {mae} exceeds bound {bound}");
                            checks_ok = false;
                        }
                        clean_maes.push(mae);
                    }
                }
            }
            Err(e) => {
                eprintln!("{name}: frame {f} failed: {e}");
                checks_ok = false;
            }
        }
        tracer.close(check);
        tracer.close(root);
        f += 1;
    }
    let frames = f;
    let loop_wall = started.elapsed();
    setup.finish(&mut rebuild)?;

    // Repeat check: frames 0 and 3 (clean, and faulted in a faulted
    // workload), re-run with the same seed, must give the same bytes.
    for g in [0, FAULT_EVERY - 1] {
        let again = apply_optical_lanes_faulted(
            &image,
            &backend.with_seed(mix_seed(ctx.seed, g as u64)),
            &evaluator,
            spec.faults(ctx.seed, g).as_ref(),
        )
        .map_err(|e| e.to_string())?;
        if digests.get(g) != Some(&digest(&again)) {
            eprintln!("{name}: frame {g} is not byte-identical on repeat");
            checks_ok = false;
        }
    }
    if clean_maes.is_empty() {
        return Err(format!("{name}: no clean frame finished"));
    }
    let image_mae = clean_maes.iter().sum::<f64>() / clean_maes.len() as f64;

    let ok_frames = tally.attempted - tally.failed;
    // Pixel bits per wall second of each window of frames, each window
    // of a faulted workload holding the 3:1 clean:faulted mix; the run
    // reports the median.
    let pixel_bits_per_s = stats::median(&stats::window_rates(
        &frame_s,
        (pixels * STREAM) as f64,
        RATE_WINDOW,
    ));
    let overall = (ok_frames as usize * pixels * STREAM) as f64 / busy.as_secs_f64().max(1e-9);
    let lat = Latency::windowed(&latencies, TAIL_WINDOW);
    let cpu_lat = Latency::windowed(&cpu_ms, TAIL_WINDOW);
    let busy_threads = busy_cpu.as_secs_f64() / busy.as_secs_f64().max(1e-9);
    let words_per_stream = STREAM.div_ceil(64);
    let streams = 2 * order + 1;
    let words = (frames * pixels * streams * words_per_stream) as f64;
    let faulted_words = (faulted * pixels * streams * words_per_stream) as f64;

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", setup.wall_s());
    metrics.insert("p50_ms", lat.p50);
    metrics.insert("tail_ms", lat.tail);
    metrics.insert("throughput_per_s", pixel_bits_per_s);
    metrics.insert("mean_abs_error", image_mae);
    let record = vec![
        format!("{name}: {frames} frames of {SIDE}x{SIDE}, order {order}, stream {STREAM}, {threads} threads, {faulted} faulted"),
        setup.describe("backend + table builds"),
        format!("pixel_bits_per_s {pixel_bits_per_s:.4e} (median over {RATE_WINDOW}-frame windows; {overall:.4e} over all {ok_frames} frames)"),
        format!("frame wall time: {}", lat.describe("ms")),
        format!("frame_p50_ms {:.4}  frame_tail_ms {:.4} (p{})", lat.p50, lat.tail, lat.tail_permille as f64 / 10.0),
        format!("frame process-CPU time: {}", cpu_lat.describe("ms")),
        format!(
            "busy threads {busy_threads:.3} of {threads} (process CPU / wall over the frames){}",
            if busy_threads < 0.6 * threads as f64 { "  PARALLELISM LOST: the frames ran on fewer threads than the evaluator has" } else { "" }
        ),
        format!("image_mae {image_mae:.6} over {} clean frames (bound {bound:.6})", clean_maes.len()),
        format!("count.faulted_items {faulted}"),
    ];

    // Ledger: the lane-blocked kernel per 64-cycle lane-word (the
    // tier's block widths: 8 on a SIMD tier, 1 on the scalar one), plus
    // the fault hook on faulted words, spread over the evaluator's
    // threads.
    let mut lane_words: BTreeMap<&'static str, f64> = BTreeMap::new();
    let rows = frames * SIDE;
    for (_, width) in lane_blocks(SIDE) {
        let layer = match (order, width) {
            (6, 1) => "system.lanes.l1.ns_per_64cyc",
            (6, 2) => "system.lanes.l2.ns_per_64cyc",
            (6, 4) => "system.lanes.l4.ns_per_64cyc",
            (6, _) => "system.lanes.l8.ns_per_64cyc",
            (_, 8) => "system.lanes.order3.l8.ns_per_64cyc",
            _ => "system.lanes.order3.l1.ns_per_64cyc",
        };
        *lane_words.entry(layer).or_default() += (rows * width * words_per_stream) as f64;
    }
    let mut terms: Vec<(&'static str, f64)> = lane_words.into_iter().collect();
    if faulted > 0 {
        terms.push(("fault.on.ns_per_word", faulted_words));
    }

    let mut counts = BTreeMap::new();
    counts.insert("count.items", frames as f64);
    counts.insert("count.words_drained", words);
    counts.insert("count.distinct_circuits", 1.0);

    Ok(Outcome {
        tally,
        checks_ok,
        metrics,
        record,
        counts,
        terms,
        parallelism: threads,
        ledger_wall: busy,
        rate: frames as f64 / loop_wall.as_secs_f64(),
        tracer: ctx.trace.then_some(tracer),
    })
}

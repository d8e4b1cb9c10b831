//! Per-layer timings: each layer's public functions called in isolation
//! from outside its module, plus the table of every per-layer metric
//! with the end-to-end metric and workload it should move.

use crate::stats;
use osc_apps::gamma_app::{apply_optical_lanes_faulted, paper_gamma_polynomial};
use osc_bench::sweep::{frontier_csv, order_grid_axes, pareto_frontier, DesignSweep, SweepMode};
use osc_core::batch::shard::pool::{PoolConfig, WorkerPool};
use osc_core::batch::shard::service::{Service, ServiceClient};
use osc_core::batch::shard::{
    circuit_digest, decode_request_v2, decode_response_v2, encode_request_v2, encode_response_v2,
    evaluate_batch_in_process, ShardJob, ShardRequest, ShardResponseV2, SngKind,
};
use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::design::sweep::{probe_inputs, CandidateDesign};
use osc_core::fault::FaultSpec;
use osc_core::system::{EvalScratch, OpticalRun, OpticalScSystem};
use osc_math::rng::{SplitMix64, Xoshiro256PlusPlus};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::resc::fold_data_words;
use osc_stochastic::simd;
use osc_stochastic::sng::{CounterSng, SngWordCursor, StochasticNumberGenerator, XoshiroSng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One per-layer metric and the end-to-end metric@workload it should
/// move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const PIXEL_BITS: &str = "throughput_per_s@image_gamma, throughput_per_s@image_contrast";
const GAMMA_BITS: &str = "throughput_per_s@image_gamma";
const FRAME_P50: &str = "p50_ms@image_gamma";
/// The design sweep and the serving path (codec, pool, service) run in
/// no gated workload: on a shared 2-vCPU host their scalar-bound times
/// swing too far between identical runs. They are timed here so a
/// change to them still shows.
const SWEEP: &str = "design sweeps only (no gated workload sweeps)";
const SERVED: &str = "served requests only (no gated workload serves)";

/// Every per-layer metric `--trace 1` reports, in report order. Each is
/// measured on every workload and is never 0.
pub const PER_LAYER: [PerLayer; 52] = [
    m(
        "sng.xoshiro.ns_per_word",
        "ns",
        "lower",
        "throughput_per_s@image_gamma (and a served request's evaluation)",
    ),
    m("sng.xoshiro.l8.ns_per_word", "ns", "lower", PIXEL_BITS),
    m("sng.counter.ns_per_word", "ns", "lower", SWEEP),
    m("fault.off.ns_per_word", "ns", "lower", FRAME_P50),
    m("fault.on.ns_per_word", "ns", "lower", "tail_ms@image_gamma"),
    m(
        "resc.fold_data_words.ns_per_word",
        "ns",
        "lower",
        PIXEL_BITS,
    ),
    m(
        "simd.assemble_indices16.ns_per_call",
        "ns",
        "lower",
        "throughput_per_s@image_gamma (noisy tier)",
    ),
    m(
        "system.fused.order6.ns_per_64cyc",
        "ns",
        "lower",
        GAMMA_BITS,
    ),
    m("system.fused.noisy.ns_per_64cyc", "ns", "lower", SWEEP),
    m("system.lanes.l1.ns_per_64cyc", "ns", "lower", GAMMA_BITS),
    m("system.lanes.l2.ns_per_64cyc", "ns", "lower", GAMMA_BITS),
    m("system.lanes.l4.ns_per_64cyc", "ns", "lower", GAMMA_BITS),
    m("system.lanes.l8.ns_per_64cyc", "ns", "lower", GAMMA_BITS),
    m(
        "system.lanes.order3.l1.ns_per_64cyc",
        "ns",
        "lower",
        "throughput_per_s@image_contrast (scalar tier)",
    ),
    m(
        "system.lanes.order3.l8.ns_per_64cyc",
        "ns",
        "lower",
        "throughput_per_s@image_contrast",
    ),
    m("system.build_us.order1", "us", "lower", SWEEP),
    m("system.build_us.order2", "us", "lower", SWEEP),
    m(
        "system.build_us.order6",
        "us",
        "lower",
        "setup_s@image_gamma",
    ),
    m("batch.range_call_us", "us", "lower", SERVED),
    m("batch.item_fused_us", "us", "lower", SERVED),
    m("design.solve_ms", "ms", "lower", SWEEP),
    m("design.frontier_ms", "ms", "lower", SWEEP),
    m(
        "design.inproc_eval_ms",
        "ms",
        "lower",
        "the in-process baseline of a served sweep",
    ),
    m("shard.svc.encode_request.inline.ns", "ns", "lower", SERVED),
    m("shard.svc.encode_request.cached.ns", "ns", "lower", SERVED),
    m("shard.svc.decode_request.ns", "ns", "lower", SERVED),
    m("shard.svc.encode_response.ns", "ns", "lower", SERVED),
    m("shard.svc.decode_response.ns", "ns", "lower", SERVED),
    m("shard.svc.circuit_digest.ns", "ns", "lower", SERVED),
    m("shard.svc.request_bytes.inline", "bytes", "lower", SERVED),
    m("shard.svc.request_bytes.cached", "bytes", "lower", SERVED),
    m("shard.svc.response_bytes", "bytes", "lower", SERVED),
    m(
        "shard.sweep.encode_request.inline.ns",
        "ns",
        "lower",
        SERVED,
    ),
    m(
        "shard.sweep.encode_request.cached.ns",
        "ns",
        "lower",
        SERVED,
    ),
    m("shard.sweep.decode_request.ns", "ns", "lower", SERVED),
    m("shard.sweep.encode_response.ns", "ns", "lower", SERVED),
    m("shard.sweep.decode_response.ns", "ns", "lower", SERVED),
    m("shard.sweep.circuit_digest.ns", "ns", "lower", SERVED),
    m("shard.sweep.request_bytes.inline", "bytes", "lower", SERVED),
    m("shard.sweep.request_bytes.cached", "bytes", "lower", SERVED),
    m("shard.sweep.response_bytes", "bytes", "lower", SERVED),
    m("pool.rtt_us.warm", "us", "lower", SERVED),
    m("pool.rtt_us.cold", "us", "lower", SERVED),
    m("pool.submit_us", "us", "lower", SERVED),
    m("service.request_us", "us", "lower", SERVED),
    m(
        "service.inproc_us",
        "us",
        "lower",
        "the in-process baseline of a served request",
    ),
    m(
        "wl.layer_sum_share",
        "frac",
        "higher",
        "share of the workload's wall time the layers explain",
    ),
    m(
        "wl.trace_time_ratio",
        "ratio",
        "lower",
        "traced over untraced time per item of the workload",
    ),
    m(
        "wl.spans",
        "count",
        "lower",
        "spans the traced phase recorded",
    ),
    m(
        "count.items",
        "count",
        "higher",
        "frames or candidates in the traced phase",
    ),
    m(
        "count.words_drained",
        "count",
        "higher",
        "SNG words the traced phase drew",
    ),
    m(
        "count.distinct_circuits",
        "count",
        "higher",
        "distinct circuits the traced phase used",
    ),
];

/// Nanoseconds per unit of a timed metric, for the layer ledger.
pub fn ns_per_unit(unit: &str) -> Option<f64> {
    match unit {
        "ns" => Some(1.0),
        "us" => Some(1e3),
        "ms" => Some(1e6),
        _ => None,
    }
}

/// Median nanoseconds per call of `f` over batches lasting about a
/// twentieth of `budget`, after a calibrating warm-up; at least three
/// batches whatever the budget.
fn per_call_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed() >= budget / 20 || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&samples)
}

/// The 64-cycle words of a `bits`-bit stream.
fn words(bits: usize) -> f64 {
    bits.div_ceil(64) as f64
}

const STREAM: usize = 2048;
/// The budget is split this many ways: 40 timed sections below, each
/// with a calibrating warm-up, plus the set-up between them.
const SECTIONS: u32 = 48;

/// Times every layer; returns values by [`PER_LAYER`] name, in the
/// metric's unit, with the workload-level `wl.*` and `count.*`
/// entries left to the caller. Differences of two timings print as
/// record lines.
pub fn measure(worker: &Path, budget: Duration) -> Result<BTreeMap<&'static str, f64>, String> {
    let each = (budget / SECTIONS).max(Duration::from_millis(20));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut fill = SplitMix64::new(0x1A7E_5EED);

    // sng: one 2048-bit Xoshiro stream, eight in lane lock-step, and a
    // 32-bit counter stream (the sweep's shape).
    let mut sng = XoshiroSng::new(fill.next_u64());
    v.insert(
        "sng.xoshiro.ns_per_word",
        per_call_ns(each, || {
            let mut acc = 0u64;
            sng.begin(0.37, STREAM)
                .expect("unit probability")
                .drain(|w, _| acc ^= w);
            acc
        }) / words(STREAM),
    );
    let mut lanes: [XoshiroSng; 8] = std::array::from_fn(|_| XoshiroSng::new(fill.next_u64()));
    v.insert(
        "sng.xoshiro.l8.ns_per_word",
        per_call_ns(each, || {
            let mut acc = 0u64;
            XoshiroSng::drain_lanes(&mut lanes, &[0.37; 8], STREAM, |block, _| {
                for &w in block {
                    acc ^= w;
                }
            })
            .expect("unit probabilities");
            acc
        }) / (8.0 * words(STREAM)),
    );
    let mut jitter = 0u64;
    v.insert(
        "sng.counter.ns_per_word",
        per_call_ns(each, || {
            jitter += 1;
            let mut acc = 0u64;
            CounterSng::new()
                .begin(0.3 + (jitter % 7) as f64 * 1e-3, 32)
                .expect("unit probability")
                .drain(|w, _| acc ^= w);
            acc
        }) / words(32),
    );

    // fault: the word hook on one 2048-bit stream, inactive and active.
    let mut buf: Vec<u64> = (0..words(STREAM) as usize)
        .map(|_| fill.next_u64())
        .collect();
    let mut tmp = Vec::new();
    let mut stream = 0u64;
    v.insert(
        "fault.off.ns_per_word",
        per_call_ns(each, || {
            stream += 1;
            FaultSpec::CLEAN.apply_to_words(stream, &mut buf, 0, 1, STREAM, &mut tmp);
            buf[0]
        }) / words(STREAM),
    );
    let spec = FaultSpec {
        flip_probability: 0.01,
        shift_probability: 0.001,
        ..FaultSpec::with_seed(fill.next_u64())
    };
    v.insert(
        "fault.on.ns_per_word",
        per_call_ns(each, || {
            stream += 1;
            spec.apply_to_words(stream, &mut buf, 0, 1, STREAM, &mut tmp);
            buf[0]
        }) / words(STREAM),
    );

    // resc: one 8-lane data stream folded into the 3 count planes of an
    // order-6 circuit.
    let wl = 8 * words(STREAM) as usize;
    let data: Vec<u64> = (0..wl).map(|_| fill.next_u64()).collect();
    let mut planes = vec![0u64; 3 * wl];
    let mut carry = data.clone();
    v.insert(
        "resc.fold_data_words.ns_per_word",
        per_call_ns(each, || {
            carry.copy_from_slice(&data);
            fold_data_words(&mut carry, &mut planes, 3);
            planes[0]
        }) / wl as f64,
    );

    // simd: one 16-bit index assembly over the 10 source rows of an
    // order-6 fold.
    let mut src: [u64; 10] = std::array::from_fn(|_| fill.next_u64());
    let mut idxs = [0u16; 64];
    v.insert(
        "simd.assemble_indices16.ns_per_call",
        per_call_ns(each, || {
            src[0] = src[0].rotate_left(1);
            if !simd::assemble_indices16(&src, &mut idxs) {
                simd::assemble_indices16_scalar(&src, &mut idxs);
            }
            idxs[7]
        }),
    );

    // system: the order-6 gamma circuit fused and lane-blocked, a
    // noisy-tier sweep circuit, and circuit builds.
    let gamma_poly = paper_gamma_polynomial().map_err(|e| e.to_string())?;
    let gamma = OpticalScSystem::new(crate::image::GAMMA.params(), gamma_poly.clone())
        .map_err(|e| e.to_string())?;
    let contrast = OpticalScSystem::new(
        crate::image::CONTRAST.params(),
        crate::image::CONTRAST.polynomial()?,
    )
    .map_err(|e| e.to_string())?;
    let sweep = DesignSweep::new(order_grid_axes());
    let design_system = |order: usize| -> Result<OpticalScSystem, String> {
        let d = sweep
            .designs()
            .iter()
            .find(|d| d.candidate.order == order)
            .ok_or_else(|| format!("no order-{order} design in the order grid"))?;
        let poly = BernsteinPoly::new(d.coeffs.clone()).map_err(|e| e.to_string())?;
        OpticalScSystem::new(d.params, poly).map_err(|e| e.to_string())
    };
    let noisy = sweep
        .designs()
        .iter()
        .filter_map(|d| {
            let poly = BernsteinPoly::new(d.coeffs.clone()).ok()?;
            OpticalScSystem::new(d.params, poly).ok()
        })
        .find(|s| !s.has_deterministic_decisions())
        .ok_or("no noisy-tier circuit in the order grid")?;
    println!(
        "# layers: simd tier {}; order-6 gamma circuit mux_exact {} deterministic {}; noisy circuit order {} mux_exact {}",
        simd::active_tier().name(),
        gamma.is_mux_exact(),
        gamma.has_deterministic_decisions(),
        noisy.params().order,
        noisy.is_mux_exact()
    );
    let mut scratch = EvalScratch::new();
    let mut sng = XoshiroSng::new(fill.next_u64());
    let mut rng = Xoshiro256PlusPlus::new(fill.next_u64());
    v.insert(
        "system.fused.order6.ns_per_64cyc",
        per_call_ns(each, || {
            gamma
                .evaluate_fused(0.5, STREAM, &mut sng, &mut rng, &mut scratch)
                .expect("x in range")
                .estimate
        }) / words(STREAM),
    );
    v.insert(
        "system.fused.noisy.ns_per_64cyc",
        per_call_ns(each, || {
            noisy
                .evaluate_fused(0.5, STREAM, &mut sng, &mut rng, &mut scratch)
                .expect("x in range")
                .estimate
        }) / words(STREAM),
    );
    v.insert(
        "system.lanes.l1.ns_per_64cyc",
        lanes_ns::<1>(&gamma, each, &mut fill),
    );
    v.insert(
        "system.lanes.l2.ns_per_64cyc",
        lanes_ns::<2>(&gamma, each, &mut fill),
    );
    v.insert(
        "system.lanes.l4.ns_per_64cyc",
        lanes_ns::<4>(&gamma, each, &mut fill),
    );
    v.insert(
        "system.lanes.l8.ns_per_64cyc",
        lanes_ns::<8>(&gamma, each, &mut fill),
    );
    v.insert(
        "system.lanes.order3.l1.ns_per_64cyc",
        lanes_ns::<1>(&contrast, each, &mut fill),
    );
    v.insert(
        "system.lanes.order3.l8.ns_per_64cyc",
        lanes_ns::<8>(&contrast, each, &mut fill),
    );
    for (name, order) in [("system.build_us.order1", 1), ("system.build_us.order2", 2)] {
        let d = design_system(order)?;
        let (params, poly) = (*d.params(), d.polynomial().clone());
        v.insert(
            name,
            per_call_ns(each, || OpticalScSystem::new(params, poly.clone()).is_ok()) / 1e3,
        );
    }
    let params6 = crate::image::GAMMA.params();
    v.insert(
        "system.build_us.order6",
        per_call_ns(each, || {
            OpticalScSystem::new(params6, gamma_poly.clone()).is_ok()
        }) / 1e3,
    );

    // batch: one 128-bit item through the evaluator, and the same item
    // evaluated fused; the difference is the evaluator's own cost.
    let evaluator = BatchEvaluator::with_threads(2);
    let mut item = 0u64;
    let call_us = per_call_ns(each, || {
        item += 1;
        evaluator
            .evaluate_range_faulted(&gamma, &[0.5], 128, XoshiroSng::new, item, 0, None)
            .expect("x in range")
    }) / 1e3;
    let fused_us = per_call_ns(each, || {
        item += 1;
        let mut sng = XoshiroSng::new(mix_seed(item, 0));
        gamma
            .evaluate_fused(0.5, 128, &mut sng, &mut rng, &mut scratch)
            .expect("x in range")
            .estimate
    }) / 1e3;
    v.insert("batch.range_call_us", call_us);
    v.insert("batch.item_fused_us", fused_us);
    println!(
        "# batch.call_us {:.4} (evaluate_range_faulted {call_us:.4} minus evaluate_fused {fused_us:.4})",
        call_us - fused_us
    );

    // design: solve, frontier and the in-process evaluation of the
    // order-grid axes.
    v.insert(
        "design.solve_ms",
        per_call_ns(each, || DesignSweep::new(order_grid_axes()).designs().len()) / 1e6,
    );
    let points = sweep
        .evaluate(SweepMode::InProcess(&evaluator))
        .map_err(|e| e.to_string())?;
    v.insert(
        "design.frontier_ms",
        per_call_ns(each, || frontier_csv(&pareto_frontier(&points)).len()) / 1e6,
    );
    let serial = BatchEvaluator::with_threads(1);
    v.insert(
        "design.inproc_eval_ms",
        per_call_ns(each, || {
            sweep
                .evaluate(SweepMode::InProcess(&serial))
                .map(|p| p.len())
                .unwrap_or(0)
        }) / 1e6,
    );

    // shard: the codec on a served image request's shape and a sweep
    // candidate's.
    let sched = crate::service::schedule(1)?;
    let svc_req = sched.requests[0].clone();
    let svc_system = sched.backends[0].system();
    let svc_runs = evaluate_batch_in_process(
        &evaluator,
        svc_system,
        SngKind::Xoshiro,
        sched.image.pixels(),
        svc_req.stream_length as usize,
        svc_req.seed,
    )
    .map_err(|e| e.to_string())?;
    codec(&mut v, each, "svc", &svc_req, svc_runs);
    let sweep_design = &sweep.designs()[sweep.designs().len() - 1];
    let sweep_req = candidate_request(&sweep, sweep_design);
    let sweep_system = design_system(sweep_design.candidate.order)?;
    let sweep_runs = evaluate_batch_in_process(
        &evaluator,
        &sweep_system,
        sweep_req.sng,
        &probe_inputs(sweep.axes().probes),
        sweep_req.stream_length as usize,
        sweep_req.seed,
    )
    .map_err(|e| e.to_string())?;
    codec(&mut v, each, "sweep", &sweep_req, sweep_runs);

    // pool: one minimal request (an order-1 circuit, one item, 64
    // bits) with the circuit cached, and with a new circuit each time.
    let minimal_system = design_system(1)?;
    let minimal = ShardRequest::batch(&minimal_system, SngKind::Counter, 0, &[0.5], 64, 7, None);
    let cold: Vec<ShardRequest> = sweep
        .designs()
        .iter()
        .map(|d| candidate_request(&sweep, d))
        .collect();
    let mut pool = spawn_pool(worker)?;
    let warm = per_call_ns(each, || {
        pool.run_requests(std::slice::from_ref(&minimal), &[1])
            .expect("warm pool round trip")
    }) / 1e3;
    let mut next = 0usize;
    let probes = sweep.axes().probes;
    let cold_us = per_call_ns(each, || {
        next = (next + 1) % cold.len();
        pool.run_requests(std::slice::from_ref(&cold[next]), &[probes])
            .expect("cold pool round trip")
    }) / 1e3;
    drop(pool);
    v.insert("pool.rtt_us.warm", warm);
    v.insert("pool.rtt_us.cold", cold_us);
    let dispatcher = crate::service::spawn_dispatcher(worker)?;
    let submit = per_call_ns(each, || {
        dispatcher
            .submit(minimal.clone())
            .expect("dispatcher round trip")
    }) / 1e3;
    dispatcher.drain();
    v.insert("pool.submit_us", submit);
    println!(
        "# pool.queue_wait_us {:.4} (PoolDispatcher::submit {submit:.4} minus warm run_requests {warm:.4})",
        submit - warm
    );

    // service: the minimal request over TCP, and the service_small
    // request sequence evaluated in-process.
    let service = Service::bind(("127.0.0.1", 0), crate::service::spawn_dispatcher(worker)?)
        .map_err(|e| format!("binding: {e}"))?;
    let mut client =
        ServiceClient::connect(service.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    let request = per_call_ns(each, || {
        client.request(&minimal).expect("service round trip")
    }) / 1e3;
    drop(client);
    service.drain();
    v.insert("service.request_us", request);
    println!(
        "# service.tcp_us {:.4} (ServiceClient::request {request:.4} minus submit {submit:.4})",
        request - submit
    );
    let inproc = BatchEvaluator::new();
    let mut r = 0usize;
    v.insert(
        "service.inproc_us",
        per_call_ns(each, || {
            r = (r + 1) % crate::service::DISTINCT;
            apply_optical_lanes_faulted(&sched.image, &sched.backends[r], &inproc, None)
                .expect("in-process request")
        }) / 1e3,
    );
    Ok(v)
}

/// A 2-worker pool of one thread per worker with the default circuit
/// cache.
fn spawn_pool(worker: &Path) -> Result<WorkerPool, String> {
    PoolConfig::new(worker, 2)
        .with_worker_threads(1)
        .spawn()
        .map_err(|e| format!("spawning the pool: {e}"))
}

/// The inline wire request a pool ships for one sweep candidate.
fn candidate_request(sweep: &DesignSweep, d: &CandidateDesign) -> ShardRequest {
    ShardRequest {
        params: d.params,
        coeffs: d.coeffs.clone(),
        sng: d.candidate.sng,
        seed: d.candidate.seed_for(sweep.axes().seed),
        stream_length: d.candidate.stream_length as u64,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: probe_inputs(sweep.axes().probes),
        },
    }
}

/// `evaluate_fused_lanes::<L>` on `system`, ns per 64-cycle lane-word.
fn lanes_ns<const L: usize>(
    system: &OpticalScSystem,
    each: Duration,
    fill: &mut SplitMix64,
) -> f64 {
    let mut sngs: [XoshiroSng; L] = std::array::from_fn(|_| XoshiroSng::new(fill.next_u64()));
    let mut rngs: [Xoshiro256PlusPlus; L] =
        std::array::from_fn(|_| Xoshiro256PlusPlus::new(fill.next_u64()));
    let mut scratch = EvalScratch::new();
    per_call_ns(each, || {
        system
            .evaluate_fused_lanes(&[0.5; L], STREAM, &mut sngs, &mut rngs, &mut scratch)
            .expect("x in range")[0]
            .estimate
    }) / (L as f64 * words(STREAM))
}

/// The six codec operations and three byte counts of one request shape.
fn codec(
    v: &mut BTreeMap<&'static str, f64>,
    each: Duration,
    shape: &'static str,
    req: &ShardRequest,
    runs: Vec<OpticalRun>,
) {
    let key = |op: &str| -> &'static str {
        PER_LAYER
            .iter()
            .find(|m| m.name == format!("shard.{shape}.{op}"))
            .map(|m| m.name)
            .expect("codec metric listed in PER_LAYER")
    };
    let digest = circuit_digest(&req.params, &req.coeffs);
    let inline = encode_request_v2(req, 1, None);
    let cached = encode_request_v2(req, 1, Some(digest));
    let response = ShardResponseV2::Runs {
        request_id: 1,
        runs,
    };
    let response_bytes = encode_response_v2(&response);
    v.insert(
        key("encode_request.inline.ns"),
        per_call_ns(each, || encode_request_v2(req, 1, None)),
    );
    v.insert(
        key("encode_request.cached.ns"),
        per_call_ns(each, || encode_request_v2(req, 1, Some(digest))),
    );
    v.insert(
        key("decode_request.ns"),
        per_call_ns(each, || decode_request_v2(&inline).expect("own encoding")),
    );
    v.insert(
        key("encode_response.ns"),
        per_call_ns(each, || encode_response_v2(&response)),
    );
    v.insert(
        key("decode_response.ns"),
        per_call_ns(each, || {
            decode_response_v2(&response_bytes).expect("own encoding")
        }),
    );
    v.insert(
        key("circuit_digest.ns"),
        per_call_ns(each, || circuit_digest(&req.params, &req.coeffs)),
    );
    v.insert(key("request_bytes.inline"), inline.len() as f64);
    v.insert(key("request_bytes.cached"), cached.len() as f64);
    v.insert(key("response_bytes"), response_bytes.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_timed_unit_converts_to_ns() {
        for m in &PER_LAYER {
            if m.name.ends_with(".ns") || m.name.contains("ns_per") {
                assert_eq!(ns_per_unit(m.unit), Some(1.0), "{}", m.name);
            }
            if m.name.contains("_us") {
                assert_eq!(ns_per_unit(m.unit), Some(1e3), "{}", m.name);
            }
            if m.name.contains("_ms") {
                assert_eq!(ns_per_unit(m.unit), Some(1e6), "{}", m.name);
            }
            assert!(m.better == "lower" || m.better == "higher");
        }
    }
}

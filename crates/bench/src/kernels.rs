//! EXP-K: kernel speedups, pinned per PR.
//!
//! Measures the seed per-bit implementations (kept as `*_bitwise` /
//! `*_reference` twins) against the current hot paths on the workloads
//! the acceptance criteria name: the order-2 Fig. 5 circuit at 16384-bit
//! streams and a 64×64-pixel gamma-correction image. The hot path is
//! the zero-materialization streaming kernel
//! ([`OpticalScSystem::evaluate_fused`]). The
//! `bench_kernels` binary appends each report as one labelled run record
//! to `BENCH_kernels.json`, so the file carries the PR-over-PR perf
//! trajectory instead of a single snapshot (see [`append_run`]).

use crate::microbench::Harness;
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{locate_worker, Executor};
use osc_core::batch::BatchEvaluator;
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalScSystem};
use osc_math::rng::{SplitMix64, Xoshiro256PlusPlus};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::resc::ReScUnit;
use osc_stochastic::simd;
use osc_stochastic::sng::{
    ChaoticLaserSng, CounterSng, SngWordCursor, StochasticNumberGenerator, XoshiroSng,
};
use osc_units::Nanometers;
use std::time::Duration;

/// One before/after pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelComparison {
    /// Workload name.
    pub name: String,
    /// Seed per-bit path, median ns per iteration.
    pub baseline_ns: f64,
    /// Word-parallel path, median ns per iteration.
    pub optimized_ns: f64,
}

impl KernelComparison {
    /// Baseline over optimized.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns
    }
}

/// EXP-K report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelsReport {
    /// All measured pairs.
    pub comparisons: Vec<KernelComparison>,
}

fn compare(
    harness: &mut Harness,
    name: &str,
    baseline: impl FnMut() -> f64,
    optimized: impl FnMut() -> f64,
) -> KernelComparison {
    let mut baseline = baseline;
    let mut optimized = optimized;
    let b = harness
        .bench_function(&format!("{name}/per_bit_baseline"), |ben| {
            ben.iter(&mut baseline)
        })
        .expect("unfiltered harness");
    let o = harness
        .bench_function(&format!("{name}/word_parallel"), |ben| {
            ben.iter(&mut optimized)
        })
        .expect("unfiltered harness");
    KernelComparison {
        name: name.to_string(),
        baseline_ns: b.median_ns,
        optimized_ns: o.median_ns,
    }
}

/// Runs every kernel comparison with the given per-measurement budget.
///
/// # Panics
///
/// Panics if the shipped circuit configurations fail to build (library
/// invariant).
pub fn run(budget_ms: u64) -> KernelsReport {
    let mut harness = Harness::with_budget("kernels", Duration::from_millis(budget_ms));
    let mut comparisons = Vec::new();

    // SNG stream generation, 16384 bits.
    let mut sng_b = XoshiroSng::new(7);
    let mut sng_o = XoshiroSng::new(7);
    comparisons.push(compare(
        &mut harness,
        "sng_xoshiro_16384",
        move || sng_b.generate_bitwise(0.37, 16_384).unwrap().value(),
        move || sng_o.generate(0.37, 16_384).unwrap().value(),
    ));

    // Electronic ReSC datapath (adder + mux), degree 3, 16384 bits.
    let unit = ReScUnit::new(BernsteinPoly::paper_f1());
    let mut gen = XoshiroSng::new(5);
    let (data, coeffs) = unit.generate_streams(0.5, 16_384, &mut gen).unwrap();
    let unit_b = unit.clone();
    let (data_b, coeffs_b) = (data.clone(), coeffs.clone());
    comparisons.push(compare(
        &mut harness,
        "resc_mux_16384",
        move || {
            unit_b
                .run_streams_bitwise(&data_b, &coeffs_b)
                .unwrap()
                .value()
        },
        move || unit.run_streams(&data, &coeffs).unwrap().value(),
    ));

    // The acceptance workload: order-2 Fig. 5 circuit, 16384-bit streams.
    // Optimized side = the fused streaming kernel (the hot default since
    // the fusion PR); baseline = the frozen per-bit seed implementation.
    let system = OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .expect("fig5 circuit builds");
    let system_b = system.clone();
    let mut sng_b = XoshiroSng::new(11);
    let mut rng_b = Xoshiro256PlusPlus::new(12);
    let mut sng_o = XoshiroSng::new(11);
    let mut rng_o = Xoshiro256PlusPlus::new(12);
    let mut scratch_o = EvalScratch::new();
    comparisons.push(compare(
        &mut harness,
        "optical_evaluate_order2_16384",
        move || {
            system_b
                .evaluate_reference(0.5, 16_384, &mut sng_b, &mut rng_b)
                .unwrap()
                .estimate
        },
        move || {
            system
                .evaluate_fused(0.5, 16_384, &mut sng_o, &mut rng_o, &mut scratch_o)
                .unwrap()
                .estimate
        },
    ));

    // The same acceptance workload on the nanocavity backend: its
    // per-backend trajectory record, and the proof the kernel tiers
    // are backend-generic (reference vs. fused on non-default physics).
    let nano_system = OpticalScSystem::new(
        CircuitParams::paper_fig5().with_backend(BackendKind::Nanocavity),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .expect("nanocavity fig5 circuit builds");
    let nano_system_b = nano_system.clone();
    let mut nano_sng_b = XoshiroSng::new(11);
    let mut nano_rng_b = Xoshiro256PlusPlus::new(12);
    let mut nano_sng_o = XoshiroSng::new(11);
    let mut nano_rng_o = Xoshiro256PlusPlus::new(12);
    let mut nano_scratch = EvalScratch::new();
    comparisons.push(compare(
        &mut harness,
        "nanocavity_evaluate_order2_16384",
        move || {
            nano_system_b
                .evaluate_reference(0.5, 16_384, &mut nano_sng_b, &mut nano_rng_b)
                .unwrap()
                .estimate
        },
        move || {
            nano_system
                .evaluate_fused(
                    0.5,
                    16_384,
                    &mut nano_sng_o,
                    &mut nano_rng_o,
                    &mut nano_scratch,
                )
                .unwrap()
                .estimate
        },
    ));

    // Lane-blocked SNG generation: 8 comparator chains drawn in
    // lock-step (vectorized where the CPU allows) against 8 sequential
    // drains of the same streams. The per-call round counter varies the
    // seeds so the optimizer cannot hoist the pure computation out of
    // the timing loop.
    let mut round_b = 0u64;
    let mut round_o = 0u64;
    comparisons.push(compare(
        &mut harness,
        "sng_lanes8_xoshiro_16384",
        move || {
            round_b += 1;
            let mut acc = 0u64;
            for l in 0..8u64 {
                let mut sng = XoshiroSng::new(500 + 8 * round_b + l);
                sng.begin(0.37, 16_384).unwrap().drain(|w, _| acc ^= w);
            }
            acc as f64
        },
        move || {
            round_o += 1;
            let mut lanes: [XoshiroSng; 8] =
                std::array::from_fn(|l| XoshiroSng::new(500 + 8 * round_o + l as u64));
            let mut acc = 0u64;
            XoshiroSng::drain_lanes(&mut lanes, &[0.37; 8], 16_384, |block, _| {
                for &w in block {
                    acc ^= w;
                }
            })
            .unwrap();
            acc as f64
        },
    ));

    // The same 8-lane shape on the SplitMix64-driven chaotic-laser
    // source: 8 sequential drains against one lane-blocked pass, which
    // dispatches to the vectorized SplitMix64 engine (AVX-512
    // `vpmullq` / AVX2 split-multiply) on vector tiers and to the
    // burst-packed portable walk under forced-scalar dispatch.
    let mut smx_round_b = 0u64;
    let mut smx_round_o = 0u64;
    comparisons.push(compare(
        &mut harness,
        "sng_lanes8_splitmix_16384",
        move || {
            smx_round_b += 1;
            let mut acc = 0u64;
            for l in 0..8u64 {
                let mut sng = ChaoticLaserSng::seeded(900 + 8 * smx_round_b + l);
                sng.begin(0.37, 16_384).unwrap().drain(|w, _| acc ^= w);
            }
            acc as f64
        },
        move || {
            smx_round_o += 1;
            let mut lanes: [ChaoticLaserSng; 8] =
                std::array::from_fn(|l| ChaoticLaserSng::seeded(900 + 8 * smx_round_o + l as u64));
            let mut acc = 0u64;
            ChaoticLaserSng::drain_lanes(&mut lanes, &[0.37; 8], 16_384, |block, _| {
                for &w in block {
                    acc ^= w;
                }
            })
            .unwrap();
            acc as f64
        },
    ));

    // And on the counter/van-der-Corput source: fresh generators every
    // call, so all 8 lanes sit on Halton base 2 — the shape the
    // bit-reversal vector engine covers. Distinct per-lane
    // probabilities exercise the threshold comparison rather than a
    // degenerate all-equal compare, and a tiny per-round perturbation
    // keeps the optimizer from hoisting the pure computation out of
    // the timing loop.
    let mut ctr_round_b = 0u64;
    let mut ctr_round_o = 0u64;
    comparisons.push(compare(
        &mut harness,
        "sng_lanes8_counter_16384",
        move || {
            ctr_round_b += 1;
            let jitter = (ctr_round_b % 13) as f64 * 1e-6;
            let mut acc = 0u64;
            for l in 0..8usize {
                let mut sng = CounterSng::new();
                let p = 0.07 + 0.12 * l as f64 + jitter;
                sng.begin(p, 16_384).unwrap().drain(|w, _| acc ^= w);
            }
            acc as f64
        },
        move || {
            ctr_round_o += 1;
            let jitter = (ctr_round_o % 13) as f64 * 1e-6;
            let mut lanes: [CounterSng; 8] = std::array::from_fn(|_| CounterSng::new());
            let ps: [f64; 8] = std::array::from_fn(|l| 0.07 + 0.12 * l as f64 + jitter);
            let mut acc = 0u64;
            CounterSng::drain_lanes(&mut lanes, &ps, 16_384, |block, _| {
                for &w in block {
                    acc ^= w;
                }
            })
            .unwrap();
            acc as f64
        },
    ));

    // The lane-bank acceptance workload: an 8-lane order-2 Fig. 5 bank
    // over 16384 total bits (2048 per lane). Baseline = the per-lane
    // fused path (8 standalone evaluate_fused calls); optimized = one
    // lane-blocked evaluate_fused_lanes::<8> pass. Both sides construct
    // their per-lane generators from the same seeds, and the results are
    // bit-identical — only the walk differs.
    let lane_system = OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .expect("fig5 circuit builds");
    let lane_system_b = lane_system.clone();
    let mut lane_scratch_b = EvalScratch::new();
    let mut lane_scratch_o = EvalScratch::new();
    let mut lane_round_b = 0u64;
    let mut lane_round_o = 0u64;
    comparisons.push(compare(
        &mut harness,
        "parallel_lanes_order2_16384",
        move || {
            lane_round_b += 1;
            let mut acc = 0.0;
            for l in 0..8u64 {
                let mut sng = XoshiroSng::new(700 + 8 * lane_round_b + l);
                let mut rng = Xoshiro256PlusPlus::new(800 + 8 * lane_round_b + l);
                acc += lane_system_b
                    .evaluate_fused(0.5, 2048, &mut sng, &mut rng, &mut lane_scratch_b)
                    .unwrap()
                    .estimate;
            }
            acc
        },
        move || {
            lane_round_o += 1;
            let mut sngs: [XoshiroSng; 8] =
                std::array::from_fn(|l| XoshiroSng::new(700 + 8 * lane_round_o + l as u64));
            let mut rngs: [Xoshiro256PlusPlus; 8] =
                std::array::from_fn(|l| Xoshiro256PlusPlus::new(800 + 8 * lane_round_o + l as u64));
            lane_system
                .evaluate_fused_lanes(&[0.5; 8], 2048, &mut sngs, &mut rngs, &mut lane_scratch_o)
                .unwrap()
                .iter()
                .map(|r| r.estimate)
                .sum()
        },
    ));

    // The acceptance workload: 64×64-pixel gamma correction on the
    // 6th-order optical circuit — the frozen per-bit loop (baseline)
    // against `apply_optical` through `Executor::InProcess`, the one
    // served image pipeline (optimized).
    let poly = osc_apps::gamma_app::paper_gamma_polynomial().expect("gamma fit");
    let image = osc_apps::image::Image::blobs(64, 64);
    let stream = 512usize;
    let params = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
    let gamma_system =
        OpticalScSystem::new(params, poly.clone()).expect("6th-order circuit builds");
    let image_b = image.clone();
    let mut sng_b = XoshiroSng::new(13);
    let mut rng_b = Xoshiro256PlusPlus::new(14);
    let backend = osc_apps::backend::OpticalBackend::new(params, poly, stream, 13)
        .expect("6th-order circuit builds");
    let evaluator = BatchEvaluator::new();
    comparisons.push(compare(
        &mut harness,
        "gamma_64x64_order6",
        move || {
            // Seed path: sequential per-pixel loop over the frozen
            // per-bit implementation.
            let mut acc = 0.0;
            for &p in image_b.pixels() {
                acc += gamma_system
                    .evaluate_reference(p, stream, &mut sng_b, &mut rng_b)
                    .unwrap()
                    .estimate;
            }
            acc
        },
        move || {
            // Current pipeline: the served image path — rows fanned
            // across the batch evaluator's workers, each row's pixels
            // through the lane-blocked fused kernel.
            let mut executor = Executor::InProcess(&evaluator);
            osc_apps::gamma_app::apply_optical(&image, &backend, &mut executor, None)
                .unwrap()
                .pixels()
                .iter()
                .sum()
        },
    ));

    // The scale-out acceptance workload: the same 64×64 order-6 gamma
    // image, single-process row+lane pipeline pinned to one thread
    // (baseline) against three shard_worker subprocesses (optimized) —
    // what process sharding buys over one core, spawn cost included.
    // The outputs are byte-identical; only the walk differs. The stream
    // length is 2048 (vs 512 for the in-process gamma records) so the
    // video-scale compute dominates the fixed per-worker cost (spawn +
    // circuit rebuild, ~2 ms/worker); on a single-core host the ratio
    // tops out just below 1.0 by construction — the record documents
    // the sharding overhead there and the scale-out gain on multi-core
    // runners. Skipped (with a log line) when the worker binary has not
    // been built — first-run workloads are never gated, so the record
    // simply appears once the binary exists.
    if let Some(worker) = shard_worker_path() {
        let stream_s = 2048usize;
        let image_s = osc_apps::image::Image::blobs(64, 64);
        let image_s2 = image_s.clone();
        let poly_s = osc_apps::gamma_app::paper_gamma_polynomial().expect("gamma fit");
        let backend_s =
            osc_apps::backend::OpticalBackend::new(params, poly_s.clone(), stream_s, 13)
                .expect("6th-order circuit builds");
        let backend_s2 = osc_apps::backend::OpticalBackend::new(params, poly_s, stream_s, 13)
            .expect("6th-order circuit builds");
        let one_thread = BatchEvaluator::with_threads(1);
        let spawn_config = PoolConfig::new(&worker, 3);
        comparisons.push(compare(
            &mut harness,
            "gamma_64x64_order6_sharded",
            move || {
                let mut executor = Executor::InProcess(&one_thread);
                osc_apps::gamma_app::apply_optical(&image_s, &backend_s, &mut executor, None)
                    .unwrap()
                    .pixels()
                    .iter()
                    .sum()
            },
            move || {
                let mut executor = Executor::Spawn(&spawn_config);
                osc_apps::gamma_app::apply_optical(&image_s2, &backend_s2, &mut executor, None)
                    .unwrap()
                    .pixels()
                    .iter()
                    .sum()
            },
        ));

        // Pool amortization on the image workload: the same 64×64
        // order-6 gamma image (stream 512), a fresh 3-worker spawn-tier
        // pool per request (baseline — what gamma_64x64_order6_sharded
        // pays every call) against a persistent 3-worker pool whose
        // processes and cached circuit survive across requests
        // (optimized). Both sides produce byte-identical images; the
        // ratio is pure spawn + circuit-rebuild amortization, so it
        // holds on a single-core container too.
        let image_q = osc_apps::image::Image::blobs(64, 64);
        let image_q2 = image_q.clone();
        let poly_q = osc_apps::gamma_app::paper_gamma_polynomial().expect("gamma fit");
        let backend_q = osc_apps::backend::OpticalBackend::new(params, poly_q.clone(), stream, 13)
            .expect("6th-order circuit builds");
        let backend_q2 = osc_apps::backend::OpticalBackend::new(params, poly_q, stream, 13)
            .expect("6th-order circuit builds");
        let spawn_config_q = PoolConfig::new(&worker, 3);
        let mut warm_pool = PoolConfig::new(&worker, 3).spawn().expect("pool spawns");
        comparisons.push(compare(
            &mut harness,
            "gamma_64x64_order6_pooled",
            move || {
                let mut executor = Executor::Spawn(&spawn_config_q);
                osc_apps::gamma_app::apply_optical(&image_q, &backend_q, &mut executor, None)
                    .unwrap()
                    .pixels()
                    .iter()
                    .sum()
            },
            move || {
                let mut executor = Executor::Pool(&mut warm_pool);
                osc_apps::gamma_app::apply_optical(&image_q2, &backend_q2, &mut executor, None)
                    .unwrap()
                    .pixels()
                    .iter()
                    .sum()
            },
        ));

        // The serving acceptance workload: the shared soak schedule —
        // 16 tiny (4×4) alternating gamma/contrast requests at 1024-bit
        // streams — per-request spawning through `Executor::Spawn`
        // (baseline) against a persistent 3-worker pool with warm
        // circuit caches (optimized). This is the many-small-requests
        // regime the ROADMAP's service story lives in: the baseline pays
        // 3 spawns + a circuit build per request, the pool pays neither
        // after the first two requests.
        let soak_cfg = crate::soak::SoakConfig {
            requests: 16,
            width: 4,
            height: 4,
            stream: 1024,
            ..Default::default()
        };
        let soak_spawn = PoolConfig::new(&worker, 3);
        let mut soak_pool = PoolConfig::new(&worker, 3).spawn().expect("pool spawns");
        comparisons.push(compare(
            &mut harness,
            "pool_small_requests_1024",
            move || {
                crate::soak::run(&soak_cfg, Executor::Spawn(&soak_spawn))
                    .unwrap()
                    .bytes
                    .len() as f64
            },
            move || {
                crate::soak::run(&soak_cfg, Executor::Pool(&mut soak_pool))
                    .unwrap()
                    .bytes
                    .len() as f64
            },
        ));

        // The service-soak trajectory workload: the same small-request
        // schedule, per-request spawning (baseline) against
        // the persistent TCP front door driven by the 3-connection
        // closed-loop load generator (optimized). On top of the pool's
        // amortization the optimized side pays wire framing and
        // connection scheduling and *still* wins — that margin is the
        // serving overhead budget the trajectory pins PR-over-PR.
        let svc_cfg = soak_cfg;
        let svc_spawn = PoolConfig::new(&worker, 3);
        let svc_dispatcher = PoolConfig::new(&worker, 3)
            .spawn_dispatcher()
            .expect("dispatcher spawns");
        let service =
            osc_core::batch::shard::service::Service::bind(("127.0.0.1", 0), svc_dispatcher)
                .expect("service binds an ephemeral port");
        let svc_load = crate::soak::LoadConfig::default();
        comparisons.push(compare(
            &mut harness,
            "service_soak",
            move || {
                crate::soak::run(&svc_cfg, Executor::Spawn(&svc_spawn))
                    .unwrap()
                    .bytes
                    .len() as f64
            },
            move || {
                crate::soak::run_service(&svc_cfg, service.local_addr(), &svc_load)
                    .unwrap()
                    .bytes
                    .len() as f64
            },
        ));

        // The design-sweep trajectory workload: 1024 **distinct**
        // circuits (orders 1–2 × both backends × a 16×16 IL/ER grid,
        // every candidate its own parameter set) — the many-distinct-
        // circuits stress profile the soak schedule's two-circuit
        // repeat cannot produce. Baseline: spawn-per-request, a fresh
        // single-shard spawn-tier call per candidate (1024 process
        // spawns + circuit builds per pass). Optimized: one persistent
        // 3-worker pool whose circuit cache is sized to the whole
        // working set, all candidates streaming through one pipelined
        // run_requests call — the first pass ships each circuit inline
        // once, later passes hit the warm digest cache. Both sides
        // produce bit-identical frontiers; the ratio is the warm-cache
        // amortization the digest-keyed CircuitCache was built for.
        let grid_sweep = std::sync::Arc::new(crate::sweep::DesignSweep::new(
            crate::sweep::order_grid_axes(),
        ));
        let grid_sweep2 = grid_sweep.clone();
        let sweep_spawn = PoolConfig::new(&worker, 1);
        let mut sweep_pool = PoolConfig::new(&worker, 3)
            .with_circuit_cache_capacity(grid_sweep.designs().len())
            .spawn()
            .expect("pool spawns");
        comparisons.push(compare(
            &mut harness,
            "design_sweep_order_grid",
            move || {
                grid_sweep
                    .evaluate(Executor::Spawn(&sweep_spawn))
                    .unwrap()
                    .iter()
                    .map(|p| p.mean_abs_error)
                    .sum()
            },
            move || {
                grid_sweep2
                    .evaluate(Executor::Pool(&mut sweep_pool))
                    .unwrap()
                    .iter()
                    .map(|p| p.mean_abs_error)
                    .sum()
            },
        ));
    } else {
        eprintln!(
            "[kernels] shard_worker binary not found — skipping gamma_64x64_order6_sharded, \
             gamma_64x64_order6_pooled, pool_small_requests_1024, service_soak and \
             design_sweep_order_grid \
             (build it with `cargo build -p osc-bench --bin shard_worker`)"
        );
    }

    // Fault-injection overhead pinned: the order-6 gamma kernel at a
    // 0.01 bit-flip rate (baseline) against the clean kernel
    // (optimized), single pixel, 16384-bit streams. The ratio is the
    // *overhead factor* of the fault machinery (geometric gap sampling
    // + strided XOR splices on the word path), not a speedup — CI gates
    // it from above (≤ 1.20 at rate 0.01), so a change that makes fault
    // injection O(bits) instead of O(events) shows up as a gate
    // failure, and the regression floor below is trivially satisfied.
    let fault_system = OpticalScSystem::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
        osc_apps::gamma_app::paper_gamma_polynomial().expect("gamma fit"),
    )
    .expect("6th-order circuit builds");
    let fault_system_c = fault_system.clone();
    let block_system = fault_system.clone();
    let block_system_c = fault_system.clone();
    let shift_system = fault_system.clone();
    let shift_system_c = fault_system.clone();
    let fault_spec = osc_core::fault::FaultSpec::flips(0.01, 0xFA07);
    let mut sng_fb = XoshiroSng::new(21);
    let mut rng_fb = Xoshiro256PlusPlus::new(22);
    let mut sng_fc = XoshiroSng::new(21);
    let mut rng_fc = Xoshiro256PlusPlus::new(22);
    let mut scratch_fb = EvalScratch::new();
    let mut scratch_fc = EvalScratch::new();
    comparisons.push(compare(
        &mut harness,
        "fault_rate_sweep_order6",
        move || {
            fault_system
                .evaluate_fused_faulted(
                    0.5,
                    16_384,
                    &mut sng_fb,
                    &mut rng_fb,
                    Some(&fault_spec),
                    &mut scratch_fb,
                )
                .unwrap()
                .estimate
        },
        move || {
            fault_system_c
                .evaluate_fused(0.5, 16_384, &mut sng_fc, &mut rng_fc, &mut scratch_fc)
                .unwrap()
                .estimate
        },
    ));

    // The fault hook on the image workload's block shape: one 8-lane
    // order-6 gamma block at 2048 bits per lane under the faulted image
    // frames' process (flips 0.01, shifts 0.001, a spec rebased per lane)
    // as the baseline, against the same block clean as the optimized
    // side. Like the record above the ratio is an overhead factor, so
    // it is recorded but never gated (see OVERHEAD_FACTOR_WORKLOADS).
    let block_spec = osc_core::fault::FaultSpec {
        flip_probability: 0.01,
        shift_probability: 0.001,
        ..osc_core::fault::FaultSpec::with_seed(0xFA08)
    };
    let block_specs: [osc_core::fault::FaultSpec; 8] =
        std::array::from_fn(|l| block_spec.rebased(l as u64));
    let block_xs: [f64; 8] = std::array::from_fn(|l| (l + 1) as f64 / 9.0);
    let mut block_scratch_b = EvalScratch::new();
    let mut block_scratch_o = EvalScratch::new();
    let (mut block_round_b, mut block_round_o) = (0u64, 0u64);
    let lane_block = move |system: &OpticalScSystem,
                           round: u64,
                           faults: Option<&[osc_core::fault::FaultSpec; 8]>,
                           scratch: &mut EvalScratch| {
        let mut sngs: [XoshiroSng; 8] =
            std::array::from_fn(|l| XoshiroSng::new(900 + 8 * round + l as u64));
        let mut rngs: [Xoshiro256PlusPlus; 8] =
            std::array::from_fn(|l| Xoshiro256PlusPlus::new(1000 + 8 * round + l as u64));
        system
            .evaluate_fused_lanes_faulted(&block_xs, 2048, &mut sngs, &mut rngs, faults, scratch)
            .unwrap()
            .iter()
            .map(|r| r.estimate)
            .sum::<f64>()
    };
    comparisons.push(compare(
        &mut harness,
        "fault_lanes8_order6_2048",
        move || {
            block_round_b += 1;
            lane_block(
                &block_system,
                block_round_b,
                Some(&block_specs),
                &mut block_scratch_b,
            )
        },
        move || {
            block_round_o += 1;
            lane_block(&block_system_c, block_round_o, None, &mut block_scratch_o)
        },
    ));

    // The shift process alone on the same block (shifts 0.001, no flips):
    // the lane-parallel event draws and the 8-lane zero splice, without
    // the flip pass riding along. Also an overhead factor.
    let shift_spec = osc_core::fault::FaultSpec {
        shift_probability: 0.001,
        ..osc_core::fault::FaultSpec::with_seed(0xFA09)
    };
    let shift_specs: [osc_core::fault::FaultSpec; 8] =
        std::array::from_fn(|l| shift_spec.rebased(l as u64));
    let mut shift_scratch_b = EvalScratch::new();
    let mut shift_scratch_o = EvalScratch::new();
    let (mut shift_round_b, mut shift_round_o) = (0u64, 0u64);
    comparisons.push(compare(
        &mut harness,
        "fault_shift_lanes8_order6_2048",
        move || {
            shift_round_b += 1;
            lane_block(
                &shift_system,
                shift_round_b,
                Some(&shift_specs),
                &mut shift_scratch_b,
            )
        },
        move || {
            shift_round_o += 1;
            lane_block(&shift_system_c, shift_round_o, None, &mut shift_scratch_o)
        },
    ));

    // The count-plane fold isolated: the per-word reduction the 8-lane
    // order-6 kernel performs — lane-interleaved selector popcounts plus
    // 16-bit table-index assembly from the 10 source rows an order-6
    // circuit folds (7 coefficient words + 3 count planes) — on
    // synthetic buffers shaped like one 2048-bit 8-lane pass (256
    // words). Baseline = forced-scalar popcount + the portable
    // bit-transpose; optimized = the runtime-dispatched AVX-512 fold
    // (`vpopcntq` accumulation + `vpmovm2w` index assembly, falling
    // back to the same portable code below that tier, where the record
    // documents parity).
    let nrows = 10usize;
    let wl = 256usize;
    let mut fill = SplitMix64::new(123);
    let rows: Vec<u64> = (0..nrows * wl).map(|_| fill.next_u64()).collect();
    let sel: Vec<u64> = (0..wl).map(|_| fill.next_u64()).collect();
    let rows_b = rows.clone();
    let sel_b = sel.clone();
    comparisons.push(compare(
        &mut harness,
        "fold_avx512_order6",
        move || {
            let mut acc8 = [0u64; 8];
            simd::popcount_lanes_accumulate_with(simd::SimdTier::Scalar, &sel_b, &mut acc8);
            let mut fold = acc8.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            let mut src = [0u64; 10];
            let mut idxs = [0u16; 64];
            for w in 0..wl {
                for (j, s) in src.iter_mut().enumerate() {
                    *s = rows_b[j * wl + w];
                }
                simd::assemble_indices16_scalar(&src, &mut idxs);
                for &idx in &idxs {
                    fold = fold.wrapping_add(idx as u64);
                }
            }
            fold as f64
        },
        move || {
            let mut acc8 = [0u64; 8];
            simd::popcount_lanes_accumulate(&sel, &mut acc8);
            let mut fold = acc8.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            let mut src = [0u64; 10];
            let mut idxs = [0u16; 64];
            for w in 0..wl {
                for (j, s) in src.iter_mut().enumerate() {
                    *s = rows[j * wl + w];
                }
                if !simd::assemble_indices16(&src, &mut idxs) {
                    simd::assemble_indices16_scalar(&src, &mut idxs);
                }
                for &idx in &idxs {
                    fold = fold.wrapping_add(idx as u64);
                }
            }
            fold as f64
        },
    ));

    harness.finish();
    KernelsReport { comparisons }
}

/// Workloads whose optimized side pays a fixed per-call process-spawn
/// cost by design: scale-out records that document what sharding costs
/// on one core and buys on many, not hot-path kernels. On a single-core
/// host their ratio sits below 1.0 by construction, so their run
/// records carry an `"amortized": false` field and [`check_report`]
/// routes their shortfalls to [`CheckOutcome::advisory`] instead of
/// failing the gate. (The pooled records amortize the spawn and are
/// gated normally.)
pub const SPAWN_OVERHEAD_WORKLOADS: &[&str] = &["gamma_64x64_order6_sharded"];

/// Whether `name`'s optimized side pays an unamortized per-call spawn
/// cost (see [`SPAWN_OVERHEAD_WORKLOADS`]).
pub fn is_spawn_overhead(name: &str) -> bool {
    SPAWN_OVERHEAD_WORKLOADS.contains(&name)
}

/// Workloads whose "speedup" is an overhead factor (faulted ns / clean
/// ns), so a *lower* ratio is the improvement: recorded into the
/// trajectory, but shortfalls land in [`CheckOutcome::advisory`] and
/// never fail the gate.
pub const OVERHEAD_FACTOR_WORKLOADS: &[&str] =
    &["fault_lanes8_order6_2048", "fault_shift_lanes8_order6_2048"];

/// Workloads the trajectory still records but this runner no longer
/// measures, because their code path was deleted: the `*_fused` rows
/// timed the fused kernel beside a materializing one, and the fused
/// kernel is now the only stream walk, timed by
/// `optical_evaluate_order2_16384` and `gamma_64x64_order6`.
/// [`check_report`] lists them in [`CheckOutcome::retired`], never in
/// [`CheckOutcome::skipped`]; neither list is gated.
pub const RETIRED_WORKLOADS: &[&str] = &[
    "optical_evaluate_order2_16384_fused",
    "gamma_64x64_order6_fused",
];

/// Locates the `shard_worker` binary the sharded workload spawns — the
/// `OSC_SHARD_WORKER` env override, or a sibling of the running
/// executable (covering `target/<profile>/` binaries and
/// `target/<profile>/deps/` test runners).
pub fn shard_worker_path() -> Option<std::path::PathBuf> {
    locate_worker("shard_worker")
}

/// Prints EXP-K.
pub fn print(report: &KernelsReport) {
    println!("EXP-K  word-parallel kernel speedups (per-bit seed path vs packed-u64 path)");
    let rows: Vec<Vec<String>> = report
        .comparisons
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.0}", c.baseline_ns),
                format!("{:.0}", c.optimized_ns),
                format!("{:.2}x", c.speedup()),
            ]
        })
        .collect();
    crate::print_table(&["kernel", "per-bit ns", "word ns", "speedup"], &rows);
}

/// Maps a run label to a form every consumer of `BENCH_kernels.json`
/// can round-trip. The renderer splices labels into hand-built JSON and
/// the trajectory parser splits records by brace depth, so a label
/// containing `{`, `}`, `"` or `\` would corrupt the file for every
/// later append; those characters are substituted with visually close
/// safe ones (`(`, `)`, `'`, `/`), and control characters with `_`.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            '{' => '(',
            '}' => ')',
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => '_',
            c => c,
        })
        .collect()
}

/// Renders one labelled run record. The per-run schema is the original
/// single-run `BENCH_kernels.json` shape (a `benchmarks` array of
/// name / baseline_ns / optimized_ns / speedup entries) plus a `label`
/// identifying the PR or invocation that produced it and the SIMD
/// `tier` the measurements ran under (kernel speedups are
/// tier-relative, so the regression gate only compares like against
/// like — see [`reference_run_speedups`]). Label and tier are passed
/// through [`sanitize_label`], so a hostile one cannot corrupt the
/// trajectory file.
pub fn render_run(report: &KernelsReport, label: &str, tier: &str) -> String {
    let label = sanitize_label(label);
    let tier = sanitize_label(tier);
    let mut out =
        format!("    {{\"label\": \"{label}\", \"tier\": \"{tier}\", \"benchmarks\": [\n");
    for (i, c) in report.comparisons.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"baseline_ns\": {:.3}, \"optimized_ns\": {:.3}, \"speedup\": {:.3}{}}}{}\n",
            c.name,
            c.baseline_ns,
            c.optimized_ns,
            c.speedup(),
            // Spawn-overhead workloads are flagged in the record itself,
            // so a reader of the raw trajectory sees the sub-1.0 ratios
            // are documented overhead, not regressions. The speedup
            // parser stops at the comma, so the field is transparent to
            // every existing consumer.
            if is_spawn_overhead(&c.name) {
                ", \"amortized\": false"
            } else {
                ""
            },
            if i + 1 < report.comparisons.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]}");
    out
}

/// Splits the top-level objects of the `runs` array out of a trajectory
/// file (or the whole object of a pre-trajectory single-run file).
/// Returns `None` when the text holds neither schema.
fn extract_run_records(text: &str) -> Option<Vec<String>> {
    let body = if let Some(pos) = text.find("\"runs\"") {
        let open = pos + text[pos..].find('[')?;
        let mut depth = 0usize;
        let mut end = None;
        for (i, ch) in text[open..].char_indices() {
            match ch {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        &text[open + 1..end?]
    } else if text.contains("\"benchmarks\"") {
        // Pre-trajectory schema: the whole file is one unlabelled run.
        // Splice a label in so every record carries one.
        let rest = text.trim().strip_prefix('{')?;
        return Some(vec![format!("    {{\"label\": \"pr1\",{rest}")
            .trim_end()
            .to_string()]);
    } else {
        return None;
    };
    // Split the array body into top-level `{...}` records by brace depth
    // (names and labels never contain braces).
    let mut records = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, ch) in body.char_indices() {
        match ch {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    records.push(format!("    {}", body[start?..=i].trim()));
                }
            }
            _ => {}
        }
    }
    Some(records)
}

/// Appends a rendered run record to the trajectory file contents,
/// migrating a pre-trajectory single-run file into the first record.
/// `existing = None` (or unrecognized contents) starts a fresh
/// trajectory.
pub fn append_run(existing: Option<&str>, run_record: &str) -> String {
    let mut records = existing.and_then(extract_run_records).unwrap_or_default();
    records.push(run_record.trim_end().to_string());
    let mut out = String::from("{\n  \"runs\": [\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The `"tier"` a run record declares, if any (records from before the
/// tier-aware gate carry none).
fn record_tier(record: &str) -> Option<&str> {
    let start = record.find("\"tier\": \"")? + "\"tier\": \"".len();
    let len = record[start..].find('"')?;
    Some(&record[start..start + len])
}

/// The `(name, speedup)` pairs the regression gate compares a fresh
/// run against, given the SIMD tier it was measured under. Kernel
/// speedups are tier-relative (a vectorized workload's ratio collapses
/// under forced-scalar dispatch by design, not by regression), so only
/// records **tagged with the same tier** are consulted; when none
/// exist the most recent *untagged* (pre-tier-schema) record is used,
/// preserving the old behavior for old files; otherwise nothing is
/// gated (first run on a new tier — recorded, not judged).
///
/// The workload set and its order come from the most recent same-tier
/// record, but each workload's reference speedup is the **lower median
/// across the last (up to) three same-tier records**. A single record
/// is not a robust floor for workloads whose baseline is dominated by
/// process-spawn cost (`pool_small_requests_1024`, `service_soak`,
/// `design_sweep_order_grid` all divide by a spawn-per-request
/// baseline): one run recorded on a slow-spawn day inflates the ratio
/// and would ratchet the floor above what the workload ever measures
/// again. The median damps any single outlier record — high or low —
/// while a real regression still trips the gate, since one bad fresh
/// measurement can never drag the committed median down with it.
pub fn reference_run_speedups(text: &str, tier: &str) -> Vec<(String, f64)> {
    let Some(records) = extract_run_records(text) else {
        return Vec::new();
    };
    let window: Vec<Vec<(String, f64)>> = {
        let same_tier: Vec<_> = records
            .iter()
            .rev()
            .filter(|r| record_tier(r) == Some(tier))
            .take(3)
            .map(|r| record_speedups(r))
            .collect();
        if same_tier.is_empty() {
            records
                .iter()
                .rev()
                .find(|r| record_tier(r).is_none())
                .map(|r| vec![record_speedups(r)])
                .unwrap_or_default()
        } else {
            same_tier
        }
    };
    let Some(latest) = window.first() else {
        return Vec::new();
    };
    latest
        .iter()
        .map(|(name, _)| {
            let mut samples: Vec<f64> = window
                .iter()
                .filter_map(|rec| rec.iter().find(|(n, _)| n == name).map(|&(_, s)| s))
                .collect();
            samples.sort_by(f64::total_cmp);
            (name.clone(), samples[(samples.len() - 1) / 2])
        })
        .collect()
}

/// The `(name, speedup)` pairs of the trajectory's most recent run (or
/// of a pre-trajectory single-run file), regardless of tier.
pub fn last_run_speedups(text: &str) -> Vec<(String, f64)> {
    let Some(records) = extract_run_records(text) else {
        return Vec::new();
    };
    match records.last() {
        Some(last) => record_speedups(last),
        None => Vec::new(),
    }
}

/// Parses the `(name, speedup)` pairs out of one run record.
fn record_speedups(record: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest: &str = record;
    while let Some(pos) = rest.find("\"name\": \"") {
        let name_start = pos + "\"name\": \"".len();
        let Some(name_len) = rest[name_start..].find('"') else {
            break;
        };
        let name = rest[name_start..name_start + name_len].to_string();
        let after = &rest[name_start + name_len..];
        if let Some(spos) = after.find("\"speedup\": ") {
            let val = after[spos + "\"speedup\": ".len()..]
                .split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse::<f64>().ok());
            if let Some(v) = val {
                out.push((name, v));
            }
        }
        rest = &rest[name_start + name_len..];
    }
    out
}

/// One workload that fell below the regression floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload name.
    pub name: String,
    /// Fresh measurement.
    pub measured: f64,
    /// Reference speedup from the committed trajectory (the lower
    /// median of the last same-tier records — see
    /// [`reference_run_speedups`]).
    pub recorded: f64,
    /// `recorded × threshold` — the floor the measurement missed.
    pub floor: f64,
}

impl Regression {
    /// How far below the recorded speedup the measurement landed, in
    /// percent (e.g. `38.0` = "down 38%").
    pub fn shortfall_percent(&self) -> f64 {
        (1.0 - self.measured / self.recorded) * 100.0
    }
}

/// Result of gating a fresh report against a committed trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckOutcome {
    /// Workloads measured below `threshold ×` their recorded speedup —
    /// CI fails if this is non-empty.
    pub regressions: Vec<Regression>,
    /// Spawn-overhead workloads (see [`SPAWN_OVERHEAD_WORKLOADS`])
    /// measured below the floor: reported distinctly, never fail the
    /// gate — their ratio is documented scale-out overhead whose
    /// single-core value swings with host load, not a kernel
    /// regression.
    pub advisory: Vec<Regression>,
    /// Workloads passing the gate, as `(name, measured, recorded)`.
    pub passed: Vec<(String, f64, f64)>,
    /// Workloads measured this run with **no prior trajectory entry**:
    /// recorded into the trajectory but not gated on their first run.
    pub new_workloads: Vec<String>,
    /// Workloads recorded in the trajectory but not measured this run
    /// (other than the [`RETIRED_WORKLOADS`]).
    pub skipped: Vec<String>,
    /// [`RETIRED_WORKLOADS`] recorded in the trajectory and, as
    /// expected, not measured.
    pub retired: Vec<String>,
}

impl CheckOutcome {
    /// Whether the gate passes (no regressions).
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Gates `report` against the committed trajectory's reference run for
/// `tier` (see [`reference_run_speedups`]): a workload regresses when
/// its fresh speedup falls below `threshold ×` the recorded one.
/// Workloads without a prior trajectory entry are collected in
/// [`CheckOutcome::new_workloads`] — recorded, never gated on their
/// first run — so adding a benchmark (or measuring a tier for the
/// first time) can't fail CI by construction. Spawn-overhead workloads
/// below the floor land in [`CheckOutcome::advisory`] instead of
/// [`CheckOutcome::regressions`], so they are surfaced but never fail
/// the gate.
pub fn check_report(
    report: &KernelsReport,
    committed: &str,
    threshold: f64,
    tier: &str,
) -> CheckOutcome {
    let recorded = reference_run_speedups(committed, tier);
    let mut outcome = CheckOutcome::default();
    for (name, recorded_speedup) in &recorded {
        let Some(measured) = report
            .comparisons
            .iter()
            .find(|c| &c.name == name)
            .map(|c| c.speedup())
        else {
            if RETIRED_WORKLOADS.contains(&name.as_str()) {
                outcome.retired.push(name.clone());
            } else {
                outcome.skipped.push(name.clone());
            }
            continue;
        };
        let floor = recorded_speedup * threshold;
        if measured < floor {
            let shortfall = Regression {
                name: name.clone(),
                measured,
                recorded: *recorded_speedup,
                floor,
            };
            if is_spawn_overhead(name) || OVERHEAD_FACTOR_WORKLOADS.contains(&name.as_str()) {
                outcome.advisory.push(shortfall);
            } else {
                outcome.regressions.push(shortfall);
            }
        } else {
            outcome
                .passed
                .push((name.clone(), measured, *recorded_speedup));
        }
    }
    for c in &report.comparisons {
        if !recorded.iter().any(|(name, _)| name == &c.name) {
            outcome.new_workloads.push(c.name.clone());
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_comparisons() {
        // Tiny budget: correctness of the plumbing, not timing quality.
        let r = run(1);
        // The sharded workload rides along only when the worker binary
        // has been built (cargo test builds it for this package's
        // integration tests, but a filtered build may not have).
        let expect_sharded = shard_worker_path().is_some();
        assert_eq!(r.comparisons.len(), if expect_sharded { 18 } else { 13 });
        for c in &r.comparisons {
            assert!(c.baseline_ns > 0.0 && c.optimized_ns > 0.0, "{c:?}");
        }
        let json = render_run(&r, "test", "scalar");
        assert!(json.contains("optical_evaluate_order2_16384"));
        assert!(json.contains("sng_lanes8_xoshiro_16384"));
        assert!(json.contains("sng_lanes8_splitmix_16384"));
        assert!(json.contains("sng_lanes8_counter_16384"));
        assert!(json.contains("parallel_lanes_order2_16384"));
        assert!(json.contains("gamma_64x64_order6"));
        assert!(json.contains("fault_rate_sweep_order6"));
        assert!(json.contains("fault_lanes8_order6_2048"));
        assert!(json.contains("fault_shift_lanes8_order6_2048"));
        assert!(json.contains("fold_avx512_order6"));
        for pool_workload in [
            "gamma_64x64_order6_sharded",
            "gamma_64x64_order6_pooled",
            "pool_small_requests_1024",
            "service_soak",
            "design_sweep_order_grid",
        ] {
            assert_eq!(json.contains(pool_workload), expect_sharded, "{json}");
        }
        // The spawn-overhead flag rides on exactly the workloads the
        // constant names.
        assert_eq!(json.contains("\"amortized\": false"), expect_sharded);
    }

    #[test]
    fn spawn_overhead_shortfalls_are_advisory_not_regressions() {
        // A trajectory recording a spawn-overhead workload and a kernel
        // workload at 1.0x each.
        let committed = concat!(
            "{\n  \"runs\": [\n",
            "    {\"label\": \"pr5\", \"tier\": \"scalar\", \"benchmarks\": [\n",
            "      {\"name\": \"gamma_64x64_order6_sharded\", \"baseline_ns\": 100.0, ",
            "\"optimized_ns\": 100.0, \"speedup\": 1.000, \"amortized\": false},\n",
            "      {\"name\": \"sng_xoshiro_16384\", \"baseline_ns\": 100.0, ",
            "\"optimized_ns\": 100.0, \"speedup\": 1.000}\n",
            "    ]}\n  ]\n}\n"
        );
        // The flagged field is transparent to the speedup parser.
        assert_eq!(
            reference_run_speedups(committed, "scalar"),
            vec![
                ("gamma_64x64_order6_sharded".to_string(), 1.0),
                ("sng_xoshiro_16384".to_string(), 1.0),
            ]
        );
        // Both workloads measured well below the 0.8 floor: only the
        // kernel one fails the gate; the spawn-overhead one is surfaced
        // as advisory.
        let report = KernelsReport {
            comparisons: vec![
                KernelComparison {
                    name: "gamma_64x64_order6_sharded".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 200.0,
                },
                KernelComparison {
                    name: "sng_xoshiro_16384".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 200.0,
                },
            ],
        };
        let outcome = check_report(&report, committed, 0.8, "scalar");
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].name, "sng_xoshiro_16384");
        assert_eq!(outcome.advisory.len(), 1);
        assert_eq!(outcome.advisory[0].name, "gamma_64x64_order6_sharded");
        assert!(!outcome.is_ok());
        // With the kernel workload healthy, the advisory shortfall alone
        // does not fail the gate.
        let report_ok = KernelsReport {
            comparisons: vec![
                KernelComparison {
                    name: "gamma_64x64_order6_sharded".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 200.0,
                },
                KernelComparison {
                    name: "sng_xoshiro_16384".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 100.0,
                },
            ],
        };
        let outcome_ok = check_report(&report_ok, committed, 0.8, "scalar");
        assert!(outcome_ok.is_ok(), "{outcome_ok:?}");
        assert_eq!(outcome_ok.advisory.len(), 1);
        assert!(is_spawn_overhead("gamma_64x64_order6_sharded"));
        assert!(!is_spawn_overhead("gamma_64x64_order6_pooled"));
    }

    #[test]
    fn overhead_factor_records_are_never_gated() {
        // A faster fault hook lowers the overhead factor; that must not
        // read as a regression.
        let committed = concat!(
            "{\n  \"runs\": [\n",
            "    {\"label\": \"ci\", \"tier\": \"avx512\", \"benchmarks\": [\n",
            "      {\"name\": \"fault_lanes8_order6_2048\", \"baseline_ns\": 200.0, ",
            "\"optimized_ns\": 100.0, \"speedup\": 2.000}\n",
            "    ]}\n  ]\n}\n"
        );
        let report = KernelsReport {
            comparisons: vec![KernelComparison {
                name: "fault_lanes8_order6_2048".into(),
                baseline_ns: 110.0,
                optimized_ns: 100.0,
            }],
        };
        let outcome = check_report(&report, committed, 0.8, "avx512");
        assert!(outcome.is_ok(), "{outcome:?}");
        assert_eq!(outcome.advisory.len(), 1);
    }

    #[test]
    fn hostile_labels_cannot_corrupt_the_trajectory() {
        // Regression: `--label` text used to be spliced verbatim into the
        // hand-built JSON, so braces or quotes in a label broke the
        // brace-depth record splitter for every later append.
        let hostile = "evil{\"label\": \"fake\"}, \\ {{}}";
        let r1 = append_run(None, &render_run(&sample_report(), hostile, "scalar"));
        // The rendered label is sanitized but still recognizable.
        assert!(r1.contains("evil('label': 'fake'), / (())"), "{r1}");
        assert!(!r1.contains('\\'), "{r1}");
        // The trajectory still parses: one record, both workloads.
        assert_eq!(r1.matches("\"label\"").count(), 1, "{r1}");
        assert_eq!(last_run_speedups(&r1).len(), 2);
        // And a second (clean) append still extends it instead of
        // starting over or splitting the hostile record in two.
        let mut faster = sample_report();
        faster.comparisons[0].optimized_ns = 10.0;
        let r2 = append_run(Some(&r1), &render_run(&faster, "pr5", "scalar"));
        assert_eq!(r2.matches("\"label\"").count(), 2, "{r2}");
        let speedups = last_run_speedups(&r2);
        assert_eq!(speedups.len(), 2);
        assert!((speedups[0].1 - 10.0).abs() < 1e-9, "{speedups:?}");
        // Control characters (a newline would also break the one-record-
        // per-line shape) are flattened.
        assert_eq!(sanitize_label("a\nb\tc"), "a_b_c");
        assert_eq!(sanitize_label("pr4-sharding"), "pr4-sharding");
    }

    fn sample_report() -> KernelsReport {
        KernelsReport {
            comparisons: vec![
                KernelComparison {
                    name: "alpha".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 25.0,
                },
                KernelComparison {
                    name: "beta".into(),
                    baseline_ns: 90.0,
                    optimized_ns: 30.0,
                },
            ],
        }
    }

    #[test]
    fn append_run_starts_fresh_trajectory() {
        let record = render_run(&sample_report(), "pr2", "scalar");
        let out = append_run(None, &record);
        assert!(out.starts_with("{\n  \"runs\": ["));
        let speedups = last_run_speedups(&out);
        assert_eq!(speedups.len(), 2);
        assert_eq!(speedups[0].0, "alpha");
        assert!((speedups[0].1 - 4.0).abs() < 1e-9);
        assert!((speedups[1].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn append_run_migrates_single_run_schema() {
        // The pre-trajectory file shape (one top-level benchmarks array)
        // becomes the first labelled record.
        let old = "{\n  \"benchmarks\": [\n    {\"name\": \"alpha\", \"baseline_ns\": 100.000, \"optimized_ns\": 50.000, \"speedup\": 2.000}\n  ]\n}\n";
        let record = render_run(&sample_report(), "pr2", "scalar");
        let out = append_run(Some(old), &record);
        assert!(out.contains("\"label\": \"pr1\""), "{out}");
        assert!(out.contains("\"label\": \"pr2\""));
        // The last run governs the regression gate.
        let speedups = last_run_speedups(&out);
        assert_eq!(speedups.len(), 2);
        assert!((speedups[0].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn append_run_extends_trajectory() {
        let r1 = append_run(None, &render_run(&sample_report(), "pr2", "scalar"));
        let mut faster = sample_report();
        faster.comparisons[0].optimized_ns = 10.0;
        let r2 = append_run(Some(&r1), &render_run(&faster, "pr3", "scalar"));
        assert_eq!(r2.matches("\"label\"").count(), 2);
        let speedups = last_run_speedups(&r2);
        assert!((speedups[0].1 - 10.0).abs() < 1e-9, "{speedups:?}");
        // Still valid for a third append.
        let r3 = append_run(Some(&r2), &render_run(&sample_report(), "pr4", "scalar"));
        assert_eq!(r3.matches("\"label\"").count(), 3);
        assert_eq!(last_run_speedups(&r3).len(), 2);
    }

    #[test]
    fn check_report_gates_only_known_workloads() {
        // Trajectory records alpha (4x) and beta (3x). A fresh run where
        // alpha regressed hard, beta holds, and a brand-new workload
        // appears must flag exactly alpha — the new workload is recorded
        // but not gated on its first run.
        let committed = append_run(None, &render_run(&sample_report(), "pr2", "scalar"));
        let fresh = KernelsReport {
            comparisons: vec![
                KernelComparison {
                    name: "alpha".into(),
                    baseline_ns: 100.0,
                    optimized_ns: 50.0, // 2.0x vs recorded 4.0x
                },
                KernelComparison {
                    name: "beta".into(),
                    baseline_ns: 90.0,
                    optimized_ns: 30.0, // 3.0x, holds
                },
                KernelComparison {
                    name: "brand_new".into(),
                    baseline_ns: 10.0,
                    optimized_ns: 10.0,
                },
            ],
        };
        let outcome = check_report(&fresh, &committed, 0.8, "scalar");
        assert!(!outcome.is_ok());
        assert_eq!(outcome.regressions.len(), 1);
        let reg = &outcome.regressions[0];
        assert_eq!(reg.name, "alpha");
        assert!((reg.measured - 2.0).abs() < 1e-9);
        assert!((reg.recorded - 4.0).abs() < 1e-9);
        assert!((reg.floor - 3.2).abs() < 1e-9);
        assert!((reg.shortfall_percent() - 50.0).abs() < 1e-9);
        assert_eq!(outcome.new_workloads, vec!["brand_new".to_string()]);
        assert_eq!(outcome.passed.len(), 1);
        assert_eq!(outcome.passed[0].0, "beta");
        assert!(outcome.skipped.is_empty());
    }

    #[test]
    fn check_report_passes_at_the_floor_and_skips_unmeasured() {
        let committed = append_run(None, &render_run(&sample_report(), "pr2", "scalar"));
        // Exactly the floor (4.0 × 0.8 = 3.2) passes; beta unmeasured.
        let fresh = KernelsReport {
            comparisons: vec![KernelComparison {
                name: "alpha".into(),
                baseline_ns: 320.0,
                optimized_ns: 100.0,
            }],
        };
        let outcome = check_report(&fresh, &committed, 0.8, "scalar");
        assert!(outcome.is_ok(), "{outcome:?}");
        assert_eq!(outcome.skipped, vec!["beta".to_string()]);
        assert!(outcome.retired.is_empty());
        assert!(outcome.new_workloads.is_empty());
    }

    #[test]
    fn check_report_names_retired_rows_apart_from_unmeasured_ones() {
        // The trajectory records a retired row and an ordinary one; the
        // fresh run measures neither. The retired row is reported as
        // retired, the other as skipped, and neither fails the gate.
        let retired = RETIRED_WORKLOADS[0];
        let recorded = KernelsReport {
            comparisons: [retired, "beta"]
                .into_iter()
                .map(|name| KernelComparison {
                    name: name.into(),
                    baseline_ns: 400.0,
                    optimized_ns: 100.0,
                })
                .collect(),
        };
        let committed = append_run(None, &render_run(&recorded, "pr2", "scalar"));
        let outcome = check_report(
            &KernelsReport {
                comparisons: vec![],
            },
            &committed,
            0.8,
            "scalar",
        );
        assert!(outcome.is_ok(), "{outcome:?}");
        assert_eq!(outcome.retired, vec![retired.to_string()]);
        assert_eq!(outcome.skipped, vec!["beta".to_string()]);
        assert!(outcome.passed.is_empty() && outcome.advisory.is_empty());
    }

    #[test]
    fn check_report_compares_like_tier_against_like_tier() {
        // Trajectory: an untagged legacy run (pr1 era), then an avx512
        // run, then a scalar run where alpha is much slower (by design
        // — it is a vectorized workload).
        let legacy = "{\n  \"benchmarks\": [\n    {\"name\": \"alpha\", \"baseline_ns\": 100.000, \"optimized_ns\": 50.000, \"speedup\": 2.000}\n  ]\n}\n";
        let mut scalar_report = sample_report();
        scalar_report.comparisons[0].optimized_ns = 100.0; // alpha 1.0x scalar
        let t1 = append_run(Some(legacy), &render_run(&sample_report(), "pr5", "avx512"));
        let t2 = append_run(Some(&t1), &render_run(&scalar_report, "pr5", "scalar"));

        // A fresh scalar run at scalar speeds passes the scalar gate —
        // and would have failed against the avx512 record (1.0 < 0.8 ×
        // 4.0).
        let outcome = check_report(&scalar_report, &t2, 0.8, "scalar");
        assert!(outcome.is_ok(), "{outcome:?}");
        let avx_judged = check_report(&scalar_report, &t2, 0.8, "avx512");
        assert!(!avx_judged.is_ok(), "cross-tier floors must differ");

        // An avx512 run is judged against the avx512 record even though
        // the scalar record is more recent.
        let outcome = check_report(&sample_report(), &t2, 0.8, "avx512");
        assert!(outcome.is_ok(), "{outcome:?}");

        // A tier with no record falls back to the legacy untagged run
        // when one exists...
        let reference = reference_run_speedups(&t2, "avx2");
        assert_eq!(reference, reference_run_speedups(legacy, "avx2"));
        // ...and gates nothing when every record is tier-tagged.
        let tagged_only = append_run(None, &render_run(&sample_report(), "pr5", "avx512"));
        assert!(reference_run_speedups(&tagged_only, "avx2").is_empty());
        let outcome = check_report(&sample_report(), &tagged_only, 0.8, "avx2");
        assert!(outcome.is_ok());
        assert!(outcome.passed.is_empty());
        assert_eq!(outcome.new_workloads.len(), 2);
    }

    #[test]
    fn reference_is_the_lower_median_of_the_last_three_same_tier_records() {
        // Four scalar records for alpha: 4.0 (ancient, outside the
        // window), then 3.0, 9.0 (an outlier — e.g. a spawn-baseline
        // workload measured on a slow-spawn day), 3.1. The reference
        // must be the median of the last three (3.1), not the outlier
        // and not the stale 4.0.
        let rec = |speedup: f64| {
            let report = KernelsReport {
                comparisons: vec![KernelComparison {
                    name: "alpha".into(),
                    baseline_ns: 100.0 * speedup,
                    optimized_ns: 100.0,
                }],
            };
            render_run(&report, "pr", "scalar")
        };
        let mut committed = append_run(None, &rec(4.0));
        for s in [3.0, 9.0, 3.1] {
            committed = append_run(Some(&committed), &rec(s));
        }
        assert_eq!(
            reference_run_speedups(&committed, "scalar"),
            vec![("alpha".to_string(), 3.1)]
        );

        // A fresh in-family measurement (2.9x) passes the damped floor
        // (3.1 × 0.8 = 2.48) where the single-record gate would have
        // demanded 9.0 × 0.8 = 7.2 forever...
        let fresh = KernelsReport {
            comparisons: vec![KernelComparison {
                name: "alpha".into(),
                baseline_ns: 290.0,
                optimized_ns: 100.0,
            }],
        };
        assert!(check_report(&fresh, &committed, 0.8, "scalar").is_ok());
        // ...while a real regression still trips it.
        let regressed = KernelsReport {
            comparisons: vec![KernelComparison {
                name: "alpha".into(),
                baseline_ns: 150.0,
                optimized_ns: 100.0,
            }],
        };
        let outcome = check_report(&regressed, &committed, 0.8, "scalar");
        assert_eq!(outcome.regressions.len(), 1);
        assert!((outcome.regressions[0].recorded - 3.1).abs() < 1e-9);

        // An even window takes the lower middle — conservative for a
        // two-record trajectory where one of the two may be the outlier.
        let two = append_run(Some(&append_run(None, &rec(18.0))), &rec(27.0));
        assert_eq!(
            reference_run_speedups(&two, "scalar"),
            vec![("alpha".to_string(), 18.0)]
        );

        // Workloads absent from the most recent record are not gated,
        // even when older window records still carry them.
        let mut dropped = append_run(None, &rec(3.0));
        let beta_only = KernelsReport {
            comparisons: vec![KernelComparison {
                name: "beta".into(),
                baseline_ns: 200.0,
                optimized_ns: 100.0,
            }],
        };
        dropped = append_run(Some(&dropped), &render_run(&beta_only, "pr", "scalar"));
        assert_eq!(
            reference_run_speedups(&dropped, "scalar"),
            vec![("beta".to_string(), 2.0)]
        );
    }

    #[test]
    fn check_report_with_empty_trajectory_gates_nothing() {
        let outcome = check_report(&sample_report(), "not json at all", 0.8, "scalar");
        assert!(outcome.is_ok());
        assert_eq!(outcome.new_workloads.len(), 2);
        assert!(outcome.passed.is_empty());
    }

    #[test]
    fn unrecognized_trajectory_contents_start_fresh() {
        let out = append_run(
            Some("not json at all"),
            &render_run(&sample_report(), "x", "scalar"),
        );
        assert_eq!(out.matches("\"label\"").count(), 1);
        assert_eq!(last_run_speedups("garbage"), Vec::new());
    }
}

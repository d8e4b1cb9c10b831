//! End-to-end persistent-pool equivalence: a [`WorkerPool`] of real
//! `shard_worker` subprocesses must reproduce single-process results
//! **byte for byte** — across worker counts, repeat requests (the
//! warm circuit-cache path), forced cache misses, mid-stream worker
//! kills and fatal errors — and every failure must surface as a
//! [`ShardError`] value with the pool still usable afterwards.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`;
//! the in-memory wire protocol properties live in
//! `osc-core/tests/shard_equivalence.rs` and
//! `osc-core/tests/protocol_robustness.rs`.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::{smoothstep, smoothstep_poly};
use osc_apps::gamma_app::{apply_optical, apply_optical_lanes_faulted, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_bench::soak::{self, SoakConfig};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{Executor, ShardError, ShardRequest, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Nanometers;
use std::time::{Duration, Instant};

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

fn fig5_system() -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap()
}

fn reference_runs(
    system: &OpticalScSystem,
    kind: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Vec<OpticalRun> {
    let ev = BatchEvaluator::with_threads(2);
    match kind {
        SngKind::Lfsr => ev.evaluate_many(
            system,
            xs,
            stream_length,
            |s| LfsrSng::new(16, s as u32).unwrap(),
            seed,
        ),
        SngKind::Counter => {
            ev.evaluate_many(system, xs, stream_length, |_| CounterSng::new(), seed)
        }
        SngKind::Xoshiro => ev.evaluate_many(system, xs, stream_length, XoshiroSng::new, seed),
        SngKind::Chaotic => {
            ev.evaluate_many(system, xs, stream_length, ChaoticLaserSng::seeded, seed)
        }
    }
    .unwrap()
}

#[test]
fn pooled_batches_match_single_process_for_all_sngs_and_worker_counts() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    for workers in [1usize, 3] {
        let mut pool = PoolConfig::new(WORKER, workers)
            .with_worker_threads(1)
            .spawn()
            .unwrap();
        for kind in SngKind::ALL {
            let reference = reference_runs(&system, kind, &xs, 128, 7);
            // Twice through the same pool: the first call ships the
            // circuit inline, the second rides the cached reference —
            // both must be byte-identical to the reference.
            for round in 0..2 {
                let pooled = pool
                    .evaluate_many(&system, kind, &xs, 128, 7, None)
                    .unwrap();
                assert_eq!(
                    pooled,
                    reference,
                    "{} workers={workers} round={round}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn pooled_images_are_byte_identical_to_the_lanes_pipeline() {
    let image = Image::blobs(13, 16); // width 13 → ragged 8+4+1 lane blocks
    let gamma_poly = paper_gamma_polynomial().unwrap();
    let gamma_backend = OpticalBackend::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
        gamma_poly,
        256,
        13,
    )
    .unwrap();
    let contrast_backend = OpticalBackend::new(
        CircuitParams::paper_fig7(3, Nanometers::new(0.2)),
        smoothstep_poly(),
        256,
        5,
    )
    .unwrap();
    let evaluator = BatchEvaluator::with_threads(2);
    let mut in_process = Executor::InProcess(&evaluator);
    let gamma_ref = apply_optical(&image, &gamma_backend, &mut in_process, None).unwrap();
    let contrast_ref = apply_optical(&image, &contrast_backend, &mut in_process, None).unwrap();
    let contrast_exact = image.map(smoothstep);
    let contrast_ref_mae = contrast_ref.mae(&contrast_exact).unwrap();
    let mut pool = PoolConfig::new(WORKER, 3).spawn().unwrap();
    let mut pooled = Executor::Pool(&mut pool);
    // Alternate gamma/contrast twice: both circuits stay cached, and
    // every repetition must reproduce the in-process bytes exactly.
    for round in 0..2 {
        let gamma_pooled = apply_optical(&image, &gamma_backend, &mut pooled, None).unwrap();
        let identical = gamma_pooled
            .pixels()
            .iter()
            .zip(gamma_ref.pixels())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "round {round}: pooled gamma bytes diverged");
        let contrast_pooled = apply_optical(&image, &contrast_backend, &mut pooled, None).unwrap();
        assert_eq!(contrast_pooled, contrast_ref, "round {round}");
        let contrast_mae = contrast_pooled.mae(&contrast_exact).unwrap();
        assert_eq!(contrast_mae, contrast_ref_mae, "round {round}");
    }
}

#[test]
fn soak_modes_produce_identical_bytes() {
    // The CI pool-soak contract in miniature: in-process, pooled and
    // spawn-per-request runs of the shared schedule produce the same
    // bytes.
    let cfg = SoakConfig {
        requests: 6,
        width: 9,
        height: 4,
        stream: 64,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut pool = PoolConfig::new(WORKER, 3).spawn().unwrap();
    let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
    let spawn = PoolConfig::new(WORKER, 3);
    let spawned = soak::run(&cfg, Executor::Spawn(&spawn)).unwrap();
    assert_eq!(pooled.bytes, in_process.bytes, "pool ≡ in-process");
    assert_eq!(spawned.bytes, in_process.bytes, "spawn ≡ in-process");
}

#[test]
fn faulted_soak_modes_produce_identical_bytes_across_worker_counts() {
    // The CI fault-soak contract in miniature: a fault-injected run of
    // the shared schedule produces the same bytes in-process, pooled
    // and spawn-per-request, across the worker counts the acceptance
    // criteria name — and those bytes differ from the clean run (the
    // faults are real, not silently dropped on the wire).
    let mut fault = FaultSpec::with_seed(0xFA07);
    fault.flip_probability = 0.02;
    fault.shift_probability = 0.001;
    let cfg = SoakConfig {
        requests: 4,
        width: 9,
        height: 3,
        stream: 128,
        fault: Some(fault),
        ..Default::default()
    };
    let clean_cfg = SoakConfig { fault: None, ..cfg };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let clean = soak::run(&clean_cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    assert_ne!(in_process.bytes, clean.bytes, "faults must perturb output");
    for workers in [1usize, 2, 3, 7] {
        let mut pool = PoolConfig::new(WORKER, workers).spawn().unwrap();
        let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
        assert_eq!(
            pooled.bytes, in_process.bytes,
            "faulted pool({workers}) ≡ in-process"
        );
        let spawn = PoolConfig::new(WORKER, workers);
        let spawned = soak::run(&cfg, Executor::Spawn(&spawn)).unwrap();
        assert_eq!(
            spawned.bytes, in_process.bytes,
            "faulted spawn({workers}) ≡ in-process"
        );
    }
}

#[test]
fn killed_worker_mid_stream_is_respawned_with_identical_results() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 128, 3);
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let before = pool
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 128, 3, None)
        .unwrap();
    assert_eq!(before, reference);
    // Kill one worker out from under the pool, mid-stream.
    let pids = pool.worker_pids();
    assert_eq!(pids.len(), 2);
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill must succeed");
    // The next call hits the dead worker, respawns it transparently and
    // still produces the exact reference bytes (the respawned worker's
    // cold cache forces the inline path — also byte-identical).
    let after = pool
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 128, 3, None)
        .unwrap();
    assert_eq!(after, reference, "recovery must not change results");
    let new_pids = pool.worker_pids();
    assert_ne!(new_pids[0], pids[0], "the dead worker was respawned");
}

#[test]
fn forced_cache_miss_falls_back_to_inline_transparently() {
    // The launcher runs the real worker with a ONE-circuit cache while
    // the pool's mirror keeps the default capacity of 8, so alternating
    // two circuits makes every cached reference the pool ships a
    // genuine miss: the worker answers a clean cache miss, the pump
    // resends inline (rotating the request to the back of its
    // pipeline), and the caller sees only the in-process bytes.
    let dir = std::env::temp_dir().join(format!("osc-pool-cache1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let launcher = dir.join("cache1_worker.sh");
    std::fs::write(
        &launcher,
        format!("#!/bin/sh\nexec env OSC_CIRCUIT_CACHE=1 '{WORKER}'\n"),
    )
    .unwrap();
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&launcher, std::fs::Permissions::from_mode(0o755)).unwrap();

    let circuits = [
        fig5_system(),
        OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.75, 0.375, 0.25]).unwrap(),
        )
        .unwrap(),
    ];
    let xs = [0.1, 0.5, 0.9];
    let references: Vec<Vec<OpticalRun>> = circuits
        .iter()
        .map(|system| reference_runs(system, SngKind::Xoshiro, &xs, 96, 11))
        .collect();
    let mut pool = PoolConfig::new(&launcher, 1).spawn().unwrap();
    let pids = pool.worker_pids();
    for round in 0..3 {
        for (system, reference) in circuits.iter().zip(&references) {
            let pooled = pool
                .evaluate_many(system, SngKind::Xoshiro, &xs, 96, 11, None)
                .unwrap();
            assert_eq!(&pooled, reference, "round {round}: miss fallback diverged");
        }
    }
    // One batch alternating both circuits: each miss heals while the
    // next request is already in flight behind it on the same pipe.
    let requests: Vec<ShardRequest> = (0..6)
        .map(|i| ShardRequest::batch(&circuits[i % 2], SngKind::Xoshiro, 0, &xs, 96, 11, None))
        .collect();
    let batched = pool.run_requests(&requests, &[xs.len(); 6]).unwrap();
    for (i, runs) in batched.iter().enumerate() {
        assert_eq!(runs, &references[i % 2], "batched request {i}");
    }
    // Healed in place: no miss was mistaken for a dead worker.
    assert_eq!(pool.worker_pids(), pids, "cache misses must not respawn");
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_per_worker_runs_on_every_worker() {
    // The work-conserving refill rule: at the default pipeline depth of
    // 2, a 2-shard batch on a 2-worker pool must still land one shard
    // per worker. Every response takes 300 ms, so two shards on one
    // worker would need 600 ms; on two workers the batch takes ~300 ms.
    let delay = Duration::from_millis(300);
    let system = fig5_system();
    let xs = [0.25, 0.75];
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 64, 5);
    let mut pool = PoolConfig::new(WORKER, 2)
        .with_response_delay(delay)
        .spawn()
        .unwrap();
    // Warm up first, so process start-up and circuit builds stay out of
    // the timed call.
    pool.evaluate_many(&system, SngKind::Xoshiro, &xs, 64, 5, None)
        .unwrap();
    let started = Instant::now();
    let runs = pool
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 64, 5, None)
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(runs, reference);
    assert!(
        elapsed < delay.mul_f64(1.6),
        "two shards on two workers took {elapsed:?} — serialized on one worker?"
    );
}

#[test]
fn nanocavity_soak_modes_produce_identical_bytes() {
    // The backend-matrix contract in miniature: the nanocavity physics
    // rides the identical schedule through in-process, pooled and
    // spawn-per-request serving and must produce one set of bytes. At
    // the schedule's order-6 gamma circuit the nanocavity decisions are
    // genuinely noisy (folded probabilities inside (0, 1)), so this
    // also drags the uniform-draw kernel tier across the process
    // boundary for the non-default backend.
    let cfg = SoakConfig {
        requests: 4,
        width: 5,
        height: 3,
        stream: 64,
        backend: BackendKind::Nanocavity,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
    let spawn = PoolConfig::new(WORKER, 2);
    let spawned = soak::run(&cfg, Executor::Spawn(&spawn)).unwrap();
    assert_eq!(
        pooled.bytes, in_process.bytes,
        "nanocavity pool ≡ in-process"
    );
    assert_eq!(
        spawned.bytes, in_process.bytes,
        "nanocavity spawn ≡ in-process"
    );
    // And the physics is real: the two backends put different optical
    // power on the detector at the same operating point. (Their folded
    // flip probabilities are all within ~4e-6 of 0 or 1 here, so a
    // schedule this small sees no actual flips on either physics —
    // bytes alone cannot distinguish the backends.)
    use osc_core::backend::ScBackend;
    let params = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
    let poly = paper_gamma_polynomial().unwrap();
    let nano_gamma = OpticalBackend::new(
        params.with_backend(BackendKind::Nanocavity),
        poly.clone(),
        64,
        0,
    )
    .unwrap();
    let mrr_gamma = OpticalBackend::new(params, poly, 64, 0).unwrap();
    let nano_power = nano_gamma
        .system()
        .backend()
        .received_power(3, 0b1)
        .unwrap();
    let mrr_power = mrr_gamma.system().backend().received_power(3, 0b1).unwrap();
    assert_ne!(nano_power.as_mw().to_bits(), mrr_power.as_mw().to_bits());
}

#[test]
fn capacity_one_cache_thrash_is_byte_identical() {
    // The soak schedule alternates two circuits (gamma and contrast),
    // so a worker whose circuit cache holds only ONE system evicts on
    // every request: each circuit reference the pool ships as cached
    // would be stale if the capacity knob were not mirrored
    // dispatcher-side. The run must still match the in-process bytes —
    // eviction costs rebuilds, never correctness — and the default-
    // capacity pool must agree too.
    let cfg = SoakConfig {
        requests: 6,
        width: 4,
        height: 3,
        stream: 64,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut thrashing_pool = PoolConfig::new(WORKER, 2)
        .with_circuit_cache_capacity(1)
        .spawn()
        .unwrap();
    let thrashed = soak::run(&cfg, Executor::Pool(&mut thrashing_pool)).unwrap();
    assert_eq!(
        thrashed.bytes, in_process.bytes,
        "capacity-1 thrash ≡ in-process"
    );
    let mut roomy_pool = PoolConfig::new(WORKER, 2)
        .with_circuit_cache_capacity(4)
        .spawn()
        .unwrap();
    let roomy = soak::run(&cfg, Executor::Pool(&mut roomy_pool)).unwrap();
    assert_eq!(roomy.bytes, in_process.bytes, "capacity-4 ≡ in-process");
}

#[test]
fn invalid_fault_specs_are_errors_in_process_as_through_the_pool() {
    // Out-of-range and NaN rates: the in-process image path must refuse
    // them exactly as the worker does, never return bytes.
    let image = Image::blobs(9, 4);
    let backend = OpticalBackend::new(
        CircuitParams::paper_fig7(3, Nanometers::new(0.2)),
        smoothstep_poly(),
        128,
        3,
    )
    .unwrap();
    let evaluator = BatchEvaluator::with_threads(2);
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let base = FaultSpec::with_seed(11);
    for bad in [
        FaultSpec {
            flip_probability: 2.0,
            ..base
        },
        FaultSpec {
            flip_probability: -0.5,
            ..base
        },
        FaultSpec {
            flip_probability: f64::NAN,
            ..base
        },
        FaultSpec {
            shift_probability: 1.5,
            ..base
        },
    ] {
        let in_process = apply_optical_lanes_faulted(&image, &backend, &evaluator, Some(&bad));
        let err = in_process.expect_err("in-process accepted an invalid spec");
        assert!(err.to_string().contains("invalid fault spec"), "{err}");
        assert!(
            apply_optical(&image, &backend, &mut Executor::Pool(&mut pool), Some(&bad)).is_err(),
            "the pool accepted {bad:?}"
        );
    }
    // The same pool and evaluator still serve a valid spec identically.
    let good = FaultSpec {
        flip_probability: 0.02,
        shift_probability: 0.01,
        ..base
    };
    let want = apply_optical_lanes_faulted(&image, &backend, &evaluator, Some(&good)).unwrap();
    let got = apply_optical(
        &image,
        &backend,
        &mut Executor::Pool(&mut pool),
        Some(&good),
    )
    .unwrap();
    assert_eq!(got, want);
}

#[test]
fn fatal_errors_are_values_and_the_pool_survives_them() {
    let system = fig5_system();
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    // A deterministic rejection (out-of-range input) is a Remote error,
    // not a retry loop...
    let err = pool
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5, 1.5], 64, 1, None)
        .unwrap_err();
    match err {
        ShardError::Remote { detail, .. } => assert!(detail.contains("outside"), "{detail}"),
        other => panic!("expected a remote error, got {other}"),
    }
    // ...and the pool remains fully usable afterwards.
    let xs = [0.25, 0.5, 0.75];
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 64, 1);
    let recovered = pool
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 64, 1, None)
        .unwrap();
    assert_eq!(recovered, reference);
}

#[test]
fn a_failed_batch_returns_without_running_its_queued_requests() {
    // Eight requests through one 150 ms-per-response worker; request 2
    // is rejected. The error names request 2 and returns once the
    // request already pipelined behind it answers (~600 ms) — the five
    // still-queued requests are dropped, not run (~1200 ms) — and the
    // pool then serves the next batch normally.
    let delay = Duration::from_millis(150);
    let system = fig5_system();
    let mut pool = PoolConfig::new(WORKER, 1)
        .with_response_delay(delay)
        .spawn()
        .unwrap();
    let requests: Vec<ShardRequest> = (0..8)
        .map(|i| {
            let x = if i == 2 { 1.5 } else { 0.5 };
            ShardRequest::batch(&system, SngKind::Xoshiro, 0, &[x], 64, 1, None)
        })
        .collect();
    let started = Instant::now();
    let err = pool.run_requests(&requests, &[1; 8]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ShardError::Remote { shard: 2, .. }),
        "expected request 2's remote error, got {err}"
    );
    assert!(
        elapsed < delay * 7,
        "the failed batch took {elapsed:?}, as if its queued requests ran"
    );
    let reference = reference_runs(&system, SngKind::Xoshiro, &[0.5], 64, 1);
    let again = pool.run_requests(&requests[..2], &[1, 1]).unwrap();
    assert_eq!(again, vec![reference.clone(), reference]);
}

#[test]
fn garbage_speaking_worker_fails_as_a_value() {
    // /bin/echo "answers" with a newline and exits: an invalid frame
    // prefix. The pool must retry on fresh processes and then fail with
    // a clean Worker error — never a panic, hang or huge allocation.
    let system = fig5_system();
    let mut pool = PoolConfig::new("/bin/echo", 2)
        .with_retries(1)
        .spawn()
        .unwrap();
    let err = pool
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5], 64, 1, None)
        .unwrap_err();
    assert!(matches!(err, ShardError::Worker { .. }), "{err}");
}

#[test]
fn out_of_bounds_request_sizes_are_remote_errors_and_the_workers_survive() {
    // A 2^40-bit stream used to abort the worker on a 512 GiB
    // allocation, surfacing as "worker closed its pipe"; a batch
    // starting at index u64::MAX wrapped to index 0. Both are now
    // refused at decode time: each fails as a Remote error value, no
    // worker is respawned, and the next good request is answered.
    let system = fig5_system();
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let pids = pool.worker_pids();
    let bad = [
        ShardRequest::batch(&system, SngKind::Xoshiro, 0, &[0.5], 1 << 40, 1, None),
        ShardRequest::batch(&system, SngKind::Xoshiro, u64::MAX, &[0.5], 64, 1, None),
    ];
    for (request, what) in bad.iter().zip(["stream length", "overflows"]) {
        let err = pool
            .run_requests(std::slice::from_ref(request), &[1])
            .unwrap_err();
        assert!(
            matches!(&err, ShardError::Remote { detail, .. } if detail.contains(what)),
            "{err}"
        );
    }
    assert_eq!(pool.worker_pids(), pids, "no worker died or was respawned");
    let runs = pool
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5], 64, 1, None)
        .unwrap();
    assert_eq!(
        runs,
        reference_runs(&system, SngKind::Xoshiro, &[0.5], 64, 1)
    );
}

#[test]
fn pool_thread_pinning_does_not_change_results() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
    let mut pinned = PoolConfig::new(WORKER, 2)
        .with_worker_threads(1)
        .spawn()
        .unwrap();
    let mut free = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let a = pinned
        .evaluate_many(&system, SngKind::Chaotic, &xs, 256, 11, None)
        .unwrap();
    let b = free
        .evaluate_many(&system, SngKind::Chaotic, &xs, 256, 11, None)
        .unwrap();
    assert_eq!(a, b, "OSC_THREADS pinning must be unobservable");
}

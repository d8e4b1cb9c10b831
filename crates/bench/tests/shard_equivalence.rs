//! End-to-end process-sharding equivalence: real `shard_worker`
//! subprocesses, spawned by [`Executor::Spawn`], must reproduce
//! single-process results **byte for byte** — for shard counts
//! {1, 2, 3, 7} (ragged splits included), every SNG kind, and the image
//! pipelines — and fail *as values* when workers die (including a
//! killed-worker recovery case riding the spawn tier's retry).
//!
//! The spawn tier runs each call on a one-shot `pool::WorkerPool`, so
//! this suite also pins the pool's spawn / dispatch / retry machinery
//! end to end, and the number of processes each call starts; the
//! persistent-pool paths (warm caches, kill-mid-stream, cache-miss
//! fallback) live in `pool_equivalence.rs`.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`;
//! the in-memory protocol properties live in
//! `osc-core/tests/shard_equivalence.rs` and
//! `osc-core/tests/protocol_robustness.rs`.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::{smoothstep, smoothstep_poly};
use osc_apps::gamma_app::{apply_optical, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{BatchJob, Executor, ShardError, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::gamma::{gamma_exact, DISPLAY_GAMMA};
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Nanometers;

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

fn fig5_system() -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap()
}

/// One clean batch through the spawn tier.
fn spawn_batch(
    config: &PoolConfig,
    system: &OpticalScSystem,
    sng: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Result<Vec<OpticalRun>, ShardError> {
    let job = BatchJob {
        system,
        sng,
        xs,
        stream_length,
        seed,
        faults: None,
    };
    Executor::Spawn(config)
        .batches(&[job])
        .map(|mut runs| runs.remove(0))
}

/// Writes `script` to `path` as an executable launcher.
fn make_executable(path: &std::path::Path, script: &str) {
    use std::os::unix::fs::PermissionsExt;
    std::fs::write(path, script).unwrap();
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).unwrap();
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
fn sharded_batches_match_single_process_for_all_sngs_and_counts() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    for kind in SngKind::ALL {
        let reference = reference_runs(&system, kind, &xs, 128, 7);
        for shards in [1usize, 2, 3, 7] {
            let config = PoolConfig::new(WORKER, shards).with_worker_threads(1);
            let sharded = spawn_batch(&config, &system, kind, &xs, 128, 7).unwrap();
            assert_eq!(sharded, reference, "{} shards={shards}", kind.name());
        }
    }
}

#[test]
fn sharded_gamma_image_is_byte_identical_across_shard_counts() {
    // The acceptance criterion: sharded gamma output must equal the
    // single-process row+lane pipeline bit for bit, for shard counts
    // {1, 2, 3, 7} — 7 splits the 16 rows raggedly (3+3+2+2+2+2+2).
    let image = Image::blobs(13, 16); // width 13 → ragged 8+4+1 lane blocks
    let poly = paper_gamma_polynomial().unwrap();
    let params = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
    let backend = OpticalBackend::new(params, poly, 256, 13).unwrap();
    let evaluator = BatchEvaluator::with_threads(2);
    let in_process =
        apply_optical(&image, &backend, &mut Executor::InProcess(&evaluator), None).unwrap();
    let exact = image.map(|p| gamma_exact(p, DISPLAY_GAMMA));
    for shards in [1usize, 2, 3, 7] {
        let config = PoolConfig::new(WORKER, shards);
        let sharded = apply_optical(&image, &backend, &mut Executor::Spawn(&config), None).unwrap();
        let identical = sharded
            .pixels()
            .iter()
            .zip(in_process.pixels())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "shards={shards}: sharded image bytes diverged");
        // The derived quality numbers agree exactly too.
        assert_eq!(
            sharded.mae(&exact).unwrap().to_bits(),
            in_process.mae(&exact).unwrap().to_bits(),
            "shards={shards}"
        );
        assert_eq!(
            sharded.psnr_db(&exact).unwrap().to_bits(),
            in_process.psnr_db(&exact).unwrap().to_bits(),
            "shards={shards}"
        );
    }
}

#[test]
fn sharded_contrast_matches_lanes_pipeline() {
    let image = Image::blobs(12, 6);
    let params = CircuitParams::paper_fig7(3, Nanometers::new(0.2));
    let backend = OpticalBackend::new(params, smoothstep_poly(), 512, 5).unwrap();
    let evaluator = BatchEvaluator::with_threads(2);
    let lanes_img =
        apply_optical(&image, &backend, &mut Executor::InProcess(&evaluator), None).unwrap();
    let config = PoolConfig::new(WORKER, 3);
    let sharded_img = apply_optical(&image, &backend, &mut Executor::Spawn(&config), None).unwrap();
    assert_eq!(sharded_img, lanes_img);
    let exact = image.map(smoothstep);
    assert_eq!(sharded_img.mae(&exact), lanes_img.mae(&exact));
}

#[test]
fn dead_worker_surfaces_a_clean_error_after_retries() {
    // A "worker" that exits immediately without speaking the protocol:
    // the spawn tier must detect the failure on every attempt and
    // return a ShardError, never panic or hang.
    let system = fig5_system();
    let xs = [0.25, 0.5, 0.75];
    let config = PoolConfig::new("/bin/false", 2).with_retries(1);
    let err = spawn_batch(&config, &system, SngKind::Xoshiro, &xs, 64, 1).unwrap_err();
    assert!(
        matches!(err, ShardError::Worker { .. }),
        "expected a worker failure, got {err}"
    );
    // A binary that cannot be spawned at all is also a value, and is
    // distinguishable from a worker that launched and then died.
    let config = PoolConfig::new("/nonexistent/worker", 2).with_retries(0);
    let err = spawn_batch(&config, &system, SngKind::Xoshiro, &xs, 64, 1).unwrap_err();
    assert!(matches!(err, ShardError::Spawn { .. }), "{err}");
}

#[test]
fn killed_worker_recovers_on_retry_with_identical_results() {
    // A flaky launcher: the first invocation per marker directory kills
    // itself before speaking the protocol (simulating a worker dying
    // mid-batch); every later invocation execs the real worker. With one
    // retry the spawn tier must recover and still produce the exact
    // single-process bytes.
    let marker_dir = std::env::temp_dir().join(format!(
        "osc-shard-flaky-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&marker_dir);
    std::fs::create_dir_all(&marker_dir).unwrap();
    let script_path = marker_dir.join("flaky_worker.sh");
    let script = format!(
        "#!/bin/sh\nif [ ! -f '{dir}/died-once' ]; then\n  : > '{dir}/died-once'\n  kill -9 $$\nfi\nexec '{worker}'\n",
        dir = marker_dir.display(),
        worker = WORKER,
    );
    make_executable(&script_path, &script);

    let system = fig5_system();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 128, 3);
    let config = PoolConfig::new(&script_path, 3).with_retries(1);
    let recovered = spawn_batch(&config, &system, SngKind::Xoshiro, &xs, 128, 3).unwrap();
    assert_eq!(recovered, reference, "recovery must not change results");
    assert!(
        marker_dir.join("died-once").exists(),
        "the flaky launcher should have died exactly once"
    );
    // With retries disabled the same first-death launcher fails cleanly.
    let _ = std::fs::remove_file(marker_dir.join("died-once"));
    let config = PoolConfig::new(&script_path, 3).with_retries(0);
    let err = spawn_batch(&config, &system, SngKind::Xoshiro, &xs, 128, 3).unwrap_err();
    assert!(matches!(err, ShardError::Worker { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&marker_dir);
}

#[test]
fn remote_evaluation_errors_cross_the_boundary_as_values() {
    // An out-of-range input is rejected by the worker and reported as a
    // remote error (not retried — the answer is deterministic).
    let system = fig5_system();
    let config = PoolConfig::new(WORKER, 2);
    let err = spawn_batch(&config, &system, SngKind::Xoshiro, &[0.5, 1.5], 64, 1).unwrap_err();
    match err {
        ShardError::Remote { detail, .. } => {
            assert!(detail.contains("outside"), "{detail}");
        }
        other => panic!("expected a remote error, got {other}"),
    }
}

#[test]
fn worker_thread_pinning_does_not_change_results() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
    let pinned = PoolConfig::new(WORKER, 2).with_worker_threads(1);
    let pinned = spawn_batch(&pinned, &system, SngKind::Chaotic, &xs, 256, 11).unwrap();
    let free = PoolConfig::new(WORKER, 2);
    let free = spawn_batch(&free, &system, SngKind::Chaotic, &xs, 256, 11).unwrap();
    assert_eq!(pinned, free, "OSC_THREADS pinning must be unobservable");
}

#[test]
fn spawn_tier_starts_one_process_per_planned_shard() {
    // A counting launcher: every start appends one line to a log, then
    // execs the real worker. With 7 workers configured, the spawn tier
    // must size each one-shot pool to the call's plan — one process per
    // planned shard, none for an empty plan or a refused one.
    let dir = std::env::temp_dir().join(format!("osc-shard-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("starts.log");
    let script_path = dir.join("counting_worker.sh");
    let script = format!(
        "#!/bin/sh\necho start >> '{log}'\nexec '{worker}'\n",
        log = log.display(),
        worker = WORKER,
    );
    make_executable(&script_path, &script);
    let starts = || {
        std::fs::read_to_string(&log)
            .map(|s| s.lines().count())
            .unwrap_or(0)
    };

    let system = fig5_system();
    let config = PoolConfig::new(&script_path, 7);
    let batch = |xs: &[f64]| spawn_batch(&config, &system, SngKind::Xoshiro, xs, 64, 1);
    let mut spawn = Executor::Spawn(&config);

    assert_eq!(batch(&[0.25, 0.5, 0.75]).unwrap().len(), 3);
    assert_eq!(starts(), 3, "a 3-item batch spawns 3 workers");

    let image = spawn
        .image(&system, SngKind::Xoshiro, 2, &[0.5; 10], 64, 1, None)
        .unwrap();
    assert_eq!(image.len(), 10);
    assert_eq!(starts(), 3 + 5, "a 5-row image spawns 5 workers");

    assert_eq!(batch(&[]), Ok(Vec::new()));
    assert_eq!(starts(), 8, "an empty batch spawns nothing");

    let ragged = spawn.image(&system, SngKind::Xoshiro, 3, &[0.5; 4], 64, 1, None);
    assert!(
        matches!(ragged, Err(ShardError::InvalidPlan(_))),
        "{ragged:?}"
    );
    assert_eq!(starts(), 8, "a ragged image spawns nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

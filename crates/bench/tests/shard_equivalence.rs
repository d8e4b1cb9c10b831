//! End-to-end process-sharding equivalence: real `shard_worker`
//! subprocesses, spawned by the [`ShardCoordinator`], must reproduce
//! single-process results **byte for byte** — for shard counts
//! {1, 2, 3, 7} (ragged splits included), every SNG kind, and the image
//! pipelines — and fail *as values* when workers die (including a
//! killed-worker recovery case riding the coordinator's retry).
//!
//! Since the pool landed, the coordinator is a one-shot facade over
//! `pool::WorkerPool`, so this suite also pins the pool's spawn /
//! dispatch / retry machinery end to end; the persistent-pool paths
//! (warm caches, kill-mid-stream, cache-miss fallback) live in
//! `pool_equivalence.rs`.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`;
//! the in-memory protocol properties live in
//! `osc-core/tests/shard_equivalence.rs` and
//! `osc-core/tests/protocol_robustness.rs`.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::{run_contrast_sharded, smoothstep_poly};
use osc_apps::gamma_app::{
    apply_optical_lanes, apply_optical_sharded, paper_gamma_polynomial, run_gamma_lanes,
    run_gamma_sharded,
};
use osc_apps::image::Image;
use osc_core::batch::shard::{ShardCoordinator, ShardError, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
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
            let coordinator = ShardCoordinator::new(WORKER, shards).with_worker_threads(1);
            let sharded = coordinator
                .evaluate_many(&system, kind, &xs, 128, 7, None)
                .unwrap();
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
    let in_process =
        apply_optical_lanes(&image, &backend, &BatchEvaluator::with_threads(2)).unwrap();
    for shards in [1usize, 2, 3, 7] {
        let coordinator = ShardCoordinator::new(WORKER, shards);
        let sharded = apply_optical_sharded(&image, &backend, &coordinator).unwrap();
        let identical = sharded
            .pixels()
            .iter()
            .zip(in_process.pixels())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "shards={shards}: sharded image bytes diverged");
        // The derived quality reports agree exactly too.
        let lanes_report =
            run_gamma_lanes(&image, &backend, &BatchEvaluator::with_threads(2)).unwrap();
        let sharded_report = run_gamma_sharded(&image, &backend, &coordinator).unwrap();
        assert_eq!(sharded_report, lanes_report, "shards={shards}");
    }
}

#[test]
fn sharded_contrast_matches_lanes_pipeline() {
    let image = Image::blobs(12, 6);
    let params = CircuitParams::paper_fig7(3, Nanometers::new(0.2));
    let backend = OpticalBackend::new(params, smoothstep_poly(), 512, 5).unwrap();
    let (lanes_img, lanes_mae) =
        osc_apps::contrast::run_contrast_lanes(&image, &backend, &BatchEvaluator::with_threads(2))
            .unwrap();
    let (sharded_img, sharded_mae) =
        run_contrast_sharded(&image, &backend, &ShardCoordinator::new(WORKER, 3)).unwrap();
    assert_eq!(sharded_img, lanes_img);
    assert_eq!(sharded_mae, lanes_mae);
}

#[test]
fn dead_worker_surfaces_a_clean_error_after_retries() {
    // A "worker" that exits immediately without speaking the protocol:
    // the coordinator must detect the failure on every attempt and
    // return a ShardError, never panic or hang.
    let system = fig5_system();
    let xs = [0.25, 0.5, 0.75];
    let coordinator = ShardCoordinator::new("/bin/false", 2).with_retries(1);
    let err = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 64, 1, None)
        .unwrap_err();
    assert!(
        matches!(err, ShardError::Worker { .. }),
        "expected a worker failure, got {err}"
    );
    // A binary that cannot be spawned at all is also a value, and is
    // distinguishable from a worker that launched and then died.
    let coordinator = ShardCoordinator::new("/nonexistent/worker", 2).with_retries(0);
    let err = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 64, 1, None)
        .unwrap_err();
    assert!(matches!(err, ShardError::Spawn { .. }), "{err}");
}

#[test]
fn killed_worker_recovers_on_retry_with_identical_results() {
    // A flaky launcher: the first invocation per marker directory kills
    // itself before speaking the protocol (simulating a worker dying
    // mid-batch); every later invocation execs the real worker. With one
    // retry the coordinator must recover and still produce the exact
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
    std::fs::write(&script_path, script).unwrap();
    let mut perms = std::fs::metadata(&script_path).unwrap().permissions();
    use std::os::unix::fs::PermissionsExt;
    perms.set_mode(0o755);
    std::fs::set_permissions(&script_path, perms).unwrap();

    let system = fig5_system();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 128, 3);
    let coordinator = ShardCoordinator::new(&script_path, 3).with_retries(1);
    let recovered = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 128, 3, None)
        .unwrap();
    assert_eq!(recovered, reference, "recovery must not change results");
    assert!(
        marker_dir.join("died-once").exists(),
        "the flaky launcher should have died exactly once"
    );
    // With retries disabled the same first-death launcher fails cleanly.
    let _ = std::fs::remove_file(marker_dir.join("died-once"));
    let coordinator = ShardCoordinator::new(&script_path, 3).with_retries(0);
    let err = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &xs, 128, 3, None)
        .unwrap_err();
    assert!(matches!(err, ShardError::Worker { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&marker_dir);
}

#[test]
fn remote_evaluation_errors_cross_the_boundary_as_values() {
    // An out-of-range input is rejected by the worker and reported as a
    // remote error (not retried — the answer is deterministic).
    let system = fig5_system();
    let coordinator = ShardCoordinator::new(WORKER, 2);
    let err = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5, 1.5], 64, 1, None)
        .unwrap_err();
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
    let pinned = ShardCoordinator::new(WORKER, 2)
        .with_worker_threads(1)
        .evaluate_many(&system, SngKind::Chaotic, &xs, 256, 11, None)
        .unwrap();
    let free = ShardCoordinator::new(WORKER, 2)
        .evaluate_many(&system, SngKind::Chaotic, &xs, 256, 11, None)
        .unwrap();
    assert_eq!(pinned, free, "OSC_THREADS pinning must be unobservable");
}

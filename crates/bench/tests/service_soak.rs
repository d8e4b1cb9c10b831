//! End-to-end TCP front-door equivalence and lifecycle: a [`Service`]
//! serving real `shard_worker` subprocesses must reproduce in-process
//! results **byte for byte** across connection counts, loop modes,
//! fault injection and replicas — and every lifecycle edge (drain
//! mid-request, overload, client disconnect, pipelined slow
//! responses) must surface as complete responses or clean
//! [`ShardError`] values, never hangs, resets or wrong bytes.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`;
//! the dispatcher's process-level hardening (stalling stubs, kill -9)
//! lives in `osc-core/tests/pool_hardening.rs`.

use osc_bench::soak::{self, LoadConfig, SoakConfig};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::service::{Service, ServiceClient};
use osc_core::batch::shard::{Executor, ShardError, ShardRequest, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::OpticalScSystem;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::XoshiroSng;
use std::time::{Duration, Instant};

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

fn fig5_system() -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap()
}

/// A small fig. 5 batch request, the whole-request unit these
/// lifecycle tests ship.
fn small_request(system: &OpticalScSystem, seed: u64) -> ShardRequest {
    ShardRequest::batch(
        system,
        SngKind::Xoshiro,
        0,
        &[0.15, 0.4, 0.8],
        64,
        seed,
        None,
    )
}

/// The in-process reference for [`small_request`], as estimate bit
/// patterns.
fn reference_bits(system: &OpticalScSystem, seed: u64) -> Vec<u64> {
    BatchEvaluator::with_threads(2)
        .evaluate_many(system, &[0.15, 0.4, 0.8], 64, XoshiroSng::new, seed)
        .unwrap()
        .iter()
        .map(|r| r.estimate.to_bits())
        .collect()
}

fn bits(runs: &[osc_core::system::OpticalRun]) -> Vec<u64> {
    runs.iter().map(|r| r.estimate.to_bits()).collect()
}

/// Binds a service over a fresh pool built from `config`.
fn serve(config: PoolConfig) -> Service {
    let dispatcher = config.spawn_dispatcher().expect("dispatcher spawns");
    Service::bind(("127.0.0.1", 0), dispatcher).expect("service binds an ephemeral port")
}

#[test]
fn service_soak_matches_in_process_bytes() {
    let cfg = SoakConfig {
        requests: 12,
        width: 6,
        height: 4,
        stream: 64,
        ..Default::default()
    };
    let reference = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let service = serve(PoolConfig::new(WORKER, 2));
    let addr = service.local_addr();

    // Closed-loop over 3 connections, then open-loop over 4 — both
    // reassemble to the in-process bytes.
    let closed = soak::run_service(
        &cfg,
        addr,
        &LoadConfig {
            connections: 3,
            open_loop: false,
        },
    )
    .unwrap();
    assert_eq!(closed.bytes, reference.bytes);
    assert_eq!(closed.latencies.len(), cfg.requests);

    let open = soak::run_service(
        &cfg,
        addr,
        &LoadConfig {
            connections: 4,
            open_loop: true,
        },
    )
    .unwrap();
    assert_eq!(open.bytes, reference.bytes);

    // A single-connection Executor::Service client agrees too.
    let mut client = ServiceClient::connect(addr).unwrap();
    let single = soak::run(&cfg, Executor::Service(&mut client)).unwrap();
    assert_eq!(single.bytes, reference.bytes);

    assert_eq!(service.drain(), (cfg.requests * 3) as u64);
}

#[test]
fn nanocavity_service_soak_matches_in_process_bytes() {
    // Cross-service determinism for the non-default backend: the
    // backend tag rides the TCP framing per request, so one service
    // instance answers the nanocavity schedule byte-identically to the
    // in-process pipeline.
    let cfg = SoakConfig {
        requests: 6,
        width: 4,
        height: 3,
        stream: 64,
        backend: BackendKind::Nanocavity,
        ..Default::default()
    };
    let reference = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let service = serve(PoolConfig::new(WORKER, 2));
    let report = soak::run_service(&cfg, service.local_addr(), &LoadConfig::default()).unwrap();
    assert_eq!(report.bytes, reference.bytes);
}

#[test]
fn faulty_service_soak_matches_in_process_bytes() {
    let mut fault = FaultSpec::with_seed(0xFA07);
    fault.flip_probability = 0.05;
    fault.shift_probability = 0.02;
    fault.validate().unwrap();
    let cfg = SoakConfig {
        requests: 8,
        width: 5,
        height: 3,
        stream: 64,
        fault: Some(fault),
        ..Default::default()
    };
    let reference = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let service = serve(PoolConfig::new(WORKER, 2));
    let report = soak::run_service(&cfg, service.local_addr(), &LoadConfig::default()).unwrap();
    assert_eq!(report.bytes, reference.bytes);
}

#[test]
fn two_service_instances_are_byte_identical() {
    // Replica interchangeability: different worker counts, pipeline
    // depths and processes — same request stream, same bytes.
    let cfg = SoakConfig {
        requests: 10,
        width: 4,
        height: 4,
        stream: 64,
        ..Default::default()
    };
    let replica_a = serve(PoolConfig::new(WORKER, 1));
    let replica_b = serve(PoolConfig::new(WORKER, 3).with_pipeline_depth(3));
    let load = LoadConfig::default();
    let a = soak::run_service(&cfg, replica_a.local_addr(), &load).unwrap();
    let b = soak::run_service(&cfg, replica_b.local_addr(), &load).unwrap();
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn drain_completes_in_flight_request() {
    let system = fig5_system();
    let expected = reference_bits(&system, 11);
    // 150 ms of injected service time guarantees the request is still
    // in flight when the drain begins.
    let service = serve(PoolConfig::new(WORKER, 1).with_response_delay(Duration::from_millis(150)));
    let addr = service.local_addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    let request = small_request(&system, 11);
    let (id, runs_expected) = client.send_request(&request).unwrap();

    let drainer = std::thread::spawn(move || {
        // Let the request reach the worker, then drain.
        std::thread::sleep(Duration::from_millis(50));
        service.drain()
    });
    // The client mid-request when shutdown begins still receives its
    // complete, correct response.
    let runs = client.read_response(id, runs_expected).unwrap();
    assert_eq!(bits(&runs), expected);
    assert_eq!(drainer.join().unwrap(), 1);

    // After the drain the listener is closed: new connections are
    // refused (or reset before an answer).
    assert!(
        ServiceClient::connect(addr).is_err() || {
            let mut late = ServiceClient::connect(addr).unwrap();
            late.request(&request).is_err()
        }
    );
}

#[test]
fn overload_past_queue_cap_is_an_error_value() {
    let system = fig5_system();
    let expected = reference_bits(&system, 23);
    // One worker at depth 1 with a 300 ms service time and a queue cap
    // of 1: the first request occupies the worker, the second the
    // queue, the third must be rejected — as a value, not a hang or a
    // reset.
    let service = serve(
        PoolConfig::new(WORKER, 1)
            .with_pipeline_depth(1)
            .with_queue_cap(1)
            .with_response_delay(Duration::from_millis(300)),
    );
    let addr = service.local_addr();
    let results: Vec<Result<Vec<u64>, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let system = &system;
                scope.spawn(move || {
                    // Stagger so arrival order is deterministic.
                    std::thread::sleep(Duration::from_millis(100 * i));
                    let mut client = ServiceClient::connect(addr).unwrap();
                    client.request(&small_request(system, 23)).map(|r| bits(&r))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (ok, err): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
    assert_eq!(ok.len(), 2, "two requests fit (one in flight, one queued)");
    for runs in ok {
        assert_eq!(runs.unwrap(), expected);
    }
    let message = err[0].as_ref().unwrap_err().to_string();
    assert!(
        message.contains("overloaded"),
        "rejection should name the overload: {message}"
    );
}

#[test]
fn client_disconnect_mid_request_does_not_poison_the_worker() {
    let system = fig5_system();
    let expected = reference_bits(&system, 31);
    let service = serve(PoolConfig::new(WORKER, 1).with_response_delay(Duration::from_millis(100)));
    let addr = service.local_addr();
    // Client A walks away mid-request.
    {
        let mut doomed = ServiceClient::connect(addr).unwrap();
        doomed.send_request(&small_request(&system, 99)).unwrap();
    }
    // Client B, pinned to the same single worker, still gets correct
    // bytes on every subsequent request.
    let mut client = ServiceClient::connect(addr).unwrap();
    for _ in 0..3 {
        let runs = client.request(&small_request(&system, 31)).unwrap();
        assert_eq!(bits(&runs), expected);
    }
}

#[test]
fn pipelined_slow_responses_are_not_misattributed() {
    // Satellite-5 pin: with depth-2 pipelining on one worker, two
    // requests are in flight together. The second response lands ~600
    // ms after its submit — past the 500 ms read timeout — but the
    // deadline bounds head-of-line service time, not time since
    // submit, so BOTH must succeed. A per-request-clock dispatcher
    // would misattribute the wait and time the second request out.
    let system = fig5_system();
    let expected = reference_bits(&system, 47);
    let dispatcher = PoolConfig::new(WORKER, 1)
        .with_pipeline_depth(2)
        .with_response_delay(Duration::from_millis(300))
        .with_read_timeout(Duration::from_millis(500))
        .spawn_dispatcher()
        .expect("dispatcher spawns");
    let started = Instant::now();
    let results: Vec<Result<Vec<u64>, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let dispatcher = &dispatcher;
                let system = &system;
                scope.spawn(move || {
                    dispatcher
                        .submit(small_request(system, 47))
                        .map(|r| bits(&r))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    for result in results {
        assert_eq!(result.unwrap(), expected);
    }
    // The worker really did serialize the two delays: the pair cannot
    // finish faster than 2 × 300 ms, so the second response genuinely
    // outlived the 500 ms deadline measured from submit.
    assert!(
        elapsed >= Duration::from_millis(550),
        "expected serialized service times, finished in {elapsed:?}"
    );
}

#[test]
fn a_genuinely_stalled_head_still_times_out() {
    // The converse of the pin above: when the head-of-line response
    // itself exceeds the deadline, the timeout fires and surfaces as a
    // value after retries.
    let system = fig5_system();
    let dispatcher = PoolConfig::new(WORKER, 1)
        .with_response_delay(Duration::from_millis(400))
        .with_read_timeout(Duration::from_millis(50))
        .with_retries(0)
        .spawn_dispatcher()
        .expect("dispatcher spawns");
    let err = dispatcher.submit(small_request(&system, 5)).unwrap_err();
    assert!(
        matches!(err, ShardError::Timeout { .. }),
        "expected a timeout value, got: {err}"
    );
}

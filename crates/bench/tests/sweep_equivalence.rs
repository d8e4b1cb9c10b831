//! Frontier determinism across serving modes: the canonical design-
//! sweep frontier CSV must be **byte-identical** whether candidates are
//! evaluated in-process, through the spawn-per-call tier, through
//! a persistent worker pool (well-sized or deliberately thrashing
//! circuit cache) or over the TCP service front door — for every
//! backend. This is the test half of the CI `design-sweep` job; the
//! job adds the forced-scalar vs detected-dispatch cross-check.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`.

use osc_bench::sweep::{axes_for, frontier_csv, pareto_frontier, DesignSweep};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::service::{Service, ServiceClient};
use osc_core::batch::shard::Executor;
use osc_core::batch::BatchEvaluator;

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

/// Evaluates `sweep` through every serving tier and returns the
/// frontier CSV of each, in-process first.
fn csvs_across_modes(sweep: &DesignSweep) -> Vec<(String, String)> {
    let mut out = Vec::new();

    let evaluator = BatchEvaluator::with_threads(2);
    let points = sweep.evaluate(Executor::InProcess(&evaluator)).unwrap();
    out.push((
        "in-process".to_string(),
        frontier_csv(&pareto_frontier(&points)),
    ));

    let spawn = PoolConfig::new(WORKER, 2);
    let points = sweep.evaluate(Executor::Spawn(&spawn)).unwrap();
    out.push(("spawn".to_string(), frontier_csv(&pareto_frontier(&points))));

    // A pool with the cache sized to the working set, and one whose
    // two-entry cache must thrash on every distinct circuit — cache
    // pressure may cost rebuilds, never bytes.
    for (label, cache) in [("pool-warm", sweep.designs().len()), ("pool-thrash", 2)] {
        let mut pool = PoolConfig::new(WORKER, 3)
            .with_circuit_cache_capacity(cache)
            .spawn()
            .unwrap();
        let points = sweep.evaluate(Executor::Pool(&mut pool)).unwrap();
        out.push((label.to_string(), frontier_csv(&pareto_frontier(&points))));
    }

    let dispatcher = PoolConfig::new(WORKER, 2).spawn_dispatcher().unwrap();
    let service = Service::bind(("127.0.0.1", 0), dispatcher).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let points = sweep.evaluate(Executor::Service(&mut client)).unwrap();
    out.push((
        "service".to_string(),
        frontier_csv(&pareto_frontier(&points)),
    ));
    drop(client);
    service.drain();

    out
}

#[test]
fn frontier_csv_is_byte_identical_across_serving_modes_per_backend() {
    for backend in BackendKind::ALL {
        let sweep = DesignSweep::new(axes_for(24, Some(backend), &[32, 64], 2, 11));
        assert!(
            !sweep.designs().is_empty(),
            "{backend}: no feasible designs"
        );
        let csvs = csvs_across_modes(&sweep);
        let (ref_mode, reference) = &csvs[0];
        assert!(reference.lines().count() > 1, "{backend}: empty frontier");
        for (mode, csv) in &csvs[1..] {
            assert_eq!(
                csv.as_bytes(),
                reference.as_bytes(),
                "{backend}: {mode} frontier differs from {ref_mode}"
            );
        }
    }
}

#[test]
fn mixed_backend_sweep_agrees_across_modes_and_full_point_sets_match() {
    // Both backends in one universe, and compare the *full* evaluated
    // point set bit-for-bit (stronger than the frontier alone: a mode
    // difference in any dominated point would hide behind an identical
    // frontier).
    let sweep = DesignSweep::new(axes_for(32, None, &[32], 2, 23));
    let evaluator = BatchEvaluator::with_threads(2);
    let reference = sweep.evaluate(Executor::InProcess(&evaluator)).unwrap();
    let ref_bits: Vec<u64> = reference
        .iter()
        .map(|p| p.mean_abs_error.to_bits())
        .collect();

    let mut pool = PoolConfig::new(WORKER, 3)
        .with_circuit_cache_capacity(sweep.designs().len())
        .spawn()
        .unwrap();
    let pooled = sweep.evaluate(Executor::Pool(&mut pool)).unwrap();
    let pooled_bits: Vec<u64> = pooled.iter().map(|p| p.mean_abs_error.to_bits()).collect();
    assert_eq!(pooled_bits, ref_bits);

    // A second pass through the same pool hits the warm digest cache
    // and still reproduces the bytes.
    let warm = sweep.evaluate(Executor::Pool(&mut pool)).unwrap();
    let warm_bits: Vec<u64> = warm.iter().map(|p| p.mean_abs_error.to_bits()).collect();
    assert_eq!(warm_bits, ref_bits);

    assert_eq!(
        frontier_csv(&pareto_frontier(&pooled)),
        frontier_csv(&pareto_frontier(&reference))
    );
}

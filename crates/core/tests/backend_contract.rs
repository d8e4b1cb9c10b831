//! The backend contract: every [`ScBackend`] must enjoy the exact same
//! determinism guarantees the MRR/MZI path pinned before the trait
//! existed. One generic harness sweeps each property over **every**
//! shipped backend ([`BackendKind::ALL`]), in clean and
//! noisy receiver regimes:
//!
//! - forced-scalar dispatch ≡ the machine's detected SIMD tier,
//!   word for word, on the lane-blocked kernel;
//! - a present-but-inert fault spec (rate 0) ≡ the clean path,
//!   bit for bit;
//! - any shard partition through the wire-protocol worker loop,
//!   merged in index order, ≡ the single-process batch;
//! - the lane-blocked kernel ≡ standalone per-lane fused runs.
//!
//! A backend that passes this file plugs into the fused, lane-blocked,
//! faulted, batched, sharded, pooled and service paths with no further
//! proof obligations — the system's kernels never ask *which* physics
//! built the tables.

use osc_core::backend::BackendKind;
use osc_core::batch::shard::{
    decode_response_v2, encode_request_v2, read_frame, serve, write_frame, ShardJob, ShardPlan,
    ShardRequest, ShardResponseV2, SngKind,
};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalRun, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::simd::{self, SimdTier};
use osc_stochastic::sng::XoshiroSng;
use osc_units::Milliwatts;

fn poly2() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap()
}

/// Clean and starved-probe systems for one backend. Both backends are
/// deterministic-decision at the paper's probe power and forced onto
/// the uniform-draw tier by the starved probe, so the sweep covers the
/// fast and the randomness-consuming kernel tiers per backend.
fn systems_for(kind: BackendKind) -> Vec<(String, OpticalScSystem)> {
    let params = CircuitParams::paper_fig5().with_backend(kind);
    let clean = OpticalScSystem::new(params, poly2()).unwrap();
    let noisy =
        OpticalScSystem::new(params.with_probe_power(Milliwatts::new(0.05)), poly2()).unwrap();
    assert!(
        !noisy.has_deterministic_decisions(),
        "{kind}: starved probes should need draws"
    );
    vec![
        (format!("{kind}/clean"), clean),
        (format!("{kind}/noisy"), noisy),
    ]
}

/// Runs one 4-lane blocked evaluation under a forced dispatch tier.
fn run_lanes_under_tier(system: &OpticalScSystem, tier: SimdTier, len: usize) -> [OpticalRun; 4] {
    simd::set_tier_override(Some(tier));
    let xs: [f64; 4] = std::array::from_fn(|l| (l as f64 * 0.171 + 0.13) % 1.0);
    let mut sngs: [XoshiroSng; 4] = std::array::from_fn(|l| XoshiroSng::new(41 + l as u64));
    let mut rngs: [Xoshiro256PlusPlus; 4] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(977 + l as u64));
    let mut scratch = EvalScratch::new();
    let runs = system
        .evaluate_fused_lanes(&xs, len, &mut sngs, &mut rngs, &mut scratch)
        .unwrap();
    simd::set_tier_override(None);
    runs
}

#[test]
fn forced_scalar_equals_detected_simd_for_every_backend() {
    for kind in BackendKind::ALL {
        for (label, system) in systems_for(kind) {
            for &len in &[257usize, 4097] {
                assert_eq!(
                    run_lanes_under_tier(&system, SimdTier::Scalar, len),
                    run_lanes_under_tier(&system, simd::detected_tier(), len),
                    "{label}, len {len}"
                );
            }
        }
    }
}

#[test]
fn rate_zero_fault_equals_clean_for_every_backend() {
    // A present-but-inert spec must be unobservable — including the
    // post-run SNG/RNG states, hence the second back-to-back run.
    let inert = FaultSpec::with_seed(0xBEEF);
    assert!(!inert.is_active());
    for kind in BackendKind::ALL {
        for (label, system) in systems_for(kind) {
            for &len in &[100usize, 1027] {
                let mut clean_sng = XoshiroSng::new(5);
                let mut clean_rng = Xoshiro256PlusPlus::new(17);
                let mut faulted_sng = XoshiroSng::new(5);
                let mut faulted_rng = Xoshiro256PlusPlus::new(17);
                let mut scratch = EvalScratch::new();
                for pass in 0..2 {
                    let clean = system
                        .evaluate_fused(0.37, len, &mut clean_sng, &mut clean_rng, &mut scratch)
                        .unwrap();
                    let faulted = system
                        .evaluate_fused_faulted(
                            0.37,
                            len,
                            &mut faulted_sng,
                            &mut faulted_rng,
                            Some(&inert),
                            &mut scratch,
                        )
                        .unwrap();
                    assert_eq!(clean, faulted, "{label}, len {len}, pass {pass}");
                }
            }
        }
    }
}

#[test]
fn sharded_equals_unsharded_for_every_backend() {
    // Every partition of a 13-item batch through the in-memory worker
    // loop must merge to the single-process batch — the wire protocol
    // round-trips the backend tag, the worker rebuilds the same
    // physics, and the shard math is backend-blind.
    let n = 13usize;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    let stream_length = 200usize;
    let seed = 0xBACC;
    for kind in BackendKind::ALL {
        for (label, system) in systems_for(kind) {
            let reference = BatchEvaluator::with_threads(2)
                .evaluate_many(&system, &xs, stream_length, XoshiroSng::new, seed)
                .unwrap();
            for shards in [1usize, 2, 5] {
                let plan = ShardPlan::new(n, shards);
                let mut merged = Vec::with_capacity(n);
                for &(start, len) in plan.ranges() {
                    let req = ShardRequest {
                        params: *system.params(),
                        coeffs: system.polynomial().coeffs().to_vec(),
                        sng: SngKind::Xoshiro,
                        seed,
                        stream_length: stream_length as u64,
                        faults: None,
                        job: ShardJob::Batch {
                            first_index: start as u64,
                            xs: xs[start..start + len].to_vec(),
                        },
                    };
                    let mut input = Vec::new();
                    write_frame(&mut input, &encode_request_v2(&req, 1, None)).unwrap();
                    let mut output = Vec::new();
                    serve(&input[..], &mut output).unwrap();
                    let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
                    match decode_response_v2(&payload).unwrap() {
                        ShardResponseV2::Runs { runs, .. } => merged.extend(runs),
                        other => panic!("{label}: worker error: {other:?}"),
                    }
                }
                assert_eq!(merged, reference, "{label}, shards={shards}");
            }
        }
    }
}

#[test]
fn lane_blocked_equals_per_lane_for_every_backend() {
    for kind in BackendKind::ALL {
        for (label, system) in systems_for(kind) {
            let xs: [f64; 4] = std::array::from_fn(|l| (l as f64 * 0.119 + 0.23) % 1.0);
            let len = 301usize;
            let mut blocked_sngs: [XoshiroSng; 4] =
                std::array::from_fn(|l| XoshiroSng::new(7 + l as u64));
            let mut blocked_rngs: [Xoshiro256PlusPlus; 4] =
                std::array::from_fn(|l| Xoshiro256PlusPlus::new(23 + l as u64));
            let mut scratch = EvalScratch::new();
            let blocked = system
                .evaluate_fused_lanes(&xs, len, &mut blocked_sngs, &mut blocked_rngs, &mut scratch)
                .unwrap();
            for (l, blocked_run) in blocked.iter().enumerate() {
                let mut sng = XoshiroSng::new(7 + l as u64);
                let mut rng = Xoshiro256PlusPlus::new(23 + l as u64);
                let standalone = system
                    .evaluate_fused(xs[l], len, &mut sng, &mut rng, &mut scratch)
                    .unwrap();
                assert_eq!(*blocked_run, standalone, "{label}, lane {l}");
            }
        }
    }
}

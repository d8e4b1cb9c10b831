//! Fault-injection determinism: the fault machinery must be a pure,
//! seeded function of the spec and the stream's global index —
//! invisible at rate zero, bit-identical between the word-parallel
//! path and every dispatch tier and lane width, and independent of how
//! a batch is split across shards.
//!
//! The in-memory wire protocol path is pinned here; the subprocess
//! coordinator and pool are exercised end to end by the `osc-bench`
//! integration suite, which owns the worker binary.

use osc_core::batch::shard::{
    decode_response_v2, encode_request_v2, read_frame, serve, write_frame, ShardJob, ShardPlan,
    ShardRequest, ShardResponseV2, SngKind,
};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::{FaultSpec, StuckAt};
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalRun, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::simd::{self, SimdTier};
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Milliwatts;

fn fig5_poly() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap()
}

fn clean_system() -> OpticalScSystem {
    OpticalScSystem::new(CircuitParams::paper_fig5(), fig5_poly()).unwrap()
}

/// Starved probes force non-deterministic fold decisions, so the
/// uniform-draw kernel tier (whose RNG consumption order is part of
/// the determinism contract) runs on every cycle.
fn noisy_system() -> OpticalScSystem {
    let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
    let system = OpticalScSystem::new(params, fig5_poly()).unwrap();
    assert!(!system.has_deterministic_decisions());
    system
}

/// An active spec exercising all three fault mechanisms.
fn active_spec() -> FaultSpec {
    let mut spec = FaultSpec::with_seed(0xFA17);
    spec.flip_probability = 0.03;
    spec.shift_probability = 0.002;
    spec.stuck = Some(StuckAt {
        mask: 1 << 7,
        value: 1 << 7,
    });
    spec
}

fn batch_runs(
    system: &OpticalScSystem,
    kind: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Vec<OpticalRun> {
    let ev = BatchEvaluator::with_threads(2);
    match kind {
        SngKind::Lfsr => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            |s| LfsrSng::new(16, s as u32).unwrap(),
            seed,
            0,
            faults,
        ),
        SngKind::Counter => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            |_| CounterSng::new(),
            seed,
            0,
            faults,
        ),
        SngKind::Xoshiro => {
            ev.evaluate_range_faulted(system, xs, stream_length, XoshiroSng::new, seed, 0, faults)
        }
        SngKind::Chaotic => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            ChaoticLaserSng::seeded,
            seed,
            0,
            faults,
        ),
    }
    .unwrap()
}

#[test]
fn rate_zero_is_bit_identical_to_clean_for_all_sngs_and_regimes() {
    // A present-but-inert spec (both rates 0, no stuck mask) must be
    // indistinguishable from no spec at all: the fault hooks may not
    // consume RNG state, reorder draws or touch a single bit.
    let inert = FaultSpec::with_seed(0xDEAD);
    assert!(!inert.is_active());
    let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for kind in SngKind::ALL {
            for &len in &[63usize, 257, 1024] {
                let clean = batch_runs(&system, kind, &xs, len, 7, None);
                let zeroed = batch_runs(&system, kind, &xs, len, 7, Some(&inert));
                assert_eq!(clean, zeroed, "{label} {} len={len}", kind.name());
            }
        }
    }
}

#[test]
fn active_faults_change_results_and_are_reproducible() {
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let system = clean_system();
    let spec = active_spec();
    let clean = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, None);
    let faulted = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&spec));
    assert_ne!(clean, faulted, "an active spec must perturb the output");
    let again = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&spec));
    assert_eq!(faulted, again, "the fault universe is seeded, not random");
    // A different fault seed is a different universe over the same
    // circuit universe.
    let mut reseeded = spec;
    reseeded.flip_seed ^= 1;
    let other = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&reseeded));
    assert_ne!(faulted, other);
}

/// Per-lane faulted fused runs — the scalar reference the lane-blocked
/// kernel must reproduce bit for bit.
fn per_lane_reference<const L: usize>(
    system: &OpticalScSystem,
    xs: &[f64; L],
    len: usize,
    specs: &[FaultSpec; L],
) -> Vec<OpticalRun> {
    let mut scratch = EvalScratch::new();
    (0..L)
        .map(|l| {
            let mut sng = XoshiroSng::new(40 + l as u64);
            let mut rng = Xoshiro256PlusPlus::new(90 + l as u64);
            system
                .evaluate_fused_faulted(
                    xs[l],
                    len,
                    &mut sng,
                    &mut rng,
                    Some(&specs[l]),
                    &mut scratch,
                )
                .unwrap()
        })
        .collect()
}

fn lane_block_runs<const L: usize>(
    system: &OpticalScSystem,
    xs: &[f64; L],
    len: usize,
    specs: &[FaultSpec; L],
) -> [OpticalRun; L] {
    let mut sngs: [XoshiroSng; L] = std::array::from_fn(|l| XoshiroSng::new(40 + l as u64));
    let mut rngs: [Xoshiro256PlusPlus; L] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(90 + l as u64));
    let mut scratch = EvalScratch::new();
    system
        .evaluate_fused_lanes_faulted(xs, len, &mut sngs, &mut rngs, Some(specs), &mut scratch)
        .unwrap()
}

#[test]
fn lane_blocked_faulted_equals_per_lane_faulted() {
    // The word-parallel faulted lane kernel against L standalone
    // faulted fused passes, with a distinct spec per lane — clean and
    // noisy, at lengths covering ragged tails and multi-kilobit streams.
    let base = active_spec();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[63usize, 257, 1024, 8257] {
            {
                const L: usize = 4;
                let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
                let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
                let blocked = lane_block_runs::<L>(&system, &xs, len, &specs);
                let reference = per_lane_reference::<L>(&system, &xs, len, &specs);
                assert_eq!(blocked.to_vec(), reference, "{label} L=4 len={len}");
            }
            {
                const L: usize = 8;
                let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
                let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
                let blocked = lane_block_runs::<L>(&system, &xs, len, &specs);
                let reference = per_lane_reference::<L>(&system, &xs, len, &specs);
                assert_eq!(blocked.to_vec(), reference, "{label} L=8 len={len}");
            }
        }
    }
}

#[test]
fn faulted_lanes_agree_across_dispatch_tiers() {
    // The faulted 8-lane workload under forced-scalar, forced-AVX2 and
    // the machine's detected tier must produce identical runs. (Safe
    // under parallel tests: every tier is bit-identical by contract,
    // so racing tests only vary which implementation runs.)
    let base = active_spec();
    const L: usize = 8;
    let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
    let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[257usize, 4097] {
            let run_under = |tier: SimdTier| {
                simd::set_tier_override(Some(tier));
                let runs = lane_block_runs::<L>(&system, &xs, len, &specs);
                simd::set_tier_override(None);
                runs
            };
            let scalar = run_under(SimdTier::Scalar);
            for tier in [SimdTier::Avx2, simd::detected_tier()] {
                assert_eq!(scalar, run_under(tier), "{label} len={len} {tier:?}");
            }
        }
    }
}

#[test]
fn batch_splits_rebase_faults_by_global_index() {
    // Splitting a faulted batch at any point and evaluating the pieces
    // with `evaluate_range_faulted` must reproduce the whole-batch
    // bytes: the fault universe of item i depends only on its global
    // index, never on which range (or process) evaluates it.
    let system = clean_system();
    let spec = active_spec();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    let ev = BatchEvaluator::with_threads(2);
    let whole = ev
        .evaluate_range_faulted(&system, &xs, 256, XoshiroSng::new, 7, 0, Some(&spec))
        .unwrap();
    for split in [1usize, 4, 8, 10] {
        let mut merged = ev
            .evaluate_range_faulted(
                &system,
                &xs[..split],
                256,
                XoshiroSng::new,
                7,
                0,
                Some(&spec),
            )
            .unwrap();
        merged.extend(
            ev.evaluate_range_faulted(
                &system,
                &xs[split..],
                256,
                XoshiroSng::new,
                7,
                split as u64,
                Some(&spec),
            )
            .unwrap(),
        );
        assert_eq!(merged, whole, "split at {split}");
    }
}

/// Runs one faulted request through the in-memory worker loop.
fn serve_one(req: &ShardRequest) -> Vec<OpticalRun> {
    let mut input = Vec::new();
    write_frame(&mut input, &encode_request_v2(req, 1, None)).unwrap();
    let mut output = Vec::new();
    serve(&input[..], &mut output).unwrap();
    let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
    match decode_response_v2(&payload).unwrap() {
        ShardResponseV2::Runs { runs, .. } => runs,
        other => panic!("worker error: {other:?}"),
    }
}

#[test]
fn in_memory_sharded_faults_are_identical_across_shard_counts() {
    // Any ShardPlan partition of a faulted batch, served shard by shard
    // through the wire protocol and merged in index order, must equal the
    // unsharded faulted reference — the acceptance shard counts plus
    // degenerate ones.
    let spec = active_spec();
    let xs: Vec<f64> = (0..23).map(|i| i as f64 / 22.0).collect();
    let n = xs.len();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        let reference = batch_runs(&system, SngKind::Xoshiro, &xs, 192, 7, Some(&spec));
        for shards in [1usize, 2, 3, 7, n, n + 5] {
            let plan = ShardPlan::new(n, shards);
            let mut merged = Vec::with_capacity(n);
            for &(start, len) in plan.ranges() {
                let req = ShardRequest {
                    params: *system.params(),
                    coeffs: system.polynomial().coeffs().to_vec(),
                    sng: SngKind::Xoshiro,
                    seed: 7,
                    stream_length: 192,
                    faults: Some(spec),
                    job: ShardJob::Batch {
                        first_index: start as u64,
                        xs: xs[start..start + len].to_vec(),
                    },
                };
                merged.extend(serve_one(&req));
            }
            assert_eq!(merged, reference, "{label} shards={shards}");
        }
    }
}

#[test]
fn in_memory_sharded_image_faults_are_identical_across_shard_counts() {
    // The image job rebases the spec by row and then by column; the
    // result must not depend on how rows are split across shards.
    let spec = active_spec();
    let (width, height) = (9usize, 8);
    let pixels: Vec<f64> = (0..width * height)
        .map(|i| i as f64 / (width * height) as f64)
        .collect();
    let system = clean_system();
    let make_req = |first_row: usize, rows: &[f64]| ShardRequest {
        params: *system.params(),
        coeffs: system.polynomial().coeffs().to_vec(),
        sng: SngKind::Xoshiro,
        seed: 5,
        stream_length: 128,
        faults: Some(spec),
        job: ShardJob::ImageRows {
            width: width as u64,
            first_row: first_row as u64,
            pixels: rows.to_vec(),
        },
    };
    let whole = serve_one(&make_req(0, &pixels));
    for shards in [2usize, 3, 7] {
        let plan = ShardPlan::new(height, shards);
        let mut merged = Vec::with_capacity(width * height);
        for &(start, len) in plan.ranges() {
            merged.extend(serve_one(&make_req(
                start,
                &pixels[start * width..(start + len) * width],
            )));
        }
        assert_eq!(merged, whole, "image shards={shards}");
    }
}

#[test]
fn flip_density_tracks_the_requested_rate() {
    // Flips applied to an all-zero stream leave exactly the flipped
    // bits set, so the ones-count is a Binomial(n, p) draw from the
    // seeded fault universe: check it lands within ±5σ for a spread of
    // rates and streams, and that disjoint streams flip independently
    // (different universes).
    for &p in &[0.01f64, 0.05, 0.2] {
        let spec = FaultSpec::flips(p, 0xF00D);
        let bits = 1 << 16;
        let words = bits / 64;
        let mut tmp = Vec::new();
        let mut counts = Vec::new();
        for stream in 0..4u64 {
            let mut buf = vec![0u64; words];
            spec.apply_to_words(stream, &mut buf, 0, 1, bits, &mut tmp);
            counts.push(buf.iter().map(|w| w.count_ones() as u64).sum::<u64>());
        }
        let sigma = (bits as f64 * p * (1.0 - p)).sqrt();
        for (stream, &ones) in counts.iter().enumerate() {
            let dev = (ones as f64 - bits as f64 * p).abs();
            assert!(
                dev < 5.0 * sigma,
                "rate {p} stream {stream}: {ones} ones, deviation {dev:.1} vs σ={sigma:.1}"
            );
        }
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "distinct streams must draw from distinct fault universes"
        );
    }
}

/// Eight lane specs covering every branch of the lane-block fault hook:
/// five different flip rates the vector loop draws together (riding
/// with shifts and stuck-at on some lanes), a clean lane, `p = 1` (every
/// bit flips, no draws) and `p = 1e-300` (an infinite `1/ln(1-p)`, left
/// to the scalar loop).
fn mixed_specs() -> [FaultSpec; 8] {
    let base = active_spec();
    let with = |flip: f64, shift: f64, stuck: Option<StuckAt>, salt: u64| FaultSpec {
        flip_probability: flip,
        shift_probability: shift,
        stuck,
        ..base.rebased(salt)
    };
    [
        base,
        FaultSpec::CLEAN,
        with(0.2, 0.01, None, 2),
        with(1.0, 0.0, None, 3),
        with(1e-300, 0.0, None, 4),
        with(
            0.05,
            0.0,
            Some(StuckAt {
                mask: 0xF0,
                value: 0x30,
            }),
            5,
        ),
        with(0.001, 0.0, None, 6),
        with(0.1, 0.05, None, 7),
    ]
}

/// The spec blocks a lane width is tested with: every rotation of
/// [`mixed_specs`] that lands a different spec in lane 0, plus one block
/// whose lanes share a rate (the common image case).
fn spec_blocks<const L: usize>() -> Vec<[FaultSpec; L]> {
    let mixed = mixed_specs();
    let mut blocks: Vec<[FaultSpec; L]> = (0..8)
        .step_by(L)
        .map(|rot| std::array::from_fn(|l| mixed[(l + rot) % 8]))
        .collect();
    blocks.push(std::array::from_fn(|l| active_spec().rebased(l as u64)));
    blocks
}

const TIERS: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];
const LENGTHS: [usize; 6] = [1, 63, 64, 65, 2048, 4097];

fn lane_block_pass_matches_bit_twin<const L: usize>(blocks: Vec<[FaultSpec; L]>) {
    let mut rng = Xoshiro256PlusPlus::new(0xB10C + L as u64);
    for specs in blocks {
        for len in LENGTHS {
            let words: Vec<u64> = (0..len.div_ceil(64) * L).map(|_| rng.next_u64()).collect();
            let lane_bits = |words: &[u64], l: usize| -> Vec<bool> {
                (0..len)
                    .map(|i| (words[(i / 64) * L + l] >> (i % 64)) & 1 == 1)
                    .collect()
            };
            let mut per_lane = words.clone();
            for (l, spec) in specs.iter().enumerate() {
                spec.apply_to_words(5, &mut per_lane, l, L, len, &mut Vec::new());
            }
            for tier in TIERS {
                let granted = simd::set_tier_override(Some(tier));
                let mut block = words.clone();
                osc_core::fault::apply_to_lane_block(&specs, 5, &mut block, len);
                simd::set_tier_override(None);
                assert_eq!(block, per_lane, "L={L} len={len} {granted:?}");
                for (l, spec) in specs.iter().enumerate() {
                    let mut twin = lane_bits(&words, l);
                    spec.apply_to_bits(5, &mut twin);
                    assert_eq!(lane_bits(&block, l), twin, "L={L} len={len} lane {l}");
                }
            }
        }
    }
}

#[test]
fn lane_block_fault_pass_matches_the_bit_twin_per_lane() {
    // The lane-block hook (one vector flip pass for the eligible lanes)
    // against per-lane `apply_to_words` and the per-bit reference, with
    // mixed per-lane rates, under every dispatch tier.
    lane_block_pass_matches_bit_twin::<1>(spec_blocks());
    lane_block_pass_matches_bit_twin::<2>(spec_blocks());
    lane_block_pass_matches_bit_twin::<4>(spec_blocks());
    lane_block_pass_matches_bit_twin::<8>(spec_blocks());
}

/// A shift-only spec at rate `shift` in its own universe.
fn shift_spec(shift: f64, salt: u64) -> FaultSpec {
    FaultSpec {
        flip_probability: 0.0,
        shift_probability: shift,
        ..active_spec().rebased(0x5817 + salt)
    }
}

/// Eight shift processes covering every branch of the vector shift
/// pass: light rates the event engine draws and splices together, 0.03
/// (about 61 zeros at 2048 bits, near the per-lane cap), 0.05 and 0.5
/// (past the cap from about 1300 bits on, so those lanes fall back to
/// the scalar splice), `p = 1` (`Every`: a zero before every bit, no
/// draws) and rate 0 (`Never`), one lane also flipping.
fn shift_specs() -> [FaultSpec; 8] {
    [
        shift_spec(0.001, 0),
        shift_spec(0.05, 1),
        shift_spec(0.002, 2),
        shift_spec(1.0, 3),
        shift_spec(0.03, 4),
        shift_spec(0.0, 5),
        shift_spec(0.5, 6),
        FaultSpec {
            flip_probability: 0.01,
            ..shift_spec(0.004, 7)
        },
    ]
}

/// Shift-heavy blocks for lane width `L`: every rotation of
/// [`shift_specs`], and for `L >= 4` one block with exactly three
/// eligible (geometric) shift lanes, below the vector engine's minimum,
/// and one with exactly four.
fn shift_blocks<const L: usize>() -> Vec<[FaultSpec; L]> {
    let specs = shift_specs();
    let mut blocks: Vec<[FaultSpec; L]> = (0..8)
        .map(|rot| std::array::from_fn(|l| specs[(l + rot) % 8]))
        .collect();
    if L >= 4 {
        for eligible in [3, 4] {
            blocks.push(std::array::from_fn(|l| {
                if l < eligible {
                    shift_spec(0.001 * (l + 1) as f64, 10 + l as u64)
                } else if l % 2 == 0 {
                    shift_spec(1.0, 10 + l as u64)
                } else {
                    FaultSpec::CLEAN
                }
            }));
        }
    }
    blocks
}

#[test]
fn shift_heavy_lane_blocks_match_the_bit_twin_per_lane() {
    // The vector shift pass (one engine draw for all eligible lanes, one
    // top-down splice) against per-lane `apply_to_words` and the per-bit
    // reference: lanes past the per-lane event cap, `Every` and `Never`
    // lanes among geometric ones, three vs four eligible lanes, at
    // L = 1/2/4/8 under every dispatch tier.
    lane_block_pass_matches_bit_twin::<1>(shift_blocks());
    lane_block_pass_matches_bit_twin::<2>(shift_blocks());
    lane_block_pass_matches_bit_twin::<4>(shift_blocks());
    lane_block_pass_matches_bit_twin::<8>(shift_blocks());
}

fn mixed_lane_blocks_match_per_lane_runs<const L: usize>(system: &OpticalScSystem, label: &str) {
    let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
    for specs in spec_blocks::<L>() {
        for len in LENGTHS {
            let reference = per_lane_reference::<L>(system, &xs, len, &specs);
            for tier in TIERS {
                let granted = simd::set_tier_override(Some(tier));
                let blocked = lane_block_runs::<L>(system, &xs, len, &specs);
                simd::set_tier_override(None);
                assert_eq!(
                    blocked.to_vec(),
                    reference,
                    "{label} L={L} len={len} {granted:?}"
                );
            }
        }
    }
}

#[test]
fn mixed_rate_lane_blocks_equal_per_lane_faulted_runs() {
    // Every faulted lane test above shares one rate across the block;
    // here the lanes differ (five rates, clean, p = 1, p = 1e-300), at
    // L = 1/2/4/8, ragged and multi-word lengths, every tier.
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        mixed_lane_blocks_match_per_lane_runs::<1>(&system, label);
        mixed_lane_blocks_match_per_lane_runs::<2>(&system, label);
        mixed_lane_blocks_match_per_lane_runs::<4>(&system, label);
        mixed_lane_blocks_match_per_lane_runs::<8>(&system, label);
    }
}

#[test]
fn marked_shift_zeros_are_the_fault_events_positions() {
    // The shift mode of the shared vector engine against the library's
    // own scalar process, `FaultEvents`, lane by lane: a zero marked at
    // output position `z` after `k` earlier zeros is event `z - k`.
    let gap = |u: f64, inv_log_q: f64| {
        let y = ((1.0 - u).ln() * inv_log_q).floor();
        if y.is_finite() && y < u64::MAX as f64 {
            y as u64
        } else {
            u64::MAX
        }
    };
    let rates = [0.001, 0.002, 0.01, 0.03, 0.05, 0.3, 1e-4, 0.004];
    for len in LENGTHS {
        let seeds: [u64; 8] = std::array::from_fn(|l| 0x5EED + (len * 8 + l) as u64);
        let inv_log_q = rates.map(|p: f64| 1.0 / (1.0 - p).ln());
        let mut marks = vec![0u64; len.div_ceil(64) * 8];
        let sink = simd::EventSink::Zeros(&mut marks);
        let Some(counts) = simd::geometric_event_lanes(&seeds, &inv_log_q, 0xFF, len, gap, sink)
        else {
            eprintln!("vector event engine unavailable: nothing to compare");
            return;
        };
        for (l, (&seed, &p)) in seeds.iter().zip(&rates).enumerate() {
            let mut events = osc_core::fault::FaultEvents::new(seed, p);
            let want: Vec<usize> = std::iter::from_fn(|| events.next_event(len))
                .enumerate()
                .map(|(k, e)| e + k)
                .take_while(|&z| z < len)
                .collect();
            if want.len() > simd::MAX_SPLICE_ZEROS {
                assert_eq!(counts[l], simd::MAX_SPLICE_ZEROS + 1, "len={len} lane {l}");
                continue;
            }
            let marked: Vec<usize> = (0..len)
                .filter(|&b| marks[(b / 64) * 8 + l] >> (b % 64) & 1 == 1)
                .collect();
            assert_eq!(marked, want, "len={len} lane {l}");
        }
    }
}

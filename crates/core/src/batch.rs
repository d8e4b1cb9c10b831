//! Batched, multi-threaded evaluation of many stochastic runs.
//!
//! The paper's Section V.C scale-out argument is spatial: many identical
//! optical lanes working on independent stream segments. This module is
//! the software mirror of that argument — a [`BatchEvaluator`] fans a set
//! of independent evaluations (many `x` values, many seeds, many image
//! pixels) across OS threads with dynamic load balancing, keeping results
//! **bit-reproducible regardless of thread count**.
//!
//! # Determinism contract
//!
//! Every work item `i` derives its own RNG universe from
//! [`mix_seed`]`(seed, i)` — a SplitMix64-style avalanche of the batch
//! seed and the item index — so the value computed for item `i` depends
//! only on `(seed, i)`, never on which worker ran it or how the batch was
//! chunked. The property tests pin `threads = 1` against `threads = N`.
//!
//! Within one process the evaluator uses plain `std::thread::scope`
//! workers claiming shrinking index ranges from an atomic cursor (guided
//! self-scheduling): no external dependencies, no pool to shut down, and
//! load balance down to single items at the end of a batch.

use crate::fault::FaultSpec;
use crate::system::{EvalScratch, OpticalRun, OpticalScSystem};
use crate::CircuitError;
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::simd;
use osc_stochastic::sng::StochasticNumberGenerator;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod shard;

/// Environment variable pinning the [`BatchEvaluator::new`] worker-thread
/// count (clamped to at least 1). CI jobs and shard worker processes use
/// it to control per-process parallelism without touching call sites;
/// results are thread-count-invariant either way.
pub const THREADS_ENV: &str = "OSC_THREADS";

/// Mixes a batch seed with a work-item index into an independent stream
/// seed (SplitMix64 finalizer — full avalanche, so neighbouring indices
/// share no low-bit structure the way `seed ^ (i << 32)` did).
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decomposes `n` consecutive work items into the lane-block widths the
/// fused kernel monomorphizes (8, then 4, 2, 1), widest first — except
/// on the scalar SIMD tier, where every block is a single lane: with no
/// vector engine behind the `[u64; L]` lock-step walk, wide blocks only
/// thrash L generator states through one scalar pipe (pr5's
/// forced-scalar records measured 0.79–0.85× of sequential runs). Each
/// returned `(start, width)` covers items `start..start + width`.
///
/// This is the shared chunking rule of every lane-blocked caller —
/// [`BatchEvaluator::evaluate_many`] and the image pipelines — so their
/// per-item results stay bit-identical to unblocked evaluation no
/// matter how `n` decomposes; block shape
/// (like the dispatch tier itself) is unobservable in results, so
/// consulting [`simd::active_tier`] here cannot break the determinism
/// contract.
pub fn lane_blocks(n: usize) -> Vec<(usize, usize)> {
    lane_blocks_for_tier(simd::active_tier(), n)
}

/// [`lane_blocks`] with the dispatch tier made explicit (tests pin both
/// shapes regardless of the machine they run on).
pub fn lane_blocks_for_tier(tier: simd::SimdTier, n: usize) -> Vec<(usize, usize)> {
    if tier == simd::SimdTier::Scalar {
        return (0..n).map(|i| (i, 1)).collect();
    }
    let mut out = Vec::with_capacity(n.div_ceil(8) + 2);
    let mut start = 0;
    while start < n {
        let rem = n - start;
        let width = match rem {
            8.. => 8,
            4..=7 => 4,
            2..=3 => 2,
            _ => 1,
        };
        out.push((start, width));
        start += width;
    }
    out
}

/// Seed salt deriving a work item's receiver-noise stream from its SNG
/// seed: `rng = Xoshiro256PlusPlus::new(mix_seed(item_seed,
/// NOISE_SEED_SALT))`. Every lane-blocked caller — this module and the
/// image pipelines — shares this one constant so their generator
/// universes stay mutually consistent.
pub const NOISE_SEED_SALT: u64 = 0x0A11_D1CE;

/// Evaluates one lane block of consecutive work items through
/// [`OpticalScSystem::evaluate_fused_lanes_faulted`]: item `l` evaluates
/// `xs[l]` with SNG `sng_factory(lane_seed(l))` and receiver noise
/// seeded `mix_seed(lane_seed(l), `[`NOISE_SEED_SALT`]`)`. The single
/// dispatch point every lane-blocked caller shares — per item the
/// result is bit-identical to a standalone fused evaluation with the
/// same seeds.
///
/// `lane_fault(l)`, when given, supplies lane `l`'s **item-level**
/// [`FaultSpec`] (callers derive it from the same global index their
/// `lane_seed` derivation uses, e.g. `spec.rebased(first_index + start
/// + l)` for flat batches and `spec.rebased(row).rebased(col)` for
/// image pixels), mirroring the SNG seed contract so faulty results
/// stay invariant under blocking, threading and sharding. Clean
/// callers pass `None::<fn(usize) -> FaultSpec>`.
///
/// # Panics
///
/// Panics if `xs.len()` is not one of the [`lane_blocks`] widths
/// (1, 2, 4 or 8).
///
/// # Errors
///
/// Propagates evaluation failures (e.g. an `xs[l]` outside `[0, 1]`).
pub fn evaluate_lane_block<S, F, G, H>(
    system: &OpticalScSystem,
    xs: &[f64],
    stream_length: usize,
    sng_factory: &F,
    lane_seed: G,
    lane_fault: Option<H>,
    scratch: &mut EvalScratch,
) -> Result<Vec<OpticalRun>, CircuitError>
where
    S: StochasticNumberGenerator,
    F: Fn(u64) -> S,
    G: Fn(usize) -> u64,
    H: Fn(usize) -> FaultSpec,
{
    match xs.len() {
        8 => eval_lane_block::<8, S, _, _, _>(
            system,
            xs,
            stream_length,
            sng_factory,
            lane_seed,
            lane_fault,
            scratch,
        ),
        4 => eval_lane_block::<4, S, _, _, _>(
            system,
            xs,
            stream_length,
            sng_factory,
            lane_seed,
            lane_fault,
            scratch,
        ),
        2 => eval_lane_block::<2, S, _, _, _>(
            system,
            xs,
            stream_length,
            sng_factory,
            lane_seed,
            lane_fault,
            scratch,
        ),
        1 => eval_lane_block::<1, S, _, _, _>(
            system,
            xs,
            stream_length,
            sng_factory,
            lane_seed,
            lane_fault,
            scratch,
        ),
        n => panic!("lane block width {n} is not a lane_blocks width (1, 2, 4 or 8)"),
    }
}

/// The monomorphized body of [`evaluate_lane_block`].
fn eval_lane_block<const L: usize, S, F, G, H>(
    system: &OpticalScSystem,
    xs: &[f64],
    stream_length: usize,
    sng_factory: &F,
    lane_seed: G,
    lane_fault: Option<H>,
    scratch: &mut EvalScratch,
) -> Result<Vec<OpticalRun>, CircuitError>
where
    S: StochasticNumberGenerator,
    F: Fn(u64) -> S,
    G: Fn(usize) -> u64,
    H: Fn(usize) -> FaultSpec,
{
    debug_assert_eq!(xs.len(), L);
    let block: [f64; L] = std::array::from_fn(|l| xs[l]);
    let mut sngs: [S; L] = std::array::from_fn(|l| sng_factory(lane_seed(l)));
    let mut rngs: [Xoshiro256PlusPlus; L] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(mix_seed(lane_seed(l), NOISE_SEED_SALT)));
    let faults: Option<[FaultSpec; L]> = lane_fault.map(std::array::from_fn);
    Ok(system
        .evaluate_fused_lanes_faulted(
            &block,
            stream_length,
            &mut sngs,
            &mut rngs,
            faults.as_ref(),
            scratch,
        )?
        .to_vec())
}

/// A guided self-scheduling parallel evaluator with a fixed thread
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvaluator {
    threads: usize,
}

impl Default for BatchEvaluator {
    fn default() -> Self {
        BatchEvaluator::new()
    }
}

impl BatchEvaluator {
    /// Creates an evaluator sized to the machine's available parallelism,
    /// unless the [`THREADS_ENV`] (`OSC_THREADS`) environment variable
    /// pins an explicit count (non-numeric or zero values are ignored).
    /// The choice only affects wall-clock: results are identical for
    /// every thread count.
    pub fn new() -> Self {
        let pinned = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = pinned.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        BatchEvaluator { threads }
    }

    /// Creates an evaluator with an explicit thread count (`0` is treated
    /// as `1`). Results are identical for every choice — only wall-clock
    /// changes.
    pub fn with_threads(threads: usize) -> Self {
        BatchEvaluator {
            threads: threads.max(1),
        }
    }

    /// The worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deterministic indexed parallel map: applies `f(i, &items[i])` for
    /// every item and returns results in input order. `f` must derive any
    /// randomness it needs from `i` (e.g. via [`mix_seed`]) for the
    /// thread-count-independence contract to hold.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.par_map_with(items, || (), |(), i, t| f(i, t))
    }

    /// [`BatchEvaluator::par_map`] with worker-local state: each worker
    /// builds one `state = init()` when it starts and threads it through
    /// every item it processes. This is how per-worker scratch (e.g.
    /// [`EvalScratch`]) is reused across items without locking or
    /// per-item allocation. For the determinism contract, `state` must
    /// never leak information between items — scratch buffers that are
    /// fully rewritten per item qualify.
    ///
    /// Workers claim index ranges by **guided self-scheduling**: each
    /// claim takes `⌈remaining / (2 · workers)⌉` items (at least one)
    /// from a shared atomic cursor. A 64-row frame on two workers claims
    /// 16, 12, 9, 7, … rows and ends on single rows, so neither worker
    /// sits idle while the other finishes a long range; a 4096-pixel map
    /// still costs only a few dozen cursor updates.
    pub fn par_map_with<T, U, W, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers == 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        // Guided self-scheduling: each claim takes ⌈remaining / (2 ·
        // workers)⌉ items (at least 1) from a shared cursor. Early claims
        // are large, so the cursor is touched O(workers · log n) times;
        // the last claims are single items, so no worker idles while
        // another finishes a long chunk.
        let claim = |start: usize| (n - start).div_ceil(2 * workers);
        let cursor = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, U)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let f = &f;
                let init = &init;
                handles.push(scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, U)> = Vec::new();
                    while let Ok(start) =
                        cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |start| {
                            (start < n).then(|| start + claim(start))
                        })
                    {
                        let end = start + claim(start);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((i, f(&mut state, i, item)));
                        }
                    }
                    local
                }));
            }
            for h in handles {
                tagged.extend(h.join().expect("batch worker panicked"));
            }
        });
        tagged.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(tagged.len(), n);
        tagged.into_iter().map(|(_, u)| u).collect()
    }

    /// Evaluates the system at every `x` in `xs`, each run on independent
    /// SNG/noise streams derived from `(seed, index)`.
    ///
    /// Consecutive items run through the lane-blocked fused kernel
    /// ([`OpticalScSystem::evaluate_fused_lanes`]) in groups of 8/4/2/1
    /// ([`lane_blocks`]), with one [`EvalScratch`] per worker — no stream
    /// allocation anywhere in the batch. Lane-blocking changes nothing
    /// observable: each item's run is bit-identical to a standalone
    /// [`OpticalScSystem::evaluate`] with the same `(seed, index)`
    /// derivation, for every batch size and thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure (by index order).
    pub fn evaluate_many<S, F>(
        &self,
        system: &OpticalScSystem,
        xs: &[f64],
        stream_length: usize,
        sng_factory: F,
        seed: u64,
    ) -> Result<Vec<OpticalRun>, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        self.evaluate_range_faulted(system, xs, stream_length, sng_factory, seed, 0, None)
    }

    /// [`BatchEvaluator::evaluate_many`] for a contiguous *slice of a
    /// larger batch*, optionally under a batch-level [`FaultSpec`]. Item
    /// `i` of `xs` derives its generators from
    /// `mix_seed(seed, first_index + i)` and perturbs its streams with
    /// `faults.rebased(first_index + i)` — the global index in both
    /// cases. This is the primitive the process-sharding layer
    /// ([`shard`]) runs inside each worker: a shard covering global
    /// indices `[a, b)` passes `first_index = a` and reproduces exactly
    /// the runs — faulty or clean — a single-process evaluation of the
    /// whole batch produces at those indices. `first_index` 0 with
    /// `faults: None` is [`BatchEvaluator::evaluate_many`].
    ///
    /// # Errors
    ///
    /// Rejects an invalid spec ([`FaultSpec::validate`]) before any
    /// evaluation; otherwise propagates the first evaluation failure.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_range_faulted<S, F>(
        &self,
        system: &OpticalScSystem,
        xs: &[f64],
        stream_length: usize,
        sng_factory: F,
        seed: u64,
        first_index: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<Vec<OpticalRun>, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        if let Some(spec) = faults {
            spec.validate()
                .map_err(|e| CircuitError::InvalidStructure(format!("invalid fault spec: {e}")))?;
        }
        let blocks = lane_blocks(xs.len());
        let nested = self.par_map_with(&blocks, EvalScratch::new, |scratch, _, &(start, width)| {
            // Invalid inputs need no special casing: the lane kernel
            // checks every lane's x in index order before consuming any
            // randomness, so a block with a bad input fails with exactly
            // the error (and at exactly the index) the unblocked path
            // would surface.
            evaluate_lane_block(
                system,
                &xs[start..start + width],
                stream_length,
                &sng_factory,
                |l| mix_seed(seed, first_index + (start + l) as u64),
                faults.map(|spec| move |l: usize| spec.rebased(first_index + (start + l) as u64)),
                scratch,
            )
        });
        let mut out = Vec::with_capacity(xs.len());
        for block in nested {
            out.extend(block?);
        }
        Ok(out)
    }

    /// Evaluates one `x` across many independent seeds — the Monte-Carlo
    /// replication loop of the accuracy studies, batched. Lane-blocked
    /// fused path, per-worker scratch, like
    /// [`BatchEvaluator::evaluate_many`]; each seed's run is bit-identical
    /// to its standalone evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure (by index order).
    pub fn evaluate_seeds<S, F>(
        &self,
        system: &OpticalScSystem,
        x: f64,
        stream_length: usize,
        sng_factory: F,
        seeds: &[u64],
    ) -> Result<Vec<OpticalRun>, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        let blocks = lane_blocks(seeds.len());
        let nested = self.par_map_with(&blocks, EvalScratch::new, |scratch, _, &(start, width)| {
            let block_xs = [x; 8];
            evaluate_lane_block(
                system,
                &block_xs[..width],
                stream_length,
                &sng_factory,
                |l| seeds[start + l],
                None::<fn(usize) -> FaultSpec>,
                scratch,
            )
        });
        let mut out = Vec::with_capacity(seeds.len());
        for block in nested {
            out.extend(block?);
        }
        Ok(out)
    }

    /// Sweeps the polynomial over `[0, 1]` on `points` equally spaced
    /// inputs — the batched port of [`OpticalScSystem::transfer_curve`],
    /// returning the same `(x, estimate, exact)` triples.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn transfer_curve<S, F>(
        &self,
        system: &OpticalScSystem,
        points: usize,
        stream_length: usize,
        sng_factory: F,
        seed: u64,
    ) -> Result<Vec<(f64, f64, f64)>, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        let xs: Vec<f64> = (0..points)
            .map(|i| i as f64 / (points - 1).max(1) as f64)
            .collect();
        let runs = self.evaluate_many(system, &xs, stream_length, sng_factory, seed)?;
        Ok(xs
            .into_iter()
            .zip(runs)
            .map(|(x, run)| (x, run.estimate, run.exact))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CircuitParams;
    use osc_stochastic::bernstein::BernsteinPoly;
    use osc_stochastic::sng::XoshiroSng;

    fn system() -> OpticalScSystem {
        OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn mix_seed_decorrelates_indices() {
        // Consecutive indices must not share obvious structure; a weak mix
        // like seed ^ (i << 32) leaves the low 32 bits constant.
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        assert_ne!(a, b);
        assert_ne!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF, "low bits must differ");
        // And different base seeds diverge for the same index.
        assert_ne!(mix_seed(1, 7), mix_seed(2, 7));
    }

    #[test]
    fn par_map_with_reuses_worker_state_and_preserves_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = BatchEvaluator::with_threads(4).par_map_with(
            &items,
            || 0usize,
            |seen, i, &x| {
                assert_eq!(i, x);
                *seen += 1; // worker-local: must never be shared
                (x * 3, *seen)
            },
        );
        let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        // Every worker's counter increments monotonically from 1, and the
        // total across items equals the item count.
        assert!(out.iter().all(|&(_, seen)| seen >= 1));
    }

    #[test]
    fn evaluate_many_matches_unbatched_materializing_runs() {
        // The batched lane-blocked fused path must agree bit-for-bit with
        // direct per-item per-bit evaluation under the same seed
        // derivation. 13 items exercise the 8 + 4 + 1 block decomposition.
        let s = system();
        let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
        let runs = BatchEvaluator::with_threads(2)
            .evaluate_many(&s, &xs, 1000, XoshiroSng::new, 17)
            .unwrap();
        for (i, (&x, run)) in xs.iter().zip(&runs).enumerate() {
            let item_seed = mix_seed(17, i as u64);
            let mut sng = XoshiroSng::new(item_seed);
            let mut rng = Xoshiro256PlusPlus::new(mix_seed(item_seed, 0x0A11_D1CE));
            let direct = s.evaluate_bitwise(x, 1000, &mut sng, &mut rng).unwrap();
            assert_eq!(*run, direct, "item {i}");
        }
    }

    #[test]
    fn lane_blocks_cover_every_index_widest_first() {
        use osc_stochastic::simd::SimdTier;
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            for n in 0..40 {
                let blocks = lane_blocks_for_tier(tier, n);
                let mut next = 0usize;
                for &(start, width) in &blocks {
                    assert_eq!(start, next, "{tier:?} n={n}: blocks must be contiguous");
                    assert!(
                        matches!(width, 1 | 2 | 4 | 8),
                        "{tier:?} n={n}: width {width}"
                    );
                    next = start + width;
                }
                assert_eq!(next, n, "{tier:?} n={n}: blocks must cover all items");
                // Widest-first: widths never increase along the decomposition.
                for pair in blocks.windows(2) {
                    assert!(pair[0].1 >= pair[1].1, "{tier:?} n={n}: {blocks:?}");
                }
            }
        }
        // Vector tiers chunk widest-first; the scalar tier degrades to
        // single-lane blocks (no engine behind the lock-step walk).
        assert_eq!(
            lane_blocks_for_tier(SimdTier::Avx2, 7),
            vec![(0, 4), (4, 2), (6, 1)]
        );
        assert_eq!(
            lane_blocks_for_tier(SimdTier::Avx512, 16),
            vec![(0, 8), (8, 8)]
        );
        assert_eq!(
            lane_blocks_for_tier(SimdTier::Scalar, 3),
            vec![(0, 1), (1, 1), (2, 1)]
        );
        // The undecorated entry point follows the active tier.
        let blocks = lane_blocks(7);
        assert_eq!(blocks, lane_blocks_for_tier(simd::active_tier(), 7));
    }

    #[test]
    fn evaluate_seeds_matches_unbatched_runs() {
        // Lane-blocked Monte-Carlo replication: per-seed runs must be
        // bit-identical to standalone fused evaluation with that seed.
        let s = system();
        let seeds: Vec<u64> = (100..111).collect();
        let runs = BatchEvaluator::with_threads(3)
            .evaluate_seeds(&s, 0.4, 999, XoshiroSng::new, &seeds)
            .unwrap();
        let mut scratch = crate::system::EvalScratch::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let mut sng = XoshiroSng::new(seed);
            let mut rng = Xoshiro256PlusPlus::new(mix_seed(seed, 0x0A11_D1CE));
            let direct = s
                .evaluate_fused(0.4, 999, &mut sng, &mut rng, &mut scratch)
                .unwrap();
            assert_eq!(runs[i], direct, "seed index {i}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = BatchEvaluator::with_threads(4).par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn guided_claims_run_every_index_once_in_order_under_skewed_costs() {
        use std::sync::atomic::AtomicU32;
        for workers in [2usize, 3, 8] {
            for n in [1, workers - 1, workers, 64, 4097] {
                let items: Vec<usize> = (0..n).collect();
                let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let out = BatchEvaluator::with_threads(workers).par_map(&items, |i, &x| {
                    assert_eq!(i, x);
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    // Every 61st item is expensive, so the workers'
                    // claims finish unevenly.
                    if i % 61 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    x * 7
                });
                assert_eq!(out, (0..n).map(|x| x * 7).collect::<Vec<_>>(), "n={n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "workers={workers} n={n}: an index ran zero or several times"
                );
            }
        }
    }

    #[test]
    fn faulted_frames_are_identical_at_every_thread_count() {
        use crate::fault::FaultSpec;
        let system = system();
        let side = 64;
        let pixels: Vec<f64> = (0..side * side)
            .map(|i| ((i * 37) % (side * side)) as f64 / (side * side) as f64)
            .collect();
        let faults = FaultSpec {
            flip_probability: 0.01,
            shift_probability: 0.01,
            ..FaultSpec::with_seed(64)
        };
        let frame = |threads: usize| {
            shard::image_rows_eval(
                &BatchEvaluator::with_threads(threads),
                &system,
                &XoshiroSng::new,
                side,
                0,
                &pixels,
                256,
                9,
                Some(&faults),
            )
            .unwrap()
        };
        let one = frame(1);
        for threads in [2, 3, 8] {
            assert!(frame(threads) == one, "{threads} threads changed the frame");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let ev = BatchEvaluator::with_threads(8);
        assert!(ev.par_map(&[] as &[u8], |_, _| 0).is_empty());
        assert_eq!(ev.par_map(&[5u8], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn osc_threads_env_pins_worker_count() {
        // Serialized through one test so concurrent readers of the env
        // var cannot race the mutations.
        let saved = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(BatchEvaluator::new().threads(), 3);
        // Zero and junk are ignored, falling back to auto-detection.
        std::env::set_var(THREADS_ENV, "0");
        assert!(BatchEvaluator::new().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(BatchEvaluator::new().threads() >= 1);
        // The determinism contract: a pinned single worker computes the
        // same bits as any explicit thread count.
        std::env::set_var(THREADS_ENV, "1");
        let pinned = BatchEvaluator::new();
        assert_eq!(pinned.threads(), 1);
        let s = system();
        let xs: Vec<f64> = (0..10).map(|i| i as f64 / 9.0).collect();
        let one = pinned
            .evaluate_many(&s, &xs, 512, XoshiroSng::new, 23)
            .unwrap();
        let many = BatchEvaluator::with_threads(4)
            .evaluate_many(&s, &xs, 512, XoshiroSng::new, 23)
            .unwrap();
        assert_eq!(one, many, "OSC_THREADS=1 must not change results");
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn evaluate_range_matches_the_containing_batch() {
        // A range starting at global index `a` must reproduce exactly the
        // runs the full batch computed at those indices — the property
        // process sharding is built on.
        let s = system();
        let xs: Vec<f64> = (0..17).map(|i| i as f64 / 16.0).collect();
        let full = BatchEvaluator::with_threads(2)
            .evaluate_many(&s, &xs, 700, XoshiroSng::new, 55)
            .unwrap();
        for (a, b) in [(0usize, 5usize), (5, 17), (3, 4), (16, 17), (7, 7)] {
            let part = BatchEvaluator::with_threads(3)
                .evaluate_range_faulted(&s, &xs[a..b], 700, XoshiroSng::new, 55, a as u64, None)
                .unwrap();
            assert_eq!(part, full[a..b].to_vec(), "range {a}..{b}");
        }
    }

    #[test]
    fn results_independent_of_thread_count() {
        let s = system();
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        let mut previous: Option<Vec<OpticalRun>> = None;
        for threads in [1usize, 2, 3, 8] {
            let ev = BatchEvaluator::with_threads(threads);
            let runs = ev
                .evaluate_many(&s, &xs, 2048, XoshiroSng::new, 99)
                .unwrap();
            if let Some(prev) = &previous {
                assert_eq!(prev, &runs, "threads={threads} changed the results");
            }
            previous = Some(runs);
        }
    }

    #[test]
    fn evaluate_seeds_replicates_independently() {
        let s = system();
        let seeds: Vec<u64> = (0..8).collect();
        let ev = BatchEvaluator::with_threads(2);
        let runs = ev
            .evaluate_seeds(&s, 0.5, 4096, XoshiroSng::new, &seeds)
            .unwrap();
        assert_eq!(runs.len(), 8);
        // Distinct seeds must give distinct estimates at least once.
        assert!(runs.windows(2).any(|w| w[0].estimate != w[1].estimate));
        for run in &runs {
            assert!(run.abs_error() < 0.05, "error {}", run.abs_error());
        }
    }

    #[test]
    fn transfer_curve_tracks_polynomial() {
        let s = system();
        let curve = BatchEvaluator::with_threads(3)
            .transfer_curve(&s, 9, 8192, XoshiroSng::new, 7)
            .unwrap();
        assert_eq!(curve.len(), 9);
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve[8].0, 1.0);
        for (x, est, exact) in curve {
            assert!((est - exact).abs() < 0.05, "x={x}: {est} vs {exact}");
        }
    }

    #[test]
    fn invalid_x_surfaces_error() {
        let s = system();
        let err =
            BatchEvaluator::with_threads(2).evaluate_many(&s, &[0.5, 1.5], 64, XoshiroSng::new, 1);
        assert!(err.is_err());
    }
}

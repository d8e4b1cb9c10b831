//! Parallel (multi-lane) implementation (paper Section V.C: "power
//! density limitation could be leveraged using a parallel implementation
//! of the architecture").
//!
//! `L` independent circuit lanes split one stochastic stream into `L`
//! segments evaluated concurrently, dividing latency by `L` at the cost
//! of `L×` laser power. Because the lanes are spatially separate, the
//! *power density* per lane stays at the single-circuit level — the
//! paper's argument for why parallelism is the natural scale-out axis:
//! thermal and nonlinear limits constrain watts per unit of chip area,
//! not total watts, so replicating the circuit sideways buys latency
//! without ever concentrating more power in one ring.
//!
//! # Lane blocks: the software mirror of spatial parallelism
//!
//! The simulation exploits exactly the same structure. The lanes of a
//! [`ParallelOpticalSc`] are *identical* circuits evaluating the *same*
//! polynomial at the *same* input — only their stochastic streams differ
//! — so instead of simulating them one after another, the bank walks
//! them in lock-step as **`[u64; L]` register groups** through
//! [`OpticalScSystem::evaluate_fused_lanes`]: one 64-cycle block of all
//! `L` lanes is processed per memory pass, the per-lane SNG comparator
//! chains interleave at bit granularity (hiding each chain's serial
//! state-update latency — the ILP analogue of the paper's spatial
//! separation), and the per-lane output counts reduce through the
//! runtime-dispatched SIMD popcount ([`osc_stochastic::simd`]: AVX-512
//! holds all 8 lanes of a block in one register, matching the paper's
//! lanes-side-by-side picture one to one). Lane groups wider than the
//! bank decomposes into blocks of 8/4/2/1
//! ([`crate::batch::lane_blocks`]), and the blocks fan across a
//! [`BatchEvaluator`]'s workers, so thread-level and register-level
//! parallelism compose. Block selection is tier-aware: on the scalar
//! dispatch tier `lane_blocks` hands out single-lane blocks (no vector
//! engine means lock-step walking only costs), so forcing `OSC_SIMD=scalar`
//! keeps the bank at sequential-evaluation speed rather than below it.
//!
//! Blocking is **observationally free**: every lane draws from its own
//! [`mix_seed`]-derived generators, and each lane's run is bit-identical
//! to a standalone [`OpticalScSystem::evaluate_fused`] call — the lane
//! equivalence suite pins this across all four SNGs and L ∈ {1, 2, 4, 8}.

use crate::batch::{lane_blocks, mix_seed, BatchEvaluator};
use crate::system::{EvalScratch, OpticalRun, OpticalScSystem};
use crate::{params::CircuitParams, CircuitError};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::StochasticNumberGenerator;
use osc_units::{Milliwatts, Seconds};

/// A bank of identical optical SC lanes evaluating one polynomial.
#[derive(Debug, Clone)]
pub struct ParallelOpticalSc {
    lanes: Vec<OpticalScSystem>,
}

/// Aggregate result of a parallel evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelRun {
    /// Combined estimate over all lane segments.
    pub estimate: f64,
    /// Exact polynomial value.
    pub exact: f64,
    /// Total bits processed across lanes.
    pub total_bits: usize,
    /// Wall-clock bit slots consumed (bits per lane).
    pub slots: usize,
}

impl ParallelRun {
    /// Absolute estimation error.
    pub fn abs_error(&self) -> f64 {
        (self.estimate - self.exact).abs()
    }
}

impl ParallelOpticalSc {
    /// Builds one circuit and clones it into `lanes` identical lanes.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidStructure`] for zero lanes; otherwise
    /// propagates circuit construction failures.
    pub fn new(
        params: CircuitParams,
        poly: BernsteinPoly,
        lanes: usize,
    ) -> Result<Self, CircuitError> {
        if lanes == 0 {
            return Err(CircuitError::InvalidStructure(
                "need at least one lane".into(),
            ));
        }
        let system = OpticalScSystem::new(params, poly)?;
        Ok(ParallelOpticalSc {
            lanes: vec![system; lanes],
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The per-lane system.
    pub fn lane(&self, i: usize) -> Option<&OpticalScSystem> {
        self.lanes.get(i)
    }

    /// Evaluates `x` over `total_bits` split evenly across the lanes.
    ///
    /// Lanes run as lock-step `[u64; L]` register blocks of 8/4/2/1
    /// through the lane-blocked fused kernel, and the blocks fan
    /// concurrently across a [`BatchEvaluator`]; each lane `i` derives an
    /// independent SNG seed and receiver-noise stream from
    /// [`mix_seed`]`(seed, i)` (a full-avalanche SplitMix64 mix — distinct
    /// in every bit across lanes, unlike an xor/shift of the lane index),
    /// so the aggregate is reproducible for any thread count and
    /// bit-identical to evaluating the lanes one by one.
    ///
    /// # Errors
    ///
    /// Propagates lane evaluation failures.
    pub fn evaluate<S, F>(
        &self,
        x: f64,
        total_bits: usize,
        sng_factory: F,
        seed: u64,
    ) -> Result<ParallelRun, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        self.evaluate_on(&BatchEvaluator::new(), x, total_bits, sng_factory, seed)
    }

    /// [`ParallelOpticalSc::evaluate`] with an explicit evaluator, for
    /// callers managing their own thread budget.
    ///
    /// # Errors
    ///
    /// Propagates lane evaluation failures.
    pub fn evaluate_on<S, F>(
        &self,
        evaluator: &BatchEvaluator,
        x: f64,
        total_bits: usize,
        sng_factory: F,
        seed: u64,
    ) -> Result<ParallelRun, CircuitError>
    where
        S: StochasticNumberGenerator,
        F: Fn(u64) -> S + Sync,
    {
        let per_lane = total_bits.div_ceil(self.lanes.len());
        // Fused zero-materialization lane blocks: groups of 8/4/2/1 lanes
        // run lock-step through the lane-blocked kernel, one scratch per
        // worker, no stream allocation; bit-identical to lane-wise
        // `evaluate_fused` under the same per-lane seed derivation.
        let blocks = lane_blocks(self.lanes.len());
        let nested =
            evaluator.par_map_with(&blocks, EvalScratch::new, |scratch, _, &(start, w)| {
                // The lanes are identical circuits; the block evaluates on
                // the first one's (shared) decision tables, each lane on
                // generators derived from its bank-wide index so the block
                // decomposition is unobservable.
                let xs = [x; 8];
                crate::batch::evaluate_lane_block(
                    &self.lanes[start],
                    &xs[..w],
                    per_lane,
                    &sng_factory,
                    |k| mix_seed(seed, (start + k) as u64),
                    None::<fn(usize) -> crate::fault::FaultSpec>,
                    scratch,
                )
            });
        let mut runs: Vec<OpticalRun> = Vec::with_capacity(self.lanes.len());
        for block in nested {
            runs.extend(block?);
        }
        let ones_weighted: f64 = runs.iter().map(|r| r.estimate * per_lane as f64).sum();
        // The exact value is a property of the programmed polynomial, not
        // of any lane's run.
        let exact = self.lanes[0].polynomial().eval(x);
        let total = per_lane * self.lanes.len();
        Ok(ParallelRun {
            estimate: ones_weighted / total as f64,
            exact,
            total_bits: total,
            slots: per_lane,
        })
    }

    /// Total optical laser power across lanes (pump + probes).
    pub fn total_laser_power(&self) -> Milliwatts {
        self.lanes
            .iter()
            .map(|l| {
                let p = l.params();
                p.pump_power + p.probe_power * (p.order + 1) as f64
            })
            .sum()
    }

    /// Per-lane laser power — the power density figure that stays
    /// constant as lanes are added.
    pub fn per_lane_power(&self) -> Milliwatts {
        self.total_laser_power() / self.lanes.len() as f64
    }

    /// Latency to evaluate `total_bits` at a bit period, exploiting lane
    /// parallelism.
    pub fn latency(&self, total_bits: usize, bit_period: Seconds) -> Seconds {
        bit_period * total_bits.div_ceil(self.lanes.len()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osc_math::rng::Xoshiro256PlusPlus;
    use osc_stochastic::sng::XoshiroSng;

    fn bank(lanes: usize) -> ParallelOpticalSc {
        ParallelOpticalSc::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
            lanes,
        )
        .unwrap()
    }

    #[test]
    fn accuracy_preserved_across_lanes() {
        let single = bank(1);
        let quad = bank(4);
        let r1 = single.evaluate(0.5, 16_384, XoshiroSng::new, 7).unwrap();
        let r4 = quad.evaluate(0.5, 16_384, XoshiroSng::new, 7).unwrap();
        assert!(r1.abs_error() < 0.02, "single {}", r1.abs_error());
        assert!(r4.abs_error() < 0.02, "quad {}", r4.abs_error());
        assert_eq!(r4.total_bits, 16_384);
    }

    #[test]
    fn latency_divides_by_lanes() {
        let quad = bank(4);
        let lat = quad.latency(16_384, Seconds::from_nanos(1.0));
        assert!((lat.as_nanos() - 4096.0).abs() < 1e-9);
        assert_eq!(
            quad.evaluate(0.5, 16_384, XoshiroSng::new, 1)
                .unwrap()
                .slots,
            4096
        );
    }

    #[test]
    fn power_scales_but_density_constant() {
        let single = bank(1);
        let quad = bank(4);
        assert!(
            (quad.total_laser_power().as_mw() - 4.0 * single.total_laser_power().as_mw()).abs()
                < 1e-9
        );
        assert!((quad.per_lane_power().as_mw() - single.per_lane_power().as_mw()).abs() < 1e-9);
    }

    #[test]
    fn lane_seeds_are_fully_decorrelated() {
        // Two lanes of the same bank must draw different streams: with the
        // old `seed ^ (i << 32)` mix the noise RNGs of lanes sharing low
        // seed bits collided.
        let b = bank(4);
        let r = b.evaluate(0.5, 8192, XoshiroSng::new, 0).unwrap();
        assert!(r.abs_error() < 0.05);
        // Determinism across repeated calls.
        let r2 = b.evaluate(0.5, 8192, XoshiroSng::new, 0).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn lane_blocked_bank_matches_per_lane_fused() {
        // The public contract of the lane-blocked rewrite: the bank's
        // aggregate must equal the old per-lane evaluation exactly, for
        // lane counts that decompose into every block width (8+4+1, 2+1,
        // single).
        for lanes in [1usize, 3, 5, 13] {
            let b = bank(lanes);
            let total = 16_384usize;
            let per_lane = total.div_ceil(lanes);
            let got = b.evaluate(0.45, total, XoshiroSng::new, 21).unwrap();
            let mut scratch = EvalScratch::new();
            let mut ones_weighted = 0.0;
            for i in 0..lanes {
                let lane_seed = mix_seed(21, i as u64);
                let mut sng = XoshiroSng::new(lane_seed);
                let mut rng = Xoshiro256PlusPlus::new(mix_seed(lane_seed, 0x0A11_D1CE));
                let run = b
                    .lane(i)
                    .unwrap()
                    .evaluate_fused(0.45, per_lane, &mut sng, &mut rng, &mut scratch)
                    .unwrap();
                ones_weighted += run.estimate * per_lane as f64;
            }
            let want = ones_weighted / (per_lane * lanes) as f64;
            assert_eq!(got.estimate, want, "lanes={lanes}");
        }
    }

    #[test]
    fn evaluate_matches_any_thread_budget() {
        let b = bank(3);
        let e1 = b
            .evaluate_on(
                &BatchEvaluator::with_threads(1),
                0.3,
                6144,
                XoshiroSng::new,
                5,
            )
            .unwrap();
        let e4 = b
            .evaluate_on(
                &BatchEvaluator::with_threads(4),
                0.3,
                6144,
                XoshiroSng::new,
                5,
            )
            .unwrap();
        assert_eq!(e1, e4);
    }

    #[test]
    fn exact_value_comes_from_polynomial() {
        let b = bank(2);
        let r = b.evaluate(0.25, 2048, XoshiroSng::new, 3).unwrap();
        let poly = BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap();
        assert_eq!(r.exact, poly.eval(0.25));
    }

    #[test]
    fn zero_lanes_rejected() {
        assert!(ParallelOpticalSc::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.5, 0.5, 0.5]).unwrap(),
            0
        )
        .is_err());
    }

    #[test]
    fn lane_accessor() {
        let b = bank(2);
        assert_eq!(b.lanes(), 2);
        assert!(b.lane(0).is_some());
        assert!(b.lane(2).is_none());
    }
}

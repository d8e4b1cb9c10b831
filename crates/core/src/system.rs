//! End-to-end stochastic execution on the optical circuit.
//!
//! [`OpticalScSystem`] runs the complete paper pipeline for a Bernstein
//! polynomial evaluation: SNGs generate the data and coefficient streams,
//! every clock cycle the transmission model produces the power reaching
//! the photodetector, Gaussian receiver noise perturbs the observation,
//! the de-randomizer thresholds and counts — and the result is compared
//! against the exact polynomial value and against the ideal (noise-free)
//! electronic ReSC output.
//!
//! # Word-parallel execution
//!
//! The hot paths never touch individual bits: they work on packed `u64`
//! words, transposing 64 clock cycles per memory pass into
//! `(ones-count, z-word)` pairs. The receiver is folded analytically —
//! because the adder only sees the ones count and the circuit's power for
//! each `(count, z-word)` pair is precomputed, the probability that the
//! Gaussian-noise observation clears the threshold is a per-pair constant
//! `Q((threshold − power)/σ)`. A cycle's decision is then a Bernoulli
//! draw against that constant (one uniform draw, and none at all when the
//! bands are far enough apart that the probability saturates at 0 or 1),
//! instead of a full Gaussian sample per cycle.
//!
//! # The evaluate paths, and when to use each
//!
//! Four implementations share draw-for-draw identical semantics; two more
//! keep the original physical-sampling seed semantics:
//!
//! - [`OpticalScSystem::evaluate_fused`] — the hot default. Streams SNG
//!   words straight into the decision kernel through
//!   [`SngWordCursor`](osc_stochastic::sng::SngWordCursor)s: data streams
//!   fold into bit-sliced ones-count planes as they leave the generator,
//!   coefficient streams fold into the decision (or land in reusable
//!   scratch for noisy circuits), and **no `BitStream` is ever
//!   materialized** — zero heap allocation once the caller's
//!   [`EvalScratch`] has warmed up. Use this anywhere throughput matters
//!   (the batch, parallel-lane and image pipelines all do).
//! - [`OpticalScSystem::evaluate_fused_lanes`] — the lane-blocked form:
//!   `L` independent evaluations walked in 64-cycle lock-step as
//!   `[u64; L]` register groups, with vectorized comparator chains and a
//!   runtime-dispatched SIMD popcount ([`osc_stochastic::simd`]).
//!   `evaluate_fused` is its `L = 1` case; every lane is bit-identical
//!   to a standalone `evaluate_fused` call.
//! - [`OpticalScSystem::evaluate`] — the materializing equivalence twin:
//!   generates the `2n+1` input streams as `BitStream`s, then runs the
//!   same word-transposed kernel. Bit-identical to `evaluate_fused`
//!   (the property tests pin the pair across SNGs, orders and ragged
//!   lengths). Use it when the intermediate streams themselves are of
//!   interest, or as the reference side of fusion benchmarks.
//! - [`OpticalScSystem::evaluate_bitwise`] — per-bit twin of `evaluate`,
//!   draw-for-draw identical (equivalence tests pin exact equality).
//!   The readable specification of the kernel; use it in tests.
//! - [`OpticalScSystem::decide_streams`] — same decision rule over
//!   pre-generated streams when callers need the output bits.
//! - [`OpticalScSystem::evaluate_analog`] — the physical-sampling
//!   reference: one explicit Gaussian power observation per cycle
//!   (batched through [`Xoshiro256PlusPlus::fill_gaussian`]), thresholded
//!   by the de-randomizer. Statistically identical to `evaluate`; kept as
//!   the seed-semantics baseline for benchmarks and validation.
//! - [`OpticalScSystem::evaluate_reference`] — the frozen pre-word-
//!   parallel seed implementation, kept only as the benchmarks' "before"
//!   side. Do not use in new code.

use crate::backend::{Backend, BackendKind, ScBackend};
use crate::fault::{self, FaultPlan, FaultSpec};
use crate::receiver::Derandomizer;
use crate::{params::CircuitParams, CircuitError};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_math::special::gaussian_q;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::bitstream::BitStream;
use osc_stochastic::resc::{fold_data_words, fold_sel_words, planes_for, ReScUnit};
use osc_stochastic::simd;
use osc_stochastic::sng::StochasticNumberGenerator;
use osc_units::Milliwatts;

/// Reusable scratch state for [`OpticalScSystem::evaluate_fused`].
///
/// Holds the bit-sliced ones-count planes the data streams fold into, the
/// coefficient words of noisy (non-deterministic) circuits, and the folded
/// decision output. Buffers grow on first use and are reused verbatim
/// afterwards, so steady-state fused evaluation performs **zero heap
/// allocation per call** — thread one scratch per worker through batch
/// loops ([`crate::batch::BatchEvaluator`] and the image pipelines do).
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Count planes, plane-major: plane `p` of block `w` lives at
    /// `p * words + w` (`nplanes = planes_for(order)` planes), so the
    /// fold passes run elementwise over whole arrays and vectorize.
    planes: Vec<u64>,
    /// Coefficient words, stream-major: stream `c` of block `w` lives at
    /// `c * words + w`. Only used by the noisy kernel tiers — the
    /// exact-multiplexer tier folds coefficients without storing them.
    coeff: Vec<u64>,
    /// Folded ideal multiplexer output `z_count`, one word per 64-cycle
    /// block (also the decided output in the exact-multiplexer tier).
    sel: Vec<u64>,
    /// Landing buffer for up to two streams being generated (one pair),
    /// before their words fold into `planes`/`sel`.
    stream_buf: Vec<u64>,
    /// Shift-zero marks of the faulted lane kernel's vector shift pass,
    /// shaped like one lane-interleaved stream.
    zero_marks: Vec<u64>,
}

impl EvalScratch {
    /// Creates empty scratch; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Currently reserved capacity in `u64` words across all buffers —
    /// lets tests pin that steady-state evaluation stops allocating.
    pub fn capacity_words(&self) -> usize {
        self.planes.capacity()
            + self.coeff.capacity()
            + self.sel.capacity()
            + self.stream_buf.capacity()
            + self.zero_marks.capacity()
    }
}

/// Per-lane `(ones, ideal_ones, decision_flips)` counters returned by
/// the lane kernel.
type LaneCounts<const L: usize> = ([usize; L], [usize; L], [usize; L]);

/// Fault-injection hook of the lane kernel: perturbs stream `j`'s
/// freshly drained lane-interleaved words (block `w` of lane `l` at
/// `d[w * L + l]`) with each lane's fault process, after generation and
/// **before** the words fold into count planes / the decision. One call
/// covers the whole lane block ([`fault::apply_lane_block`]): the shift
/// events of every lane are drawn together by the AVX-512 event engine
/// and their zeros spliced into all lanes in one vector pass, then the
/// flip events are drawn the same way and XORed in (per-lane scalar
/// loops wherever the vector path does not apply), then the stuck-at
/// masks.
/// Lane `l`'s events depend only on `(faults[l], j, bit position)` —
/// never on `L`, the lane slot or the dispatch tier — which is what
/// keeps faulty evaluation bit-identical across tiers and lane widths.
fn apply_stream_faults<const L: usize>(
    plans: Option<&[FaultPlan; L]>,
    j: usize,
    d: &mut [u64],
    stream_length: usize,
    zero_marks: &mut Vec<u64>,
) {
    if let Some(plans) = plans {
        fault::apply_lane_block(plans, j as u64, d, stream_length, zero_marks);
    }
}

/// Nibble-spread tables for the noisy decision tiers: `SPREAD[pos][v]`
/// scatters the nibble `v`'s 4 bits into four 16-bit lanes at bit `pos`,
/// so a block's 64 table indices `(count << (n+1)) | zw` assemble with
/// two lookups + ORs per source word per 8 cycles instead of ~10
/// shift/mask ops per cycle. Covers index bit positions 0..15 (orders
/// ≤ 11); at 2 KiB total the tables stay L1-resident.
fn spread_tables() -> &'static [[u64; 16]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u64; 16]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u64; 16]; 16];
        for (pos, tab) in tables.iter_mut().enumerate() {
            for (v, slot) in tab.iter_mut().enumerate() {
                let mut acc = 0u64;
                for k in 0..4 {
                    if (v >> k) & 1 == 1 {
                        acc |= 1u64 << (k * 16 + pos);
                    }
                }
                *slot = acc;
            }
        }
        tables
    })
}

/// Result of one end-to-end optical evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalRun {
    /// Optical estimate after noisy detection and counting.
    pub estimate: f64,
    /// The ideal stochastic estimate (same streams, no optical noise) —
    /// what the electronic ReSC unit would have produced.
    pub ideal_estimate: f64,
    /// Exact polynomial value.
    pub exact: f64,
    /// Fraction of clock cycles whose decision differed from the ideal
    /// multiplexer output (the observed transmission BER).
    pub observed_ber: f64,
    /// Stream length used.
    pub stream_length: usize,
}

impl OpticalRun {
    /// Absolute error against the exact value.
    pub fn abs_error(&self) -> f64 {
        (self.estimate - self.exact).abs()
    }

    /// Error attributable to the optical transmission alone (optical
    /// estimate vs. ideal stochastic estimate).
    pub fn optical_error(&self) -> f64 {
        (self.estimate - self.ideal_estimate).abs()
    }
}

/// The complete optical SC computer: transmission backend + programmed
/// polynomial. The system owns the folded decision tables and every
/// `evaluate*` kernel; the [`Backend`] supplies only the per-(count,
/// z-word) transmission physics, so every kernel tier and serving mode
/// is backend-generic by construction.
#[derive(Debug, Clone)]
pub struct OpticalScSystem {
    params: CircuitParams,
    backend: Backend,
    poly: BernsteinPoly,
    resc: ReScUnit,
    derandomizer: Derandomizer,
    /// Received power for every (count-of-ones, coefficient-word) pair,
    /// indexed `[count][z_word]`.
    power_table: Vec<Vec<Milliwatts>>,
    /// Probability the noisy observation clears the decision threshold,
    /// per (count-of-ones, coefficient-word) pair:
    /// `Q((threshold − power) / σ)`. The analytic folding of the receiver
    /// noise that lets the hot path decide cycles with at most one uniform
    /// draw each. Stored flat with row stride `2^(order+1)` — index
    /// `count << (order+1) | z_word` — so a cycle decision costs one load.
    one_probability: Vec<f64>,
    /// Whether every folded probability is saturated at exactly 0 or 1
    /// (bands far apart relative to the receiver noise). In that regime
    /// decisions are a pure function of the cycle's `(count, z-word)` and
    /// the kernel runs branch-free without consuming any randomness.
    deterministic_decisions: bool,
    /// Stronger still: every saturated decision equals the ideal
    /// multiplexer output `z_count` (the circuit transmits perfectly).
    /// Then a whole 64-cycle block reduces to a bit-sliced popcount —
    /// the fastest kernel tier.
    mux_exact: bool,
    /// Per-entry decision class, same indexing as `one_probability`:
    /// 0 = always zero, 1 = always one, 2 = needs a uniform draw. Lets
    /// the mixed kernel tier branch only on the (rare, predictable)
    /// ambiguous class instead of on two data-dependent f64 compares.
    decision_class: Vec<u8>,
    /// `decision_class` cut into one 128-byte row per count (zero
    /// padded) for orders up to [`OpticalScSystem::BITMATRIX_MAX_ORDER`],
    /// the table the vector decision pass looks classes up in; empty
    /// for higher orders.
    decision_rows: Vec<[u8; 128]>,
}

impl OpticalScSystem {
    /// Maximum order supported by the exhaustive power table.
    pub const MAX_SIM_ORDER: usize = 12;

    /// Width of the stack-resident word-register arrays inside the
    /// kernels: room for the `order + 1` coefficient streams at
    /// [`OpticalScSystem::MAX_SIM_ORDER`]. Deriving it from the order cap
    /// keeps the kernel register arrays and the constructor bound from
    /// drifting apart.
    pub const WORD_REGS: usize = Self::MAX_SIM_ORDER + 1;

    /// Decision-flip probabilities below this are folded to exact 0/1 in
    /// the receiver table: no simulable stream length could observe them.
    pub const NEGLIGIBLE_FLIP_PROBABILITY: f64 = 1e-18;

    /// Highest order the vector decision pass serves: its z-word of
    /// `order + 1 ≤ 7` bits indexes one 128-byte `vpermi2b` table row.
    const BITMATRIX_MAX_ORDER: usize = 6;

    /// Builds a system executing `poly` on a circuit with `params`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidStructure`] when the polynomial degree does
    /// not match `params.order` or the order exceeds
    /// [`OpticalScSystem::MAX_SIM_ORDER`]; otherwise propagates circuit
    /// construction failures.
    pub fn new(params: CircuitParams, poly: BernsteinPoly) -> Result<Self, CircuitError> {
        if poly.degree() != params.order {
            return Err(CircuitError::InvalidStructure(format!(
                "polynomial degree {} does not match circuit order {}",
                poly.degree(),
                params.order
            )));
        }
        if params.order > Self::MAX_SIM_ORDER {
            return Err(CircuitError::InvalidStructure(format!(
                "end-to-end simulation supports order <= {}, got {} (use the analytical model)",
                Self::MAX_SIM_ORDER,
                params.order
            )));
        }
        let backend = Backend::new(&params)?;
        let bands = backend.power_bands()?;
        let derandomizer = Derandomizer::from_bands(&bands);
        let n = params.order;
        // Precompute power for each (count, z-word): the adder only sees
        // the count, so 2^n data words collapse to n+1 rows.
        let mut power_table = Vec::with_capacity(n + 1);
        for count in 0..=n {
            let mut row = Vec::with_capacity(1 << (n + 1));
            for zw in 0..(1u32 << (n + 1)) {
                row.push(backend.received_power(count, zw)?);
            }
            power_table.push(row);
        }
        let sigma = backend.noise_sigma();
        let threshold = derandomizer.threshold();
        let one_probability: Vec<f64> = power_table
            .iter()
            .flat_map(|row| {
                row.iter().map(|&power| {
                    let q = if sigma.as_mw() > 0.0 {
                        gaussian_q((threshold - power).as_mw() / sigma.as_mw())
                    } else if power > threshold {
                        1.0
                    } else {
                        0.0
                    };
                    // Saturate sub-observable tails: a decision-flip
                    // probability below 1e-18 (e.g. Q(16σ) ≈ 1e-58 at the
                    // paper's operating point) would need ~1 exa-cycle to
                    // produce a single flip, far beyond any simulable
                    // stream, so folding it to an exact 0/1 is
                    // statistically invisible — and unlocks the
                    // deterministic kernel tiers. (The upper tail needs no
                    // clamp: 1 − 1e-58 already rounds to exactly 1.0.)
                    if q < Self::NEGLIGIBLE_FLIP_PROBABILITY {
                        0.0
                    } else if q > 1.0 - Self::NEGLIGIBLE_FLIP_PROBABILITY {
                        1.0
                    } else {
                        q
                    }
                })
            })
            .collect();
        let decision_class: Vec<u8> = one_probability
            .iter()
            .map(|&p| {
                if p <= 0.0 {
                    0
                } else if p >= 1.0 {
                    1
                } else {
                    2
                }
            })
            .collect();
        let decision_rows: Vec<[u8; 128]> = if n <= Self::BITMATRIX_MAX_ORDER {
            decision_class
                .chunks_exact(1 << (n + 1))
                .map(|row| {
                    let mut padded = [0u8; 128];
                    padded[..row.len()].copy_from_slice(row);
                    padded
                })
                .collect()
        } else {
            Vec::new()
        };
        let deterministic_decisions = one_probability.iter().all(|&p| p <= 0.0 || p >= 1.0);
        let mux_exact = deterministic_decisions
            && one_probability.iter().enumerate().all(|(idx, &p)| {
                let count = idx >> (n + 1);
                let zw = idx & ((1 << (n + 1)) - 1);
                (p >= 1.0) == ((zw >> count) & 1 == 1)
            });
        Ok(OpticalScSystem {
            params,
            backend,
            resc: ReScUnit::new(poly.clone()),
            poly,
            derandomizer,
            power_table,
            one_probability,
            deterministic_decisions,
            mux_exact,
            decision_class,
            decision_rows,
        })
    }

    /// The parameter set the system was built from.
    pub fn params(&self) -> &CircuitParams {
        &self.params
    }

    /// The transmission backend realizing the circuit.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Which transmission physics realizes the circuit.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The programmed polynomial.
    pub fn polynomial(&self) -> &BernsteinPoly {
        &self.poly
    }

    /// The receiver decision stage.
    pub fn derandomizer(&self) -> &Derandomizer {
        &self.derandomizer
    }

    /// Runs one end-to-end evaluation of the polynomial at `x`.
    ///
    /// `sng` drives the stochastic streams; `rng` drives the receiver
    /// noise. The receiver samples once per clock cycle with the
    /// detector's input-referred power noise.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<OpticalRun, CircuitError> {
        let (data, coeffs) = self
            .resc
            .generate_streams(x, stream_length, sng)
            .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        let (ones, ideal_ones, decision_flips) =
            self.dispatch_word_kernel(&data, &coeffs, stream_length, rng);
        Ok(self.finish_run(x, stream_length, ones, ideal_ones, decision_flips))
    }

    /// Fused zero-materialization evaluation: streams SNG words straight
    /// into the decision kernel.
    ///
    /// Where [`OpticalScSystem::evaluate`] first materializes `2n+1`
    /// [`BitStream`]s and then walks them, this path pulls one 64-cycle
    /// word at a time from each stream's
    /// [`SngWordCursor`](osc_stochastic::sng::SngWordCursor): the `n` data
    /// streams fold into `⌈log₂(n+1)⌉` bit-sliced ones-count planes as
    /// they leave the generator, and the `n+1` coefficient streams either
    /// fold directly into the decision (exact-multiplexer circuits) or
    /// land in `scratch` for the noisy kernel tiers. No stream is ever
    /// heap-allocated; `scratch` is reused across calls, so steady-state
    /// evaluation allocates nothing.
    ///
    /// Bit-identical to [`OpticalScSystem::evaluate`] and
    /// [`OpticalScSystem::evaluate_bitwise`]: same SNG comparator draws in
    /// the same order, same receiver-noise draws, same [`OpticalRun`] —
    /// the crate's property tests pin the three-way equality across all
    /// four SNGs, every simulable order and ragged stream lengths.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate_fused<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut EvalScratch,
    ) -> Result<OpticalRun, CircuitError> {
        self.evaluate_fused_faulted(x, stream_length, sng, rng, None, scratch)
    }

    /// [`OpticalScSystem::evaluate_fused`] with an optional
    /// [`FaultSpec`] perturbing every generated stream at the SNG cursor
    /// boundary (see [`crate::fault`] for the universe derivation).
    /// `fault` carries the **item-level** spec — callers batching many
    /// items derive it via [`FaultSpec::rebased`]`(global_index)`.
    /// Passing `None` (or a spec with [`FaultSpec::is_active`] false) is
    /// bit-identical to the clean path.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate_fused_faulted<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
        fault: Option<&FaultSpec>,
        scratch: &mut EvalScratch,
    ) -> Result<OpticalRun, CircuitError> {
        let faults = fault.map(|f| [*f]);
        let [run] = self.evaluate_fused_lanes_faulted::<1, S>(
            &[x],
            stream_length,
            std::array::from_mut(sng),
            std::array::from_mut(rng),
            faults.as_ref(),
            scratch,
        )?;
        Ok(run)
    }

    /// Lane-blocked fused evaluation: `L` independent end-to-end runs —
    /// lane `l` at input `xs[l]`, drawing its streams from `sngs[l]` and
    /// its receiver noise from `rngs[l]` — executed in 64-cycle
    /// lock-step through one shared kernel pass. This is the software
    /// form of the paper's Section V.C lane bank (see
    /// [`crate::parallel`]): the spatially separate circuit lanes become
    /// `[u64; L]` register groups walked side by side.
    ///
    /// Per-stream word arrays live *lane-interleaved* in `scratch`
    /// (block `w` of lane `l` at `w * L + l`), so the bit-sliced
    /// adder/multiplexer folds process `L` lanes per elementwise pass and
    /// the per-lane output counting is one SIMD popcount+fold sweep
    /// ([`osc_stochastic::simd`], runtime-dispatched scalar / AVX2 /
    /// AVX-512, overridable via `OSC_SIMD` for CI pinning). Generation
    /// interleaves all `L` comparator chains
    /// ([`StochasticNumberGenerator::drain_lanes`]) and, on long streams,
    /// pairs consecutive streams per lane from GF(2)-jumped states
    /// (`2L` chains, [`StochasticNumberGenerator::drain_lanes_two`]).
    ///
    /// Lane `l`'s [`OpticalRun`] — and the final states of `sngs[l]` and
    /// `rngs[l]` — are **bit-identical** to a standalone
    /// [`OpticalScSystem::evaluate_fused`] call with the same inputs;
    /// `evaluate_fused` is the `L = 1` case of this kernel, so the
    /// three-way fused/materializing/bitwise property tests transitively
    /// pin every lane width.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors when any `xs[l]` is invalid
    /// (checked before any randomness is consumed).
    pub fn evaluate_fused_lanes<const L: usize, S: StochasticNumberGenerator>(
        &self,
        xs: &[f64; L],
        stream_length: usize,
        sngs: &mut [S; L],
        rngs: &mut [Xoshiro256PlusPlus; L],
        scratch: &mut EvalScratch,
    ) -> Result<[OpticalRun; L], CircuitError> {
        self.evaluate_fused_lanes_faulted(xs, stream_length, sngs, rngs, None, scratch)
    }

    /// [`OpticalScSystem::evaluate_fused_lanes`] with optional per-lane
    /// [`FaultSpec`]s: lane `l` perturbs its streams with `faults[l]`
    /// (the item-level spec — each lane's fault universe depends only on
    /// its spec and the stream index, never on `L` or the lane slot, so
    /// every lane stays bit-identical to a standalone
    /// [`OpticalScSystem::evaluate_fused_faulted`] run across every
    /// dispatch tier and lane width).
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors when any `xs[l]` is invalid
    /// (checked before any randomness is consumed).
    pub fn evaluate_fused_lanes_faulted<const L: usize, S: StochasticNumberGenerator>(
        &self,
        xs: &[f64; L],
        stream_length: usize,
        sngs: &mut [S; L],
        rngs: &mut [Xoshiro256PlusPlus; L],
        faults: Option<&[FaultSpec; L]>,
        scratch: &mut EvalScratch,
    ) -> Result<[OpticalRun; L], CircuitError> {
        // On the scalar dispatch tier the `[u64; L]` lock-step walk has
        // no vector engine behind it and loses to L standalone passes
        // (pr5's forced-scalar records measured 0.79–0.85×), so degrade
        // to sequential per-lane runs — bit-identical by the lane
        // contract this function documents below.
        if L > 1 && simd::active_tier() == simd::SimdTier::Scalar {
            let mut out: [Option<OpticalRun>; L] = [None; L];
            for l in 0..L {
                out[l] = Some(self.evaluate_fused_faulted(
                    xs[l],
                    stream_length,
                    &mut sngs[l],
                    &mut rngs[l],
                    faults.map(|f| &f[l]),
                    scratch,
                )?);
            }
            return Ok(out.map(|r| r.expect("every lane filled")));
        }
        let (ones, ideal, flips) = match self.params.order {
            1 => self.lane_kernel::<1, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            2 => self.lane_kernel::<2, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            3 => self.lane_kernel::<3, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            4 => self.lane_kernel::<4, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            5 => self.lane_kernel::<5, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            6 => self.lane_kernel::<6, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            7 => self.lane_kernel::<7, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            8 => self.lane_kernel::<8, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            9 => self.lane_kernel::<9, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            10 => self.lane_kernel::<10, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            11 => self.lane_kernel::<11, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            12 => self.lane_kernel::<12, L, S>(xs, stream_length, sngs, rngs, faults, scratch),
            n => unreachable!("order {n} exceeds MAX_SIM_ORDER"),
        }
        .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        Ok(std::array::from_fn(|l| {
            self.finish_run(xs[l], stream_length, ones[l], ideal[l], flips[l])
        }))
    }

    /// Streams shorter than this are generated one chain at a time: the
    /// GF(2) jump that lets [`StochasticNumberGenerator::drain_lanes_two`]
    /// run two streams per lane as interleaved chains costs ~0.6 µs per
    /// pair, which only pays for itself once each stream is a few
    /// thousand bits.
    const PAIR_STREAM_CUTOFF: usize = 4096;

    /// The lane-blocked fused kernel body: generation-order streaming
    /// (all data streams, then all coefficient streams — the exact draw
    /// order of [`ReScUnit::generate_streams`], per lane), with the
    /// decision phase matching the same three tiers as
    /// [`OpticalScSystem::word_kernel`]. Returns per-lane
    /// `(ones, ideal_ones, decision_flips)`.
    ///
    /// Streams land in reusable scratch buffers (never a `BitStream`),
    /// stored lane-interleaved (`[u64; L]` register groups): data words
    /// fold into bit-sliced ones-count planes, coefficient words fold
    /// into the ideal multiplexer output (and are retained for the noisy
    /// tiers). The elementwise fold passes are lane-width-oblivious —
    /// they simply run over `words × L` blocks. On long streams,
    /// consecutive streams are drawn as `2L` interleaved chains from
    /// GF(2)-jumped states via
    /// [`StochasticNumberGenerator::drain_lanes_two`]. Per-lane ideal
    /// ones come from one SIMD popcount+fold sweep over the
    /// lane-interleaved output. The noisy decision pass (tiers 2 and 3)
    /// walks each lane's strided words, consuming that lane's `rngs[l]`
    /// in exactly the per-lane cycle order:
    ///
    /// - orders ≤ [`OpticalScSystem::BITMATRIX_MAX_ORDER`] with the
    ///   [`simd::BitMatrixKernels`] active: two 8 × 64 bit transposes
    ///   turn the `N + 1` coefficient words and the count planes into
    ///   per-cycle z-word and count bytes, one `vpermi2b` per count row
    ///   of `decision_rows` classifies all 64 cycles, the class-1 mask
    ///   ORs into the decided bits, and only the class-2 cycles draw, in
    ///   ascending cycle order;
    /// - otherwise 64 table indices per block from
    ///   [`simd::assemble_indices16`] or byte-spread assembly
    ///   ([`spread_tables`]), then a per-cycle table walk (order 12's
    ///   17-bit indices fall back to per-cycle extraction).
    fn lane_kernel<const N: usize, const L: usize, S: StochasticNumberGenerator>(
        &self,
        xs: &[f64; L],
        stream_length: usize,
        sngs: &mut [S; L],
        rngs: &mut [Xoshiro256PlusPlus; L],
        faults: Option<&[FaultSpec; L]>,
        scratch: &mut EvalScratch,
    ) -> Result<LaneCounts<L>, osc_stochastic::ScError> {
        let nplanes = planes_for(N);
        let words = stream_length.div_ceil(64);
        let wl = words * L;
        let mux_exact = self.mux_exact;
        scratch.planes.clear();
        scratch.planes.resize(wl * nplanes, 0);
        scratch.sel.clear();
        scratch.sel.resize(wl, 0);
        if scratch.stream_buf.len() < 2 * wl {
            scratch.stream_buf.resize(2 * wl, 0);
        }
        if !mux_exact && scratch.coeff.len() < (N + 1) * wl {
            scratch.coeff.resize((N + 1) * wl, 0);
        }
        let coeffs = self.poly.coeffs();
        // Each lane's fault spec resolved once for all 2N + 1 streams.
        let plans = faults
            .filter(|specs| specs.iter().any(FaultSpec::is_active))
            .map(|specs| specs.each_ref().map(FaultPlan::new));
        // Stream j of the generation order: data (lane l at probability
        // xs[l]) for j < N, then the n+1 Bernstein coefficients (shared
        // by every lane). Data streams and — in the exact-multiplexer
        // regime — coefficient streams fold immediately and land in the
        // pair buffer; noisy-tier coefficient words are retained in
        // `scratch.coeff`.
        let probs = |j: usize| -> [f64; L] {
            if j < N {
                *xs
            } else {
                [coeffs[j - N]; L]
            }
        };
        let buffered = |j: usize| j < N || mux_exact;
        let total = 2 * N + 1;
        let try_pairs = stream_length >= Self::PAIR_STREAM_CUTOFF;
        let mut j = 0usize;
        while j < total {
            let mut paired = false;
            if try_pairs && j + 1 < total {
                let (buf_a, buf_b) = scratch.stream_buf.split_at_mut(wl);
                let (d0, d1): (&mut [u64], &mut [u64]) = match (buffered(j), buffered(j + 1)) {
                    (true, true) => (&mut buf_a[..wl], &mut buf_b[..wl]),
                    (true, false) => {
                        let c1 = j + 1 - N;
                        (&mut buf_a[..wl], &mut scratch.coeff[c1 * wl..(c1 + 1) * wl])
                    }
                    (false, false) => {
                        let c0 = j - N;
                        let (left, right) = scratch.coeff.split_at_mut((c0 + 1) * wl);
                        (&mut left[c0 * wl..], &mut right[..wl])
                    }
                    (false, true) => unreachable!("data streams precede coefficient streams"),
                };
                {
                    let mut w = 0usize;
                    paired = S::drain_lanes_two(
                        sngs,
                        &probs(j),
                        &probs(j + 1),
                        stream_length,
                        |b0, b1, _| {
                            d0[w * L..(w + 1) * L].copy_from_slice(b0);
                            d1[w * L..(w + 1) * L].copy_from_slice(b1);
                            w += 1;
                        },
                    )?;
                }
                if paired {
                    for (jj, d) in [(j, d0), (j + 1, d1)] {
                        apply_stream_faults::<L>(
                            plans.as_ref(),
                            jj,
                            d,
                            stream_length,
                            &mut scratch.zero_marks,
                        );
                        if jj < N {
                            fold_data_words(d, &mut scratch.planes, nplanes);
                        } else {
                            fold_sel_words(d, &scratch.planes, &mut scratch.sel, jj - N, nplanes);
                        }
                    }
                    j += 2;
                }
            }
            if !paired {
                let d: &mut [u64] = if buffered(j) {
                    &mut scratch.stream_buf[..wl]
                } else {
                    let c = j - N;
                    &mut scratch.coeff[c * wl..(c + 1) * wl]
                };
                {
                    let mut w = 0usize;
                    S::drain_lanes(sngs, &probs(j), stream_length, |b, _| {
                        d[w * L..(w + 1) * L].copy_from_slice(b);
                        w += 1;
                    })?;
                }
                apply_stream_faults::<L>(
                    plans.as_ref(),
                    j,
                    d,
                    stream_length,
                    &mut scratch.zero_marks,
                );
                if j < N {
                    fold_data_words(d, &mut scratch.planes, nplanes);
                } else {
                    fold_sel_words(d, &scratch.planes, &mut scratch.sel, j - N, nplanes);
                }
                j += 1;
            }
        }
        // Per-lane ideal multiplexer ones: the SIMD popcount+fold over
        // the lane-interleaved folded output.
        let mut ideal_acc = [0u64; L];
        simd::popcount_lanes_accumulate(&scratch.sel, &mut ideal_acc);
        let ideal: [usize; L] = std::array::from_fn(|l| ideal_acc[l] as usize);
        if mux_exact {
            // Tier 1: every decision equals the ideal multiplexer bit
            // z_count — the folded output IS the decided stream.
            return Ok((ideal, ideal, [0; L]));
        }
        // Noisy tiers: per-cycle table decisions against the folded
        // receiver probabilities, lane by lane so that lane l consumes
        // rngs[l] in exactly the traversal order of a standalone fused
        // run (identical to the materializing kernel's tiers 2 and 3).
        let table = &self.one_probability[..];
        let classes = &self.decision_class[..];
        let deterministic = self.deterministic_decisions;
        let mut ones = [0usize; L];
        let mut flips = [0usize; L];
        let bitmatrix = simd::BitMatrixKernels::active().filter(|_| N <= Self::BITMATRIX_MAX_ORDER);
        if let Some(kernels) = bitmatrix {
            // GFNI/VBMI decision pass: classify all 64 cycles of a block
            // at once, then draw only for the class-2 cycles, in
            // ascending cycle order — the RNG consumption of the
            // per-cycle walk below.
            let rows = &self.decision_rows[..];
            let (mut zw, mut count) = ([0u8; 64], [0u8; 64]);
            for (l, rng) in rngs.iter_mut().enumerate() {
                let mut remaining = stream_length;
                for w in 0..words {
                    let nbits = remaining.min(64);
                    let at = w * L + l;
                    let (mut zw_words, mut count_words) = ([0u64; 8], [0u64; 8]);
                    for (c, slot) in zw_words[..=N].iter_mut().enumerate() {
                        *slot = scratch.coeff[c * wl + at];
                    }
                    for (p, slot) in count_words[..nplanes].iter_mut().enumerate() {
                        *slot = scratch.planes[p * wl + at];
                    }
                    let (always_one, needs_draw) =
                        kernels.classify_cycles(&zw_words, &count_words, rows, &mut zw, &mut count);
                    let valid = u64::MAX >> (64 - nbits);
                    let mut decided_mask = always_one & valid;
                    let mut pending = needs_draw & valid;
                    while pending != 0 {
                        let t = pending.trailing_zeros() as usize;
                        let idx = (usize::from(count[t]) << (N + 1)) | usize::from(zw[t]);
                        decided_mask |= u64::from(rng.next_f64() < table[idx]) << t;
                        pending &= pending - 1;
                    }
                    ones[l] += decided_mask.count_ones() as usize;
                    flips[l] += (decided_mask ^ scratch.sel[at]).count_ones() as usize;
                    remaining -= nbits;
                }
            }
        } else if (N + 1) + nplanes <= 16 {
            // Nibble-spread index assembly: 8 cycles of `(count << (N+1))
            // | zw` per lookup group (low nibble → lanes 0–3, high nibble
            // → lanes 4–7).
            let spread = spread_tables();
            let mut idxs = [0u16; 64];
            for (l, rng) in rngs.iter_mut().enumerate() {
                let mut remaining = stream_length;
                for w in 0..words {
                    let nbits = remaining.min(64);
                    let mut src = [0u64; Self::WORD_REGS + 4];
                    for (c, slot) in src[..=N].iter_mut().enumerate() {
                        *slot = scratch.coeff[c * wl + w * L + l];
                    }
                    for p in 0..nplanes {
                        src[N + 1 + p] = scratch.planes[p * wl + w * L + l];
                    }
                    let nsrc = N + 1 + nplanes;
                    // Vector-first: on the AVX-512 tier the whole 64 ×
                    // nsrc bit transpose assembles in two ZMM
                    // accumulators (one mask broadcast + AND/OR per
                    // source word); otherwise the nibble-spread tables.
                    if !simd::assemble_indices16(&src[..nsrc], &mut idxs) {
                        for k in 0..8 {
                            let sh = k * 8;
                            let (mut lo, mut hi) = (0u64, 0u64);
                            for (j, &word) in src[..nsrc].iter().enumerate() {
                                let byte = (word >> sh) & 0xFF;
                                lo |= spread[j][(byte & 0xF) as usize];
                                hi |= spread[j][(byte >> 4) as usize];
                            }
                            for (b, slot) in idxs[k * 8..k * 8 + 4].iter_mut().enumerate() {
                                *slot = (lo >> (b * 16)) as u16;
                            }
                            for (b, slot) in idxs[k * 8 + 4..k * 8 + 8].iter_mut().enumerate() {
                                *slot = (hi >> (b * 16)) as u16;
                            }
                        }
                    }
                    let mut decided_mask = 0u64;
                    if deterministic {
                        // Tier 2: saturated table decisions, no RNG
                        // consumed (every class is 0 or 1).
                        for (t, &idx) in idxs[..nbits].iter().enumerate() {
                            decided_mask |= u64::from(classes[idx as usize]) << t;
                        }
                    } else {
                        // Tier 3: one uniform draw per ambiguous cycle,
                        // in the same cycle order as the materializing
                        // kernel.
                        for (t, &idx) in idxs[..nbits].iter().enumerate() {
                            let idx = idx as usize;
                            let cls = classes[idx];
                            let d = if cls == 2 {
                                u64::from(rng.next_f64() < table[idx])
                            } else {
                                u64::from(cls)
                            };
                            decided_mask |= d << t;
                        }
                    }
                    ones[l] += decided_mask.count_ones() as usize;
                    flips[l] += (decided_mask ^ scratch.sel[w * L + l]).count_ones() as usize;
                    remaining -= nbits;
                }
            }
        } else {
            // Order 12 needs 13 + 4 = 17-bit indices (order 11 fits in
            // 12 + 4 = 16 and takes the spread path above): plain
            // per-cycle extraction (cold path — the spread lanes are
            // 16-bit).
            let mut cw = [0u64; Self::WORD_REGS];
            for (l, rng) in rngs.iter_mut().enumerate() {
                let mut remaining = stream_length;
                for w in 0..words {
                    let nbits = remaining.min(64);
                    for (c, slot) in cw[..=N].iter_mut().enumerate() {
                        *slot = scratch.coeff[c * wl + w * L + l];
                    }
                    let mut decided_mask = 0u64;
                    for t in 0..nbits {
                        let mut count = 0usize;
                        for p in 0..nplanes {
                            count |=
                                (((scratch.planes[p * wl + w * L + l] >> t) & 1) as usize) << p;
                        }
                        let mut zw = 0usize;
                        for (c, &word) in cw[..=N].iter().enumerate() {
                            zw |= (((word >> t) & 1) as usize) << c;
                        }
                        let idx = (count << (N + 1)) | zw;
                        let cls = classes[idx];
                        let d = if cls == 2 {
                            u64::from(rng.next_f64() < table[idx])
                        } else {
                            u64::from(cls)
                        };
                        decided_mask |= d << t;
                    }
                    ones[l] += decided_mask.count_ones() as usize;
                    flips[l] += (decided_mask ^ scratch.sel[w * L + l]).count_ones() as usize;
                    remaining -= nbits;
                }
            }
        }
        Ok((ones, ideal, flips))
    }

    /// Whether every receiver decision is exactly the ideal multiplexer
    /// output `z_count` — the regime where the fastest (bit-sliced,
    /// randomness-free) kernel tier runs.
    pub fn is_mux_exact(&self) -> bool {
        self.mux_exact
    }

    /// Whether every folded decision probability is saturated at 0 or 1
    /// (decisions are a pure function of each cycle's `(count, z-word)`,
    /// consuming no randomness).
    pub fn has_deterministic_decisions(&self) -> bool {
        self.deterministic_decisions
    }

    /// Monomorphizes the word kernel on the circuit order so the per-cycle
    /// extraction loops fully unroll (the order is bounded by
    /// [`OpticalScSystem::MAX_SIM_ORDER`], enforced in the constructor).
    fn dispatch_word_kernel(
        &self,
        data: &[BitStream],
        coeffs: &[BitStream],
        stream_length: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> (usize, usize, usize) {
        match self.params.order {
            1 => self.word_kernel::<1>(data, coeffs, stream_length, rng),
            2 => self.word_kernel::<2>(data, coeffs, stream_length, rng),
            3 => self.word_kernel::<3>(data, coeffs, stream_length, rng),
            4 => self.word_kernel::<4>(data, coeffs, stream_length, rng),
            5 => self.word_kernel::<5>(data, coeffs, stream_length, rng),
            6 => self.word_kernel::<6>(data, coeffs, stream_length, rng),
            7 => self.word_kernel::<7>(data, coeffs, stream_length, rng),
            8 => self.word_kernel::<8>(data, coeffs, stream_length, rng),
            9 => self.word_kernel::<9>(data, coeffs, stream_length, rng),
            10 => self.word_kernel::<10>(data, coeffs, stream_length, rng),
            11 => self.word_kernel::<11>(data, coeffs, stream_length, rng),
            12 => self.word_kernel::<12>(data, coeffs, stream_length, rng),
            n => unreachable!("order {n} exceeds MAX_SIM_ORDER"),
        }
    }

    /// The word-transposed decision kernel: one memory pass per 64 cycles.
    /// Returns `(ones, ideal_ones, decision_flips)`.
    ///
    /// Three tiers, selected once per run from precomputed table facts:
    ///
    /// 1. `mux_exact` — every decision equals the ideal multiplexer bit
    ///    `z_count`, so the block collapses to a bit-sliced adder (count
    ///    planes), per-count equality masks and one popcount: no
    ///    per-cycle work at all;
    /// 2. `deterministic_decisions` — decisions are a pure table function
    ///    of `(count, z-word)`; per-cycle extraction with fully unrolled
    ///    shifts and a branch-free compare, no randomness consumed;
    /// 3. general — as (2) plus one uniform draw per ambiguous cycle.
    fn word_kernel<const N: usize>(
        &self,
        data: &[BitStream],
        coeffs: &[BitStream],
        stream_length: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> (usize, usize, usize) {
        let table = &self.one_probability[..];
        let mut ones = 0usize;
        let mut ideal_ones = 0usize;
        let mut decision_flips = 0usize;
        // Stack-resident word registers (a fixed WORD_REGS-wide array
        // keeps the type concrete while N+1 stays inexpressible in stable
        // const generics).
        let mut dw = [0u64; Self::WORD_REGS];
        let mut cw = [0u64; Self::WORD_REGS];
        let mut remaining = stream_length;
        for w in 0..stream_length.div_ceil(64) {
            for (slot, s) in dw[..N].iter_mut().zip(data) {
                *slot = s.words()[w];
            }
            for (slot, s) in cw[..=N].iter_mut().zip(coeffs) {
                *slot = s.words()[w];
            }
            let nbits = remaining.min(64);
            if self.mux_exact {
                // Tier 1: decided == ideal == z_count on every cycle.
                // Bit-sliced ripple-carry adder: plane b of (s0..s3) holds
                // bit b of the ones count for each of the 64 lanes.
                let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
                for &d in &dw[..N] {
                    let c0 = s0 & d;
                    s0 ^= d;
                    let c1 = s1 & c0;
                    s1 ^= c0;
                    let c2 = s2 & c1;
                    s2 ^= c1;
                    s3 ^= c2; // counts <= 12 never carry out of plane 3
                }
                let planes = [s0, s1, s2, s3];
                // Select z_count per lane: OR of (count == c) & z_c masks.
                let mut sel = 0u64;
                for (c, &z) in cw[..=N].iter().enumerate() {
                    let mut eq = !0u64;
                    for (b, &plane) in planes.iter().enumerate() {
                        eq &= if (c >> b) & 1 == 1 { plane } else { !plane };
                    }
                    sel |= eq & z;
                }
                // Coefficient words are tail-masked, so padding lanes
                // contribute zero bits.
                let block_ones = sel.count_ones() as usize;
                ones += block_ones;
                ideal_ones += block_ones;
            } else if self.deterministic_decisions {
                // Tier 2: branch-free table decisions, no RNG consumed
                // (matching the per-bit rule, which only draws when a
                // probability lies strictly inside (0, 1)).
                for t in 0..nbits {
                    let mut count = 0usize;
                    for &d in &dw[..N] {
                        count += ((d >> t) & 1) as usize;
                    }
                    let mut zw = 0usize;
                    for (j, &c) in cw[..=N].iter().enumerate() {
                        zw |= (((c >> t) & 1) as usize) << j;
                    }
                    let decided = table[(count << (N + 1)) | zw] >= 1.0;
                    let ideal = (cw[count] >> t) & 1 == 1;
                    ones += usize::from(decided);
                    ideal_ones += usize::from(ideal);
                    decision_flips += usize::from(decided != ideal);
                }
            } else {
                // Tier 3: ambiguous bands. Branch only on the (rare)
                // needs-a-draw class; saturated decisions come branch-free
                // from the class value itself.
                let classes = &self.decision_class[..];
                for t in 0..nbits {
                    let mut count = 0usize;
                    for &d in &dw[..N] {
                        count += ((d >> t) & 1) as usize;
                    }
                    let mut zw = 0usize;
                    for (j, &c) in cw[..=N].iter().enumerate() {
                        zw |= (((c >> t) & 1) as usize) << j;
                    }
                    let idx = (count << (N + 1)) | zw;
                    let cls = classes[idx];
                    let decided = if cls == 2 {
                        rng.next_f64() < table[idx]
                    } else {
                        cls == 1
                    };
                    let ideal = (cw[count] >> t) & 1 == 1;
                    ones += usize::from(decided);
                    ideal_ones += usize::from(ideal);
                    decision_flips += usize::from(decided != ideal);
                }
            }
            remaining -= nbits;
        }
        (ones, ideal_ones, decision_flips)
    }

    /// Per-bit twin of [`OpticalScSystem::evaluate`]: identical stream
    /// traversal semantics and identical RNG consumption, one bit at a
    /// time. Given equal starting `sng`/`rng` states the two return
    /// exactly the same [`OpticalRun`] — the equivalence the property
    /// tests pin down. Kept as the readable reference; use `evaluate` in
    /// hot paths.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate_bitwise<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<OpticalRun, CircuitError> {
        let (data, coeffs) = self
            .resc
            .generate_streams(x, stream_length, sng)
            .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        let mut ones = 0usize;
        let mut ideal_ones = 0usize;
        let mut decision_flips = 0usize;
        for t in 0..stream_length {
            let count: usize = data.iter().filter(|s| s.get(t)).count();
            let mut zw = 0u32;
            for (j, s) in coeffs.iter().enumerate() {
                if s.get(t) {
                    zw |= 1 << j;
                }
            }
            let decided = self.decide_cycle(count, zw as usize, rng);
            let ideal = coeffs[count].get(t);
            ones += usize::from(decided);
            ideal_ones += usize::from(ideal);
            decision_flips += usize::from(decided != ideal);
        }
        Ok(self.finish_run(x, stream_length, ones, ideal_ones, decision_flips))
    }

    /// Physical-sampling reference: draws one explicit Gaussian power
    /// observation per clock cycle (in 64-cycle batches through
    /// [`Xoshiro256PlusPlus::fill_gaussian`]) and thresholds it with the
    /// de-randomizer — the literal translation of the paper's receiver
    /// and the semantics the original per-bit implementation had.
    /// Statistically identical to [`OpticalScSystem::evaluate`] (the
    /// crate's tests pin that), but one to two orders of magnitude
    /// slower. For the frozen seed implementation the benchmarks use as
    /// their "before" side, see
    /// [`OpticalScSystem::evaluate_reference`].
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate_analog<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<OpticalRun, CircuitError> {
        let (data, coeffs) = self
            .resc
            .generate_streams(x, stream_length, sng)
            .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        let sigma = self.backend.noise_sigma();
        let mut ones = 0usize;
        let mut ideal_ones = 0usize;
        let mut decision_flips = 0usize;
        let mut noise = [0.0f64; 64];
        for block in 0..stream_length.div_ceil(64) {
            let base = block * 64;
            let nbits = (stream_length - base).min(64);
            rng.fill_gaussian(&mut noise[..nbits]);
            for (i, &g) in noise[..nbits].iter().enumerate() {
                let t = base + i;
                let count: usize = data.iter().filter(|s| s.get(t)).count();
                let mut zw = 0u32;
                for (j, s) in coeffs.iter().enumerate() {
                    if s.get(t) {
                        zw |= 1 << j;
                    }
                }
                let power = self.power_table[count][zw as usize];
                let observed = Milliwatts::new(power.as_mw() + sigma.as_mw() * g);
                let decided = self.derandomizer.decide(observed);
                let ideal = coeffs[count].get(t);
                ones += usize::from(decided);
                ideal_ones += usize::from(ideal);
                decision_flips += usize::from(decided != ideal);
            }
        }
        Ok(self.finish_run(x, stream_length, ones, ideal_ones, decision_flips))
    }

    /// The frozen pre-word-parallel implementation: per-bit SNG comparator
    /// streams, per-cycle `get()` traversal, and one scalar Gaussian
    /// power sample per clock cycle. Exists so kernel benchmarks can pin
    /// the word-parallel speedup against the original code path;
    /// statistically identical to [`OpticalScSystem::evaluate`]. Do not
    /// use in new code.
    ///
    /// # Errors
    ///
    /// Propagates stream-generation errors for invalid `x`.
    pub fn evaluate_reference<S: StochasticNumberGenerator>(
        &self,
        x: f64,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<OpticalRun, CircuitError> {
        let (data, coeffs) = self
            .resc
            .generate_streams_bitwise(x, stream_length, sng)
            .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        let sigma = self.backend.noise_sigma();
        let mut ones = 0usize;
        let mut ideal_ones = 0usize;
        let mut decision_flips = 0usize;
        for t in 0..stream_length {
            let count: usize = data.iter().filter(|s| s.get(t)).count();
            let mut zw = 0u32;
            for (j, s) in coeffs.iter().enumerate() {
                if s.get(t) {
                    zw |= 1 << j;
                }
            }
            let power = self.power_table[count][zw as usize];
            let observed = Milliwatts::new(rng.gaussian_with(power.as_mw(), sigma.as_mw()));
            let decided = self.derandomizer.decide(observed);
            let ideal = coeffs[count].get(t);
            ones += usize::from(decided);
            ideal_ones += usize::from(ideal);
            decision_flips += usize::from(decided != ideal);
        }
        Ok(self.finish_run(x, stream_length, ones, ideal_ones, decision_flips))
    }

    /// Decides one cycle from the folded noise table: saturated
    /// probabilities decide without consuming randomness; ambiguous ones
    /// cost a single uniform draw.
    #[inline]
    fn decide_cycle(&self, count: usize, zw: usize, rng: &mut Xoshiro256PlusPlus) -> bool {
        let p1 = self.one_probability[(count << (self.params.order + 1)) | zw];
        if p1 >= 1.0 {
            true
        } else if p1 <= 0.0 {
            false
        } else {
            rng.next_f64() < p1
        }
    }

    fn finish_run(
        &self,
        x: f64,
        stream_length: usize,
        ones: usize,
        ideal_ones: usize,
        decision_flips: usize,
    ) -> OpticalRun {
        OpticalRun {
            estimate: ones as f64 / stream_length as f64,
            ideal_estimate: ideal_ones as f64 / stream_length as f64,
            exact: self.poly.eval(x),
            observed_ber: decision_flips as f64 / stream_length as f64,
            stream_length,
        }
    }

    /// Decodes a pre-generated stream pair exactly like
    /// [`OpticalScSystem::evaluate`] would, returning the decided output
    /// stream — useful when callers need the bits, not just the counts.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidStructure`] on stream arity/length mismatch.
    pub fn decide_streams(
        &self,
        data: &[BitStream],
        coeffs: &[BitStream],
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<BitStream, CircuitError> {
        let n = self.params.order;
        if data.len() != n || coeffs.len() != n + 1 {
            return Err(CircuitError::InvalidStructure(format!(
                "expected {n} data and {} coefficient streams, got {} and {}",
                n + 1,
                data.len(),
                coeffs.len()
            )));
        }
        let len = coeffs[0].len();
        if data.iter().chain(coeffs).any(|s| s.len() != len) {
            return Err(CircuitError::InvalidStructure(
                "stream length mismatch".into(),
            ));
        }
        // Not a hot path: reuse the per-cycle decision rule directly
        // rather than mirroring the word kernel's transpose.
        Ok(BitStream::from_word_fn(len, |chunk, nbits| {
            let mut word = 0u64;
            for b in 0..nbits {
                let t = chunk * 64 + b;
                let count: usize = data.iter().filter(|s| s.get(t)).count();
                let mut zw = 0usize;
                for (j, s) in coeffs.iter().enumerate() {
                    zw |= usize::from(s.get(t)) << j;
                }
                word |= u64::from(self.decide_cycle(count, zw, rng)) << b;
            }
            word
        }))
    }

    /// Sweeps the polynomial over `[0, 1]` and returns
    /// `(x, estimate, exact)` triples — the workhorse of the examples.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn transfer_curve<S: StochasticNumberGenerator>(
        &self,
        points: usize,
        stream_length: usize,
        sng: &mut S,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Result<Vec<(f64, f64, f64)>, CircuitError> {
        (0..points)
            .map(|i| {
                let x = i as f64 / (points - 1).max(1) as f64;
                let run = self.evaluate(x, stream_length, sng, rng)?;
                Ok((x, run.estimate, run.exact))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osc_stochastic::sng::XoshiroSng;

    fn system() -> OpticalScSystem {
        // Fig. 5 circuit programmed with a 2nd-order polynomial:
        // f(x) = 0.25·B0 + 0.625·B1 + 0.75·B2.
        OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn word_kernel_identical_to_bitwise_reference() {
        // Three-way draw identity: fused ≡ materializing ≡ per-bit, with
        // one scratch reused across every fused run.
        let s = system();
        let mut scratch = EvalScratch::new();
        for len in [1usize, 63, 64, 65, 130, 4096, 5000] {
            for (i, &x) in [0.0, 0.3, 0.5, 1.0].iter().enumerate() {
                let seed = 100 + (len + i) as u64;
                let mut sng_a = XoshiroSng::new(seed);
                let mut rng_a = Xoshiro256PlusPlus::new(seed ^ 0xABCD);
                let mut sng_b = XoshiroSng::new(seed);
                let mut rng_b = Xoshiro256PlusPlus::new(seed ^ 0xABCD);
                let mut sng_c = XoshiroSng::new(seed);
                let mut rng_c = Xoshiro256PlusPlus::new(seed ^ 0xABCD);
                let fast = s.evaluate(x, len, &mut sng_a, &mut rng_a).unwrap();
                let slow = s.evaluate_bitwise(x, len, &mut sng_b, &mut rng_b).unwrap();
                let fused = s
                    .evaluate_fused(x, len, &mut sng_c, &mut rng_c, &mut scratch)
                    .unwrap();
                assert_eq!(fast, slow, "x={x}, len={len}");
                assert_eq!(fused, fast, "fused, x={x}, len={len}");
                // Post-run RNG states must match too: another evaluation
                // from each pair must still be identical.
                let fast2 = s.evaluate(x, 130, &mut sng_a, &mut rng_a).unwrap();
                let slow2 = s.evaluate_bitwise(x, 130, &mut sng_b, &mut rng_b).unwrap();
                let fused2 = s
                    .evaluate_fused(x, 130, &mut sng_c, &mut rng_c, &mut scratch)
                    .unwrap();
                assert_eq!(fast2, slow2, "x={x}, len={len} (second run)");
                assert_eq!(fused2, fast2, "fused, x={x}, len={len} (second run)");
            }
        }
    }

    #[test]
    fn word_kernel_identical_under_visible_noise() {
        // Starved probes make the folded probabilities land strictly
        // inside (0, 1), so the uniform-draw branch is exercised — in
        // both the materializing and the fused kernel.
        let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
        let s = OpticalScSystem::new(params, BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap())
            .unwrap();
        assert!(!s.has_deterministic_decisions() || !s.is_mux_exact());
        let mut sng_a = XoshiroSng::new(7);
        let mut rng_a = Xoshiro256PlusPlus::new(8);
        let mut sng_b = XoshiroSng::new(7);
        let mut rng_b = Xoshiro256PlusPlus::new(8);
        let mut sng_c = XoshiroSng::new(7);
        let mut rng_c = Xoshiro256PlusPlus::new(8);
        let mut scratch = EvalScratch::new();
        let fast = s.evaluate(0.4, 4097, &mut sng_a, &mut rng_a).unwrap();
        let slow = s
            .evaluate_bitwise(0.4, 4097, &mut sng_b, &mut rng_b)
            .unwrap();
        let fused = s
            .evaluate_fused(0.4, 4097, &mut sng_c, &mut rng_c, &mut scratch)
            .unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fused, fast);
        assert!(fast.observed_ber > 0.0, "expected the noisy branch to fire");
    }

    #[test]
    fn fused_scratch_stops_allocating_after_warmup() {
        // The zero-allocation contract: after the first call sizes the
        // buffers, repeated fused evaluation never grows them.
        let s = system();
        let mut sng = XoshiroSng::new(19);
        let mut rng = Xoshiro256PlusPlus::new(20);
        let mut scratch = EvalScratch::new();
        let _ = s
            .evaluate_fused(0.5, 8192, &mut sng, &mut rng, &mut scratch)
            .unwrap();
        let warmed = scratch.capacity_words();
        for i in 0..8 {
            let x = i as f64 / 8.0;
            let _ = s
                .evaluate_fused(x, 8192, &mut sng, &mut rng, &mut scratch)
                .unwrap();
        }
        assert_eq!(scratch.capacity_words(), warmed, "scratch regrew");
    }

    #[test]
    fn analytic_folding_matches_analog_sampling_statistically() {
        // Same noisy circuit; the folded-Bernoulli path and the explicit
        // Gaussian-sampling path must agree in distribution.
        let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
        let s = OpticalScSystem::new(params, BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap())
            .unwrap();
        let len = 32_768;
        let mut sng_a = XoshiroSng::new(21);
        let mut rng_a = Xoshiro256PlusPlus::new(22);
        let mut sng_b = XoshiroSng::new(21);
        let mut rng_b = Xoshiro256PlusPlus::new(23);
        let folded = s.evaluate(0.5, len, &mut sng_a, &mut rng_a).unwrap();
        let analog = s.evaluate_analog(0.5, len, &mut sng_b, &mut rng_b).unwrap();
        assert!(
            (folded.estimate - analog.estimate).abs() < 0.02,
            "folded {} vs analog {}",
            folded.estimate,
            analog.estimate
        );
        assert!(
            (folded.observed_ber - analog.observed_ber).abs() < 0.02,
            "ber folded {} vs analog {}",
            folded.observed_ber,
            analog.observed_ber
        );
    }

    #[test]
    fn decide_streams_counts_match_evaluate() {
        let s = system();
        let mut sng = XoshiroSng::new(3);
        let (data, coeffs) = s.resc.generate_streams(0.5, 1000, &mut sng).unwrap();
        let mut rng_a = Xoshiro256PlusPlus::new(4);
        let out = s.decide_streams(&data, &coeffs, &mut rng_a).unwrap();
        // Same decision rule as evaluate: re-run with the same rng seed.
        let mut sng_b = XoshiroSng::new(3);
        let mut rng_b = Xoshiro256PlusPlus::new(4);
        let run = s.evaluate(0.5, 1000, &mut sng_b, &mut rng_b).unwrap();
        assert_eq!(out.count_ones() as f64 / 1000.0, run.estimate);
        assert!(s.decide_streams(&data[..1], &coeffs, &mut rng_a).is_err());
    }

    #[test]
    fn end_to_end_accuracy() {
        let s = system();
        let mut sng = XoshiroSng::new(42);
        let mut rng = Xoshiro256PlusPlus::new(1);
        let run = s.evaluate(0.5, 16384, &mut sng, &mut rng).unwrap();
        assert!(run.abs_error() < 0.03, "error {}", run.abs_error());
        // With 1 mW probes the bands are far apart: transmission BER ~ 0.
        assert!(run.observed_ber < 1e-3, "ber {}", run.observed_ber);
    }

    #[test]
    fn optical_matches_ideal_at_high_power() {
        let s = system();
        let mut sng = XoshiroSng::new(7);
        let mut rng = Xoshiro256PlusPlus::new(2);
        let run = s.evaluate(0.3, 8192, &mut sng, &mut rng).unwrap();
        assert!(
            run.optical_error() < 0.01,
            "optical error {}",
            run.optical_error()
        );
    }

    #[test]
    fn low_probe_power_degrades_gracefully() {
        // Starve the probes: decisions get noisy, BER rises, but the
        // estimate still lands in the right region (error resilience).
        let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
        let s = OpticalScSystem::new(params, BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap())
            .unwrap();
        let mut sng = XoshiroSng::new(11);
        let mut rng = Xoshiro256PlusPlus::new(3);
        let run = s.evaluate(0.5, 16384, &mut sng, &mut rng).unwrap();
        assert!(run.observed_ber > 1e-3, "expected visible BER");
        assert!(run.abs_error() < 0.2, "still roughly correct");
    }

    #[test]
    fn degree_mismatch_rejected() {
        let err = OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.5, 0.5]).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidStructure(_)));
    }

    #[test]
    fn order_cap_enforced() {
        let params = CircuitParams::paper_fig7(13, osc_units::Nanometers::new(0.2));
        let poly = BernsteinPoly::new(vec![0.5; 14]).unwrap();
        assert!(matches!(
            OpticalScSystem::new(params, poly),
            Err(CircuitError::InvalidStructure(_))
        ));
    }

    #[test]
    fn transfer_curve_tracks_polynomial() {
        let s = system();
        let mut sng = XoshiroSng::new(5);
        let mut rng = Xoshiro256PlusPlus::new(4);
        let curve = s.transfer_curve(6, 8192, &mut sng, &mut rng).unwrap();
        assert_eq!(curve.len(), 6);
        for (x, est, exact) in curve {
            assert!((est - exact).abs() < 0.05, "x={x}: est {est} vs {exact}");
        }
    }

    #[test]
    fn invalid_x_rejected() {
        let s = system();
        let mut sng = XoshiroSng::new(1);
        let mut rng = Xoshiro256PlusPlus::new(1);
        assert!(s.evaluate(1.5, 64, &mut sng, &mut rng).is_err());
    }
}

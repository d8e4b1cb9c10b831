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
//! instead of a full Gaussian sample per cycle. The fold evaluates `Q`
//! only for pairs within [`OpticalScSystem::SATURATION_Z`] = 9σ of the
//! threshold; past it the probability is exactly what `Q` would have
//! folded to (0 beyond +9σ, 1 beyond −9σ), so skipping the call changes
//! no bit. At the paper's operating points most pairs lie past it.
//!
//! # The evaluate paths, and when to use each
//!
//! One kernel does the work; the per-bit twin and the decision rule over
//! given streams share its draw-for-draw semantics, and two more keep the
//! original physical-sampling seed semantics:
//!
//! - [`OpticalScSystem::evaluate_fused`] — the hot default. Streams SNG
//!   words straight into the decision kernel through
//!   [`SngWordCursor`](osc_stochastic::sng::SngWordCursor)s: data streams
//!   fold into bit-sliced ones-count planes as they leave the generator,
//!   coefficient streams fold into the decision (or land in reusable
//!   scratch for noisy circuits), and **no `BitStream` is ever
//!   materialized** — zero heap allocation once the caller's
//!   [`EvalScratch`] has warmed up. Use this anywhere throughput matters
//!   (the batch and image pipelines do).
//! - [`OpticalScSystem::evaluate_fused_lanes`] — the lane-blocked form:
//!   `L` independent evaluations walked in 64-cycle lock-step as
//!   `[u64; L]` register groups, with vectorized comparator chains and a
//!   runtime-dispatched SIMD popcount ([`osc_stochastic::simd`]).
//!   `evaluate_fused` is its `L = 1` case; every lane is bit-identical
//!   to a standalone `evaluate_fused` call.
//! - [`OpticalScSystem::evaluate`] — `evaluate_fused` with a fresh
//!   [`EvalScratch`], for one-off calls.
//! - [`OpticalScSystem::evaluate_bitwise`] — per-bit twin of
//!   `evaluate_fused`: generates the `2n+1` input streams as
//!   `BitStream`s and decides one cycle at a time, draw-for-draw
//!   identical (the equivalence tests pin exact equality across SNGs,
//!   orders, lane widths and ragged lengths). The readable
//!   specification of the kernel; use it in tests.
//! - [`OpticalScSystem::decide_streams`] — same decision rule over
//!   pre-generated streams when callers need the output bits.
//! - [`OpticalScSystem::evaluate_analog`] — the physical-sampling
//!   reference: one explicit Gaussian power observation per cycle
//!   (batched through [`Xoshiro256PlusPlus::fill_gaussian`]), thresholded
//!   by the de-randomizer. Statistically identical to `evaluate_fused`;
//!   kept as the seed-semantics baseline for benchmarks and validation.
//! - [`OpticalScSystem::evaluate_reference`] — the frozen pre-word-
//!   parallel seed implementation, kept only as the benchmarks' "before"
//!   side. Do not use in new code.

use crate::architecture::PowerBands;
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
    /// Landing buffer for the stream being generated, before its words
    /// fold into `planes`/`sel`.
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

/// The receiver noise folded into a circuit's `(count, z-word)` power
/// table, with the facts the kernel tiers are selected on.
#[derive(Debug, Clone)]
pub(crate) struct FoldedReceiver {
    /// Probability the noisy observation clears the decision threshold,
    /// per (count-of-ones, coefficient-word) pair:
    /// `Q((threshold − power) / σ)`. The analytic folding of the receiver
    /// noise that lets the hot path decide cycles with at most one uniform
    /// draw each. Stored flat with row stride `2^(order+1)` — index
    /// `count << (order+1) | z_word` — so a cycle decision costs one load.
    one_probability: Vec<f64>,
    /// Per-entry decision class, same indexing as `one_probability`:
    /// 0 = always zero, 1 = always one, 2 = needs a uniform draw. Lets
    /// the mixed kernel tier branch only on the (rare, predictable)
    /// ambiguous class instead of on two data-dependent f64 compares.
    decision_class: Vec<u8>,
    /// `decision_class` as the per-z-word class bytes the bit-matrix
    /// decision pass looks classes up in, for orders up to
    /// [`simd::ClassBits::MAX_ORDER`]; `None` for higher orders.
    class_bits: Option<simd::ClassBits>,
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
}

/// Decision class of a folded probability: 0 = always zero, 1 = always
/// one, 2 = needs a draw (NaN included).
fn class_of(p: f64) -> u8 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        1
    } else {
        2
    }
}

/// Folds the receiver noise into a `(count, z-word)` power table (`n + 1`
/// rows of `2^(n+1)` entries), in one pass over the entries: the
/// probability `Q(z)`, `z = (threshold − power) / σ`, that the noisy
/// observation clears the threshold, its decision class, the class
/// bytes of the bit-matrix decision pass and the two kernel-tier flags.
///
/// `Q` is evaluated only for `|z| ≤` [`OpticalScSystem::SATURATION_Z`];
/// outside that band the probability is the value the evaluated `Q`
/// would fold to, so every entry keeps its bits:
///
/// - `z > 9`: `gaussian_q(z) < 1e-18` for every `z ≥ 8.7573`, so the
///   [`OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY`] clamp makes it 0;
/// - `z < −9`: `gaussian_q(z)` rounds to exactly 1.0 for every
///   `z ≤ −8.2924`.
///
/// A NaN `z` fails both comparisons and reaches `gaussian_q` (class 2),
/// and `σ ≤ 0` decides each entry by `power > threshold`, as the
/// every-entry fold did.
pub(crate) fn fold_receiver(
    power_table: &[Vec<Milliwatts>],
    threshold: Milliwatts,
    sigma: Milliwatts,
) -> FoldedReceiver {
    let entries = power_table.iter().map(Vec::len).sum();
    let mut one_probability = Vec::with_capacity(entries);
    let mut decision_class = Vec::with_capacity(entries);
    let mut class_bits = simd::ClassBits::new(power_table.len() - 1);
    let mut deterministic_decisions = true;
    let mut mux_exact = true;
    let cutoff = OpticalScSystem::SATURATION_Z;
    for (count, row) in power_table.iter().enumerate() {
        let row_start = decision_class.len();
        for (zw, &power) in row.iter().enumerate() {
            let p = if sigma.as_mw() > 0.0 {
                let z = (threshold - power).as_mw() / sigma.as_mw();
                if z > cutoff {
                    0.0
                } else if z < -cutoff {
                    1.0
                } else {
                    // A flip probability below 1e-18 would need ~1
                    // exa-cycle to show once, so folding it to an exact 0
                    // is statistically invisible — and unlocks the
                    // deterministic kernel tiers. The upper tail has no
                    // clamp (see `NEGLIGIBLE_FLIP_PROBABILITY`): a flip
                    // probability in [1e-18, 5.6e-17) is a draw below
                    // the threshold but an exact 1 above it.
                    let q = gaussian_q(z);
                    if q < OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY {
                        0.0
                    } else {
                        q
                    }
                }
            } else if power > threshold {
                1.0
            } else {
                0.0
            };
            let class = class_of(p);
            deterministic_decisions &= class != 2;
            // Class 2 equals neither multiplexer bit.
            mux_exact &= usize::from(class) == (zw >> count) & 1;
            one_probability.push(p);
            decision_class.push(class);
        }
        if let Some(bits) = &mut class_bits {
            bits.set_row(count, &decision_class[row_start..]);
        }
    }
    FoldedReceiver {
        one_probability,
        decision_class,
        class_bits,
        deterministic_decisions,
        mux_exact,
    }
}

impl FoldedReceiver {
    /// Probability that the cycle at table index `idx` decides 1: its
    /// class for classes 0 and 1, else the chance that the kernel's draw
    /// `rng.next_f64() < q` fires — `next_f64` is `u / 2⁵³` for a
    /// uniform 53-bit `u`, so that is `⌈q·2⁵³⌉ / 2⁵³`, and 0 for NaN.
    fn draw_probability(&self, idx: usize) -> f64 {
        match self.decision_class[idx] {
            0 => 0.0,
            1 => 1.0,
            _ => {
                let q = self.one_probability[idx];
                if q.is_nan() {
                    0.0
                } else {
                    const SCALE: f64 = (1u64 << 53) as f64;
                    (q * SCALE).ceil() / SCALE
                }
            }
        }
    }
}

/// The every-entry fold the cutoff replaced, kept verbatim (its upper
/// clamp never fires) with the separate passes that derived the class
/// bytes and flags: the oracle [`fold_receiver`] must equal bit for bit.
#[cfg(test)]
pub(crate) fn fold_receiver_per_entry(
    power_table: &[Vec<Milliwatts>],
    threshold: Milliwatts,
    sigma: Milliwatts,
) -> FoldedReceiver {
    let n = power_table.len() - 1;
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
                if q < OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY {
                    0.0
                } else if q > 1.0 - OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY {
                    1.0
                } else {
                    q
                }
            })
        })
        .collect();
    FoldedReceiver::from_probabilities(n, one_probability)
}

#[cfg(test)]
impl FoldedReceiver {
    /// The fold of an order-`n` table with the given probabilities,
    /// deriving classes, class bytes and flags in separate passes.
    pub(crate) fn from_probabilities(n: usize, one_probability: Vec<f64>) -> FoldedReceiver {
        let decision_class: Vec<u8> = one_probability.iter().map(|&p| class_of(p)).collect();
        let class_bits = simd::ClassBits::new(n).map(|mut bits| {
            for (count, row) in decision_class.chunks_exact(1 << (n + 1)).enumerate() {
                bits.set_row(count, row);
            }
            bits
        });
        let deterministic_decisions = one_probability.iter().all(|&p| p <= 0.0 || p >= 1.0);
        let mux_exact = deterministic_decisions
            && one_probability.iter().enumerate().all(|(idx, &p)| {
                let count = idx >> (n + 1);
                let zw = idx & ((1 << (n + 1)) - 1);
                (p >= 1.0) == ((zw >> count) & 1 == 1)
            });
        FoldedReceiver {
            one_probability,
            decision_class,
            class_bits,
            deterministic_decisions,
            mux_exact,
        }
    }

    /// Asserts `self` equals `want` bit for bit: probabilities by
    /// `to_bits`, classes, class bytes and both kernel-tier flags.
    pub(crate) fn assert_bit_identical(&self, want: &FoldedReceiver, case: &str) {
        assert_eq!(
            self.one_probability.len(),
            want.one_probability.len(),
            "{case}"
        );
        for (idx, (got, want)) in self
            .one_probability
            .iter()
            .zip(&want.one_probability)
            .enumerate()
        {
            assert_eq!(got.to_bits(), want.to_bits(), "{case}: entry {idx}");
        }
        assert_eq!(self.decision_class, want.decision_class, "{case}");
        assert_eq!(self.class_bits, want.class_bits, "{case}");
        assert_eq!(
            self.deterministic_decisions, want.deterministic_decisions,
            "{case}"
        );
        assert_eq!(self.mux_exact, want.mux_exact, "{case}");
    }
}

// `finish_run` evaluates the polynomial once per item: keep that on the
// allocation-free path for every simulable order.
const _: () = assert!(OpticalScSystem::MAX_SIM_ORDER <= BernsteinPoly::MAX_STACK_DEGREE);

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
    /// The receiver noise folded into `power_table`: the decision tables
    /// and flags every kernel tier runs on.
    fold: FoldedReceiver,
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

    /// Decision-flip probabilities below this are folded to an exact 0 in
    /// the receiver table: no simulable stream length could observe them.
    /// `gaussian_q(z)` drops below it for every `z ≥ 8.7573`. The upper
    /// tail has no such clamp; it saturates only where `gaussian_q`
    /// rounds to exactly 1.0 (`z ≤ −8.2924`, flip probability
    /// ≲ 5.6e-17). [`OpticalScSystem::SATURATION_Z`] lies past both
    /// edges.
    pub const NEGLIGIBLE_FLIP_PROBABILITY: f64 = 1e-18;

    /// Half-width, in noise σ, of the band around the threshold inside
    /// which the receiver fold evaluates `gaussian_q`. An entry with
    /// `z = (threshold − power)/σ > 9` folds to 0 and one with `z < −9`
    /// to 1 without the call. Both are what the evaluated `Q` folds to
    /// there (see [`OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY`] for
    /// the two tail edges), so the cutoff changes no bit.
    pub const SATURATION_Z: f64 = 9.0;

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
        // Power for each (count, z-word): the adder only sees the count,
        // so 2^n data words collapse to n+1 rows. The bands, and so the
        // threshold, are read off the same table.
        let power_table = backend.power_table()?;
        let derandomizer = Derandomizer::from_bands(&PowerBands::from_table(&power_table));
        let fold = fold_receiver(
            &power_table,
            derandomizer.threshold(),
            backend.noise_sigma(),
        );
        Ok(OpticalScSystem {
            params,
            backend,
            resc: ReScUnit::new(poly.clone()),
            poly,
            derandomizer,
            power_table,
            fold,
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
    /// noise. A convenience wrapper: [`OpticalScSystem::evaluate_fused`]
    /// with a fresh [`EvalScratch`]. Loops should call `evaluate_fused`
    /// and reuse one scratch.
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
        self.evaluate_fused(x, stream_length, sng, rng, &mut EvalScratch::new())
    }

    /// Fused zero-materialization evaluation: streams SNG words straight
    /// into the decision kernel.
    ///
    /// Where [`OpticalScSystem::evaluate_bitwise`] first materializes
    /// `2n+1` [`BitStream`]s and then walks them, this path pulls one
    /// 64-cycle word at a time from each stream's
    /// [`SngWordCursor`](osc_stochastic::sng::SngWordCursor): the `n` data
    /// streams fold into `⌈log₂(n+1)⌉` bit-sliced ones-count planes as
    /// they leave the generator, and the `n+1` coefficient streams either
    /// fold directly into the decision (exact-multiplexer circuits) or
    /// land in `scratch` for the noisy kernel tiers. No stream is ever
    /// heap-allocated; `scratch` is reused across calls, so steady-state
    /// evaluation allocates nothing.
    ///
    /// Bit-identical to [`OpticalScSystem::evaluate_bitwise`]: same SNG
    /// comparator draws in the same order, same receiver-noise draws,
    /// same [`OpticalRun`] — the crate's property tests pin the equality
    /// across all four SNGs, every simulable order and ragged stream
    /// lengths.
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
    /// lock-step through one shared kernel pass: `L` circuit lanes
    /// become `[u64; L]` register groups walked side by side.
    ///
    /// Per-stream word arrays live *lane-interleaved* in `scratch`
    /// (block `w` of lane `l` at `w * L + l`), so the bit-sliced
    /// adder/multiplexer folds process `L` lanes per elementwise pass and
    /// the per-lane output counting is one SIMD popcount+fold sweep
    /// ([`osc_stochastic::simd`], runtime-dispatched scalar / AVX2 /
    /// AVX-512, overridable via `OSC_SIMD` for CI pinning). Generation
    /// interleaves all `L` comparator chains, one stream at a time
    /// ([`StochasticNumberGenerator::drain_lanes`]).
    ///
    /// Lane `l`'s [`OpticalRun`] — and the final states of `sngs[l]` and
    /// `rngs[l]` — are **bit-identical** to a standalone
    /// [`OpticalScSystem::evaluate_fused`] call with the same inputs;
    /// `evaluate_fused` is the `L = 1` case of this kernel, and the
    /// lane-equivalence tests also pin long-stream lanes directly against
    /// [`OpticalScSystem::evaluate_bitwise`].
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

    /// The lane-blocked fused kernel body: generation-order streaming
    /// (all data streams, then all coefficient streams — the exact draw
    /// order of [`ReScUnit::generate_streams`], per lane), then a
    /// decision phase in one of three tiers, selected once per run from
    /// precomputed table facts. Returns per-lane
    /// `(ones, ideal_ones, decision_flips)`:
    ///
    /// 1. `mux_exact` — every decision equals the ideal multiplexer bit
    ///    `z_count`, so the folded output is the decided stream: no
    ///    per-cycle work at all;
    /// 2. `deterministic_decisions` — decisions are a pure table function
    ///    of `(count, z-word)`, no randomness consumed;
    /// 3. general — as (2) plus one uniform draw per ambiguous cycle.
    ///
    /// Streams land in reusable scratch buffers (never a `BitStream`),
    /// stored lane-interleaved (`[u64; L]` register groups): data words
    /// fold into bit-sliced ones-count planes, coefficient words fold
    /// into the ideal multiplexer output (and are retained for the noisy
    /// tiers). The elementwise fold passes are lane-width-oblivious —
    /// they simply run over `words × L` blocks. Every stream is one
    /// [`StochasticNumberGenerator::drain_lanes`] walk. Per-lane ideal
    /// ones come from one SIMD popcount+fold sweep over the
    /// lane-interleaved output. Tiers 2 and 3 share one decision pass,
    /// [`OpticalScSystem::decide_lanes`].
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
        let mux_exact = self.fold.mux_exact;
        scratch.planes.clear();
        scratch.planes.resize(wl * nplanes, 0);
        scratch.sel.clear();
        scratch.sel.resize(wl, 0);
        if scratch.stream_buf.len() < wl {
            scratch.stream_buf.resize(wl, 0);
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
        // regime — coefficient streams land in the stream buffer and fold
        // immediately; noisy-tier coefficient words are retained in
        // `scratch.coeff`.
        let probs = |j: usize| -> [f64; L] {
            if j < N {
                *xs
            } else {
                [coeffs[j - N]; L]
            }
        };
        let buffered = |j: usize| j < N || mux_exact;
        for j in 0..2 * N + 1 {
            let d: &mut [u64] = if buffered(j) {
                &mut scratch.stream_buf[..wl]
            } else {
                let c = j - N;
                &mut scratch.coeff[c * wl..(c + 1) * wl]
            };
            let mut w = 0usize;
            S::drain_lanes(sngs, &probs(j), stream_length, |b, _| {
                d[w * L..(w + 1) * L].copy_from_slice(b);
                w += 1;
            })?;
            apply_stream_faults::<L>(plans.as_ref(), j, d, stream_length, &mut scratch.zero_marks);
            if j < N {
                fold_data_words(d, &mut scratch.planes, nplanes);
            } else {
                fold_sel_words(d, &scratch.planes, &mut scratch.sel, j - N, nplanes);
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
        let (ones, flips) = self.decide_lanes::<N, L>(
            stream_length,
            rngs,
            scratch,
            simd::BitMatrixKernels::active(),
        );
        Ok((ones, ideal, flips))
    }

    /// The decision pass of the noisy tiers over a folded lane block in
    /// `scratch`: decides every cycle of every lane against the folded
    /// receiver tables and returns per-lane `(ones, decision_flips)`.
    /// Lane `l` consumes `rngs[l]` in exactly the cycle order of a
    /// standalone fused run (and of the per-bit twin): one draw per
    /// class-2 cycle, in ascending (word, cycle) order.
    ///
    /// - Orders ≤ [`simd::ClassBits::MAX_ORDER`] with a `bitmatrix`
    ///   token: [`simd::BitMatrixKernels::decide_lanes`] decides all `L`
    ///   lanes one word index at a time — per-cycle class bytes from
    ///   bit transposes and register-resident class tables, then the
    ///   class-2 cycles of every lane drawn in vector lock-step.
    /// - Otherwise, lane by lane, 64 table indices per block from
    ///   [`simd::assemble_indices16`] or byte-spread assembly
    ///   ([`spread_tables`]), then a per-cycle table walk (order 12's
    ///   17-bit indices fall back to per-cycle extraction). The walk is
    ///   also the oracle the bit-matrix pass is tested against.
    fn decide_lanes<const N: usize, const L: usize>(
        &self,
        stream_length: usize,
        rngs: &mut [Xoshiro256PlusPlus; L],
        scratch: &EvalScratch,
        bitmatrix: Option<simd::BitMatrixKernels>,
    ) -> ([usize; L], [usize; L]) {
        let nplanes = planes_for(N);
        let words = stream_length.div_ceil(64);
        let wl = words * L;
        if let (Some(kernels), Some(classes)) = (bitmatrix, &self.fold.class_bits) {
            let block = simd::DecisionBlock {
                coeff: &scratch.coeff,
                planes: &scratch.planes,
                sel: &scratch.sel,
                len: stream_length,
            };
            let (ones, flips) =
                kernels.decide_lanes(classes, &self.fold.one_probability, &block, rngs);
            return (
                std::array::from_fn(|l| ones[l] as usize),
                std::array::from_fn(|l| flips[l] as usize),
            );
        }
        let table = &self.fold.one_probability[..];
        let classes = &self.fold.decision_class[..];
        let deterministic = self.fold.deterministic_decisions;
        let mut ones = [0usize; L];
        let mut flips = [0usize; L];
        if (N + 1) + nplanes <= 16 {
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
                        // in ascending cycle order.
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
        (ones, flips)
    }

    /// The folded receiver tables and flags the kernels run on.
    #[cfg(test)]
    pub(crate) fn folded_receiver(&self) -> &FoldedReceiver {
        &self.fold
    }

    /// Whether every receiver decision is exactly the ideal multiplexer
    /// output `z_count` — the regime where the fastest (bit-sliced,
    /// randomness-free) kernel tier runs.
    pub fn is_mux_exact(&self) -> bool {
        self.fold.mux_exact
    }

    /// Whether every folded decision probability is saturated at 0 or 1
    /// (decisions are a pure function of each cycle's `(count, z-word)`,
    /// consuming no randomness).
    pub fn has_deterministic_decisions(&self) -> bool {
        self.fold.deterministic_decisions
    }

    /// The exact mean of one clean cycle's decided bit at input `x`,
    /// computed from the folded tables with no sampling:
    ///
    /// `Σₖ C(n,k) xᵏ (1−x)ⁿ⁻ᵏ · Σ_z P(z) · P(decide 1 | k, z)`,
    ///
    /// where `k` is the ones count of the `n` data streams, `z` the
    /// `(n+1)`-bit coefficient word and `P(z) = Π_c b_c^{z_c} (1−b_c)^{1−z_c}`
    /// over the Bernstein coefficients `b_c`. Decision classes 0 and 1
    /// contribute exactly 0 and 1; a class-2 entry contributes the
    /// probability that its uniform draw `rng.next_f64() < q` fires,
    /// `⌈q·2⁵³⌉ / 2⁵³` (0 for a NaN `q`).
    ///
    /// The streams are taken as ideal independent Bernoulli sources, so
    /// this is the value an unbiased SNG's estimates converge to; the
    /// statistical oracle tests hold every SNG and kernel tier to it.
    /// For a mux-exact circuit it is the Bernstein polynomial itself.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn expected_output(&self, x: f64) -> f64 {
        assert!((0.0..=1.0).contains(&x), "x = {x} outside [0, 1]");
        let n = self.params.order;
        let width = 1usize << (n + 1);
        // P(z) for every coefficient word, built by doubling over the
        // coefficient streams.
        let mut pz = vec![0.0f64; width];
        pz[0] = 1.0;
        for (c, &b) in self.poly.coeffs().iter().enumerate() {
            let half = 1usize << c;
            for z in 0..half {
                pz[z | half] = pz[z] * b;
                pz[z] *= 1.0 - b;
            }
        }
        let mut binom = 1.0f64;
        let mut mean = 0.0;
        for k in 0..=n {
            let pk = binom * x.powi(k as i32) * (1.0 - x).powi((n - k) as i32);
            let row = k << (n + 1);
            let decide: f64 = pz
                .iter()
                .enumerate()
                .map(|(z, &p)| p * self.fold.draw_probability(row | z))
                .sum();
            mean += pk * decide;
            binom = binom * (n - k) as f64 / (k + 1) as f64;
        }
        mean
    }

    /// Per-bit twin of [`OpticalScSystem::evaluate_fused`]: identical
    /// stream traversal semantics and identical RNG consumption, one bit
    /// at a time. Given equal starting `sng`/`rng` states the two return
    /// exactly the same [`OpticalRun`] — the equivalence the property
    /// tests pin down. Kept as the readable reference; use
    /// `evaluate_fused` in hot paths.
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
        let p1 = self.fold.one_probability[(count << (self.params.order + 1)) | zw];
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
        // rather than mirroring the lane kernel's transpose.
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
        let mut scratch = EvalScratch::new();
        (0..points)
            .map(|i| {
                let x = i as f64 / (points - 1).max(1) as f64;
                let run = self.evaluate_fused(x, stream_length, sng, rng, &mut scratch)?;
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

    /// Synthetic folds that stress the bit-matrix decision pass: every
    /// entry class 2, NaN `q`, `q` one draw step off 0 and 1, and rows
    /// mixing all three classes with those edge values.
    fn adversarial_folds(
        order: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<(&'static str, FoldedReceiver)> {
        let entries = (order + 1) << (order + 1);
        let step = 1.0 / (1u64 << 53) as f64;
        let edges = [step, 1.0 - step];
        let draw = |rng: &mut Xoshiro256PlusPlus| 0.001 + 0.998 * rng.next_f64();
        let all_draws = (0..entries).map(|_| draw(rng)).collect();
        let nan = vec![f64::NAN; entries];
        let edge = (0..entries).map(|_| edges[rng.below(2) as usize]).collect();
        let mixed = (0..entries)
            .map(|_| match rng.below(6) {
                0 => 0.0,
                1 => 1.0,
                2 => f64::NAN,
                3 | 4 => edges[rng.below(2) as usize],
                _ => draw(rng),
            })
            .collect();
        [
            ("every entry class 2", all_draws),
            ("NaN q", nan),
            ("q at the draw edges", edge),
            ("mixed rows", mixed),
        ]
        .into_iter()
        .map(|(tag, p)| (tag, FoldedReceiver::from_probabilities(order, p)))
        .collect()
    }

    /// Runs one random order-`N`, `L`-lane block through the bit-matrix
    /// decision pass and the table walk: per-lane ones, flips and final
    /// generator states must agree.
    fn decide_both_ways<const N: usize, const L: usize>(
        system: &OpticalScSystem,
        kernels: simd::BitMatrixKernels,
        len: usize,
        fill: &mut Xoshiro256PlusPlus,
        case: &str,
    ) {
        let nplanes = planes_for(N);
        let wl = len.div_ceil(64) * L;
        let mut scratch = EvalScratch::new();
        scratch.planes = vec![0; nplanes * wl];
        for _ in 0..N {
            let mut data: Vec<u64> = (0..wl).map(|_| fill.next_u64()).collect();
            fold_data_words(&mut data, &mut scratch.planes, nplanes);
        }
        scratch.coeff = (0..(N + 1) * wl).map(|_| fill.next_u64()).collect();
        scratch.sel = (0..wl).map(|_| fill.next_u64()).collect();
        let start: [Xoshiro256PlusPlus; L] =
            std::array::from_fn(|_| Xoshiro256PlusPlus::new(fill.next_u64()));
        let (mut fast, mut walk) = (start.clone(), start);
        let got = system.decide_lanes::<N, L>(len, &mut fast, &scratch, Some(kernels));
        let want = system.decide_lanes::<N, L>(len, &mut walk, &scratch, None);
        let tag = format!("{case}: order {N}, {L} lanes, len {len}");
        assert_eq!(got, want, "{tag}");
        assert_eq!(fast, walk, "{tag}: generator states");
    }

    #[test]
    fn bitmatrix_decisions_equal_table_walk_on_adversarial_folds() {
        // No test of this crate moves the tier override, so only the
        // hardware or an `OSC_SIMD` cap below AVX-512 makes this a skip.
        let Some(kernels) = simd::BitMatrixKernels::active() else {
            eprintln!(
                "skipping bit-matrix decision test: AVX-512 tier, gfni, avx512vbmi or \
                 avx512vpopcntdq absent"
            );
            return;
        };
        fn per_order<const N: usize>(
            kernels: simd::BitMatrixKernels,
            fill: &mut Xoshiro256PlusPlus,
        ) {
            let poly = BernsteinPoly::new(vec![0.5; N + 1]).unwrap();
            let mut system = OpticalScSystem::new(
                CircuitParams::paper_fig7(N, osc_units::Nanometers::new(0.165)),
                poly,
            )
            .unwrap();
            for (case, fold) in adversarial_folds(N, fill) {
                system.fold = fold;
                for len in [1, 63, 64, 65, 2048, 8257] {
                    decide_both_ways::<N, 1>(&system, kernels, len, fill, case);
                    decide_both_ways::<N, 2>(&system, kernels, len, fill, case);
                    decide_both_ways::<N, 4>(&system, kernels, len, fill, case);
                    decide_both_ways::<N, 8>(&system, kernels, len, fill, case);
                }
            }
        }
        let mut fill = Xoshiro256PlusPlus::new(0xAD_FE55);
        per_order::<1>(kernels, &mut fill);
        per_order::<2>(kernels, &mut fill);
        per_order::<3>(kernels, &mut fill);
        per_order::<4>(kernels, &mut fill);
        per_order::<5>(kernels, &mut fill);
        per_order::<6>(kernels, &mut fill);
    }

    #[test]
    fn saturation_cutoff_lies_past_both_tail_edges() {
        // Every `z` the fold answers without `gaussian_q` must be one
        // where the evaluated `Q` folds to the same value: below the
        // negligible flip probability (so 0) for `z ≥ cutoff`, exactly
        // 1.0 for `z ≤ −cutoff`. Dense scan to 60σ, then both infinities.
        let cutoff = OpticalScSystem::SATURATION_Z;
        let negligible = OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY;
        let steps = ((60.0 - cutoff) / 1e-4) as u64;
        let scan = (0..=steps).map(|i| cutoff + i as f64 * 1e-4);
        for z in scan.chain([f64::INFINITY]) {
            assert!(gaussian_q(z) < negligible, "Q({z}) = {:e}", gaussian_q(z));
            assert_eq!(gaussian_q(-z), 1.0, "Q(-{z})");
        }
        // The edges themselves, inside the band: just short of them `Q`
        // is still observable (lower tail) or still below 1 (upper).
        assert!(gaussian_q(8.7572) >= negligible);
        assert!(gaussian_q(-8.2923) < 1.0);
    }

    #[test]
    fn flip_probability_tails_saturate_asymmetrically() {
        // threshold 0, σ = 1 mW: `z = −power`. The same flip probability
        // Q(8.75) ≈ 1.07e-18 stays a draw (class 2) below the threshold
        // but rounds to an exact 1 (class 1) above it; from ≈ 5.6e-17 up
        // the upper tail draws too.
        let mw = |row: [f64; 4]| row.map(Milliwatts::new).to_vec();
        let table = vec![
            mw([-8.75, 8.75, -8.76, 8.29]),
            mw([-9.5, 9.5, f64::NAN, 0.0]),
        ];
        let (threshold, sigma) = (Milliwatts::ZERO, Milliwatts::new(1.0));
        let fold = fold_receiver(&table, threshold, sigma);
        fold.assert_bit_identical(&fold_receiver_per_entry(&table, threshold, sigma), "tails");
        assert_eq!(fold.decision_class, [2, 1, 0, 2, 0, 1, 2, 2]);
        let p = &fold.one_probability;
        assert_eq!(p[0], gaussian_q(8.75));
        assert!(p[0] >= OpticalScSystem::NEGLIGIBLE_FLIP_PROBABILITY);
        assert_eq!(p[1], 1.0);
        assert!(p[3] < 1.0);
        assert!(p[6].is_nan());
        assert_eq!(p[7], gaussian_q(0.0));
        assert!(fold.class_bits.is_some());
        assert!(!fold.deterministic_decisions && !fold.mux_exact);
        // σ = 0: each entry decided by `power > threshold`.
        let exact = fold_receiver(&table, threshold, Milliwatts::ZERO);
        exact.assert_bit_identical(
            &fold_receiver_per_entry(&table, threshold, Milliwatts::ZERO),
            "sigma 0",
        );
        assert_eq!(exact.decision_class, [0, 1, 0, 1, 0, 1, 0, 0]);
        // An order-1 ideal multiplexer (z-word bit `count` decides) with
        // every entry 10σ from the threshold saturates entirely, so both
        // kernel-tier flags hold; 1σ away every entry draws.
        for (spread, flags) in [(10.0, true), (1.0, false)] {
            let mux = vec![
                mw([-spread, spread, -spread, spread]),
                mw([-spread, -spread, spread, spread]),
            ];
            let fold = fold_receiver(&mux, threshold, sigma);
            fold.assert_bit_identical(&fold_receiver_per_entry(&mux, threshold, sigma), "mux");
            assert_eq!(
                (fold.deterministic_decisions, fold.mux_exact),
                (flags, flags)
            );
        }
    }

    #[test]
    fn word_kernel_identical_to_bitwise_reference() {
        // Draw identity: fused ≡ per-bit, with one scratch reused across
        // every fused run.
        let s = system();
        let mut scratch = EvalScratch::new();
        for len in [1usize, 63, 64, 65, 130, 4096, 5000] {
            for (i, &x) in [0.0, 0.3, 0.5, 1.0].iter().enumerate() {
                let seed = 100 + (len + i) as u64;
                let mut sng_a = XoshiroSng::new(seed);
                let mut rng_a = Xoshiro256PlusPlus::new(seed ^ 0xABCD);
                let mut sng_b = XoshiroSng::new(seed);
                let mut rng_b = Xoshiro256PlusPlus::new(seed ^ 0xABCD);
                let fused = s
                    .evaluate_fused(x, len, &mut sng_a, &mut rng_a, &mut scratch)
                    .unwrap();
                let slow = s.evaluate_bitwise(x, len, &mut sng_b, &mut rng_b).unwrap();
                assert_eq!(fused, slow, "x={x}, len={len}");
                // Post-run RNG states must match too: another evaluation
                // from each pair must still be identical.
                let fused2 = s
                    .evaluate_fused(x, 130, &mut sng_a, &mut rng_a, &mut scratch)
                    .unwrap();
                let slow2 = s.evaluate_bitwise(x, 130, &mut sng_b, &mut rng_b).unwrap();
                assert_eq!(fused2, slow2, "x={x}, len={len} (second run)");
            }
        }
    }

    #[test]
    fn word_kernel_identical_under_visible_noise() {
        // Starved probes make the folded probabilities land strictly
        // inside (0, 1), so the uniform-draw branch is exercised.
        let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
        let s = OpticalScSystem::new(params, BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap())
            .unwrap();
        assert!(!s.has_deterministic_decisions() || !s.is_mux_exact());
        let mut sng_a = XoshiroSng::new(7);
        let mut rng_a = Xoshiro256PlusPlus::new(8);
        let mut sng_b = XoshiroSng::new(7);
        let mut rng_b = Xoshiro256PlusPlus::new(8);
        let fused = s.evaluate(0.4, 4097, &mut sng_a, &mut rng_a).unwrap();
        let slow = s
            .evaluate_bitwise(0.4, 4097, &mut sng_b, &mut rng_b)
            .unwrap();
        assert_eq!(fused, slow);
        assert!(
            fused.observed_ber > 0.0,
            "expected the noisy branch to fire"
        );
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

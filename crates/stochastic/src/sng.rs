//! Stochastic number generators (SNGs).
//!
//! An SNG converts a probability `p ∈ [0, 1]` into a bit-stream whose
//! expected fraction of ones is `p`. The canonical hardware structure is a
//! random-source + comparator pair (paper Fig. 1(a)); the quality of the
//! random source governs the accuracy/stream-length tradeoff studied in
//! [`crate::analysis`]:
//!
//! - [`LfsrSng`]: maximal-length LFSR comparator SNG — the CMOS baseline;
//! - [`CounterSng`]: deterministic low-discrepancy (van der Corput) source,
//!   giving O(1/N) convergence instead of O(1/√N);
//! - [`XoshiroSng`]: seeded high-quality PRNG, the software reference;
//! - [`ChaoticLaserSng`]: stand-in for the paper's future-work randomizer
//!   \[20\] — a 640 Gbit/s chaotic-laser TRNG, modeled as an ideal fast
//!   entropy source (SplitMix64-backed, optionally seeded for replay).
//!
//! # Word-parallel fast paths and streaming cursors
//!
//! Every generator assembles whole 64-bit words instead of setting bits
//! one at a time, and the comparator is lowered to an exact integer
//! threshold where the random source has a power-of-two range (see
//! [`unit_threshold`]). The LFSR and counter sources compare one state
//! per bit, as the hardware they model does. The Xoshiro and
//! chaotic-laser sources run the 53-bit comparison MSB-first over 64
//! output bits at once: one 64-bit draw per threshold bit, each output
//! bit decided at its first random bit that differs from the threshold's
//! — about 9 draws per word instead of 64, with every output bit still
//! exactly Bernoulli(`⌈p·2⁵³⌉ / 2⁵³`). The primitive is the *streaming* form: a
//! [`StochasticNumberGenerator::begin`] call hands back a
//! [`SngWordCursor`] that yields one packed word per 64 clock cycles
//! straight out of the random source, with no [`BitStream`] (or any heap)
//! allocation — the fused evaluation paths in `osc-stochastic::resc` and
//! `osc-core::system` consume streams this way. The materializing
//! [`StochasticNumberGenerator::generate`] is a thin collector over the
//! cursor, so the two are bit-identical by construction. The per-bit
//! comparator path is preserved as
//! [`StochasticNumberGenerator::generate_bitwise`]; the word paths are
//! **bit-identical** to it — same bits, same random-source state after the
//! call — which the crate's property tests pin down for word-aligned and
//! ragged stream lengths alike.

use crate::bitstream::BitStream;
use crate::lfsr::Lfsr;
use crate::{check_unit, ScError};
use osc_math::rng::{SplitMix64, Xoshiro256PlusPlus};

/// Smallest integer `T` such that `u < T  ⇔  u / 2^bits < p` for every
/// integer `u ∈ [0, 2^bits)`.
///
/// `p * 2^bits` is exact in `f64` (scaling by a power of two only moves
/// the exponent), so thresholding an integer comparator state against `T`
/// reproduces the floating-point comparison `u as f64 / 2^bits < p`
/// bit-for-bit while staying entirely in integer arithmetic.
///
/// # Panics
///
/// Panics if `bits > 63` (the threshold for `p = 1` would not fit) or
/// `p` is outside `[0, 1]` — callers validate `p` via `check_unit` first.
pub fn unit_threshold(p: f64, bits: u32) -> u64 {
    assert!(bits <= 63, "unit_threshold supports at most 63 bits");
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    (p * (1u64 << bits) as f64).ceil() as u64
}

/// Packs `nbits` comparator outcomes from `bit()` into a word, LSB-first.
#[inline]
fn pack_word<F: FnMut() -> bool>(nbits: usize, mut bit: F) -> u64 {
    let mut w = 0u64;
    for b in 0..nbits {
        w |= u64::from(bit()) << b;
    }
    w
}

/// Packs 64 outcomes by MSB insertion — after 64 insertions the first
/// outcome sits at bit 0 (LSB-first), with no per-bit variable shift on
/// the critical path.
#[inline]
fn pack64<F: FnMut() -> bool>(mut bit: F) -> u64 {
    let mut w = 0u64;
    for _ in 0..64 {
        w = (w >> 1) | (u64::from(bit()) << 63);
    }
    w
}

/// Shared drain loop: full 64-bit words with a constant trip count (so the
/// comparator loop fully unrolls), then one ragged tail word.
#[inline]
fn drain_with<B: FnMut() -> bool, F: FnMut(u64, usize)>(len: usize, mut bit: B, mut emit: F) {
    let mut remaining = len;
    while remaining >= 64 {
        emit(pack64(&mut bit), 64);
        remaining -= 64;
    }
    if remaining > 0 {
        emit(pack_word(remaining, &mut bit), remaining);
    }
}

/// Drains `L` equal-length independent bit sources in word lockstep.
/// `bit(l)` draws the
/// next bit of lane `l`; lanes interleave at bit granularity, so each
/// lane's serial state-update latency hides behind the other `L − 1`
/// chains' — the engine of [`StochasticNumberGenerator::drain_lanes`].
/// Per lane the draw order is strictly sequential, so every lane's bits
/// (and final source state) match a standalone drain exactly.
#[inline]
fn drain_lanes_with<const L: usize, B, F>(len: usize, mut bit: B, mut emit: F)
where
    B: FnMut(usize) -> bool,
    F: FnMut(&[u64; L], usize),
{
    let mut remaining = len;
    while remaining >= 64 {
        let mut block = [0u64; L];
        for _ in 0..64 {
            for (l, w) in block.iter_mut().enumerate() {
                *w = (*w >> 1) | (u64::from(bit(l)) << 63);
            }
        }
        emit(&block, 64);
        remaining -= 64;
    }
    if remaining > 0 {
        let mut block = [0u64; L];
        for b in 0..remaining {
            for (l, w) in block.iter_mut().enumerate() {
                *w |= u64::from(bit(l)) << b;
            }
        }
        emit(&block, remaining);
    }
}

/// Whether the scalar-tier chunked burst schedule should replace the
/// bit-granular interleave for an `L`-lane drain: with no vector engine
/// behind the lanes, interleaving only thrashes `L` live source states
/// through one scalar pipe (pr5's forced-scalar records measured it at
/// 0.79–0.85× of sequential draining). Both schedules are bit-identical
/// by construction, so the dispatch is unobservable.
#[inline]
fn scalar_lane_burst<const L: usize>() -> bool {
    L > 1 && crate::simd::active_tier() == crate::simd::SimdTier::Scalar
}

/// Chunked companion of [`drain_lanes_with`] (the scalar-tier schedule
/// of the per-bit sources, and the portable walk of the sliced ones,
/// [`drain_sliced_lanes`]): each lane fills a whole multi-word chunk in
/// one tight run — `run(l, words, last_bits)`
/// packs `words.len()` words of lane `l`'s stream, with `last_bits`
/// valid bits in the final word — before the next lane starts, so a
/// caller-hoisted source state stays in registers for up to
/// `CHUNK × 64` consecutive draws (per-word lane switching measurably
/// pays reload/spill tax; per-chunk switching is noise). The buffered
/// chunk is then emitted in the same word-lockstep block order as
/// [`drain_lanes_with`]; per lane the draw order is strictly
/// sequential, so the emitted words and final source states are
/// bit-identical to the interleave.
#[inline]
fn drain_lanes_chunked<const L: usize, R, F>(len: usize, mut run: R, mut emit: F)
where
    R: FnMut(usize, &mut [u64], usize),
    F: FnMut(&[u64; L], usize),
{
    // 32 words (2048 bits) per lane per chunk: large enough that the
    // per-chunk lane switch vanishes, small enough that the buffer
    // stays comfortably on the stack (2 KiB at L = 8).
    const CHUNK: usize = 32;
    let mut buf = [[0u64; CHUNK]; L];
    let mut remaining = len;
    while remaining > 0 {
        let bits = remaining.min(CHUNK * 64);
        let words = bits.div_ceil(64);
        let last_bits = bits - (words - 1) * 64;
        for (l, lane_buf) in buf.iter_mut().enumerate() {
            run(l, &mut lane_buf[..words], last_bits);
        }
        // `w` strides across every lane's buffer at once (a transposed
        // gather), which no single-slice iterator expresses.
        #[allow(clippy::needless_range_loop)]
        for w in 0..words {
            let block: [u64; L] = std::array::from_fn(|l| buf[l][w]);
            let nbits = if w + 1 == words { last_bits } else { 64 };
            emit(&block, nbits);
        }
        remaining -= bits;
    }
}

/// Fills one lane's chunk for [`drain_lanes_chunked`] from a per-draw
/// comparator closure: full words through [`pack64`] (constant trip
/// count, fully unrolled), a ragged last word through [`pack_word`].
#[inline]
fn fill_lane_words<B: FnMut() -> bool>(words: &mut [u64], last_bits: usize, mut bit: B) {
    let n = words.len();
    for (i, w) in words.iter_mut().enumerate() {
        *w = if i + 1 == n && last_bits < 64 {
            pack_word(last_bits, &mut bit)
        } else {
            pack64(&mut bit)
        };
    }
}

/// Draws between two exit tests of the sliced comparator: a word stops
/// drawing at the first multiple of `SLICE_EXIT_STRIDE` draws after
/// which none of its bits is still tied (or earlier, once its threshold
/// runs out of one bits). Part of the stream definition: every path —
/// cursor, lane drains, vector engines and the per-bit oracle — obeys
/// it, so the words and final generator states are the same everywhere.
pub(crate) const SLICE_EXIT_STRIDE: u32 = 4;

/// The 53-bit comparator `u < T` (`T =` [`unit_threshold`]`(p, 53)`) in
/// the MSB-first bit-sliced form that decides 64 output bits at once.
///
/// Output bit `i` of a word compares the uniform 53-bit
/// `U_i = Σ_j bit_i(r_j) · 2^(52 − j)` against `T`, where `r_0, r_1, …`
/// are the word's successive 64-bit draws: draw `j` supplies bit `52 − j`
/// of every output bit's uniform at once. Bit `i` is decided at its
/// first draw whose bit differs from threshold bit `52 − j` — 1 when the
/// threshold bit is 1 (`U_i < T`), 0 otherwise — and a bit still tied
/// when the threshold's remaining bits are all zero is 0 (`U_i ≥ T`).
/// So each output bit is exactly Bernoulli(`T / 2⁵³`), and a word draws
/// only until its valid bits are decided:
///
/// - `draws` is the threshold's length in bits up to its lowest one bit
///   (`53 − trailing_zeros(T)`); a word never draws more than that;
/// - after every [`SLICE_EXIT_STRIDE`]-th draw the word stops if no
///   valid bit is tied;
/// - `T = 0` (p = 0) and `T = 2⁵³` (p = 1) draw nothing: every bit is 0,
///   respectively 1.
///
/// A generic `p` takes about 9 draws per 64-bit word (p = 0.5 takes
/// one), where a per-bit comparator takes 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlicedThreshold {
    /// `T`'s 53 bits MSB-first from bit 63 (`T << 11`): draw `j` reads
    /// bit `63 − j`.
    pub(crate) bits: u64,
    /// Most draws a word takes (0 for `T ∈ {0, 2⁵³}`).
    pub(crate) draws: u64,
    /// The word a draw-free threshold yields: all ones for `T = 2⁵³`,
    /// else 0.
    pub(crate) saturated: u64,
}

impl SlicedThreshold {
    /// The sliced form of the 53-bit threshold `t ≤ 2⁵³`.
    pub(crate) fn new(t: u64) -> Self {
        debug_assert!(t <= 1 << 53);
        if t == 0 || t >= 1 << 53 {
            SlicedThreshold {
                bits: 0,
                draws: 0,
                saturated: if t == 0 { 0 } else { u64::MAX },
            }
        } else {
            SlicedThreshold {
                bits: t << 11,
                draws: u64::from(53 - t.trailing_zeros()),
                saturated: 0,
            }
        }
    }

    /// The sliced threshold for probability `p`, validated.
    fn for_probability(p: f64) -> Result<Self, ScError> {
        Ok(Self::new(unit_threshold(check_unit("probability", p)?, 53)))
    }

    /// Produces one word of `nbits ∈ 1..=64` valid bits from the draws
    /// `next()` yields, LSB-first with zero padding above the valid bits.
    /// Only the valid bits start tied, so a ragged word stops as soon as
    /// they are decided.
    #[inline]
    pub(crate) fn word<R: FnMut() -> u64>(&self, nbits: usize, mut next: R) -> u64 {
        let valid = u64::MAX >> (64 - nbits);
        if self.draws == 0 {
            return self.saturated & valid;
        }
        let (mut tied, mut ones) = (valid, 0u64);
        let (mut tbits, mut left) = (self.bits, self.draws);
        loop {
            for _ in 0..SLICE_EXIT_STRIDE {
                let r = next();
                // All ones where this draw's threshold bit is 1.
                let tm = ((tbits as i64) >> 63) as u64;
                ones |= tied & !r & tm;
                tied &= !(r ^ tm);
                tbits <<= 1;
                left -= 1;
                if left == 0 {
                    return ones;
                }
            }
            if tied == 0 {
                return ones;
            }
        }
    }

    /// Per-bit reference of [`SlicedThreshold::word`]: draws the word's
    /// random words one at a time under the same stopping rule, judging
    /// "still tied" bit by bit from each bit's drawn prefix, then decides
    /// every bit by comparing its `d`-bit prefix with `T`'s top `d` bits.
    fn word_bitwise<R: FnMut() -> u64>(&self, nbits: usize, mut next: R) -> Vec<bool> {
        let t = if self.saturated != 0 {
            1u64 << 53
        } else {
            self.bits >> 11
        };
        let mut draws: Vec<u64> = Vec::new();
        let prefix = |draws: &[u64], i: usize| {
            draws
                .iter()
                .fold(0u64, |acc, &r| (acc << 1) | ((r >> i) & 1))
        };
        let top = |d: usize| t >> (53 - d);
        while (draws.len() as u64) < self.draws {
            draws.push(next());
            let d = draws.len();
            if (d as u64).is_multiple_of(u64::from(SLICE_EXIT_STRIDE))
                && (0..nbits).all(|i| prefix(&draws, i) != top(d))
            {
                break;
            }
        }
        (0..nbits)
            .map(|i| prefix(&draws, i) < top(draws.len()))
            .collect()
    }
}

/// Drains `len` bits as consecutive words of `word(nbits)`.
#[inline]
fn drain_words<W: FnMut(usize) -> u64, F: FnMut(u64, usize)>(len: usize, mut word: W, mut emit: F) {
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        emit(word(nbits), nbits);
        remaining -= nbits;
    }
}

/// The portable lane walk of the sliced-comparator sources, on
/// [`drain_lanes_chunked`]: lane `l` draws from `states[l]` through
/// `next` against `thresholds[l]`, one lane's chunk at a time, so its
/// state stays in registers as in a standalone drain. Per lane the draws
/// are strictly sequential, so each lane's words and final state equal a
/// standalone drain.
#[inline]
fn drain_sliced_lanes<const L: usize, S, N, F>(
    states: &mut [S; L],
    thresholds: &[SlicedThreshold; L],
    len: usize,
    mut next: N,
    emit: F,
) where
    S: Clone,
    N: FnMut(&mut S) -> u64,
    F: FnMut(&[u64; L], usize),
{
    drain_lanes_chunked::<L, _, _>(
        len,
        |l, words, last_bits| {
            let (mut state, threshold) = (states[l].clone(), thresholds[l]);
            let n = words.len();
            for (i, w) in words.iter_mut().enumerate() {
                let nbits = if i + 1 == n { last_bits } else { 64 };
                *w = threshold.word(nbits, || next(&mut state));
            }
            states[l] = state;
        },
        emit,
    );
}

/// Per-bit form of a sliced stream: each 64-bit block through
/// [`SlicedThreshold::word_bitwise`].
fn sliced_stream_bitwise<R: FnMut() -> u64>(
    threshold: SlicedThreshold,
    len: usize,
    mut next: R,
) -> BitStream {
    let mut bits = Vec::with_capacity(len);
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        bits.extend(threshold.word_bitwise(nbits, &mut next));
        remaining -= nbits;
    }
    BitStream::from_fn(len, |i| bits[i])
}

/// A streaming word cursor over one stream being generated.
///
/// Returned by [`StochasticNumberGenerator::begin`]; bound to one stream
/// of fixed length and probability. It yields exactly the bits
/// [`StochasticNumberGenerator::generate`] would produce — same comparator
/// draws in the same order, same random-source state once the stream is
/// exhausted — 64 bits per [`SngWordCursor::next_word`] call (fewer in the
/// final word), packed LSB-first. No allocation anywhere.
pub trait SngWordCursor: Sized {
    /// Bits not yet produced.
    fn remaining(&self) -> usize;

    /// Produces the next `min(64, remaining)` bits, packed LSB-first with
    /// zero padding above the valid bits. Once the stream is exhausted it
    /// returns 0 without drawing from the source.
    fn next_word(&mut self) -> u64;

    /// Streams every remaining word into `emit(word, nbits)`, consuming
    /// the cursor — the hot path. Implementations override the default to
    /// hoist their source state into locals for the whole run instead of
    /// round-tripping through the generator on every word. After `drain`
    /// returns, the generator is in exactly the state a full `generate`
    /// call would have left it in.
    fn drain<F: FnMut(u64, usize)>(mut self, mut emit: F) {
        while self.remaining() > 0 {
            let nbits = self.remaining().min(64);
            emit(self.next_word(), nbits);
        }
    }
}

/// A source of stochastic bit-streams with prescribed bias.
///
/// Implementors must return a stream of exactly `len` bits with ones
/// probability as close to `p` as the source permits.
pub trait StochasticNumberGenerator {
    /// Streaming cursor tied to one [`StochasticNumberGenerator::begin`]
    /// call.
    type Cursor<'a>: SngWordCursor
    where
        Self: 'a;

    /// Begins streaming `len` bits with ones-probability `p`, one packed
    /// word at a time, without materializing the stream. Draining the
    /// cursor leaves the generator in the same state `generate(p, len)`
    /// would; abandoning it part-way advances the random source only by
    /// the draws of the words actually pulled — though per-stream setup
    /// (such as [`CounterSng`]'s Halton base) is consumed by `begin`
    /// itself, so an abandoned cursor still counts as one begun stream.
    ///
    /// # Errors
    ///
    /// [`ScError::OutOfUnitRange`] if `p` is outside `[0, 1]`.
    fn begin(&mut self, p: f64, len: usize) -> Result<Self::Cursor<'_>, ScError>;

    /// Generates `len` bits with ones-probability `p`.
    ///
    /// The default materializes the [`StochasticNumberGenerator::begin`]
    /// cursor, so the streaming and materializing paths are bit-identical
    /// by construction.
    ///
    /// # Errors
    ///
    /// [`ScError::OutOfUnitRange`] if `p` is outside `[0, 1]`.
    fn generate(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        self.begin(p, len)?.drain(|w, _| words.push(w));
        Ok(BitStream::from_words(words, len))
    }

    /// Drains one `len`-bit stream per lane — lane `l` draws from
    /// `lanes[l]` at probability `ps[l]` — in 64-cycle word lockstep:
    /// each `emit(&block, nbits)` call delivers one packed word per lane
    /// (`block[l]` is lane `l`'s next word, LSB-first, zero-padded above
    /// the valid bits).
    ///
    /// The lanes are *independent generator instances*, so no jumping is
    /// required: each lane simply draws its own stream. What the blocked
    /// form buys is instruction-level parallelism — `L` comparator chains
    /// run side by side (interleaved per bit, or as vector lanes), hiding
    /// each source's serial state-update latency behind the other `L − 1`
    /// (the engine of the lane-blocked evaluation pipeline). Per lane the
    /// bits and the final generator state are **identical** to a standalone
    /// [`StochasticNumberGenerator::begin`]`/drain` of the same stream —
    /// the crate's property tests pin that per source.
    ///
    /// The default implementation interleaves the lanes' cursors word by
    /// word; hot sources override it to hoist all `L` source states into
    /// locals for the whole run.
    ///
    /// # Errors
    ///
    /// [`ScError::OutOfUnitRange`] if any `ps[l]` is outside `[0, 1]`
    /// (checked for every lane before any randomness is consumed).
    fn drain_lanes<const L: usize, F>(
        lanes: &mut [Self; L],
        ps: &[f64; L],
        len: usize,
        mut emit: F,
    ) -> Result<(), ScError>
    where
        Self: Sized,
        F: FnMut(&[u64; L], usize),
    {
        for &p in ps {
            check_unit("probability", p)?;
        }
        let mut cursors = Vec::with_capacity(L);
        for (lane, &p) in lanes.iter_mut().zip(ps) {
            cursors.push(lane.begin(p, len)?);
        }
        let mut remaining = len;
        let mut block = [0u64; L];
        while remaining > 0 {
            let nbits = remaining.min(64);
            for (slot, cur) in block.iter_mut().zip(cursors.iter_mut()) {
                *slot = cur.next_word();
            }
            emit(&block, nbits);
            remaining -= nbits;
        }
        Ok(())
    }

    /// Per-bit reference implementation of [`Self::generate`].
    ///
    /// Generators with a word-parallel fast path override this with a
    /// straightforward per-bit form of their comparator (one comparison
    /// per bit; for the sliced sources, each bit's drawn prefix against
    /// the threshold's); the two must be bit-identical (including the
    /// generator state left behind). The default simply delegates to
    /// `generate`.
    ///
    /// # Errors
    ///
    /// [`ScError::OutOfUnitRange`] if `p` is outside `[0, 1]`.
    fn generate_bitwise(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        self.generate(p, len)
    }

    /// Human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// LFSR + comparator SNG: the standard stochastic computing randomizer.
#[derive(Debug, Clone)]
pub struct LfsrSng {
    lfsr: Lfsr,
}

impl LfsrSng {
    /// Creates an SNG over a maximal-length LFSR of the given width.
    ///
    /// The seed is masked to the register width; a zero seed (the one
    /// forbidden state) is replaced by all-ones, so every `(width, seed)`
    /// with a supported width builds.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidGenerator`] if the width is outside `3..=32` —
    /// widths often arrive from configuration (CLI flags, shard-worker
    /// requests), and a worker process must reject a bad one instead of
    /// aborting on it.
    pub fn new(width: u32, seed: u32) -> Result<Self, ScError> {
        Ok(LfsrSng {
            lfsr: Lfsr::new(width, seed).map_err(ScError::InvalidGenerator)?,
        })
    }
}

/// Streaming cursor of [`LfsrSng`].
#[derive(Debug)]
pub struct LfsrWordCursor<'a> {
    lfsr: &'a mut Lfsr,
    threshold: u64,
    remaining: usize,
}

impl SngWordCursor for LfsrWordCursor<'_> {
    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_word(&mut self) -> u64 {
        let nbits = self.remaining.min(64);
        self.remaining -= nbits;
        let lfsr = &mut *self.lfsr;
        let threshold = self.threshold;
        pack_word(nbits, || u64::from(lfsr.next_state()) < threshold)
    }

    fn drain<F: FnMut(u64, usize)>(self, emit: F) {
        let LfsrWordCursor {
            lfsr,
            threshold,
            remaining,
        } = self;
        let mut local = lfsr.clone();
        drain_with(
            remaining,
            || u64::from(local.next_state()) < threshold,
            emit,
        );
        *lfsr = local;
    }
}

impl StochasticNumberGenerator for LfsrSng {
    type Cursor<'a>
        = LfsrWordCursor<'a>
    where
        Self: 'a;

    fn begin(&mut self, p: f64, len: usize) -> Result<LfsrWordCursor<'_>, ScError> {
        let p = check_unit("probability", p)?;
        // `next_unit` is `state / 2^w`: a power-of-two range, so the
        // comparison lowers to an exact integer threshold.
        Ok(LfsrWordCursor {
            threshold: unit_threshold(p, self.lfsr.width()),
            lfsr: &mut self.lfsr,
            remaining: len,
        })
    }

    fn drain_lanes<const L: usize, F>(
        lanes: &mut [Self; L],
        ps: &[f64; L],
        len: usize,
        emit: F,
    ) -> Result<(), ScError>
    where
        F: FnMut(&[u64; L], usize),
    {
        let mut thresholds = [0u64; L];
        for (t, (lane, &p)) in thresholds.iter_mut().zip(lanes.iter().zip(ps)) {
            *t = unit_threshold(check_unit("probability", p)?, lane.lfsr.width());
        }
        // The lanes are independent registers, so hoisting all L into
        // locals gives the interleaved chains directly.
        let mut regs: [Lfsr; L] = std::array::from_fn(|l| lanes[l].lfsr.clone());
        if scalar_lane_burst::<L>() {
            drain_lanes_chunked::<L, _, _>(
                len,
                |l, words, last_bits| {
                    let mut reg = regs[l].clone();
                    let threshold = thresholds[l];
                    fill_lane_words(words, last_bits, || u64::from(reg.next_state()) < threshold);
                    regs[l] = reg;
                },
                emit,
            );
        } else {
            drain_lanes_with::<L, _, _>(
                len,
                |l| u64::from(regs[l].next_state()) < thresholds[l],
                emit,
            );
        }
        for (lane, reg) in lanes.iter_mut().zip(regs) {
            lane.lfsr = reg;
        }
        Ok(())
    }

    fn generate_bitwise(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        let p = check_unit("probability", p)?;
        Ok(BitStream::from_fn(len, |_| self.lfsr.next_unit() < p))
    }

    fn name(&self) -> &'static str {
        "lfsr"
    }
}

/// Low-discrepancy SNG using van der Corput radical-inverse sequences.
///
/// Deterministic and uniformly spread, which drops the SC quantization
/// error from O(1/√N) toward O(log N / N) — the "improved accuracy"
/// direction the parallel-SC literature (\[3\] in the paper) pursues.
///
/// Successive [`StochasticNumberGenerator::generate`] calls use successive
/// *prime bases* (the Halton construction), so the streams feeding one
/// ReSC unit are mutually quasi-independent — reusing a single base across
/// streams would correlate them perfectly and break the multiplexer
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct CounterSng {
    stream: usize,
}

/// The first 64 primes, used as Halton bases for successive streams.
const HALTON_PRIMES: [u64; 64] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311,
];

impl CounterSng {
    /// Creates a fresh generator; its first stream uses base 2.
    pub fn new() -> Self {
        CounterSng::default()
    }

    /// Radical inverse of `n` in the given base (the van der Corput map).
    fn van_der_corput_base(mut n: u64, base: u64) -> f64 {
        let mut q = 0.0;
        let mut bk = 1.0 / base as f64;
        while n > 0 {
            q += (n % base) as f64 * bk;
            n /= base;
            bk /= base as f64;
        }
        q
    }

    /// Base-2 radical inverse (the classic van der Corput sequence).
    pub fn van_der_corput(n: u64) -> f64 {
        Self::van_der_corput_base(n, 2)
    }

    fn next_base(&mut self) -> u64 {
        let base = HALTON_PRIMES[self.stream % HALTON_PRIMES.len()];
        self.stream += 1;
        base
    }

    /// Consumes the next Halton base and picks the comparator mode for a
    /// `len`-bit stream at probability `p`.
    fn next_mode(&mut self, p: f64, len: usize) -> CounterMode {
        let base = self.next_base();
        // Index starts at 1: the radical inverse of 0 is exactly 0, which
        // would bias the first bit high for every p > 0.
        if base == 2 && (len as u64) < (1 << 52) {
            // vdc_2(n) == reverse_bits(n) / 2^64 exactly (for n below 2^53
            // the radical inverse is a short binary fraction, so the
            // reference f64 accumulation is exact too).
            CounterMode::Base2 {
                threshold: ((p * 2f64.powi(64)).ceil()) as u128,
            }
        } else {
            CounterMode::Halton { base, p }
        }
    }
}

/// Comparator mode of a [`CounterWordCursor`].
#[derive(Debug, Clone, Copy)]
enum CounterMode {
    /// Base-2 radical inverse as an exact integer threshold on
    /// `reverse_bits` — `u128` admits the `p = 1` threshold of `2^64`.
    Base2 { threshold: u128 },
    /// Generic Halton base, per-bit float comparator.
    Halton { base: u64, p: f64 },
}

/// Streaming cursor of [`CounterSng`].
///
/// Owns its position (the generator's only per-stream state, the Halton
/// base index, is consumed by `begin`), so it borrows nothing.
#[derive(Debug, Clone)]
pub struct CounterWordCursor {
    mode: CounterMode,
    n: u64,
    remaining: usize,
}

/// One comparator evaluation of a counter stream at index `*n + 1`.
#[inline]
fn counter_bit(mode: &CounterMode, n: &mut u64) -> bool {
    *n += 1;
    match *mode {
        CounterMode::Base2 { threshold } => (n.reverse_bits() as u128) < threshold,
        CounterMode::Halton { base, p } => CounterSng::van_der_corput_base(*n, base) < p,
    }
}

impl SngWordCursor for CounterWordCursor {
    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_word(&mut self) -> u64 {
        let nbits = self.remaining.min(64);
        self.remaining -= nbits;
        let n = &mut self.n;
        match self.mode {
            CounterMode::Base2 { threshold } => pack_word(nbits, || {
                *n += 1;
                (n.reverse_bits() as u128) < threshold
            }),
            CounterMode::Halton { base, p } => pack_word(nbits, || {
                *n += 1;
                CounterSng::van_der_corput_base(*n, base) < p
            }),
        }
    }

    fn drain<F: FnMut(u64, usize)>(self, emit: F) {
        let mut n = self.n;
        match self.mode {
            CounterMode::Base2 { threshold } => drain_with(
                self.remaining,
                || {
                    n += 1;
                    (n.reverse_bits() as u128) < threshold
                },
                emit,
            ),
            CounterMode::Halton { base, p } => drain_with(
                self.remaining,
                || {
                    n += 1;
                    CounterSng::van_der_corput_base(n, base) < p
                },
                emit,
            ),
        }
    }
}

impl StochasticNumberGenerator for CounterSng {
    type Cursor<'a>
        = CounterWordCursor
    where
        Self: 'a;

    fn begin(&mut self, p: f64, len: usize) -> Result<CounterWordCursor, ScError> {
        let p = check_unit("probability", p)?;
        Ok(CounterWordCursor {
            mode: self.next_mode(p, len),
            n: 0,
            remaining: len,
        })
    }

    fn drain_lanes<const L: usize, F>(
        lanes: &mut [Self; L],
        ps: &[f64; L],
        len: usize,
        mut emit: F,
    ) -> Result<(), ScError>
    where
        F: FnMut(&[u64; L], usize),
    {
        let mut checked = [0f64; L];
        for (c, &p) in checked.iter_mut().zip(ps) {
            *c = check_unit("probability", p)?;
        }
        let modes: [CounterMode; L] = std::array::from_fn(|l| lanes[l].next_mode(checked[l], len));
        // All-base-2 lanes (the common case: fresh generators all sit on
        // Halton base 2) share one counter walk and differ only in their
        // integer thresholds — exactly the shape of the vectorized
        // bit-reversal engine. Lower each u128 threshold to the engine's
        // (wide, always) comparator form; any Halton lane falls through
        // to the per-bit interleave.
        let mut wide = [0u64; L];
        let mut always = [false; L];
        let all_base2 = modes.iter().enumerate().all(|(l, mode)| match *mode {
            CounterMode::Base2 { threshold } => {
                if threshold >= 1u128 << 64 {
                    always[l] = true;
                } else {
                    wide[l] = threshold as u64;
                }
                true
            }
            CounterMode::Halton { .. } => false,
        });
        if all_base2 && crate::simd::counter_drain_chains::<L, _>(&wide, &always, len, &mut emit) {
            return Ok(());
        }
        let mut ns = [0u64; L];
        if scalar_lane_burst::<L>() {
            drain_lanes_chunked::<L, _, _>(
                len,
                |l, words, last_bits| {
                    let mode = &modes[l];
                    let mut n = ns[l];
                    fill_lane_words(words, last_bits, || counter_bit(mode, &mut n));
                    ns[l] = n;
                },
                emit,
            );
        } else {
            drain_lanes_with::<L, _, _>(len, |l| counter_bit(&modes[l], &mut ns[l]), emit);
        }
        Ok(())
    }

    fn generate_bitwise(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        let p = check_unit("probability", p)?;
        let base = self.next_base();
        Ok(BitStream::from_fn(len, |i| {
            Self::van_der_corput_base(i as u64 + 1, base) < p
        }))
    }

    fn name(&self) -> &'static str {
        "counter"
    }
}

/// Seeded software PRNG SNG (Xoshiro256++), the reproducible reference.
#[derive(Debug, Clone)]
pub struct XoshiroSng {
    rng: Xoshiro256PlusPlus,
}

impl XoshiroSng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        XoshiroSng {
            rng: Xoshiro256PlusPlus::new(seed),
        }
    }
}

/// Streaming cursor of [`XoshiroSng`].
#[derive(Debug)]
pub struct XoshiroWordCursor<'a> {
    rng: &'a mut Xoshiro256PlusPlus,
    threshold: SlicedThreshold,
    remaining: usize,
}

impl SngWordCursor for XoshiroWordCursor<'_> {
    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_word(&mut self) -> u64 {
        if self.remaining == 0 {
            return 0;
        }
        let nbits = self.remaining.min(64);
        self.remaining -= nbits;
        let rng = &mut *self.rng;
        self.threshold.word(nbits, || rng.next_u64())
    }

    fn drain<F: FnMut(u64, usize)>(self, emit: F) {
        let XoshiroWordCursor {
            rng,
            threshold,
            remaining,
        } = self;
        // Hoist the generator state into a local so it lives in registers
        // across the whole run instead of bouncing through `&mut self`.
        let mut local = rng.clone();
        drain_words(
            remaining,
            |nbits| threshold.word(nbits, || local.next_u64()),
            emit,
        );
        *rng = local;
    }
}

impl StochasticNumberGenerator for XoshiroSng {
    type Cursor<'a>
        = XoshiroWordCursor<'a>
    where
        Self: 'a;

    fn begin(&mut self, p: f64, len: usize) -> Result<XoshiroWordCursor<'_>, ScError> {
        // The exact comparison `u / 2^53 < p` of a 53-bit uniform, run
        // through the sliced comparator: one draw per threshold bit
        // decides 64 output bits at once.
        Ok(XoshiroWordCursor {
            threshold: SlicedThreshold::for_probability(p)?,
            rng: &mut self.rng,
            remaining: len,
        })
    }

    fn drain_lanes<const L: usize, F>(
        lanes: &mut [Self; L],
        ps: &[f64; L],
        len: usize,
        mut emit: F,
    ) -> Result<(), ScError>
    where
        F: FnMut(&[u64; L], usize),
    {
        let mut thresholds = [SlicedThreshold::new(0); L];
        for (t, &p) in thresholds.iter_mut().zip(ps) {
            *t = SlicedThreshold::for_probability(p)?;
        }
        // Vector engine first: AVX2/AVX-512 hold state word i of every
        // lane in one register and run all L sliced comparators at once,
        // each lane advancing only while it is undecided — the same
        // words and final states as the scalar walk below.
        let mut raw: [[u64; 4]; L] = std::array::from_fn(|l| lanes[l].rng.state_words());
        if crate::simd::xoshiro_drain_chains::<L, _>(&mut raw, &thresholds, len, &mut emit) {
            for (lane, s) in lanes.iter_mut().zip(raw) {
                lane.rng = Xoshiro256PlusPlus::from_state_words(s);
            }
            return Ok(());
        }
        let mut states: [Xoshiro256PlusPlus; L] = std::array::from_fn(|l| lanes[l].rng.clone());
        drain_sliced_lanes(
            &mut states,
            &thresholds,
            len,
            Xoshiro256PlusPlus::next_u64,
            emit,
        );
        for (lane, state) in lanes.iter_mut().zip(states) {
            lane.rng = state;
        }
        Ok(())
    }

    fn generate_bitwise(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        let threshold = SlicedThreshold::for_probability(p)?;
        Ok(sliced_stream_bitwise(threshold, len, || {
            self.rng.next_u64()
        }))
    }

    fn name(&self) -> &'static str {
        "xoshiro"
    }
}

/// Stand-in for the chaotic-laser TRNG of Zhang et al. \[20\] (the paper's
/// future-work optical randomizer): an ideal high-rate entropy source.
///
/// Backed by [`SplitMix64`] (the fastest generator in the workspace, as
/// befits a 640 Gbit/s source model); construct [`ChaoticLaserSng::seeded`]
/// for reproducible experiments or [`ChaoticLaserSng::entropy`] for
/// run-to-run varying randomness.
#[derive(Clone)]
pub struct ChaoticLaserSng {
    rng: SplitMix64,
}

impl std::fmt::Debug for ChaoticLaserSng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaoticLaserSng").finish_non_exhaustive()
    }
}

impl ChaoticLaserSng {
    /// Creates a seeded (replayable) instance.
    pub fn seeded(seed: u64) -> Self {
        ChaoticLaserSng {
            rng: SplitMix64::new(seed),
        }
    }

    /// Creates an instance seeded from ambient entropy (wall clock +
    /// process-unique hasher state) — not cryptographic, but different on
    /// every call, which is all the TRNG stand-in needs.
    pub fn entropy() -> Self {
        use std::hash::{BuildHasher, Hasher};
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        let hasher = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        Self::seeded(clock ^ hasher)
    }
}

/// Streaming cursor of [`ChaoticLaserSng`].
#[derive(Debug)]
pub struct ChaoticWordCursor<'a> {
    rng: &'a mut SplitMix64,
    threshold: SlicedThreshold,
    remaining: usize,
}

impl SngWordCursor for ChaoticWordCursor<'_> {
    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_word(&mut self) -> u64 {
        if self.remaining == 0 {
            return 0;
        }
        let nbits = self.remaining.min(64);
        self.remaining -= nbits;
        let rng = &mut *self.rng;
        self.threshold.word(nbits, || rng.next_u64())
    }

    fn drain<F: FnMut(u64, usize)>(self, emit: F) {
        let ChaoticWordCursor {
            rng,
            threshold,
            remaining,
        } = self;
        let mut local = *rng;
        drain_words(
            remaining,
            |nbits| threshold.word(nbits, || local.next_u64()),
            emit,
        );
        *rng = local;
    }
}

impl StochasticNumberGenerator for ChaoticLaserSng {
    type Cursor<'a>
        = ChaoticWordCursor<'a>
    where
        Self: 'a;

    fn begin(&mut self, p: f64, len: usize) -> Result<ChaoticWordCursor<'_>, ScError> {
        Ok(ChaoticWordCursor {
            threshold: SlicedThreshold::for_probability(p)?,
            rng: &mut self.rng,
            remaining: len,
        })
    }

    fn drain_lanes<const L: usize, F>(
        lanes: &mut [Self; L],
        ps: &[f64; L],
        len: usize,
        mut emit: F,
    ) -> Result<(), ScError>
    where
        F: FnMut(&[u64; L], usize),
    {
        let mut thresholds = [SlicedThreshold::new(0); L];
        for (t, &p) in thresholds.iter_mut().zip(ps) {
            *t = SlicedThreshold::for_probability(p)?;
        }
        // Vector engine first: the SplitMix64 states of all L lanes fit
        // one register and each draw is an add + two multiply-mix steps;
        // a lane advances only while it is undecided, so the words and
        // final states equal the scalar walk below.
        let mut raw: [u64; L] = std::array::from_fn(|l| lanes[l].rng.state());
        if crate::simd::splitmix_drain_chains::<L, _>(&mut raw, &thresholds, len, &mut emit) {
            for (lane, s) in lanes.iter_mut().zip(raw) {
                lane.rng = SplitMix64::new(s);
            }
            return Ok(());
        }
        let mut states: [SplitMix64; L] = std::array::from_fn(|l| lanes[l].rng);
        drain_sliced_lanes(&mut states, &thresholds, len, SplitMix64::next_u64, emit);
        for (lane, state) in lanes.iter_mut().zip(states) {
            lane.rng = state;
        }
        Ok(())
    }

    fn generate_bitwise(&mut self, p: f64, len: usize) -> Result<BitStream, ScError> {
        let threshold = SlicedThreshold::for_probability(p)?;
        Ok(sliced_stream_bitwise(threshold, len, || {
            self.rng.next_u64()
        }))
    }

    fn name(&self) -> &'static str {
        "chaotic-laser"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bias<S: StochasticNumberGenerator>(sng: &mut S, p: f64, len: usize, tol: f64) {
        let s = sng.generate(p, len).unwrap();
        assert_eq!(s.len(), len);
        assert!(
            (s.value() - p).abs() < tol,
            "{}: value {} vs p {p}",
            sng.name(),
            s.value()
        );
    }

    /// Awkward probabilities for threshold-equivalence checks: endpoints,
    /// values with long mantissas, subnormal-adjacent magnitudes.
    const EDGE_PS: [f64; 9] = [
        0.0,
        1.0,
        0.5,
        0.3,
        1.0 / 3.0,
        0.999_999_999,
        1e-9,
        f64::EPSILON,
        0.123_456_789_012_345_67,
    ];

    /// Ragged and word-aligned lengths for tail coverage.
    const EDGE_LENS: [usize; 7] = [1, 63, 64, 65, 127, 1024, 1000];

    /// Materializes a stream by pulling the cursor one word at a time.
    fn collect_next_word<S: StochasticNumberGenerator>(
        sng: &mut S,
        p: f64,
        len: usize,
    ) -> BitStream {
        let mut cur = sng.begin(p, len).unwrap();
        let mut words = Vec::new();
        while cur.remaining() > 0 {
            words.push(cur.next_word());
        }
        assert_eq!(cur.next_word(), 0, "exhausted cursor must yield 0");
        BitStream::from_words(words, len)
    }

    /// Materializes a stream through the bulk `drain` path.
    fn collect_drain<S: StochasticNumberGenerator>(sng: &mut S, p: f64, len: usize) -> BitStream {
        let mut words = Vec::new();
        let mut tail = Vec::new();
        sng.begin(p, len).unwrap().drain(|w, nbits| {
            words.push(w);
            tail.push(nbits);
        });
        assert_eq!(tail.iter().sum::<usize>(), len, "drain must emit len bits");
        BitStream::from_words(words, len)
    }

    fn assert_fast_path_bit_identical<S>(make: impl Fn() -> S)
    where
        S: StochasticNumberGenerator,
    {
        for &p in &EDGE_PS {
            for &len in &EDGE_LENS {
                let mut fast = make();
                let mut reference = make();
                let mut stepped = make();
                let mut drained = make();
                // Two consecutive generations: equality of the second
                // stream also proves the source state after the first call
                // matched. The two cursor collectors pin the streaming
                // word path (word-by-word and bulk) against both.
                let f1 = fast.generate(p, len).unwrap();
                let f2 = fast.generate(p, len).unwrap();
                let r1 = reference.generate_bitwise(p, len).unwrap();
                let r2 = reference.generate_bitwise(p, len).unwrap();
                let s1 = collect_next_word(&mut stepped, p, len);
                let s2 = collect_next_word(&mut stepped, p, len);
                let d1 = collect_drain(&mut drained, p, len);
                let d2 = collect_drain(&mut drained, p, len);
                assert_eq!(f1, r1, "{} first stream, p={p}, len={len}", fast.name());
                assert_eq!(f2, r2, "{} second stream, p={p}, len={len}", fast.name());
                assert_eq!(s1, r1, "{} cursor stream, p={p}, len={len}", fast.name());
                assert_eq!(s2, r2, "{} cursor stream 2, p={p}, len={len}", fast.name());
                assert_eq!(d1, r1, "{} drained stream, p={p}, len={len}", fast.name());
                assert_eq!(d2, r2, "{} drained stream 2, p={p}, len={len}", fast.name());
            }
        }
    }

    #[test]
    fn lfsr_constructor_rejects_bad_widths_without_panicking() {
        // A worker process must be able to reject a hostile width as a
        // value, never abort on it.
        for bad in [0u32, 1, 2, 33, u32::MAX] {
            let err = LfsrSng::new(bad, 1).unwrap_err();
            assert!(
                matches!(err, ScError::InvalidGenerator(ref msg) if msg.contains("width")),
                "width {bad}: {err}"
            );
        }
        // Every supported width builds for any seed (zero remaps).
        for width in 3..=32 {
            LfsrSng::new(width, 0).unwrap();
        }
    }

    #[test]
    fn lfsr_fast_path_bit_identical() {
        assert_fast_path_bit_identical(|| LfsrSng::new(16, 0xACE1).unwrap());
        assert_fast_path_bit_identical(|| LfsrSng::new(3, 5).unwrap());
        assert_fast_path_bit_identical(|| LfsrSng::new(32, 0xDEAD_BEEF).unwrap());
    }

    #[test]
    fn counter_fast_path_bit_identical() {
        // Covers base 2 (reverse-bits path) and bases 3, 5 (generic path).
        assert_fast_path_bit_identical(CounterSng::new);
        assert_fast_path_bit_identical(|| {
            let mut sng = CounterSng::new();
            let _ = sng.generate(0.5, 8);
            sng
        });
    }

    #[test]
    fn xoshiro_fast_path_bit_identical() {
        assert_fast_path_bit_identical(|| XoshiroSng::new(42));
        assert_fast_path_bit_identical(|| XoshiroSng::new(u64::MAX));
    }

    #[test]
    fn chaotic_fast_path_bit_identical() {
        assert_fast_path_bit_identical(|| ChaoticLaserSng::seeded(7));
    }

    /// Collects `drain_lanes` output into one stream per lane.
    fn collect_drain_lanes<const L: usize, S: StochasticNumberGenerator>(
        lanes: &mut [S; L],
        ps: &[f64; L],
        len: usize,
    ) -> [BitStream; L] {
        let mut words: [Vec<u64>; L] = std::array::from_fn(|_| Vec::new());
        S::drain_lanes(lanes, ps, len, |block, _| {
            for (w, &b) in words.iter_mut().zip(block) {
                w.push(b);
            }
        })
        .unwrap();
        let mut iter = words.into_iter();
        std::array::from_fn(|_| BitStream::from_words(iter.next().unwrap(), len))
    }

    fn assert_drain_lanes_matches_standalone<const L: usize, S>(make: impl Fn(usize) -> S)
    where
        S: StochasticNumberGenerator,
    {
        // Per-lane probabilities include endpoints; lengths cover ragged
        // tails. Each lane must reproduce a standalone drain exactly,
        // including the generator state left behind (checked by a second
        // lane-blocked round).
        let ps: [f64; L] = std::array::from_fn(|l| [0.37, 0.0, 1.0, 0.62, 0.5][l % 5]);
        for &len in &[1usize, 63, 64, 65, 257, 1000] {
            let mut blocked: [S; L] = std::array::from_fn(&make);
            let mut standalone: [S; L] = std::array::from_fn(&make);
            let got1 = collect_drain_lanes(&mut blocked, &ps, len);
            let got2 = collect_drain_lanes(&mut blocked, &ps, len);
            for l in 0..L {
                let want1 = standalone[l].generate(ps[l], len).unwrap();
                let want2 = standalone[l].generate(ps[l], len).unwrap();
                assert_eq!(got1[l], want1, "{} lane {l}, len {len}", blocked[0].name());
                assert_eq!(
                    got2[l],
                    want2,
                    "{} lane {l}, len {len} (second round)",
                    blocked[0].name()
                );
            }
        }
    }

    #[test]
    fn drain_lanes_matches_standalone_streams() {
        assert_drain_lanes_matches_standalone::<1, _>(|l| XoshiroSng::new(40 + l as u64));
        assert_drain_lanes_matches_standalone::<4, _>(|l| XoshiroSng::new(40 + l as u64));
        assert_drain_lanes_matches_standalone::<8, _>(|l| XoshiroSng::new(40 + l as u64));
        assert_drain_lanes_matches_standalone::<8, _>(|l| ChaoticLaserSng::seeded(9 + l as u64));
        assert_drain_lanes_matches_standalone::<8, _>(|l| {
            LfsrSng::new(16, 0xACE1 + l as u32).unwrap()
        });
        assert_drain_lanes_matches_standalone::<8, _>(|l| {
            // Stagger the counters' Halton positions so lanes differ.
            let mut sng = CounterSng::new();
            for _ in 0..l {
                let _ = sng.generate(0.5, 4);
            }
            sng
        });
        // Fresh counters: every lane sits on Halton base 2, the shape the
        // vectorized bit-reversal engine accepts.
        assert_drain_lanes_matches_standalone::<4, _>(|_| CounterSng::new());
        assert_drain_lanes_matches_standalone::<8, _>(|_| CounterSng::new());
    }

    #[test]
    fn drain_lanes_identical_across_simd_tiers() {
        // The same lane drain forced through every dispatch tier must be
        // word-for-word identical (unsupported tiers clamp down, so this
        // holds on any machine). Ragged tail included; all four SNG
        // engine families covered.
        use crate::simd::{set_tier_override, SimdTier};
        fn collect_tier<S: StochasticNumberGenerator>(
            tier: SimdTier,
            make: impl Fn(usize) -> S,
            len: usize,
        ) -> [BitStream; 8] {
            set_tier_override(Some(tier));
            let mut lanes: [S; 8] = std::array::from_fn(&make);
            let ps: [f64; 8] = std::array::from_fn(|l| l as f64 / 9.0);
            let out = collect_drain_lanes(&mut lanes, &ps, len);
            set_tier_override(None);
            out
        }
        fn assert_tiers_agree<S: StochasticNumberGenerator>(
            make: impl Fn(usize) -> S + Copy,
            tag: &str,
        ) {
            // 1000 bits sits inside one scalar-tier chunk; 4097 crosses
            // two chunk boundaries with a ragged one-bit tail.
            for len in [1000usize, 4097] {
                let scalar = collect_tier(SimdTier::Scalar, make, len);
                let avx2 = collect_tier(SimdTier::Avx2, make, len);
                let avx512 = collect_tier(SimdTier::Avx512, make, len);
                for l in 0..8 {
                    assert_eq!(
                        scalar[l], avx2[l],
                        "{tag} lane {l} len {len}: scalar vs avx2"
                    );
                    assert_eq!(
                        scalar[l], avx512[l],
                        "{tag} lane {l} len {len}: scalar vs avx512"
                    );
                }
            }
        }
        assert_tiers_agree(|l| XoshiroSng::new(3 + l as u64), "xoshiro");
        assert_tiers_agree(|l| ChaoticLaserSng::seeded(3 + l as u64), "chaotic");
        assert_tiers_agree(|l| LfsrSng::new(16, 0xACE1 + l as u32).unwrap(), "lfsr");
        assert_tiers_agree(|_| CounterSng::new(), "counter base-2");
        assert_tiers_agree(
            |l| {
                let mut sng = CounterSng::new();
                for _ in 0..l {
                    let _ = sng.generate(0.5, 4);
                }
                sng
            },
            "counter staggered",
        );
    }

    /// Probabilities of the sliced-comparator equivalence matrix: the
    /// draw-free endpoints, the two smallest thresholds (`T` = 1 and 2),
    /// the one-draw p = 0.5, the longest threshold and a generic value.
    const SLICED_PS: [f64; 7] = [
        0.0,
        f64::EPSILON / 2.0,
        f64::EPSILON * 0.75,
        0.5,
        1.0 - f64::EPSILON / 2.0,
        1.0,
        0.123_456_789_012_345_67,
    ];

    /// Words and final generator state of one standalone `begin`/`drain`.
    fn standalone<S: StochasticNumberGenerator + Clone>(
        sng: &S,
        p: f64,
        len: usize,
    ) -> (BitStream, S) {
        let mut sng = sng.clone();
        let stream = collect_drain(&mut sng, p, len);
        (stream, sng)
    }

    /// Every lane width and forced tier against standalone drains, and
    /// the standalone drain against the per-bit oracle, with each lane's
    /// final generator state compared through `state`.
    fn assert_sliced_paths_agree<S, K>(make: impl Fn(u64) -> S, state: impl Fn(&S) -> K)
    where
        S: StochasticNumberGenerator + Clone,
        K: PartialEq + std::fmt::Debug,
    {
        use crate::simd::{set_tier_override, SimdTier};
        fn lanes<const L: usize, S, K>(
            make: &impl Fn(u64) -> S,
            state: &impl Fn(&S) -> K,
            ps: &[f64; 8],
            len: usize,
            want: &[(BitStream, S)],
            tag: &str,
        ) where
            S: StochasticNumberGenerator,
            K: PartialEq + std::fmt::Debug,
        {
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
                set_tier_override(Some(tier));
                let mut gens: [S; L] = std::array::from_fn(|l| make(l as u64));
                let lane_ps: [f64; L] = std::array::from_fn(|l| ps[l]);
                let got = collect_drain_lanes(&mut gens, &lane_ps, len);
                set_tier_override(None);
                for l in 0..L {
                    let case = format!("{tag}, L={L}, lane {l}, tier {tier:?}");
                    assert_eq!(got[l], want[l].0, "words, {case}");
                    assert_eq!(state(&gens[l]), state(&want[l].1), "final state, {case}");
                }
            }
        }
        // Every probability in every lane slot, then each one in all
        // lanes at once (a vector block whose caps all end inside one
        // exit stride takes only its largest cap's draws).
        let rotated = (0..SLICED_PS.len())
            .map(|shift| std::array::from_fn(|l| SLICED_PS[(l + shift) % SLICED_PS.len()]));
        let uniform = SLICED_PS.iter().map(|&p| [p; 8]);
        for (layout, ps) in rotated.chain(uniform).enumerate() {
            let ps: [f64; 8] = ps;
            for len in [1usize, 63, 64, 65, 2048, 8257] {
                let tag = format!("{}, layout {layout}, len {len}", make(0).name());
                let want: Vec<(BitStream, S)> = (0..8)
                    .map(|l| standalone(&make(l), ps[l as usize], len))
                    .collect();
                for (l, (stream, after)) in want.iter().enumerate() {
                    let mut oracle = make(l as u64);
                    let bits = oracle.generate_bitwise(ps[l], len).unwrap();
                    assert_eq!(&bits, stream, "per-bit oracle, {tag}, lane {l}");
                    assert_eq!(
                        state(&oracle),
                        state(after),
                        "oracle state, {tag}, lane {l}"
                    );
                    let mut stepped = make(l as u64);
                    assert_eq!(
                        &collect_next_word(&mut stepped, ps[l], len),
                        stream,
                        "next_word, {tag}, lane {l}"
                    );
                    assert_eq!(state(&stepped), state(after), "next_word state, {tag}");
                }
                lanes::<1, _, _>(&make, &state, &ps, len, &want, &tag);
                lanes::<2, _, _>(&make, &state, &ps, len, &want, &tag);
                lanes::<4, _, _>(&make, &state, &ps, len, &want, &tag);
                lanes::<8, _, _>(&make, &state, &ps, len, &want, &tag);
            }
        }
    }

    #[test]
    fn sliced_xoshiro_paths_agree_across_lanes_and_tiers() {
        assert_sliced_paths_agree(|l| XoshiroSng::new(0x51_1CED + l), |s| s.rng.state_words());
    }

    #[test]
    fn sliced_chaotic_paths_agree_across_lanes_and_tiers() {
        assert_sliced_paths_agree(|l| ChaoticLaserSng::seeded(0xC4A0 + l), |s| s.rng.state());
    }

    /// How many 64-bit draws one `len`-bit stream at `p` takes from a
    /// fresh `XoshiroSng::new(seed)`.
    fn xoshiro_draws(seed: u64, p: f64, len: usize) -> usize {
        let mut sng = XoshiroSng::new(seed);
        sng.generate(p, len).unwrap();
        let after = sng.rng.state_words();
        let mut walk = Xoshiro256PlusPlus::new(seed);
        (0..=53 * len.div_ceil(64))
            .find(|_| {
                let done = walk.state_words() == after;
                walk.next_u64();
                done
            })
            .expect("at most 53 draws per word")
    }

    #[test]
    fn sliced_draw_counts_follow_the_stream_definition() {
        // 8257 bits = 129 full words and a one-bit word.
        let words = 8257usize.div_ceil(64);
        // p = 0 and p = 1 draw nothing; p = 0.5 (T = 2^52) has a one-bit
        // threshold and p = 0.75 a two-bit one, whatever the word width.
        for (p, per_word) in [(0.0, 0), (1.0, 0), (0.5, 1), (0.75, 2)] {
            for seed in [1u64, 2, 3] {
                assert_eq!(xoshiro_draws(seed, p, 8257), per_word * words, "p={p}");
                assert_eq!(xoshiro_draws(seed, p, 1), per_word, "p={p}, one bit");
            }
        }
        // A generic p stops at multiples of the exit stride, and a ragged
        // word's tied mask holds only its valid bits: a one-bit word is
        // decided within the first stride 15 times in 16, where 64 tied
        // bits need about 9 draws.
        let stride = SLICE_EXIT_STRIDE as usize;
        let p = 0.123_456_789_012_345_67;
        let one_bit: Vec<usize> = (0..256).map(|seed| xoshiro_draws(seed, p, 1)).collect();
        assert!(
            one_bit.iter().all(|&d| d > 0 && d.is_multiple_of(stride)),
            "{one_bit:?}"
        );
        let mean_one = one_bit.iter().sum::<usize>() as f64 / one_bit.len() as f64;
        let mean_full = (0..256)
            .map(|seed| xoshiro_draws(seed, p, 64))
            .sum::<usize>() as f64
            / 256.0;
        assert!(
            mean_one < 5.0,
            "one-bit words took {mean_one} draws on average"
        );
        assert!(
            (7.0..=11.0).contains(&mean_full),
            "64-bit words took {mean_full} draws on average"
        );
    }

    #[test]
    fn chaotic_threshold_rounds_up_like_unit_threshold() {
        // p·2^53 = 1.5: the exact comparison u / 2^53 < p admits u ∈ {0, 1}.
        let p = 3.0 * 2f64.powi(-54);
        assert_eq!(unit_threshold(p, 53), 2);
        let mut sng = ChaoticLaserSng::seeded(1);
        assert_eq!(sng.begin(p, 64).unwrap().threshold, SlicedThreshold::new(2));
        assert_eq!(
            sng.begin(f64::EPSILON / 2.0, 64).unwrap().threshold,
            SlicedThreshold::new(1)
        );
    }

    #[test]
    fn drain_lanes_rejects_invalid_probabilities_before_drawing() {
        let mut lanes = [XoshiroSng::new(3), XoshiroSng::new(4)];
        let pristine = [XoshiroSng::new(3), XoshiroSng::new(4)];
        assert!(XoshiroSng::drain_lanes(&mut lanes, &[0.5, 1.5], 64, |_, _| {}).is_err());
        for (lane, fresh) in lanes.iter_mut().zip(pristine) {
            assert_eq!(
                lane.generate(0.5, 64).unwrap(),
                fresh.clone().generate(0.5, 64).unwrap()
            );
        }
    }

    #[test]
    fn unit_threshold_is_exact() {
        // Exhaustive check at a small width: integer thresholding equals
        // the floating comparison for every state and edge probability.
        for &p in &EDGE_PS {
            let t = unit_threshold(p, 8);
            for u in 0u64..256 {
                assert_eq!(u < t, (u as f64 / 256.0) < p, "u={u}, p={p}, threshold={t}");
            }
        }
    }

    #[test]
    fn lfsr_sng_bias() {
        let mut sng = LfsrSng::new(16, 0xACE1).unwrap();
        for p in [0.0, 0.25, 0.5, 0.8, 1.0] {
            check_bias(&mut sng, p, 8192, 0.02);
        }
    }

    #[test]
    fn counter_sng_bias_is_tight() {
        let mut sng = CounterSng::new();
        // Low-discrepancy: error ~ base·log(N)/N; bases 2,3,5,7 at N=4096
        // stay well under 0.01, far tighter than the ~0.016 binomial σ.
        for p in [0.125, 0.3, 0.5, 0.9] {
            check_bias(&mut sng, p, 4096, 0.01);
        }
        // The base-2 stream alone is O(log N / N)-accurate.
        let mut fresh = CounterSng::new();
        check_bias(&mut fresh, 0.3, 4096, 0.002);
    }

    #[test]
    fn xoshiro_sng_bias() {
        let mut sng = XoshiroSng::new(7);
        for p in [0.1, 0.5, 0.73] {
            check_bias(&mut sng, p, 16384, 0.02);
        }
    }

    #[test]
    fn chaotic_laser_sng_bias() {
        let mut sng = ChaoticLaserSng::seeded(42);
        for p in [0.2, 0.5, 0.95] {
            check_bias(&mut sng, p, 16384, 0.02);
        }
    }

    #[test]
    fn chaotic_laser_seeded_replays() {
        let a = ChaoticLaserSng::seeded(5).generate(0.4, 256).unwrap();
        let b = ChaoticLaserSng::seeded(5).generate(0.4, 256).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaotic_laser_entropy_varies() {
        let a = ChaoticLaserSng::entropy().generate(0.5, 4096).unwrap();
        let b = ChaoticLaserSng::entropy().generate(0.5, 4096).unwrap();
        // Two independent 4096-bit draws colliding is ~2^-4096; a collision here
        // means the entropy seeding is broken.
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_range_probability_rejected() {
        let mut sng = XoshiroSng::new(1);
        assert!(sng.generate(1.5, 8).is_err());
        assert!(sng.generate(-0.1, 8).is_err());
        assert!(sng.generate(f64::NAN, 8).is_err());
        assert!(sng.generate_bitwise(1.5, 8).is_err());
    }

    #[test]
    fn extreme_probabilities_are_exact() {
        let mut sng = LfsrSng::new(12, 3).unwrap();
        assert_eq!(sng.generate(0.0, 512).unwrap().count_ones(), 0);
        assert_eq!(sng.generate(1.0, 512).unwrap().count_ones(), 512);
    }

    #[test]
    fn van_der_corput_first_terms() {
        assert_eq!(CounterSng::van_der_corput(0), 0.0);
        assert_eq!(CounterSng::van_der_corput(1), 0.5);
        assert_eq!(CounterSng::van_der_corput(2), 0.25);
        assert_eq!(CounterSng::van_der_corput(3), 0.75);
        assert_eq!(CounterSng::van_der_corput(4), 0.125);
    }

    #[test]
    fn van_der_corput_base3_first_terms() {
        let v = |n| CounterSng::van_der_corput_base(n, 3);
        assert!((v(1) - 1.0 / 3.0).abs() < 1e-15);
        assert!((v(2) - 2.0 / 3.0).abs() < 1e-15);
        assert!((v(3) - 1.0 / 9.0).abs() < 1e-15);
        assert!((v(4) - 4.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn counter_sng_convergence_rate_beats_lfsr() {
        // Average |error| over several probabilities at N=1024, using a
        // fresh (base-2) counter stream per probability: the
        // low-discrepancy source should be at least 3x more accurate.
        let n = 1024;
        let ps = [0.137, 0.29, 0.456, 0.61, 0.83];
        let mut lfsr = LfsrSng::new(16, 0xBEEF).unwrap();
        let err = |s: &BitStream, p: f64| (s.value() - p).abs();
        let e_lfsr: f64 = ps
            .iter()
            .map(|&p| err(&lfsr.generate(p, n).unwrap(), p))
            .sum();
        let e_ctr: f64 = ps
            .iter()
            .map(|&p| err(&CounterSng::new().generate(p, n).unwrap(), p))
            .sum();
        assert!(
            e_ctr * 3.0 < e_lfsr + 1e-4,
            "counter {e_ctr} vs lfsr {e_lfsr}"
        );
    }

    #[test]
    fn halton_streams_are_quasi_independent() {
        // Two successive streams (bases 2 and 3) multiply correctly under
        // AND — the property the single-base construction violates.
        let mut sng = CounterSng::new();
        let a = sng.generate(0.5, 4096).unwrap();
        let b = sng.generate(0.5, 4096).unwrap();
        let prod = a.and(&b).unwrap();
        assert!(
            (prod.value() - 0.25).abs() < 0.02,
            "AND value {}",
            prod.value()
        );
    }

    #[test]
    fn independent_streams_from_different_seeds() {
        let mut a = LfsrSng::new(16, 0x1111).unwrap();
        let mut b = LfsrSng::new(16, 0x7777).unwrap();
        let sa = a.generate(0.5, 2048).unwrap();
        let sb = b.generate(0.5, 2048).unwrap();
        let scc = sa.scc(&sb).unwrap();
        assert!(scc.abs() < 0.1, "scc = {scc}");
    }
}

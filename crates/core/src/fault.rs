//! Deterministic fault injection on packed stochastic streams.
//!
//! The paper's core robustness claim is graceful degradation under bit
//! errors: a flipped stream bit perturbs the encoded probability by
//! `1/stream_length` instead of corrupting a positional weight. This
//! module makes that claim measurable. A [`FaultSpec`] describes a fault
//! process — per-stream bit-flip probability, bit-shift (zero-insertion)
//! probability and an optional stuck-at word mask — and the fused
//! kernels apply it to every generated stream **at the SNG cursor
//! boundary**: after a stream's packed `u64` words leave the generator,
//! before they fold into count planes / the multiplexer decision.
//!
//! # Fault universe and determinism
//!
//! Faults draw from their own seeded universe, fully independent of the
//! SNG comparator draws and the receiver-noise draws. The derivation
//! mirrors the batch determinism contract exactly:
//!
//! - a batch item at global index `i` perturbs with
//!   [`FaultSpec::rebased`]`(i)` (flip and shift seeds both pass through
//!   [`crate::batch::mix_seed`]);
//! - an image pixel at `(row, col)` perturbs with
//!   `spec.rebased(row).rebased(col)`;
//! - within one evaluation, stream `j` of the generation order (data
//!   streams `0..n`, then the `n + 1` coefficient streams) seeds its
//!   flip process from `mix_seed(item_flip_seed, j)` and its shift
//!   process from `mix_seed(item_shift_seed, j)`.
//!
//! Because the universe depends only on `(spec, global index, stream
//! index, bit position)`, fault-injected evaluation inherits every
//! equivalence the clean path has: bit-identical across SIMD dispatch
//! tiers, lane-block widths, thread counts and shard counts — faulty
//! sharded ≡ faulty unsharded ≡ faulty pooled.
//!
//! # Word-parallel application
//!
//! Fault positions are sampled by **geometric gap lengths** (the
//! inverse-CDF of the run length between Bernoulli events), so a stream
//! at flip rate `p` costs `O(p · stream_length)` work instead of a draw
//! per bit. The gap `⌊ln(1 − u) · inv_log_q⌋` needs no `floor` call:
//! its argument is `>= 0` or non-finite, so a saturating truncation
//! (non-finite → `usize::MAX`) is the same integer. Each spec's
//! `inv_log_q = 1 / ln(1 − p)` is resolved once per evaluation, not once
//! per stream.
//!
//! - **Shifts** draw a stream's events first and splice **in place**: a
//!   stream without a shift event touches no word; otherwise each output
//!   word, top-down from the last one, is a funnel read of the
//!   still-unmodified words below it at its constant shift.
//! - **Flips** XOR single bits into the packed words.
//! - **Stuck-at** is one AND/OR per word.
//!
//! In the lane kernel, both processes of a whole lane block are drawn
//! **lane-parallel** by one AVX-512 event engine
//! ([`osc_stochastic::simd::geometric_event_lanes`]): per-lane
//! xoshiro256++ states in vector registers and a polynomial `ln`. Every
//! vector gap is **certified** — it is accepted only when a `±δ` band
//! around it (`δ = 1e-9·y + 1e-12`, far above the polynomial's error)
//! truncates to one integer, and a lane that fails recomputes the gap
//! with the scalar formula — so the events are the scalar loop's
//! exactly.
//!
//! - Flip events go straight into the words by a masked gather / XOR /
//!   scatter per event.
//! - Shift events are marked at their output positions (an event after
//!   `k` earlier zeros lands `k` places up) in a zeroed mask block and
//!   spliced into all lanes by one top-down vector pass
//!   ([`osc_stochastic::simd::splice_zero_lanes`]): each lane's shift
//!   count lives in a vector register, a per-lane variable funnel builds
//!   every word, and a word holding zeros is rebuilt one zero at a time,
//!   highest first, at one shift less below each.
//!
//! Lanes the engine cannot draw (`p = 1`, `p <= 2⁻⁵⁴`), lanes with more
//! than 64 shift zeros, blocks with fewer than four eligible lanes
//! and every block below the AVX-512 tier run the scalar loop and splice
//! lane by lane.
//!
//! [`FaultSpec::apply_to_bits`] is the per-bit reference twin — same
//! draws, same event positions, applied one bit at a time — and the
//! equivalence tests pin word path ≡ lane-block path ≡ bit path exactly,
//! under every dispatch tier.
//!
//! A fault process with rate `0.0` draws nothing and touches nothing, so
//! a zero-rate [`FaultSpec`] is bit-identical to the clean path by
//! construction (also pinned by tests).

use crate::batch::mix_seed;
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::simd;

/// Stuck-at fault on the packed word lattice: bits selected by `mask`
/// are forced to the corresponding bit of `value` in **every** 64-cycle
/// word of every stream (bit `b` of a word is cycle `64·w + b`). Models
/// a periodically stuck channel — e.g. a dead comparator bit-slice —
/// rather than a random process, so it carries no seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckAt {
    /// Which bit positions (within each 64-cycle word) are stuck.
    pub mask: u64,
    /// The value the stuck positions hold (only bits under `mask` are
    /// observed).
    pub value: u64,
}

/// A deterministic per-stream fault process for packed stochastic
/// streams. See the [module docs](self) for the universe derivation and
/// the application order (shift, then flip, then stuck-at).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that any given stream bit is flipped.
    pub flip_probability: f64,
    /// Probability that a zero is inserted immediately before any given
    /// stream bit (the stream shifts right from that point; bits pushed
    /// past `stream_length` are lost).
    pub shift_probability: f64,
    /// Optional stuck-at mask applied after flips.
    pub stuck: Option<StuckAt>,
    /// Seed of the flip universe.
    pub flip_seed: u64,
    /// Seed of the shift universe.
    pub shift_seed: u64,
}

impl FaultSpec {
    /// The identity fault process: nothing flips, nothing shifts,
    /// nothing sticks. Bit-identical to not injecting faults at all.
    pub const CLEAN: FaultSpec = FaultSpec {
        flip_probability: 0.0,
        shift_probability: 0.0,
        stuck: None,
        flip_seed: 0,
        shift_seed: 0,
    };

    /// A flip-only process at rate `p`, with independent flip/shift
    /// universes derived from one user seed.
    pub fn flips(p: f64, seed: u64) -> FaultSpec {
        FaultSpec {
            flip_probability: p,
            ..FaultSpec::with_seed(seed)
        }
    }

    /// A fault-free spec carrying derived flip/shift seeds — the base
    /// the rate/mask fields are set on. Flip and shift universes are
    /// decorrelated from each other by distinct salts.
    pub fn with_seed(seed: u64) -> FaultSpec {
        FaultSpec {
            flip_probability: 0.0,
            shift_probability: 0.0,
            stuck: None,
            flip_seed: mix_seed(seed, 0xF11B),
            shift_seed: mix_seed(seed, 0x5817),
        }
    }

    /// Whether this spec perturbs anything at all. The kernels skip the
    /// fault pass entirely when it cannot change a bit — which is what
    /// makes `rate 0.0 ≡ clean` trivially exact.
    pub fn is_active(&self) -> bool {
        self.flip_probability > 0.0 || self.shift_probability > 0.0 || self.stuck.is_some()
    }

    /// Validates the probabilities (finite, within `[0, 1]`). Wire
    /// decoders call this so a malformed spec surfaces as an error value
    /// on the worker, never a panic.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("flip probability", self.flip_probability),
            ("shift probability", self.shift_probability),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p:?} is not in [0, 1]"));
            }
        }
        Ok(())
    }

    /// Derives the spec for one work item of a batch: both fault seeds
    /// pass through [`mix_seed`] with `salt` (the global item index;
    /// image pixels rebase twice, by row then by column — exactly
    /// mirroring the SNG seed derivation, which is what makes sharding
    /// unobservable in faulty results too).
    pub fn rebased(&self, salt: u64) -> FaultSpec {
        FaultSpec {
            flip_seed: mix_seed(self.flip_seed, salt),
            shift_seed: mix_seed(self.shift_seed, salt),
            ..*self
        }
    }

    /// Applies this item-level spec to stream `j` of one evaluation,
    /// stored lane-interleaved: word `w` of the target lane lives at
    /// `words[w * stride + lane]`, covering `stream_length` bits. The
    /// splice runs in place, so `_tmp` is never touched; it stays in the
    /// signature for existing callers.
    ///
    /// Bits at positions `>= stream_length` in the final partial word
    /// are never set by the fault pass (the generators leave them zero
    /// and the pass preserves that).
    pub fn apply_to_words(
        &self,
        stream: u64,
        words: &mut [u64],
        lane: usize,
        stride: usize,
        stream_length: usize,
        _tmp: &mut Vec<u64>,
    ) {
        if stream_length == 0 || !self.is_active() {
            return;
        }
        debug_assert!(lane + (stream_length.div_ceil(64) - 1) * stride < words.len());
        let plan = FaultPlan::new(self);
        plan.shift_lane(stream, words, lane, stride, stream_length);
        plan.flip_lane(stream, words, lane, stride, stream_length);
        plan.stuck_lane(words, lane, stride, stream_length);
    }

    /// Per-bit reference twin of [`FaultSpec::apply_to_words`]: same
    /// event draws, same application order, applied one `bool` at a
    /// time. The readable specification of the fault semantics; the
    /// equivalence tests pin exact word/bit equality.
    pub fn apply_to_bits(&self, stream: u64, bits: &mut Vec<bool>) {
        let len = bits.len();
        if len == 0 || !self.is_active() {
            return;
        }
        if self.shift_probability > 0.0 {
            let mut events =
                FaultEvents::new(mix_seed(self.shift_seed, stream), self.shift_probability);
            let mut next = events.next_event(len);
            let mut out = Vec::with_capacity(len);
            for (i, &b) in bits.iter().enumerate() {
                if out.len() >= len {
                    break;
                }
                if next == Some(i) {
                    out.push(false);
                    next = events.next_event(len);
                    if out.len() >= len {
                        break;
                    }
                }
                out.push(b);
            }
            out.truncate(len);
            debug_assert_eq!(out.len(), len);
            *bits = out;
        }
        if self.flip_probability > 0.0 {
            let mut events =
                FaultEvents::new(mix_seed(self.flip_seed, stream), self.flip_probability);
            while let Some(e) = events.next_event(len) {
                bits[e] = !bits[e];
            }
        }
        if let Some(stuck) = self.stuck {
            for (i, b) in bits.iter_mut().enumerate() {
                let bit = i % 64;
                if (stuck.mask >> bit) & 1 == 1 {
                    *b = (stuck.value >> bit) & 1 == 1;
                }
            }
        }
    }
}

/// How one fault process samples event positions.
#[derive(Debug, Clone, Copy)]
enum EventMode {
    /// `p <= 0`: no events, no draws.
    Never,
    /// `p >= 1`: every position is an event, no draws.
    Every,
    /// `0 < p < 1`: geometric gaps, one uniform draw per event.
    Geometric {
        /// `1 / ln(1 - p)`: negative, and `-inf` once `1 - p` rounds
        /// to 1 (`p <= 2⁻⁵⁴`).
        inv_log_q: f64,
    },
}

impl EventMode {
    fn new(p: f64) -> EventMode {
        if p.is_nan() || p <= 0.0 {
            EventMode::Never
        } else if p >= 1.0 {
            EventMode::Every
        } else {
            EventMode::Geometric {
                inv_log_q: 1.0 / (1.0 - p).ln(),
            }
        }
    }
}

/// The run of event-free positions before the next event for the
/// uniform draw `u ∈ [0, 1)`: `⌊ln(1 − u) · inv_log_q⌋`, saturating to
/// `usize::MAX` (no event in any addressable stream).
///
/// No `floor` call is needed: `ln(1 − u) <= 0` and `inv_log_q < 0`, so
/// `y` is either `>= 0` (or `-0.0`), where truncation equals floor and
/// the cast saturates above `usize::MAX`, or non-finite (`p <= 2⁻⁵⁴`
/// makes `inv_log_q` infinite, and `0 · ∞` is NaN).
fn geometric_gap(u: f64, inv_log_q: f64) -> usize {
    let y = (1.0 - u).ln() * inv_log_q;
    if y.is_finite() {
        y as usize
    } else {
        usize::MAX
    }
}

/// Iterator over the positions of a seeded Bernoulli(`p`) fault process,
/// sampled as geometric gap lengths: for uniform `u ∈ [0, 1)` the run of
/// fault-free positions before the next event is
/// `⌊ln(1 − u) / ln(1 − p)⌋` — the inverse CDF of the geometric
/// distribution, so the emitted positions are exactly an iid
/// Bernoulli(`p`) marking of `0..limit` while costing one draw per
/// *event* instead of one per position.
#[derive(Debug)]
pub struct FaultEvents {
    rng: Xoshiro256PlusPlus,
    mode: EventMode,
    pos: usize,
}

impl FaultEvents {
    /// A fault process at rate `p` drawing from `seed`'s universe.
    pub fn new(seed: u64, p: f64) -> FaultEvents {
        FaultEvents::with_mode(seed, EventMode::new(p))
    }

    fn with_mode(seed: u64, mode: EventMode) -> FaultEvents {
        FaultEvents {
            rng: Xoshiro256PlusPlus::new(seed),
            mode,
            pos: 0,
        }
    }

    /// The next event position `< limit`, or `None` once the process has
    /// moved past the end of the stream.
    pub fn next_event(&mut self, limit: usize) -> Option<usize> {
        if self.pos >= limit {
            return None;
        }
        match self.mode {
            EventMode::Never => {
                self.pos = limit;
                None
            }
            EventMode::Every => {
                let e = self.pos;
                self.pos += 1;
                Some(e)
            }
            EventMode::Geometric { inv_log_q } => {
                let gap = geometric_gap(self.rng.next_f64(), inv_log_q);
                let e = self.pos.saturating_add(gap);
                if e >= limit {
                    self.pos = limit;
                    None
                } else {
                    self.pos = e + 1;
                    Some(e)
                }
            }
        }
    }
}

/// A [`FaultSpec`] with both event modes resolved, so `ln(1 − p)` is
/// computed once per spec rather than once per stream and process. The
/// lane kernel resolves its lanes' specs once per evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultPlan {
    spec: FaultSpec,
    flip: EventMode,
    shift: EventMode,
}

impl FaultPlan {
    pub(crate) fn new(spec: &FaultSpec) -> FaultPlan {
        FaultPlan {
            spec: *spec,
            flip: EventMode::new(spec.flip_probability),
            shift: EventMode::new(spec.shift_probability),
        }
    }

    /// Inserts the stream's shift zeros into one lane, in place. The
    /// events are drawn first; a stream without any touches no word.
    fn shift_lane(&self, stream: u64, words: &mut [u64], lane: usize, stride: usize, len: usize) {
        if matches!(self.shift, EventMode::Never) {
            return;
        }
        let mut events = FaultEvents::with_mode(mix_seed(self.spec.shift_seed, stream), self.shift);
        let mut zeros = [0usize; SPLICE_CHUNK];
        let (mut buffered, mut inserted) = (0usize, 0usize);
        while let Some(e) = events.next_event(len) {
            // The zero lands before original bit `e`, which the earlier
            // insertions have already moved up by `inserted`.
            let z = e + inserted;
            if z >= len {
                break;
            }
            zeros[buffered] = z;
            buffered += 1;
            inserted += 1;
            if buffered == SPLICE_CHUNK {
                splice_zeros(words, lane, stride, len, &zeros);
                buffered = 0;
            }
        }
        splice_zeros(words, lane, stride, len, &zeros[..buffered]);
    }

    /// XORs the stream's flip events into one lane, one scalar draw per
    /// event.
    fn flip_lane(&self, stream: u64, words: &mut [u64], lane: usize, stride: usize, len: usize) {
        if matches!(self.flip, EventMode::Never) {
            return;
        }
        let mut events = FaultEvents::with_mode(mix_seed(self.spec.flip_seed, stream), self.flip);
        while let Some(e) = events.next_event(len) {
            words[(e / 64) * stride + lane] ^= 1u64 << (e % 64);
        }
    }

    /// Forces the stuck-at bits of every word of one lane, leaving bits
    /// past `len` in the final word clear.
    fn stuck_lane(&self, words: &mut [u64], lane: usize, stride: usize, len: usize) {
        let Some(stuck) = self.spec.stuck else {
            return;
        };
        let nwords = len.div_ceil(64);
        let tail_bits = len % 64;
        for w in 0..nwords {
            let valid = if w + 1 == nwords && tail_bits != 0 {
                (1u64 << tail_bits) - 1
            } else {
                u64::MAX
            };
            let m = stuck.mask & valid;
            let slot = &mut words[w * stride + lane];
            *slot = (*slot & !m) | (stuck.value & m);
        }
    }
}

/// `1 / ln(1 − p)` of a process when the vector event engine can draw
/// it: `0 < p < 1` and `p` large enough for `ln(1 − p)` to be nonzero.
fn vector_rate(mode: EventMode) -> Option<f64> {
    match mode {
        EventMode::Geometric { inv_log_q } if inv_log_q.is_finite() => Some(inv_log_q),
        _ => None,
    }
}

/// Fewest lanes the vector event engine takes on. One loop iteration
/// costs about as much as two scalar draws, so below four lanes the
/// scalar loop is as fast or faster (one lane on a 2048-bit stream at
/// `p = 0.01`: 24 ns/word vector vs 16 ns/word scalar).
const MIN_VECTOR_LANES: u32 = 4;

/// The lanes of a block whose process (chosen by `process`: its mode
/// and universe seed) the vector event engine can draw for stream
/// `stream`, with their seeds and rates — or `None` when fewer than
/// [`MIN_VECTOR_LANES`] qualify.
fn vector_lanes<const L: usize>(
    plans: &[FaultPlan; L],
    stream: u64,
    process: impl Fn(&FaultPlan) -> (EventMode, u64),
) -> Option<(u8, [u64; L], [f64; L])> {
    if L > 8 {
        return None;
    }
    let (mut lanes, mut seeds, mut inv_log_q) = (0u8, [0u64; L], [-1.0f64; L]);
    for (l, plan) in plans.iter().enumerate() {
        let (mode, seed) = process(plan);
        if let Some(q) = vector_rate(mode) {
            lanes |= 1 << l;
            seeds[l] = mix_seed(seed, stream);
            inv_log_q[l] = q;
        }
    }
    (lanes.count_ones() >= MIN_VECTOR_LANES).then_some((lanes, seeds, inv_log_q))
}

/// [`geometric_gap`] in the form the vector event engine falls back to.
fn exact_gap(u: f64, inv_log_q: f64) -> u64 {
    geometric_gap(u, inv_log_q) as u64
}

/// Shift pass of a lane block through the vector engine: draws the
/// events of every eligible lane together as output zero positions in
/// `marks` (a zeroed mask block shaped like `d`), then splices all those
/// lanes in one vector pass. Returns the lanes it handled; the others
/// (ineligible, more than [`simd::MAX_SPLICE_ZEROS`] zeros, or no vector
/// path) are left to [`FaultPlan::shift_lane`].
fn shift_lanes_vector<const L: usize>(
    plans: &[FaultPlan; L],
    stream: u64,
    d: &mut [u64],
    len: usize,
    marks: &mut Vec<u64>,
) -> u8 {
    let Some((lanes, seeds, inv_log_q)) =
        vector_lanes(plans, stream, |p| (p.shift, p.spec.shift_seed))
    else {
        return 0;
    };
    marks.clear();
    marks.resize(d.len(), 0);
    let sink = simd::EventSink::Zeros(marks);
    let Some(counts) = simd::geometric_event_lanes(&seeds, &inv_log_q, lanes, len, exact_gap, sink)
    else {
        return 0;
    };
    let spliced = (0..L)
        .filter(|&l| counts[l] <= simd::MAX_SPLICE_ZEROS)
        .fold(0u8, |m, l| m | 1 << l)
        & lanes;
    if simd::splice_zero_lanes(d, marks, L, len, &counts, spliced) {
        spliced
    } else {
        0
    }
}

/// Applies each lane's plan to stream `stream` of a lane block: lane `l`'s
/// word `w` at `d[w * L + l]`, `len` bits per lane. Shifts, then flips,
/// then stuck-at, per lane — lanes never share a word, so running each
/// mechanism across all lanes before the next is the per-lane order.
///
/// When at least [`MIN_VECTOR_LANES`] shift (or flip) processes have a
/// finite `inv_log_q`, [`simd::geometric_event_lanes`] draws all their
/// events in one AVX-512 pass with certified gaps: shift zeros are
/// marked in `marks` (scratch, resized here) and spliced by
/// [`simd::splice_zero_lanes`] in one top-down pass over the block,
/// flips XOR straight into the words. The other lanes, lanes with more
/// than [`simd::MAX_SPLICE_ZEROS`] shift zeros, and every lane when the
/// vector path is unavailable run the scalar event loop. Both produce
/// the same events.
pub(crate) fn apply_lane_block<const L: usize>(
    plans: &[FaultPlan; L],
    stream: u64,
    d: &mut [u64],
    len: usize,
    marks: &mut Vec<u64>,
) {
    if len == 0 {
        return;
    }
    let shifted = shift_lanes_vector(plans, stream, d, len, marks);
    for (l, plan) in plans.iter().enumerate() {
        if shifted >> l & 1 == 0 {
            plan.shift_lane(stream, d, l, L, len);
        }
    }
    let mut flipped = 0u8;
    if let Some((lanes, seeds, inv_log_q)) =
        vector_lanes(plans, stream, |p| (p.flip, p.spec.flip_seed))
    {
        let sink = simd::EventSink::Flip(&mut *d);
        if simd::geometric_event_lanes(&seeds, &inv_log_q, lanes, len, exact_gap, sink).is_some() {
            flipped = lanes;
        }
    }
    for (l, plan) in plans.iter().enumerate() {
        if flipped >> l & 1 == 0 {
            plan.flip_lane(stream, d, l, L, len);
        }
        plan.stuck_lane(d, l, L, len);
    }
}

/// [`FaultSpec::apply_to_words`] for a whole lane block: lane `l` of
/// `words` (word `w` at `words[w * L + l]`, `stream_length` bits)
/// perturbed by `specs[l]`'s processes for stream `stream`, through the
/// lane kernel's fault hook (the AVX-512 flip loop where it applies).
/// Byte-identical to applying each spec to its lane separately.
pub fn apply_to_lane_block<const L: usize>(
    specs: &[FaultSpec; L],
    stream: u64,
    words: &mut [u64],
    stream_length: usize,
) {
    apply_lane_block(
        &specs.each_ref().map(FaultPlan::new),
        stream,
        words,
        stream_length,
        &mut Vec::new(),
    );
}

/// Zero insertions buffered per in-place splice pass. A stream with more
/// shift events is spliced in several passes; each pass inserts its
/// zeros into the previous pass's output, which equals inserting them
/// all at once because an insertion only moves the bits above it.
const SPLICE_CHUNK: usize = 64;

/// Inserts a zero at each output position in `zeros` (strictly
/// ascending, all `< len`) into one lane's strided words, in place: the
/// bits between zeros `t` and `t + 1` (1-based) move up by `t`, bits
/// pushed past `len` are lost, and bits below the first zero stay put.
///
/// Works top-down from the last word to the word of the first zero. An
/// output word reads its source bits from the same or lower words,
/// which are still unmodified. Words wholly above the nearest zero below
/// them share one shift and take a two-word funnel each; the top word
/// and each word holding a zero go through [`splice_word`].
fn splice_zeros(words: &mut [u64], lane: usize, stride: usize, len: usize, zeros: &[usize]) {
    let Some(&first) = zeros.first() else {
        return;
    };
    let at = |w: usize| w * stride + lane;
    // Zeros below the output position being built: its shift.
    let mut k = zeros.len();
    let mut w = len.div_ceil(64) - 1;
    words[at(w)] = splice_word(words, lane, stride, len, zeros, w, &mut k);
    while w > first / 64 {
        let zero_word = zeros[k - 1] / 64;
        let (q, r) = (k / 64, k % 64);
        while w - 1 > zero_word {
            w -= 1;
            let hi = words[at(w - q)];
            let lo = if w > q { words[at(w - q - 1)] } else { 0 };
            // `lo >> (64 - r)`, written to stay defined at r = 0.
            words[at(w)] = hi << r | (lo >> 1) >> (63 - r);
        }
        w -= 1;
        words[at(w)] = splice_word(words, lane, stride, len, zeros, w, &mut k);
    }
}

/// Output word `w` of [`splice_zeros`] built piece by piece: each run of
/// bits between zeros is one funnel read at its shift, and the zeros
/// themselves stay clear. `k` enters as the number of zeros below the
/// word's top and leaves as the number below its base.
fn splice_word(
    words: &[u64],
    lane: usize,
    stride: usize,
    len: usize,
    zeros: &[usize],
    w: usize,
    k: &mut usize,
) -> u64 {
    let base = w * 64;
    let mut hi = (base + 64).min(len);
    let mut out = 0u64;
    loop {
        let lo = if *k > 0 {
            (zeros[*k - 1] + 1).max(base)
        } else {
            base
        };
        if hi > lo {
            out |= read_bits(words, lane, stride, lo - *k, hi - lo) << (lo - base);
        }
        if *k == 0 || zeros[*k - 1] < base {
            return out;
        }
        hi = zeros[*k - 1];
        *k -= 1;
    }
}

/// Reads `1 <= n <= 64` bits of one lane's strided words starting at
/// bit `start`, low bit first; bit `start + n - 1` must lie inside the
/// lane.
fn read_bits(words: &[u64], lane: usize, stride: usize, start: usize, n: usize) -> u64 {
    let (w, b) = (start / 64, start % 64);
    let mut v = words[w * stride + lane] >> b;
    if b != 0 && n > 64 - b {
        v |= words[(w + 1) * stride + lane] << (64 - b);
    }
    if n >= 64 {
        v
    } else {
        v & ((1u64 << n) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_to_bits(words: &[u64], lane: usize, stride: usize, len: usize) -> Vec<bool> {
        (0..len)
            .map(|i| (words[(i / 64) * stride + lane] >> (i % 64)) & 1 == 1)
            .collect()
    }

    fn bits_to_strided(bits: &[bool], lane: usize, stride: usize, lanes: usize) -> Vec<u64> {
        let nwords = bits.len().div_ceil(64);
        let mut words = vec![0u64; nwords * stride + lanes - stride.min(lanes)];
        words.resize(nwords * stride, 0);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[(i / 64) * stride + lane] |= 1u64 << (i % 64);
            }
        }
        words
    }

    fn random_bits(seed: u64, len: usize) -> Vec<bool> {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        (0..len).map(|_| rng.next_u64() & 1 == 1).collect()
    }

    fn spec(flip: f64, shift: f64, stuck: Option<StuckAt>, seed: u64) -> FaultSpec {
        FaultSpec {
            flip_probability: flip,
            shift_probability: shift,
            stuck,
            ..FaultSpec::with_seed(seed)
        }
    }

    #[test]
    fn word_path_matches_bit_twin_across_rates_and_lengths() {
        let stucks = [
            None,
            Some(StuckAt {
                mask: 0x8000_0000_0000_0001,
                value: u64::MAX,
            }),
        ];
        for (case, &(flip, shift)) in [
            (0.0, 0.0),
            (0.01, 0.0),
            (0.0, 0.01),
            (0.05, 0.03),
            (0.5, 0.5),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
        ]
        .iter()
        .enumerate()
        {
            for &len in &[1usize, 63, 64, 65, 127, 128, 1000, 4096] {
                for (si, &stuck) in stucks.iter().enumerate() {
                    for (lane, stride) in [(0usize, 1usize), (3, 8), (1, 2)] {
                        let sp = spec(flip, shift, stuck, 1000 + case as u64);
                        let bits = random_bits(42 + len as u64 + si as u64, len);
                        let mut words = bits_to_strided(&bits, lane, stride, stride);
                        let mut tmp = Vec::new();
                        sp.apply_to_words(7, &mut words, lane, stride, len, &mut tmp);
                        let mut twin = bits.clone();
                        sp.apply_to_bits(7, &mut twin);
                        assert_eq!(
                            words_to_bits(&words, lane, stride, len),
                            twin,
                            "flip={flip} shift={shift} len={len} stuck={si} lane={lane}/{stride}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_lanes_do_not_disturb_neighbours() {
        let len = 300;
        let stride = 8;
        let lanes: Vec<Vec<bool>> = (0..stride as u64).map(|l| random_bits(l, len)).collect();
        let mut words = vec![0u64; len.div_ceil(64) * stride];
        for (l, bits) in lanes.iter().enumerate() {
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    words[(i / 64) * stride + l] |= 1 << (i % 64);
                }
            }
        }
        let sp = spec(0.2, 0.1, Some(StuckAt { mask: 4, value: 4 }), 9);
        sp.apply_to_words(3, &mut words, 5, stride, len, &mut Vec::new());
        for (l, bits) in lanes.iter().enumerate() {
            if l == 5 {
                let mut twin = bits.clone();
                sp.apply_to_bits(3, &mut twin);
                assert_eq!(words_to_bits(&words, l, stride, len), twin);
            } else {
                assert_eq!(&words_to_bits(&words, l, stride, len), bits, "lane {l}");
            }
        }
    }

    #[test]
    fn zero_rate_spec_is_inert_and_inactive() {
        assert!(!FaultSpec::CLEAN.is_active());
        assert!(!FaultSpec::with_seed(7).is_active());
        let bits = random_bits(5, 500);
        let mut words = bits_to_strided(&bits, 0, 1, 1);
        let before = words.clone();
        FaultSpec::with_seed(7).apply_to_words(0, &mut words, 0, 1, 500, &mut Vec::new());
        assert_eq!(words, before);
        let mut twin = bits.clone();
        FaultSpec::with_seed(7).apply_to_bits(0, &mut twin);
        assert_eq!(twin, bits);
    }

    #[test]
    fn flip_density_matches_probability_within_binomial_bounds() {
        // All-zero input: the ones count after flipping IS the flip
        // count. Seeded, so the outcome is fixed — the assertion is that
        // the geometric-gap sampler realizes the configured Bernoulli
        // rate, within 6σ of the binomial for this (n, p).
        for &p in &[0.01f64, 0.05, 0.2] {
            let len = 1 << 17;
            let mut words = vec![0u64; len / 64];
            let sp = FaultSpec::flips(p, 1234);
            sp.apply_to_words(0, &mut words, 0, 1, len, &mut Vec::new());
            let flips: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            let mean = p * len as f64;
            let sd = (len as f64 * p * (1.0 - p)).sqrt();
            let dev = (flips as f64 - mean).abs();
            assert!(
                dev < 6.0 * sd,
                "p={p}: {flips} flips vs mean {mean:.0} (dev {dev:.0} > 6σ={:.0})",
                6.0 * sd
            );
        }
    }

    #[test]
    fn shift_inserts_zeros_and_truncates() {
        // p = 1 inserts a zero before every bit: output is 0 b0 0 b1 …
        let bits: Vec<bool> = vec![true; 10];
        let mut shifted = bits.clone();
        spec(0.0, 1.0, None, 3).apply_to_bits(0, &mut shifted);
        let expect: Vec<bool> = (0..10).map(|i| i % 2 == 1).collect();
        assert_eq!(shifted, expect);
        // And the word path agrees on a longer all-ones stream.
        let len = 130;
        let mut words = bits_to_strided(&vec![true; len], 0, 1, 1);
        spec(0.0, 1.0, None, 3).apply_to_words(0, &mut words, 0, 1, len, &mut Vec::new());
        let out = words_to_bits(&words, 0, 1, len);
        assert_eq!(out, (0..len).map(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn stuck_at_respects_stream_tail() {
        let len = 70; // 6 valid bits in the final word
        let mut words = vec![0u64; 2];
        let sp = spec(
            0.0,
            0.0,
            Some(StuckAt {
                mask: u64::MAX,
                value: u64::MAX,
            }),
            0,
        );
        sp.apply_to_words(0, &mut words, 0, 1, len, &mut Vec::new());
        assert_eq!(words[0], u64::MAX);
        assert_eq!(words[1], (1u64 << 6) - 1, "tail bits must stay clear");
    }

    #[test]
    fn rebased_specs_decorrelate_and_validate_rejects_garbage() {
        let sp = FaultSpec::flips(0.1, 9);
        assert_ne!(sp.rebased(0).flip_seed, sp.rebased(1).flip_seed);
        assert_ne!(sp.rebased(0).shift_seed, sp.rebased(0).flip_seed);
        assert_eq!(sp.rebased(5).flip_probability, 0.1);
        assert!(sp.validate().is_ok());
        for bad in [
            FaultSpec {
                flip_probability: -0.1,
                ..sp
            },
            FaultSpec {
                flip_probability: 1.5,
                ..sp
            },
            FaultSpec {
                flip_probability: f64::NAN,
                ..sp
            },
            FaultSpec {
                shift_probability: f64::INFINITY,
                ..sp
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn different_streams_and_salts_draw_different_events() {
        let sp = FaultSpec::flips(0.05, 77);
        let len = 4096;
        let collect = |sp: &FaultSpec, stream: u64| {
            let mut words = vec![0u64; len / 64];
            sp.apply_to_words(stream, &mut words, 0, 1, len, &mut Vec::new());
            words
        };
        assert_ne!(collect(&sp, 0), collect(&sp, 1));
        assert_ne!(collect(&sp.rebased(0), 0), collect(&sp.rebased(1), 0));
        // Same inputs → identical events (the whole point).
        assert_eq!(collect(&sp, 3), collect(&sp, 3));
    }

    #[test]
    fn floor_free_gap_equals_the_floor_form_at_the_edges() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        for p in [
            2f64.powi(-54),
            2f64.powi(-53),
            1e-300,
            1e-3,
            0.5,
            1.0 - 1e-16,
        ] {
            let EventMode::Geometric { inv_log_q } = EventMode::new(p) else {
                panic!("p={p:e} is a geometric rate");
            };
            for u in [0.0, ulp, 0.5, 1.0 - ulp] {
                let floor = ((1.0 - u).ln() * inv_log_q).floor();
                let want = if floor.is_finite() && floor < usize::MAX as f64 {
                    floor as usize
                } else {
                    usize::MAX
                };
                assert_eq!(geometric_gap(u, inv_log_q), want, "p={p:e} u={u:e}");
            }
        }
    }

    #[test]
    fn strided_funnel_read_handles_unaligned_ranges() {
        let lane_words = [0xDEAD_BEEF_0123_4567u64, 0x89AB_CDEF_FEDC_BA98];
        for (lane, stride) in [(0usize, 1usize), (2, 3), (7, 8)] {
            let mut words = vec![u64::MAX; 2 * stride];
            for (w, &v) in lane_words.iter().enumerate() {
                words[w * stride + lane] = v;
            }
            for &(start, n) in &[
                (0usize, 64usize),
                (3, 64),
                (63, 64),
                (64, 64),
                (7, 1),
                (60, 10),
            ] {
                let got = read_bits(&words, lane, stride, start, n);
                for i in 0..64 {
                    let want = if i < n {
                        (lane_words[(start + i) / 64] >> ((start + i) % 64)) & 1
                    } else {
                        0
                    };
                    assert_eq!(
                        (got >> i) & 1,
                        want,
                        "lane={lane} start={start} n={n} i={i}"
                    );
                }
            }
        }
    }
}

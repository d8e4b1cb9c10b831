//! Runtime-dispatched SIMD backend family for the lane-blocked hot
//! paths: one vector engine per stochastic number generator plus the
//! shared fold/assembly kernels they feed.
//!
//! The lane-blocked evaluation pipeline (see [`crate::resc`] and
//! `osc-core`'s lane kernel) stores every per-stream word array
//! *lane-interleaved*: block `w` of lane `l` lives at `w * L + l`, so the
//! `L` lanes of one 64-cycle block are contiguous in memory. Stream
//! *generation* is `L` independent generators advancing side by side, so
//! the engines here keep generator states vertical in vector registers.
//! The Xoshiro and SplitMix64 engines run the bit-sliced comparator of
//! `XoshiroSng`/`ChaoticLaserSng` (one draw per threshold bit decides
//! 64 output bits): a lane's output word *is* its register slot, and a
//! lane advances its state only while its word is undecided (masked
//! advance), so lane width and tier stay unobservable.
//!
//! The **bit-matrix kernels** ([`BitMatrixKernels`]: AVX-512 tier plus
//! `gfni` and `avx512vbmi`, detected once per process) use one
//! 8 × 64 bit-matrix transpose built from a `vpermb` byte gather and a
//! `vgf2p8affineqb` 8 × 8 bit transpose per qword. It drives the
//! noisy-tier decision pass, which decides all lanes of a block one
//! word index at a time.
//!
//! # Backend family
//!
//! | engine | serves | AVX-512 path | AVX2 path | extra gates |
//! |---|---|---|---|---|
//! | `xoshiro_drain_chains` | `XoshiroSng` | `vprolq` rotates, k-masked `vpternlogq` state update and comparator step | shift-or rotates, `vpblendvb` masked update | — |
//! | `splitmix_drain_chains` | `ChaoticLaserSng` | masked `gamma` add, `vpmullq` mix (needs `avx512dq`, else the AVX2 path) | `vpmuludq` split multiply | — |
//! | `counter_drain_chains` | `CounterSng` (base-2 mode) | `vgf2p8affineqb` bit-reverse + `vpcmpuq` | GFNI VEX reverse or shared scalar reverse | — |
//! | [`popcount_lanes_accumulate`] | count-plane fold | `vpopcntq` | nibble-LUT `vpshufb` + `vpsadbw` | — |
//! | [`assemble_indices16`] | noisy-tier index assembly | `vpmovm2w` mask broadcast (needs `avx512bw`) | — (scalar fallback) | — |
//! | [`BitMatrixKernels::decide_lanes`] | noisy-tier decision pass, orders ≤ 6, every lane width | per word index: gathered lane words, bit-matrix transposes, two register-resident `vpermi2b` class tables, lock-step masked xoshiro256++ draws with gathered `q` (needs `gfni`, `avx512vbmi`, `avx512dq`, `avx512vpopcntdq`) | — (index assembly + table walk) | — |
//! | [`geometric_event_lanes`] | lane-block fault hook (flip and shift events) | per-lane xoshiro256++ in ZMMs (vector SplitMix64 seeding), polynomial `ln`, certified gaps, masked gather / XOR / scatter into the words (flips) or a zero-mask block (shifts) | — (per-lane scalar event loop) | `avx512dq`, `avx512cd` |
//! | [`splice_zero_lanes`] | lane-block fault hook (shift zeros) | top-down per-lane variable funnel (`vpsllvq` / `vpsrlvq`), one `vplzcntq` round per zero in a word | — (per-lane scalar splice) | `avx512dq`, `avx512cd` |
//!
//! Dispatch rules, uniform across the family:
//!
//! - An engine runs only when [`active_tier`] admits it **and** every
//!   extra feature it names is detected at runtime; otherwise the entry
//!   point returns `false` without touching its outputs and the caller
//!   runs the portable scalar interleave.
//! - The generator engines accept `L ∈ {4, 8}`; `L = 8` uses one ZMM per
//!   state word on the AVX-512 tier and two YMM register groups on AVX2.
//!   The counter engine exploits that all lanes of one `drain_lanes`
//!   call walk the *same* counter sequence, so it bit-reverses each index
//!   once and compares it against every lane's threshold.
//! - **Bit-identity guarantee:** every tier of every engine produces
//!   exactly the words of the scalar reference walk — same draws, same
//!   comparator semantics (the sliced 53-bit comparator and its stopping
//!   rule for Xoshiro and SplitMix64, integer thresholds for the
//!   counter), same LSB-first packing, same final generator states.
//!   The in-module tests and the cross-crate `lane_equivalence.rs`
//!   matrix pin this word-for-word across tiers, so dispatch may change
//!   *speed* but never *results*.
//!
//! # Dispatch tier
//!
//! [`active_tier`] picks the widest implementation the CPU supports,
//! resolved once per process via `is_x86_feature_detected!`. Two override
//! channels exist so CI can pin every code path:
//!
//! - the `OSC_SIMD` environment variable (`scalar`, `avx2`, `avx512`)
//!   caps the tier; `OSC_FORCE_SCALAR=1` is shorthand for
//!   `OSC_SIMD=scalar`. Requests above what the hardware supports clamp
//!   down, so `OSC_SIMD=avx2` is safe on any machine. Unknown names are
//!   rejected by [`parse_tier`] and reported on stderr (never silently
//!   remapped to some other tier).
//! - [`set_tier_override`], the in-process API switch the equivalence
//!   tests use to run the same workload through each tier.
//!
//! The portable scalar path is **mandatory**: every entry point falls
//! back to it for lane counts the vector widths don't divide and on
//! non-x86 targets, and the property tests pin all tiers word-for-word
//! against it. Tier selection also feeds *lane-block shaping*:
//! `osc-core`'s `batch::lane_blocks` degrades to single-lane blocks on
//! the scalar tier, where the `[u64; L]` lock-step walk has no vector
//! engine behind it and loses to sequential per-lane runs.

use crate::sng::SlicedThreshold;
use osc_math::rng::Xoshiro256PlusPlus;
use std::sync::atomic::{AtomicU8, Ordering};

/// One dispatchable implementation level, ordered by register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable `u64::count_ones` loop — always available, the reference.
    Scalar,
    /// 256-bit AVX2 nibble-shuffle popcount (4 lanes per register).
    Avx2,
    /// 512-bit `vpopcntq` (8 lanes per register); requires the
    /// AVX512VPOPCNTDQ extension, not just AVX-512F.
    Avx512,
}

impl SimdTier {
    /// Short lowercase name (`scalar` / `avx2` / `avx512`), matching the
    /// `OSC_SIMD` spellings.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Avx2),
            3 => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 2,
            SimdTier::Avx512 => 3,
        }
    }
}

/// A tier name that matched none of the `OSC_SIMD` spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierParseError {
    requested: String,
}

impl std::fmt::Display for TierParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown SIMD tier {:?} (valid tiers: scalar, avx2, avx512)",
            self.requested
        )
    }
}

impl std::error::Error for TierParseError {}

/// Parses a tier name (`scalar` / `avx2` / `avx512`, case-insensitive,
/// surrounding whitespace ignored). Unknown names return a
/// [`TierParseError`] listing the valid spellings — they are never
/// silently remapped to another tier.
pub fn parse_tier(name: &str) -> Result<SimdTier, TierParseError> {
    match name.trim().to_ascii_lowercase().as_str() {
        "scalar" => Ok(SimdTier::Scalar),
        "avx2" => Ok(SimdTier::Avx2),
        "avx512" => Ok(SimdTier::Avx512),
        _ => Err(TierParseError {
            requested: name.to_string(),
        }),
    }
}

/// The widest tier this CPU supports (cached after the first call).
pub fn detected_tier() -> SimdTier {
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    if let Some(t) = SimdTier::from_u8(DETECTED.load(Ordering::Relaxed)) {
        return t;
    }
    let t = detect();
    DETECTED.store(t.to_u8(), Ordering::Relaxed);
    t
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdTier {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
        SimdTier::Avx512
    } else if is_x86_feature_detected!("avx2") {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdTier {
    SimdTier::Scalar
}

/// Whether this CPU has the byte-permute (`avx512vbmi`) and GF(2)
/// affine (`gfni`) instructions the bit-matrix kernels are built on,
/// plus the `avx512bw` byte forms, the `avx512dq` conversions and the
/// `avx512vpopcntdq` counts they use (cached after the first call, like
/// [`detected_tier`]).
fn bitmatrix_detected() -> bool {
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        1 => return false,
        2 => return true,
        _ => {}
    }
    #[cfg(target_arch = "x86_64")]
    let found = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vpopcntdq")
        && is_x86_feature_detected!("avx512vbmi")
        && is_x86_feature_detected!("gfni");
    #[cfg(not(target_arch = "x86_64"))]
    let found = false;
    DETECTED.store(1 + u8::from(found), Ordering::Relaxed);
    found
}

/// Permission to run the GFNI/VBMI bit-matrix kernels: the AVX-512 tier
/// is active (so `OSC_SIMD` and [`set_tier_override`] caps turn them
/// off) and the CPU has `gfni` + `avx512vbmi`. The token can only be
/// obtained from [`BitMatrixKernels::active`], so holding one proves the
/// instructions exist; a caller checks once and keeps the token for a
/// whole kernel pass.
#[derive(Debug, Clone, Copy)]
pub struct BitMatrixKernels(());

impl BitMatrixKernels {
    /// The token when the kernels may run under the current dispatch
    /// tier, else `None`.
    pub fn active() -> Option<Self> {
        (active_tier() == SimdTier::Avx512 && bitmatrix_detected()).then_some(BitMatrixKernels(()))
    }

    /// The noisy-tier decision pass over one lane block: decides every
    /// cycle of every lane and returns each lane's count of decided ones
    /// and of decisions that differ from the ideal multiplexer output
    /// (`ones[l]`, `flips[l]` for `l < rngs.len()`, zero above).
    ///
    /// The block holds `L = rngs.len()` lanes of `len` cycles,
    /// lane-interleaved (word `w` of lane `l` at `w * L + l` of each
    /// row). Cycle `t` of word `w` of lane `l` has the z-word
    /// `Σ_c bit_t(coeff row c) << c` and the count
    /// `Σ_p bit_t(planes row p) << p`; its class is
    /// [`ClassBits`]' entry for that pair (0 past `classes.order()`).
    /// Class 0 decides 0, class 1 decides 1, and class 2 decides
    /// `rng.next_f64() < q` with `q` the table entry
    /// `one_probability[count << (order + 1) | zw]`, lane `l` drawing
    /// from `rngs[l]` in ascending (word, cycle) order — so the counts
    /// and the final generator states are those of the per-cycle table
    /// walk. Bits of the last word past
    /// `len` are not decided; `flips` counts `sel`'s bits there.
    ///
    /// Per word index the kernel gathers each lane's coefficient and
    /// count words into one register, bit-transposes both into 64
    /// per-cycle bytes, and looks the classes up with one `vpermi2b` per
    /// class table (the tables stay in registers for the whole pass) and
    /// a `1 << count` byte test. Then all lanes draw their class-2
    /// cycles in lock-step: a masked 8-lane xoshiro256++ step per round,
    /// each lane taking its lowest pending cycle, `q` gathered from
    /// `one_probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ rngs.len() ≤ 8`, `coeff` holds `order + 1`
    /// rows and `planes` [`planes_for`](crate::resc::planes_for)`(order)`
    /// rows of `len.div_ceil(64) * L` words, `sel` one such row, and
    /// `one_probability` the `(order + 1) << (order + 1)` table entries.
    pub fn decide_lanes(
        self,
        classes: &ClassBits,
        one_probability: &[f64],
        block: &DecisionBlock<'_>,
        rngs: &mut [Xoshiro256PlusPlus],
    ) -> ([u64; 8], [u64; 8]) {
        let lanes = rngs.len();
        assert!((1..=8).contains(&lanes), "{lanes} lanes");
        let order = classes.order;
        let wl = block.len.div_ceil(64) * lanes;
        assert!(block.coeff.len() >= (order + 1) * wl, "coefficient rows");
        assert!(
            block.planes.len() >= crate::resc::planes_for(order) * wl,
            "count planes"
        );
        assert!(block.sel.len() >= wl, "multiplexer row");
        assert!(
            one_probability.len() >= (order + 1) << (order + 1),
            "probability table"
        );
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the token exists only when bitmatrix_detected()
            // found every feature the kernel enables; the asserts above
            // bound every gather and load (see the kernel's contract).
            unsafe { decide_lanes_avx512(classes, one_probability, block, rngs) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (classes, one_probability, block, rngs);
            unreachable!("BitMatrixKernels is never granted off x86_64")
        }
    }
}

/// The word rows of one lane block's decision pass (see
/// [`BitMatrixKernels::decide_lanes`]), each lane-interleaved with a
/// row stride of `len.div_ceil(64) * L` words.
#[derive(Debug, Clone, Copy)]
pub struct DecisionBlock<'a> {
    /// The `order + 1` coefficient stream rows (z-word bit `c` = row `c`).
    pub coeff: &'a [u64],
    /// The bit-sliced ones-count planes of the data streams (count bit
    /// `p` = row `p`).
    pub planes: &'a [u64],
    /// The ideal multiplexer output, one row.
    pub sel: &'a [u64],
    /// Stream length in cycles.
    pub len: usize,
}

/// One circuit's decision classes in the form the bit-matrix decision
/// pass looks them up in: per z-word, one byte whose bit `count` says
/// whether entry `(count, zw)` is class 1 (always one) and one whose
/// bit says class 2 (needs a draw); any other entry is class 0.
///
/// A z-word of `order + 1 ≤ 7` bits indexes a 128-byte `vpermi2b`
/// table and a count `≤ order ≤ 6` is one bit of its byte, hence
/// [`ClassBits::MAX_ORDER`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassBits {
    order: usize,
    ones: [u8; 128],
    draws: [u8; 128],
}

impl ClassBits {
    /// Highest order the bit-matrix decision pass serves.
    pub const MAX_ORDER: usize = 6;

    /// All-class-0 tables for `order`, or `None` past
    /// [`ClassBits::MAX_ORDER`].
    pub fn new(order: usize) -> Option<Self> {
        (order <= Self::MAX_ORDER).then_some(ClassBits {
            order,
            ones: [0; 128],
            draws: [0; 128],
        })
    }

    /// Records row `count`'s classes, `classes[zw]` for z-word `zw`: 1
    /// (always one), 2 (needs a draw), anything else class 0 (always
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `count > order` or `classes` is longer than the
    /// `2^(order + 1)` z-words.
    pub fn set_row(&mut self, count: usize, classes: &[u8]) {
        assert!(
            count <= self.order,
            "count {count} past order {}",
            self.order
        );
        assert!(
            classes.len() <= 1 << (self.order + 1),
            "{} z-words",
            classes.len()
        );
        let bit = 1u8 << count;
        for ((one, draw), &class) in self.ones.iter_mut().zip(&mut self.draws).zip(classes) {
            *one = (*one & !bit) | (bit * u8::from(class == 1));
            *draw = (*draw & !bit) | (bit * u8::from(class == 2));
        }
    }
}

/// `0` = no override; otherwise `SimdTier::to_u8` of the forced tier.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces (or, with `None`, releases) the dispatch tier process-wide —
/// the API form of the `OSC_SIMD` switch, for tests that must run the
/// same workload through several tiers in one process. Requests above
/// [`detected_tier`] clamp down, so forcing is always safe. Returns the
/// tier that will actually be active.
pub fn set_tier_override(tier: Option<SimdTier>) -> SimdTier {
    match tier {
        Some(t) => {
            let t = t.min(detected_tier());
            OVERRIDE.store(t.to_u8(), Ordering::Relaxed);
            t
        }
        None => {
            OVERRIDE.store(0, Ordering::Relaxed);
            active_tier()
        }
    }
}

/// Tier cap requested through the environment (`OSC_SIMD` /
/// `OSC_FORCE_SCALAR`), read once per process.
fn env_cap() -> Option<SimdTier> {
    static ENV: AtomicU8 = AtomicU8::new(0);
    match ENV.load(Ordering::Relaxed) {
        0 => {}
        0xFF => return None,
        v => return SimdTier::from_u8(v),
    }
    let cap = if std::env::var_os("OSC_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        Some(SimdTier::Scalar)
    } else {
        match std::env::var("OSC_SIMD") {
            Ok(v) if !v.trim().is_empty() => match parse_tier(&v) {
                Ok(t) => Some(t),
                Err(e) => {
                    // Report once (the result is cached below) and run
                    // uncapped rather than guessing at a tier.
                    eprintln!("[simd] ignoring OSC_SIMD: {e}");
                    None
                }
            },
            _ => None,
        }
    };
    ENV.store(cap.map_or(0xFF, SimdTier::to_u8), Ordering::Relaxed);
    cap
}

/// The tier the dispatched entry points use: the [`set_tier_override`]
/// value if set, else the environment cap, clamped to [`detected_tier`].
pub fn active_tier() -> SimdTier {
    if let Some(t) = SimdTier::from_u8(OVERRIDE.load(Ordering::Relaxed)) {
        return t;
    }
    let detected = detected_tier();
    env_cap().map_or(detected, |cap| cap.min(detected))
}

/// Adds, per lane, the population count of every block of a
/// lane-interleaved word array: `acc[l] += Σ_w popcount(words[w * L + l])`
/// where `L = acc.len()`. Dispatches on [`active_tier`].
///
/// # Panics
///
/// Panics if `words.len()` is not a multiple of `acc.len()` or `acc` is
/// empty.
pub fn popcount_lanes_accumulate(words: &[u64], acc: &mut [u64]) {
    popcount_lanes_accumulate_with(active_tier(), words, acc);
}

/// [`popcount_lanes_accumulate`] through an explicit tier (clamped to
/// [`detected_tier`], so any request is safe to make). The
/// word-for-word agreement of all tiers is pinned by this module's tests
/// and the cross-crate lane-equivalence suite.
///
/// # Panics
///
/// Panics if `words.len()` is not a multiple of `acc.len()` or `acc` is
/// empty.
pub fn popcount_lanes_accumulate_with(tier: SimdTier, words: &[u64], acc: &mut [u64]) {
    let lanes = acc.len();
    assert!(lanes > 0, "need at least one lane accumulator");
    assert_eq!(
        words.len() % lanes,
        0,
        "words must hold whole lane-interleaved blocks"
    );
    let tier = tier.min(detected_tier());
    #[cfg(target_arch = "x86_64")]
    {
        if tier == SimdTier::Avx512 && lanes.is_multiple_of(8) {
            // SAFETY: tier is clamped to detected_tier(), so avx512f +
            // avx512vpopcntdq are present.
            unsafe { popcount_lanes_avx512(words, lanes, acc) };
            return;
        }
        if tier >= SimdTier::Avx2 && lanes.is_multiple_of(4) {
            // SAFETY: tier >= Avx2 after clamping means avx2 is present.
            unsafe { popcount_lanes_avx2(words, lanes, acc) };
            return;
        }
    }
    let _ = tier;
    popcount_lanes_scalar(words, lanes, acc);
}

/// The portable reference implementation (and the fallback for lane
/// counts the vector paths do not divide).
fn popcount_lanes_scalar(words: &[u64], lanes: usize, acc: &mut [u64]) {
    for block in words.chunks_exact(lanes) {
        for (a, &w) in acc.iter_mut().zip(block) {
            *a += u64::from(w.count_ones());
        }
    }
}

/// AVX2: nibble-LUT popcount (`vpshufb`) + `vpsadbw` horizontal fold,
/// one 256-bit register per 4 adjacent lanes, per-lane accumulators kept
/// vertical across all blocks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn popcount_lanes_avx2(words: &[u64], lanes: usize, acc: &mut [u64]) {
    use std::arch::x86_64::*;
    let nblocks = words.len() / lanes;
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0F);
    let zero = _mm256_setzero_si256();
    for group in 0..lanes / 4 {
        let mut vacc = zero;
        for w in 0..nblocks {
            let ptr = words.as_ptr().add(w * lanes + group * 4) as *const __m256i;
            let v = _mm256_loadu_si256(ptr);
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
            let nib = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            vacc = _mm256_add_epi64(vacc, _mm256_sad_epu8(nib, zero));
        }
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, vacc);
        for (a, o) in acc[group * 4..group * 4 + 4].iter_mut().zip(out) {
            *a += o;
        }
    }
}

/// AVX-512: hardware `vpopcntq`, one 512-bit register per 8 adjacent
/// lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcount_lanes_avx512(words: &[u64], lanes: usize, acc: &mut [u64]) {
    use std::arch::x86_64::*;
    let nblocks = words.len() / lanes;
    for group in 0..lanes / 8 {
        let mut vacc = _mm512_setzero_si512();
        for w in 0..nblocks {
            let ptr = words.as_ptr().add(w * lanes + group * 8) as *const __m512i;
            let v = _mm512_loadu_si512(ptr);
            vacc = _mm512_add_epi64(vacc, _mm512_popcnt_epi64(v));
        }
        let mut out = [0u64; 8];
        _mm512_storeu_si512(out.as_mut_ptr() as *mut __m512i, vacc);
        for (a, o) in acc[group * 8..group * 8 + 8].iter_mut().zip(out) {
            *a += o;
        }
    }
}

/// Whether the sliced-comparator engines ([`xoshiro_drain_chains`],
/// [`splitmix_drain_chains`]) run for `lanes` chains under the current
/// dispatch tier: 4 or 8 lanes on the AVX2 tier or above.
fn sliced_vector_applicable(lanes: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(lanes, 4 | 8) && active_tier() >= SimdTier::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// The per-lane threshold vectors of the sliced engines: `T`'s bits
/// MSB-first, the draw cap and the draw-free word, 8 slots each (unused
/// slots draw nothing and yield 0), and the largest cap.
#[cfg(target_arch = "x86_64")]
struct SlicedLanes {
    bits: [u64; 8],
    draws: [u64; 8],
    saturated: [u64; 8],
    /// The largest of `draws`: when it is shorter than an exit stride, a
    /// block takes just that many steps.
    max_draws: u64,
}

#[cfg(target_arch = "x86_64")]
impl SlicedLanes {
    fn new(thresholds: &[SlicedThreshold]) -> Self {
        let mut lanes = SlicedLanes {
            bits: [0; 8],
            draws: [0; 8],
            saturated: [0; 8],
            max_draws: 0,
        };
        for (l, t) in thresholds.iter().enumerate() {
            lanes.bits[l] = t.bits;
            lanes.draws[l] = t.draws;
            lanes.saturated[l] = t.saturated;
            lanes.max_draws = lanes.max_draws.max(t.draws);
        }
        lanes
    }
}

/// Runs `L` independent xoshiro256++ sliced comparators
/// ([`SlicedThreshold`]) in vector lock-step: chain `l` starts at
/// `states[l]` and compares against `thresholds[l]`, and each 64-bit
/// block emits one word per lane through `emit(&block, nbits)`. A lane
/// draws (and advances its state) only while its word is undecided, so
/// every lane's words and final state are those of a standalone scalar
/// drain. On success the states hold each chain's final value and the
/// function returns `true`; it returns `false` (touching nothing) when
/// no vector path applies — callers then run the scalar walk.
///
/// State word `i` of all chains lives in one register (AVX-512: 8
/// chains per ZMM with k-masked updates; AVX2: 4 chains per YMM, two
/// register groups for `L = 8`, blend-masked updates). A block's output
/// words are the lanes' `ones` registers themselves — no transpose.
#[cfg(target_arch = "x86_64")]
pub(crate) fn xoshiro_drain_chains<const L: usize, F>(
    states: &mut [[u64; 4]; L],
    thresholds: &[SlicedThreshold; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !sliced_vector_applicable(L) {
        return false;
    }
    let lanes = SlicedLanes::new(thresholds);
    let mut adapter = |words: &[u64; 8], nbits: usize| {
        let block: [u64; L] = std::array::from_fn(|l| words[l]);
        emit(&block, nbits);
    };
    // SAFETY: sliced_vector_applicable checked the tier, which
    // active_tier clamps to the detected hardware: AVX-512 implies
    // avx512f, AVX2 implies avx2.
    unsafe {
        if L == 8 && active_tier() == SimdTier::Avx512 {
            xoshiro_sliced8_avx512(states.as_mut_slice(), &lanes, len, &mut adapter);
        } else {
            xoshiro_sliced_avx2(states.as_mut_slice(), &lanes, len, &mut adapter);
        }
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar walk.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn xoshiro_drain_chains<const L: usize, F>(
    _states: &mut [[u64; 4]; L],
    _thresholds: &[SlicedThreshold; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

/// `vpternlogq` truth tables of the sliced engines.
#[cfg(target_arch = "x86_64")]
mod ternary {
    /// `a ^ b ^ c`.
    pub const XOR3: i32 = 0x96;
    /// `a | (b & c)`: `ones |= tied & decided_one`.
    pub const OR_AND: i32 = 0xF8;
    /// `a & !(b ^ c)`: `tied &= (draw bit == threshold bit)`.
    pub const AND_XNOR: i32 = 0x90;
}

/// Folds one draw `r` into an 8-lane sliced comparator under the lane
/// mask `act`: bits still tied where the draw's bit differs from the
/// threshold bit (all ones in `tm` where it is 1) are decided — 1 where
/// the threshold bit is 1 — and leave `tied`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn sliced_step_avx512(
    act: std::arch::x86_64::__mmask8,
    r: std::arch::x86_64::__m512i,
    tm: std::arch::x86_64::__m512i,
    tied: &mut std::arch::x86_64::__m512i,
    ones: &mut std::arch::x86_64::__m512i,
) {
    use std::arch::x86_64::*;
    let decided_one = _mm512_andnot_si512(r, tm);
    *ones = _mm512_mask_ternarylogic_epi64::<{ ternary::OR_AND }>(*ones, act, *tied, decided_one);
    *tied = _mm512_mask_ternarylogic_epi64::<{ ternary::AND_XNOR }>(*tied, act, r, tm);
}

/// Drives the 8-lane AVX-512 sliced comparator over `len` bits:
/// `draw(act)` returns the next draw of every lane, advancing only the
/// lanes in `act`. Per block, every lane starts with its valid bits tied
/// and draws while it is running; after each
/// [`SLICE_EXIT_STRIDE`](crate::sng::SLICE_EXIT_STRIDE)
/// draws a lane stops once nothing is tied, and no lane draws past its
/// threshold's `draws`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn sliced_blocks_avx512<D>(
    lanes: &SlicedLanes,
    len: usize,
    mut draw: D,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) where
    D: FnMut(std::arch::x86_64::__mmask8) -> std::arch::x86_64::__m512i,
{
    use std::arch::x86_64::*;
    let bits = _mm512_loadu_si512(lanes.bits.as_ptr() as *const __m512i);
    let cap = _mm512_loadu_si512(lanes.draws.as_ptr() as *const __m512i);
    let saturated = _mm512_loadu_si512(lanes.saturated.as_ptr() as *const __m512i);
    let drawing = _mm512_test_epi64_mask(cap, cap);
    // Draw `d` of the running lanes still below their caps.
    let mut step = |d: u64, running, tied: &mut __m512i, ones: &mut __m512i, tcur: &mut __m512i| {
        let act = running & _mm512_cmpgt_epu64_mask(cap, _mm512_set1_epi64(d as i64));
        let r = draw(act);
        let tm = _mm512_srai_epi64::<63>(*tcur);
        sliced_step_avx512(act, r, tm, tied, ones);
        *tcur = _mm512_slli_epi64::<1>(*tcur);
    };
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        let valid = _mm512_set1_epi64((u64::MAX >> (64 - nbits)) as i64);
        let mut tied = valid;
        let mut ones = _mm512_and_si512(saturated, valid);
        let mut tcur = bits;
        let mut running = drawing;
        if lanes.max_draws < u64::from(crate::sng::SLICE_EXIT_STRIDE) {
            // Every cap ends inside the first exit stride, and past the
            // largest one every lane is masked off.
            for d in 0..lanes.max_draws {
                step(d, running, &mut tied, &mut ones, &mut tcur);
            }
        } else {
            let mut d = 0u64;
            while running != 0 {
                for _ in 0..crate::sng::SLICE_EXIT_STRIDE {
                    step(d, running, &mut tied, &mut ones, &mut tcur);
                    d += 1;
                }
                running &= _mm512_test_epi64_mask(tied, tied)
                    & _mm512_cmpgt_epu64_mask(cap, _mm512_set1_epi64(d as i64));
            }
        }
        _mm512_storeu_si512(words.as_mut_ptr() as *mut __m512i, ones);
        emit(&words, nbits);
        remaining -= nbits;
    }
}

/// Drives the AVX2 sliced comparator over `len` bits for `groups` (1 or
/// 2) groups of 4 lanes: `draw(g, act)` returns group `g`'s next draw,
/// advancing only the lanes whose `act` qword is all ones. The stopping
/// rule is [`sliced_blocks_avx512`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sliced_blocks_avx2<D>(
    lanes: &SlicedLanes,
    groups: usize,
    len: usize,
    mut draw: D,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) where
    D: FnMut(usize, std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i,
{
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_si256();
    let load = |a: &[u64; 8], g: usize| _mm256_loadu_si256(a[g * 4..].as_ptr() as *const __m256i);
    // Draw `d` of the running lanes still below their caps, per group.
    let mut step = |d: i64,
                    running: &[__m256i; 2],
                    tied: &mut [__m256i; 2],
                    ones: &mut [__m256i; 2],
                    tcur: &mut [__m256i; 2]| {
        let dv = _mm256_set1_epi64x(d);
        for g in 0..groups {
            let act = _mm256_and_si256(running[g], _mm256_cmpgt_epi64(load(&lanes.draws, g), dv));
            let r = draw(g, act);
            // All ones where the threshold bit (the sign bit) is 1.
            let tm = _mm256_cmpgt_epi64(zero, tcur[g]);
            let decided_one = _mm256_andnot_si256(r, tm);
            ones[g] = _mm256_or_si256(
                ones[g],
                _mm256_and_si256(_mm256_and_si256(tied[g], decided_one), act),
            );
            let differs = _mm256_xor_si256(r, tm);
            tied[g] = _mm256_andnot_si256(_mm256_and_si256(differs, act), tied[g]);
            tcur[g] = _mm256_slli_epi64::<1>(tcur[g]);
        }
    };
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        let valid = _mm256_set1_epi64x((u64::MAX >> (64 - nbits)) as i64);
        let mut tied = [valid; 2];
        let mut ones = [zero; 2];
        let mut tcur = [zero; 2];
        let mut running = [zero; 2];
        for g in 0..groups {
            ones[g] = _mm256_and_si256(load(&lanes.saturated, g), valid);
            tcur[g] = load(&lanes.bits, g);
            running[g] = _mm256_cmpgt_epi64(load(&lanes.draws, g), zero);
        }
        if lanes.max_draws < u64::from(crate::sng::SLICE_EXIT_STRIDE) {
            for d in 0..lanes.max_draws as i64 {
                step(d, &running, &mut tied, &mut ones, &mut tcur);
            }
        } else {
            let mut d = 0i64;
            while (0..groups).any(|g| _mm256_testz_si256(running[g], running[g]) == 0) {
                for _ in 0..crate::sng::SLICE_EXIT_STRIDE {
                    step(d, &running, &mut tied, &mut ones, &mut tcur);
                    d += 1;
                }
                let dv = _mm256_set1_epi64x(d);
                for g in 0..groups {
                    let undecided =
                        _mm256_andnot_si256(_mm256_cmpeq_epi64(tied[g], zero), running[g]);
                    running[g] =
                        _mm256_and_si256(undecided, _mm256_cmpgt_epi64(load(&lanes.draws, g), dv));
                }
            }
        }
        for g in 0..groups {
            _mm256_storeu_si256(words[g * 4..].as_mut_ptr() as *mut __m256i, ones[g]);
        }
        emit(&words, nbits);
        remaining -= nbits;
    }
}

/// One xoshiro256++ step of eight generators, state word `i` of every
/// lane in `s[i]`: returns every lane's output and advances only the
/// lanes in `act` — `vprolq` rotates and three-input `vpternlogq`
/// state updates.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn xoshiro_step_avx512(
    act: std::arch::x86_64::__mmask8,
    s: &mut [std::arch::x86_64::__m512i; 4],
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    use ternary::XOR3;
    let [s0, s1, s2, s3] = *s;
    // result = rotl(s0 + s3, 23) + s0.
    let res = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
    // The linear xoshiro256++ update, each new word one XOR3 of old
    // words: s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= s1 << 17;
    // s3 = rotl(s3, 45).
    let t17 = _mm512_slli_epi64::<17>(s1);
    *s = [
        _mm512_mask_ternarylogic_epi64::<XOR3>(s0, act, s3, s1),
        _mm512_mask_ternarylogic_epi64::<XOR3>(s1, act, s2, s0),
        _mm512_mask_ternarylogic_epi64::<XOR3>(s2, act, s0, t17),
        _mm512_mask_mov_epi64(s3, act, _mm512_rol_epi64::<45>(_mm512_xor_si512(s3, s1))),
    ];
    res
}

/// AVX-512 xoshiro engine: 8 chains, state word `i` of all chains in one
/// ZMM, each step ([`xoshiro_step_avx512`]) masked to the lanes still
/// drawing.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn xoshiro_sliced8_avx512(
    states: &mut [[u64; 4]],
    lanes: &SlicedLanes,
    len: usize,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(states.len(), 8);
    let load = |i: usize, states: &[[u64; 4]]| {
        let tmp: [u64; 8] = std::array::from_fn(|l| states[l][i]);
        _mm512_loadu_si512(tmp.as_ptr() as *const __m512i)
    };
    let mut s = std::array::from_fn(|i| load(i, states));
    sliced_blocks_avx512(lanes, len, |act| xoshiro_step_avx512(act, &mut s), emit);
    let store = |v: __m512i| {
        let mut tmp = [0u64; 8];
        _mm512_storeu_si512(tmp.as_mut_ptr() as *mut __m512i, v);
        tmp
    };
    let [o0, o1, o2, o3] = s.map(store);
    for (l, st) in states.iter_mut().enumerate() {
        *st = [o0[l], o1[l], o2[l], o3[l]];
    }
}

/// AVX2 xoshiro engine: 4 chains per YMM register group, one group for
/// `L = 4` and two for `L = 8`; rotates are shift-or pairs and the
/// state update is blended into the lanes still drawing.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xoshiro_sliced_avx2(
    states: &mut [[u64; 4]],
    lanes: &SlicedLanes,
    len: usize,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) {
    use std::arch::x86_64::*;
    let groups = states.len() / 4;
    debug_assert!(groups == 1 || groups == 2);
    let load = |i: usize, g: usize, states: &[[u64; 4]]| {
        let tmp: [u64; 4] = std::array::from_fn(|l| states[g * 4 + l][i]);
        _mm256_loadu_si256(tmp.as_ptr() as *const __m256i)
    };
    let mut s = [[_mm256_setzero_si256(); 4]; 2];
    for (g, sg) in s.iter_mut().take(groups).enumerate() {
        *sg = std::array::from_fn(|i| load(i, g, states));
    }
    sliced_blocks_avx2(
        lanes,
        groups,
        len,
        |g, act| {
            let [s0, s1, s2, s3] = s[g];
            let sum = _mm256_add_epi64(s0, s3);
            let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
            let res = _mm256_add_epi64(rot, s0);
            let n2 = _mm256_xor_si256(s2, s0);
            let n3 = _mm256_xor_si256(s3, s1);
            let n1 = _mm256_xor_si256(s1, n2);
            let n0 = _mm256_xor_si256(s0, n3);
            let n2 = _mm256_xor_si256(n2, _mm256_slli_epi64::<17>(s1));
            let n3 = _mm256_or_si256(_mm256_slli_epi64::<45>(n3), _mm256_srli_epi64::<19>(n3));
            let blend = |old, new| _mm256_blendv_epi8(old, new, act);
            s[g] = [blend(s0, n0), blend(s1, n1), blend(s2, n2), blend(s3, n3)];
            res
        },
        emit,
    );
    for g in 0..groups {
        let store = |v: __m256i| {
            let mut tmp = [0u64; 4];
            _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, v);
            tmp
        };
        let [o0, o1, o2, o3] = s[g].map(store);
        for l in 0..4 {
            states[g * 4 + l] = [o0[l], o1[l], o2[l], o3[l]];
        }
    }
}

/// `vpermb` indices gathering byte `k` of every qword `j` into qword
/// `k`, word `j` landing in byte `7 - j` — the order in which
/// `vgf2p8affineqb` reads matrix rows.
#[cfg(target_arch = "x86_64")]
const TRANSPOSE_GATHER: [u8; 64] = {
    let mut idx = [0u8; 64];
    let mut k = 0;
    while k < 8 {
        let mut j = 0;
        while j < 8 {
            idx[k * 8 + 7 - j] = (j * 8 + k) as u8;
            j += 1;
        }
        k += 1;
    }
    idx
};

/// The 8 × 64 bit-matrix transpose of the bit-matrix kernels: byte `t`
/// bit `j` of the result is bit `t` of qword `j` of `v`.
///
/// `vpermb` makes qword `k` hold byte `k` of all eight words (rows in
/// reverse), then `vgf2p8affineqb` with that qword as its matrix and
/// the unit bytes `1 << b` as its input transposes each 8 × 8 block:
/// output byte `b` bit `i` = matrix row `7 - i` bit `b`. Applied three
/// times the transpose is the identity, so applying it twice inverts it
/// (64 per-draw bytes → 8 per-lane words).
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512bw`, `avx512vbmi` and `gfni`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
unsafe fn bit_transpose_8x64(v: std::arch::x86_64::__m512i) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let gather = _mm512_loadu_si512(TRANSPOSE_GATHER.as_ptr() as *const __m512i);
    let unit_bytes = _mm512_set1_epi64(0x8040_2010_0804_0201u64 as i64);
    _mm512_gf2p8affine_epi64_epi8::<0>(unit_bytes, _mm512_permutexvar_epi8(gather, v))
}

/// Most shift zeros one lane of a lane block may hold for
/// [`splice_zero_lanes`]: with at most 64 zeros below any word, every
/// output word is a funnel of the two source words just below it. The
/// event engine stops a lane that reaches one more zero, and the caller
/// splices that lane with its scalar loop.
pub const MAX_SPLICE_ZEROS: usize = 64;

/// Where [`geometric_event_lanes`] puts each lane's events. Both targets
/// are lane-interleaved blocks: bit `b` of lane `l` lives in
/// `block[(b / 64) * stride + l]`, `stride = seeds.len()`.
#[derive(Debug)]
pub enum EventSink<'a> {
    /// The flip process: XOR each event's bit into the stream words.
    Flip(&'a mut [u64]),
    /// The shift process: set each event's zero position in a zeroed
    /// mask block. The zero inserted before original bit `e`, after `k`
    /// earlier insertions, sits at output position `e + k`; a lane stops
    /// once its next zero falls past the stream, or at its zero number
    /// [`MAX_SPLICE_ZEROS`] `+ 1`, which it counts but does not mark (an
    /// overflowed lane, whose marks are incomplete).
    Zeros(&'a mut [u64]),
}

/// Draws every lane's seeded Bernoulli event process over a `len`-bit
/// stream with all lanes advancing together, and marks the events in
/// `sink`. Returns each lane's event count — for
/// [`EventSink::Zeros`], `MAX_SPLICE_ZEROS + 1` marks an overflowed
/// lane — or `None` (touching nothing) when no vector path applies: the
/// caller then runs its per-lane scalar event loop.
///
/// Lane `l` (for each bit set in `lanes`) draws from
/// `Xoshiro256PlusPlus::new(seeds[l])`: each uniform `u` gives the run of
/// event-free positions before the next event, `⌊ln(1 − u) ·
/// inv_log_q[l]⌋` (the geometric inverse CDF, `inv_log_q = 1 / ln(1 −
/// p)`, finite and negative). The vector gap uses a polynomial `ln` and
/// is **certified**: with `y` its approximation and `δ = 1e-9·y +
/// 1e-12`, it is accepted only when `trunc(max(y − δ, 0)) == trunc(y +
/// δ)`, far above the polynomial's ~1e-15 relative error. A lane that
/// fails the certificate takes `exact_gap(u, inv_log_q[l])` — the
/// caller's scalar definition — so the events are those of the scalar
/// loop by construction.
///
/// # Panics
///
/// Panics if `seeds` and `inv_log_q` differ in length or hold more than
/// 8 lanes, or the sink is shorter than the `len` bits of every lane
/// need.
pub fn geometric_event_lanes(
    seeds: &[u64],
    inv_log_q: &[f64],
    lanes: u8,
    len: usize,
    exact_gap: fn(f64, f64) -> u64,
    sink: EventSink<'_>,
) -> Option<[usize; 8]> {
    let stride = seeds.len();
    assert!(stride <= 8 && inv_log_q.len() == stride);
    let (EventSink::Flip(block) | EventSink::Zeros(block)) = &sink;
    assert!(len == 0 || block.len() >= (len - 1) / 64 * stride + stride);
    if !event_lanes_applicable() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let mut seedv = [0u64; 8];
        let mut invq = [-1.0f64; 8];
        // Only lanes below `stride` exist; an empty stream has no events.
        let lanes = if len == 0 {
            0
        } else {
            lanes & ((1u16 << stride) - 1) as u8
        };
        for l in 0..stride {
            if lanes >> l & 1 == 1 {
                debug_assert!(inv_log_q[l].is_finite() && inv_log_q[l] < 0.0);
                seedv[l] = seeds[l];
                invq[l] = inv_log_q[l];
            }
        }
        // SAFETY: event_lanes_applicable checked the AVX-512 tier
        // (clamped to the detected hardware, so avx512f is present) and
        // avx512dq; the assert above bounds every gathered and scattered
        // index to the sink.
        let counts = unsafe {
            match sink {
                EventSink::Flip(words) => geometric_events_avx512::<false>(
                    &seedv, &invq, lanes, words, stride, len, exact_gap,
                ),
                EventSink::Zeros(marks) => geometric_events_avx512::<true>(
                    &seedv, &invq, lanes, marks, stride, len, exact_gap,
                ),
            }
        };
        Some(counts.map(|c| c as usize))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (lanes, exact_gap, sink);
        None
    }
}

/// Whether [`geometric_event_lanes`] and [`splice_zero_lanes`] run under
/// the current dispatch tier: the AVX-512 tier plus `avx512dq` (the
/// `u64` ↔ `f64` conversions and `vpmullq`) and `avx512cd` (`vplzcntq`).
fn event_lanes_applicable() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        active_tier() == SimdTier::Avx512
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512cd")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX-512 event loop behind [`geometric_event_lanes`]: each lane's
/// xoshiro256++ state seeded by a vector SplitMix64 expansion (the
/// scalar `Xoshiro256PlusPlus::new`), state word `i` of all lanes in one
/// ZMM (the recurrence of [`xoshiro_chains8_avx512`]), four certified
/// gaps drawn per lane ahead, then one masked gather / XOR / scatter of
/// the event bits per gap. A lane leaves the loop once its next event
/// falls past `len`.
///
/// With `ZEROS` on, consecutive events sit `gap + 2` apart instead of
/// `gap + 1` (each earlier zero moves the next one up by one), and a
/// lane leaves the loop after `MAX_SPLICE_ZEROS + 1` events.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`, and every index
/// `(b / 64) * stride + l` with `b < len` and `l` in `lanes` must lie
/// inside `block`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn geometric_events_avx512<const ZEROS: bool>(
    seeds: &[u64; 8],
    inv_log_q: &[f64; 8],
    lanes: u8,
    block: &mut [u64],
    stride: usize,
    len: usize,
    exact_gap: fn(f64, f64) -> u64,
) -> [u64; 8] {
    use std::arch::x86_64::*;
    const XOR3: i32 = 0x96;
    const AHEAD: usize = 4;
    let splitmix = |i: i64| {
        let s = _mm512_add_epi64(
            _mm512_loadu_si512(seeds.as_ptr() as *const __m512i),
            _mm512_set1_epi64(SPLITMIX_GAMMA.wrapping_mul(i as u64) as i64),
        );
        let c1 = _mm512_set1_epi64(SPLITMIX_MIX1 as i64);
        let c2 = _mm512_set1_epi64(SPLITMIX_MIX2 as i64);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64::<30>(s)), c1);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), c2);
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    };
    let (mut s0, mut s1, mut s2, mut s3) = (splitmix(1), splitmix(2), splitmix(3), splitmix(4));
    let invq = _mm512_loadu_pd(inv_log_q.as_ptr());
    let lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let stridev = _mm512_set1_epi64(stride as i64);
    let lenv = _mm512_set1_epi64(len as i64);
    let one = _mm512_set1_epi64(1);
    let spacing = _mm512_set1_epi64(if ZEROS { 2 } else { 1 });
    let cap = _mm512_set1_epi64(MAX_SPLICE_ZEROS as i64 + 1);
    let base = block.as_mut_ptr() as *mut i64;
    let mut pos = _mm512_setzero_si512();
    let mut count = _mm512_setzero_si512();
    let mut live = lanes;
    while live != 0 {
        // Draw AHEAD gaps per lane before applying any: the `ln` chains
        // of consecutive draws are independent and overlap. Draws past a
        // lane's last event are discarded (each call seeds fresh states).
        let mut gaps = [_mm512_setzero_si512(); AHEAD];
        for slot in gaps.iter_mut() {
            let res = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
            let t17 = _mm512_slli_epi64::<17>(s1);
            let n0 = _mm512_ternarylogic_epi64::<XOR3>(s0, s3, s1);
            let n1 = _mm512_ternarylogic_epi64::<XOR3>(s1, s2, s0);
            let n2 = _mm512_ternarylogic_epi64::<XOR3>(s2, s0, t17);
            s3 = _mm512_rol_epi64::<45>(_mm512_xor_si512(s3, s1));
            (s0, s1, s2) = (n0, n1, n2);
            // next_f64: the top 53 bits, exactly representable.
            let u = _mm512_mul_pd(
                _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(res)),
                _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
            );
            let (gap, certified) = certified_gaps_avx512(u, invq);
            *slot = gap;
            let retry = live & !certified;
            if retry != 0 {
                let mut us = [0.0f64; 8];
                let mut exact = [0u64; 8];
                _mm512_storeu_pd(us.as_mut_ptr(), u);
                _mm512_storeu_si512(exact.as_mut_ptr() as *mut __m512i, gap);
                for l in 0..8 {
                    if retry >> l & 1 == 1 {
                        exact[l] = exact_gap(us[l], inv_log_q[l]);
                    }
                }
                *slot = _mm512_loadu_si512(exact.as_ptr() as *const __m512i);
            }
        }
        for gap in gaps {
            // The event lands inside the stream iff gap < len - pos. A
            // zero lane's `pos` may reach len + 1, so the room clamps at
            // zero; `len` is far below 2⁶³, so the signed max is exact.
            let room = _mm512_max_epi64(_mm512_sub_epi64(lenv, pos), _mm512_setzero_si512());
            let mut hit = _mm512_mask_cmplt_epu64_mask(live, gap, room);
            let event = _mm512_add_epi64(pos, gap);
            count = _mm512_mask_add_epi64(count, hit, count, one);
            if ZEROS {
                hit &= !_mm512_mask_cmpeq_epu64_mask(hit, count, cap);
            }
            let idx = _mm512_add_epi64(
                _mm512_mullo_epi64(_mm512_srli_epi64::<6>(event), stridev),
                lane_ids,
            );
            let bit = _mm512_sllv_epi64(one, _mm512_and_si512(event, _mm512_set1_epi64(63)));
            let old = _mm512_mask_i64gather_epi64::<8>(_mm512_setzero_si512(), hit, idx, base);
            _mm512_mask_i64scatter_epi64::<8>(base, hit, idx, _mm512_xor_si512(old, bit));
            pos = _mm512_add_epi64(event, spacing);
            live = hit;
        }
    }
    let mut counts = [0u64; 8];
    _mm512_storeu_si512(counts.as_mut_ptr() as *mut __m512i, count);
    counts
}

/// Inserts each lane's shift zeros into a lane-interleaved block in
/// place, all lanes in one top-down vector pass. Returns `false`
/// (touching nothing) under the same dispatch rule as
/// [`geometric_event_lanes`]; the caller then splices lane by lane.
///
/// Lane `l` (for each bit set in `lanes`) takes a zero at every output
/// position set in its lane of `zeros` (the block
/// [`EventSink::Zeros`] marks, `counts[l] <= MAX_SPLICE_ZEROS` of them,
/// all below `len`): the bits between zeros `t` and `t + 1` (1-based)
/// move up by `t`, bits pushed past `len` are lost, and bits below the
/// first zero stay put — the scalar splice's result. Each lane carries
/// its shift count (the zeros below the current word's top) in one ZMM.
/// A word without a zero of the lane is a per-lane variable funnel of
/// the two still-unmodified source words below it (`vpsllvq` /
/// `vpsrlvq`, whose counts of 64 give zero); a word holding zeros is
/// built one zero at a time, highest first (`vplzcntq`): the bits below
/// the zero are the funnel at one shift less and the zero itself stays
/// clear.
///
/// # Panics
///
/// Panics if `stride > 8`, a lane in `lanes` has more than
/// [`MAX_SPLICE_ZEROS`] zeros, or `words` or `zeros` is shorter than
/// `len` bits of `stride` lanes need.
pub fn splice_zero_lanes(
    words: &mut [u64],
    zeros: &[u64],
    stride: usize,
    len: usize,
    counts: &[usize; 8],
    lanes: u8,
) -> bool {
    assert!(stride <= 8);
    // A lane without zeros keeps its words as they are.
    let lanes = (0..stride)
        .filter(|&l| lanes >> l & 1 == 1 && counts[l] > 0)
        .fold(0u8, |m, l| m | 1 << l);
    if len == 0 || lanes == 0 {
        return event_lanes_applicable();
    }
    let need = (len - 1) / 64 * stride + stride;
    assert!(words.len() >= need && zeros.len() >= need);
    assert!((0..stride).all(|l| lanes >> l & 1 == 0 || counts[l] <= MAX_SPLICE_ZEROS));
    if !event_lanes_applicable() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: event_lanes_applicable admitted the AVX-512 tier (avx512f
    // present) and avx512cd; the asserts above bound every word the
    // pass touches and every lane's shift count.
    unsafe {
        splice_zero_lanes_avx512(words, zeros, stride, len, counts, lanes)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = counts;
    true
}

/// The vector pass behind [`splice_zero_lanes`], from the top word down
/// until no lane has a zero left below the current word.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512cd`; `lanes` are below
/// `stride` with at most [`MAX_SPLICE_ZEROS`] zeros each, and `words`
/// and `zeros` hold `len > 0` bits of `stride` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512cd")]
unsafe fn splice_zero_lanes_avx512(
    words: &mut [u64],
    zeros: &[u64],
    stride: usize,
    len: usize,
    counts: &[usize; 8],
    lanes: u8,
) {
    use std::arch::x86_64::*;
    let k0: [u64; 8] = std::array::from_fn(|l| {
        if lanes >> l & 1 == 1 {
            counts[l] as u64
        } else {
            0
        }
    });
    let mut k = _mm512_loadu_si512(k0.as_ptr() as *const __m512i);
    let present = ((1u16 << stride) - 1) as u8;
    let ones = _mm512_set1_epi64(-1);
    let one = _mm512_set1_epi64(1);
    let sixty_three = _mm512_set1_epi64(63);
    let sixty_four = _mm512_set1_epi64(64);
    let top = (len - 1) / 64;
    let tail = match len % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    };
    let (wp, zp) = (words.as_mut_ptr() as *mut i64, zeros.as_ptr() as *const i64);
    let mut w = top;
    loop {
        let hi = _mm512_maskz_loadu_epi64(present, wp.add(w * stride));
        let lo = if w > 0 {
            _mm512_maskz_loadu_epi64(present, wp.add((w - 1) * stride))
        } else {
            _mm512_setzero_si512()
        };
        // Source bits `64·w − k ..` of each lane: hi << k | lo >> (64 − k).
        let funnel = |k: __m512i| {
            _mm512_or_si512(
                _mm512_sllv_epi64(hi, k),
                _mm512_srlv_epi64(lo, _mm512_sub_epi64(sixty_four, k)),
            )
        };
        let mut out = funnel(k);
        let mut rest = _mm512_maskz_loadu_epi64(lanes, zp.add(w * stride));
        let mut in_word = _mm512_test_epi64_mask(rest, rest);
        // One round per zero, highest first: everything below it comes
        // from one shift less.
        loop {
            let b = _mm512_sub_epi64(sixty_three, _mm512_lzcnt_epi64(rest));
            k = _mm512_mask_sub_epi64(k, in_word, k, one);
            let below_zero = _mm512_andnot_si512(_mm512_sllv_epi64(ones, b), funnel(k));
            let above_zero = _mm512_sllv_epi64(ones, _mm512_add_epi64(b, one));
            // (out & above_zero) | below_zero
            let spliced = _mm512_ternarylogic_epi64::<0xEA>(out, above_zero, below_zero);
            out = _mm512_mask_mov_epi64(out, in_word, spliced);
            rest = _mm512_mask_andnot_epi64(rest, in_word, _mm512_sllv_epi64(one, b), rest);
            in_word = _mm512_test_epi64_mask(rest, rest);
            if in_word == 0 {
                break;
            }
        }
        if w == top {
            out = _mm512_and_si512(out, _mm512_set1_epi64(tail as i64));
        }
        _mm512_mask_storeu_epi64(wp.add(w * stride), lanes, out);
        if w == 0 || _mm512_test_epi64_mask(k, k) == 0 {
            break;
        }
        w -= 1;
    }
}

/// Certified geometric gaps for 8 uniforms `u ∈ [0, 1)`: returns
/// `trunc(max(y − δ, 0))` per lane with `y = ln(1 − u) · inv_log_q`
/// (polynomial `ln`) and `δ = 1e-9·y + 1e-12`, and the mask of lanes
/// whose certificate `trunc(max(y − δ, 0)) == trunc(y + δ)` holds —
/// for those the exact scalar gap lies in the same integer bucket. Gaps
/// of `2^64` and above convert to `u64::MAX` (saturating, as the scalar
/// cast does).
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn certified_gaps_avx512(
    u: std::arch::x86_64::__m512d,
    inv_log_q: std::arch::x86_64::__m512d,
) -> (std::arch::x86_64::__m512i, u8) {
    use std::arch::x86_64::*;
    let y = _mm512_mul_pd(ln_avx512(_mm512_sub_pd(_mm512_set1_pd(1.0), u)), inv_log_q);
    let delta = _mm512_fmadd_pd(y, _mm512_set1_pd(1e-9), _mm512_set1_pd(1e-12));
    let lo = _mm512_max_pd(_mm512_sub_pd(y, delta), _mm512_setzero_pd());
    let g_lo = _mm512_cvttpd_epu64(lo);
    let g_hi = _mm512_cvttpd_epu64(_mm512_add_pd(y, delta));
    (g_lo, _mm512_cmpeq_epi64_mask(g_lo, g_hi))
}

/// Natural log of 8 positive normal doubles, fdlibm's `__ieee754_log`
/// reduction and minimax polynomial (< 1 ulp): `x = 2^k · m` with `m ∈
/// (√2/2, √2]`, `f = m − 1`, `s = f / (2 + f)`, and `ln(1 + f) = f −
/// (f²/2 − s·(f²/2 + R(s²)))`.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ln_avx512(x: std::arch::x86_64::__m512d) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    const LG: [f64; 7] = [
        6.666_666_666_666_735e-1,
        3.999_999_999_940_942e-1,
        2.857_142_874_366_239e-1,
        2.222_219_843_214_978_4e-1,
        1.818_357_216_161_805e-1,
        1.531_383_769_920_937_3e-1,
        1.479_819_860_511_658_6e-1,
    ];
    let c = |v: f64| _mm512_set1_pd(v);
    let mant = _mm512_getmant_pd::<_MM_MANT_NORM_1_2, _MM_MANT_SIGN_SRC>(x);
    let high = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(mant, c(std::f64::consts::SQRT_2));
    let m = _mm512_mask_mul_pd(mant, high, mant, c(0.5));
    let k = _mm512_getexp_pd(x);
    let k = _mm512_mask_add_pd(k, high, k, c(1.0));
    let f = _mm512_sub_pd(m, c(1.0));
    let s = _mm512_div_pd(f, _mm512_add_pd(c(2.0), f));
    let z = _mm512_mul_pd(s, s);
    let w = _mm512_mul_pd(z, z);
    let t1 = _mm512_mul_pd(
        w,
        _mm512_fmadd_pd(w, _mm512_fmadd_pd(w, c(LG[5]), c(LG[3])), c(LG[1])),
    );
    let t2 = _mm512_mul_pd(
        z,
        _mm512_fmadd_pd(
            w,
            _mm512_fmadd_pd(w, _mm512_fmadd_pd(w, c(LG[6]), c(LG[4])), c(LG[2])),
            c(LG[0]),
        ),
    );
    let r = _mm512_add_pd(t2, t1);
    let hfsq = _mm512_mul_pd(_mm512_mul_pd(c(0.5), f), f);
    // k·ln2_hi − ((hfsq − (s·(hfsq + R) + k·ln2_lo)) − f)
    let inner = _mm512_fmadd_pd(s, _mm512_add_pd(hfsq, r), _mm512_mul_pd(k, c(LN2_LO)));
    _mm512_fmsub_pd(k, c(LN2_HI), _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f))
}

/// Runs `L` independent SplitMix64 sliced comparators in vector
/// lock-step — [`xoshiro_drain_chains`] for the chaotic-laser source:
/// chain `l` starts at state `states[l]`, a lane advances only while its
/// word is undecided, and the words and final states equal a standalone
/// scalar drain's. Returns `false` (touching nothing) when no vector
/// path applies.
///
/// The SplitMix64 output mix is two 64-bit multiplies per draw: the
/// AVX-512 path uses `vpmullq` (gated on `avx512dq`), the AVX2 path
/// synthesizes the low-64 product from three `vpmuludq` 32×32 halves.
#[cfg(target_arch = "x86_64")]
pub(crate) fn splitmix_drain_chains<const L: usize, F>(
    states: &mut [u64; L],
    thresholds: &[SlicedThreshold; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !sliced_vector_applicable(L) {
        return false;
    }
    let lanes = SlicedLanes::new(thresholds);
    let mut adapter = |words: &[u64; 8], nbits: usize| {
        let block: [u64; L] = std::array::from_fn(|l| words[l]);
        emit(&block, nbits);
    };
    // SAFETY: sliced_vector_applicable checked the tier (which
    // active_tier clamps to the detected hardware); the avx512 arm
    // additionally checks avx512dq for vpmullq.
    unsafe {
        if L == 8 && active_tier() == SimdTier::Avx512 && is_x86_feature_detected!("avx512dq") {
            splitmix_sliced8_avx512(states.as_mut_slice(), &lanes, len, &mut adapter);
        } else {
            splitmix_sliced_avx2(states.as_mut_slice(), &lanes, len, &mut adapter);
        }
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar walk.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn splitmix_drain_chains<const L: usize, F>(
    _states: &mut [u64; L],
    _thresholds: &[SlicedThreshold; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const SPLITMIX_MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const SPLITMIX_MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// AVX-512 SplitMix64 engine: 8 chains, all states in one ZMM, the
/// `gamma` step masked to the lanes still drawing, `vpmullq` mix
/// multiplies.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn splitmix_sliced8_avx512(
    states: &mut [u64],
    lanes: &SlicedLanes,
    len: usize,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(states.len(), 8);
    let mut s = _mm512_loadu_si512(states.as_ptr() as *const __m512i);
    let gamma = _mm512_set1_epi64(SPLITMIX_GAMMA as i64);
    let c1 = _mm512_set1_epi64(SPLITMIX_MIX1 as i64);
    let c2 = _mm512_set1_epi64(SPLITMIX_MIX2 as i64);
    sliced_blocks_avx512(
        lanes,
        len,
        |act| {
            s = _mm512_mask_add_epi64(s, act, s, gamma);
            let mut z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64::<30>(s)), c1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), c2);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        },
        emit,
    );
    _mm512_storeu_si512(states.as_mut_ptr() as *mut __m512i, s);
}

/// AVX2 SplitMix64 engine: 4 chains per YMM register group; the `gamma`
/// step is masked by AND-ing it with the active lanes, and the 64-bit
/// mix multiplies are synthesized from `vpmuludq` 32×32→64 halves
/// (`lo·lo + ((lo·hi + hi·lo) << 32)`).
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn splitmix_sliced_avx2(
    states: &mut [u64],
    lanes: &SlicedLanes,
    len: usize,
    emit: &mut dyn FnMut(&[u64; 8], usize),
) {
    use std::arch::x86_64::*;
    let groups = states.len() / 4;
    debug_assert!(groups == 1 || groups == 2);
    let gamma = _mm256_set1_epi64x(SPLITMIX_GAMMA as i64);
    let c1 = _mm256_set1_epi64x(SPLITMIX_MIX1 as i64);
    let c2 = _mm256_set1_epi64x(SPLITMIX_MIX2 as i64);
    let mul64 = |a: __m256i, b: __m256i| {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    };
    let mut s = [_mm256_setzero_si256(); 2];
    for g in 0..groups {
        s[g] = _mm256_loadu_si256(states[g * 4..].as_ptr() as *const __m256i);
    }
    sliced_blocks_avx2(
        lanes,
        groups,
        len,
        |g, act| {
            s[g] = _mm256_add_epi64(s[g], _mm256_and_si256(gamma, act));
            let mut z = mul64(_mm256_xor_si256(s[g], _mm256_srli_epi64::<30>(s[g])), c1);
            z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), c2);
            _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
        },
        emit,
    );
    for g in 0..groups {
        _mm256_storeu_si256(states[g * 4..].as_mut_ptr() as *mut __m256i, s[g]);
    }
}

/// Whether the base-2 counter (van der Corput) engine
/// ([`counter_drain_chains`]) will run for `lanes` chains under the
/// current dispatch tier.
pub(crate) fn counter_vector_applicable(lanes: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(lanes, 4 | 8) && active_tier() >= SimdTier::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// Draws `L` base-2 van der Corput comparator chains that share one
/// counter walk: draw `t` (1-based) emits, for lane `l`, the bit
/// `reverse_bits(t) < wide[l]` (or `1` when `always[l]`, i.e. the u128
/// threshold saturated past 2^64). 64 draws pack into one
/// `emit(&block, nbits)` word per lane, LSB-first — exactly the scalar
/// `counter_bit` interleave. Returns `false` (touching nothing) when no
/// vector path applies.
///
/// Because every lane of one `drain_lanes` call advances the *same*
/// counter, the engine bit-reverses each index once — GFNI
/// `vgf2p8affineqb` (bit-reverse within bytes) + `vpshufb` (byte
/// reversal) where available, portable `u64::reverse_bits` otherwise —
/// and then runs one vector compare per lane per 64-draw block, whose
/// mask *is* the lane's output byte: no pext transpose needed.
#[cfg(target_arch = "x86_64")]
pub(crate) fn counter_drain_chains<const L: usize, F>(
    wide: &[u64; L],
    always: &[bool; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !counter_vector_applicable(L) {
        return false;
    }
    let tier = active_tier();
    let gfni = is_x86_feature_detected!("gfni");
    let avx512bw = is_x86_feature_detected!("avx512bw");
    let mut revbuf = [0u64; 64];
    let mut words = [0u64; L];
    let mut n = 0u64;
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        // Fill revbuf with reverse_bits(n + 1 ..= n + 64); slots at and
        // above nbits are never read back (masked out below).
        // SAFETY: each arm's features were detected above (tier is
        // clamped to the hardware by active_tier).
        unsafe {
            if tier == SimdTier::Avx512 && gfni && avx512bw {
                reverse_indices_avx512(n, &mut revbuf);
            } else if gfni {
                reverse_indices_avx2_gfni(n, &mut revbuf);
            } else {
                for (t, r) in revbuf.iter_mut().enumerate() {
                    *r = (n + 1 + t as u64).reverse_bits();
                }
            }
            if tier == SimdTier::Avx512 {
                counter_compare_words_avx512(&revbuf, wide, &mut words);
            } else {
                counter_compare_words_avx2(&revbuf, wide, &mut words);
            }
        }
        for (w, &a) in words.iter_mut().zip(always.iter()) {
            if a {
                *w = u64::MAX;
            }
            if nbits < 64 {
                *w &= (1u64 << nbits) - 1;
            }
        }
        emit(&words, nbits);
        n += nbits as u64;
        remaining -= nbits;
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar interleave.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn counter_drain_chains<const L: usize, F>(
    _wide: &[u64; L],
    _always: &[bool; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

/// GF(2) affine matrix that bit-reverses each byte under
/// `vgf2p8affineqb` (the identity matrix in this encoding is
/// `0x0102_0408_1020_4080`).
#[cfg(target_arch = "x86_64")]
const GFNI_BIT_REVERSE: i64 = 0x8040_2010_0804_0201u64 as i64;

/// Bit-reverses the 64 counter values `n + 1 ..= n + 64` into `out`,
/// eight per ZMM: GFNI reverses bits within each byte, `vpshufb`
/// reverses the bytes of each quadword.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
unsafe fn reverse_indices_avx512(n: u64, out: &mut [u64; 64]) {
    use std::arch::x86_64::*;
    let revmat = _mm512_set1_epi64(GFNI_BIT_REVERSE);
    let byte_swap = _mm512_broadcast_i32x4(_mm_set_epi8(
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
    ));
    let step = _mm512_set1_epi64(8);
    let mut idx = _mm512_add_epi64(
        _mm512_set1_epi64(n as i64),
        _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8),
    );
    for c in 0..8 {
        let br = _mm512_gf2p8affine_epi64_epi8::<0>(idx, revmat);
        let r = _mm512_shuffle_epi8(br, byte_swap);
        _mm512_storeu_si512(out[c * 8..].as_mut_ptr() as *mut __m512i, r);
        idx = _mm512_add_epi64(idx, step);
    }
}

/// [`reverse_indices_avx512`] with VEX-encoded 256-bit GFNI, four
/// counter values per YMM.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,gfni")]
unsafe fn reverse_indices_avx2_gfni(n: u64, out: &mut [u64; 64]) {
    use std::arch::x86_64::*;
    let revmat = _mm256_set1_epi64x(GFNI_BIT_REVERSE);
    let byte_swap = _mm256_broadcastsi128_si256(_mm_set_epi8(
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
    ));
    let step = _mm256_set1_epi64x(4);
    let mut idx = _mm256_add_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(1, 2, 3, 4));
    for c in 0..16 {
        let br = _mm256_gf2p8affine_epi64_epi8::<0>(idx, revmat);
        let r = _mm256_shuffle_epi8(br, byte_swap);
        _mm256_storeu_si256(out[c * 4..].as_mut_ptr() as *mut __m256i, r);
        idx = _mm256_add_epi64(idx, step);
    }
}

/// Compares the 64 shared reversed indices against each lane's widened
/// threshold; each 8-value `vpcmpuq` k-mask is directly 8 output bits of
/// that lane's word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn counter_compare_words_avx512(revbuf: &[u64; 64], wide: &[u64], words: &mut [u64]) {
    use std::arch::x86_64::*;
    for (l, word) in words.iter_mut().enumerate() {
        let tv = _mm512_set1_epi64(wide[l] as i64);
        let mut w = 0u64;
        for c in 0..8 {
            let v = _mm512_loadu_si512(revbuf[c * 8..].as_ptr() as *const __m512i);
            w |= (_mm512_cmplt_epu64_mask(v, tv) as u64) << (c * 8);
        }
        *word = w;
    }
}

/// AVX2 variant of [`counter_compare_words_avx512`]: sign-bias
/// `vpcmpgtq` + `vmovmskpd`, 4 output bits per compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn counter_compare_words_avx2(revbuf: &[u64; 64], wide: &[u64], words: &mut [u64]) {
    use std::arch::x86_64::*;
    let bias = _mm256_set1_epi64x(i64::MIN);
    for (l, word) in words.iter_mut().enumerate() {
        let tv = _mm256_xor_si256(_mm256_set1_epi64x(wide[l] as i64), bias);
        let mut w = 0u64;
        for c in 0..16 {
            let v = _mm256_loadu_si256(revbuf[c * 4..].as_ptr() as *const __m256i);
            let lt = _mm256_cmpgt_epi64(tv, _mm256_xor_si256(v, bias));
            w |= (_mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u64) << (c * 4);
        }
        *word = w;
    }
}

/// Assembles the 64 per-cycle decision-table indices of one word × lane
/// slot: `idxs[t]` bit `j` = bit `t` of `src[j]` — a 64 × `src.len()`
/// bit transpose with `src.len() ≤ 16`. Returns `false` (touching
/// nothing) when no vector path applies; callers then run
/// [`assemble_indices16_scalar`] (or the equivalent nibble-spread
/// tables).
///
/// The AVX-512BW path broadcasts each source word's low/high 32 bits as
/// a `vpmovm2w` lane mask, ANDs with `1 << j`, and ORs into two ZMM
/// accumulators holding all 64 `u16` indices.
pub fn assemble_indices16(src: &[u64], idxs: &mut [u16; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() <= 16
            && active_tier() == SimdTier::Avx512
            && is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: avx512bw implies avx512f; both just detected (the
            // tier is clamped to hardware).
            unsafe { assemble_indices16_avx512bw(src, idxs) };
            return true;
        }
    }
    let _ = (src, idxs);
    false
}

/// The portable reference for [`assemble_indices16`].
pub fn assemble_indices16_scalar(src: &[u64], idxs: &mut [u16; 64]) {
    debug_assert!(src.len() <= 16);
    for (t, slot) in idxs.iter_mut().enumerate() {
        let mut idx = 0u16;
        for (j, &w) in src.iter().enumerate() {
            idx |= (((w >> t) & 1) as u16) << j;
        }
        *slot = idx;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn assemble_indices16_avx512bw(src: &[u64], idxs: &mut [u16; 64]) {
    use std::arch::x86_64::*;
    let mut lo = _mm512_setzero_si512();
    let mut hi = _mm512_setzero_si512();
    for (j, &w) in src.iter().enumerate() {
        let bit = _mm512_set1_epi16((1u16 << j) as i16);
        lo = _mm512_or_si512(
            lo,
            _mm512_maskz_mov_epi16((w & 0xFFFF_FFFF) as __mmask32, bit),
        );
        hi = _mm512_or_si512(hi, _mm512_maskz_mov_epi16((w >> 32) as __mmask32, bit));
    }
    _mm512_storeu_si512(idxs.as_mut_ptr() as *mut __m512i, lo);
    _mm512_storeu_si512(idxs.as_mut_ptr().add(32) as *mut __m512i, hi);
}

/// [`BitMatrixKernels::decide_lanes`], one word index at a time for all
/// lanes.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512bw`, `avx512dq`,
/// `avx512vbmi`, `avx512vpopcntdq` and `gfni`, and the block and table
/// must be as long as `decide_lanes` asserts: then every gather reads
/// inside them. Coefficient rows above `order` are never gathered, so a
/// z-word is below `2^(order + 1)`; counts are below 8 (three planes at
/// most), and a class-2 bit exists only for a count `≤ order`, so each
/// gathered table index is below `(order + 1) << (order + 1)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi,avx512vpopcntdq,gfni")]
unsafe fn decide_lanes_avx512(
    classes: &ClassBits,
    one_probability: &[f64],
    block: &DecisionBlock<'_>,
    rngs: &mut [Xoshiro256PlusPlus],
) -> ([u64; 8], [u64; 8]) {
    use std::arch::x86_64::*;
    let lanes = rngs.len();
    let order = classes.order;
    let wl = block.len.div_ceil(64) * lanes;
    let lane_mask = (u16::MAX >> (16 - lanes)) as __mmask8;
    let coeff_rows = (1u16 << (order + 1)) as __mmask8 - 1;
    let plane_rows = (1u16 << crate::resc::planes_for(order)) as __mmask8 - 1;
    let row_starts = _mm512_mullo_epi64(
        _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
        _mm512_set1_epi64(wl as i64),
    );
    let table = |t: &[u8; 128], half: usize| _mm512_loadu_si512(t[half * 64..].as_ptr().cast());
    let (ones_lo, ones_hi) = (table(&classes.ones, 0), table(&classes.ones, 1));
    let (draws_lo, draws_hi) = (table(&classes.draws, 0), table(&classes.draws, 1));
    // `1 << count` for the count bytes 0..8 (`vpshufb` indexes within
    // each 128-bit lane).
    let count_bit = _mm512_broadcast_i32x4(_mm_set_epi64x(0, 0x8040_2010_0804_0201u64 as i64));
    let count_shift = _mm_cvtsi64_si128((order + 1) as i64);
    // Each lane's 64 table indices of the current word at `64 * l`; the
    // tail keeps the dword gather of lane 7's last index inside.
    let mut indices = [0u16; 8 * 64 + 2];
    let lane_slots = _mm512_set_epi64(448, 384, 320, 256, 192, 128, 64, 0);
    let mut states = [[0u64; 8]; 4];
    for (l, rng) in rngs.iter().enumerate() {
        for (i, word) in rng.state_words().into_iter().enumerate() {
            states[i][l] = word;
        }
    }
    let mut s = states.map(|w| _mm512_loadu_si512(w.as_ptr().cast()));
    // One lane draws with a scalar walk over its class-2 cycles, which
    // beats a vector round per draw; its generator lives in a local.
    let mut solo = (lanes == 1).then(|| rngs[0].clone());
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi64(1);
    let unit = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
    let (mut ones_acc, mut flips_acc) = (zero, zero);
    let mut remaining = block.len;
    let mut at = 0;
    while remaining > 0 {
        let valid = u64::MAX >> (64 - remaining.min(64));
        // Lane `l`'s masks of class-1 and class-2 cycles; for a lane
        // with class-2 cycles, also its table indices.
        let mut classify = |l: usize| {
            let gather = |rows: &[u64], mask| {
                _mm512_mask_i64gather_epi64::<8>(
                    zero,
                    mask,
                    row_starts,
                    rows[at + l..].as_ptr().cast(),
                )
            };
            let zw = bit_transpose_8x64(gather(block.coeff, coeff_rows));
            let count = bit_transpose_8x64(gather(block.planes, plane_rows));
            let pick = _mm512_shuffle_epi8(count_bit, count);
            let class =
                |lo, hi| _mm512_test_epi8_mask(_mm512_permutex2var_epi8(lo, zw, hi), pick) & valid;
            let draws = class(draws_lo, draws_hi);
            if draws != 0 {
                let index = |zw_half, count_half| {
                    _mm512_or_si512(
                        _mm512_cvtepu8_epi16(zw_half),
                        _mm512_sll_epi16(_mm512_cvtepu8_epi16(count_half), count_shift),
                    )
                };
                let lo = index(_mm512_castsi512_si256(zw), _mm512_castsi512_si256(count));
                let hi = index(
                    _mm512_extracti64x4_epi64::<1>(zw),
                    _mm512_extracti64x4_epi64::<1>(count),
                );
                let slot = indices[64 * l..].as_mut_ptr();
                _mm512_storeu_si512(slot.cast(), lo);
                _mm512_storeu_si512(slot.add(32).cast(), hi);
            }
            (class(ones_lo, ones_hi), draws)
        };
        let decided = if let Some(rng) = &mut solo {
            let (mut decided, mut pending) = classify(0);
            while pending != 0 {
                let t = pending.trailing_zeros() as usize;
                let q = one_probability[usize::from(indices[t])];
                decided |= u64::from(rng.next_f64() < q) << t;
                pending &= pending - 1;
            }
            _mm512_maskz_set1_epi64(1, decided as i64)
        } else {
            let (mut decided, mut pending) = (zero, zero);
            for l in 0..lanes {
                let (ones, draws) = classify(l);
                decided = _mm512_mask_set1_epi64(decided, 1 << l, ones as i64);
                pending = _mm512_mask_set1_epi64(pending, 1 << l, draws as i64);
            }
            // Lock-step draws: each round every lane with a pending
            // cycle decides its lowest one with its generator's next
            // draw.
            loop {
                let act = _mm512_test_epi64_mask(pending, pending);
                if act == 0 {
                    break;
                }
                let low = _mm512_and_si512(pending, _mm512_sub_epi64(zero, pending));
                let cycle = _mm512_popcnt_epi64(_mm512_sub_epi64(low, one));
                let index = _mm512_mask_i64gather_epi32::<2>(
                    _mm256_setzero_si256(),
                    act,
                    _mm512_add_epi64(lane_slots, cycle),
                    indices.as_ptr().cast(),
                );
                let index = _mm256_and_si256(index, _mm256_set1_epi32(0xFFFF));
                let q = _mm512_mask_i32gather_pd::<8>(
                    _mm512_setzero_pd(),
                    act,
                    index,
                    one_probability.as_ptr().cast(),
                );
                let u = _mm512_mul_pd(
                    _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(xoshiro_step_avx512(act, &mut s))),
                    unit,
                );
                // `u < q` is false for a NaN `q`, as in the scalar compare.
                let fire = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(act, u, q);
                decided = _mm512_mask_or_epi64(decided, fire, decided, low);
                pending = _mm512_xor_si512(pending, low);
            }
            decided
        };
        let sel = _mm512_maskz_loadu_epi64(lane_mask, block.sel[at..].as_ptr().cast());
        ones_acc = _mm512_add_epi64(ones_acc, _mm512_popcnt_epi64(decided));
        flips_acc = _mm512_add_epi64(
            flips_acc,
            _mm512_popcnt_epi64(_mm512_xor_si512(decided, sel)),
        );
        remaining -= remaining.min(64);
        at += lanes;
    }
    if let Some(rng) = solo {
        rngs[0] = rng;
    } else {
        for (i, v) in s.into_iter().enumerate() {
            _mm512_storeu_si512(states[i].as_mut_ptr().cast(), v);
        }
        for (l, rng) in rngs.iter_mut().enumerate() {
            *rng = Xoshiro256PlusPlus::from_state_words(std::array::from_fn(|i| states[i][l]));
        }
    }
    let (mut ones, mut flips) = ([0u64; 8], [0u64; 8]);
    _mm512_storeu_si512(ones.as_mut_ptr().cast(), ones_acc);
    _mm512_storeu_si512(flips.as_mut_ptr().cast(), flips_acc);
    (ones, flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osc_math::rng::SplitMix64;

    fn reference(words: &[u64], lanes: usize) -> Vec<u64> {
        let mut acc = vec![0u64; lanes];
        for block in words.chunks_exact(lanes) {
            for (a, &w) in acc.iter_mut().zip(block) {
                *a += u64::from(w.count_ones());
            }
        }
        acc
    }

    #[test]
    fn tiers_are_ordered_by_width() {
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert_eq!(SimdTier::Avx512.name(), "avx512");
    }

    #[test]
    fn every_available_tier_matches_scalar_word_for_word() {
        // Random words across awkward block counts and every lane width
        // the kernels use: all tiers must agree exactly with the scalar
        // reference (the forced-scalar CI job pins the reverse direction).
        let mut rng = SplitMix64::new(0xD15_BA7C);
        for lanes in [1usize, 2, 3, 4, 5, 8] {
            for nblocks in [0usize, 1, 2, 7, 64, 129] {
                let words: Vec<u64> = (0..lanes * nblocks).map(|_| rng.next_u64()).collect();
                let want = reference(&words, lanes);
                for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
                    let mut acc = vec![0u64; lanes];
                    popcount_lanes_accumulate_with(tier, &words, &mut acc);
                    assert_eq!(
                        acc, want,
                        "tier {:?}, lanes {lanes}, blocks {nblocks}",
                        tier
                    );
                }
            }
        }
    }

    #[test]
    fn accumulation_adds_on_top_of_existing_counts() {
        let words = [u64::MAX, 0, 0xF0F0_F0F0_F0F0_F0F0, 1];
        let mut acc = [100u64, 200];
        popcount_lanes_accumulate(&words, &mut acc);
        assert_eq!(acc, [100 + 64 + 32, 200 + 1]);
    }

    #[test]
    fn detected_tier_is_stable_and_active_tier_clamped() {
        assert_eq!(detected_tier(), detected_tier());
        assert!(active_tier() <= detected_tier());
    }

    #[test]
    fn override_forces_and_releases() {
        // The override clamps to the hardware and always round-trips back
        // to the environment-resolved tier on release. Forcing Scalar is
        // exact on every machine. (No assertion on the global
        // `active_tier` itself: other tests in this binary toggle the
        // shared override concurrently, and every tier is bit-identical
        // anyway — value assertions below are the race-free check.)
        let forced = set_tier_override(Some(SimdTier::Scalar));
        assert_eq!(forced, SimdTier::Scalar);
        let words = [0xAAAAu64, 0x5555];
        let mut acc = [0u64; 2];
        popcount_lanes_accumulate(&words, &mut acc);
        assert_eq!(acc, [8, 8]);
        let released = set_tier_override(None);
        assert!(released <= detected_tier());
    }

    #[test]
    #[should_panic(expected = "whole lane-interleaved blocks")]
    fn ragged_word_count_rejected() {
        let mut acc = [0u64; 4];
        popcount_lanes_accumulate(&[0u64; 6], &mut acc);
    }

    #[test]
    fn parse_tier_accepts_every_spelling() {
        assert_eq!(parse_tier("scalar"), Ok(SimdTier::Scalar));
        assert_eq!(parse_tier("avx2"), Ok(SimdTier::Avx2));
        assert_eq!(parse_tier("avx512"), Ok(SimdTier::Avx512));
        // Case and whitespace are forgiven; the tier set is not.
        assert_eq!(parse_tier(" AVX512 "), Ok(SimdTier::Avx512));
        assert_eq!(parse_tier("Scalar"), Ok(SimdTier::Scalar));
    }

    #[test]
    fn parse_tier_rejects_garbage_with_the_valid_list() {
        for garbage in ["avx", "sse2", "avx1024", "0", "scalar,avx2", "née"] {
            let err = parse_tier(garbage).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(&format!("{garbage:?}")), "{msg}");
            assert!(
                msg.contains("scalar, avx2, avx512"),
                "error must list the valid tiers: {msg}"
            );
        }
    }

    /// Scalar reference for the counter engine: shared counter walk,
    /// per-lane thresholds, `counter_bit` semantics.
    fn counter_reference(wide: &[u64], always: &[bool], len: usize) -> Vec<(Vec<u64>, usize)> {
        let mut out = Vec::new();
        let mut n = 0u64;
        let mut remaining = len;
        while remaining > 0 {
            let nbits = remaining.min(64);
            let mut words = vec![0u64; wide.len()];
            for b in 0..nbits {
                n += 1;
                let rev = n.reverse_bits();
                for (l, w) in words.iter_mut().enumerate() {
                    let bit = (rev < wide[l]) | always[l];
                    *w |= u64::from(bit) << b;
                }
            }
            out.push((words, nbits));
            remaining -= nbits;
        }
        out
    }

    #[test]
    fn counter_engine_matches_scalar_reference_on_every_tier() {
        let mut seeder = SplitMix64::new(0xC0_FFEE);
        for tier in [SimdTier::Avx2, SimdTier::Avx512] {
            for lanes in [4usize, 8] {
                for len in [1usize, 63, 64, 65, 257, 1000] {
                    let mut wide = [0u64; 8];
                    for w in wide.iter_mut().take(lanes) {
                        *w = seeder.next_u64();
                    }
                    wide[0] = 0; // p = 0: never fires
                    let mut always = [false; 8];
                    always[lanes - 1] = true; // saturated threshold
                    let want = counter_reference(&wide[..lanes], &always[..lanes], len);
                    let granted = set_tier_override(Some(tier));
                    let mut got = Vec::new();
                    let ran = if lanes == 4 {
                        let w4: [u64; 4] = wide[..4].try_into().unwrap();
                        let a4: [bool; 4] = always[..4].try_into().unwrap();
                        counter_drain_chains::<4, _>(&w4, &a4, len, |block, nbits| {
                            got.push((block.to_vec(), nbits))
                        })
                    } else {
                        let w8: [u64; 8] = wide;
                        let a8: [bool; 8] = always;
                        counter_drain_chains::<8, _>(&w8, &a8, len, |block, nbits| {
                            got.push((block.to_vec(), nbits))
                        })
                    };
                    set_tier_override(None);
                    if !ran {
                        assert!(
                            granted < SimdTier::Avx2 || !counter_vector_applicable(lanes),
                            "engine declined although applicable"
                        );
                        continue;
                    }
                    assert_eq!(got, want, "tier {tier:?}, lanes {lanes}, len {len}");
                }
            }
        }
    }

    /// Probabilities for the sliced engines: both draw-free endpoints,
    /// one- and two-draw thresholds, the smallest thresholds and long
    /// interior ones.
    const SLICED_PS: [f64; 8] = [
        0.0,
        1.0,
        0.5,
        0.75,
        f64::EPSILON / 2.0,
        f64::EPSILON * 0.75,
        0.37,
        1.0 - f64::EPSILON / 2.0,
    ];

    /// Runs one sliced engine against the scalar [`SlicedThreshold::word`]
    /// walk of the same generator: every tier, 4 and 8 lanes, every
    /// probability in every lane slot and in all lanes at once, ragged
    /// and multi-word lengths.
    /// `engine(states, thresholds, len, emit)` is the engine at `L = 8`
    /// or `4` (the first `lanes` slots); `next(state)` is one scalar draw.
    /// An engine that declines because another test raced the tier
    /// override down is checked for that reason.
    fn assert_sliced_engine_matches_scalar<S: Copy + PartialEq + std::fmt::Debug>(
        seed: impl Fn(&mut SplitMix64) -> S,
        next: impl Fn(&mut S) -> u64,
        engine: impl Fn(
            usize,
            &mut [S; 8],
            &[SlicedThreshold; 8],
            usize,
            &mut Vec<(Vec<u64>, usize)>,
        ) -> bool,
    ) {
        let mut seeder = SplitMix64::new(0x0105_1120);
        for tier in [SimdTier::Avx2, SimdTier::Avx512] {
            for lanes in [4usize, 8] {
                // Every probability in every lane slot (layouts 0..8),
                // then each one in all lanes at once (8..16).
                for layout in 0..2 * SLICED_PS.len() {
                    for len in [1usize, 63, 64, 65, 2048] {
                        let mut states: [S; 8] = std::array::from_fn(|_| seed(&mut seeder));
                        let thresholds: [SlicedThreshold; 8] = std::array::from_fn(|l| {
                            let n = SLICED_PS.len();
                            let p = SLICED_PS[if layout < n {
                                (l + layout) % n
                            } else {
                                layout - n
                            }];
                            SlicedThreshold::new(crate::sng::unit_threshold(p, 53))
                        });
                        let mut want_states = states;
                        let mut want = Vec::new();
                        let mut remaining = len;
                        while remaining > 0 {
                            let nbits = remaining.min(64);
                            let words: Vec<u64> = (0..lanes)
                                .map(|l| {
                                    let st = &mut want_states[l];
                                    thresholds[l].word(nbits, || next(st))
                                })
                                .collect();
                            want.push((words, nbits));
                            remaining -= nbits;
                        }
                        let granted = set_tier_override(Some(tier));
                        let mut got = Vec::new();
                        let ran = engine(lanes, &mut states, &thresholds, len, &mut got);
                        set_tier_override(None);
                        let tag =
                            format!("tier {tier:?}, lanes {lanes}, layout {layout}, len {len}");
                        if !ran {
                            assert!(
                                granted < SimdTier::Avx2 || !sliced_vector_applicable(lanes),
                                "engine declined although applicable: {tag}"
                            );
                            continue;
                        }
                        assert_eq!(got, want, "{tag}");
                        assert_eq!(
                            &states[..lanes],
                            &want_states[..lanes],
                            "final states, {tag}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn xoshiro_engine_matches_scalar_reference_on_every_tier() {
        use osc_math::rng::Xoshiro256PlusPlus;
        assert_sliced_engine_matches_scalar(
            |seeder| std::array::from_fn::<u64, 4, _>(|_| seeder.next_u64() | 1),
            |s| {
                let mut rng = Xoshiro256PlusPlus::from_state_words(*s);
                let r = rng.next_u64();
                *s = rng.state_words();
                r
            },
            |lanes, states, thresholds, len, got| {
                let mut push = |block: &[u64], nbits| got.push((block.to_vec(), nbits));
                if lanes == 4 {
                    let mut s4: [[u64; 4]; 4] = states[..4].try_into().unwrap();
                    let t4: [SlicedThreshold; 4] = thresholds[..4].try_into().unwrap();
                    let ran = xoshiro_drain_chains::<4, _>(&mut s4, &t4, len, |b, n| push(b, n));
                    states[..4].copy_from_slice(&s4);
                    ran
                } else {
                    xoshiro_drain_chains::<8, _>(states, thresholds, len, |b, n| push(b, n))
                }
            },
        );
    }

    #[test]
    fn splitmix_engine_matches_scalar_reference_on_every_tier() {
        assert_sliced_engine_matches_scalar(
            SplitMix64::next_u64,
            |s| {
                let mut rng = SplitMix64::new(*s);
                let r = rng.next_u64();
                *s = rng.state();
                r
            },
            |lanes, states, thresholds, len, got| {
                let mut push = |block: &[u64], nbits| got.push((block.to_vec(), nbits));
                if lanes == 4 {
                    let mut s4: [u64; 4] = states[..4].try_into().unwrap();
                    let t4: [SlicedThreshold; 4] = thresholds[..4].try_into().unwrap();
                    let ran = splitmix_drain_chains::<4, _>(&mut s4, &t4, len, |b, n| push(b, n));
                    states[..4].copy_from_slice(&s4);
                    ran
                } else {
                    splitmix_drain_chains::<8, _>(states, thresholds, len, |b, n| push(b, n))
                }
            },
        );
    }

    /// The literal pre-floor-free gap formula: `floor`, then a finite /
    /// `< u64::MAX` guard.
    fn floor_gap(u: f64, inv_log_q: f64) -> u64 {
        let g = ((1.0 - u).ln() * inv_log_q).floor();
        if g.is_finite() && g < u64::MAX as f64 {
            g as u64
        } else {
            u64::MAX
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn certified_vector_gaps_equal_the_floor_formula() {
        use osc_math::rng::Xoshiro256PlusPlus;
        use std::arch::x86_64::*;
        if !is_x86_feature_detected!("avx512f") || !is_x86_feature_detected!("avx512dq") {
            eprintln!("skipping certified_vector_gaps_equal_the_floor_formula: no avx512dq");
            return;
        }
        const DRAWS: usize = 1 << 20;
        let edges = [
            0.0,
            1.0 / (1u64 << 53) as f64,
            1.0 - 1.0 / (1u64 << 53) as f64,
        ];
        for (r, &p) in [1e-6f64, 1e-3, 0.01, 0.2, 0.5, 0.999].iter().enumerate() {
            let q = 1.0 / (1.0 - p).ln();
            let mut rng = Xoshiro256PlusPlus::new(0x6A9 + r as u64);
            let mut fallbacks = 0usize;
            for block in 0..DRAWS / 8 {
                let mut us: [f64; 8] = std::array::from_fn(|_| rng.next_f64());
                if block == 0 {
                    us[..3].copy_from_slice(&edges);
                }
                let mut gaps = [0u64; 8];
                // SAFETY: avx512f and avx512dq were detected above.
                let ok = unsafe {
                    let (g, ok) =
                        certified_gaps_avx512(_mm512_loadu_pd(us.as_ptr()), _mm512_set1_pd(q));
                    _mm512_storeu_si512(gaps.as_mut_ptr() as *mut __m512i, g);
                    ok
                };
                for (l, &u) in us.iter().enumerate() {
                    if ok >> l & 1 == 1 {
                        assert_eq!(gaps[l], floor_gap(u, q), "p={p} u={u:e}");
                    } else {
                        fallbacks += 1;
                    }
                }
            }
            if p == 0.01 || p == 0.001 {
                assert!(
                    (fallbacks as f64) < 1e-4 * DRAWS as f64,
                    "p={p}: {fallbacks} of {DRAWS} gaps fell back to the scalar formula"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polynomial_ln_tracks_std_ln() {
        use osc_math::rng::Xoshiro256PlusPlus;
        use std::arch::x86_64::*;
        if !is_x86_feature_detected!("avx512f") {
            eprintln!("skipping polynomial_ln_tracks_std_ln: no avx512f");
            return;
        }
        // The certificate tolerates a 1e-9 relative error; the kernel
        // must stay many orders of magnitude inside it, including at the
        // reduction boundary √2 and at 1 − u for the extreme draws.
        let mut xs = vec![
            1.0,
            1.0 - 1.0 / (1u64 << 53) as f64,
            1.0 / (1u64 << 53) as f64,
            std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::SQRT_2 / 4.0,
            0.5,
            0.75,
        ];
        let mut rng = Xoshiro256PlusPlus::new(0x1A);
        xs.extend((0..1 << 16).map(|_| 1.0 - rng.next_f64()));
        xs.resize(xs.len().next_multiple_of(8), 0.5);
        let mut worst = 0.0f64;
        for chunk in xs.chunks_exact(8) {
            let mut got = [0.0f64; 8];
            // SAFETY: avx512f was detected above.
            unsafe {
                _mm512_storeu_pd(got.as_mut_ptr(), ln_avx512(_mm512_loadu_pd(chunk.as_ptr())));
            }
            for (&x, &g) in chunk.iter().zip(&got) {
                let want = x.ln();
                if want == 0.0 {
                    assert_eq!(g, 0.0, "ln(1)");
                } else {
                    worst = worst.max(((g - want) / want).abs());
                }
            }
        }
        assert!(worst < 1e-14, "worst relative error {worst:e}");
    }

    #[test]
    fn geometric_flip_lanes_match_the_scalar_event_loop() {
        use osc_math::rng::Xoshiro256PlusPlus;
        let ps = [0.01f64, 0.3, 0.999, 1e-4];
        let mut seeder = SplitMix64::new(0x0F11);
        for stride in [1usize, 2, 4, 8] {
            for len in [1usize, 63, 64, 65, 2048, 4097] {
                let seeds: Vec<u64> = (0..stride).map(|_| seeder.next_u64()).collect();
                let qs: Vec<f64> = (0..stride)
                    .map(|l| 1.0 / (1.0 - ps[l % ps.len()]).ln())
                    .collect();
                // Lane 1 (when present) sits out: its words stay put.
                let lanes = (u8::MAX >> (8 - stride)) & !2;
                let nwords = len.div_ceil(64);
                let init: Vec<u64> = (0..nwords * stride).map(|_| seeder.next_u64()).collect();
                let mut want = init.clone();
                for l in (0..stride).filter(|l| lanes >> l & 1 == 1) {
                    let mut rng = Xoshiro256PlusPlus::new(seeds[l]);
                    let mut pos = 0usize;
                    while pos < len {
                        let gap = floor_gap(rng.next_f64(), qs[l]) as usize;
                        if gap >= len - pos {
                            break;
                        }
                        let e = pos + gap;
                        want[(e / 64) * stride + l] ^= 1 << (e % 64);
                        pos = e + 1;
                    }
                }
                let mut got = init.clone();
                let sink = EventSink::Flip(&mut got);
                let ran = geometric_event_lanes(&seeds, &qs, lanes, len, floor_gap, sink);
                let tag = format!("stride {stride} len {len}");
                if ran.is_some() {
                    assert_eq!(got, want, "{tag}");
                } else {
                    assert_eq!(got, init, "a declining engine touched the words: {tag}");
                }
            }
        }
    }

    /// The event positions of a seeded geometric process below `len`,
    /// drawn one event at a time (the scalar `FaultEvents` loop).
    fn scalar_events(seed: u64, inv_log_q: f64, len: usize) -> Vec<usize> {
        let mut rng = osc_math::rng::Xoshiro256PlusPlus::new(seed);
        let (mut pos, mut out) = (0usize, Vec::new());
        while pos < len {
            let gap = floor_gap(rng.next_f64(), inv_log_q);
            if gap >= (len - pos) as u64 {
                break;
            }
            out.push(pos + gap as usize);
            pos += gap as usize + 1;
        }
        out
    }

    #[test]
    fn zero_marks_are_the_scalar_event_positions() {
        // 0.3 and 0.05 overflow the per-lane cap at the longer lengths;
        // 1e-4 mostly draws no event at all.
        let ps = [0.001f64, 0.3, 0.05, 1e-4, 0.01];
        let mut seeder = SplitMix64::new(0x5817);
        for stride in [1usize, 2, 4, 8] {
            for len in [1usize, 63, 64, 65, 2048, 4097] {
                let seeds: Vec<u64> = (0..stride).map(|_| seeder.next_u64()).collect();
                let qs: Vec<f64> = (0..stride)
                    .map(|l| 1.0 / (1.0 - ps[(l + len) % ps.len()]).ln())
                    .collect();
                let lanes = (u8::MAX >> (8 - stride)) & !2;
                let mut marks = vec![0u64; len.div_ceil(64) * stride];
                let sink = EventSink::Zeros(&mut marks);
                let Some(counts) = geometric_event_lanes(&seeds, &qs, lanes, len, floor_gap, sink)
                else {
                    continue;
                };
                for l in 0..stride {
                    let tag = format!("stride {stride} len {len} lane {l}");
                    let marked: Vec<usize> = (0..len)
                        .filter(|&b| marks[(b / 64) * stride + l] >> (b % 64) & 1 == 1)
                        .collect();
                    if lanes >> l & 1 == 0 {
                        assert!(marked.is_empty() && counts[l] == 0, "{tag}");
                        continue;
                    }
                    // The scalar shift loop: event `e` after `k` zeros
                    // lands at `e + k`, and the process ends at the
                    // first zero past the stream.
                    let want: Vec<usize> = scalar_events(seeds[l], qs[l], len)
                        .into_iter()
                        .enumerate()
                        .map(|(k, e)| e + k)
                        .take_while(|&z| z < len)
                        .collect();
                    if want.len() > MAX_SPLICE_ZEROS {
                        assert_eq!(counts[l], MAX_SPLICE_ZEROS + 1, "{tag}: overflow");
                    } else {
                        assert_eq!(marked, want, "{tag}");
                        assert_eq!(counts[l], want.len(), "{tag}");
                        // Unmapped, the marks are the scalar positions.
                        let events: Vec<usize> =
                            marked.iter().enumerate().map(|(k, &z)| z - k).collect();
                        let scalar = scalar_events(seeds[l], qs[l], len);
                        assert_eq!(events, scalar[..events.len()], "{tag}");
                    }
                }
            }
        }
    }

    /// Zero insertion one bit at a time: output bit `p` is clear when
    /// `p` is a zero, else source bit `p − #{zeros < p}`.
    fn bitwise_splice(
        src: &[u64],
        lane: usize,
        stride: usize,
        len: usize,
        zeros: &[usize],
    ) -> Vec<u64> {
        let mut out = vec![0u64; len.div_ceil(64)];
        for p in 0..len {
            if !zeros.contains(&p) {
                let s = p - zeros.iter().filter(|&&z| z < p).count();
                out[p / 64] |= (src[(s / 64) * stride + lane] >> (s % 64) & 1) << (p % 64);
            }
        }
        out
    }

    #[test]
    fn vector_splice_equals_bitwise_zero_insertion() {
        let mut rng = SplitMix64::new(0x5_9111CE);
        for stride in [1usize, 4, 8] {
            for len in [1usize, 64, 65, 700, 4097] {
                let nwords = len.div_ceil(64);
                let tail = if len % 64 == 0 {
                    u64::MAX
                } else {
                    (1 << (len % 64)) - 1
                };
                let init: Vec<u64> = (0..nwords * stride)
                    .map(|i| {
                        rng.next_u64()
                            & if i / stride + 1 == nwords {
                                tail
                            } else {
                                u64::MAX
                            }
                    })
                    .collect();
                // Per lane: no zeros, a few, the full cap, zeros packed
                // into few words, and zeros at both stream ends.
                let mut marks = vec![0u64; nwords * stride];
                let mut counts = [0usize; 8];
                let mut lists = vec![Vec::new(); stride];
                for l in 0..stride {
                    let want = [0, 3, MAX_SPLICE_ZEROS, 40, 2, 1, 17, 63][(l + len) % 8].min(len);
                    let mut z: Vec<usize> = match l % 3 {
                        0 => (0..want)
                            .map(|_| (rng.next_u64() % len as u64) as usize)
                            .collect(),
                        1 => (0..want).map(|i| (len - 1 - i).min(len / 2 + i)).collect(),
                        _ => (0..want)
                            .map(|i| i * (len / want.max(1)).max(1) % len)
                            .collect(),
                    };
                    z.sort_unstable();
                    z.dedup();
                    for &p in &z {
                        marks[(p / 64) * stride + l] |= 1 << (p % 64);
                    }
                    counts[l] = z.len();
                    lists[l] = z;
                }
                let lanes = (u8::MAX >> (8 - stride)) & !4;
                let mut want = init.clone();
                for (l, z) in lists
                    .iter()
                    .enumerate()
                    .filter(|&(l, _)| lanes >> l & 1 == 1)
                {
                    for (w, v) in bitwise_splice(&init, l, stride, len, z)
                        .into_iter()
                        .enumerate()
                    {
                        want[w * stride + l] = v;
                    }
                }
                let mut got = init.clone();
                let tag = format!("stride {stride} len {len}");
                if splice_zero_lanes(&mut got, &marks, stride, len, &counts, lanes) {
                    assert_eq!(got, want, "{tag}");
                } else {
                    assert_eq!(got, init, "a declining splice touched the words: {tag}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_transpose_matches_scalar_bit_loop() {
        use std::arch::x86_64::*;
        if !bitmatrix_detected() {
            eprintln!("skipping gfni_transpose_matches_scalar_bit_loop: gfni or avx512vbmi absent");
            return;
        }
        let mut rng = SplitMix64::new(0x7_2A45_905E);
        for _ in 0..64 {
            let words: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            let mut want = [0u8; 64];
            for (t, byte) in want.iter_mut().enumerate() {
                for (j, &w) in words.iter().enumerate() {
                    *byte |= (((w >> t) & 1) as u8) << j;
                }
            }
            let (mut once, mut thrice) = ([0u8; 64], [0u64; 8]);
            // SAFETY: bitmatrix_detected() confirmed every feature the
            // transpose needs.
            unsafe {
                let v = _mm512_loadu_si512(words.as_ptr() as *const __m512i);
                let t1 = bit_transpose_8x64(v);
                _mm512_storeu_si512(once.as_mut_ptr() as *mut __m512i, t1);
                let t3 = bit_transpose_8x64(bit_transpose_8x64(t1));
                _mm512_storeu_si512(thrice.as_mut_ptr() as *mut __m512i, t3);
            }
            assert_eq!(once, want);
            assert_eq!(thrice, words, "three transposes must be the identity");
        }
    }

    #[test]
    fn assemble_indices16_matches_scalar_when_it_runs() {
        let mut rng = SplitMix64::new(0x1D_EA5);
        for nsrc in [1usize, 7, 10, 16] {
            let src: Vec<u64> = (0..nsrc).map(|_| rng.next_u64()).collect();
            let mut want = [0u16; 64];
            assemble_indices16_scalar(&src, &mut want);
            // Round-trip sanity on the reference itself.
            for (t, &idx) in want.iter().enumerate() {
                for (j, &w) in src.iter().enumerate() {
                    assert_eq!((idx >> j) & 1, ((w >> t) & 1) as u16);
                }
            }
            let mut got = [0xFFFFu16; 64];
            if assemble_indices16(&src, &mut got) {
                assert_eq!(got, want, "nsrc {nsrc}");
            }
        }
    }
}

//! Process-level sharding of batch evaluation.
//!
//! [`super::BatchEvaluator`] scales one process across threads; this
//! module scales a batch across **worker subprocesses** — the
//! software mirror of replicating the paper's ReSC lane bank across
//! chips. The pieces:
//!
//! - [`ShardPlan`] — splits a batch of `n` items into contiguous,
//!   balanced index ranges, one per shard;
//! - the **wire protocol** ([`ShardRequest`] / [`ShardResponseV2`], see
//!   below) — one framed binary codec for "evaluate these items of this
//!   system" and the per-item [`OpticalRun`]s coming back;
//! - [`serve`] — the worker side: a read-request/write-response loop any
//!   binary can expose over stdin/stdout (the `osc-bench` crate ships it
//!   as the `shard_worker` binary), holding a small LRU cache of built
//!   circuits across requests;
//! - [`pool`] — the long-lived parent side: spawns N worker processes
//!   **once**, keeps them alive across requests, and schedules work
//!   onto them through one shared queue with per-worker pipelining,
//!   respawn + retry on worker death, and worker-cached circuit
//!   references instead of reshipped circuits. [`pool::PoolDispatcher`]
//!   is its concurrent serving front end, [`pool::WorkerPool`] its
//!   batch front end (submit a batch, collect it in request order);
//! - [`Executor`] — the one choice of serving tier (in process, spawn,
//!   pool, service) behind one entry point per wire job kind
//!   ([`Executor::image`], [`Executor::batches`]). The apps, the soak
//!   schedule, the design sweep and the demo binaries all evaluate
//!   through it. Its spawn tier is the one-shot baseline: every call
//!   plans its shards, spawns a fresh pool with one worker per shard
//!   (acquire → run → drop) and merges the shards' runs in index order.
//!
//! # One-shot vs pooled
//!
//! [`Executor::Spawn`] pays process spawn + circuit construction on
//! **every** call — the right trade for one big batch, and a bad one for
//! a stream of small requests (the paper's image workloads are many
//! small evaluations). A [`pool::WorkerPool`] pays both **once**. Both
//! tiers take the same [`pool::PoolConfig`]:
//!
//! ```no_run
//! use osc_core::batch::shard::{pool::PoolConfig, BatchJob, Executor, SngKind};
//! # fn demo(system: &osc_core::system::OpticalScSystem) -> Result<(), Box<dyn std::error::Error>> {
//! let config = PoolConfig::new("shard_worker", 3);
//! let job = BatchJob {
//!     system,
//!     sng: SngKind::Xoshiro,
//!     xs: &[0.5],
//!     stream_length: 256,
//!     seed: 7,
//!     faults: None,
//! };
//! // One-shot: spawn, evaluate, reap — per call.
//! let once = Executor::Spawn(&config).batches(&[job])?;
//!
//! // Pooled: spawn 3 workers once, then stream requests at them. The
//! // workers cache the built circuit, so repeat requests skip both the
//! // spawn and the rebuild. Results are bit-identical either way.
//! let mut pool = config.spawn()?;
//! for seed in 0..100u64 {
//!     let runs = pool.evaluate_many(system, SngKind::Xoshiro, &[0.5], 256, seed, None)?;
//!     assert_eq!(runs.len(), 1);
//! }
//! # Ok(()) }
//! ```
//!
//! # Determinism contract
//!
//! Sharding is **unobservable in the results**. Every work item derives
//! its generator universe from its *global* index —
//! [`super::mix_seed`]`(seed, global_index)` for flat batches,
//! `mix_seed(mix_seed(seed, row), column)` for image jobs — exactly as
//! the single-process paths ([`super::BatchEvaluator::evaluate_many`],
//! the row+lane image pipelines) do. A shard covering `[a, b)` runs
//! [`super::BatchEvaluator::evaluate_range_faulted`] with `first_index = a`
//! inside its own process, so concatenating shard outputs in plan order
//! is **byte-identical** to the unsharded evaluation for every shard
//! count, worker thread count and SIMD tier. The `f64` payloads travel
//! as IEEE-754 bit patterns (`to_bits`/`from_bits`), so no value is
//! perturbed in transit.
//!
//! # Wire protocol
//!
//! One codec, one version. Both directions use the same framing: a
//! little-endian `u64` payload length, then the payload. Integers are
//! little-endian; every `f64` is its IEEE-754 bit pattern as a `u64`. A
//! worker reads frames until EOF and answers each with exactly one
//! response frame.
//!
//! Request payload ([`encode_request_v2`] / [`decode_request_v2`]):
//!
//! ```text
//! u32  magic  "OSCR" (0x4F53_4352)
//! u32  version (3, PROTOCOL_VERSION)
//! u64  request id (opaque to the worker, echoed in the response)
//! u8   circuit kind  0 = inline, 1 = cached reference
//! u8   job kind      0 = Batch, 1 = ImageRows
//! u8   SNG kind      0 = lfsr, 1 = counter, 2 = xoshiro, 3 = chaotic
//! u8   reserved (0)
//! u64  batch seed
//! u64  stream length (bits per evaluation)
//! u8   fault present  0 = none, 1 = spec follows
//! if present: f64 flip probability, f64 shift probability,
//!             u64 flip seed, u64 shift seed,
//!             u8 stuck-at present (0/1), then u64 mask + u64 value
//! inline:  CircuitParams — one u64: order in the low 32 bits, backend
//!          tag in the high 32 bits; then 19 f64s in declaration order
//!          (spacing, λ_last, λ_ref, MZI IL dB, MZI ER dB, modulator
//!          r1/r2/a/FSR/Δλ, filter r1/r2/a/FSR/OTE, pump mW, probe mW,
//!          responsivity, noise current) — then u64 coefficient count
//!          and that many f64 Bernstein coefficients
//! cached:  u64 digest (the worker looks the system up; a miss is
//!          answered with a cache-miss response, never an evaluation)
//! Batch job:     u64 first global index, u64 count, count × f64 inputs
//! ImageRows job: u64 image width, u64 first global row, u64 pixel
//!                count, count × f64 pixels (row-major)
//! ```
//!
//! Response payload ([`encode_response_v2`] / [`decode_response_v2`]):
//!
//! ```text
//! u32  magic  "OSCA" (0x4F53_4341)
//! u32  version (3, PROTOCOL_VERSION)
//! u64  request id (echoed)
//! u8   status        0 = ok, 1 = error, 2 = cache miss
//! ok:         u64 run count, then per run: estimate, ideal_estimate,
//!             exact, observed_ber (4 × f64) and stream_length (u64), in
//!             item order
//! error:      u64 message length, then that many UTF-8 bytes
//! cache miss: u64 digest that was not found (the sender falls back to
//!             an inline request; [`pool::WorkerPool`] does this
//!             transparently)
//! ```
//!
//! ## The version rule
//!
//! Every encoder writes [`PROTOCOL_VERSION`], and it is the only version
//! the decoders accept. Coordinator and worker ship from the same build,
//! so there is nothing to negotiate: a frame with a bad magic or any
//! other version word is refused. [`serve`] (and the TCP service)
//! answers such a frame with an error response that echoes the bytes
//! where the request ID would sit and names the problem, then keeps
//! serving.
//!
//! ## Decode-time bounds
//!
//! Every size a frame supplies is checked before it is trusted, so one
//! hostile or corrupted frame costs an error value, never a worker:
//!
//! - a length prefix above [`MAX_FRAME_BYTES`] is refused before any
//!   allocation, and the payload buffer grows only as bytes actually
//!   arrive ([`read_frame`]);
//! - a declared element count (coefficients, inputs, pixels, runs,
//!   message bytes) must fit in the bytes left in the payload;
//! - a stream length above [`MAX_STREAM_LENGTH`] is refused;
//! - a batch whose first index plus item count, or an image whose first
//!   row plus row count, overflows `u64` is refused, as is an image
//!   whose width is zero or does not divide its pixel count;
//! - the fault block is validated ([`crate::fault::FaultSpec::validate`]:
//!   probabilities finite and in `[0, 1]`).
//!
//! ## Backend tag
//!
//! The transmission backend rides in the **high 32 bits of the order
//! word** of the `CircuitParams` block
//! ([`crate::backend::BackendKind::tag`]: 0 = MRR/MZI, 1 = nanocavity).
//! The default backend ([`crate::backend::BackendKind::MrrMzi`]) is tag
//! **0**, so its
//! canonical circuit bytes — and with them [`circuit_digest`] and every
//! cache key — are the same as before the tag existed. An unknown tag is
//! a clean `unknown backend tag` decode error, never silently-wrong
//! physics. The tag is part of the canonical circuit bytes, so
//! [`circuit_digest`] and the full cache key separate backends that
//! share every numeric parameter.
//!
//! ## Request IDs and the circuit cache
//!
//! The request ID echoed in every response lets one worker serve
//! pipelined requests from a coordinator and makes desyncs detectable.
//! The circuit-cache reference lets a stream of requests against the
//! same circuit ship the parameters + coefficients once. The worker
//! keeps the last [`CIRCUIT_CACHE_CAPACITY`] built [`OpticalScSystem`]s
//! in LRU order, keyed by [`circuit_digest`] (FNV-1a over the canonical
//! encoding of params + coefficients). Digest collisions cannot silently
//! evaluate the wrong circuit: inline insertions compare the full
//! encoded key and evict any same-digest entry with a different key
//! (one circuit per digest, always), and [`pool::WorkerPool`] only sends
//! a cached reference when the full key matches the circuit it last
//! shipped inline under that digest — a collision costs rebuilds, never
//! correctness.
//!
//! **Sizing the cache for many-distinct-circuits workloads.** The
//! default capacity (8) suits serving profiles that hammer a handful of
//! circuits (the soak schedule's two-circuit repeat profile). A design
//! sweep ([`crate::design::sweep`]) is the opposite shape: thousands of
//! *distinct* circuits, each revisited once per probe input — a
//! pool with an undersized LRU evicts every entry before its next hit
//! and rebuilds on all of them. Size the capacity to the sweep's
//! working set (`designs().len()`) via
//! [`pool::PoolConfig::with_circuit_cache_capacity`] or the
//! `OSC_CIRCUIT_CACHE` env; by contract an undersized cache only costs
//! rebuild time, never bytes, so this is purely a throughput knob (the
//! `design_sweep_order_grid` bench record tracks it).
//!
//! ## Faults
//!
//! The optional [`crate::fault::FaultSpec`] lets faulty evaluation ride
//! the same shard/pool machinery as clean evaluation. The fault
//! determinism contract matches the clean one: workers rebase the
//! request-level spec per item — [`crate::fault::FaultSpec::rebased`]
//! with the global index for flat batches, by row then column for image
//! jobs — so faulty sharded ≡ faulty unsharded ≡ faulty pooled, bit for
//! bit, for every shard count.
//!
//! Errors cross the boundary **as values**: the worker validates the
//! request, catches panics, and reports failures in an error response —
//! it never aborts on bad input. The coordinator treats a dead worker, a
//! truncated frame, a wrong magic/version or a short response as a
//! failed shard, retries it on a fresh process (once by default,
//! [`pool::PoolConfig::with_retries`]), and only then surfaces a
//! [`ShardError`].
//!
//! # Service framing (TCP front door)
//!
//! [`service::Service`] exposes the exact same framed protocol over a
//! TCP socket, multiplexing many concurrent client connections onto one
//! [`pool::PoolDispatcher`]. No new wire format is introduced — a
//! service connection is framed byte-for-byte like a worker pipe — but
//! the connection lifecycle adds these rules:
//!
//! - **Connection lifecycle.** A client connects, writes request frames
//!   and reads exactly one response frame per request, in request
//!   order. Requests from one connection may be answered with
//!   pipelining delays (they share the pool with every other
//!   connection) but never out of order. The connection ends when the
//!   client closes it (half-close or full close), when a transport
//!   error occurs, or when the service drains.
//! - **One version.** Each *frame* carries its own version word,
//!   exactly as on a worker pipe, under the same rule: anything but
//!   [`PROTOCOL_VERSION`] is answered with an error value and the
//!   connection stays open.
//! - **Per-connection circuit cache.** Each connection holds its own
//!   LRU of [`CIRCUIT_CACHE_CAPACITY`] circuits keyed by
//!   [`circuit_digest`]; [`CircuitRef::Cached`] references resolve
//!   against it and a miss is answered with
//!   [`ShardResponseV2::CacheMiss`] (the client resends inline),
//!   mirroring worker semantics. Connections never share cache state,
//!   so one client's evictions cannot invalidate another's references.
//! - **Overload as a value.** The dispatcher bounds its request queue;
//!   a request past the cap is answered immediately with an error
//!   response whose message names the overload
//!   ([`ShardError::Overloaded`] rendered as text) — never a silent
//!   drop, a hang, or a reset. The connection remains usable; the
//!   client retries later.
//! - **Drain semantics.** When the service drains (SIGTERM or
//!   [`service::Service::drain`]), the listener stops accepting,
//!   every in-flight request — already submitted, or mid-read on some
//!   connection — is answered completely, and each connection is closed
//!   after the response it is currently owed. Idle connections (blocked
//!   waiting for their next request) have their read half shut so they
//!   wake to EOF immediately; the drain never waits on a quiet client.
//!   A subsequent read on a
//!   drained connection sees EOF; reconnecting fails. Replicas are
//!   interchangeable by the determinism contract, so a client can
//!   reconnect to any other instance and replay the failed request
//!   byte-identically.

use super::{evaluate_lane_block, lane_blocks, mix_seed, BatchEvaluator};
use crate::backend::BackendKind;
use crate::fault::{FaultSpec, StuckAt};
use crate::params::{CircuitParams, FilterTemplate, ModulatorTemplate};
use crate::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::{DbRatio, Milliwatts, Nanometers};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

pub mod pool;
pub mod service;

/// Request frame magic, `"OSCR"`.
pub const REQUEST_MAGIC: u32 = 0x4F53_4352;
/// Response frame magic, `"OSCA"`.
pub const RESPONSE_MAGIC: u32 = 0x4F53_4341;
/// The wire protocol version: every encoder writes it, and it is the
/// only version the decoders accept.
pub const PROTOCOL_VERSION: u32 = 3;
/// Upper bound accepted for any frame payload: a corrupted or hostile
/// length prefix is rejected with a clean protocol error **before** any
/// allocation is attempted. 256 MiB comfortably covers the largest real
/// request (a 4096×4096 image ships 128 MiB of pixels) while keeping a
/// garbled prefix from driving a multi-gigabyte allocation. Responses
/// carry 40 bytes per run, so the cap also bounds one shard to ~6.7M
/// items per response — plan more shards for batches beyond that.
pub const MAX_FRAME_BYTES: u64 = 256 * (1 << 20);
/// Upper bound on a request's stream length (bits per evaluation),
/// enforced at decode time so a forged length cannot drive a worker
/// into an allocation it cannot satisfy. Every stream the repo's
/// binaries and tests ship is at most 2¹⁷ bits.
pub const MAX_STREAM_LENGTH: u64 = 1 << 24;
/// How many built [`OpticalScSystem`]s a [`serve`] loop keeps, in LRU
/// order, for cached-circuit requests.
pub const CIRCUIT_CACHE_CAPACITY: usize = 8;
/// Register width used when a wire request selects the LFSR source; the
/// per-item seed is truncated to the register. Width 16 is inside the
/// supported `3..=32` range by construction, so the factory is
/// infallible.
///
/// An order-`n` item draws all of its `2n + 1` streams (`n` data,
/// `n + 1` coefficient) of `N` bits from this one register, whose period
/// is 2¹⁶ − 1 = 65535. Once `(2n + 1) · N > 65535` the streams replay
/// earlier register states and are no longer independent.
pub const LFSR_WIRE_WIDTH: u32 = 16;
/// Environment variable overriding where [`locate_worker`] looks for
/// the worker binary.
pub const WORKER_ENV: &str = "OSC_SHARD_WORKER";
/// Environment variable (milliseconds) making [`serve`] sleep before
/// answering each frame — a deterministic way to make a worker *slow*
/// without making it incorrect. Test hook only
/// ([`pool::PoolConfig::with_response_delay`] exports it): it exists so
/// pipelining tests can pin that a slow response on one request ID is
/// never misattributed as a timeout of a different in-flight request.
pub const SERVE_DELAY_ENV: &str = "OSC_SERVE_DELAY_MS";
/// Environment variable overriding the [`serve`] loop's circuit-cache
/// capacity (positive integer; anything else falls back to
/// [`CIRCUIT_CACHE_CAPACITY`]). Exported by
/// [`pool::PoolConfig::with_circuit_cache_capacity`] so design sweeps
/// with a working set beyond 8 circuits keep their whole sweep warm.
pub const CIRCUIT_CACHE_ENV: &str = "OSC_CIRCUIT_CACHE";

/// Errors surfaced by the sharding layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// A worker process could not be launched at all (missing or
    /// non-executable binary), after exhausting retries.
    Spawn {
        /// Shard index in the plan.
        shard: usize,
        /// Operating-system detail.
        detail: String,
    },
    /// A worker died, closed its pipe early, or answered with a
    /// malformed frame (after exhausting retries).
    Worker {
        /// Shard index in the plan.
        shard: usize,
        /// What the coordinator observed.
        detail: String,
    },
    /// A worker failed to answer within the pool's per-request read
    /// timeout (after exhausting retries) — a stalled worker, as
    /// opposed to a dead one.
    Timeout {
        /// Shard index in the plan.
        shard: usize,
        /// What the coordinator observed (includes the configured
        /// timeout).
        detail: String,
    },
    /// A worker answered cleanly with an error report (bad config,
    /// invalid input, caught panic).
    Remote {
        /// Shard index in the plan.
        shard: usize,
        /// The worker's message.
        detail: String,
    },
    /// A locally-detected protocol violation (encode/decode failure).
    Protocol(String),
    /// The request itself is unshardable (e.g. pixel count not a
    /// multiple of the image width).
    InvalidPlan(String),
    /// A [`pool::PoolDispatcher`] rejected the request because its
    /// bounded queue is full — backpressure as a value, never a silent
    /// drop. The request was not evaluated; retry later.
    Overloaded {
        /// Requests queued when the rejection happened.
        queued: usize,
        /// The configured queue cap.
        cap: usize,
    },
    /// A [`pool::PoolDispatcher`] rejected the request because it is
    /// draining: in-flight and already-queued requests finish, new ones
    /// are refused.
    Draining,
    /// An [`Executor::InProcess`] evaluation failed in this process.
    Circuit(crate::CircuitError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spawn { shard, detail } => {
                write!(f, "shard {shard}: failed to spawn worker: {detail}")
            }
            ShardError::Worker { shard, detail } => {
                write!(f, "shard {shard}: worker failed: {detail}")
            }
            ShardError::Timeout { shard, detail } => {
                write!(f, "shard {shard}: worker timed out: {detail}")
            }
            ShardError::Remote { shard, detail } => {
                write!(f, "shard {shard}: worker reported: {detail}")
            }
            ShardError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            ShardError::InvalidPlan(msg) => write!(f, "invalid shard plan: {msg}"),
            ShardError::Overloaded { queued, cap } => write!(
                f,
                "service overloaded: {queued} requests queued (cap {cap}) — retry later"
            ),
            ShardError::Draining => {
                write!(f, "service draining: not accepting new requests")
            }
            ShardError::Circuit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<crate::CircuitError> for ShardError {
    fn from(e: crate::CircuitError) -> Self {
        ShardError::Circuit(e)
    }
}

/// Which stochastic number generator a worker instantiates per item.
///
/// The variant, together with the per-item seed derivation, pins the
/// exact generator universe, so coordinator and single-process runs
/// agree bit for bit:
///
/// - `Lfsr` → `LfsrSng::new(LFSR_WIRE_WIDTH, seed as u32)`;
/// - `Counter` → `CounterSng::new()` (seed-independent by design);
/// - `Xoshiro` → `XoshiroSng::new(seed)`;
/// - `Chaotic` → `ChaoticLaserSng::seeded(seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SngKind {
    /// Maximal-length LFSR comparator SNG (the CMOS baseline).
    ///
    /// An item draws its `2n + 1` streams from one
    /// [`LFSR_WIRE_WIDTH`]-bit register of period 65535, so they stay
    /// independent only while `(2n + 1) · N ≤ 65535` for stream length
    /// `N`.
    Lfsr,
    /// Deterministic low-discrepancy van der Corput/Halton source.
    Counter,
    /// Seeded Xoshiro256++ PRNG, the software reference.
    Xoshiro,
    /// Chaotic-laser TRNG stand-in (SplitMix64-backed, seeded).
    Chaotic,
}

impl SngKind {
    /// All kinds, for sweeps.
    pub const ALL: [SngKind; 4] = [
        SngKind::Lfsr,
        SngKind::Counter,
        SngKind::Xoshiro,
        SngKind::Chaotic,
    ];

    fn as_u8(self) -> u8 {
        match self {
            SngKind::Lfsr => 0,
            SngKind::Counter => 1,
            SngKind::Xoshiro => 2,
            SngKind::Chaotic => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(SngKind::Lfsr),
            1 => Ok(SngKind::Counter),
            2 => Ok(SngKind::Xoshiro),
            3 => Ok(SngKind::Chaotic),
            other => Err(format!("unknown SNG kind {other}")),
        }
    }

    /// Generator name as the SNGs themselves report it.
    pub fn name(self) -> &'static str {
        match self {
            SngKind::Lfsr => "lfsr",
            SngKind::Counter => "counter",
            SngKind::Xoshiro => "xoshiro",
            SngKind::Chaotic => "chaotic-laser",
        }
    }
}

/// The per-item LFSR factory of the wire protocol.
fn lfsr_item(seed: u64) -> LfsrSng {
    // Infallible: LFSR_WIRE_WIDTH is inside the supported range and the
    // constructor remaps the one forbidden (zero) seed itself.
    LfsrSng::new(LFSR_WIRE_WIDTH, seed as u32).expect("LFSR_WIRE_WIDTH is a supported width")
}

/// Runs `$body` with `$factory` bound to the seed→generator constructor
/// of `$kind` — the one dispatch point both shard jobs share, so every
/// caller derives identical generator universes per kind.
macro_rules! dispatch_sng {
    ($kind:expr, $factory:ident => $body:expr) => {
        match $kind {
            SngKind::Lfsr => {
                let $factory = lfsr_item;
                $body
            }
            SngKind::Counter => {
                let $factory = |_seed: u64| CounterSng::new();
                $body
            }
            SngKind::Xoshiro => {
                let $factory = XoshiroSng::new;
                $body
            }
            SngKind::Chaotic => {
                let $factory = ChaoticLaserSng::seeded;
                $body
            }
        }
    };
}

/// One flat batch of an [`Executor::batches`] call: evaluate `xs` on
/// `system`, item `i` on generators derived from `mix_seed(seed, i)`
/// and, with a fault process, under `faults.rebased(i)` — a whole
/// [`ShardRequest::batch`] with `first_index` 0.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The circuit to evaluate.
    pub system: &'a OpticalScSystem,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// The inputs, one run each.
    pub xs: &'a [f64],
    /// Stream length (bits) per evaluation.
    pub stream_length: usize,
    /// Batch seed the per-item universes derive from.
    pub seed: u64,
    /// Optional fault process, rebased per item.
    pub faults: Option<&'a FaultSpec>,
}

impl BatchJob<'_> {
    /// The job's wire form.
    fn request(&self) -> ShardRequest {
        ShardRequest::batch(
            self.system,
            self.sng,
            0,
            self.xs,
            self.stream_length,
            self.seed,
            self.faults,
        )
    }
}

/// The serving tier a caller evaluates through — the one place the
/// in-process / spawn / pool / service choice is made.
///
/// Every tier runs the same two wire job kinds ([`Executor::image`],
/// [`Executor::batches`]) and, by the determinism contract above,
/// returns byte-identical runs: the in-process arm calls the same
/// [`image_rows_eval`] and [`BatchEvaluator::evaluate_range_faulted`]
/// the workers run, through the same [`SngKind`] dispatch point.
///
/// ```no_run
/// use osc_core::batch::shard::{pool::PoolConfig, BatchJob, Executor, SngKind};
/// use osc_core::batch::BatchEvaluator;
/// # fn demo(system: &osc_core::system::OpticalScSystem) -> Result<(), Box<dyn std::error::Error>> {
/// let job = BatchJob {
///     system,
///     sng: SngKind::Xoshiro,
///     xs: &[0.25, 0.5],
///     stream_length: 256,
///     seed: 7,
///     faults: None,
/// };
/// let evaluator = BatchEvaluator::new();
/// let here = Executor::InProcess(&evaluator).batches(&[job])?;
/// let mut pool = PoolConfig::new("shard_worker", 2).spawn()?;
/// assert_eq!(Executor::Pool(&mut pool).batches(&[job])?, here);
/// # Ok(()) }
/// ```
pub enum Executor<'a> {
    /// In this process, on the evaluator's threads.
    InProcess(&'a BatchEvaluator),
    /// Fresh worker subprocesses per job, configured by a
    /// [`pool::PoolConfig`]: each job is planned over the config's
    /// worker count, and a one-shot pool with one worker per planned
    /// shard runs it and is reaped (an empty plan spawns nothing). Spawn
    /// and circuit build are paid on every job; failed shards are
    /// retried on fresh processes as the config sets.
    Spawn(&'a pool::PoolConfig),
    /// A persistent [`pool::WorkerPool`]: spawn paid once, circuits
    /// cached worker-side. An image's rows split over the workers; a
    /// batches call streams every job through one pipelined
    /// [`pool::WorkerPool::run_requests`].
    Pool(&'a mut pool::WorkerPool),
    /// One TCP [`service::ServiceClient`] connection, one whole request
    /// per job.
    Service(&'a mut service::ServiceClient),
}

impl Executor<'_> {
    /// Evaluates row-major image pixels (`width` per row), pixel `(row,
    /// col)` on generators derived from `mix_seed(mix_seed(seed, row),
    /// col)` and the fault process rebased the same way; pixels are
    /// clamped into `[0, 1]`. Returns one run per pixel, row-major.
    ///
    /// # Errors
    ///
    /// An image that is not a whole number of `width`-sized rows (as a
    /// [`ShardError::Circuit`] in process, [`ShardError::InvalidPlan`]
    /// elsewhere); otherwise the tier's evaluation or transport failure.
    #[allow(clippy::too_many_arguments)]
    pub fn image(
        &mut self,
        system: &OpticalScSystem,
        sng: SngKind,
        width: usize,
        pixels: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<Vec<OpticalRun>, ShardError> {
        match self {
            Executor::InProcess(evaluator) => Ok(dispatch_sng!(sng, factory => image_rows_eval(
                evaluator,
                system,
                &factory,
                width,
                0,
                pixels,
                stream_length,
                seed,
                faults,
            ))?),
            Executor::Spawn(config) => {
                let (requests, expected) = image_requests(
                    system,
                    sng,
                    width,
                    pixels,
                    stream_length,
                    seed,
                    faults,
                    config.workers,
                )?;
                spawn_once(config, &requests, &expected)
            }
            Executor::Pool(pool) => {
                pool.image_rows(system, sng, width, pixels, stream_length, seed, faults)
            }
            Executor::Service(client) => client.request(&ShardRequest::whole_image(
                system,
                sng,
                width,
                pixels,
                stream_length,
                seed,
                faults,
            )?),
        }
    }

    /// Evaluates every job of a call, returning each job's runs in job
    /// order.
    ///
    /// # Errors
    ///
    /// The first failed job's error, in job order.
    pub fn batches(&mut self, jobs: &[BatchJob<'_>]) -> Result<Vec<Vec<OpticalRun>>, ShardError> {
        match self {
            Executor::InProcess(evaluator) => jobs
                .iter()
                .map(|job| {
                    Ok(
                        dispatch_sng!(job.sng, factory => evaluator.evaluate_range_faulted(
                            job.system,
                            job.xs,
                            job.stream_length,
                            factory,
                            job.seed,
                            0,
                            job.faults,
                        ))?,
                    )
                })
                .collect(),
            Executor::Spawn(config) => jobs
                .iter()
                .map(|job| {
                    let (requests, expected) = batch_requests(
                        job.system,
                        job.sng,
                        job.xs,
                        job.stream_length,
                        job.seed,
                        job.faults,
                        config.workers,
                    );
                    spawn_once(config, &requests, &expected)
                })
                .collect(),
            Executor::Pool(pool) => {
                let requests: Vec<ShardRequest> = jobs.iter().map(BatchJob::request).collect();
                let expected: Vec<usize> = jobs.iter().map(|job| job.xs.len()).collect();
                pool.run_requests(&requests, &expected)
            }
            Executor::Service(client) => jobs
                .iter()
                .map(|job| client.request(&job.request()))
                .collect(),
        }
    }
}

/// One clean flat batch through [`Executor::InProcess`]. New code calls
/// the executor; this name stays because the benchmark package
/// (`perfbench/`) calls it.
///
/// # Errors
///
/// Propagates evaluation failures (e.g. inputs outside `[0, 1]`).
pub fn evaluate_batch_in_process(
    evaluator: &BatchEvaluator,
    system: &OpticalScSystem,
    sng: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Result<Vec<OpticalRun>, ShardError> {
    let job = BatchJob {
        system,
        sng,
        xs,
        stream_length,
        seed,
        faults: None,
    };
    Ok(Executor::InProcess(evaluator).batches(&[job])?.remove(0))
}

/// A contiguous, balanced decomposition of `items` work items into at
/// most `shards` index ranges (empty trailing ranges are dropped, so
/// asking for more shards than items degrades gracefully).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Plans `items` work items across `shards` workers (`0` is treated
    /// as `1`). The first `items % shards` ranges take one extra item, so
    /// range sizes differ by at most one.
    pub fn new(items: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let base = items / shards;
        let extra = items % shards;
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            if len == 0 {
                break;
            }
            ranges.push((start, len));
            start += len;
        }
        ShardPlan { ranges }
    }

    /// The planned `(start, len)` ranges, contiguous and in index order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Total items covered.
    pub fn items(&self) -> usize {
        self.ranges.iter().map(|&(_, len)| len).sum()
    }
}

/// One evaluation job, as carried by a [`ShardRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardJob {
    /// Evaluate `xs[i]` with generators derived from
    /// `mix_seed(seed, first_index + i)` — one slice of a flat batch.
    Batch {
        /// Global index of `xs[0]` in the full batch.
        first_index: u64,
        /// Inputs for this shard's range.
        xs: Vec<f64>,
    },
    /// Evaluate image pixels through the row+lane pipeline derivation:
    /// the pixel at global row `y`, column `x` uses
    /// `mix_seed(mix_seed(seed, y), x)`. Pixels are row-major rows
    /// `first_row ..`, and are clamped to `[0, 1]` before evaluation
    /// exactly as the in-process image pipelines do.
    ImageRows {
        /// Image width in pixels (row stride).
        width: u64,
        /// Global row index of the first transmitted row.
        first_row: u64,
        /// Row-major pixels, `width × rows` values.
        pixels: Vec<f64>,
    },
}

impl ShardJob {
    /// How many runs this job produces — one per batch item or pixel.
    pub fn expected_runs(&self) -> usize {
        match self {
            ShardJob::Batch { xs, .. } => xs.len(),
            ShardJob::ImageRows { pixels, .. } => pixels.len(),
        }
    }
}

/// One framed request: the system to build and the job to run on it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Full circuit parameter set (rebuilt worker-side).
    pub params: CircuitParams,
    /// Bernstein coefficients of the programmed polynomial.
    pub coeffs: Vec<f64>,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// Batch seed the per-item universes derive from.
    pub seed: u64,
    /// Stream length (bits) per evaluation.
    pub stream_length: u64,
    /// Optional fault process, rebased per item on the worker.
    pub faults: Option<FaultSpec>,
    /// The work itself.
    pub job: ShardJob,
}

impl ShardRequest {
    /// The wire form of one flat batch slice: evaluate `xs` with item
    /// universes derived from `mix_seed(seed, first_index + i)`. With
    /// `first_index` 0 this is a whole batch — what a
    /// [`service::ServiceClient`] ships.
    pub fn batch(
        system: &OpticalScSystem,
        sng: SngKind,
        first_index: u64,
        xs: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> ShardRequest {
        ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng,
            seed,
            stream_length: stream_length as u64,
            faults: faults.copied(),
            job: ShardJob::Batch {
                first_index,
                xs: xs.to_vec(),
            },
        }
    }

    /// The wire form of one whole-image evaluation (every row, starting
    /// at global row 0) through the row+lane pixel derivation — what a
    /// [`service::ServiceClient`] ships for an image request. Evaluated
    /// anywhere, the response is byte-identical to the in-process image
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidPlan`] when `pixels` is not a whole number
    /// of `width`-sized rows.
    pub fn whole_image(
        system: &OpticalScSystem,
        sng: SngKind,
        width: usize,
        pixels: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<ShardRequest, ShardError> {
        whole_rows(width, pixels.len()).map_err(ShardError::InvalidPlan)?;
        Ok(ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng,
            seed,
            stream_length: stream_length as u64,
            faults: faults.copied(),
            job: ShardJob::ImageRows {
                width: width as u64,
                first_row: 0,
                pixels: pixels.to_vec(),
            },
        })
    }
}

/// The row count of `pixels` pixels in `width`-sized rows, or the
/// message every image entry point refuses a ragged image (or a zero
/// width) with — the same rule the request decoder applies.
fn whole_rows(width: usize, pixels: usize) -> Result<usize, String> {
    if width == 0 || !pixels.is_multiple_of(width) {
        return Err(format!(
            "pixel count {pixels} is not a whole number of width-{width} rows"
        ));
    }
    Ok(pixels / width)
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Sequential reader over a payload, with truncation-safe accessors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `count` f64s, refused before any allocation unless the payload
    /// still holds them, and allocated exactly once.
    fn f64_vec(&mut self, count: u64) -> Result<Vec<f64>, String> {
        let bytes = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .filter(|&bytes| bytes <= self.remaining())
            .ok_or_else(|| format!("declared {count} f64s exceed the payload"))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect())
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_params(buf: &mut Vec<u8>, p: &CircuitParams) {
    // Backend tag rides in the high 32 bits of the order word. The
    // default backend is tag 0 by construction, so default-backend
    // frames are byte-identical to every pre-tag protocol revision;
    // a non-default tag makes an old peer's order check fail loudly
    // instead of silently computing the wrong physics.
    put_u64(buf, p.order as u64 | (p.backend.tag() as u64) << 32);
    for v in [
        p.wl_spacing.as_nm(),
        p.lambda_last.as_nm(),
        p.lambda_ref.as_nm(),
        p.mzi_il.as_db(),
        p.mzi_er.as_db(),
        p.modulator.r1,
        p.modulator.r2,
        p.modulator.a,
        p.modulator.fsr.as_nm(),
        p.modulator.delta_lambda.as_nm(),
        p.filter.r1,
        p.filter.r2,
        p.filter.a,
        p.filter.fsr.as_nm(),
        p.filter.ote_nm_per_mw,
        p.pump_power.as_mw(),
        p.probe_power.as_mw(),
        p.responsivity_a_per_w,
    ] {
        put_f64(buf, v);
    }
    put_f64(buf, p.noise_current_a);
}

fn decode_params(c: &mut Cursor<'_>) -> Result<CircuitParams, String> {
    let word = c.u64()?;
    let order =
        usize::try_from(word & 0xFFFF_FFFF).map_err(|_| "order overflows usize".to_string())?;
    let backend = BackendKind::from_tag((word >> 32) as u32)
        .ok_or_else(|| format!("unknown backend tag {}", word >> 32))?;
    let mut f = [0f64; 19];
    for slot in &mut f {
        *slot = c.f64()?;
    }
    Ok(CircuitParams {
        order,
        wl_spacing: Nanometers::new(f[0]),
        lambda_last: Nanometers::new(f[1]),
        lambda_ref: Nanometers::new(f[2]),
        mzi_il: DbRatio::from_db(f[3]),
        mzi_er: DbRatio::from_db(f[4]),
        modulator: ModulatorTemplate {
            r1: f[5],
            r2: f[6],
            a: f[7],
            fsr: Nanometers::new(f[8]),
            delta_lambda: Nanometers::new(f[9]),
        },
        filter: FilterTemplate {
            r1: f[10],
            r2: f[11],
            a: f[12],
            fsr: Nanometers::new(f[13]),
            ote_nm_per_mw: f[14],
        },
        pump_power: Milliwatts::new(f[15]),
        probe_power: Milliwatts::new(f[16]),
        responsivity_a_per_w: f[17],
        noise_current_a: f[18],
        backend,
    })
}

impl ShardJob {
    fn kind(&self) -> u8 {
        match self {
            ShardJob::Batch { .. } => 0,
            ShardJob::ImageRows { .. } => 1,
        }
    }
}

fn encode_job(buf: &mut Vec<u8>, job: &ShardJob) {
    match job {
        ShardJob::Batch { first_index, xs } => {
            put_u64(buf, *first_index);
            put_u64(buf, xs.len() as u64);
            for &x in xs {
                put_f64(buf, x);
            }
        }
        ShardJob::ImageRows {
            width,
            first_row,
            pixels,
        } => {
            put_u64(buf, *width);
            put_u64(buf, *first_row);
            put_u64(buf, pixels.len() as u64);
            for &p in pixels {
                put_f64(buf, p);
            }
        }
    }
}

/// Reads a job body, refusing index ranges that overflow `u64` and
/// images whose width does not tile the pixel count.
fn decode_job(c: &mut Cursor<'_>, job_kind: u8) -> Result<ShardJob, String> {
    match job_kind {
        0 => {
            let first_index = c.u64()?;
            let n = c.u64()?;
            if first_index.checked_add(n).is_none() {
                return Err(format!(
                    "batch index range {first_index} + {n} overflows u64"
                ));
            }
            Ok(ShardJob::Batch {
                first_index,
                xs: c.f64_vec(n)?,
            })
        }
        1 => {
            let width = c.u64()?;
            let first_row = c.u64()?;
            let n = c.u64()?;
            if width == 0 {
                return Err("image width must be positive".to_string());
            }
            if !n.is_multiple_of(width) {
                return Err(format!(
                    "pixel count {n} is not a multiple of width {width}"
                ));
            }
            if first_row.checked_add(n / width).is_none() {
                return Err(format!(
                    "image row range {first_row} + {} overflows u64",
                    n / width
                ));
            }
            Ok(ShardJob::ImageRows {
                width,
                first_row,
                pixels: c.f64_vec(n)?,
            })
        }
        other => Err(format!("unknown job kind {other}")),
    }
}

/// How a request names its circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitRef {
    /// Parameters + coefficients shipped in full; the worker builds (or
    /// reuses) the system and caches it under its digest.
    Inline {
        /// Full circuit parameter set.
        params: CircuitParams,
        /// Bernstein coefficients of the programmed polynomial.
        coeffs: Vec<f64>,
    },
    /// Reference to a circuit a previous inline request cached on this
    /// worker. An unknown digest is answered with
    /// [`ShardResponseV2::CacheMiss`], never an evaluation.
    Cached {
        /// [`circuit_digest`] of the referenced circuit.
        digest: u64,
    },
}

/// One decoded request: a [`ShardRequest`] whose circuit may travel as
/// a cache reference, plus the request ID.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequestV2 {
    /// Opaque to the worker; echoed verbatim in the response.
    pub request_id: u64,
    /// The circuit, inline or by cache reference.
    pub circuit: CircuitRef,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// Batch seed the per-item universes derive from.
    pub seed: u64,
    /// Stream length (bits) per evaluation.
    pub stream_length: u64,
    /// Optional fault process, validated at decode and rebased per item
    /// on the worker.
    pub faults: Option<FaultSpec>,
    /// The work itself.
    pub job: ShardJob,
}

/// One response, always echoing the request ID.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponseV2 {
    /// Per-item runs, in item order.
    Runs {
        /// Echoed request ID.
        request_id: u64,
        /// Per-item runs.
        runs: Vec<OpticalRun>,
    },
    /// The worker rejected the request or failed evaluating it.
    Error {
        /// Echoed request ID.
        request_id: u64,
        /// What went wrong, as the worker saw it.
        message: String,
    },
    /// A [`CircuitRef::Cached`] digest was not in the worker's cache
    /// (evicted, or the worker was respawned). The sender retries the
    /// same request inline.
    CacheMiss {
        /// Echoed request ID.
        request_id: u64,
        /// The digest that missed.
        digest: u64,
    },
}

/// The canonical byte encoding a circuit is digested (and, for inline
/// cache insertions, compared) under.
fn circuit_key(params: &CircuitParams, coeffs: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(176 + coeffs.len() * 8);
    encode_params(&mut buf, params);
    put_u64(&mut buf, coeffs.len() as u64);
    for &c in coeffs {
        put_f64(&mut buf, c);
    }
    buf
}

/// FNV-1a digest of the canonical circuit bytes (the inline params +
/// coefficient encoding) — the key cached-circuit references travel
/// as. Workers verify inline insertions against the full key, so a
/// collision can cost a rebuild but never a wrong evaluation.
pub fn circuit_digest(params: &CircuitParams, coeffs: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &circuit_key(params, coeffs) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Writes the fault block: a presence flag, then the spec fields.
fn encode_fault_block(buf: &mut Vec<u8>, faults: Option<&FaultSpec>) {
    match faults {
        None => buf.push(0),
        Some(spec) => {
            buf.push(1);
            put_f64(buf, spec.flip_probability);
            put_f64(buf, spec.shift_probability);
            put_u64(buf, spec.flip_seed);
            put_u64(buf, spec.shift_seed);
            match spec.stuck {
                None => buf.push(0),
                Some(stuck) => {
                    buf.push(1);
                    put_u64(buf, stuck.mask);
                    put_u64(buf, stuck.value);
                }
            }
        }
    }
}

/// Reads the fault block and validates the decoded spec, so a
/// malformed probability is an error value at the wire boundary.
fn decode_fault_block(c: &mut Cursor<'_>) -> Result<Option<FaultSpec>, String> {
    if c.u8()? == 0 {
        return Ok(None);
    }
    let flip_probability = c.f64()?;
    let shift_probability = c.f64()?;
    let flip_seed = c.u64()?;
    let shift_seed = c.u64()?;
    let stuck = match c.u8()? {
        0 => None,
        1 => Some(StuckAt {
            mask: c.u64()?,
            value: c.u64()?,
        }),
        other => return Err(format!("unknown stuck-at flag {other}")),
    };
    let spec = FaultSpec {
        flip_probability,
        shift_probability,
        stuck,
        flip_seed,
        shift_seed,
    };
    spec.validate()
        .map_err(|e| format!("invalid fault spec: {e}"))?;
    Ok(Some(spec))
}

/// Serializes a [`ShardRequest`] as one request frame payload (no
/// length prefix). With `cached_digest = Some(d)` the circuit travels
/// as a cache reference `d` instead of inline parameters — the caller
/// asserts a previous inline request cached it on the receiving worker
/// (a stale assertion costs one [`ShardResponseV2::CacheMiss`] round
/// trip, nothing more).
pub fn encode_request_v2(
    req: &ShardRequest,
    request_id: u64,
    cached_digest: Option<u64>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u32(&mut buf, REQUEST_MAGIC);
    put_u32(&mut buf, PROTOCOL_VERSION);
    put_u64(&mut buf, request_id);
    buf.push(u8::from(cached_digest.is_some()));
    buf.push(req.job.kind());
    buf.push(req.sng.as_u8());
    buf.push(0); // reserved
    put_u64(&mut buf, req.seed);
    put_u64(&mut buf, req.stream_length);
    encode_fault_block(&mut buf, req.faults.as_ref());
    match cached_digest {
        Some(digest) => put_u64(&mut buf, digest),
        None => {
            encode_params(&mut buf, &req.params);
            put_u64(&mut buf, req.coeffs.len() as u64);
            for &c in &req.coeffs {
                put_f64(&mut buf, c);
            }
        }
    }
    encode_job(&mut buf, &req.job);
    buf
}

/// Reads the magic + version header both directions share, refusing a
/// wrong magic and every version but [`PROTOCOL_VERSION`].
fn decode_header(c: &mut Cursor<'_>, magic: u32, what: &str) -> Result<(), String> {
    let got = c.u32()?;
    if got != magic {
        return Err(format!("bad {what} magic {got:#010x}"));
    }
    let version = c.u32()?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        ));
    }
    Ok(())
}

/// Parses a request frame payload, enforcing the decode-time bounds of
/// the module docs.
///
/// # Errors
///
/// A description of the first violation (bad magic, wrong version,
/// unknown circuit/job/SNG tag, stream length over
/// [`MAX_STREAM_LENGTH`], an index range that overflows `u64`, a ragged
/// image, invalid fault spec, truncation, trailing bytes).
pub fn decode_request_v2(payload: &[u8]) -> Result<ShardRequestV2, String> {
    let mut c = Cursor::new(payload);
    decode_header(&mut c, REQUEST_MAGIC, "request")?;
    let request_id = c.u64()?;
    let circuit_kind = c.u8()?;
    let job_kind = c.u8()?;
    let sng = SngKind::from_u8(c.u8()?)?;
    let _reserved = c.u8()?;
    let seed = c.u64()?;
    let stream_length = c.u64()?;
    if stream_length > MAX_STREAM_LENGTH {
        return Err(format!(
            "stream length {stream_length} exceeds the {MAX_STREAM_LENGTH}-bit cap"
        ));
    }
    let faults = decode_fault_block(&mut c)?;
    let circuit = match circuit_kind {
        0 => {
            let params = decode_params(&mut c)?;
            let n_coeffs = c.u64()?;
            CircuitRef::Inline {
                params,
                coeffs: c.f64_vec(n_coeffs)?,
            }
        }
        1 => CircuitRef::Cached { digest: c.u64()? },
        other => return Err(format!("unknown circuit kind {other}")),
    };
    let job = decode_job(&mut c, job_kind)?;
    if !c.finished() {
        return Err(format!(
            "{} trailing bytes after request",
            payload.len() - c.pos
        ));
    }
    Ok(ShardRequestV2 {
        request_id,
        circuit,
        sng,
        seed,
        stream_length,
        faults,
        job,
    })
}

/// Serializes a response into one frame payload (no length prefix).
pub fn encode_response_v2(resp: &ShardResponseV2) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, RESPONSE_MAGIC);
    put_u32(&mut buf, PROTOCOL_VERSION);
    match resp {
        ShardResponseV2::Runs { request_id, runs } => {
            put_u64(&mut buf, *request_id);
            buf.push(0);
            put_u64(&mut buf, runs.len() as u64);
            for run in runs {
                put_f64(&mut buf, run.estimate);
                put_f64(&mut buf, run.ideal_estimate);
                put_f64(&mut buf, run.exact);
                put_f64(&mut buf, run.observed_ber);
                put_u64(&mut buf, run.stream_length as u64);
            }
        }
        ShardResponseV2::Error {
            request_id,
            message,
        } => {
            put_u64(&mut buf, *request_id);
            buf.push(1);
            put_u64(&mut buf, message.len() as u64);
            buf.extend_from_slice(message.as_bytes());
        }
        ShardResponseV2::CacheMiss { request_id, digest } => {
            put_u64(&mut buf, *request_id);
            buf.push(2);
            put_u64(&mut buf, *digest);
        }
    }
    buf
}

/// Parses a response frame payload.
///
/// # Errors
///
/// A description of the first violation (bad magic, wrong version,
/// unknown status, truncation, trailing bytes).
pub fn decode_response_v2(payload: &[u8]) -> Result<ShardResponseV2, String> {
    let mut c = Cursor::new(payload);
    decode_header(&mut c, RESPONSE_MAGIC, "response")?;
    let request_id = c.u64()?;
    let resp = match c.u8()? {
        0 => {
            let count = c.u64()?;
            let count =
                usize::try_from(count).map_err(|_| "run count overflows usize".to_string())?;
            if count
                .checked_mul(40)
                .is_none_or(|bytes| bytes > c.remaining())
            {
                return Err(format!("declared {count} runs exceed the payload"));
            }
            let mut runs = Vec::with_capacity(count);
            for _ in 0..count {
                let estimate = c.f64()?;
                let ideal_estimate = c.f64()?;
                let exact = c.f64()?;
                let observed_ber = c.f64()?;
                let stream_length = usize::try_from(c.u64()?)
                    .map_err(|_| "stream length overflows usize".to_string())?;
                runs.push(OpticalRun {
                    estimate,
                    ideal_estimate,
                    exact,
                    observed_ber,
                    stream_length,
                });
            }
            ShardResponseV2::Runs { request_id, runs }
        }
        1 => {
            let len = c.u64()?;
            let bytes = c.take(
                usize::try_from(len).map_err(|_| "message length overflows usize".to_string())?,
            )?;
            ShardResponseV2::Error {
                request_id,
                message: String::from_utf8(bytes.to_vec())
                    .map_err(|_| "non-UTF-8 error message")?,
            }
        }
        2 => ShardResponseV2::CacheMiss {
            request_id,
            digest: c.u64()?,
        },
        other => return Err(format!("unknown response status {other}")),
    };
    if !c.finished() {
        return Err(format!(
            "{} trailing bytes after response",
            payload.len() - c.pos
        ));
    }
    Ok(resp)
}

/// What a cleanly decoded response settled to, once checked against the
/// request it answers.
enum Settled {
    Runs(Vec<OpticalRun>),
    Remote(String),
    CacheMiss { digest: u64 },
}

/// Decodes a response and checks it against the request it must answer:
/// the echoed ID and, for runs, the run count — the one reading of a
/// response that the pool and the service client share. `Err` describes
/// a malformed or desynced response.
fn settle_response(
    payload: &[u8],
    expected_id: u64,
    expected_runs: usize,
) -> Result<Settled, String> {
    let (request_id, settled) =
        match decode_response_v2(payload).map_err(|e| format!("malformed response: {e}"))? {
            ShardResponseV2::Runs { request_id, runs } => {
                if runs.len() != expected_runs {
                    return Err(format!(
                        "response carried {} runs, expected {expected_runs}",
                        runs.len()
                    ));
                }
                (request_id, Settled::Runs(runs))
            }
            ShardResponseV2::Error {
                request_id,
                message,
            } => (request_id, Settled::Remote(message)),
            ShardResponseV2::CacheMiss { request_id, digest } => {
                (request_id, Settled::CacheMiss { digest })
            }
        };
    if request_id != expected_id {
        return Err(format!(
            "response echoed request id {request_id}, expected {expected_id} — desynced"
        ));
    }
    Ok(settled)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)
}

/// The first buffer [`read_frame`] reserves for a payload; every real
/// request and response of the repo's workloads fits in it.
const FRAME_READ_CHUNK: usize = 64 * 1024;

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF inside a frame is an error.
///
/// # Errors
///
/// Propagates I/O failures; an oversized length prefix is reported as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 8];
    let mut filled = 0usize;
    while filled < 8 {
        // Retry EINTR like `read_exact` does for the payload below — a
        // signal landing mid-prefix must not be mistaken for a dead
        // worker.
        let n = match r.read(&mut len_bytes[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    // Grow the buffer geometrically as bytes arrive, never past the
    // declared length: a prefix that promises more than the peer sends
    // costs at most twice what actually arrived, not the whole cap.
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let target = (payload.len() * 2).max(FRAME_READ_CHUNK).min(len);
        payload.reserve_exact(target - payload.len());
        let want = (target - payload.len()) as u64;
        if (&mut *r).take(want).read_to_end(&mut payload)? < want as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside a frame payload",
            ));
        }
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Validates parameters + coefficients and builds the system, every
/// failure as a value.
fn build_system(params: &CircuitParams, coeffs: &[f64]) -> Result<OpticalScSystem, String> {
    params.validate().map_err(|e| e.to_string())?;
    let poly = BernsteinPoly::new(coeffs.to_vec()).map_err(|e| e.to_string())?;
    OpticalScSystem::new(*params, poly).map_err(|e| e.to_string())
}

/// Evaluates one decoded job on an already-built system, as a value —
/// every failure (out-of-range input, an unframeable response) comes
/// back as `Err`. The decoder has already bounded the stream length
/// and the index ranges.
fn evaluate_job(
    system: &OpticalScSystem,
    sng: SngKind,
    seed: u64,
    stream_length: u64,
    faults: Option<&FaultSpec>,
    job: &ShardJob,
) -> Result<Vec<OpticalRun>, String> {
    let stream_length =
        usize::try_from(stream_length).map_err(|_| "stream length overflows usize".to_string())?;
    // Refuse upfront a job whose response could not be framed — the
    // coordinator side plans against the same bound, so this only
    // triggers for foreign clients, before any evaluation work.
    let runs = job.expected_runs();
    if response_frame_bound(runs) > MAX_FRAME_BYTES {
        return Err(format!(
            "a {runs}-run response would exceed the {MAX_FRAME_BYTES}-byte frame cap — \
             split the job across more requests"
        ));
    }
    let evaluator = BatchEvaluator::new();
    dispatch_sng!(sng, factory => match job {
        ShardJob::Batch { first_index, xs } => evaluator.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            factory,
            seed,
            *first_index,
            faults,
        ),
        ShardJob::ImageRows {
            width,
            first_row,
            pixels,
        } => image_rows_eval(
            &evaluator,
            system,
            &factory,
            // The decoder made `width` divide the pixel count, so it fits
            // in a usize whenever there are pixels; without pixels it is
            // never used.
            usize::try_from(*width).unwrap_or(usize::MAX),
            *first_row,
            pixels,
            stream_length,
            seed,
            faults,
        ),
    })
    .map_err(|e| e.to_string())
}

/// Evaluates row-major image pixels (`width` per row, the first at
/// global row `first_row`) on `evaluator`'s threads: rows fan across
/// the workers, and within a row pixels run through the lane-blocked
/// fused kernel in blocks of 8/4/2/1 ([`lane_blocks`]). Pixel `(row,
/// col)` draws from `mix_seed(mix_seed(seed, global row), col)`, and a
/// fault spec rebases the same way (by global row, then column), so
/// the runs depend only on the global pixel position: the in-process
/// image path ([`Executor::InProcess`]) and every shard of a worker job
/// call this one function and agree byte for byte. Pixels are clamped
/// into `[0, 1]`.
///
/// # Errors
///
/// An invalid fault spec ([`FaultSpec::validate`]) or pixels that are
/// not a whole number of `width`-sized rows before any work, otherwise
/// the first evaluation failure by row order.
#[allow(clippy::too_many_arguments)]
pub fn image_rows_eval<S, F>(
    evaluator: &BatchEvaluator,
    system: &OpticalScSystem,
    factory: &F,
    width: usize,
    first_row: u64,
    pixels: &[f64],
    stream_length: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Result<Vec<OpticalRun>, crate::CircuitError>
where
    S: osc_stochastic::sng::StochasticNumberGenerator,
    F: Fn(u64) -> S + Sync,
{
    use crate::system::EvalScratch;
    if let Some(spec) = faults {
        spec.validate().map_err(|e| {
            crate::CircuitError::InvalidStructure(format!("invalid fault spec: {e}"))
        })?;
    }
    let rows = whole_rows(width, pixels.len()).map_err(crate::CircuitError::InvalidStructure)?;
    let rows: Vec<usize> = (0..rows).collect();
    // An image without rows plans no blocks, whatever width it claims.
    let blocks = if rows.is_empty() {
        Vec::new()
    } else {
        lane_blocks(width)
    };
    let produced = evaluator.par_map_with(&rows, EvalScratch::new, |scratch, _, &r| {
        let row_seed = mix_seed(seed, first_row + r as u64);
        let row_spec = faults.map(|spec| spec.rebased(first_row + r as u64));
        let row_pixels = &pixels[r * width..(r + 1) * width];
        let mut out_row = Vec::with_capacity(width);
        for &(start, bw) in &blocks {
            let mut xs = [0.0f64; 8];
            for (slot, &p) in xs.iter_mut().zip(&row_pixels[start..start + bw]) {
                *slot = p.clamp(0.0, 1.0);
            }
            let runs = evaluate_lane_block(
                system,
                &xs[..bw],
                stream_length,
                factory,
                |k| mix_seed(row_seed, (start + k) as u64),
                row_spec
                    .as_ref()
                    .map(|spec| move |k: usize| spec.rebased((start + k) as u64)),
                scratch,
            )?;
            out_row.extend(runs);
        }
        Ok::<Vec<OpticalRun>, crate::CircuitError>(out_row)
    });
    let mut out = Vec::with_capacity(pixels.len());
    for row in produced {
        out.extend(row?);
    }
    Ok(out)
}

/// The worker-side circuit cache: the most recently used built systems
/// (capacity [`CIRCUIT_CACHE_CAPACITY`] unless overridden via
/// [`CIRCUIT_CACHE_ENV`]), keyed by digest and (for inline insertions)
/// the full canonical key.
struct CircuitCache {
    entries: Vec<(u64, Vec<u8>, OpticalScSystem)>,
    capacity: usize,
}

impl CircuitCache {
    /// A cache holding at most `capacity` systems (at least 1 — a
    /// zero-capacity cache would make every cached reference a
    /// permanent miss loop).
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CircuitCache {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Looks a digest up, refreshing its LRU position on a hit.
    fn get(&mut self, digest: u64) -> Option<&OpticalScSystem> {
        let idx = self.entries.iter().position(|&(d, _, _)| d == digest)?;
        let entry = self.entries.remove(idx);
        self.entries.insert(0, entry);
        Some(&self.entries[0].2)
    }

    /// Resolves an inline circuit: reuses a cached system whose digest
    /// AND full key match (so a digest collision rebuilds instead of
    /// evaluating the wrong circuit), building otherwise. An insertion
    /// evicts any same-digest entry with a *different* key, so a digest
    /// maps to at most one cached system at all times — the invariant
    /// that keeps [`CircuitRef::Cached`] lookups unambiguous (the
    /// pool's key-checked mirror then guarantees a cached reference
    /// can only ever resolve to the circuit it last shipped inline).
    fn resolve_inline(
        &mut self,
        params: &CircuitParams,
        coeffs: &[f64],
    ) -> Result<&OpticalScSystem, String> {
        let key = circuit_key(params, coeffs);
        let digest = circuit_digest(params, coeffs);
        match self
            .entries
            .iter()
            .position(|(d, k, _)| *d == digest && *k == key)
        {
            Some(idx) => {
                let entry = self.entries.remove(idx);
                self.entries.insert(0, entry);
            }
            None => {
                let system = build_system(params, coeffs)?;
                self.entries.retain(|(d, _, _)| *d != digest);
                self.entries.insert(0, (digest, key, system));
                self.entries.truncate(self.capacity);
            }
        }
        Ok(&self.entries[0].2)
    }
}

/// Evaluates one decoded request against the worker's circuit cache.
fn handle_request(req: &ShardRequestV2, cache: &mut CircuitCache) -> ShardResponseV2 {
    let request_id = req.request_id;
    let system = match &req.circuit {
        CircuitRef::Cached { digest } => match cache.get(*digest) {
            Some(system) => system,
            None => {
                return ShardResponseV2::CacheMiss {
                    request_id,
                    digest: *digest,
                }
            }
        },
        CircuitRef::Inline { params, coeffs } => match cache.resolve_inline(params, coeffs) {
            Ok(system) => system,
            Err(message) => {
                return ShardResponseV2::Error {
                    request_id,
                    message,
                }
            }
        },
    };
    match evaluate_job(
        system,
        req.sng,
        req.seed,
        req.stream_length,
        req.faults.as_ref(),
        &req.job,
    ) {
        Ok(runs) => ShardResponseV2::Runs { request_id, runs },
        Err(message) => ShardResponseV2::Error {
            request_id,
            message,
        },
    }
}

/// The request ID of a frame, best effort — used to echo an ID even
/// when the rest of the payload fails to decode (0 when the frame is
/// too short to hold one).
fn peek_request_id(payload: &[u8]) -> u64 {
    payload
        .get(8..16)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .unwrap_or(0)
}

/// Answers one already-read frame payload. A frame that fails to decode
/// (bad magic, another version, a bound violated) gets an error response
/// echoing [`peek_request_id`]; panics inside evaluation are caught and
/// reported the same way.
fn answer_payload(payload: &[u8], cache: &mut CircuitCache) -> Vec<u8> {
    let response = match decode_request_v2(payload) {
        Err(e) => ShardResponseV2::Error {
            request_id: peek_request_id(payload),
            message: format!("bad request: {e}"),
        },
        Ok(req) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_request(&req, cache)
            })) {
                Ok(resp) => resp,
                Err(panic) => ShardResponseV2::Error {
                    request_id: req.request_id,
                    message: format!("worker panicked: {}", panic_message(panic.as_ref())),
                },
            }
        }
    };
    encode_response_v2(&response)
}

/// The worker loop: reads request frames from `input` until EOF,
/// answering each with exactly one response frame on `output`, with a
/// circuit cache (capacity [`CIRCUIT_CACHE_CAPACITY`]) that persists
/// across requests for the cached-circuit path.
///
/// Every failure mode that can be expressed as a value is: malformed
/// requests, frames of another protocol version, out-of-bounds sizes,
/// invalid configurations and evaluation errors come back as error
/// responses, and panics inside evaluation are caught and reported the
/// same way — the process boundary only ever sees clean frames or EOF.
/// The loop survives every answered error, so one bad request never
/// costs a live worker.
///
/// # Errors
///
/// Propagates I/O failures on the transport itself (a vanished pipe, a
/// truncated frame, a length prefix above [`MAX_FRAME_BYTES`]) — the
/// cases where the stream cannot be resynchronized and exiting is the
/// only safe answer; the coordinator sees a dead worker and retries on
/// a fresh process.
pub fn serve<R: Read, W: Write>(mut input: R, mut output: W) -> std::io::Result<()> {
    // Test hook: a positive OSC_SERVE_DELAY_MS makes this worker slow
    // (sleep before each answer) without changing a single output byte.
    let delay = std::env::var(SERVE_DELAY_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis);
    let capacity = std::env::var(CIRCUIT_CACHE_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(CIRCUIT_CACHE_CAPACITY);
    let mut cache = CircuitCache::with_capacity(capacity);
    while let Some(payload) = read_frame(&mut input)? {
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        write_frame(&mut output, &answer_payload(&payload, &mut cache))?;
        output.flush()?;
    }
    Ok(())
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Locates a worker binary named `name`: a set [`WORKER_ENV`]
/// environment variable is authoritative (a path that does not exist
/// yields `None` rather than silently falling back to a possibly stale
/// sibling binary); otherwise the directory of the current executable
/// and its parent are searched (covering `target/<profile>/` siblings
/// and `target/<profile>/deps/` test binaries).
pub fn locate_worker(name: &str) -> Option<PathBuf> {
    if let Ok(path) = std::env::var(WORKER_ENV) {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join(&file), dir.parent()?.join(&file)]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// Conservative upper bound on a request's encoded frame size, in
/// bytes (header + fault block + params + coefficients + job payload,
/// with slack).
fn request_frame_bound(req: &ShardRequest) -> u64 {
    320 + (req.coeffs.len() as u64 + req.job.expected_runs() as u64) * 8
}

/// The encoded size of a runs response carrying `runs` items (header +
/// count + 40 bytes per run, with slack).
fn response_frame_bound(runs: usize) -> u64 {
    32 + runs as u64 * 40
}

/// Rejects a request whose encoded frame — or whose *response* frame —
/// would exceed [`MAX_FRAME_BYTES`], so an over-large shard fails
/// upfront as a clean plan error instead of after the worker has done
/// all the work (the response cap bounds one shard to ~6.7M items).
fn check_frame_bounds(req: &ShardRequest, expected: usize) -> Result<(), ShardError> {
    let request = request_frame_bound(req);
    if request > MAX_FRAME_BYTES {
        return Err(ShardError::InvalidPlan(format!(
            "request frame (~{request} bytes) exceeds the {MAX_FRAME_BYTES}-byte cap — \
             split the batch across more shards"
        )));
    }
    let response = response_frame_bound(expected);
    if response > MAX_FRAME_BYTES {
        return Err(ShardError::InvalidPlan(format!(
            "a {expected}-run response (~{response} bytes) would exceed the \
             {MAX_FRAME_BYTES}-byte cap — split the batch across more shards"
        )));
    }
    Ok(())
}

/// Builds the per-shard batch requests for a plan over `xs`. The same
/// request-level fault spec rides every shard — workers rebase it per
/// global item index, so the split is unobservable.
fn batch_requests(
    system: &OpticalScSystem,
    sng: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
    shards: usize,
) -> (Vec<ShardRequest>, Vec<usize>) {
    let plan = ShardPlan::new(xs.len(), shards);
    let requests = plan
        .ranges()
        .iter()
        .map(|&(start, len)| ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng,
            seed,
            stream_length: stream_length as u64,
            faults: faults.copied(),
            job: ShardJob::Batch {
                first_index: start as u64,
                xs: xs[start..start + len].to_vec(),
            },
        })
        .collect();
    let expected = plan.ranges().iter().map(|&(_, len)| len).collect();
    (requests, expected)
}

/// Builds the per-shard image-row requests for a plan over the rows.
#[allow(clippy::too_many_arguments)]
fn image_requests(
    system: &OpticalScSystem,
    sng: SngKind,
    width: usize,
    pixels: &[f64],
    stream_length: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
    shards: usize,
) -> Result<(Vec<ShardRequest>, Vec<usize>), ShardError> {
    let rows = whole_rows(width, pixels.len()).map_err(ShardError::InvalidPlan)?;
    let plan = ShardPlan::new(rows, shards);
    let requests = plan
        .ranges()
        .iter()
        .map(|&(start, len)| ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng,
            seed,
            stream_length: stream_length as u64,
            faults: faults.copied(),
            job: ShardJob::ImageRows {
                width: width as u64,
                first_row: start as u64,
                pixels: pixels[start * width..(start + len) * width].to_vec(),
            },
        })
        .collect();
    let expected = plan.ranges().iter().map(|&(_, len)| len * width).collect();
    Ok((requests, expected))
}

/// Runs a planned call of [`Executor::Spawn`] on a one-shot pool with
/// one worker per shard, so each worker takes exactly one contiguous
/// range, and merges the runs in plan order. The plan comes first: an
/// invalid one fails before any spawn, and an empty one spawns nothing.
fn spawn_once(
    config: &pool::PoolConfig,
    requests: &[ShardRequest],
    expected: &[usize],
) -> Result<Vec<OpticalRun>, ShardError> {
    if requests.is_empty() {
        return Ok(Vec::new());
    }
    let mut config = config.clone();
    config.workers = requests.len();
    let merged = config.spawn()?.run_requests(requests, expected)?;
    Ok(merged.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_request(job: ShardJob) -> ShardRequest {
        ShardRequest {
            params: CircuitParams::paper_fig5(),
            coeffs: vec![0.25, 0.625, 0.75],
            sng: SngKind::Xoshiro,
            seed: 42,
            stream_length: 256,
            faults: None,
            job,
        }
    }

    /// Encodes `req` with its circuit inline, decodes the frame and
    /// reassembles the request it carries.
    fn roundtrip(req: &ShardRequest, request_id: u64) -> ShardRequest {
        let decoded = decode_request_v2(&encode_request_v2(req, request_id, None)).unwrap();
        assert_eq!(decoded.request_id, request_id);
        let CircuitRef::Inline { params, coeffs } = decoded.circuit else {
            panic!("expected an inline circuit, got {:?}", decoded.circuit);
        };
        ShardRequest {
            params,
            coeffs,
            sng: decoded.sng,
            seed: decoded.seed,
            stream_length: decoded.stream_length,
            faults: decoded.faults,
            job: decoded.job,
        }
    }

    #[test]
    fn plan_covers_everything_contiguously_and_balanced() {
        for items in 0..40usize {
            for shards in 1..10usize {
                let plan = ShardPlan::new(items, shards);
                assert_eq!(plan.items(), items, "items={items} shards={shards}");
                let mut next = 0usize;
                let (mut min_len, mut max_len) = (usize::MAX, 0usize);
                for &(start, len) in plan.ranges() {
                    assert_eq!(start, next, "items={items} shards={shards}");
                    assert!(len > 0, "empty range must be dropped");
                    min_len = min_len.min(len);
                    max_len = max_len.max(len);
                    next = start + len;
                }
                assert_eq!(next, items);
                if !plan.ranges().is_empty() {
                    assert!(max_len - min_len <= 1, "balanced split");
                    assert_eq!(plan.ranges().len(), shards.min(items));
                }
            }
        }
        assert_eq!(ShardPlan::new(10, 0).ranges().len(), 1, "0 shards → 1");
        assert_eq!(
            ShardPlan::new(7, 3).ranges(),
            &[(0, 3), (3, 2), (5, 2)],
            "ragged split"
        );
    }

    #[test]
    fn image_request_roundtrips() {
        let mut req = fig5_request(ShardJob::ImageRows {
            width: 3,
            first_row: 7,
            pixels: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        });
        req.sng = SngKind::Counter;
        assert_eq!(roundtrip(&req, 11), req);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        let good = encode_request_v2(&req, 9, None);
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_request_v2(&bad).unwrap_err().contains("magic"));
        // Every version but the one this build speaks, the retired ones
        // included.
        for version in [1u32, 2, 4, 99] {
            let mut bad = good.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            let err = decode_request_v2(&bad).unwrap_err();
            assert!(err.contains(&format!("version {version}")), "{err}");
        }
        // Truncation at every length: never a panic, always an Err.
        for cut in 0..good.len() {
            assert!(decode_request_v2(&good[..cut]).is_err(), "cut={cut}");
        }
        // Unknown circuit kind.
        let mut bad = good.clone();
        bad[16] = 9;
        assert!(decode_request_v2(&bad).unwrap_err().contains("circuit"));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_request_v2(&bad).unwrap_err().contains("trailing"));
        // A declared element count far beyond the payload must be
        // rejected before any allocation attempt.
        let mut huge = good.clone();
        let coeff_count_at = 4 + 4 + 8 + 4 + 8 + 8 + 1 + 20 * 8;
        huge[coeff_count_at..coeff_count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_request_v2(&huge).unwrap_err().contains("exceed"));
        // Response-side garbage.
        assert!(decode_response_v2(&good).unwrap_err().contains("magic"));
        assert!(decode_response_v2(&[]).is_err());
        let resp = encode_response_v2(&ShardResponseV2::CacheMiss {
            request_id: 1,
            digest: 2,
        });
        for cut in 0..resp.len() {
            assert!(decode_response_v2(&resp[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_bounds_stream_lengths_and_index_ranges() {
        let batch = |first_index: u64, stream_length: u64| ShardRequest {
            stream_length,
            ..fig5_request(ShardJob::Batch {
                first_index,
                xs: vec![0.5, 0.5],
            })
        };
        let decode = |req: &ShardRequest| decode_request_v2(&encode_request_v2(req, 1, None));
        // The stream-length cap itself decodes; one bit past it does not.
        decode(&batch(0, MAX_STREAM_LENGTH)).unwrap();
        for stream_length in [MAX_STREAM_LENGTH + 1, 1 << 36, 1 << 40, u64::MAX] {
            let err = decode(&batch(0, stream_length)).unwrap_err();
            assert!(err.contains("stream length"), "{err}");
        }
        // The last index a two-item batch can start at decodes; one
        // further wraps and is refused.
        decode(&batch(u64::MAX - 2, 64)).unwrap();
        for first_index in [u64::MAX - 1, u64::MAX] {
            let err = decode(&batch(first_index, 64)).unwrap_err();
            assert!(err.contains("overflows"), "{err}");
        }
        // Image rows bound the same way, and a zero width is refused.
        let image = |width: u64, first_row: u64| {
            fig5_request(ShardJob::ImageRows {
                width,
                first_row,
                pixels: vec![0.5; 4],
            })
        };
        decode(&image(2, u64::MAX - 2)).unwrap();
        let err = decode(&image(2, u64::MAX - 1)).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let err = decode(&image(0, 0)).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }

    #[test]
    fn unframeable_shards_fail_as_plan_errors_before_any_work() {
        // A shard whose response could not fit in one frame must be
        // rejected upfront — not after minutes of evaluation.
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5], // stand-in; the expected count carries the size
        });
        let too_many_runs = (MAX_FRAME_BYTES / 40 + 1) as usize;
        let err = check_frame_bounds(&req, too_many_runs).unwrap_err();
        assert!(
            matches!(err, ShardError::InvalidPlan(ref msg) if msg.contains("response")),
            "{err}"
        );
        // A request body over the cap is equally a plan error. Claiming
        // a huge coefficient vector stands in for actually allocating
        // gigabytes of inputs.
        let mut huge = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        huge.coeffs = vec![0.5; (MAX_FRAME_BYTES / 8 + 1) as usize];
        let err = check_frame_bounds(&huge, 1).unwrap_err();
        assert!(
            matches!(err, ShardError::InvalidPlan(ref msg) if msg.contains("request")),
            "{err}"
        );
        // Ordinary shards pass with room to spare.
        check_frame_bounds(&req, 1).unwrap();
        check_frame_bounds(&req, 1_000_000).unwrap();
        // The worker enforces the same response bound as a value.
        let sys = OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap();
        let msg = evaluate_job(
            &sys,
            SngKind::Xoshiro,
            1,
            64,
            None,
            &ShardJob::Batch {
                first_index: 0,
                xs: vec![0.0; too_many_runs],
            },
        )
        .unwrap_err();
        assert!(msg.contains("frame cap"), "{msg}");
    }

    #[test]
    fn v2_requests_roundtrip_inline_and_cached() {
        let base = fig5_request(ShardJob::Batch {
            first_index: 3,
            xs: vec![0.0, 1.0, 0.123_456_789, f64::MIN_POSITIVE],
        });
        // Inline: the circuit travels in full, every f64 bit pattern
        // (subnormal-adjacent values included) unchanged.
        assert_eq!(roundtrip(&base, 0xFEED), base);
        // Cached: only the digest travels.
        let digest = circuit_digest(&base.params, &base.coeffs);
        let frame = encode_request_v2(&base, 7, Some(digest));
        assert!(
            frame.len() < encode_request_v2(&base, 7, None).len(),
            "cached reference must be smaller than the inline form"
        );
        let decoded = decode_request_v2(&frame).unwrap();
        assert_eq!(decoded.circuit, CircuitRef::Cached { digest });
        assert_eq!(decoded.job, base.job);
    }

    #[test]
    fn v2_responses_roundtrip_all_statuses() {
        let runs = ShardResponseV2::Runs {
            request_id: 42,
            runs: vec![
                OpticalRun {
                    estimate: 0.5,
                    ideal_estimate: 0.51,
                    exact: 0.52,
                    observed_ber: 1e-6,
                    stream_length: 1024,
                },
                OpticalRun {
                    estimate: 0.0,
                    ideal_estimate: 1.0,
                    exact: 0.25,
                    observed_ber: 0.0,
                    stream_length: 1,
                },
            ],
        };
        assert_eq!(
            decode_response_v2(&encode_response_v2(&runs)).unwrap(),
            runs
        );
        let err = ShardResponseV2::Error {
            request_id: 43,
            message: "no circuit for you".into(),
        };
        assert_eq!(decode_response_v2(&encode_response_v2(&err)).unwrap(), err);
        let miss = ShardResponseV2::CacheMiss {
            request_id: 44,
            digest: 0xDEAD_BEEF,
        };
        assert_eq!(
            decode_response_v2(&encode_response_v2(&miss)).unwrap(),
            miss
        );
        // A response of another version is refused, not reinterpreted.
        let mut old = encode_response_v2(&err);
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode_response_v2(&old).unwrap_err().contains("version 2"));
    }

    #[test]
    fn faulted_requests_negotiate_v3_and_roundtrip() {
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 2,
            xs: vec![0.25, 0.75],
        });
        // Clean and faulted requests share one version; a clean frame
        // carries an empty fault block (one zero byte after the stream
        // length).
        let clean = encode_request_v2(&req, 5, None);
        assert_eq!(clean[4..8], PROTOCOL_VERSION.to_le_bytes());
        assert_eq!(clean[36], 0);
        // A fault spec roundtrips exactly, including the stuck-at block
        // and both seeds.
        req.faults = Some(FaultSpec {
            flip_probability: 0.01,
            shift_probability: 0.001,
            stuck: Some(StuckAt {
                mask: 0x8000_0000_0000_0001,
                value: 1,
            }),
            ..FaultSpec::with_seed(99)
        });
        let frame = encode_request_v2(&req, 5, None);
        assert_eq!(frame[4..8], PROTOCOL_VERSION.to_le_bytes());
        assert_eq!(frame.len(), clean.len() + 49, "the fault block's bytes");
        let decoded = decode_request_v2(&frame).unwrap();
        assert_eq!(decoded.request_id, 5);
        assert_eq!(decoded.faults, req.faults);
        assert_eq!(decoded.job, req.job);
        // Cached circuit references compose with the fault block.
        let digest = circuit_digest(&req.params, &req.coeffs);
        let cached = decode_request_v2(&encode_request_v2(&req, 6, Some(digest))).unwrap();
        assert_eq!(cached.circuit, CircuitRef::Cached { digest });
        assert_eq!(cached.faults, req.faults);
        // Flip-only specs roundtrip without a stuck-at block.
        req.faults = Some(FaultSpec::flips(0.05, 7));
        let decoded = decode_request_v2(&encode_request_v2(&req, 7, None)).unwrap();
        assert_eq!(decoded.faults, req.faults);
        // Truncation inside the fault block: never a panic, always Err.
        let frame = encode_request_v2(&req, 7, None);
        for cut in 0..frame.len() {
            assert!(decode_request_v2(&frame[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn malformed_fault_specs_are_decode_errors_not_panics() {
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.faults = Some(FaultSpec::flips(0.5, 1));
        let good = encode_request_v2(&req, 1, None);
        // The flip probability sits directly after the 1-byte presence
        // flag at offset 37 (4 magic + 4 version + 8 id + 4 tag bytes +
        // 8 seed + 8 stream length + 1 flag).
        let prob_at = 37;
        assert_eq!(
            f64::from_bits(u64::from_le_bytes(
                good[prob_at..prob_at + 8].try_into().unwrap()
            )),
            0.5,
            "fault-block offset moved; update the test"
        );
        for bad_prob in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let mut bad = good.clone();
            bad[prob_at..prob_at + 8].copy_from_slice(&bad_prob.to_bits().to_le_bytes());
            let err = decode_request_v2(&bad).unwrap_err();
            assert!(err.contains("fault"), "{err}");
        }
        // The serve loop answers the malformed spec as an error value in
        // a clean response frame — never a worker death.
        let mut bad = good.clone();
        bad[prob_at..prob_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut input = Vec::new();
        write_frame(&mut input, &bad).unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().unwrap();
        match decode_response_v2(&payload).unwrap() {
            ShardResponseV2::Error {
                request_id,
                message,
            } => {
                assert_eq!(request_id, 1, "request ID echoed on decode failure");
                assert!(message.contains("fault"), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn circuit_digest_separates_circuits() {
        let params = CircuitParams::paper_fig5();
        let coeffs = [0.25, 0.625, 0.75];
        let d = circuit_digest(&params, &coeffs);
        assert_eq!(d, circuit_digest(&params, &coeffs), "digest is stable");
        assert_ne!(d, circuit_digest(&params, &[0.25, 0.625, 0.76]));
        let mut other = params;
        other.order = 3;
        assert_ne!(d, circuit_digest(&other, &coeffs));
    }

    #[test]
    fn backend_tag_separates_digests_and_cache_entries() {
        use crate::backend::BackendKind;
        let mrr = CircuitParams::paper_fig5();
        let nano = mrr.with_backend(BackendKind::Nanocavity);
        let coeffs = [0.25, 0.625, 0.75];
        // Identical numeric params + coefficients, different physics:
        // the canonical bytes and the digest must differ.
        assert_ne!(circuit_key(&mrr, &coeffs), circuit_key(&nano, &coeffs));
        assert_ne!(
            circuit_digest(&mrr, &coeffs),
            circuit_digest(&nano, &coeffs)
        );
        // Backward-compat rule: the default backend's tag bits are all
        // zero, so the order word encodes exactly as before the tag.
        let key = circuit_key(&mrr, &coeffs);
        assert_eq!(&key[..8], &(mrr.order as u64).to_le_bytes());
        // The worker-side cache therefore holds both as distinct
        // entries, each resolving to its own physics — the regression
        // this pins: without the tag these two would collide and the
        // second request would silently reuse the first's tables.
        let mut cache = CircuitCache::with_capacity(4);
        cache.resolve_inline(&mrr, &coeffs).unwrap();
        cache.resolve_inline(&nano, &coeffs).unwrap();
        assert_eq!(cache.entries.len(), 2);
        let mrr_hit = cache.get(circuit_digest(&mrr, &coeffs)).unwrap();
        assert_eq!(mrr_hit.backend_kind(), BackendKind::MrrMzi);
        let nano_hit = cache.get(circuit_digest(&nano, &coeffs)).unwrap();
        assert_eq!(nano_hit.backend_kind(), BackendKind::Nanocavity);
    }

    #[test]
    fn backend_tag_round_trips_and_unknown_tags_are_rejected() {
        use crate::backend::BackendKind;
        let req = ShardRequest {
            params: CircuitParams::paper_fig5().with_backend(BackendKind::Nanocavity),
            coeffs: vec![0.25, 0.625, 0.75],
            sng: SngKind::Xoshiro,
            stream_length: 64,
            seed: 7,
            job: ShardJob::Batch {
                first_index: 0,
                xs: vec![0.5],
            },
            faults: None,
        };
        assert_eq!(roundtrip(&req, 3), req);
        // An unknown tag fails decoding loudly instead of guessing.
        let mut frame = encode_request_v2(&req, 3, None);
        // magic + version + id + kind/job/sng/reserved + seed + stream
        // + empty fault block
        let order_word_at = 37;
        assert_eq!(frame[order_word_at..order_word_at + 4], 2u32.to_le_bytes());
        frame[order_word_at + 4..order_word_at + 8].copy_from_slice(&0xBEEFu32.to_le_bytes());
        assert!(decode_request_v2(&frame)
            .unwrap_err()
            .contains("unknown backend tag"));
    }

    #[test]
    fn circuit_cache_capacity_bounds_evictions() {
        let coeffs = [0.25, 0.625, 0.75];
        let a = CircuitParams::paper_fig5();
        let b = a.with_probe_power(Milliwatts::new(2.0));
        let c = a.with_probe_power(Milliwatts::new(3.0));
        let mut cache = CircuitCache::with_capacity(2);
        cache.resolve_inline(&a, &coeffs).unwrap();
        cache.resolve_inline(&b, &coeffs).unwrap();
        // Refresh `a`, then insert a third circuit: the LRU entry (`b`)
        // is the one evicted, and the cache never exceeds its capacity.
        assert!(cache.get(circuit_digest(&a, &coeffs)).is_some());
        cache.resolve_inline(&c, &coeffs).unwrap();
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(circuit_digest(&b, &coeffs)).is_none());
        assert!(cache.get(circuit_digest(&a, &coeffs)).is_some());
        assert!(cache.get(circuit_digest(&c, &coeffs)).is_some());
        // Capacity 0 is clamped to 1 rather than caching nothing.
        let mut tiny = CircuitCache::with_capacity(0);
        tiny.resolve_inline(&a, &coeffs).unwrap();
        assert_eq!(tiny.entries.len(), 1);
    }

    #[test]
    fn framing_roundtrips_and_detects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
        // EOF inside a frame is an error, not a silent None.
        let mut truncated = &buf[..3];
        assert!(read_frame(&mut truncated).is_err());
        let mut mid_payload = &buf[..10];
        assert!(read_frame(&mut mid_payload).is_err());
        // A hostile length prefix is rejected before allocating — both
        // the absurd and the just-past-the-cap case.
        for prefix in [u64::MAX, MAX_FRAME_BYTES + 1] {
            let mut hostile = Vec::new();
            hostile.extend_from_slice(&prefix.to_le_bytes());
            let err = read_frame(&mut &hostile[..]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{prefix}");
        }
    }

    /// Drives a request through the in-process worker loop; `Err` holds
    /// the worker's error message.
    fn serve_one(req: &ShardRequest) -> Result<Vec<OpticalRun>, String> {
        let mut input = Vec::new();
        write_frame(&mut input, &encode_request_v2(req, 1, None)).unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
        match decode_response_v2(&payload).unwrap() {
            ShardResponseV2::Runs { runs, .. } => Ok(runs),
            ShardResponseV2::Error { message, .. } => Err(message),
            miss => panic!("inline request answered with {miss:?}"),
        }
    }

    #[test]
    fn serve_answers_invalid_configs_as_values() {
        // Degree mismatch: coefficients say order 1, params say order 2.
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.coeffs = vec![0.5, 0.5];
        let msg = serve_one(&req).unwrap_err();
        assert!(msg.contains("degree"), "{msg}");
        // Out-of-range input.
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5, 1.5],
        });
        assert!(serve_one(&req).is_err());
        // Invalid params (order zero).
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.params.order = 0;
        assert!(serve_one(&req).is_err());
        // Ragged image payload.
        let req = fig5_request(ShardJob::ImageRows {
            width: 3,
            first_row: 0,
            pixels: vec![0.5; 7],
        });
        let msg = serve_one(&req).unwrap_err();
        assert!(msg.contains("multiple"), "{msg}");
        // A garbage frame still gets a clean error frame back.
        let mut input = Vec::new();
        write_frame(&mut input, b"not a request").unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().unwrap();
        assert!(matches!(
            decode_response_v2(&payload).unwrap(),
            ShardResponseV2::Error { .. }
        ));
    }

    #[test]
    fn serve_batch_matches_in_process_evaluation() {
        let system = OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap();
        let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let direct = BatchEvaluator::with_threads(2)
            .evaluate_many(&system, &xs, 256, XoshiroSng::new, 42)
            .unwrap();
        // Split 4 + 5 across two served requests.
        let mut merged = Vec::new();
        for (start, len) in [(0usize, 4usize), (4, 5)] {
            let req = fig5_request(ShardJob::Batch {
                first_index: start as u64,
                xs: xs[start..start + len].to_vec(),
            });
            merged.extend(serve_one(&req).expect("worker error"));
        }
        assert_eq!(merged, direct);
    }

    fn fig5_system() -> OpticalScSystem {
        OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn in_process_images_refuse_ragged_rows_like_the_decoder() {
        let system = fig5_system();
        let evaluator = BatchEvaluator::with_threads(2);
        let eval = |width: usize, pixels: &[f64]| {
            image_rows_eval(
                &evaluator,
                &system,
                &XoshiroSng::new,
                width,
                0,
                pixels,
                64,
                5,
                None,
            )
        };
        // Width 3 over 4 pixels, width 0 over 4 pixels and width 0 over
        // none: each one the decoder refuses, so in process they fail
        // too instead of returning fewer runs than pixels.
        for (width, n) in [(3usize, 4usize), (0, 4), (0, 0)] {
            let err = eval(width, &vec![0.5; n]).unwrap_err();
            assert!(
                err.to_string().contains("not a whole number"),
                "width {width}, {n} pixels: {err}"
            );
        }
        // Whole rows, and an empty image of any positive width, still
        // evaluate: one run per pixel.
        assert_eq!(eval(2, &[0.5; 4]).unwrap().len(), 4);
        assert!(eval(usize::MAX, &[]).unwrap().is_empty());
    }

    #[test]
    fn coordinator_plans_before_it_spawns() {
        // The worker binary does not exist, so any spawn would fail:
        // these calls must be answered from the plan alone.
        let system = fig5_system();
        let config = pool::PoolConfig::new("/nonexistent/shard_worker", 3);
        let mut spawn = Executor::Spawn(&config);
        let empty = spawn.batches(&[BatchJob {
            system: &system,
            sng: SngKind::Xoshiro,
            xs: &[],
            stream_length: 64,
            seed: 1,
            faults: None,
        }]);
        assert_eq!(empty, Ok(vec![Vec::new()]));
        let ragged = spawn.image(&system, SngKind::Xoshiro, 3, &[0.5; 4], 64, 1, None);
        assert!(
            matches!(ragged, Err(ShardError::InvalidPlan(_))),
            "{ragged:?}"
        );
    }

    #[test]
    fn locate_worker_honors_env_override() {
        // Point the override at a file that certainly exists.
        let me = std::env::current_exe().unwrap();
        std::env::set_var(WORKER_ENV, &me);
        assert_eq!(locate_worker("no-such-binary"), Some(me));
        // An explicit override naming a missing file is authoritative:
        // no fallback to sibling search, so a typo'd path fails fast
        // instead of picking up a stale binary.
        std::env::set_var(WORKER_ENV, "/nonexistent/override/worker");
        assert_eq!(locate_worker("no-such-binary"), None);
        std::env::remove_var(WORKER_ENV);
        assert_eq!(locate_worker("no-such-binary-anywhere"), None);
    }
}

//! Persistent shard-worker pools: spawn once, serve many requests.
//!
//! [`super::Executor::Spawn`] pays process spawn + circuit
//! construction on every call — fine for one big batch, ruinous for the
//! paper's image workloads, which are streams of *small* evaluations
//! (the `gamma_64x64_order6_sharded` trajectory entry documents that
//! overhead). A pool pays both once. It has one scheduler and two
//! front ends:
//!
//! - [`PoolDispatcher`] ([`PoolConfig::spawn_dispatcher`]) — the
//!   concurrent, shareable `submit(&self)` front end with a bounded
//!   queue (overload rejected as [`ShardError::Overloaded`] values) and
//!   graceful drain; the backend of [`super::service::Service`];
//! - [`WorkerPool`] ([`PoolConfig::spawn`]) — the batch front end for
//!   one caller: it owns a dispatcher, submits a whole batch at once
//!   and collects the replies in request order.
//!
//! The scheduler under both:
//!
//! - N `shard_worker` subprocesses are spawned **once** and kept alive
//!   across requests, each driven by a dedicated *pump* thread fed from
//!   one shared FIFO;
//! - each pump keeps up to [`PoolConfig::with_pipeline_depth`] requests
//!   (default 2) in flight on its worker's pipe. Refill is
//!   work-conserving: a pump with an empty pipeline takes the next
//!   queued request, and takes a further, pipelined one only while more
//!   requests are queued than there are pumps with an empty pipeline —
//!   so a batch of one request per worker lands on every worker, and a
//!   deeper batch keeps every pipe busy;
//! - the pool speaks the one wire protocol of [`super`]: every request
//!   carries an ID the worker echoes (desyncs are detected, not
//!   silently misattributed), and repeat circuits travel as
//!   [`super::CircuitRef::Cached`] digest
//!   references — each pump mirrors its worker's LRU cache state, and a
//!   stale mirror costs one clean
//!   [`super::ShardResponseV2::CacheMiss`] + inline resend, never a
//!   wrong result;
//! - a worker that dies or speaks garbage is **respawned
//!   transparently** and its requests replayed; the head-of-line
//!   request is charged one of its [`PoolConfig::with_retries`]
//!   attempts (default 1) — mid-stream worker death costs a respawn,
//!   not the stream, and the pool stays usable after an error;
//! - every response read carries a **per-request timeout**
//!   ([`PoolConfig::with_read_timeout`], default 60 s): each worker's
//!   stdout is drained by a dedicated reader thread feeding a channel,
//!   and a worker that stalls without dying is killed, respawned and
//!   retried exactly like a dead one — exhaustion surfaces as
//!   [`ShardError::Timeout`], so a hung worker can never hang a client
//!   stream. Consecutive respawns of the same worker back off
//!   exponentially (10 ms doubling to a 1 s cap) so a crash-looping
//!   worker binary cannot spin the coordinator at full speed.
//!
//! # Determinism contract
//!
//! Unchanged from [`super`] — pooled evaluation is **byte-identical**
//! to one-shot sharded, unsharded, and fused single-lane evaluation,
//! for every worker count, dispatch order, cache hit/miss pattern and
//! respawn history, because every work item's generator universe
//! depends only on `(seed, global index)`.

use super::{
    batch_requests, circuit_digest, circuit_key, encode_request_v2, image_requests, read_frame,
    settle_response, write_frame, Settled, ShardError, ShardRequest, SngKind,
    CIRCUIT_CACHE_CAPACITY,
};
use crate::fault::FaultSpec;
use crate::system::{OpticalRun, OpticalScSystem};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Default per-request response read timeout.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Default per-worker pipeline depth.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;
/// Default bound on a [`PoolDispatcher`]'s shared request queue.
pub const DEFAULT_QUEUE_CAP: usize = 64;
/// First respawn-backoff delay; doubles per consecutive respawn of the
/// same worker.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling on the respawn-backoff delay.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Configuration for a worker pool, consumed by [`PoolConfig::spawn`]
/// or [`PoolConfig::spawn_dispatcher`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    worker: PathBuf,
    pub(super) workers: usize,
    worker_threads: Option<usize>,
    retries: usize,
    read_timeout: Duration,
    pipeline_depth: usize,
    queue_cap: usize,
    response_delay: Option<Duration>,
    circuit_cache_capacity: Option<usize>,
}

impl PoolConfig {
    /// Configures a pool of `workers` processes (`0` is treated as `1`)
    /// of the given worker binary.
    pub fn new(worker: impl AsRef<Path>, workers: usize) -> Self {
        PoolConfig {
            worker: worker.as_ref().to_path_buf(),
            workers: workers.max(1),
            worker_threads: None,
            retries: 1,
            read_timeout: DEFAULT_READ_TIMEOUT,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            queue_cap: DEFAULT_QUEUE_CAP,
            response_delay: None,
            circuit_cache_capacity: None,
        }
    }

    /// Sets the per-request response read timeout (default 60 s). A
    /// worker that has not answered within this window is treated as
    /// stalled: killed, respawned and its request retried; exhausting
    /// retries surfaces [`ShardError::Timeout`]. Size it well above the
    /// slowest expected single-request evaluation.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Pins every worker's internal thread count by exporting
    /// [`crate::batch::THREADS_ENV`] (`OSC_THREADS`) into its
    /// environment. Results are identical either way; this bounds total
    /// CPU oversubscription.
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads.max(1));
        self
    }

    /// Sets how many times a failed request is retried on a freshly
    /// respawned worker before it fails.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets how many requests each worker keeps in flight on its pipe
    /// (default 2, `0` is treated as `1`), for [`WorkerPool`]s and
    /// [`PoolDispatcher`]s alike. Depth > 1 hides the write→read
    /// turnaround: a worker starts decoding its next request while its
    /// pump is still reading the previous response. Depth never starves
    /// a worker — a pump only pipelines while more requests are queued
    /// than there are pumps with nothing in flight.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Bounds a [`PoolDispatcher`]'s shared request queue (default 64,
    /// `0` is treated as `1`). A submit past the cap is rejected
    /// immediately with [`ShardError::Overloaded`] — backpressure as a
    /// value, never a silent drop or an unbounded memory footprint. The
    /// cap counts *waiting* requests; up to `workers × depth` more are
    /// in flight on worker pipes. A [`WorkerPool`] batch is exempt: it
    /// is its dispatcher's only client, and the cap bounds concurrent
    /// serving clients.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets every worker's circuit-cache capacity (default
    /// [`CIRCUIT_CACHE_CAPACITY`], `0` is treated as `1`) by exporting
    /// [`super::CIRCUIT_CACHE_ENV`] into its environment. The
    /// dispatcher's per-worker known-digest mirror is sized to match,
    /// so a cached reference is only ever sent for a circuit the worker
    /// can still hold. Design sweeps ([`crate::design::sweep`]) are the
    /// canonical caller: size the capacity to the sweep's working set
    /// (`sweep.designs().len()`) so every distinct circuit stays warm
    /// across probe revisits — an undersized cache costs rebuilds,
    /// never bytes.
    pub fn with_circuit_cache_capacity(mut self, capacity: usize) -> Self {
        self.circuit_cache_capacity = Some(capacity.max(1));
        self
    }

    /// The effective worker-side circuit-cache capacity.
    fn cache_capacity(&self) -> usize {
        self.circuit_cache_capacity
            .unwrap_or(CIRCUIT_CACHE_CAPACITY)
    }

    /// Test hook: exports [`super::SERVE_DELAY_ENV`] to every worker so
    /// each response is delayed by `delay` — a deterministically *slow*
    /// worker, byte-identical to a fast one. Used to pin pipelining
    /// timeout-attribution and drain semantics; not for production.
    #[doc(hidden)]
    pub fn with_response_delay(mut self, delay: Duration) -> Self {
        self.response_delay = Some(delay);
        self
    }

    /// Spawns the workers and returns the batch front end.
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] when any worker process cannot be launched
    /// (the `shard` field names the worker slot).
    pub fn spawn(self) -> Result<WorkerPool, ShardError> {
        Ok(WorkerPool {
            dispatcher: self.spawn_dispatcher()?,
        })
    }

    /// Spawns the workers and returns a concurrent [`PoolDispatcher`]:
    /// the serving-side pool front end, safe to share across threads,
    /// with a bounded queue ([`PoolConfig::with_queue_cap`]).
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] as for [`PoolConfig::spawn`].
    pub fn spawn_dispatcher(self) -> Result<PoolDispatcher, ShardError> {
        let slots = self.spawn_slots()?;
        let shared = Arc::new(DispatcherShared {
            state: Mutex::new(DispatchState {
                queue: VecDeque::new(),
                idle: slots.len(),
                pids: slots.iter().map(|s| s.child.id()).collect(),
                draining: false,
            }),
            ready: Condvar::new(),
            queue_cap: self.queue_cap,
        });
        let config = Arc::new(self);
        let pumps = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                std::thread::Builder::new()
                    .name(format!("osc-pool-pump-{index}"))
                    .spawn(move || {
                        Pump {
                            index,
                            slot,
                            inflight: VecDeque::new(),
                            streak: 0,
                            next_id: 1,
                            shared: &shared,
                            config: &config,
                        }
                        .run()
                    })
                    .expect("spawning a dispatcher pump thread")
            })
            .collect();
        Ok(PoolDispatcher {
            shared,
            pumps,
            config,
        })
    }

    /// Spawns one slot per configured worker, burning retries on
    /// transient spawn failures (EAGAIN under momentary pid/fd
    /// pressure), matching the pre-pool coordinator's per-shard
    /// behavior.
    fn spawn_slots(&self) -> Result<Vec<WorkerSlot>, ShardError> {
        let mut slots = Vec::with_capacity(self.workers);
        for slot in 0..self.workers {
            let mut attempt = 0usize;
            let spawned = loop {
                match spawn_slot(self) {
                    Ok(s) => break s,
                    Err(detail) if attempt >= self.retries => {
                        return Err(ShardError::Spawn {
                            shard: slot,
                            detail,
                        })
                    }
                    Err(_) => attempt += 1,
                }
            };
            slots.push(spawned);
        }
        Ok(slots)
    }
}

/// What the reader thread hands back per frame: a payload, a clean EOF
/// (`None`), or the transport error that ended the stream.
type ReadEvent = Result<Option<Vec<u8>>, String>;

/// One live worker subprocess plus the pool's mirror of its LRU
/// circuit-cache contents.
#[derive(Debug)]
struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    /// Frames from the dedicated reader thread draining this worker's
    /// stdout — the indirection that lets [`slot_read`] wait with a
    /// timeout instead of blocking forever on a stalled worker.
    frames: mpsc::Receiver<ReadEvent>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// `(digest, full circuit key)` pairs this worker's cache is
    /// believed to hold, most recently used first, truncated to
    /// [`CIRCUIT_CACHE_CAPACITY`] exactly as the worker truncates. The
    /// full key is kept so a cached reference is only ever sent for
    /// the exact circuit last shipped inline under that digest —
    /// digest collisions fall back to inline, mirroring the worker's
    /// one-circuit-per-digest invariant. Advisory only: drift is
    /// healed by the cache-miss fallback.
    known: VecDeque<(u64, Vec<u8>)>,
    /// Capacity of the worker cache this mirror shadows.
    cache_capacity: usize,
}

/// Records `(digest, key)` as the most recently used entry of a
/// worker-cache mirror, exactly as the worker's own LRU does (one
/// entry per digest, move to front, truncate at `capacity` — the
/// mirror must be sized exactly like the cache it shadows, or it
/// would promise circuits the worker has already evicted). Shared with
/// [`super::service::ServiceClient`], whose mirror of the service's
/// per-connection cache follows the same algorithm.
pub(crate) fn note_digest(
    known: &mut VecDeque<(u64, Vec<u8>)>,
    digest: u64,
    key: Vec<u8>,
    capacity: usize,
) {
    known.retain(|(d, _)| *d != digest);
    known.push_front((digest, key));
    known.truncate(capacity);
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        // `Child` does not reap on drop: kill + wait, or the worker
        // lingers as a zombie for the life of this process. This runs
        // on every exit path — normal drop, respawn, and unwinding
        // through a panicking caller — so the pool never leaks child
        // processes.
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The kill closed the worker's stdout, so the reader thread
        // sees EOF (or an error) promptly and exits; join it to avoid
        // accumulating detached threads across respawns.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn spawn_slot(config: &PoolConfig) -> Result<WorkerSlot, String> {
    let mut command = Command::new(&config.worker);
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(threads) = config.worker_threads {
        command.env(crate::batch::THREADS_ENV, threads.to_string());
    }
    if let Some(delay) = config.response_delay {
        command.env(super::SERVE_DELAY_ENV, delay.as_millis().to_string());
    }
    if let Some(capacity) = config.circuit_cache_capacity {
        command.env(super::CIRCUIT_CACHE_ENV, capacity.to_string());
    }
    // A just-written worker executable (a launcher script) stays "busy"
    // while a child another thread forked at that moment still holds
    // its write handle; the handle closes within milliseconds.
    let mut busy_waits = 0;
    let mut child = loop {
        match command.spawn() {
            Err(e) if e.kind() == std::io::ErrorKind::ExecutableFileBusy && busy_waits < 50 => {
                busy_waits += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            spawned => {
                break spawned.map_err(|e| format!("spawning {}: {e}", config.worker.display()))?
            }
        }
    };
    let stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    // The reader thread owns the stdout pipe and forwards every frame;
    // it ends on EOF, a transport error, or the receiver (the slot)
    // going away.
    let (tx, frames) = mpsc::channel();
    let reader = std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(Some(payload)) => {
                if tx.send(Ok(Some(payload))).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Ok(None));
                return;
            }
            Err(e) => {
                let _ = tx.send(Err(format!("reading response: {e}")));
                return;
            }
        }
    });
    Ok(WorkerSlot {
        child,
        stdin,
        frames,
        reader: Some(reader),
        known: VecDeque::new(),
        cache_capacity: config.cache_capacity(),
    })
}

/// A long-lived pool of `shard_worker` subprocesses serving batches of
/// [`ShardRequest`]s over the wire protocol — the single-caller
/// batch front end over an exclusively owned [`PoolDispatcher`].
///
/// Construct with [`PoolConfig::spawn`]; drive with
/// [`WorkerPool::evaluate_many`] / [`WorkerPool::image_rows`] (the same
/// planning and determinism contract as [`super::Executor::Spawn`]) or
/// [`WorkerPool::run_requests`] for pre-built request sets. Dropping
/// the pool kills and reaps every worker.
#[derive(Debug)]
pub struct WorkerPool {
    dispatcher: PoolDispatcher,
}

impl WorkerPool {
    /// The number of live worker processes.
    pub fn workers(&self) -> usize {
        self.dispatcher.workers()
    }

    /// OS process IDs of the current workers, in slot order — exposed
    /// so tests (and operators) can target a specific worker, e.g. to
    /// exercise kill-mid-stream recovery. A respawned worker's new pid
    /// replaces the old one.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.dispatcher.shared.lock().pids.clone()
    }

    /// Pooled sharded [`crate::batch::BatchEvaluator::evaluate_many`]:
    /// plans `xs` across the live workers and merges their runs in
    /// index order, optionally under a fault process that workers
    /// rebase by each item's global index. Byte-identical to the
    /// single-process evaluation — faulty or clean — for every worker
    /// count.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when a request cannot be completed (after
    /// respawn + retries) or a worker reports an evaluation failure; an
    /// invalid fault spec comes back as a remote error value.
    pub fn evaluate_many(
        &mut self,
        system: &OpticalScSystem,
        sng: SngKind,
        xs: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<Vec<OpticalRun>, ShardError> {
        let (requests, expected) =
            batch_requests(system, sng, xs, stream_length, seed, faults, self.workers());
        let merged = self.run_requests(&requests, &expected)?;
        Ok(merged.into_iter().flatten().collect())
    }

    /// Pooled [`super::Executor::image`]: plans the image's rows across
    /// the live workers, optionally under a fault process rebased per
    /// pixel by global row then column. Returns per-pixel runs in
    /// row-major order, byte-identical to the in-process row+lane
    /// pipeline for every worker count.
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidPlan`] when `pixels` is not a whole number
    /// of `width`-sized rows; otherwise as
    /// [`WorkerPool::evaluate_many`].
    #[allow(clippy::too_many_arguments)]
    pub fn image_rows(
        &mut self,
        system: &OpticalScSystem,
        sng: SngKind,
        width: usize,
        pixels: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<Vec<OpticalRun>, ShardError> {
        let (requests, expected) = image_requests(
            system,
            sng,
            width,
            pixels,
            stream_length,
            seed,
            faults,
            self.workers(),
        )?;
        let merged = self.run_requests(&requests, &expected)?;
        Ok(merged.into_iter().flatten().collect())
    }

    /// Runs a set of requests across the pool — request `i` is expected
    /// to produce `expected[i]` runs — and returns the per-request runs
    /// in request order. The whole batch enters the dispatcher's queue
    /// at once (exempt from the queue cap) and the pumps spread it over
    /// the workers; failed requests are transparently retried on
    /// respawned workers.
    ///
    /// # Errors
    ///
    /// The first [`ShardError`] in request order, naming the failing
    /// request index in its `shard` field. The batch's still-queued
    /// requests are dropped and those already on a worker pipe are
    /// waited out, so the pool is idle and usable when the error
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `requests` and `expected` differ in length.
    pub fn run_requests(
        &mut self,
        requests: &[ShardRequest],
        expected: &[usize],
    ) -> Result<Vec<Vec<OpticalRun>>, ShardError> {
        assert_eq!(
            requests.len(),
            expected.len(),
            "one expected count per request"
        );
        // Fail oversized shards as plan errors before any work: a
        // request (or its response) that cannot be framed would
        // otherwise cost a full evaluation per retry and surface as an
        // opaque transport error.
        for (req, &exp) in requests.iter().zip(expected) {
            super::check_frame_bounds(req, exp)?;
        }
        let answers: Vec<_> = {
            let mut state = self.dispatcher.shared.lock();
            requests
                .iter()
                .zip(expected)
                .enumerate()
                .map(|(shard, (request, &expected))| {
                    let (reply, answer) = mpsc::channel();
                    state.queue.push_back(DispatchJob {
                        request: request.clone(),
                        expected,
                        shard,
                        reply,
                    });
                    answer
                })
                .collect()
        };
        self.dispatcher.shared.ready.notify_all();
        let mut outputs = Vec::with_capacity(answers.len());
        for (shard, answer) in answers.iter().enumerate() {
            match await_reply(answer, shard) {
                Ok(runs) => outputs.push(runs),
                Err(e) => {
                    // Every queued job belongs to this batch. Dropping
                    // them disconnects their answers; the jobs already
                    // on a pipe still reply.
                    self.dispatcher.shared.lock().queue.clear();
                    for rest in &answers[shard + 1..] {
                        let _ = rest.recv();
                    }
                    return Err(e);
                }
            }
        }
        Ok(outputs)
    }
}

/// Blocks on one job's reply; a pump that exits without answering
/// surfaces as a worker failure of request `shard`.
fn await_reply(
    answer: &mpsc::Receiver<Result<Vec<OpticalRun>, ShardError>>,
    shard: usize,
) -> Result<Vec<OpticalRun>, ShardError> {
    answer.recv().unwrap_or_else(|_| {
        Err(ShardError::Worker {
            shard,
            detail: "dispatcher pump exited before answering".to_string(),
        })
    })
}

/// Writes one request frame to a slot, as a cached reference when the
/// slot's mirror says the worker holds the circuit (unless
/// `force_inline`), inline otherwise.
fn slot_send(
    slot: &mut WorkerSlot,
    req: &ShardRequest,
    id: u64,
    force_inline: bool,
) -> Result<(), String> {
    let digest = circuit_digest(&req.params, &req.coeffs);
    let key = circuit_key(&req.params, &req.coeffs);
    // Cached only on a full-key match: a digest collision with a
    // previously shipped circuit must fall back to inline, or the
    // worker would resolve the reference to the wrong system.
    let cached = !force_inline && slot.known.iter().any(|(d, k)| *d == digest && *k == key);
    let frame = encode_request_v2(req, id, cached.then_some(digest));
    write_frame(&mut slot.stdin, &frame)
        .and_then(|()| slot.stdin.flush())
        .map_err(|e| format!("writing request: {e}"))?;
    note_digest(&mut slot.known, digest, key, slot.cache_capacity);
    Ok(())
}

/// How a request attempt failed at the transport level. Timeouts are
/// tracked separately so exhausting retries on a stalled (rather than
/// dead) worker surfaces as [`ShardError::Timeout`].
enum Failure {
    Transport(String),
    Timeout(String),
}

impl Failure {
    fn into_shard_error(self, shard: usize) -> ShardError {
        match self {
            Failure::Transport(detail) => ShardError::Worker { shard, detail },
            Failure::Timeout(detail) => ShardError::Timeout { shard, detail },
        }
    }
}

/// Reads one response frame from a slot (waiting at most `timeout`)
/// and checks it against the oldest in-flight request id. A clean
/// frame — any clean frame — resets the slot's respawn streak.
fn slot_read(
    slot: &mut WorkerSlot,
    expected_id: u64,
    expected_runs: usize,
    timeout: Duration,
    streak: &mut u32,
) -> Result<Settled, Failure> {
    let payload = match slot.frames.recv_timeout(timeout) {
        Ok(Ok(Some(payload))) => payload,
        Ok(Ok(None)) => {
            let status = slot
                .child
                .try_wait()
                .map(|s| match s {
                    Some(status) => status.to_string(),
                    None => "still running".to_string(),
                })
                .unwrap_or_else(|e| format!("unknown ({e})"));
            return Err(Failure::Transport(format!(
                "worker closed its pipe without responding ({status})"
            )));
        }
        Ok(Err(e)) => return Err(Failure::Transport(e)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            return Err(Failure::Timeout(format!("no response within {timeout:?}")));
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(Failure::Transport(
                "worker reader thread exited without a final event".to_string(),
            ));
        }
    };
    // Any clean frame proves the worker is alive and making
    // progress; the slot's respawn backoff starts over.
    *streak = 0;
    settle_response(&payload, expected_id, expected_runs).map_err(Failure::Transport)
}

// ---------------------------------------------------------------------
// The dispatcher: shared FIFO + one pump thread per worker
// ---------------------------------------------------------------------

/// One submitted request awaiting a pump thread (or its response).
struct DispatchJob {
    request: ShardRequest,
    expected: usize,
    /// The `shard` field of every error this job settles to: the
    /// request index within a [`WorkerPool`] batch, 0 for a
    /// [`PoolDispatcher::submit`].
    shard: usize,
    reply: mpsc::Sender<Result<Vec<OpticalRun>, ShardError>>,
}

/// The dispatcher's shared FIFO plus the pumps' published state.
struct DispatchState {
    queue: VecDeque<DispatchJob>,
    /// Pumps with nothing in flight — the refill rule's measure of how
    /// many queued jobs already have a worker waiting for them.
    idle: usize,
    /// Each pump's current worker pid, republished on respawn.
    pids: Vec<u32>,
    draining: bool,
}

struct DispatcherShared {
    state: Mutex<DispatchState>,
    /// Signalled when the queue gains work or draining begins.
    ready: Condvar,
    queue_cap: usize,
}

impl DispatcherShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, DispatchState> {
        self.state.lock().expect("dispatcher lock")
    }
}

/// A concurrent, shareable front end over a worker pool — the serving
/// counterpart of the batch-oriented [`WorkerPool`], and the scheduler
/// under both.
///
/// Built by [`PoolConfig::spawn_dispatcher`]. Any number of threads
/// call [`PoolDispatcher::submit`] concurrently (`&self`); requests
/// enter one shared FIFO (fair: strict arrival order) and each worker
/// is driven by a dedicated *pump* thread that keeps up to
/// [`PoolConfig::with_pipeline_depth`] requests in flight on its pipe
/// (see the module doc for the work-conserving refill rule).
/// The queue is bounded ([`PoolConfig::with_queue_cap`]): a submit past
/// the cap returns [`ShardError::Overloaded`] immediately — the
/// backpressure contract is reject-with-error-value, never a silent
/// drop or an unbounded queue.
///
/// # Pipelining and timeout attribution
///
/// With depth > 1 a worker may hold several outstanding requests, but
/// responses on one pipe arrive strictly in request order, so the pump
/// always awaits the **oldest** in-flight id, and the read deadline
/// ([`PoolConfig::with_read_timeout`]) restarts at every response: the
/// deadline bounds *head-of-line service time*, not time since submit.
/// A slow response on one request id can therefore never be
/// misattributed as a timeout of a different in-flight request — each
/// request gets its own full window once it reaches the head.
///
/// # Failure semantics
///
/// A transport failure or timeout invalidates the worker's whole
/// pipeline: the pump kills + respawns the worker (exponential
/// backoff), charges **one attempt to the head-of-line request only** —
/// failing it as an error value once it is out of
/// [`PoolConfig::with_retries`] — and replays the surviving in-flight
/// requests, in order, on the fresh worker for free. Worker cache
/// misses are healed in place: the head is resent inline and rotates
/// to the back of the pipeline (its response now arrives after the
/// others). Remote errors settle just that request; the worker stays
/// up.
///
/// # Drain
///
/// [`PoolDispatcher::drain`] (also the `Drop` path) stops accepting
/// new submits ([`ShardError::Draining`]), lets every queued and
/// in-flight request finish, then joins the pumps and reaps the
/// workers.
///
/// Results are byte-identical to every other serving mode for any
/// worker count, depth, queue cap and respawn history — work-item
/// universes depend only on `(seed, global index)`.
pub struct PoolDispatcher {
    shared: Arc<DispatcherShared>,
    pumps: Vec<std::thread::JoinHandle<()>>,
    config: Arc<PoolConfig>,
}

impl std::fmt::Debug for PoolDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDispatcher")
            .field("workers", &self.workers())
            .field("queue_cap", &self.shared.queue_cap)
            .finish_non_exhaustive()
    }
}

impl PoolDispatcher {
    /// The number of worker processes (= pump threads).
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Requests currently waiting in the shared queue (excluding those
    /// already in flight on worker pipes).
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Evaluates one request through the pool, blocking until its
    /// response (or rejection) arrives. Safe to call from any number of
    /// threads concurrently.
    ///
    /// # Errors
    ///
    /// [`ShardError::Overloaded`] when the queue is at cap (the request
    /// was not evaluated — retry later), [`ShardError::Draining`] when
    /// the dispatcher is shutting down, [`ShardError::InvalidPlan`]
    /// when the request or its response cannot be framed, and the usual
    /// transport/remote errors once dispatched (the `shard` field is
    /// always 0 — a dispatcher request has no plan index).
    pub fn submit(&self, request: ShardRequest) -> Result<Vec<OpticalRun>, ShardError> {
        let expected = request.job.expected_runs();
        super::check_frame_bounds(&request, expected)?;
        let (reply, answer) = mpsc::channel();
        {
            let mut state = self.shared.lock();
            if state.draining {
                return Err(ShardError::Draining);
            }
            if state.queue.len() >= self.shared.queue_cap {
                return Err(ShardError::Overloaded {
                    queued: state.queue.len(),
                    cap: self.shared.queue_cap,
                });
            }
            state.queue.push_back(DispatchJob {
                request,
                expected,
                shard: 0,
                reply,
            });
        }
        self.shared.ready.notify_all();
        await_reply(&answer, 0)
    }

    /// Graceful shutdown: already-queued and in-flight requests finish
    /// (new submits are refused with [`ShardError::Draining`]), then
    /// the pumps are joined and every worker killed + reaped. Dropping
    /// the dispatcher drains it the same way.
    pub fn drain(self) {
        // Drop runs begin_drain.
    }

    fn begin_drain(&mut self) {
        // This runs in `Drop`, which must not panic: setting the flag is
        // valid even on a lock a panicked pump poisoned.
        self.shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .draining = true;
        self.shared.ready.notify_all();
        for pump in self.pumps.drain(..) {
            let _ = pump.join();
        }
    }
}

impl Drop for PoolDispatcher {
    fn drop(&mut self) {
        self.begin_drain();
    }
}

/// One request written to a pump's worker, awaiting its response.
struct Pending {
    job: DispatchJob,
    id: u64,
    attempts: usize,
    inline_retry_done: bool,
}

/// The per-worker dispatcher loop's state. Owns its [`WorkerSlot`], so
/// pump exit kills + reaps the worker.
struct Pump<'a> {
    /// This pump's worker slot index (its entry in the published pids).
    index: usize,
    slot: WorkerSlot,
    /// Requests written to the worker, oldest first.
    inflight: VecDeque<Pending>,
    /// Consecutive respawns since the worker's last clean response —
    /// drives the exponential backoff.
    streak: u32,
    next_id: u64,
    shared: &'a DispatcherShared,
    config: &'a PoolConfig,
}

impl Pump<'_> {
    /// Refill the pipeline from the shared FIFO, write the new
    /// requests, then settle the oldest in-flight response; exit once
    /// draining *and* idle.
    fn run(mut self) {
        while let Some(taken) = self.refill() {
            let first = self.inflight.len() - taken;
            let sent = self
                .inflight
                .range(first..)
                .try_for_each(|p| slot_send(&mut self.slot, &p.job.request, p.id, false));
            if let Err(e) = sent {
                // Recovery replays the whole pipeline, the requests not
                // yet written included.
                self.recover(Failure::Transport(e));
            }
            if !self.inflight.is_empty() {
                self.settle_head();
            }
        }
    }

    /// Moves this pump's share of the shared FIFO into its pipeline and
    /// returns how many requests it took. An empty pipeline blocks for
    /// its first request; further, pipelined requests are taken only
    /// while more are queued than there are idle pumps, so one request
    /// per worker lands on every worker. `None` once the dispatcher is
    /// draining and this pump has nothing left to do.
    fn refill(&mut self) -> Option<usize> {
        let shared = self.shared;
        let mut state = shared.lock();
        let before = self.inflight.len();
        if self.inflight.is_empty() {
            let job = loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.draining {
                    return None;
                }
                state = shared.ready.wait(state).expect("dispatcher lock");
            };
            state.idle -= 1;
            self.push(job);
        }
        while self.inflight.len() < self.config.pipeline_depth && state.queue.len() > state.idle {
            let job = state.queue.pop_front().expect("queue is non-empty");
            self.push(job);
        }
        Some(self.inflight.len() - before)
    }

    /// Appends a job to the pipeline under a fresh request id.
    fn push(&mut self, job: DispatchJob) {
        let id = self.fresh_id();
        self.inflight.push_back(Pending {
            job,
            id,
            attempts: 0,
            inline_retry_done: false,
        });
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Settles the head-of-line request with `result`. A pump whose
    /// pipeline empties counts itself idle *before* replying, so a
    /// caller holding every reply sees every finished pump as idle.
    fn answer(&mut self, result: Result<Vec<OpticalRun>, ShardError>) {
        let head = self
            .inflight
            .pop_front()
            .expect("answer on a live pipeline");
        if self.inflight.is_empty() {
            self.shared.lock().idle += 1;
        }
        // A gone receiver means the client vanished mid-request (or a
        // failed batch dropped it); the work is done and the worker is
        // healthy either way.
        let _ = head.job.reply.send(result);
    }

    /// Settles the oldest in-flight request: reply on runs or remote
    /// errors, heal cache misses by an inline resend that rotates the
    /// head to the back of the pipeline, and hand transport
    /// failures/timeouts to [`Pump::recover`].
    fn settle_head(&mut self) {
        let head = self
            .inflight
            .front()
            .expect("settle_head on a live pipeline");
        let (id, expected, shard, inline_retry_done) = (
            head.id,
            head.job.expected,
            head.job.shard,
            head.inline_retry_done,
        );
        let read = slot_read(
            &mut self.slot,
            id,
            expected,
            self.config.read_timeout,
            &mut self.streak,
        );
        let failure = match read {
            Ok(Settled::Runs(runs)) => return self.answer(Ok(runs)),
            // The worker evaluated and rejected; retrying cannot change
            // a deterministic answer.
            Ok(Settled::Remote(detail)) => {
                return self.answer(Err(ShardError::Remote { shard, detail }))
            }
            Ok(Settled::CacheMiss { digest }) if !inline_retry_done => {
                // Stale mirror: drop the digest, resend inline. The
                // answer now arrives after the rest of the pipeline, so
                // the head rotates to the back — response order follows
                // send order.
                self.slot.known.retain(|(d, _)| *d != digest);
                let mut head = self.inflight.pop_front().expect("head exists");
                head.id = self.fresh_id();
                head.inline_retry_done = true;
                let sent = slot_send(&mut self.slot, &head.job.request, head.id, true);
                match sent {
                    Ok(()) => {
                        self.inflight.push_back(head);
                        return;
                    }
                    Err(e) => {
                        // Restore pipeline order before recovering: the
                        // head is still the oldest unanswered request.
                        self.inflight.push_front(head);
                        Failure::Transport(e)
                    }
                }
            }
            Ok(Settled::CacheMiss { digest }) => Failure::Transport(format!(
                "worker reported a cache miss for digest {digest:#018x} on an inline request"
            )),
            Err(failure) => failure,
        };
        self.recover(failure);
    }

    /// Worker-level failure recovery: charge one attempt to the
    /// **head-of-line** request — failing it as an error value once out
    /// of retries — respawn the worker, and replay every surviving
    /// in-flight request, in order and for free, on the fresh worker.
    /// Only the head pays per failure, so a deep pipeline cannot burn
    /// one request's retries on a neighbor's misfortune.
    fn recover(&mut self, mut failure: Failure) {
        loop {
            if let Some(head) = self.inflight.front_mut() {
                head.attempts += 1;
                if head.attempts > self.config.retries {
                    let shard = head.job.shard;
                    // `failure` is moved here; every path that loops
                    // back assigns a fresh one first, so the *next*
                    // head is charged with its own failure, never a
                    // stale clone.
                    self.answer(Err(failure.into_shard_error(shard)));
                }
            }
            if let Err(detail) = self.respawn() {
                if self.inflight.is_empty() {
                    // Nothing to answer; the next job retries the spawn
                    // (and pays for it) when it arrives.
                    return;
                }
                failure = Failure::Transport(format!("respawning worker: {detail}"));
                continue;
            }
            // Replay the surviving pipeline oldest-first on the fresh
            // worker — inline by construction, its cache mirror is
            // empty.
            let next_id = &mut self.next_id;
            let replayed = self.inflight.iter_mut().try_for_each(|p| {
                p.id = *next_id;
                *next_id += 1;
                p.inline_retry_done = false;
                slot_send(&mut self.slot, &p.job.request, p.id, false)
            });
            match replayed {
                Ok(()) => return,
                Err(e) => failure = Failure::Transport(e),
            }
        }
    }

    /// Kills and replaces the worker with a fresh process (empty cache
    /// mirror) and publishes its pid, backing off exponentially — 10 ms
    /// doubling per consecutive respawn, capped at 1 s — so a
    /// crash-looping worker binary cannot spin the pump at full speed.
    fn respawn(&mut self) -> Result<(), String> {
        if self.streak > 0 {
            let backoff = RESPAWN_BACKOFF_BASE
                .saturating_mul(1u32 << (self.streak - 1).min(16))
                .min(RESPAWN_BACKOFF_CAP);
            std::thread::sleep(backoff);
        }
        self.streak = self.streak.saturating_add(1);
        // Dropping the old slot kills + reaps the old process.
        self.slot = spawn_slot(self.config)?;
        self.shared.lock().pids[self.index] = self.slot.child.id();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_builds() {
        let cfg = PoolConfig::new("worker", 0)
            .with_worker_threads(0)
            .with_retries(2)
            .with_pipeline_depth(0)
            .with_queue_cap(0);
        assert_eq!(cfg.workers, 1, "0 workers → 1");
        assert_eq!(cfg.worker_threads, Some(1), "0 threads → 1");
        assert_eq!(cfg.retries, 2);
        assert_eq!(cfg.pipeline_depth, 1, "0 depth → 1");
        assert_eq!(cfg.queue_cap, 1, "0 cap → 1");
        let defaults = PoolConfig::new("worker", 2);
        assert_eq!(defaults.pipeline_depth, DEFAULT_PIPELINE_DEPTH);
        assert_eq!(defaults.queue_cap, DEFAULT_QUEUE_CAP);
        assert_eq!(defaults.response_delay, None);
    }

    #[test]
    fn spawn_failure_is_a_value() {
        let err = PoolConfig::new("/nonexistent/worker/binary", 2)
            .spawn()
            .unwrap_err();
        assert!(matches!(err, ShardError::Spawn { shard: 0, .. }), "{err}");
    }

    #[test]
    fn dispatcher_spawn_failure_is_a_value() {
        let err = PoolConfig::new("/nonexistent/worker/binary", 2)
            .spawn_dispatcher()
            .unwrap_err();
        assert!(matches!(err, ShardError::Spawn { shard: 0, .. }), "{err}");
    }

    #[test]
    fn known_digest_mirror_is_lru_bounded() {
        // The mirror must track exactly what the worker's LRU does:
        // move-to-front on reuse, truncate at capacity.
        let mut known = VecDeque::new();
        for d in 0..CIRCUIT_CACHE_CAPACITY as u64 + 3 {
            note_digest(&mut known, d, vec![d as u8], CIRCUIT_CACHE_CAPACITY);
        }
        assert_eq!(known.len(), CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known[0].0, CIRCUIT_CACHE_CAPACITY as u64 + 2);
        // Reusing an old digest moves it to the front without growing —
        // and a re-ship under the same digest replaces the stored key,
        // keeping one entry per digest.
        let (tail, _) = known.back().unwrap().clone();
        note_digest(&mut known, tail, vec![0xFF], CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known[0], (tail, vec![0xFF]));
        assert_eq!(known.len(), CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known.iter().filter(|(d, _)| *d == tail).count(), 1);
        // A non-default capacity bounds the mirror the same way.
        let mut small = VecDeque::new();
        for d in 0..5u64 {
            note_digest(&mut small, d, vec![d as u8], 2);
        }
        assert_eq!(small.len(), 2);
        assert_eq!(small[0].0, 4);
        assert_eq!(small[1].0, 3);
    }
}

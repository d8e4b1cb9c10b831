//! The shared soak workload: a stream of small gamma/contrast image
//! requests, runnable through any serving mode.
//!
//! This is the one request schedule the CI `pool-soak` job, the
//! `gamma_pool` demo binary (every serving mode, spawn-per-request
//! included) and the `pool_small_requests_1024` trajectory workload all
//! drive, so "pooled ≡ sharded ≡ unsharded" is checked (and timed) on
//! **identical bytes** everywhere. Request `r` evaluates one small
//! [`Image::blobs`] frame through the paper's order-6 gamma circuit
//! when `r` is even and the order-3 smoothstep contrast circuit when
//! `r` is odd, with a per-request backend seed — the alternating
//! circuits keep both digests live in the workers' circuit caches,
//! so a pooled run exercises the cache-hit path on every request after
//! the first two.
//!
//! Every mode produces the pixels of every request, concatenated in
//! request order as little-endian IEEE-754 bit patterns
//! ([`SoakReport::bytes`]) — byte-identical across modes by the
//! sharding determinism contract, so a plain `cmp` is the whole
//! equivalence check.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::smoothstep_poly;
use osc_apps::gamma_app::{self, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_apps::AppError;
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::WorkerPool;
use osc_core::batch::shard::service::ServiceClient;
use osc_core::batch::shard::{ShardCoordinator, ShardRequest, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::OpticalRun;
use osc_units::Nanometers;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The request schedule: how many frames, their size, the stream
/// length per pixel evaluation, and an optional fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// How many requests to drive.
    pub requests: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Stream length (bits) per pixel evaluation.
    pub stream: usize,
    /// Optional fault process applied to every request (the fault-mode
    /// soak leg); `None` drives the clean pipeline. Faulty output is
    /// byte-identical across [`SoakMode`]s exactly like clean output.
    pub fault: Option<FaultSpec>,
    /// Which transmission physics realizes every request's circuit.
    /// Output for any backend is byte-identical across [`SoakMode`]s;
    /// the CI backend-matrix leg pins that per backend.
    pub backend: BackendKind,
}

impl Default for SoakConfig {
    /// A CI-sized schedule: 16 requests of 12×8 pixels at 128 bits,
    /// fault-free.
    fn default() -> Self {
        SoakConfig {
            requests: 16,
            width: 12,
            height: 8,
            stream: 128,
            fault: None,
            backend: BackendKind::MrrMzi,
        }
    }
}

/// Which serving architecture evaluates the requests.
pub enum SoakMode<'a> {
    /// The unsharded in-process row+lane pipeline — the reference.
    InProcess,
    /// A persistent [`WorkerPool`]: spawn + circuit build paid once.
    Pool(&'a mut WorkerPool),
    /// A [`ShardCoordinator`] per request: spawn + circuit build paid
    /// on **every** request — the baseline the pool amortizes.
    Spawn(&'a ShardCoordinator),
    /// One [`ServiceClient`] connection to a running `osc_service`
    /// front door: each request crosses the TCP framing once as a
    /// whole-image job. For the multi-connection load generator see
    /// [`run_service`].
    Service(&'a mut ServiceClient),
}

/// What a soak run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Every output pixel of every request, in request order, as
    /// little-endian IEEE-754 bit patterns — byte-identical across
    /// [`SoakMode`]s.
    pub bytes: Vec<u8>,
    /// Requests driven.
    pub requests: usize,
    /// Wall-clock for the whole stream.
    pub elapsed: Duration,
    /// Per-request wall times in request order (submit → complete
    /// response). Under the open-loop load generator a request's clock
    /// starts at send, so queueing delay counts — that is the point of
    /// open-loop measurement.
    pub latencies: Vec<Duration>,
}

impl SoakReport {
    /// Mean wall-clock per request, in milliseconds.
    pub fn ms_per_request(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3 / self.requests.max(1) as f64
    }

    /// p50/p95/p99 of the per-request wall times, in milliseconds.
    pub fn percentiles_ms(&self) -> (f64, f64, f64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        (
            percentile_ms(&sorted, 50.0),
            percentile_ms(&sorted, 95.0),
            percentile_ms(&sorted, 99.0),
        )
    }
}

/// Nearest-rank percentile of an **ascending-sorted** latency sample,
/// in milliseconds: the smallest element with at least `p`% of the
/// sample at or below it (`rank = ceil(p/100 · n)`, clamped into the
/// sample). No interpolation, no dependencies; an empty sample reports
/// `0.0`.
pub fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1].as_secs_f64() * 1e3
}

/// The backend seed of request `r` — deterministic and
/// request-distinct, shared by every mode.
fn request_seed(r: usize) -> u64 {
    0x50C5 + 7919 * r as u64
}

/// The two per-schedule circuit backends every mode derives its
/// per-request backends from (gamma on even requests, contrast on
/// odd).
fn schedule_bases(cfg: &SoakConfig) -> Result<(OpticalBackend, OpticalBackend), AppError> {
    let gamma_base = OpticalBackend::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)).with_backend(cfg.backend),
        paper_gamma_polynomial()?,
        cfg.stream,
        0,
    )?;
    let contrast_base = OpticalBackend::new(
        CircuitParams::paper_fig7(3, Nanometers::new(0.2)).with_backend(cfg.backend),
        smoothstep_poly(),
        cfg.stream,
        0,
    )?;
    Ok((gamma_base, contrast_base))
}

/// The backend of request `r`, derived from the schedule bases by the
/// cheap table-reusing `with_seed` clone — the same way a real service
/// front-end would.
fn request_backend(bases: &(OpticalBackend, OpticalBackend), r: usize) -> OpticalBackend {
    if r.is_multiple_of(2) {
        bases.0.with_seed(request_seed(r))
    } else {
        bases.1.with_seed(request_seed(r))
    }
}

/// The wire form of request `r`: the whole frame as one
/// [`ShardJob::ImageRows`](osc_core::batch::shard::ShardJob::ImageRows)
/// job, so a service replica reproduces the in-process row+lane pixel
/// universes exactly.
fn wire_request(
    cfg: &SoakConfig,
    bases: &(OpticalBackend, OpticalBackend),
    image: &Image,
    r: usize,
) -> Result<ShardRequest, AppError> {
    let backend = request_backend(bases, r);
    Ok(ShardRequest::whole_image(
        backend.system(),
        SngKind::Xoshiro,
        image.width(),
        image.pixels(),
        backend.stream_length(),
        backend.seed(),
        cfg.fault.as_ref(),
    )?)
}

/// The soak byte encoding of one response: every run's estimate through
/// the image pixel clamp, as little-endian IEEE-754 bit patterns —
/// exactly the bytes the in-process modes extract from their produced
/// [`Image`]s.
fn run_bytes(runs: &[OpticalRun]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(runs.len() * 8);
    for run in runs {
        bytes.extend_from_slice(&run.estimate.clamp(0.0, 1.0).to_bits().to_le_bytes());
    }
    bytes
}

/// Drives the soak schedule through `mode`.
///
/// # Errors
///
/// Propagates backend construction and evaluation failures (including
/// shard/pool failures as [`AppError::Shard`]).
pub fn run(cfg: &SoakConfig, mut mode: SoakMode<'_>) -> Result<SoakReport, AppError> {
    let image = Image::blobs(cfg.width, cfg.height);
    // The two circuits are fixed across the schedule: build each once
    // and derive per-request backends via the cheap table-reusing
    // `with_seed` clone, the same way a real service front-end would.
    let bases = schedule_bases(cfg)?;
    let evaluator = BatchEvaluator::new();
    let mut bytes = Vec::with_capacity(cfg.requests * cfg.width * cfg.height * 8);
    let mut latencies = Vec::with_capacity(cfg.requests);
    let started = Instant::now();
    for r in 0..cfg.requests {
        let backend = request_backend(&bases, r);
        let submitted = Instant::now();
        let produced = match &mut mode {
            SoakMode::InProcess => gamma_app::apply_optical_lanes_faulted(
                &image,
                &backend,
                &evaluator,
                cfg.fault.as_ref(),
            )?,
            SoakMode::Pool(pool) => {
                gamma_app::apply_optical_pooled_faulted(&image, &backend, pool, cfg.fault.as_ref())?
            }
            SoakMode::Spawn(coordinator) => gamma_app::apply_optical_sharded_faulted(
                &image,
                &backend,
                coordinator,
                cfg.fault.as_ref(),
            )?,
            SoakMode::Service(client) => {
                let request = wire_request(cfg, &bases, &image, r)?;
                let runs = client.request(&request)?;
                latencies.push(submitted.elapsed());
                bytes.extend_from_slice(&run_bytes(&runs));
                continue;
            }
        };
        latencies.push(submitted.elapsed());
        for &p in produced.pixels() {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    Ok(SoakReport {
        bytes,
        requests: cfg.requests,
        elapsed: started.elapsed(),
        latencies,
    })
}

/// How the multi-client load generator ([`run_service`]) spreads the
/// soak schedule over connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Concurrent client connections; request `r` rides connection
    /// `r % connections`.
    pub connections: usize,
    /// `false` (closed-loop): each connection awaits every response
    /// before sending its next request, so latency is pure service
    /// time. `true` (open-loop): each connection sends its whole burst
    /// up front and then reads the responses in order, so latency
    /// includes queueing delay under concurrency.
    pub open_loop: bool,
}

impl Default for LoadConfig {
    /// Three closed-loop connections — the smallest genuinely
    /// concurrent schedule.
    fn default() -> Self {
        LoadConfig {
            connections: 3,
            open_loop: false,
        }
    }
}

/// What one connection thread produced: `(request index, response
/// bytes, latency)` per request it carried.
type ConnectionTake = Vec<(usize, Vec<u8>, Duration)>;

/// Drives the soak schedule against a running `osc_service` front door
/// from `load.connections` concurrent client connections. Output bytes
/// are reassembled in request order, so the report is byte-identical
/// to every single-connection [`SoakMode`] — the replica
/// interchangeability the determinism contract promises.
///
/// # Errors
///
/// Propagates connection failures and shard protocol/evaluation errors
/// as [`AppError::Shard`]; backend construction failures as usual.
pub fn run_service(
    cfg: &SoakConfig,
    addr: SocketAddr,
    load: &LoadConfig,
) -> Result<SoakReport, AppError> {
    let connections = load.connections.max(1);
    let image = Image::blobs(cfg.width, cfg.height);
    let bases = schedule_bases(cfg)?;
    let requests: Vec<ShardRequest> = (0..cfg.requests)
        .map(|r| wire_request(cfg, &bases, &image, r))
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    let takes: Vec<Result<ConnectionTake, AppError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let requests = &requests;
                scope
                    .spawn(move || drive_connection(requests, addr, c, connections, load.open_loop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak connection thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut by_request: Vec<Option<(Vec<u8>, Duration)>> = vec![None; cfg.requests];
    for take in takes {
        for (r, bytes, latency) in take? {
            by_request[r] = Some((bytes, latency));
        }
    }
    let mut bytes = Vec::with_capacity(cfg.requests * cfg.width * cfg.height * 8);
    let mut latencies = Vec::with_capacity(cfg.requests);
    for slot in by_request {
        let (b, latency) = slot.expect("every request index is assigned to exactly one connection");
        bytes.extend_from_slice(&b);
        latencies.push(latency);
    }
    Ok(SoakReport {
        bytes,
        requests: cfg.requests,
        elapsed,
        latencies,
    })
}

/// One load-generator connection: carries every request `r` with
/// `r % connections == lane`, closed- or open-loop.
fn drive_connection(
    requests: &[ShardRequest],
    addr: SocketAddr,
    lane: usize,
    connections: usize,
    open_loop: bool,
) -> Result<ConnectionTake, AppError> {
    let mine: Vec<usize> = (lane..requests.len()).step_by(connections).collect();
    let mut client = ServiceClient::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| AppError::Shard(format!("connecting soak client {lane}: {e}")))?;
    let mut take = Vec::with_capacity(mine.len());
    if open_loop {
        // Send the whole burst, then read the responses in send order:
        // each latency spans send → complete response, so queueing
        // delay at the service counts.
        let mut sent = Vec::with_capacity(mine.len());
        for &r in &mine {
            let at = Instant::now();
            let (id, expected) = client.send_request(&requests[r])?;
            sent.push((r, id, expected, at));
        }
        for (r, id, expected, at) in sent {
            let runs = client.read_response(id, expected)?;
            take.push((r, run_bytes(&runs), at.elapsed()));
        }
    } else {
        for &r in &mine {
            let at = Instant::now();
            let runs = client.request(&requests[r])?;
            take.push((r, run_bytes(&runs), at.elapsed()));
        }
    }
    Ok(take)
}

/// Renders the one-line timing summary the demo binaries and the CI
/// soak job print.
pub fn summary_line(
    binary: &str,
    cfg: &SoakConfig,
    mode_name: &str,
    report: &SoakReport,
) -> String {
    let (p50, p95, p99) = report.percentiles_ms();
    format!(
        "[{binary}] soak: {} requests ({}x{}, stream {}, backend {}) via {mode_name}: total {:.3} s, {:.2} ms/request, p50 {p50:.2} ms, p95 {p95:.2} ms, p99 {p99:.2} ms",
        report.requests,
        cfg.width,
        cfg.height,
        cfg.stream,
        cfg.backend,
        report.elapsed.as_secs_f64(),
        report.ms_per_request()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..100).map(request_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn in_process_soak_is_deterministic() {
        let cfg = SoakConfig {
            requests: 3,
            width: 5,
            height: 2,
            stream: 64,
            ..Default::default()
        };
        let a = run(&cfg, SoakMode::InProcess).unwrap();
        let b = run(&cfg, SoakMode::InProcess).unwrap();
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.bytes.len(), 3 * 5 * 2 * 8);
        assert_eq!(a.latencies.len(), 3);
        let line = summary_line("test", &cfg, "in-process", &a);
        assert!(line.contains("3 requests"), "{line}");
        assert!(line.contains("ms/request"), "{line}");
        assert!(line.contains("p50"), "{line}");
        assert!(line.contains("p99"), "{line}");
    }

    fn millis(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_millis(v)).collect()
    }

    #[test]
    fn percentiles_of_known_distributions() {
        // 1..=100 ms: nearest rank puts p at exactly p ms.
        let sample = millis(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(percentile_ms(&sample, 50.0), 50.0);
        assert_eq!(percentile_ms(&sample, 95.0), 95.0);
        assert_eq!(percentile_ms(&sample, 99.0), 99.0);
        assert_eq!(percentile_ms(&sample, 100.0), 100.0);
        // A single element answers every percentile.
        let one = millis(&[7]);
        assert_eq!(percentile_ms(&one, 50.0), 7.0);
        assert_eq!(percentile_ms(&one, 99.0), 7.0);
        // Two elements: p50 is the first (rank ceil(0.5·2)=1), p99 the
        // second.
        let two = millis(&[10, 20]);
        assert_eq!(percentile_ms(&two, 50.0), 10.0);
        assert_eq!(percentile_ms(&two, 99.0), 20.0);
        // Empty sample reports zero rather than panicking.
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn report_percentiles_sort_before_ranking() {
        let report = SoakReport {
            bytes: Vec::new(),
            requests: 4,
            elapsed: Duration::from_millis(100),
            latencies: millis(&[40, 10, 30, 20]),
        };
        let (p50, p95, p99) = report.percentiles_ms();
        assert_eq!(p50, 20.0);
        assert_eq!(p95, 40.0);
        assert_eq!(p99, 40.0);
    }

    #[test]
    fn load_config_defaults_are_concurrent_closed_loop() {
        let load = LoadConfig::default();
        assert_eq!(load.connections, 3);
        assert!(!load.open_loop);
    }
}

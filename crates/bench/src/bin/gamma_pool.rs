//! Persistent-pool soak demo — the CI `pool-soak` entry point.
//!
//! ```text
//! gamma_pool [--workers N] [--requests R] [--spawn-per-request]
//!            [--service ADDR] [--connections N] [--open-loop]
//!            [--out PATH] [--stream BITS] [--size WxH]
//!            [--backend NAME] [--fault-flip P] [--fault-shift P]
//!            [--fault-seed S]
//! ```
//!
//! Drives the shared [`osc_bench::soak`] schedule — `R` small
//! alternating gamma/contrast image requests — through one of three
//! serving modes, writes every output pixel's raw little-endian
//! IEEE-754 bytes to `--out`, and prints a one-line timing summary:
//!
//! - `--workers N` (default 3): a persistent `N`-worker
//!   [`PoolConfig`]-spawned pool, circuits cached worker-side — spawn +
//!   build paid once for the whole stream;
//! - `--workers 0`: the unsharded in-process row+lane pipeline;
//! - `--spawn-per-request`: a fresh `N`-shard `ShardCoordinator` run
//!   per request — the per-request-spawn baseline the pool amortizes;
//! - `--service ADDR`: the multi-client load generator against a
//!   running `osc_service` front door at `ADDR` — `--connections N`
//!   (default 3) concurrent TCP connections share the schedule, and
//!   `--open-loop` switches each connection from awaiting every
//!   response (closed-loop) to sending its whole burst up front, so
//!   the p50/p95/p99 latencies include queueing delay.
//!
//! The determinism contract makes the output bytes **identical across
//! all modes and worker counts**, so CI `cmp`s them directly; the
//! timing lines are the amortization story.
//!
//! `--backend NAME` (`mrr-mzi`, the default, or `nanocavity`) selects
//! the transmission physics behind every request's circuit — the CI
//! backend-matrix leg runs the same schedule per backend and `cmp`s
//! bytes across modes exactly like the default leg.
//!
//! `--fault-flip` / `--fault-shift` / `--fault-seed` inject a seeded
//! fault process into every request (the CI `fault-soak` leg) — the
//! fault-universe determinism contract keeps faulty bytes identical
//! across modes and worker counts too.

use osc_bench::soak::{self, LoadConfig, SoakConfig, SoakMode};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{locate_worker, ShardCoordinator};
use osc_core::fault::FaultSpec;

fn fail(msg: &str) -> ! {
    eprintln!("gamma_pool: {msg}");
    std::process::exit(1);
}

/// Builds the optional fault process from the `--fault-*` flags: both
/// rates zero means the clean pipeline.
fn build_fault(flip: f64, shift: f64, seed: u64) -> Option<FaultSpec> {
    if flip == 0.0 && shift == 0.0 {
        return None;
    }
    let mut spec = FaultSpec::with_seed(seed);
    spec.flip_probability = flip;
    spec.shift_probability = shift;
    if let Err(e) = spec.validate() {
        fail(&format!("invalid fault flags: {e}"));
    }
    Some(spec)
}

fn main() {
    let mut workers = 3usize;
    let mut cfg = SoakConfig::default();
    let mut spawn_per_request = false;
    let mut service_addr: Option<String> = None;
    let mut load = LoadConfig::default();
    let mut out_path: Option<String> = None;
    let mut fault_flip = 0.0f64;
    let mut fault_shift = 0.0f64;
    let mut fault_seed = 0xFA07u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"))
            }
            "--requests" => {
                cfg.requests = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| fail("--requests needs an integer"))
            }
            "--spawn-per-request" => spawn_per_request = true,
            "--service" => service_addr = Some(value("--service")),
            "--connections" => {
                load.connections = value("--connections")
                    .parse()
                    .unwrap_or_else(|_| fail("--connections needs an integer"))
            }
            "--open-loop" => load.open_loop = true,
            "--out" => out_path = Some(value("--out")),
            "--stream" => {
                cfg.stream = value("--stream")
                    .parse()
                    .unwrap_or_else(|_| fail("--stream needs an integer"))
            }
            "--size" => {
                let v = value("--size");
                let (w, h) = v
                    .split_once('x')
                    .unwrap_or_else(|| fail("--size needs WxH"));
                cfg.width = w.parse().unwrap_or_else(|_| fail("--size needs WxH"));
                cfg.height = h.parse().unwrap_or_else(|_| fail("--size needs WxH"));
            }
            "--backend" => {
                let name = value("--backend");
                cfg.backend = BackendKind::parse(&name).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown backend {name} (expected mrr-mzi or nanocavity)"
                    ))
                })
            }
            "--fault-flip" => {
                fault_flip = value("--fault-flip")
                    .parse()
                    .unwrap_or_else(|_| fail("--fault-flip needs a probability"))
            }
            "--fault-shift" => {
                fault_shift = value("--fault-shift")
                    .parse()
                    .unwrap_or_else(|_| fail("--fault-shift needs a probability"))
            }
            "--fault-seed" => {
                fault_seed = value("--fault-seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--fault-seed needs an integer"))
            }
            other => fail(&format!(
                "unknown argument {other}\nusage: gamma_pool [--workers N] [--requests R] \
                 [--spawn-per-request] [--service ADDR] [--connections N] [--open-loop] \
                 [--out PATH] [--stream BITS] [--size WxH] [--backend NAME] \
                 [--fault-flip P] [--fault-shift P] [--fault-seed S]"
            )),
        }
    }
    cfg.fault = build_fault(fault_flip, fault_shift, fault_seed);

    let worker = || {
        locate_worker("shard_worker").unwrap_or_else(|| {
            fail("could not locate the shard_worker binary (build it, or set OSC_SHARD_WORKER)")
        })
    };
    let (report, mode_name) = if let Some(addr) = service_addr {
        let addr = addr
            .parse()
            .unwrap_or_else(|_| fail("--service needs HOST:PORT"));
        let report = soak::run_service(&cfg, addr, &load)
            .unwrap_or_else(|e| fail(&format!("service soak against {addr}: {e}")));
        let loop_name = if load.open_loop { "open" } else { "closed" };
        (
            report,
            format!(
                "service({addr}, {} conns, {loop_name}-loop)",
                load.connections
            ),
        )
    } else if workers == 0 {
        let report = soak::run(&cfg, SoakMode::InProcess)
            .unwrap_or_else(|e| fail(&format!("in-process soak: {e}")));
        (report, "in-process".to_string())
    } else if spawn_per_request {
        let coordinator = ShardCoordinator::new(worker(), workers);
        let report = soak::run(&cfg, SoakMode::Spawn(&coordinator))
            .unwrap_or_else(|e| fail(&format!("spawn-per-request soak: {e}")));
        (report, format!("spawn-per-request({workers})"))
    } else {
        let mut pool = PoolConfig::new(worker(), workers)
            .spawn()
            .unwrap_or_else(|e| fail(&format!("pool spawn: {e}")));
        let report = soak::run(&cfg, SoakMode::Pool(&mut pool))
            .unwrap_or_else(|e| fail(&format!("pooled soak: {e}")));
        (report, format!("pool({workers})"))
    };
    println!(
        "{}",
        soak::summary_line("gamma_pool", &cfg, &mode_name, &report)
    );

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report.bytes) {
            fail(&format!("writing {path}: {e}"));
        }
        println!(
            "[gamma_pool] wrote {} pixel bytes to {path}",
            report.bytes.len()
        );
    }
}

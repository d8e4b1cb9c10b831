//! Pool-scale design-space search — the CI `design-sweep` entry point.
//!
//! ```text
//! design_sweep [--candidates N] [--workers N] [--spawn-per-request]
//!              [--service HOST:PORT] [--backend NAME] [--csv PATH]
//!              [--stream BITS[,BITS...]] [--probes K] [--seed S]
//!              [--cache N]
//! ```
//!
//! Enumerates at least `--candidates` (default 64) design candidates
//! over the Fig. 6 device ranges ([`osc_bench::sweep::axes_for`]),
//! solves each distinct design point, measures every candidate's
//! empirical accuracy through one of four serving tiers (one
//! [`Executor`] variant each), extracts the
//! accuracy × energy × area Pareto frontier and prints a one-line
//! timing summary:
//!
//! - `--workers N` (default 3): a persistent `N`-worker pool; all
//!   candidates stream through one pipelined
//!   [`WorkerPool::run_requests`] call, with the worker circuit cache
//!   sized to the sweep's working set (`--cache N` overrides; the
//!   `OSC_CIRCUIT_CACHE` env var reaches workers spawned without the
//!   knob);
//! - `--workers 0`: in-process, through the same SNG dispatch point
//!   the workers run;
//! - `--spawn-per-request`: the same `N`-worker [`PoolConfig`] through
//!   [`Executor::Spawn`], a fresh one-shot pool per candidate (at most
//!   one worker per probe) — the per-request-spawn baseline the pool
//!   amortizes;
//! - `--service HOST:PORT`: one TCP connection to a running
//!   `osc_service` front door, one request per candidate.
//!
//! `--csv PATH` writes the canonical frontier CSV
//! ([`osc_core::design::sweep::frontier_csv`]). The determinism
//! contract makes the CSV **byte-identical across all four modes,
//! every worker count and every SIMD dispatch tier**, so CI `cmp`s the
//! files directly. `--backend NAME` (`mrr-mzi`, `nanocavity`; default
//! sweeps both) restricts the backend axis.
//!
//! [`WorkerPool::run_requests`]: osc_core::batch::shard::pool::WorkerPool::run_requests

use osc_bench::sweep::{axes_for, summary_line};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::service::ServiceClient;
use osc_core::batch::shard::{locate_worker, Executor};
use osc_core::batch::BatchEvaluator;
use osc_core::design::sweep::{frontier_csv, pareto_frontier, DesignSweep};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("design_sweep: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut candidates = 64usize;
    let mut workers = 3usize;
    let mut spawn_per_request = false;
    let mut service_addr: Option<String> = None;
    let mut backend: Option<BackendKind> = None;
    let mut csv_path: Option<String> = None;
    let mut streams: Vec<usize> = Vec::new();
    let mut probes = 3usize;
    let mut seed = 0xDE51_6E0Au64;
    let mut cache: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--candidates" => {
                candidates = value("--candidates")
                    .parse()
                    .unwrap_or_else(|_| fail("--candidates needs an integer"))
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"))
            }
            "--spawn-per-request" => spawn_per_request = true,
            "--service" => service_addr = Some(value("--service")),
            "--backend" => {
                let name = value("--backend");
                backend = Some(BackendKind::parse(&name).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown backend {name} (expected mrr-mzi or nanocavity)"
                    ))
                }))
            }
            "--csv" => csv_path = Some(value("--csv")),
            "--stream" => {
                streams = value("--stream")
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|_| fail("--stream needs comma-separated integers"))
            }
            "--probes" => {
                probes = value("--probes")
                    .parse()
                    .unwrap_or_else(|_| fail("--probes needs an integer"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"))
            }
            "--cache" => {
                cache = Some(
                    value("--cache")
                        .parse()
                        .unwrap_or_else(|_| fail("--cache needs an integer")),
                )
            }
            other => fail(&format!(
                "unknown argument {other}\nusage: design_sweep [--candidates N] [--workers N] \
                 [--spawn-per-request] [--service HOST:PORT] [--backend NAME] [--csv PATH] \
                 [--stream BITS[,BITS...]] [--probes K] [--seed S] [--cache N]"
            )),
        }
    }

    let solve_start = Instant::now();
    let sweep = DesignSweep::new(axes_for(candidates, backend, &streams, probes, seed));
    let solve_s = solve_start.elapsed().as_secs_f64();
    if sweep.designs().is_empty() {
        fail("no feasible candidates — widen the grid or relax the BER target");
    }
    // Size the worker circuit cache to the working set by default: a
    // sweep touches every distinct circuit once per pass, so anything
    // smaller thrashes the LRU.
    let cache = cache.unwrap_or_else(|| sweep.designs().len());

    let worker = || {
        locate_worker("shard_worker").unwrap_or_else(|| {
            fail("could not locate the shard_worker binary (build it, or set OSC_SHARD_WORKER)")
        })
    };
    let eval_start = Instant::now();
    let (evaluator, config, mut pool, mut client);
    let (executor, mode_name) = if let Some(addr) = service_addr {
        let addr: std::net::SocketAddr = addr
            .parse()
            .unwrap_or_else(|_| fail("--service needs HOST:PORT"));
        client = ServiceClient::connect(addr)
            .unwrap_or_else(|e| fail(&format!("connecting to {addr}: {e}")));
        (Executor::Service(&mut client), format!("service({addr})"))
    } else if workers == 0 {
        evaluator = BatchEvaluator::new();
        (Executor::InProcess(&evaluator), "in-process".to_string())
    } else {
        config = PoolConfig::new(worker(), workers);
        if spawn_per_request {
            (
                Executor::Spawn(&config),
                format!("spawn-per-request({workers})"),
            )
        } else {
            pool = config
                .with_circuit_cache_capacity(cache)
                .spawn()
                .unwrap_or_else(|e| fail(&format!("pool spawn: {e}")));
            (
                Executor::Pool(&mut pool),
                format!("pool({workers}, cache {cache})"),
            )
        }
    };
    let points = sweep
        .evaluate(executor)
        .unwrap_or_else(|e| fail(&format!("{mode_name} sweep: {e}")));
    let eval_s = eval_start.elapsed().as_secs_f64();

    let frontier = pareto_frontier(&points);
    println!(
        "{}",
        summary_line(
            "design_sweep",
            &sweep,
            &mode_name,
            solve_s,
            eval_s,
            &frontier
        )
    );

    if let Some(path) = csv_path {
        let csv = frontier_csv(&frontier);
        if let Err(e) = std::fs::write(&path, csv.as_bytes()) {
            fail(&format!("writing {path}: {e}"));
        }
        println!(
            "[design_sweep] wrote {}-point frontier CSV to {path}",
            frontier.len()
        );
    }
}

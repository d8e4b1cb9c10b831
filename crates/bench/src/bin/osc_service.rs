//! The TCP front door: serves the worker pool to many concurrent
//! clients — the CI `service-soak` entry point.
//!
//! ```text
//! osc_service [--port P] [--addr HOST] [--workers N] [--depth D]
//!             [--queue-cap Q] [--read-timeout-ms MS] [--backend NAME]
//! ```
//!
//! Binds a [`Service`] on `HOST:P` (`--port 0`, the default, picks an
//! ephemeral port), spawns an `N`-worker [`PoolDispatcher`] behind it
//! (depth-`D` pipelining per worker, `Q` queued requests of
//! backpressure), and prints one parseable readiness line to stdout:
//!
//! ```text
//! [osc_service] listening on 127.0.0.1:7411 (3 workers, depth 2, queue cap 64)
//! ```
//!
//! Clients speak the framed wire protocol (see the `shard`
//! module's *Service framing* doc section); `gamma_pool --service` is
//! the matching load generator. The transmission backend travels
//! per-request in the canonical circuit bytes, so one service instance
//! serves every backend at once; `--backend NAME` (`mrr-mzi` or
//! `nanocavity`) merely validates the name and echoes it in the
//! readiness line, so a deployment's logs state which physics its
//! clients are expected to drive. By the determinism contract any
//! replica of this binary answers any request byte-identically, so
//! instances are interchangeable behind a dumb load balancer.
//!
//! Shutdown drains gracefully — in-flight requests finish, then the
//! listener closes and the process exits 0 — on SIGTERM or on a
//! `shutdown` line on stdin (stdin EOF is ignored, so `osc_service
//! < /dev/null &` with a later `kill -TERM` is the whole CI
//! lifecycle).

use osc_core::backend::BackendKind;
use osc_core::batch::shard::locate_worker;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::service::Service;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("osc_service: {msg}");
    std::process::exit(1);
}

/// Set by the SIGTERM handler and the stdin watcher; polled by main.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: core::ffi::c_int) {
    // Only async-signal-safe work here: flag the store, let main drain.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler via the libc `signal` symbol — std
/// links libc on unix, so no crate dependency is needed.
#[cfg(unix)]
fn install_sigterm() {
    const SIGTERM: core::ffi::c_int = 15;
    unsafe extern "C" {
        fn signal(signum: core::ffi::c_int, handler: extern "C" fn(core::ffi::c_int)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

fn main() {
    let mut addr = "127.0.0.1".to_string();
    let mut port = 0u16;
    let mut workers = 3usize;
    let mut depth: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut read_timeout: Option<u64> = None;
    let mut backend = BackendKind::MrrMzi;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--port" => {
                port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| fail("--port needs an integer"))
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"))
            }
            "--depth" => {
                depth = Some(
                    value("--depth")
                        .parse()
                        .unwrap_or_else(|_| fail("--depth needs an integer")),
                )
            }
            "--queue-cap" => {
                queue_cap = Some(
                    value("--queue-cap")
                        .parse()
                        .unwrap_or_else(|_| fail("--queue-cap needs an integer")),
                )
            }
            "--read-timeout-ms" => {
                read_timeout = Some(
                    value("--read-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--read-timeout-ms needs milliseconds")),
                )
            }
            "--backend" => {
                let name = value("--backend");
                backend = BackendKind::parse(&name).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown backend {name} (expected mrr-mzi or nanocavity)"
                    ))
                })
            }
            other => fail(&format!(
                "unknown argument {other}\nusage: osc_service [--port P] [--addr HOST] \
                 [--workers N] [--depth D] [--queue-cap Q] [--read-timeout-ms MS] \
                 [--backend NAME]"
            )),
        }
    }
    if workers == 0 {
        fail("--workers must be at least 1 (the service always dispatches to a pool)");
    }

    let worker = locate_worker("shard_worker").unwrap_or_else(|| {
        fail("could not locate the shard_worker binary (build it, or set OSC_SHARD_WORKER)")
    });
    let mut config = PoolConfig::new(worker, workers);
    if let Some(d) = depth {
        config = config.with_pipeline_depth(d);
    }
    if let Some(q) = queue_cap {
        config = config.with_queue_cap(q);
    }
    if let Some(ms) = read_timeout {
        config = config.with_read_timeout(Duration::from_millis(ms));
    }
    let dispatcher = config
        .spawn_dispatcher()
        .unwrap_or_else(|e| fail(&format!("spawning the worker pool: {e}")));
    let depth_used = depth
        .unwrap_or(osc_core::batch::shard::pool::DEFAULT_PIPELINE_DEPTH)
        .max(1);
    let cap_used = queue_cap
        .unwrap_or(osc_core::batch::shard::pool::DEFAULT_QUEUE_CAP)
        .max(1);
    let service = Service::bind((addr.as_str(), port), dispatcher)
        .unwrap_or_else(|e| fail(&format!("binding {addr}:{port}: {e}")));
    println!(
        "[osc_service] listening on {} ({workers} workers, depth {depth_used}, queue cap {cap_used}, backend {backend})",
        service.local_addr()
    );
    // The readiness line must land before any client connects — CI
    // greps it for the ephemeral port.
    std::io::stdout().flush().ok();

    install_sigterm();
    // Stdin watcher: an explicit `shutdown` line also drains, so the
    // service is scriptable without signals. EOF does NOT drain —
    // backgrounding with stdin on /dev/null must keep serving.
    std::thread::Builder::new()
        .name("osc-service-stdin".into())
        .spawn(|| {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "shutdown" => {
                        SHUTDOWN.store(true, Ordering::SeqCst);
                        break;
                    }
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
        })
        .ok();

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let served = service.drain();
    println!("[osc_service] drained after {served} requests");
}

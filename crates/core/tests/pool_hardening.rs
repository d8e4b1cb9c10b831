//! Pool hardening against misbehaving workers: a worker that accepts
//! requests but never answers must surface as a
//! [`ShardError::Timeout`] value within the configured deadline, and
//! every child process the pool (or a one-shot coordinator) spawned
//! must be killed **and reaped** when the owner goes away — including
//! when the owning thread unwinds from a panic — so a long-lived
//! service never accumulates zombies.
//!
//! The stalling worker is a tiny shell stub (`exec sleep`), so these
//! tests need no prebuilt binary; they are Unix-only like the zombie
//! semantics they pin.
#![cfg(unix)]

use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{ShardCoordinator, ShardError, SngKind};
use osc_core::params::CircuitParams;
use osc_core::system::OpticalScSystem;
use osc_stochastic::bernstein::BernsteinPoly;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn fig5_system() -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap()
}

/// Writes an executable stub that consumes stdin forever and never
/// writes a byte — a worker that is alive but stalled.
fn stalling_stub(tag: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let path = std::env::temp_dir().join(format!("osc_stall_stub_{tag}_{}", std::process::id()));
    std::fs::write(&path, "#!/bin/sh\nexec sleep 3600\n").unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

/// Whether `pid` currently exists as a zombie child of this process.
/// After a correct kill + reap the pid is gone from /proc (or, under
/// pid recycling, belongs to some other process and is not in state
/// `Z` with us as parent).
fn is_our_zombie(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // Fields after the parenthesized command name: state, ppid.
    let Some(rest) = stat.rsplit(')').next() else {
        return false;
    };
    let mut fields = rest.split_whitespace();
    let state = fields.next().unwrap_or("");
    let ppid = fields.next().unwrap_or("");
    state == "Z" && ppid == std::process::id().to_string()
}

#[test]
fn stalled_worker_times_out_as_a_value_within_the_deadline() {
    let stub = stalling_stub("timeout");
    let system = fig5_system();
    let timeout = Duration::from_millis(300);
    let mut pool = PoolConfig::new(&stub, 1)
        .with_read_timeout(timeout)
        .with_retries(1)
        .spawn()
        .unwrap();
    let started = Instant::now();
    let err = pool
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5], 64, 1, None)
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ShardError::Timeout { .. }),
        "expected a timeout value, got {err}"
    );
    let rendered = err.to_string();
    assert!(rendered.contains("timed out"), "{rendered}");
    // 1 retry = 2 stalled attempts plus one capped respawn backoff:
    // well under ten deadlines, never a 3600 s hang.
    assert!(
        elapsed < timeout * 10,
        "timeout took {elapsed:?} for a {timeout:?} deadline"
    );
    // The pool is still usable as a value — the next call fails the
    // same way instead of panicking or hanging forever.
    let again = pool
        .evaluate_many(&system, SngKind::Xoshiro, &[0.5], 64, 1, None)
        .unwrap_err();
    assert!(matches!(again, ShardError::Timeout { .. }), "{again}");
    drop(pool);
    let _ = std::fs::remove_file(&stub);
}

#[test]
fn dropping_the_pool_kills_and_reaps_stalled_workers() {
    let stub = stalling_stub("drop");
    let pool = PoolConfig::new(&stub, 3).spawn().unwrap();
    let pids = pool.worker_pids();
    assert_eq!(pids.len(), 3);
    for &pid in &pids {
        assert!(
            std::fs::metadata(format!("/proc/{pid}")).is_ok(),
            "worker {pid} should be running before the drop"
        );
    }
    drop(pool);
    for &pid in &pids {
        assert!(!is_our_zombie(pid), "worker {pid} left as a zombie");
    }
    let _ = std::fs::remove_file(&stub);
}

#[test]
fn panicking_caller_leaves_no_zombies() {
    // The regression this pins: a caller that panics mid-request used
    // to leak the worker processes as zombies (killed on drop but never
    // waited on). The unwind must run the pool's drop path, which kills
    // and reaps every child.
    let stub = stalling_stub("panic");
    let pids = Mutex::new(Vec::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut pool = PoolConfig::new(&stub, 2)
            .with_read_timeout(Duration::from_millis(200))
            .with_retries(0)
            .spawn()
            .unwrap();
        *pids.lock().unwrap() = pool.worker_pids();
        let system = fig5_system();
        // The stalled worker times out; the caller treats that as fatal
        // and panics with the pool still holding live children.
        pool.evaluate_many(&system, SngKind::Xoshiro, &[0.5], 64, 1, None)
            .unwrap();
        unreachable!("the stalled pool cannot produce runs");
    }));
    assert!(result.is_err(), "the caller must have panicked");
    let pids = pids.into_inner().unwrap();
    assert_eq!(pids.len(), 2);
    for pid in pids {
        assert!(!is_our_zombie(pid), "worker {pid} left as a zombie");
    }
    let _ = std::fs::remove_file(&stub);
}

#[test]
fn coordinator_error_paths_leave_no_zombies() {
    // A one-shot coordinator run against stalling workers must fail as
    // a value and reap every subprocess it spawned on the way out.
    let stub = stalling_stub("coordinator");
    let system = fig5_system();
    let coordinator = ShardCoordinator::new(&stub, 2)
        .with_retries(0)
        .with_read_timeout(Duration::from_millis(200));
    let before: Vec<u32> = our_children();
    let err = coordinator
        .evaluate_many(&system, SngKind::Xoshiro, &[0.25, 0.75], 64, 3, None)
        .unwrap_err();
    assert!(
        matches!(err, ShardError::Timeout { .. } | ShardError::Worker { .. }),
        "{err}"
    );
    // Every child that appeared during the run is gone (reaped), not a
    // zombie.
    for pid in our_children() {
        if !before.contains(&pid) {
            assert!(!is_our_zombie(pid), "coordinator left zombie {pid}");
        }
    }
    let _ = std::fs::remove_file(&stub);
}

#[test]
fn dispatcher_overload_rejection_is_immediate_and_a_value() {
    // One stalled worker at depth 1 with a queue cap of 1: the first
    // submit occupies the worker, the second the queue, and the third
    // must be rejected *immediately* as [`ShardError::Overloaded`] —
    // not after a deadline, and never as a hang.
    let stub = stalling_stub("overload");
    let system = fig5_system();
    let request = || {
        osc_core::batch::shard::ShardRequest::batch(
            &system,
            SngKind::Xoshiro,
            0,
            &[0.5],
            64,
            1,
            None,
        )
    };
    let dispatcher = PoolConfig::new(&stub, 1)
        .with_pipeline_depth(1)
        .with_queue_cap(1)
        .with_read_timeout(Duration::from_millis(600))
        .with_retries(0)
        .spawn_dispatcher()
        .unwrap();
    std::thread::scope(|scope| {
        let first = scope.spawn(|| dispatcher.submit(request()));
        std::thread::sleep(Duration::from_millis(100));
        let second = scope.spawn(|| dispatcher.submit(request()));
        std::thread::sleep(Duration::from_millis(100));

        let started = Instant::now();
        let rejected = dispatcher.submit(request()).unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(rejected, ShardError::Overloaded { queued: 1, cap: 1 }),
            "expected an overload value, got {rejected}"
        );
        assert!(rejected.to_string().contains("overloaded"), "{rejected}");
        assert!(
            elapsed < Duration::from_millis(200),
            "overload rejection must not wait on a deadline, took {elapsed:?}"
        );

        // The two admitted requests fail as timeout values against the
        // stalled worker — admission never silently drops them.
        for admitted in [first.join().unwrap(), second.join().unwrap()] {
            let err = admitted.unwrap_err();
            assert!(matches!(err, ShardError::Timeout { .. }), "{err}");
        }
    });
    drop(dispatcher);
    let _ = std::fs::remove_file(&stub);
}

#[test]
fn dispatcher_drop_reaps_stalled_workers_promptly() {
    // Dropping an idle dispatcher joins its pump threads and reaps the
    // workers even though they never answered a byte — no zombies, no
    // hang until `sleep 3600` expires.
    let stub = stalling_stub("dispatcher_drop");
    let dispatcher = PoolConfig::new(&stub, 2).spawn_dispatcher().unwrap();
    assert_eq!(dispatcher.workers(), 2);
    assert_eq!(dispatcher.queued(), 0);
    let before = Instant::now();
    drop(dispatcher);
    assert!(
        before.elapsed() < Duration::from_secs(5),
        "dispatcher drop must not wait on stalled workers"
    );
    for pid in our_children() {
        assert!(!is_our_zombie(pid), "dispatcher left zombie {pid}");
    }
    let _ = std::fs::remove_file(&stub);
}

/// The pids of this process's current children, zombie or not.
fn our_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat.rsplit(')').next()?;
                    let mut fields = rest.split_whitespace();
                    let _state = fields.next()?;
                    Some(fields.next()? == me)
                })
                .unwrap_or(false)
        })
        .collect()
}

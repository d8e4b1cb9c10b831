//! Appends a run record to `BENCH_kernels.json`: the kernel speedup
//! trajectory.
//!
//! ```text
//! bench_kernels [--out PATH] [--budget-ms N] [--label NAME] [--check PATH]
//! ```
//!
//! Defaults: `BENCH_kernels.json` in the current directory, 300 ms per
//! measurement, label `local`. When the output file already exists its
//! run records are preserved and the new run is appended (a
//! pre-trajectory single-run file is migrated to the first record), so
//! the file carries the PR-over-PR perf history.
//!
//! `--check PATH` without `--out` is a read-only gate: the run is
//! judged but written nowhere, so a local check leaves the committed
//! trajectory untouched. CI passes both.
//!
//! `--check PATH` compares this run's speedups against the committed
//! trajectory in PATH (per workload, the lower median of the last
//! three same-tier records — robust to a single outlier record) and
//! exits non-zero if any workload regresses below 80% of that
//! reference — the CI regression gate. Workloads
//! with **no prior trajectory entry** (fresh benchmarks landing in the
//! same PR) are recorded but not gated on their first run, so adding a
//! benchmark can never fail the gate by construction; the failure
//! message lists every regressed workload and by how much it fell.

use osc_bench::kernels;

/// A fresh measurement must reach this fraction of the recorded speedup.
const CHECK_THRESHOLD: f64 = 0.8;

fn main() {
    let mut out_path: Option<String> = None;
    let mut budget_ms = 300u64;
    let mut label = String::from("local");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let missing = |what: &str| -> String {
        eprintln!("{what}");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| missing("--out needs a path")))
            }
            "--label" => {
                label = args
                    .next()
                    .unwrap_or_else(|| missing("--label needs a name"))
            }
            "--check" => {
                check_path = Some(
                    args.next()
                        .unwrap_or_else(|| missing("--check needs a path")),
                )
            }
            "--budget-ms" => {
                budget_ms = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--budget-ms needs an integer");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_kernels [--out PATH] [--budget-ms N] [--label NAME] [--check PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    // Make the SIMD dispatch visible in CI logs: the dispatch-matrix jobs
    // pin the tier via OSC_SIMD, and this line is how a log proves which
    // kernel path actually ran, GFNI/VBMI bit-matrix kernels included.
    println!(
        "[simd] dispatch tier: {} (detected: {}); gfni/vbmi kernels: {}",
        osc_stochastic::simd::active_tier().name(),
        osc_stochastic::simd::detected_tier().name(),
        if osc_stochastic::simd::BitMatrixKernels::active().is_some() {
            "on"
        } else {
            "off"
        }
    );
    // Snapshot the regression reference BEFORE the fresh run is appended:
    // with `--check` and `--out` naming the same file, reading afterwards
    // would compare the new run against itself and always pass.
    let committed_reference = check_path.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: could not read {path}: {e}");
            std::process::exit(1);
        })
    });
    // Speedups are tier-relative, so the run record is stamped with the
    // active tier and the gate compares only against a same-tier (or
    // legacy untagged) reference run.
    let tier = osc_stochastic::simd::active_tier().name();
    let report = kernels::run(budget_ms);
    kernels::print(&report);
    let out_path = out_path.or_else(|| check_path.is_none().then(|| "BENCH_kernels.json".into()));
    if let Some(out_path) = out_path {
        let record = kernels::render_run(&report, &label, tier);
        let existing = std::fs::read_to_string(&out_path).ok();
        let merged = kernels::append_run(existing.as_deref(), &record);
        if let Err(e) = std::fs::write(&out_path, &merged) {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
        println!("[kernel run '{label}' ({tier}) appended to {out_path}]");
    }

    if let Some(path) = check_path {
        let committed = committed_reference.expect("read when --check was parsed");
        let outcome = kernels::check_report(&report, &committed, CHECK_THRESHOLD, tier);
        // Fail loudly only when the committed trajectory records nothing
        // for this tier at all; a run where every recorded workload
        // happens to be unmeasured (e.g. after a rename) reports them as
        // skipped below.
        if outcome.passed.is_empty()
            && outcome.regressions.is_empty()
            && outcome.advisory.is_empty()
            && outcome.skipped.is_empty()
            && outcome.retired.is_empty()
        {
            if kernels::last_run_speedups(&committed).is_empty() {
                // The file records nothing for ANY tier: almost
                // certainly the wrong path, not a fresh tier.
                eprintln!("error: no recorded speedups found in {path}");
                std::process::exit(1);
            }
            eprintln!(
                "warning: no recorded run for tier '{tier}' in {path} — nothing gated \
                 (the first run on a new tier is recorded, not judged)"
            );
        }
        for (name, measured, recorded) in &outcome.passed {
            println!(
                "[check] {name}: measured {measured:.2}x vs recorded {recorded:.2}x \
                 (floor {:.2}x) — ok",
                recorded * CHECK_THRESHOLD
            );
        }
        for name in &outcome.skipped {
            // Loud on stderr: a recorded workload that silently stops
            // being measured (e.g. the shard_worker binary missing, or a
            // rename) drops out of the regression gate entirely — that
            // must be visible in CI logs even though it does not fail
            // the gate (renames are legitimate).
            eprintln!(
                "warning: [check] {name}: recorded in the trajectory but NOT measured in this \
                 run — it is not being gated (missing prerequisite binary or renamed workload?)"
            );
        }
        if !outcome.retired.is_empty() {
            println!(
                "[check] retired (recorded in the trajectory, no longer measured, not gated): {}",
                outcome.retired.join(", ")
            );
        }
        for name in &outcome.new_workloads {
            println!("[check] {name}: new workload (no prior trajectory entry) — recorded, not gated on its first run");
        }
        for adv in &outcome.advisory {
            // Below-floor spawn-overhead workloads are surfaced but never
            // fail the gate: their single-core ratio is documented
            // scale-out overhead that swings with host load.
            println!(
                "[check] {}: measured {:.2}x vs recorded {:.2}x (floor {:.2}x) — \
                 ADVISORY ONLY (unamortized spawn-overhead workload, not gated)",
                adv.name, adv.measured, adv.recorded, adv.floor
            );
        }
        if !outcome.is_ok() {
            eprintln!(
                "error: kernel speedup regression below {CHECK_THRESHOLD} of the recorded trajectory:"
            );
            for reg in &outcome.regressions {
                eprintln!(
                    "  - {}: measured {:.2}x vs recorded {:.2}x (floor {:.2}x, down {:.0}%)",
                    reg.name,
                    reg.measured,
                    reg.recorded,
                    reg.floor,
                    reg.shortfall_percent()
                );
            }
            std::process::exit(1);
        }
    }
}

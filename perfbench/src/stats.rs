//! The benchmark's own arithmetic: percentile selection, windowed
//! latency summaries, the `layer_sum` ledger and failure counting.
//! Everything here is pure (bar the CPU clock), so the unit tests below
//! pin it exactly.

use std::time::Duration;

/// Standard percentiles the tail is chosen from, highest first, in
/// per-mille so rank arithmetic stays exact.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `permille`-th per-mille in
/// `n` samples: the smallest rank with at least that share of the
/// sample at or below it.
pub fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank per-mille of an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one item.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// Nearest-rank per-mille of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_of(values: &[f64], permille: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, permille)
}

/// Median of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 500)
}

/// The highest ladder per-mille with at least [`TAIL_BEYOND`] samples
/// strictly beyond its nearest rank, or `None` when even the median has
/// fewer (under 20 samples).
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= nearest_rank(n, p) + TAIL_BEYOND)
}

/// Median and tail of one latency sample, with the percentile the tail
/// sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median of the whole sample.
    pub p50: f64,
    /// The value at [`Latency::tail_permille`]: the median over windows
    /// of each window's tail.
    pub tail: f64,
    /// Which per-mille the tail is ([`tail_percentile`] of the window
    /// size); 500 when a window is too small for any higher one.
    pub tail_permille: usize,
    /// The lowest quarter and the worst of the window tails, for the
    /// record.
    pub tail_quiet: f64,
    pub tail_worst: f64,
    /// Windows the tail is taken over.
    pub windows: usize,
    /// Sample count.
    pub samples: usize,
}

impl Latency {
    /// Summarizes a sample in arrival order (a failed item enters where
    /// it happened, as `+∞`). The median is the whole sample's. The tail
    /// is cut into consecutive windows of `window` samples (a trailing
    /// partial window joins the last full one); each window gives its
    /// highest ladder percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it, so the percentile depends only on `window`, not on how
    /// many samples a run reached, and the run reports the median of the
    /// window tails.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn windowed(values: &[f64], window: usize) -> Latency {
        let window = window.clamp(1, values.len().max(1));
        let tail_permille = tail_percentile(window).unwrap_or(500);
        let full = (values.len() / window).max(1);
        let tails: Vec<f64> = (0..full)
            .map(|w| {
                let end = if w + 1 == full {
                    values.len()
                } else {
                    (w + 1) * window
                };
                percentile_of(&values[w * window..end], tail_permille)
            })
            .collect();
        Latency {
            p50: median(values),
            tail: median(&tails),
            tail_permille,
            tail_quiet: percentile_of(&tails, 250),
            tail_worst: percentile_of(&tails, 1000),
            windows: full,
            samples: values.len(),
        }
    }

    /// One human-readable line: `p50 … tail p… (n samples)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (median over {} windows; quietest quarter {:.4}, \
             worst {:.4}; {} samples, >= {TAIL_BEYOND} beyond the tail in each window)",
            self.p50,
            self.tail_permille as f64 / 10.0,
            self.tail,
            self.windows,
            self.tail_quiet,
            self.tail_worst,
            self.samples
        )
    }
}

/// Rates of consecutive windows of `window` items: `work_per_item` ×
/// items over the window's summed durations (seconds). A trailing
/// partial window joins the last full one.
pub fn window_rates(durations_s: &[f64], work_per_item: f64, window: usize) -> Vec<f64> {
    let window = window.clamp(1, durations_s.len().max(1));
    let full = (durations_s.len() / window).max(1);
    (0..full)
        .map(|w| {
            let end = if w + 1 == full {
                durations_s.len()
            } else {
                (w + 1) * window
            };
            let slice = &durations_s[w * window..end];
            slice.len() as f64 * work_per_item / slice.iter().sum::<f64>()
        })
        .collect()
}

/// CPU time used so far by every thread of this process, live or
/// exited. Set beside the wall time of the same span, it shows how many
/// threads the span kept busy.
///
/// # Panics
///
/// Panics if the process CPU clock is unavailable (not Linux).
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on 64-bit Linux, matching `Timespec`) through a pointer to a live
    // local and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One term of a layer ledger: a per-call cost and how many calls the
/// workload made.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTerm {
    /// Layer metric the cost comes from.
    pub layer: &'static str,
    /// Cost of one call, nanoseconds.
    pub cost_ns: f64,
    /// Calls the workload made.
    pub calls: f64,
}

/// What the layers account for in one workload's wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSum {
    /// Σ cost × calls, nanoseconds of busy time.
    pub explained_ns: f64,
    /// The time budget the terms are compared against: wall time × the
    /// workers that shared it.
    pub budget_ns: f64,
}

impl LayerSum {
    /// Sums `terms` against `wall` shared by `parallelism` busy threads.
    pub fn of(terms: &[LayerTerm], wall: Duration, parallelism: usize) -> LayerSum {
        LayerSum {
            explained_ns: terms.iter().map(|t| t.cost_ns * t.calls).sum(),
            budget_ns: wall.as_nanos() as f64 * parallelism.max(1) as f64,
        }
    }

    /// Explained share of the budget (can exceed 1 when layers overlap
    /// better than the cost model assumes).
    pub fn share(&self) -> f64 {
        self.explained_ns / self.budget_ns
    }

    /// The unexplained remainder, `1 − share` (negative when the layers
    /// over-explain).
    pub fn remainder(&self) -> f64 {
        1.0 - self.share()
    }
}

/// Attempted / failed counts of a workload. A failure is an error or
/// wrong bytes; its latency enters the sample as `+∞`, so it misses
/// every percentile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Items attempted.
    pub attempted: u64,
    /// Items that failed or produced wrong bytes.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` items that share one outcome.
    pub fn record(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The latency sample entry of one item: its time, or `+∞` if it failed.
pub fn latency_entry(ok: bool, ms: f64) -> f64 {
    if ok {
        ms
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 500), 50.0);
        assert_eq!(percentile(&sample, 990), 99.0);
        assert_eq!(percentile(&sample, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&[10.0, 20.0], 500), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, ten beyond; p99.9 only one.
        assert_eq!(tail_percentile(1000), Some(990));
        // 999 samples: p99 rank 990 leaves nine beyond, so p95.
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(n, p) >= TAIL_BEYOND, "n {n} p {p}");
        }
    }

    #[test]
    fn latency_summary_sorts_and_names_its_tail() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::windowed(&values, values.len());
        assert_eq!(
            (l.p50, l.tail, l.tail_permille, l.samples, l.windows),
            (100.0, 190.0, 950, 200, 1)
        );
        let small = Latency::windowed(&[3.0, 1.0, 2.0], 3);
        assert_eq!(
            (small.p50, small.tail, small.tail_permille),
            (2.0, 2.0, 500)
        );
        assert!(l.describe("ms").contains("p95 190.0000 ms"));
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Three windows of 100 (the trailing 50 join the last): a stall
        // in the first window lifts only that window's p90.
        let mut values: Vec<f64> = (0..350).map(|i| f64::from(i % 100)).collect();
        for v in &mut values[..20] {
            *v = 1000.0;
        }
        let l = Latency::windowed(&values, 100);
        assert_eq!((l.windows, l.tail_permille, l.samples), (3, 900, 350));
        // Window tails: 1000 (stalled), 89, and rank 135 of the last
        // 150 (84). The median is 89; the quiet quarter 84.
        assert_eq!((l.tail, l.tail_quiet, l.tail_worst), (89.0, 84.0, 1000.0));
        // The median is the whole sample's: rank 175 of 350.
        assert_eq!(l.p50, 48.0);
        // A stall in two windows of three moves the reported tail.
        for v in &mut values[100..120] {
            *v = 1000.0;
        }
        assert_eq!(Latency::windowed(&values, 100).tail, 1000.0);
        assert_eq!(Latency::windowed(&values, values.len()).tail_permille, 950);
        // Fewer samples than one window: one window of everything.
        let short = Latency::windowed(&values[..40], 100);
        assert_eq!((short.windows, short.tail_permille), (1, 750));
    }

    #[test]
    fn window_rates_cut_like_latency_windows() {
        // Two windows of 2; the trailing item joins the second.
        let rates = window_rates(&[1.0, 1.0, 0.5, 0.5, 1.0], 10.0, 2);
        assert_eq!(rates, vec![10.0, 15.0]);
        assert_eq!(window_rates(&[2.0], 10.0, 4), vec![5.0]);
    }

    #[test]
    fn layer_sum_arithmetic() {
        let terms = [
            LayerTerm {
                layer: "a",
                cost_ns: 100.0,
                calls: 10.0,
            },
            LayerTerm {
                layer: "b",
                cost_ns: 2.5,
                calls: 400.0,
            },
        ];
        // 2000 ns explained against 2 µs wall × 2 threads.
        let sum = LayerSum::of(&terms, Duration::from_micros(2), 2);
        assert_eq!(sum.explained_ns, 2000.0);
        assert_eq!(sum.budget_ns, 4000.0);
        assert_eq!(sum.share(), 0.5);
        assert_eq!(sum.remainder(), 0.5);
        // Parallelism 0 counts as one thread.
        assert_eq!(
            LayerSum::of(&terms, Duration::from_micros(2), 0).share(),
            1.0
        );
    }

    #[test]
    fn fail_frac_counting() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(1, true);
        t.record(1, false);
        t.record(6, true);
        t.record(2, false);
        assert_eq!((t.attempted, t.failed), (10, 3));
        assert_eq!(t.fail_frac(), 0.3);
    }

    #[test]
    fn failures_enter_their_own_window() {
        // 40 items in two windows of 20; the 25 failures all fall in the
        // first window, where they happened, and fill its tail.
        let sample: Vec<f64> = (0..40)
            .map(|i| latency_entry(i >= 25, f64::from(i)))
            .collect();
        assert_eq!(sample[0], f64::INFINITY);
        let l = Latency::windowed(&sample, 20);
        assert_eq!(l.tail_worst, f64::INFINITY);
        // Failures miss every percentile: more than half failed, so
        // the median is +∞ too.
        assert_eq!(l.p50, f64::INFINITY);
    }

    #[test]
    fn process_cpu_clock_counts_work() {
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() - before < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}

//! Property-based tests for the numerics substrate.
//!
//! Deterministic property harness: each property runs over a fixed number
//! of seeded random cases drawn from the crate's own RNG (the build has no
//! third-party property-testing framework, and seeded cases make failures
//! replayable by construction).

use osc_math::optimize::{golden_section_min, NelderMead};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_math::special::{erfc, inv_erfc};
use osc_math::stats::RunningStats;

/// Runs `f` over `n` seeded cases.
fn cases(n: u64, mut f: impl FnMut(&mut Xoshiro256PlusPlus)) {
    for case in 0..n {
        let mut rng = Xoshiro256PlusPlus::new(0x4D41_5448 ^ case);
        f(&mut rng);
    }
}

/// erfc is strictly decreasing and bounded in (0, 2).
#[test]
fn erfc_monotone_and_bounded() {
    cases(128, |rng| {
        let a = rng.range_f64(-5.0, 5.0);
        let d = rng.range_f64(1e-6, 2.0);
        let lo = erfc(a + d);
        let hi = erfc(a);
        assert!(lo < hi, "erfc not decreasing at {a}");
        assert!(lo > 0.0 && hi < 2.0);
    });
}

/// inv_erfc round-trips across twelve decades.
#[test]
fn inv_erfc_round_trip() {
    cases(128, |rng| {
        let log_p = rng.range_f64(-12.0, -0.31);
        let p = 10f64.powf(log_p);
        let x = inv_erfc(p);
        let back = erfc(x);
        assert!((back - p).abs() / p < 1e-6, "p={p:e}, back={back:e}");
    });
}

/// Golden section finds the vertex of any parabola inside the bracket.
#[test]
fn golden_section_parabola() {
    cases(128, |rng| {
        let center = rng.range_f64(-5.0, 5.0);
        let scale = rng.range_f64(0.1, 10.0);
        let m = golden_section_min(
            |x| scale * (x - center) * (x - center),
            -10.0,
            10.0,
            1e-10,
            300,
        );
        assert!(
            (m.x - center).abs() < 1e-5,
            "found {} expected {center}",
            m.x
        );
    });
}

/// Nelder–Mead never returns a point worse than its start.
#[test]
fn nelder_mead_never_worsens() {
    cases(128, |rng| {
        let x0 = rng.range_f64(-3.0, 3.0);
        let y0 = rng.range_f64(-3.0, 3.0);
        let f = |p: &[f64]| (p[0] - 1.0).powi(2) + 3.0 * (p[1] + 2.0).powi(2);
        let start = f(&[x0, y0]);
        let res = NelderMead::new().minimize(f, &[x0, y0], &[0.3, 0.3]);
        assert!(res.value <= start + 1e-12);
    });
}

/// Merging running stats equals sequential accumulation.
#[test]
fn stats_merge_associative() {
    cases(128, |rng| {
        let len = 2 + rng.below(62) as usize;
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(-100.0, 100.0)).collect();
        let split = (1 + rng.below(62) as usize).min(data.len() - 1);
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-7);
    });
}

/// Linspace is monotone with exact endpoints.
#[test]
fn linspace_monotone() {
    cases(128, |rng| {
        let a = rng.range_f64(-100.0, 100.0);
        let w = rng.range_f64(0.1, 100.0);
        let n = 2 + rng.below(48) as usize;
        let g = osc_math::linspace(a, a + w, n);
        assert_eq!(g.len(), n);
        assert!((g[0] - a).abs() < 1e-12);
        assert!((g[n - 1] - (a + w)).abs() < 1e-9);
        for pair in g.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    });
}

/// Binomial symmetry C(n,k) = C(n,n-k).
#[test]
fn binomial_symmetry() {
    cases(128, |rng| {
        let n = rng.below(40) as u32;
        let k = rng.below(u64::from(n) + 1) as u32;
        assert_eq!(
            osc_math::special::binomial(n, k),
            osc_math::special::binomial(n, n - k)
        );
    });
}

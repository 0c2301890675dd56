//! Property lock for the log-linear histogram quantile error bound.
//!
//! [`tcsc_obs::Histogram`] keeps bucket counts, not samples, so quantiles
//! resolve to the upper bound of the bucket containing the rank; each power
//! of two is split into 16 linear sub-buckets.  The documented bound on
//! `MetricsRegistry`'s quantile surface is: the true `q`-quantile `x`
//! satisfies `x <= quantile(q) <= x + x / 16` (never an underestimate, at
//! most one sixteenth over, exact below 32), and `quantile(q) == 0` exactly
//! when `x == 0`.  This test checks the bound against exact quantiles
//! computed from the retained samples, across seeded distributions spanning
//! the bucket range.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_obs::Histogram;

/// The exact `q`-quantile under the same rank convention the histogram
/// uses: the `ceil(q * n)`-th smallest sample (1-based, floor of 1).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn assert_bound(samples: &[u64], context: &str) {
    let mut h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
        let exact = exact_quantile(&sorted, q);
        let bucketed = h.quantile(q);
        assert!(
            bucketed >= exact,
            "{context}: q={q} underestimated: exact {exact}, bucketed {bucketed}"
        );
        assert!(
            bucketed <= exact.saturating_add(exact / 16),
            "{context}: q={q} over 1/16: exact {exact}, bucketed {bucketed}"
        );
        if exact < 32 {
            assert_eq!(bucketed, exact, "{context}: q={q} small values are exact");
        }
    }
}

#[test]
fn bucketed_quantiles_never_underestimate_and_stay_under_2x() {
    // The bound checked is the tighter `exact + exact / 16`.
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);

        // Small values exercise the exact low buckets (0..32).
        let small: Vec<u64> = (0..500).map(|_| rng.gen_range(0..40u64)).collect();
        assert_bound(&small, "small uniform");

        // Wide uniform range crosses many buckets.
        let wide: Vec<u64> = (0..500).map(|_| rng.gen_range(1..1_000_000u64)).collect();
        assert_bound(&wide, "wide uniform");

        // Heavy tail: most samples tiny, a few enormous — the shape the
        // latency windows actually see.
        let tailed: Vec<u64> = (0..500)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    rng.gen_range(1_000_000..1_000_000_000u64)
                } else {
                    rng.gen_range(100..10_000u64)
                }
            })
            .collect();
        assert_bound(&tailed, "heavy tail");

        // The top of the range, where bucket arithmetic could overflow.
        let huge: Vec<u64> = (0..100)
            .map(|_| rng.gen_range(1u64 << 62..=u64::MAX))
            .collect();
        assert_bound(&huge, "top of range");
    }
}

#[test]
fn degenerate_distributions_hit_the_bound_exactly() {
    // A constant distribution clamps to min == max: zero error.
    for value in [0u64, 1, 7, 1 << 40, u64::MAX] {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(value);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), value, "constant {value} q={q}");
        }
    }
    // A single sample is its own every-quantile.
    let mut h = Histogram::default();
    h.record(12_345);
    assert_eq!(h.p50(), 12_345);
    assert_eq!(h.p99(), 12_345);
}

#[test]
fn worst_case_error_approaches_but_never_reaches_2x() {
    // 2^k is the first value of its sub-bucket, which spans 2^(k-4) values;
    // with a larger max present the reported upper bound 2^k + 2^(k-4) - 1
    // is the worst case: ratio (1 + 1/16 - 2^-k)x, just under the bound.
    let mut h = Histogram::default();
    for _ in 0..99 {
        h.record(1 << 20); // lower edge of its sub-bucket
    }
    h.record(u64::MAX); // keeps the max clamp out of the way
    let reported = h.quantile(0.5);
    let exact = 1u64 << 20;
    assert_eq!(reported, exact + (1 << 16) - 1);
    assert!(reported >= exact && reported <= exact + exact / 16);

    // Merging keeps the layout: the same samples split over two histograms
    // report the same quantiles as one.
    let mut a = Histogram::default();
    let mut b = Histogram::default();
    let mut both = Histogram::default();
    for v in (0..2_000u64).map(|i| i * i * 37) {
        if v % 3 == 0 {
            a.record(v);
        } else {
            b.record(v);
        }
        both.record(v);
    }
    a.merge(&b);
    assert_eq!(a, both);
}

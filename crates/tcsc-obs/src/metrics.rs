//! Counters, gauges, log-linear histograms and sliding SLO windows.
//!
//! The registry is deliberately tiny: names are `&'static str`, storage is a
//! sorted association list (the workspace records a few dozen distinct
//! names), and histograms use HdrHistogram-style log-linear buckets (16
//! linear sub-buckets per power of two) so recording is one index
//! computation and one increment.
//!
//! # Quantile error bound
//!
//! Histograms retain bucket counts, not samples, so quantiles resolve to the
//! bucket containing the rank: [`Histogram::quantile`] returns the bucket's
//! upper bound, clamped to the exact observed `min`/`max`.  Values below 32
//! get a bucket each; above that, the power of two `[2^e, 2^(e+1))` is split
//! into 16 buckets of width `2^(e-4)`.  The true `q`-quantile `x` shares the
//! reported bucket, so the report never underestimates and overestimates by
//! less than one bucket width, which is at most `x / 16`:
//! `x <= reported <= x + x / 16` (exact below 32).  That tells 40 ms from
//! 64 ms apart, which a power-of-two layout cannot — the bound is locked by
//! the exact-vs-bucketed property test in `tests/quantile_error.rs`.

use crate::slo::SlidingWindow;

/// Linear sub-buckets per power of two, as a bit count (16 sub-buckets).
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` observations.
///
/// Values below 32 map to their own bucket; a value `v` with
/// `2^e <= v < 2^(e+1)` (`e >= 4`) maps to one of 16 equal-width buckets
/// covering that power of two.  The bucket vector grows only up to the
/// largest value seen, so empty and small-valued histograms stay cheap to
/// clone and merge; `min`/`max`/`sum` are tracked exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((value >> shift) & (SUB - 1))) as usize
    }

    /// The largest value that maps to bucket `index`.
    fn upper_of(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let shift = index / SUB - 1;
        ((SUB + index % SUB) << shift) + ((1u64 << shift) - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let i = Self::bucket_of(value);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), clamped to the exact observed `min`/`max`.  Exact
    /// values are not retained, so this is a log-linear estimate: the true
    /// quantile `x` satisfies `x <= quantile(q) <= x + x / 16` (never an
    /// underestimate — see the module docs for the derivation and
    /// `tests/quantile_error.rs` for the property lock).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_of(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One gauge: the latest set value plus the observed peak (the peak is what
/// bounded-memory gates read — "what did the retired ledger grow to").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub last: u64,
    /// Largest value ever set.
    pub max: u64,
    /// Number of samples set.
    pub samples: u64,
}

/// Named counters, gauges, histograms and sliding SLO windows, each in
/// deterministic (sorted-name) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, Gauge)>,
    histograms: Vec<(&'static str, Histogram)>,
    windows: Vec<(&'static str, SlidingWindow)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.binary_search_by_key(&name, |(n, _)| n) {
            Ok(i) => self.counters[i].1 += delta,
            Err(i) => self.counters.insert(i, (name, delta)),
        }
    }

    /// Records one observation into the named histogram (creating it empty).
    pub fn value(&mut self, name: &'static str, value: u64) {
        match self.histograms.binary_search_by_key(&name, |(n, _)| n) {
            Ok(i) => self.histograms[i].1.record(value),
            Err(i) => {
                let mut h = Histogram::default();
                h.record(value);
                self.histograms.insert(i, (name, h));
            }
        }
    }

    /// Sets the named gauge to `value` (tracking the peak alongside).
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        match self.gauges.binary_search_by_key(&name, |(n, _)| n) {
            Ok(i) => {
                let g = &mut self.gauges[i].1;
                g.last = value;
                g.max = g.max.max(value);
                g.samples += 1;
            }
            Err(i) => self.gauges.insert(
                i,
                (
                    name,
                    Gauge {
                        last: value,
                        max: value,
                        samples: 1,
                    },
                ),
            ),
        }
    }

    /// The named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, g)| g)
    }

    /// The named gauge's peak value (0 when never set).
    pub fn gauge_peak(&self, name: &str) -> u64 {
        self.gauge(name).map_or(0, |g| g.max)
    }

    /// All gauges in sorted-name order.
    pub fn gauges(&self) -> &[(&'static str, Gauge)] {
        &self.gauges
    }

    /// Installs a sliding SLO window under `name`: `slices` ring slices of
    /// `slice_nanos` each.  Re-installing an existing name resets it to the
    /// new (empty) spec.  Once installed, [`MetricsRegistry::window_record`]
    /// feeds it — and [`Recorder::value`](crate::Recorder::value) on an
    /// [`ObsSession`](crate::ObsSession) routes same-named
    /// histogram observations into it automatically.
    pub fn install_window(&mut self, name: &'static str, slice_nanos: u64, slices: usize) {
        let window = SlidingWindow::new(slice_nanos, slices);
        match self.windows.binary_search_by_key(&name, |(n, _)| n) {
            Ok(i) => self.windows[i].1 = window,
            Err(i) => self.windows.insert(i, (name, window)),
        }
    }

    /// Records one observation at `now` into the named window.  Returns
    /// `false` (and records nothing) when no window of that name is
    /// installed, so callers can share one code path with plain histograms.
    pub fn window_record(&mut self, name: &str, now: u64, value: u64) -> bool {
        match self.windows.binary_search_by_key(&name, |(n, _)| n) {
            Ok(i) => {
                self.windows[i].1.record(now, value);
                true
            }
            Err(_) => false,
        }
    }

    /// Rotates every installed window to `now` (evicting expired slices).
    /// The virtual clock calls this from
    /// [`crate::ObsSession::set_virtual_nanos`] so simulated time advances
    /// windows even between observations.
    pub fn advance_windows(&mut self, now: u64) {
        for (_, w) in &mut self.windows {
            w.advance(now);
        }
    }

    /// The named sliding window, if installed.
    pub fn window(&self, name: &str) -> Option<&SlidingWindow> {
        self.windows
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| w)
    }

    /// All sliding windows in sorted-name order.
    pub fn windows(&self) -> &[(&'static str, SlidingWindow)] {
        &self.windows
    }

    /// The named counter's value (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// All counters in sorted-name order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All histograms in sorted-name order.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.histograms
    }

    /// The plain-text summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("  counter {name:<34} {value}\n"));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!(
                "  gauge   {name:<34} last={} peak={}\n",
                g.last, g.max
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  hist    {name:<34} n={} mean={:.0} p50<={} p99<={} max={}\n",
                h.count(),
                h.mean(),
                h.p50(),
                h.p99(),
                h.max()
            ));
        }
        for (name, w) in &self.windows {
            let h = w.windowed();
            out.push_str(&format!(
                "  window  {name:<34} n={} p50<={} p99<={} max={} rate={:.1}/s\n",
                h.count(),
                h.p50(),
                h.p99(),
                h.max(),
                w.rate_per_sec()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; its bucket [496, 511] tops out at 511.
        assert!(
            h.p50() >= 500 && h.p50() <= 500 + 500 / 16,
            "p50={}",
            h.p50()
        );
        assert!(h.p99() >= 990, "p99={}", h.p99());
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let mut h = Histogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter("z", 1);
        a.counter("a", 2);
        a.counter("z", 1);
        a.value("lat", 10);
        a.value("lat", 20);
        assert_eq!(a.counter_value("z"), 2);
        assert_eq!(a.counter_value("a"), 2);
        assert_eq!(a.counter_value("missing"), 0);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert!(a.histogram("other").is_none());
        // Sorted-name order is deterministic.
        let names: Vec<_> = a.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert!(a.render().contains("counter a"));
        assert!(a.render().contains("hist    lat"));
    }

    #[test]
    fn registry_gauges_track_last_and_peak() {
        let mut a = MetricsRegistry::new();
        a.gauge_set("depth", 5);
        a.gauge_set("depth", 2);
        let g = a.gauge("depth").unwrap();
        assert_eq!((g.last, g.max, g.samples), (2, 5, 2));
        assert_eq!(a.gauge_peak("depth"), 5);
        assert_eq!(a.gauge_peak("missing"), 0);
        assert!(a.gauge("missing").is_none());
        assert!(a.render().contains("gauge   depth"));
    }

    #[test]
    fn registry_windows_install_record_and_advance() {
        let mut a = MetricsRegistry::new();
        assert!(!a.window_record("lat", 0, 1), "uninstalled window rejects");
        a.install_window("lat", 1_000, 4);
        assert!(a.window_record("lat", 100, 7));
        assert_eq!(a.window("lat").unwrap().windowed_count(), 1);
        // Re-install resets.
        a.install_window("lat", 1_000, 4);
        assert_eq!(a.window("lat").unwrap().windowed_count(), 0);
        a.window_record("lat", 100, 7);
        a.window_record("lat", 200, 9);
        a.install_window("fresh", 500, 2);
        a.window_record("fresh", 10, 3);
        assert_eq!(a.window("lat").unwrap().windowed_count(), 2);
        assert_eq!(a.window("fresh").unwrap().windowed_count(), 1);
        assert!(a.render().contains("window  lat"));
        // advance_windows rotates every installed window.
        a.advance_windows(10_000_000);
        assert_eq!(a.window("lat").unwrap().windowed_count(), 0);
        assert_eq!(a.window("fresh").unwrap().windowed_count(), 0);
    }
}

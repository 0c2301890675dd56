//! Sliding-window SLO metrics: windowed latency percentiles and rates.
//!
//! Whole-run aggregates answer "how did the run go"; a service gets asked
//! "what is p99 assignment latency *right now*".  A [`SlidingWindow`] keeps a
//! ring of the registry's log-linear [`Histogram`]s, one per **slice** of
//! the window, and rotates the ring as the clock advances: recording is one
//! histogram increment, windowed queries merge the live slices, and samples
//! older than `slices × slice_nanos` fall out exactly one slice at a time.
//!
//! The window is clock-agnostic — every operation takes an explicit `now` in
//! nanoseconds, so the same code serves the wall clock (the service drivers)
//! and the virtual clock (the discrete-event simulation, which advances the
//! window through [`crate::ObsSession::set_virtual_nanos`]).  Eviction is
//! deterministic: advancing `now` by exactly one slice drops precisely the
//! oldest slice's samples, a property locked by
//! `tests/window_eviction.rs`.

use crate::metrics::Histogram;

/// A sliding window over `u64` observations: a ring of per-slice
/// [`Histogram`]s rotated by the clock.
///
/// Slice `k` (absolute index `now / slice_nanos`) lives in ring position
/// `k % slices`; advancing the clock clears every ring position whose slice
/// has fallen out of the window.  Windowed statistics
/// ([`SlidingWindow::windowed`]) merge the live slices; lifetime counters
/// ([`SlidingWindow::lifetime_count`]) are never evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    slice_nanos: u64,
    ring: Vec<Histogram>,
    /// Absolute index of the newest slice the window has seen.
    current_slice: u64,
    /// Whether any observation or advancement happened yet (slice 0 is only
    /// live once touched).
    touched: bool,
    lifetime_count: u64,
}

impl SlidingWindow {
    /// A window of `slices` slices of `slice_nanos` each.
    ///
    /// # Panics
    /// Panics when `slice_nanos` is zero or `slices` is zero.
    pub fn new(slice_nanos: u64, slices: usize) -> Self {
        assert!(slice_nanos > 0, "a window slice must have positive width");
        assert!(slices > 0, "a window needs at least one slice");
        Self {
            slice_nanos,
            ring: vec![Histogram::default(); slices],
            current_slice: 0,
            touched: false,
            lifetime_count: 0,
        }
    }

    /// The configured slice width in nanoseconds.
    pub fn slice_nanos(&self) -> u64 {
        self.slice_nanos
    }

    /// The configured number of slices.
    pub fn slices(&self) -> usize {
        self.ring.len()
    }

    /// Rotates the ring so that `now` falls in the current slice, clearing
    /// every slice that left the window.  Clocks are monotone; a `now`
    /// before the current slice records into the current slice instead of
    /// time-travelling.
    pub fn advance(&mut self, now: u64) {
        let target = now / self.slice_nanos;
        if !self.touched {
            self.touched = true;
            self.current_slice = target;
            return;
        }
        if target <= self.current_slice {
            return;
        }
        let steps = target - self.current_slice;
        let slices = self.ring.len() as u64;
        if steps >= slices {
            // The whole window fell out of scope.
            for h in &mut self.ring {
                *h = Histogram::default();
            }
        } else {
            for s in self.current_slice + 1..=target {
                self.ring[(s % slices) as usize] = Histogram::default();
            }
        }
        self.current_slice = target;
    }

    /// Records one observation at `now` (advancing the window first).
    pub fn record(&mut self, now: u64, value: u64) {
        self.advance(now);
        let slices = self.ring.len() as u64;
        self.ring[(self.current_slice % slices) as usize].record(value);
        self.lifetime_count += 1;
    }

    /// The merged histogram over every live slice — the windowed view.
    pub fn windowed(&self) -> Histogram {
        let mut merged = Histogram::default();
        for h in &self.ring {
            merged.merge(h);
        }
        merged
    }

    /// Number of observations currently inside the window.
    pub fn windowed_count(&self) -> u64 {
        self.ring.iter().map(Histogram::count).sum()
    }

    /// Sum of the observations currently inside the window (saturating).
    pub fn windowed_sum(&self) -> u64 {
        self.ring
            .iter()
            .fold(0u64, |acc, h| acc.saturating_add(h.sum()))
    }

    /// Windowed observation rate in events per second: the windowed count
    /// over the covered span.  Until the clock has crossed a full window,
    /// the covered span is the slices elapsed so far (so a fresh window does
    /// not under-report); afterwards it is the full window span.
    pub fn rate_per_sec(&self) -> f64 {
        let slices_elapsed = (self.current_slice + 1).min(self.ring.len() as u64);
        let span = self.slice_nanos * slices_elapsed;
        if span == 0 {
            return 0.0;
        }
        self.windowed_count() as f64 * 1e9 / span as f64
    }

    /// Observations recorded over the window's whole lifetime (never
    /// evicted).
    pub fn lifetime_count(&self) -> u64 {
        self.lifetime_count
    }

    /// Per-slice observation counts in ring order, oldest slice first — the
    /// observable surface of the eviction property tests.
    pub fn slice_counts(&self) -> Vec<u64> {
        let slices = self.ring.len() as u64;
        let newest = self.current_slice % slices;
        (1..=slices)
            .map(|back| {
                let pos = (newest + back) % slices;
                self.ring[pos as usize].count()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_current_slice() {
        let mut w = SlidingWindow::new(1_000, 4);
        w.record(100, 7);
        w.record(900, 9);
        assert_eq!(w.windowed_count(), 2);
        assert_eq!(w.windowed_sum(), 16);
        assert_eq!(w.lifetime_count(), 2);
        assert_eq!(w.slice_counts(), vec![0, 0, 0, 2]);
    }

    #[test]
    fn one_slice_advance_drops_exactly_the_oldest_slice() {
        let mut w = SlidingWindow::new(1_000, 3);
        w.record(500, 1); // slice 0
        w.record(1_500, 2); // slice 1
        w.record(2_500, 3); // slice 2
        assert_eq!(w.windowed_count(), 3);
        // Entering slice 3 evicts slice 0 and nothing else.
        w.advance(3_000);
        assert_eq!(w.windowed_count(), 2);
        assert_eq!(w.windowed_sum(), 5);
        assert_eq!(w.lifetime_count(), 3, "lifetime counters never evict");
    }

    #[test]
    fn a_large_jump_clears_the_whole_window() {
        let mut w = SlidingWindow::new(1_000, 3);
        for t in 0..3 {
            w.record(t * 1_000, t);
        }
        w.advance(1_000_000);
        assert_eq!(w.windowed_count(), 0);
        assert_eq!(w.rate_per_sec(), 0.0);
        assert_eq!(w.lifetime_count(), 3);
    }

    #[test]
    fn windowed_percentiles_track_recent_samples_only() {
        let mut w = SlidingWindow::new(1_000, 2);
        // Old slice: large values.
        for _ in 0..100 {
            w.record(0, 1_000_000);
        }
        // Two slices later the spike is gone.
        for _ in 0..100 {
            w.record(2_500, 10);
        }
        let h = w.windowed();
        assert!(
            h.p99() <= 15,
            "p99={} should reflect the calm slice",
            h.p99()
        );
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn rate_uses_elapsed_slices_until_the_window_fills() {
        let mut w = SlidingWindow::new(1_000_000_000, 4); // 1s slices
        w.record(0, 1);
        w.record(1, 1);
        // Two samples in the first second of a still-filling window.
        assert!((w.rate_per_sec() - 2.0).abs() < 1e-9);
        // Slice 3 is the last position at which slice 0 is still live: the
        // same two samples now spread over the full 4s span.
        w.advance(3_999_999_999);
        assert_eq!(w.windowed_count(), 2);
        assert!((w.rate_per_sec() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn zero_slice_width_is_rejected() {
        let _ = SlidingWindow::new(0, 2);
    }
}

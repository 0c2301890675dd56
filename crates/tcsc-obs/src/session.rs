//! The live recorder: a session owning the clock, the event buffers and the
//! metrics registry.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::{chrome_trace_jsonl, obs_digest, Phase, Recorder, Scope, TraceEvent};

/// Which clock stamps the events.
#[derive(Debug)]
enum ClockKind {
    /// Monotonic wall time, nanoseconds since the session epoch.
    Wall,
    /// Externally-driven virtual time (the simulation kernel sets it via
    /// [`ObsSession::set_virtual_nanos`] before delivering each event).
    Virtual(Cell<u64>),
}

/// A live observability session: one clock, one event stream, one metrics
/// registry.  Every [`Recorder`] that records names one;
/// runtimes hold it by shared reference (`&ObsSession`) or `Rc` and the
/// caller extracts the [`ObsReport`] when the run finishes.  The cells make
/// it `!Sync`: exactly one thread records.
#[derive(Debug)]
pub struct ObsSession {
    epoch: Instant,
    clock: ClockKind,
    seq: Cell<u64>,
    events: RefCell<Vec<TraceEvent>>,
    pub(crate) metrics: RefCell<MetricsRegistry>,
}

impl ObsSession {
    /// A wall-clock session (the bench drivers and in-process engines).
    pub fn wall() -> Self {
        Self::with_clock(ClockKind::Wall)
    }

    /// A virtual-time session (the discrete-event simulation): time stands
    /// at 0 until [`ObsSession::set_virtual_nanos`] advances it.
    pub fn virtual_time() -> Self {
        Self::with_clock(ClockKind::Virtual(Cell::new(0)))
    }

    fn with_clock(clock: ClockKind) -> Self {
        Self {
            epoch: Instant::now(),
            clock,
            seq: Cell::new(0),
            events: RefCell::new(Vec::new()),
            metrics: RefCell::new(MetricsRegistry::new()),
        }
    }

    /// Advances the virtual clock (no-op on wall-clock sessions).  The
    /// simulation kernel calls this with the event-queue time before any
    /// component runs, so every event recorded while handling a message is
    /// stamped with the message's virtual delivery time.  Installed sliding
    /// windows rotate with the clock, so windowed SLOs evict on virtual
    /// time exactly as wall-clock windows evict on wall time.
    pub fn set_virtual_nanos(&self, nanos: u64) {
        if let ClockKind::Virtual(cell) = &self.clock {
            cell.set(nanos);
            self.metrics.borrow_mut().advance_windows(nanos);
        }
    }

    /// Installs (or resets) a sliding window on the named series: subsequent
    /// [`Recorder::value`] observations with this name also land in the
    /// window at the session's current clock reading, giving windowed
    /// p50/p99/rate next to the lifetime histogram.
    pub fn install_window(&self, name: &'static str, slice_nanos: u64, slices: usize) {
        self.metrics
            .borrow_mut()
            .install_window(name, slice_nanos, slices);
    }

    /// The current clock reading in nanoseconds.
    pub(crate) fn now_nanos(&self) -> u64 {
        match &self.clock {
            ClockKind::Wall => u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ClockKind::Virtual(cell) => cell.get(),
        }
    }

    pub(crate) fn push(
        &self,
        scope: Scope,
        phase: Phase,
        label: &'static str,
        a: u64,
        b: u64,
        c: u64,
    ) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.events.borrow_mut().push(TraceEvent {
            time: self.now_nanos(),
            seq,
            scope,
            phase,
            label,
            a,
            b,
            c,
        });
    }

    /// The recorded event stream, sorted deterministically by
    /// `(time, seq)` — one total order, so re-sorting is stable.
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.borrow().clone();
        events.sort_by_key(|e| (e.time, e.seq));
        events
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.borrow().clone()
    }

    /// The stable digest over the logical projection of the merged stream
    /// (see [`obs_digest`]).
    pub fn digest(&self) -> u64 {
        obs_digest(&self.merged_events())
    }

    /// The chrome://tracing JSONL dump of the merged stream.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_jsonl(&self.merged_events())
    }

    /// The plain-text summary table: counters, histogram percentiles and the
    /// digest.
    pub fn summary(&self) -> String {
        let events = self.merged_events();
        let mut out = String::new();
        out.push_str(&format!(
            "obs summary: {} events, digest {:#018x}\n",
            events.len(),
            obs_digest(&events)
        ));
        out.push_str(&self.metrics.borrow().render());
        out
    }

    /// Everything a caller keeps after the run: the merged stream, its
    /// digest and the metrics snapshot.
    pub fn report(&self) -> ObsReport {
        let events = self.merged_events();
        let digest = obs_digest(&events);
        ObsReport {
            events,
            digest,
            metrics: self.metrics.borrow().clone(),
        }
    }
}

impl Recorder for ObsSession {
    const IS_ENABLED: bool = true;

    #[inline]
    fn session(&self) -> Option<&ObsSession> {
        Some(self)
    }
}

/// `Rc` handles record through the shared session (the simulation
/// components all hold one).
impl Recorder for std::rc::Rc<ObsSession> {
    const IS_ENABLED: bool = true;

    #[inline]
    fn session(&self) -> Option<&ObsSession> {
        Some(self)
    }
}

/// The keepable output of a session: merged events, digest, metrics.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// The `(time, seq)`-ordered event stream.
    pub events: Vec<TraceEvent>,
    /// [`obs_digest`] over the stream's logical projection.
    pub digest: u64,
    /// The metrics snapshot.
    pub metrics: MetricsRegistry,
}

impl ObsReport {
    /// The chrome://tracing JSONL dump of the stream.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_jsonl(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_stamps_events() {
        let session = ObsSession::virtual_time();
        session.set_virtual_nanos(5_000);
        session.instant(Scope::Transport, "send", 1, 2, 0);
        session.set_virtual_nanos(9_000);
        session.instant(Scope::Transport, "recv", 1, 2, 0);
        let events = session.merged_events();
        assert_eq!(events[0].time, 5_000);
        assert_eq!(events[1].time, 9_000);
    }

    #[test]
    fn counters_and_values_land_in_metrics() {
        let session = ObsSession::wall();
        session.counter("engine.conflicts", 3);
        session.counter("engine.conflicts", 2);
        session.value("engine.batch_ns", 1_000);
        let metrics = session.metrics();
        assert_eq!(metrics.counter_value("engine.conflicts"), 5);
        assert_eq!(metrics.histogram("engine.batch_ns").unwrap().count(), 1);
        assert!(session.summary().contains("engine.conflicts"));
    }

    #[test]
    fn gauges_emit_counter_events_and_track_peaks() {
        let session = ObsSession::virtual_time();
        session.set_virtual_nanos(10);
        session.gauge("engine.queue_depth", 4);
        session.set_virtual_nanos(20);
        session.gauge("engine.queue_depth", 9);
        session.set_virtual_nanos(30);
        session.gauge("engine.queue_depth", 2);
        let metrics = session.metrics();
        let g = metrics.gauge("engine.queue_depth").unwrap();
        assert_eq!(g.last, 2);
        assert_eq!(g.max, 9);
        assert_eq!(g.samples, 3);
        let events = session.merged_events();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::Counter)
            .collect();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[1].a, 9);
        assert_eq!(samples[1].time, 20);
    }

    #[test]
    fn values_feed_installed_windows_on_the_virtual_clock() {
        let session = ObsSession::virtual_time();
        session.install_window("svc.latency_ns", 1_000, 4);
        session.set_virtual_nanos(100);
        session.value("svc.latency_ns", 50);
        session.set_virtual_nanos(1_100);
        session.value("svc.latency_ns", 70);
        let metrics = session.metrics();
        let w = metrics.window("svc.latency_ns").unwrap();
        assert_eq!(w.windowed_count(), 2);
        // Jumping the virtual clock past the window span evicts everything,
        // while the lifetime histogram keeps both observations.
        session.set_virtual_nanos(1_000_000);
        let metrics = session.metrics();
        assert_eq!(
            metrics.window("svc.latency_ns").unwrap().windowed_count(),
            0
        );
        assert_eq!(metrics.histogram("svc.latency_ns").unwrap().count(), 2);
    }
}

//! # tcsc-obs
//!
//! Zero-dependency tracing and metrics for the TCSC runtimes.  The build
//! environment is hermetic (no `tracing` / `metrics` crates), so this crate
//! reimplements the minimal subset the repository needs:
//!
//! * a clock abstraction over **wall time** (a monotonic [`Stopwatch`]
//!   epoch) and **virtual time** (the discrete-event simulator's clock,
//!   driven externally via [`ObsSession::set_virtual_nanos`]);
//! * lightweight **spans and events** ([`TraceEvent`]) recorded into the
//!   session and ordered deterministically by `(time, seq)`
//!   ([`ObsSession::merged_events`]);
//! * a [`MetricsRegistry`] of named counters and log-linear [`Histogram`]s
//!   (16 sub-buckets per power of two: p50/p99 assignment latency,
//!   per-grant refresh cost, master grant/execution counts, shard-router
//!   tile visits, cache hit/miss);
//! * exporters: a chrome://tracing-compatible JSONL dump
//!   ([`chrome_trace_jsonl`]), a plain-text summary table
//!   ([`ObsSession::summary`]), and a stable [`obs_digest`] hash over the
//!   **logical** (layout- and latency-invariant) projection of the
//!   virtual-time event stream.
//!
//! ## The `Recorder` trait and the no-op default
//!
//! Every instrumented runtime is generic over `R:`[`Recorder`] with a
//! [`NoopRecorder`] default.  `Recorder::IS_ENABLED` is an associated
//! `const`, so instrumentation sites are written
//!
//! ```ignore
//! if R::IS_ENABLED {
//!     self.obs.begin("commit", tasks as u64);
//! }
//! ```
//!
//! and compile to **nothing** under the default — the disabled overhead is
//! not a branch but dead code, which is what keeps the engine's per-grant
//! refresh cost identical with observability compiled in.  The bit-identity
//! of plans/conflicts/executions with observability *on vs. off* is locked
//! by `tcsc-assign/tests/obs_noop_equivalence.rs`.
//!
//! ## The digest as an equivalence lock
//!
//! Virtual-time transport events (message send/recv) and the master's
//! policy events (heartbeat arrivals, grants, executions) are stamped with
//! times and arrival orders that depend on the node layout and latency
//! model.  The **logical** events — the committed executions and the
//! conflict totals — are bit-identical across all of those by the
//! engine-equivalence guarantees, so [`obs_digest`] hashes only
//! [`Scope::Logical`] events: same seed ⇒ identical digest across node
//! counts and latency models.  Locked by
//! `tcsc-sim/tests/obs_trace.rs` and gated in CI by the `fig9obs` driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod profile;
mod session;
mod slo;

pub use export::{
    chrome_trace_jsonl, obs_digest, parse_chrome_trace_jsonl, replay_digest, ReplayedEvent,
};
pub use metrics::{Gauge, Histogram, MetricsRegistry};
pub use profile::{profile_spans, PathStat, SpanProfile};
pub use session::{ObsReport, ObsSession};
pub use slo::SlidingWindow;

use std::time::Instant;

/// Which projection of the stream an event belongs to.
///
/// The [`obs_digest`] equivalence lock hashes only [`Scope::Logical`]
/// events; the other scopes legitimately differ across node layouts and
/// latency models and are "modulo"-ed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Layout- and latency-invariant protocol outcomes (committed
    /// executions, conflict totals).  The digest hashes exactly these.
    Logical,
    /// The task-parallel master's decisions as they happen: heartbeat
    /// arrivals, grants, executions.
    Policy,
    /// Network/transport events: message send/recv, node hops.
    Transport,
    /// Pure measurement (span timings, wave sizes); never part of any
    /// equivalence comparison.
    Perf,
}

impl Scope {
    /// Stable short name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Logical => "logical",
            Scope::Policy => "policy",
            Scope::Transport => "transport",
            Scope::Perf => "perf",
        }
    }

    /// Parses [`Scope::name`] back (trace replay).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "logical" => Some(Scope::Logical),
            "policy" => Some(Scope::Policy),
            "transport" => Some(Scope::Transport),
            "perf" => Some(Scope::Perf),
            _ => None,
        }
    }
}

/// Span/event phase, mirroring the chrome://tracing `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
    /// Counter sample (`"C"`): a gauge or rate reading whose `a` payload is
    /// the sampled value.  chrome://tracing plots these as counter tracks.
    Counter,
}

impl Phase {
    /// The chrome://tracing phase letter.
    pub fn letter(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }

    /// Parses [`Phase::letter`] back (trace replay).
    pub fn from_letter(letter: &str) -> Option<Self> {
        match letter {
            "B" => Some(Phase::Begin),
            "E" => Some(Phase::End),
            "i" => Some(Phase::Instant),
            "C" => Some(Phase::Counter),
            _ => None,
        }
    }
}

/// One recorded trace event.
///
/// `time` is nanoseconds — since the session epoch under the wall clock,
/// or virtual-simulation nanoseconds under the virtual clock.  `seq` is the
/// session's record sequence; the deterministic order is `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in nanoseconds (wall-since-epoch or virtual).
    pub time: u64,
    /// Monotone record sequence number.
    pub seq: u64,
    /// Stream projection (see [`Scope`]).
    pub scope: Scope,
    /// Span phase.
    pub phase: Phase,
    /// Event label (static: recording never allocates for the name).
    pub label: &'static str,
    /// First payload word (meaning is per-label).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word (e.g. an `f64::to_bits` cost).
    pub c: u64,
}

/// The recording interface every instrumented runtime is generic over.
///
/// An implementation names the session it records into, if any; the
/// recording methods are written once, here, against that session.  All
/// methods take `&self` (the session uses interior mutability) so a shared
/// `&ObsSession` handle can be held by several runtimes at once.  The
/// [`NoopRecorder`] default has [`Recorder::IS_ENABLED`]` == false` and no
/// session; instrumentation sites guard on the const so the disabled path
/// compiles away entirely.
pub trait Recorder {
    /// Statically-known enablement: `false` compiles instrumentation out.
    const IS_ENABLED: bool;

    /// The session this recorder records into (`None` records nothing).
    fn session(&self) -> Option<&ObsSession>;

    /// Records a span begin at the current clock reading.
    #[inline]
    fn begin(&self, label: &'static str, a: u64) {
        if let Some(s) = self.session() {
            s.push(Scope::Perf, Phase::Begin, label, a, 0, 0);
        }
    }

    /// Records a span end at the current clock reading.
    #[inline]
    fn end(&self, label: &'static str, a: u64) {
        if let Some(s) = self.session() {
            s.push(Scope::Perf, Phase::End, label, a, 0, 0);
        }
    }

    /// Records an instantaneous event.
    #[inline]
    fn instant(&self, scope: Scope, label: &'static str, a: u64, b: u64, c: u64) {
        if let Some(s) = self.session() {
            s.push(scope, Phase::Instant, label, a, b, c);
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    fn counter(&self, name: &'static str, delta: u64) {
        if let Some(s) = self.session() {
            s.metrics.borrow_mut().counter(name, delta);
        }
    }

    /// Sets the named gauge to `value` (a point-in-time level: queue depth,
    /// ledger size, live cache entries) and emits a [`Phase::Counter`] trace
    /// event so the level is plottable over time.
    #[inline]
    fn gauge(&self, name: &'static str, value: u64) {
        if let Some(s) = self.session() {
            s.push(Scope::Perf, Phase::Counter, name, value, 0, 0);
            s.metrics.borrow_mut().gauge_set(name, value);
        }
    }

    /// Records one observation into the named histogram, and into the
    /// sliding window of that name if one is installed
    /// ([`ObsSession::install_window`]).
    #[inline]
    fn value(&self, name: &'static str, value: u64) {
        if let Some(s) = self.session() {
            let now = s.now_nanos();
            let mut metrics = s.metrics.borrow_mut();
            metrics.value(name, value);
            metrics.window_record(name, now, value);
        }
    }
}

/// The statically-dispatched disabled recorder: every instrumented runtime
/// defaults to it, and it has no session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const IS_ENABLED: bool = false;

    #[inline(always)]
    fn session(&self) -> Option<&ObsSession> {
        None
    }
}

/// Shared references record through the referent, so runtimes can hold
/// `&ObsSession` while the caller keeps the session.
impl<R: Recorder> Recorder for &R {
    const IS_ENABLED: bool = R::IS_ENABLED;

    #[inline]
    fn session(&self) -> Option<&ObsSession> {
        (**self).session()
    }
}

/// `Option<Rc<ObsSession>>`-style dynamic recorders: `Some` records, `None`
/// is a cheap branch.  Used where a generic parameter cannot reach (the
/// simulation components share one `Rc` session); the hot solver paths use
/// the statically-dispatched generic instead.
impl<R: Recorder> Recorder for Option<R> {
    const IS_ENABLED: bool = true;

    #[inline]
    fn session(&self) -> Option<&ObsSession> {
        self.as_ref().and_then(R::session)
    }
}

/// The one wall-clock timing primitive of the repository: a monotonic
/// stopwatch.  The bench harness's `timed`, the single-task solvers' phase
/// timings, the engine's batch timings and its commit loops'
/// `warm_nanos` / `refresh_nanos` all read it, so there is exactly one
/// timing path.  The engine starts one only under a live [`Recorder`]
/// (`R::IS_ENABLED`): an untraced solve reads no clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds (saturating at `u64::MAX`).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed milliseconds as a float.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }

    /// Elapsed seconds as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    // The IS_ENABLED consts are checked at compile time — a non-constant
    // assert would trip clippy::assertions_on_constants.
    const _: () = assert!(!NoopRecorder::IS_ENABLED);
    const _: () = assert!(!<&NoopRecorder as Recorder>::IS_ENABLED);

    #[test]
    fn noop_is_statically_disabled() {
        let noop = NoopRecorder;
        noop.begin("x", 0);
        noop.end("x", 0);
        noop.counter("c", 1);
    }

    /// One span, one instant, one counter, one gauge and one windowed value.
    fn record_sequence(r: &impl Recorder, session: &ObsSession) {
        session.install_window("svc.latency_ns", 1_000, 4);
        session.set_virtual_nanos(100);
        r.begin("drain", 3);
        session.set_virtual_nanos(250);
        r.instant(Scope::Logical, "execute", 1, 2, 3);
        r.counter("engine.conflicts", 2);
        r.gauge("engine.queue_depth", 7);
        r.value("svc.latency_ns", 150);
        session.set_virtual_nanos(400);
        r.end("drain", 3);
    }

    #[test]
    fn every_recorder_handle_records_through_its_session() {
        let direct = ObsSession::virtual_time();
        record_sequence(&&direct, &direct);
        let shared = Rc::new(ObsSession::virtual_time());
        record_sequence(&shared, &shared);
        let some_ref = ObsSession::virtual_time();
        record_sequence(&Some(&some_ref), &some_ref);
        let some_rc = Rc::new(ObsSession::virtual_time());
        record_sequence(&Some(Rc::clone(&some_rc)), &some_rc);

        let events = direct.merged_events();
        assert_eq!(events.len(), 4, "begin, instant, gauge sample, end");
        assert_eq!(events[1].time, 250);
        let metrics = direct.metrics().render();
        assert!(metrics.contains("counter engine.conflicts"));
        assert!(metrics.contains("window  svc.latency_ns"));
        for other in [&*shared, &some_ref, &*some_rc] {
            assert_eq!(other.merged_events(), events);
            assert_eq!(other.metrics().render(), metrics);
        }

        let none = ObsSession::virtual_time();
        record_sequence(&None::<&ObsSession>, &none);
        let noop = ObsSession::virtual_time();
        record_sequence(&NoopRecorder, &noop);
        for idle in [none, noop] {
            assert!(idle.merged_events().is_empty());
            let metrics = idle.metrics();
            assert!(metrics.counters().is_empty());
            assert!(metrics.gauges().is_empty());
            assert!(metrics.histograms().is_empty());
            assert_eq!(
                metrics.window("svc.latency_ns").unwrap().lifetime_count(),
                0
            );
        }
    }

    #[test]
    fn scope_and_phase_round_trip() {
        for scope in [Scope::Logical, Scope::Policy, Scope::Transport, Scope::Perf] {
            assert_eq!(Scope::from_name(scope.name()), Some(scope));
        }
        for phase in [Phase::Begin, Phase::End, Phase::Instant, Phase::Counter] {
            assert_eq!(Phase::from_letter(phase.letter()), Some(phase));
        }
        assert_eq!(Scope::from_name("bogus"), None);
        assert_eq!(Phase::from_letter("X"), None);
    }

    #[test]
    fn stopwatch_measures_elapsed_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_nanos() > 0 || sw.elapsed_ms() >= 0.0);
        assert!(sw.elapsed_secs() >= 0.0);
    }
}

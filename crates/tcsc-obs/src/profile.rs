//! Span-tree profiler: folds a recorded span stream into per-path self/total
//! times and exports collapsed stacks.
//!
//! The [`crate::Recorder`] span stream (`Begin`/`End` pairs) already carries
//! everything a profiler needs; this module folds it into a call tree keyed
//! by **path** — the `;`-joined label stack, e.g.
//! `engine.drain;engine.assign_batch;engine.commit` — accumulating per path:
//!
//! * `calls` — how many spans closed at this path,
//! * `total_nanos` — wall (or virtual) time inside the span, children
//!   included,
//! * `self_nanos` — `total` minus the time spent in child spans.
//!
//! Self times telescope: summed over every path they equal the summed total
//! of the root spans, so "where does a drain's time go" is answered without
//! double counting — the acceptance bar of the `fig9svc` driver is that the
//! profile's self-time sum stays within 5% of the separately measured drain
//! wall time.
//!
//! [`SpanProfile::collapsed_stacks`] renders the classic flamegraph.pl
//! collapsed format (`path self_weight` per line, weights in nanoseconds),
//! loadable by any flamegraph viewer (inferno, speedscope, flamegraph.pl).

use std::collections::HashMap;

use crate::{Phase, TraceEvent};

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// The `;`-joined label stack, root first.
    pub path: String,
    /// Stack depth (1 = root span).
    pub depth: usize,
    /// Number of spans that closed at this path.
    pub calls: u64,
    /// Nanoseconds inside the span, children included.
    pub total_nanos: u64,
    /// Nanoseconds inside the span minus its child spans.
    pub self_nanos: u64,
}

/// The folded span tree of one recorded event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    stats: Vec<PathStat>,
}

/// One open frame while folding the span stream.
struct Frame {
    label: &'static str,
    start: u64,
    child_nanos: u64,
}

/// Folds the span events of a recorded stream into a [`SpanProfile`].
///
/// Only `Begin`/`End` phases participate, in `(time, seq)` order; instants
/// and counter samples are ignored.  Malformed streams degrade rather than
/// panic: an `End` with no matching open frame is dropped, and frames still
/// open when the stream finishes are discarded (their time was never
/// measured to completion).
pub fn profile_spans(events: &[TraceEvent]) -> SpanProfile {
    let mut ordered: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.phase, Phase::Begin | Phase::End))
        .collect();
    ordered.sort_by_key(|e| (e.time, e.seq));

    let mut paths: HashMap<String, PathStat> = HashMap::new();
    let mut stack: Vec<Frame> = Vec::new();
    for event in ordered {
        match event.phase {
            Phase::Begin => stack.push(Frame {
                label: event.label,
                start: event.time,
                child_nanos: 0,
            }),
            Phase::End => {
                // Unwind to the matching label (a missing End mid-stack
                // would otherwise poison everything after it).
                let Some(pos) = stack.iter().rposition(|f| f.label == event.label) else {
                    continue;
                };
                stack.truncate(pos + 1);
                let frame = stack.pop().expect("rposition found a frame");
                let total = event.time.saturating_sub(frame.start);
                let self_nanos = total.saturating_sub(frame.child_nanos);
                if let Some(parent) = stack.last_mut() {
                    parent.child_nanos = parent.child_nanos.saturating_add(total);
                }
                let mut path = String::new();
                for f in &stack {
                    path.push_str(f.label);
                    path.push(';');
                }
                path.push_str(frame.label);
                let depth = stack.len() + 1;
                let entry = paths.entry(path.clone()).or_insert(PathStat {
                    path,
                    depth,
                    calls: 0,
                    total_nanos: 0,
                    self_nanos: 0,
                });
                entry.calls += 1;
                entry.total_nanos = entry.total_nanos.saturating_add(total);
                entry.self_nanos = entry.self_nanos.saturating_add(self_nanos);
            }
            _ => {}
        }
    }

    let mut stats: Vec<PathStat> = paths.into_values().collect();
    stats.sort_by(|a, b| a.path.cmp(&b.path));
    SpanProfile { stats }
}

impl SpanProfile {
    /// The per-path statistics, sorted by path.
    pub fn stats(&self) -> &[PathStat] {
        &self.stats
    }

    /// The statistics of one exact path, if it closed at least once.
    pub fn get(&self, path: &str) -> Option<&PathStat> {
        self.stats.iter().find(|s| s.path == path)
    }

    /// Sum of every path's self time — equal, by telescoping, to the summed
    /// total time of the root (depth-1) spans.
    pub fn total_self_nanos(&self) -> u64 {
        self.stats.iter().map(|s| s.self_nanos).sum()
    }

    /// The flamegraph.pl collapsed-stack dump: one `path weight` line per
    /// path, weights in self-nanoseconds, sorted by path.  Feed it to any
    /// flamegraph renderer (`flamegraph.pl`, inferno, speedscope).
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for s in &self.stats {
            out.push_str(&format!("{} {}\n", s.path, s.self_nanos));
        }
        out
    }

    /// A plain-text profile table: indented tree with calls, total, self.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stats {
            let label = s.path.rsplit(';').next().unwrap_or(&s.path);
            out.push_str(&format!(
                "  {:indent$}{label:<32} calls={:<8} total={:>12}ns self={:>12}ns\n",
                "",
                s.calls,
                s.total_nanos,
                s.self_nanos,
                indent = (s.depth - 1) * 2,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    fn span(seq: u64, time: u64, phase: Phase, label: &'static str) -> TraceEvent {
        TraceEvent {
            time,
            seq,
            scope: Scope::Perf,
            phase,
            label,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn nested_spans_fold_into_paths_with_self_times() {
        let events = vec![
            span(0, 0, Phase::Begin, "drain"),
            span(1, 10, Phase::Begin, "checkout"),
            span(2, 40, Phase::End, "checkout"),
            span(3, 50, Phase::Begin, "commit"),
            span(4, 90, Phase::End, "commit"),
            span(5, 100, Phase::End, "drain"),
        ];
        let profile = profile_spans(&events);
        let drain = profile.get("drain").unwrap();
        assert_eq!(drain.calls, 1);
        assert_eq!(drain.total_nanos, 100);
        assert_eq!(drain.self_nanos, 30); // 100 - 30 (checkout) - 40 (commit)
        let checkout = profile.get("drain;checkout").unwrap();
        assert_eq!(checkout.total_nanos, 30);
        assert_eq!(checkout.self_nanos, 30);
        assert_eq!(checkout.depth, 2);
        // Self times telescope to the root total.
        assert_eq!(profile.total_self_nanos(), drain.total_nanos);
    }

    #[test]
    fn repeated_calls_accumulate() {
        let mut events = Vec::new();
        for i in 0..3u64 {
            events.push(span(i * 2, i * 100, Phase::Begin, "work"));
            events.push(span(i * 2 + 1, i * 100 + 20, Phase::End, "work"));
        }
        let profile = profile_spans(&events);
        let work = profile.get("work").unwrap();
        assert_eq!(work.calls, 3);
        assert_eq!(work.total_nanos, 60);
    }

    #[test]
    fn a_same_label_span_opened_inside_another_nests() {
        // An End closes the innermost open frame of its label.
        let events = vec![
            span(0, 0, Phase::Begin, "region"),
            span(1, 5, Phase::Begin, "region"),
            span(2, 10, Phase::End, "region"),
            span(3, 25, Phase::End, "region"),
        ];
        let profile = profile_spans(&events);
        let outer = profile.get("region").unwrap();
        assert_eq!(
            (outer.calls, outer.total_nanos, outer.self_nanos),
            (1, 25, 20)
        );
        let inner = profile.get("region;region").unwrap();
        assert_eq!((inner.calls, inner.total_nanos, inner.depth), (1, 5, 2));
    }

    #[test]
    fn malformed_streams_degrade_gracefully() {
        let events = vec![
            // End with no Begin: dropped.
            span(0, 5, Phase::End, "ghost"),
            // Begin that never closes: discarded.
            span(1, 10, Phase::Begin, "open"),
            // A clean span inside the dangling one still folds.
            span(2, 20, Phase::Begin, "inner"),
            span(3, 30, Phase::End, "inner"),
        ];
        let profile = profile_spans(&events);
        assert!(profile.get("ghost").is_none());
        assert!(profile.get("open").is_none());
        assert_eq!(profile.get("open;inner").unwrap().total_nanos, 10);
    }

    #[test]
    fn collapsed_stacks_render_path_and_weight() {
        let events = vec![
            span(0, 0, Phase::Begin, "a"),
            span(1, 10, Phase::Begin, "b"),
            span(2, 30, Phase::End, "b"),
            span(3, 50, Phase::End, "a"),
        ];
        let profile = profile_spans(&events);
        let collapsed = profile.collapsed_stacks();
        assert!(collapsed.contains("a 30\n"));
        assert!(collapsed.contains("a;b 20\n"));
        assert!(profile.render().contains("calls=1"));
    }
}

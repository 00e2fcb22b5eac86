//! Process-wide metrics: counters, gauges, and fixed-bucket latency
//! histograms with label support.
//!
//! The paper's pitch (§2, §4) is that data-centric composition makes
//! inter-service data flows *observable*; this module is the measurement
//! substrate behind that claim. It lives in `knactor-types` — the lowest
//! layer of the workspace — so the store, logstore, net, and core crates
//! can all instrument their hot paths against one registry without
//! dependency cycles; `knactor-core` re-exports it as `core::metrics`.
//!
//! Design rules:
//!
//! * **Registration is cold, recording is hot.** Looking a metric up by
//!   name takes a `RwLock` read; the returned handle is an `Arc` of plain
//!   atomics, so instrumented code registers once and then records with
//!   `fetch_add`/`store` only. No locks, no allocation, on the hot path.
//! * **Histograms are fixed-bucket.** A shared exponential ladder from
//!   1 µs to 60 s (durations are recorded in nanoseconds, exported in
//!   seconds). Quantiles (p50/p95/p99) are derived from the buckets by
//!   linear interpolation and clamped to the recorded min/max.
//! * **Labels are sorted.** A metric's identity is its name plus its
//!   sorted `(key, value)` label pairs, so `{store="a",op="get"}` and
//!   `{op="get",store="a"}` are the same series and exposition order is
//!   deterministic.
//!
//! [`MetricsSnapshot`] is a plain serializable value: it travels over the
//! `knactor-net` wire as the `Metrics` response, renders to Prometheus
//! text exposition via [`MetricsSnapshot::to_prometheus`], and feeds
//! `Composer::health()` and the bench binaries programmatically.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Histogram bucket upper bounds, in nanoseconds: 1 µs → 60 s, roughly
/// 1-2.5-5 per decade. One implicit overflow bucket follows the last
/// bound, so every observation lands somewhere.
pub const BUCKET_BOUNDS_NS: &[u64] = &[
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
    60_000_000_000,
];

const NS_PER_SEC: f64 = 1e9;

/// A metric's identity: name + sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, fan-out widths, lag).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (nanosecond observations).
#[derive(Debug)]
pub struct Histogram {
    /// One slot per bound plus the trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..=BUCKET_BOUNDS_NS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| bound < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// The registry: name + labels → shared atomic handles.
///
/// `counter`/`gauge`/`histogram` register-or-fetch: the first call for an
/// id creates the series, later calls return the same `Arc`. Hold the
/// handle across calls — re-looking it up per record works but pays the
/// read lock each time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<MetricId, Arc<Counter>>>,
    gauges: RwLock<HashMap<MetricId, Arc<Gauge>>>,
    histograms: RwLock<HashMap<MetricId, Arc<Histogram>>>,
}

fn register<T: Default>(
    map: &RwLock<HashMap<MetricId, Arc<T>>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let id = MetricId::new(name, labels);
    if let Some(found) = map.read().expect("metrics lock").get(&id) {
        return Arc::clone(found);
    }
    let mut map = map.write().expect("metrics lock");
    Arc::clone(map.entry(id).or_default())
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        register(&self.counters, name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        register(&self.gauges, name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        register(&self.histograms, name, labels)
    }

    /// A point-in-time copy of every registered series, sorted by
    /// (name, labels). Each series' fields are loaded atomically; the
    /// snapshot as a whole is not a cross-series transaction (writers
    /// keep running), but every counter value read is one that the
    /// counter actually held.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, c)| CounterSnapshot {
                name: id.name.clone(),
                labels: id.labels.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));

        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, g)| GaugeSnapshot {
                name: id.name.clone(),
                labels: id.labels.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));

        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, h)| {
                // Count is read *before* the buckets: concurrent observes
                // bump buckets after count, so the bucket sum can only be
                // >= the count read here, never leave it unaccounted.
                let count = h.count.load(Ordering::Acquire);
                HistogramSnapshot {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    bounds_ns: BUCKET_BOUNDS_NS.to_vec(),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Acquire))
                        .collect(),
                    count,
                    sum_ns: h.sum_ns.load(Ordering::Relaxed),
                    min_ns: h.min_ns.load(Ordering::Relaxed),
                    max_ns: h.max_ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));

        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Serializable point-in-time copy of a registry ([`MetricsRegistry::snapshot`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CounterSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GaugeSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: i64,
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub bounds_ns: Vec<u64>,
    /// `bounds_ns.len() + 1` slots; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum_ns: u64,
    /// `u64::MAX` when the histogram is empty.
    pub min_ns: u64,
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (0.0 ..= 1.0) in **seconds**, linearly
    /// interpolated within the containing bucket and clamped to the
    /// recorded min/max. `None` when nothing has been observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        let mut estimate_ns = self.max_ns as f64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            let next = cumulative + bucket;
            if (next as f64) >= rank && bucket > 0 {
                let lower = if i == 0 { 0 } else { self.bounds_ns[i - 1] };
                let upper = if i < self.bounds_ns.len() {
                    self.bounds_ns[i]
                } else {
                    // Overflow bucket: its only honest upper bound is the
                    // recorded maximum.
                    self.max_ns
                };
                let into = (rank - cumulative as f64) / bucket as f64;
                estimate_ns = lower as f64 + into * (upper.saturating_sub(lower)) as f64;
                break;
            }
            cumulative = next;
        }
        Some((estimate_ns.max(self.min_ns as f64).min(self.max_ns as f64)) / NS_PER_SEC)
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Largest observation, in seconds.
    pub fn max_seconds(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_ns as f64 / NS_PER_SEC)
    }

    /// Smallest observation, in seconds.
    pub fn min_seconds(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_ns as f64 / NS_PER_SEC)
    }
}

/// Owned, sorted label pairs — the series-identity form snapshots store.
fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// Escape a label value for Prometheus text exposition: backslash,
/// double-quote, and newline must be escaped, in that order of rules.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Format a float the way Prometheus exposition expects (no exponent for
/// the common cases, `+Inf` spelled out by callers).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.9}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

impl MetricsSnapshot {
    /// The value of one counter series, by exact name + label set
    /// (label order is irrelevant; identity is sorted pairs, matching
    /// the registry). `None` when the series has never been recorded.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = sorted_labels(labels);
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == id)
            .map(|c| c.value)
    }

    /// The value of one gauge series (exact name + label set).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let id = sorted_labels(labels);
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels == id)
            .map(|g| g.value)
    }

    /// One histogram series, by exact name + label set.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let id = sorted_labels(labels);
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels == id)
    }

    /// The between-scrapes window: everything that happened *after*
    /// `earlier` was taken. This is what rate computations must use —
    /// process-lifetime totals hide recent shifts behind the entire
    /// history's average.
    ///
    /// Semantics per metric kind:
    ///
    /// * **Counters** subtract saturating: a counter that reset (restart,
    ///   or the `earlier` snapshot is from another process) yields `0`
    ///   for the window rather than a bogus huge value; a series absent
    ///   from `earlier` contributes its full value (it was born inside
    ///   the window).
    /// * **Gauges** are levels, not rates — the later value is kept
    ///   verbatim.
    /// * **Histograms** subtract bucket-wise (and `count`/`sum_ns`),
    ///   saturating per bucket. `min_ns`/`max_ns` are lifetime extremes
    ///   the registry does not window, so the delta keeps the later
    ///   snapshot's values as a conservative bound — unless nothing
    ///   landed in the window, in which case the delta histogram is
    ///   empty (`count == 0`, `min_ns == u64::MAX`, `max_ns == 0`).
    ///
    /// Series that exist only in `earlier` are dropped (nothing happened
    /// to them inside the window that the later snapshot can attest).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|e| e.name == c.name && e.labels == c.labels)
                    .map(|e| e.value)
                    .unwrap_or(0);
                CounterSnapshot {
                    name: c.name.clone(),
                    labels: c.labels.clone(),
                    value: c.value.saturating_sub(before),
                }
            })
            .collect();
        let gauges = self.gauges.clone();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let before = earlier
                    .histograms
                    .iter()
                    .find(|e| e.name == h.name && e.labels == h.labels);
                match before {
                    None => h.clone(),
                    Some(b) => {
                        let buckets = h
                            .buckets
                            .iter()
                            .zip(b.buckets.iter().chain(std::iter::repeat(&0)))
                            .map(|(now, before)| now.saturating_sub(*before))
                            .collect();
                        let count = h.count.saturating_sub(b.count);
                        HistogramSnapshot {
                            name: h.name.clone(),
                            labels: h.labels.clone(),
                            bounds_ns: h.bounds_ns.clone(),
                            buckets,
                            count,
                            sum_ns: h.sum_ns.saturating_sub(b.sum_ns),
                            min_ns: if count == 0 { u64::MAX } else { h.min_ns },
                            max_ns: if count == 0 { 0 } else { h.max_ns },
                        }
                    }
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Windowed rate of one counter series: its [`delta`](Self::delta)
    /// against `earlier`, divided by the window length. This is the
    /// number `knactorctl metrics --watch` wants — events per second
    /// *between* the two scrapes.
    pub fn counter_rate(
        &self,
        earlier: &MetricsSnapshot,
        window: Duration,
        name: &str,
        labels: &[(&str, &str)],
    ) -> f64 {
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let now = self.counter_value(name, labels).unwrap_or(0);
        let before = earlier.counter_value(name, labels).unwrap_or(0);
        now.saturating_sub(before) as f64 / secs
    }

    /// Render the snapshot in Prometheus text exposition format.
    /// Durations are exported in seconds; each metric family gets one
    /// `# TYPE` line; series are emitted in sorted (name, labels) order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";

        for c in &self.counters {
            if c.name != last_family {
                out.push_str(&format!("# TYPE {} counter\n", c.name));
            }
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                render_labels(&c.labels, None),
                c.value
            ));
            last_family = &c.name;
        }
        for g in &self.gauges {
            if g.name != last_family {
                out.push_str(&format!("# TYPE {} gauge\n", g.name));
            }
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                render_labels(&g.labels, None),
                g.value
            ));
            last_family = &g.name;
        }
        for h in &self.histograms {
            if h.name != last_family {
                out.push_str(&format!("# TYPE {} histogram\n", h.name));
            }
            let mut cumulative = 0u64;
            for (i, &bucket) in h.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = if i < h.bounds_ns.len() {
                    fmt_f64(h.bounds_ns[i] as f64 / NS_PER_SEC)
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    render_labels(&h.labels, Some(("le", &le))),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                h.name,
                render_labels(&h.labels, None),
                fmt_f64(h.sum_ns as f64 / NS_PER_SEC)
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                render_labels(&h.labels, None),
                h.count
            ));
            last_family = &h.name;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("knactor_test_total", &[("store", "s1")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same id → same handle.
        let c2 = reg.counter("knactor_test_total", &[("store", "s1")]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("knactor_test_depth", &[]);
        g.set(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn label_order_is_identity_irrelevant() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("knactor_test_seconds", &[]);
        for us in [10u64, 20, 50, 100, 500, 1000, 5000, 10_000, 50_000, 100_000] {
            h.observe(Duration::from_micros(us));
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.count, 10);
        let p50 = hs.p50().unwrap();
        let p99 = hs.p99().unwrap();
        assert!(p50 <= p99, "p50 {p50} <= p99 {p99}");
        assert!(p50 >= hs.min_seconds().unwrap());
        assert!(p99 <= hs.max_seconds().unwrap());
    }

    #[test]
    fn delta_subtracts_counters_between_scrapes() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("knactor_events_total", &[("kind", "a")]);
        c.add(10);
        let earlier = reg.snapshot();
        c.add(7);
        let later = reg.snapshot();
        let d = later.delta(&earlier);
        assert_eq!(
            d.counter_value("knactor_events_total", &[("kind", "a")]),
            Some(7)
        );
        // Rate over a 2s window: 7 / 2.
        let rate = later.counter_rate(
            &earlier,
            Duration::from_secs(2),
            "knactor_events_total",
            &[("kind", "a")],
        );
        assert!((rate - 3.5).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn delta_counter_reset_saturates_to_zero() {
        // `earlier` claims a larger value than `self` (counter reset,
        // e.g. the process restarted between scrapes): the window must
        // be 0, never a wrapped huge number.
        let reg_a = MetricsRegistry::new();
        reg_a.counter("m_total", &[]).add(100);
        let earlier = reg_a.snapshot();
        let reg_b = MetricsRegistry::new();
        reg_b.counter("m_total", &[]).add(3);
        let later = reg_b.snapshot();
        assert_eq!(later.delta(&earlier).counter_value("m_total", &[]), Some(0));
    }

    #[test]
    fn delta_series_born_inside_window_counts_fully() {
        let reg = MetricsRegistry::new();
        let earlier = reg.snapshot();
        reg.counter("born_total", &[]).add(5);
        reg.histogram("born_seconds", &[])
            .observe(Duration::from_micros(10));
        let later = reg.snapshot();
        let d = later.delta(&earlier);
        assert_eq!(d.counter_value("born_total", &[]), Some(5));
        assert_eq!(d.histogram("born_seconds", &[]).unwrap().count, 1);
    }

    #[test]
    fn delta_histograms_subtract_bucketwise() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("knactor_stage_seconds", &[("stage", "read")]);
        h.observe(Duration::from_micros(10));
        h.observe(Duration::from_millis(10));
        let earlier = reg.snapshot();
        h.observe(Duration::from_micros(10));
        h.observe(Duration::from_micros(10));
        let later = reg.snapshot();
        let d = later.delta(&earlier);
        let hs = d
            .histogram("knactor_stage_seconds", &[("stage", "read")])
            .unwrap();
        assert_eq!(hs.count, 2);
        // Only the 10µs bucket moved inside the window.
        assert_eq!(hs.buckets.iter().sum::<u64>(), 2);
        assert_eq!(hs.sum_ns, 20_000, "windowed sum");
    }

    #[test]
    fn delta_empty_window_yields_empty_histogram() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("quiet_seconds", &[]);
        h.observe(Duration::from_micros(50));
        let earlier = reg.snapshot();
        let later = reg.snapshot();
        let d = later.delta(&earlier);
        let hs = d.histogram("quiet_seconds", &[]).unwrap();
        assert_eq!(hs.count, 0);
        assert_eq!(
            hs.min_ns,
            u64::MAX,
            "empty delta must look like an empty histogram"
        );
        assert_eq!(hs.max_ns, 0);
        assert_eq!(hs.p50(), None);
    }

    #[test]
    fn delta_of_identical_snapshots_is_all_zero() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[]).add(9);
        reg.gauge("b_depth", &[]).set(4);
        reg.histogram("c_seconds", &[])
            .observe(Duration::from_micros(10));
        let snap = reg.snapshot();
        let d = snap.delta(&snap.clone());
        assert_eq!(d.counter_value("a_total", &[]), Some(0));
        // Gauges are levels: kept verbatim, not differenced.
        assert_eq!(d.gauge_value("b_depth", &[]), Some(4));
        assert_eq!(d.histogram("c_seconds", &[]).unwrap().count, 0);
    }

    #[test]
    fn prometheus_rendering_escapes_and_orders() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", &[("p", "a\"b\\c\nd")]).inc();
        reg.counter("a_total", &[]).add(2);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE a_total counter\na_total 2\n"));
        assert!(text.contains("z_total{p=\"a\\\"b\\\\c\\nd\"} 1\n"));
        // a_ sorts before z_.
        assert!(text.find("a_total").unwrap() < text.find("z_total").unwrap());
    }
}

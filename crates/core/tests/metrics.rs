//! Unit + property tests for `core::metrics` (the registry re-exported
//! from `knactor-types`): concurrency linearity, histogram bucket
//! properties, snapshot consistency under writes, and the Prometheus
//! exposition format.

use knactor_core::metrics::{MetricsRegistry, BUCKET_BOUNDS_NS};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// splitmix64 — the same generator style the proto/WAL property tests
/// use; deterministic, seedable, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn concurrent_increments_are_linear() {
    // 16 threads × 10_000 increments each: nothing lost, nothing
    // double-counted. Exercises both the shared-handle path and the
    // register-or-get lookup path under contention.
    const THREADS: usize = 16;
    const PER_THREAD: u64 = 10_000;
    let reg = Arc::new(MetricsRegistry::new());
    let shared = reg.counter("linearity_total", &[("mode", "shared")]);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    if i % 2 == 0 {
                        shared.inc();
                    } else {
                        // Re-look the series up by name each time.
                        reg.counter("linearity_total", &[("mode", "shared")]).inc();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(shared.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_histogram_observes_conserve_count() {
    const THREADS: usize = 16;
    const PER_THREAD: usize = 5_000;
    let reg = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ t as u64);
                let h = reg.histogram("conserve_seconds", &[]);
                for _ in 0..PER_THREAD {
                    h.observe_ns(rng.below(100_000_000_000));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    let h = &snap.histograms[0];
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(h.count, total);
    assert_eq!(h.buckets.iter().sum::<u64>(), total, "count conservation");
}

#[test]
fn histogram_bucket_properties_hold_for_random_observations() {
    // Property sweep over random observation sets: monotone CDF, count
    // conservation, quantiles monotone in q and clamped to [min, max].
    let mut rng = Rng(0xDEAD_BEEF);
    for case in 0..50u64 {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("prop_seconds", &[]);
        let n = 1 + rng.below(500);
        let mut min_seen = u64::MAX;
        let mut max_seen = 0u64;
        for _ in 0..n {
            // Skewed across the full bucket range including overflow.
            let ns = match rng.below(4) {
                0 => rng.below(1_000_000),                       // sub-ms
                1 => rng.below(1_000_000_000),                   // sub-second
                2 => rng.below(60_000_000_000),                  // within bounds
                _ => 60_000_000_000 + rng.below(10_000_000_000), // overflow
            };
            min_seen = min_seen.min(ns);
            max_seen = max_seen.max(ns);
            h.observe_ns(ns);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.count, n, "case {case}");
        assert_eq!(hs.min_ns, min_seen, "case {case}");
        assert_eq!(hs.max_ns, max_seen, "case {case}");
        assert_eq!(hs.buckets.len(), BUCKET_BOUNDS_NS.len() + 1);
        assert_eq!(
            hs.buckets.iter().sum::<u64>(),
            n,
            "case {case}: conservation"
        );

        // Monotone CDF by construction (cumulative sums of non-negative
        // buckets); assert the rendered cumulative counts agree.
        let mut cumulative = 0u64;
        for &b in &hs.buckets {
            cumulative += b;
        }
        assert_eq!(cumulative, n);

        // Quantiles: monotone in q, inside [min, max].
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut prev = f64::MIN;
        for q in qs {
            let v = hs.quantile(q).expect("non-empty");
            assert!(
                v >= prev - 1e-12,
                "case {case}: quantile({q}) = {v} < previous {prev}"
            );
            assert!(v >= hs.min_seconds().unwrap() - 1e-12, "case {case}");
            assert!(v <= hs.max_seconds().unwrap() + 1e-12, "case {case}");
            prev = v;
        }
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let reg = MetricsRegistry::new();
    let _ = reg.histogram("empty_seconds", &[]);
    let snap = reg.snapshot();
    let hs = &snap.histograms[0];
    assert_eq!(hs.count, 0);
    assert!(hs.p50().is_none());
    assert!(hs.max_seconds().is_none());
}

#[test]
fn snapshot_is_consistent_under_writes() {
    // Writers hammer a counter and a histogram while a reader snapshots:
    // every snapshot must be internally coherent (bucket sum >= count
    // read-before-buckets never loses observations; counter values are
    // monotone across successive snapshots).
    let reg = Arc::new(MetricsRegistry::new());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut rng = Rng(t);
                let c = reg.counter("busy_total", &[]);
                let h = reg.histogram("busy_seconds", &[]);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    c.inc();
                    h.observe_ns(rng.below(10_000_000));
                }
            })
        })
        .collect();

    let mut last_counter = 0u64;
    let mut last_hist_count = 0u64;
    for _ in 0..200 {
        let snap = reg.snapshot();
        if let Some(c) = snap.counters.iter().find(|c| c.name == "busy_total") {
            assert!(c.value >= last_counter, "counter went backwards");
            last_counter = c.value;
        }
        if let Some(h) = snap.histograms.iter().find(|h| h.name == "busy_seconds") {
            assert!(h.count >= last_hist_count, "histogram count went backwards");
            assert!(
                h.buckets.iter().sum::<u64>() >= h.count,
                "bucket sum {} < count {} — snapshot lost observations",
                h.buckets.iter().sum::<u64>(),
                h.count
            );
            last_hist_count = h.count;
        }
        thread::sleep(Duration::from_micros(50));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn prometheus_exposition_golden() {
    let reg = MetricsRegistry::new();
    reg.counter(
        "knactor_store_ops_total",
        &[("store", "a/state"), ("op", "get")],
    )
    .add(7);
    reg.counter(
        "knactor_store_ops_total",
        &[("op", "create"), ("store", "a/state")],
    )
    .add(2);
    reg.gauge("knactor_store_fanout_depth", &[("store", "a/state")])
        .set(3);
    let h = reg.histogram("knactor_store_commit_seconds", &[("store", "a/state")]);
    h.observe(Duration::from_micros(2)); // second bucket (le=2.5µs)
    h.observe(Duration::from_millis(2)); // le=2.5ms bucket
    let text = reg.snapshot().to_prometheus();

    // Label keys sorted (op before store), series sorted within family,
    // one TYPE line per family.
    assert_eq!(
        text.matches("# TYPE knactor_store_ops_total counter")
            .count(),
        1
    );
    assert!(text.contains("knactor_store_ops_total{op=\"create\",store=\"a/state\"} 2\n"));
    assert!(text.contains("knactor_store_ops_total{op=\"get\",store=\"a/state\"} 7\n"));
    assert!(text.contains("# TYPE knactor_store_fanout_depth gauge\n"));
    assert!(text.contains("knactor_store_fanout_depth{store=\"a/state\"} 3\n"));
    assert!(text.contains("# TYPE knactor_store_commit_seconds histogram\n"));
    // Cumulative buckets (`le` renders after the series labels): the 2µs
    // observation is inside le=2.5µs (0.0000025); both observations are
    // inside le=0.0025.
    assert!(text
        .contains("knactor_store_commit_seconds_bucket{store=\"a/state\",le=\"0.0000025\"} 1\n"));
    assert!(
        text.contains("knactor_store_commit_seconds_bucket{store=\"a/state\",le=\"0.0025\"} 2\n")
    );
    assert!(text.contains("knactor_store_commit_seconds_bucket{store=\"a/state\",le=\"+Inf\"} 2\n"));
    assert!(text.contains("knactor_store_commit_seconds_count{store=\"a/state\"} 2\n"));

    // Exposition escaping.
    let reg2 = MetricsRegistry::new();
    reg2.counter("esc_total", &[("v", "a\\b\"c\nd")]).inc();
    let text2 = reg2.snapshot().to_prometheus();
    assert!(text2.contains("esc_total{v=\"a\\\\b\\\"c\\nd\"} 1\n"));
}

#[test]
fn snapshot_roundtrips_through_serde() {
    let reg = MetricsRegistry::new();
    reg.counter("roundtrip_total", &[("k", "v")]).add(42);
    reg.histogram("roundtrip_seconds", &[])
        .observe(Duration::from_millis(5));
    let snap = reg.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: knactor_core::metrics::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
}
